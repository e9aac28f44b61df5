"""The three phkit benchmark workloads.

Each workload makes its inputs from the seed alone, drives phkit through
its public functions or its CLI, and checks every output. A pass is one
complete job on one input: ``run_pass`` returns its stage times, the
digests that must repeat when the pass repeats, and what the traced run
needs for its counters. Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Stopwatch, expect

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_TIMEOUT_S = 150


@dataclass
class PassResult:
    wall: dict  # wall seconds of each timed stage and of named sums
    digests: dict = field(default_factory=dict)
    state: dict = field(default_factory=dict)


def stage_times(stages: dict, sums: dict) -> dict:
    """Wall seconds of each timed stage and of each named sum of stages."""
    times = {name: t.wall for name, t in stages.items()}
    times.update({name: sum(times[part] for part in parts)
                  for name, parts in sums.items()})
    return times


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def diagrams_digest(diagrams) -> str:
    """Digest of sorted (birth, death) values, independent of file format."""
    h = hashlib.sha256()
    for pd in diagrams:
        order = np.lexsort((pd.deaths, pd.births))
        h.update(f"degree {pd.degree}:{len(pd)};".encode())
        h.update(np.ascontiguousarray(pd.births[order], dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(pd.deaths[order], dtype="<f8").tobytes())
    return h.hexdigest()


def apparent_pairs(bm, n: int):
    """(sigma, tau) with sigma tau's youngest facet and tau sigma's oldest
    cofacet, read off the public CSR-by-column boundary matrix."""
    lengths = np.diff(bm.indptr)
    cols = np.flatnonzero(lengths > 0)
    low = bm.indices[bm.indptr[cols + 1] - 1]
    col_of = np.repeat(np.arange(n), lengths)
    rows, first = np.unique(bm.indices, return_index=True)
    oldest_cofacet = np.full(n, -1, dtype=np.int64)
    oldest_cofacet[rows] = col_of[first]
    keep = oldest_cofacet[low] == cols
    return low[keep], cols[keep]


def pairing_counts(f, pairing) -> dict:
    """Counters of one reduction, taken after timing; checks the pairing."""
    bm = f.boundary_matrix()
    n = len(f)
    pairs = np.array(pairing.pairs, dtype=np.int64).reshape(-1, 2)
    expect(2 * len(pairs) + len(pairing.essential) == n,
           f"2*{len(pairs)} pairs + {len(pairing.essential)} essential "
           f"!= {n} cells")
    sigma, tau = apparent_pairs(bm, n)
    expect((pairing.pivot_of[sigma] == tau).all(),
           "an apparent pair is not a persistence pair")
    added = 0
    for j, col in pairing.reduced.items():
        if col != bm.indices[bm.indptr[j]:bm.indptr[j + 1]].tolist():
            added += 1
    values = f.values
    return {
        "complexes.cells": n,
        "complexes.boundary_nnz": len(bm.indices),
        "persistence.pairs": len(pairs),
        "persistence.zero_pairs":
            int((values[pairs[:, 0]] == values[pairs[:, 1]]).sum()),
        "persistence.essential": len(pairing.essential),
        "persistence.apparent_pairs": len(sigma),
        "persistence.columns_added": added,
        "persistence.reduced_entries":
            sum(len(c) for c in pairing.reduced.values()),
    }


def add_counts(total: dict, more: dict):
    for key, value in more.items():
        total[key] = total.get(key, 0) + value


def cells_per_dim(f) -> list[int]:
    return np.bincount(f.dims.astype(np.int64)).tolist()


def check_cycle(cycle, bm):
    """A 1-cycle's edges meet every vertex an even number of times."""
    ends = np.concatenate([bm.indices[bm.indptr[e]:bm.indptr[e + 1]]
                           for e in cycle.cell_indices])
    _, counts = np.unique(ends, return_counts=True)
    expect(len(cycle.cell_indices) >= 3 and (counts % 2 == 0).all(),
           "representative is not a 1-cycle")


class Cli:
    """Runs ``python -m phkit.cli`` children with phkit's absolute src path.

    The path must be absolute: children run in the work directory, where a
    relative entry on PYTHONPATH no longer resolves.
    """

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _run(self, tracer, span, argv, cwd):
        with tracer.span(span):
            proc = subprocess.run(argv, cwd=cwd, env=self.env,
                                  capture_output=True, timeout=CLI_TIMEOUT_S)
        expect(proc.returncode == 0,
               f"exit {proc.returncode}: "
               f"{proc.stderr.decode(errors='replace').strip()[-400:]}")
        return proc.stdout

    def command(self, tracer, span, args, cwd):
        return self._run(tracer, span,
                         [sys.executable, "-m", "phkit.cli", *args], cwd)

    def run_code(self, tracer, code, cwd, span="cli.import"):
        return self._run(tracer, span, [sys.executable, "-c", code], cwd)


def _signed_sqrt(x: float) -> float:
    # the conversion `phkit compute` applies to point-cloud diagrams
    return float(np.sign(x) * np.sqrt(abs(x)))


def _default_window(pd):
    # the window `phkit plot` and `phkit vectorize` pick without --range
    values = [v for bd in pd.finite_pairs for v in bd] + pd.essential_births
    if not values:
        return 0.0, 1.0
    lo = min(0.0, min(values))
    hi = max(values)
    span = hi - lo
    if span <= 0:
        span = 1.0
    return lo, hi + 0.05 * span


def _most_persistent(lines: list[str]):
    best = None
    for line in lines:
        b, d = line.split()
        if d == "inf":
            continue
        persistence = float(d) - float(b)
        if best is None or persistence > best[0]:
            best = (persistence, b, d)
    expect(best is not None, "no finite degree-1 pair")
    return best[1], best[2]


class AlphaCli:
    """Point cloud file through the whole CLI, one process per command."""

    name = "alpha-cli"
    INPUT = "cloud.txt"
    DIAGRAM = "cloud.diagram.json"
    MIRROR = "mirror.diagram.json"
    SVG = "pd1.svg"
    CSV = "pd1.csv"
    IMPORT_REPEATS = 3

    def __init__(self, points=20_000):
        self.points = points
        self.cli = Cli()

    def setup(self, seed, work):
        pts = np.random.default_rng(seed).random((self.points, 3))
        np.savetxt(work / self.INPUT, pts, fmt="%.17g")
        return pts

    def run_pass(self, pts, work, ledger, tracer):
        cli = self.cli
        diagram = self.DIAGRAM
        with ledger.op("phkit compute"), Stopwatch() as t_compute:
            cli.command(
                tracer, "cli.compute",
                ["compute", self.INPUT, "--kind", "pointcloud", "-o", diagram],
                work)
        with ledger.op("phkit pairs"):
            with Stopwatch() as t_pairs:
                out = cli.command(tracer, "cli.pairs",
                                  ["pairs", diagram, "--degree", "1"], work)
            lines = out.decode().splitlines()
            b, d = _most_persistent(lines)
        with ledger.op("phkit plot"):
            with Stopwatch() as t_plot:
                cli.command(tracer, "cli.plot",
                            ["plot", diagram, "--degree", "1", "-o", self.SVG],
                            work)
            svg = (work / self.SVG).read_bytes()
            expect(svg.startswith(b"<svg") and b"</svg>" in svg,
                   "plot wrote no SVG document")
        with ledger.op("phkit vectorize"):
            with Stopwatch() as t_vec:
                cli.command(tracer, "cli.vectorize",
                            ["vectorize", diagram, "--degree", "1",
                             "-o", self.CSV], work)
            csv = (work / self.CSV).read_bytes()
            vec = np.array([float(v) for v in csv.decode().split(",")])
            expect(len(vec) == 400 and np.isfinite(vec).all()
                   and (vec >= 0).all(), "vectorize row is not 400 "
                   "finite non-negative values")
        with ledger.op("phkit invert"):
            with Stopwatch() as t_invert:
                inv = cli.command(tracer, "cli.invert",
                                  ["invert", diagram, "--degree", "1",
                                   "--tighten", "--nearest", b, d], work)
            head = inv.decode().splitlines()[:2]
            expect(head[:1] == [f"pair: {b} {d}"],
                   f"invert answered {head[:1]} for pair {b} {d}")
            expect(len(head) == 2 and head[1].startswith("cells (")
                   and int(head[1][7:].split(")")[0]) >= 3,
                   "invert printed no cycle")
        stages = {"compute_s": t_compute, "pairs_s": t_pairs,
                  "plot_s": t_plot, "vectorize_s": t_vec,
                  "invert_s": t_invert}
        return PassResult(
            wall=stage_times(stages, {
                "diagram_s": ["compute_s"],
                "query_s": ["pairs_s", "plot_s", "vectorize_s"],
                "total_s": list(stages)}),
            digests={"diagram file": sha256((work / diagram).read_bytes()),
                     "pairs stdout": sha256(out), "SVG": sha256(svg),
                     "CSV": sha256(csv), "invert stdout": sha256(inv)},
            state={"pair": (b, d), "pair_lines": len(lines)})

    def describe(self, first, work, ledger):
        import phkit

        desc = {"points": self.points, "dimension": 3}
        with ledger.op("read and check the diagram file"):
            df = phkit.read_diagram_file(work / self.DIAGRAM)
            diagrams = [df.diagram(k) for k in range(df.max_degree + 1)]
            essential = [len(pd.essential_births) for pd in diagrams]
            expect(essential == [1, 0, 0, 0],
                   f"essential counts {essential}, expected [1, 0, 0, 0]")
            expect(len(diagrams[1]) == first.state["pair_lines"],
                   f"pairs printed {first.state['pair_lines']} lines for "
                   f"{len(diagrams[1])} degree-1 pairs")
            desc.update(
                diagram_pairs=[len(pd) for pd in diagrams],
                diagram_file_bytes=(work / self.DIAGRAM).stat().st_size,
                diagrams_digest=diagrams_digest(diagrams))
        return desc

    def layers(self, pts, work, ledger, traced, tracer):
        """Repeat the CLI's library calls in-process, under spans."""
        import phkit
        from scipy.spatial import Delaunay

        with ledger.op("python -c 'import phkit.cli'"):
            for _ in range(self.IMPORT_REPEATS):
                self.cli.run_code(tracer, "import phkit.cli", work)
        with ledger.op("library calls of phkit compute"):
            with tracer.span("fileio.read_point_cloud"):
                cloud = phkit.read_point_cloud(work / self.INPUT)
            with tracer.span("alpha.alpha_filtration"):
                f = phkit.alpha_filtration(cloud)
            with tracer.span("persistence.compute_persistence"):
                pairing, dgms = phkit.compute_persistence(f)
            with tracer.span("persistence.scaled"):
                scaled = [pd.scaled(_signed_sqrt) for pd in dgms]
            with tracer.span("fileio.write_diagram_file"):
                phkit.write_diagram_file(
                    work / self.MIRROR, scaled, kind="pointcloud",
                    squared=False, input_path=self.INPUT,
                    params={"maxdim": None})
            expect((work / self.MIRROR).read_bytes()
                   == (work / self.DIAGRAM).read_bytes(),
                   "library diagram file differs from the CLI's")
        with ledger.op("library calls of phkit plot and vectorize"):
            with tracer.span("fileio.read_diagram_file"):
                df = phkit.read_diagram_file(work / self.DIAGRAM)
            pd1 = df.diagram(1)
            window = _default_window(pd1)
            with tracer.span("analysis.histogram"):
                hist = phkit.histogram(pd1, window, 64)
            with tracer.span("svgplot.histogram_svg"):
                svg = phkit.histogram_svg(hist)
            expect(svg.encode() == (work / self.SVG).read_bytes(),
                   "library SVG differs from the CLI's")
            with tracer.span("analysis.persistence_image"):
                img = phkit.persistence_image(
                    pd1, window, 20, 0.05 * (window[1] - window[0]))
            row = ",".join(f"{v:.17g}" for v in img.vector) + "\n"
            expect(row.encode() == (work / self.CSV).read_bytes(),
                   "library persistence image differs from the CLI's")
        with ledger.op("library calls of phkit invert"):
            b, d = (float(x) for x in traced.state["pair"])
            pd = scaled[1]
            k = np.flatnonzero((pd.births == b) & (pd.deaths == d))
            expect(len(k) >= 1, f"pair {b} {d} not in the library diagram")
            pair = (int(pd.birth_index[k[0]]), int(pd.death_index[k[0]]))
            with tracer.span("persistence.representative_cycle"):
                cycle = phkit.representative_cycle(pairing, pair)
            with tracer.span("persistence.tighten_cycle_1d"):
                tight = phkit.tighten_cycle_1d(pairing, cycle)
            check_cycle(tight, f.boundary_matrix())
        with ledger.op("scipy Delaunay on the same points"):
            with tracer.span("alpha.qhull"):
                Delaunay(cloud.points)
        with ledger.op("resident set of alpha_filtration and "
                       "compute_persistence"):
            with tracer.memory("alpha.alpha_filtration"):
                again = phkit.alpha_filtration(cloud)
            with tracer.memory("persistence.compute_persistence"):
                phkit.compute_persistence(again)
            del again
        with ledger.op("pairing counters"):
            counts = pairing_counts(f, pairing)
            essential = [len(pd.essential_births) for pd in dgms]
            expect(essential == [1, 0, 0, 0],
                   f"essential counts {essential}, expected [1, 0, 0, 0]")
        counts["fileio.diagram_file_bytes"] = \
            (work / self.DIAGRAM).stat().st_size
        counts["alpha.jitter_retries"] = _jitter_retries(f.info, pts)
        library = ["cli.import", "fileio.read_diagram_file",
                   "fileio.read_point_cloud", "fileio.read_point_cloud",
                   "alpha.alpha_filtration", "persistence.compute_persistence",
                   "persistence.representative_cycle",
                   "persistence.tighten_cycle_1d"]
        derived = {"cli.invert_self_s": tracer.total("cli.invert") - sum(
            float(np.median(tracer.durations(name))) for name in library)}
        return counts, derived, {"cells_per_dim": cells_per_dim(f)}


def _jitter_retries(info: dict, pts) -> int:
    # alpha retries Qhull with jitter scale * 10**(attempt - 9) and records
    # only the last magnitude; the attempt number gives the retry count
    if not info.get("jittered"):
        return 0
    scale = float(np.abs(pts).max()) or 1.0
    return int(round(np.log10(info["jitter"] / scale))) + 10


class CubicalLib:
    """Grayscale volume through the library: build, reduce, vectorize."""

    name = "cubical-lib"
    IMAGE_DEGREES = (1, 2)

    def __init__(self, side=40):
        self.shape = (side, side, side)

    def setup(self, seed, work):
        return np.random.default_rng(seed).random(self.shape)

    def run_pass(self, volume, work, ledger, tracer):
        import phkit

        with ledger.op("cubical_filtration and compute_persistence"):
            with Stopwatch() as t_diagram:
                with tracer.span("cubical.cubical_filtration"):
                    f = phkit.cubical_filtration(volume)
                with tracer.span("persistence.compute_persistence"):
                    pairing, dgms = phkit.compute_persistence(f)
            essential = [len(pd.essential_births) for pd in dgms]
            expect(essential == [1, 0, 0, 0],
                   f"essential counts {essential}, expected [1, 0, 0, 0]")
            expect(2 * len(pairing.pairs) + len(pairing.essential) == len(f),
                   "2*pairs + essential != cells")
        with ledger.op("persistence_image"):
            with Stopwatch() as t_image:
                with tracer.span("analysis.persistence_image"):
                    images = [
                        phkit.persistence_image(dgms[k], (0.0, 1.0), 20, 0.05)
                        for k in self.IMAGE_DEGREES]
            expect(all(np.isfinite(im.vector).all() and (im.vector >= 0).all()
                       for im in images), "persistence image not finite")
        state = {"cells_per_dim": cells_per_dim(f),
                 "diagram_pairs": [len(pd) for pd in dgms],
                 "diagrams_digest": diagrams_digest(dgms)}
        if tracer.enabled:
            state.update(filtration=f, pairing=pairing)
        return PassResult(
            wall=stage_times({"diagram_s": t_diagram, "image_s": t_image},
                             {"total_s": ["diagram_s", "image_s"]}),
            digests={"diagrams": state["diagrams_digest"]},
            state=state)

    def describe(self, first, work, ledger):
        return {"shape": list(self.shape),
                **{k: first.state[k] for k in
                   ("cells_per_dim", "diagram_pairs", "diagrams_digest")}}

    def layers(self, volume, work, ledger, traced, tracer):
        import phkit

        with ledger.op("resident set of cubical_filtration and "
                       "compute_persistence"):
            with tracer.memory("cubical.cubical_filtration"):
                f = phkit.cubical_filtration(volume)
            with tracer.memory("persistence.compute_persistence"):
                phkit.compute_persistence(f)
            del f
        with ledger.op("pairing counters"):
            counts = pairing_counts(traced.state["filtration"],
                                    traced.state["pairing"])
        return counts, {}, {}


class RipsCompare:
    """Noisy circle samples: Rips diagrams, then diagram distances."""

    name = "rips-compare"
    MAX_DIM = 2
    MAX_VALUE = 0.5
    NOISE = 0.05
    DEGREES = (0, 1)

    def __init__(self, samples=7, points=150):
        self.samples = samples
        self.points = points

    def setup(self, seed, work):
        import phkit

        rng = np.random.default_rng(seed)
        out = []
        for _ in range(self.samples):
            theta = rng.random(self.points) * 2.0 * np.pi
            pts = np.column_stack([np.cos(theta), np.sin(theta)])
            pts += rng.normal(0.0, self.NOISE, pts.shape)
            out.append(phkit.DistanceMatrix.from_points(pts))
        return out

    def run_pass(self, matrices, work, ledger, tracer):
        import phkit

        reductions = []
        with Stopwatch() as t_diagrams:
            for i, dm in enumerate(matrices):
                with ledger.op(f"rips_filtration sample {i}"), \
                        tracer.span("combinatorial.rips_filtration"):
                    f = phkit.rips_filtration(dm, self.MAX_DIM,
                                              self.MAX_VALUE)
                with ledger.op(f"compute_persistence sample {i}"), \
                        tracer.span("persistence.compute_persistence"):
                    pairing, dgms = phkit.compute_persistence(f)
                reductions.append((f, pairing, dgms))
        with ledger.op("2*pairs + essential = cells in every sample"):
            for f, pairing, _ in reductions:
                expect(2 * len(pairing.pairs) + len(pairing.essential)
                       == len(f), "2*pairs + essential != cells")
        diagrams = [dgms for _, _, dgms in reductions]
        queries = []
        with Stopwatch() as t_distances:
            for k in range(1, len(diagrams)):
                for deg in self.DEGREES:
                    a, b = diagrams[0][deg], diagrams[k][deg]
                    query = f"0~{k} degree {deg}"
                    with ledger.op(f"bottleneck_distance {query}"), \
                            tracer.span("analysis.bottleneck_distance"):
                        bottleneck = phkit.bottleneck_distance(a, b)
                    with ledger.op(f"wasserstein_distance {query}"), \
                            tracer.span("analysis.wasserstein_distance"):
                        w1 = phkit.wasserstein_distance(a, b, 1)
                    queries.append((a, b, bottleneck.value, w1.value))
        compared = 0
        with ledger.op("every distance finite, bottleneck <= W1"):
            for a, b, bottleneck, w1 in queries:
                expect(np.isfinite(bottleneck) and np.isfinite(w1),
                       f"distance not finite: {bottleneck}, {w1}")
                expect(bottleneck <= w1, f"bottleneck {bottleneck} > W1 {w1}")
                compared += int(a.finite_mask.sum() + b.finite_mask.sum())
        state = {"cells_per_dim": np.sum([cells_per_dim(f)
                                          for f, _, _ in reductions],
                                         axis=0).tolist(),
                 "diagram_pairs": np.sum([[len(pd) for pd in dgms]
                                          for dgms in diagrams],
                                         axis=0).tolist(),
                 "diagrams_digest": diagrams_digest(
                     [pd for dgms in diagrams for pd in dgms]),
                 "pairs_compared": compared}
        if tracer.enabled:
            state["reductions"] = [(f, p) for f, p, _ in reductions]
        return PassResult(
            wall=stage_times(
                {"diagram_s": t_diagrams, "distance_s": t_distances},
                {"total_s": ["diagram_s", "distance_s"]}),
            digests={"diagrams": state["diagrams_digest"]},
            state=state)

    def describe(self, first, work, ledger):
        return {"samples": self.samples, "points": self.points,
                "noise": self.NOISE, "max_value": self.MAX_VALUE,
                **{k: first.state[k] for k in
                   ("cells_per_dim", "diagram_pairs", "diagrams_digest")}}

    def layers(self, matrices, work, ledger, traced, tracer):
        import phkit

        counts = {"analysis.pairs_compared": traced.state["pairs_compared"]}
        with ledger.op("resident set of compute_persistence"):
            for f, _ in traced.state["reductions"]:
                with tracer.memory("persistence.compute_persistence"):
                    phkit.compute_persistence(f)
        with ledger.op("pairing counters"):
            for f, pairing in traced.state["reductions"]:
                add_counts(counts, pairing_counts(f, pairing))
        return counts, {}, {}


WORKLOADS = {w.name: w for w in (AlphaCli, CubicalLib, RipsCompare)}

# sizes for the smoke mode: every workload and layer, in seconds
SMOKE_SIZES = {"alpha-cli": {"points": 300},
               "cubical-lib": {"side": 8},
               "rips-compare": {"samples": 3, "points": 100}}
