"""Command-line pipeline: compute, pairs, plot, invert, vectorize, distance.

Exit codes: 0 on success, 2 for parse and usage problems, 3 for domain or
computation errors. All outputs are deterministic: the same inputs and
flags give byte-identical files and stdout.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .analysis import bottleneck_distance, histogram, persistence_image, \
    wasserstein_distance
from .complexes import Simplex
from .errors import (BadDegree, MissingProvenance, NoPairs, ParseError,
                     PHKitError, TooLarge)
from .fileio import (read_bitmap, read_diagram_file, read_distance_matrix,
                     read_point_cloud, write_diagram_file)
from .persistence import compute_persistence, representative_cycle, \
    tighten_cycle_1d
from .svgplot import histogram_svg

KINDS = ["pointcloud", "pointcloud-weighted", "distance-matrix",
         "bitmap", "binary-bitmap"]


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParseError as exc:
            _fail(str(exc), 2)
        except PHKitError as exc:
            _fail(f"{type(exc).__name__}: {exc}", 3)
        except (ValueError, OSError) as exc:
            _fail(str(exc), 2)
    return wrapper


@click.group()
def main():
    """Persistent homology toolkit."""


def _signed_sqrt(a: np.ndarray) -> np.ndarray:
    return np.sign(a) * np.sqrt(np.abs(a))


def _build_filtration(input_path, kind, maxdim, max_value, positive_inside):
    """The filtration of the input, and its point cloud for point kinds.

    Each branch imports its own builder: the commands that only read a
    diagram file never load scipy.spatial or scipy.ndimage, and each input
    kind loads only the module that builds it.
    """
    if kind == "pointcloud":
        from .alpha import alpha_filtration
        cloud = read_point_cloud(input_path)
        return alpha_filtration(cloud), cloud
    if kind == "pointcloud-weighted":
        from .alpha import weighted_alpha_filtration
        cloud = read_point_cloud(input_path, weighted=True)
        return weighted_alpha_filtration(cloud), cloud
    if kind == "distance-matrix":
        from .combinatorial import rips_filtration
        if maxdim is None:
            raise click.UsageError(
                "--maxdim is required for distance-matrix input")
        if max_value is None:
            raise TooLarge("Rips needs --max-value to bound the complex")
        return rips_filtration(read_distance_matrix(input_path), maxdim,
                               max_value), None
    from .cubical import cubical_filtration, distance_transform
    bitmap = read_bitmap(input_path)
    if kind == "binary-bitmap":
        bitmap = distance_transform(bitmap, positive_inside=positive_inside)
    return cubical_filtration(bitmap), None


@main.command()
@click.argument("input_path", metavar="INPUT",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(KINDS), required=True,
              help="How to read INPUT and build the filtration.")
@click.option("--maxdim", type=int, default=None,
              help="Highest homology degree to keep (clique size cap for "
                   "distance matrices).")
@click.option("--max-value", "max_value", type=float, default=None,
              help="Rips edge cutoff; required for distance-matrix input.")
@click.option("--squared", is_flag=True,
              help="Keep squared radii for point cloud inputs.")
@click.option("--positive-inside", "positive_inside", is_flag=True,
              help="Flip the sign convention of the distance transform.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Diagram file to write (default: INPUT stem + "
                   "'.diagram.json').")
@_guarded
def compute(input_path, kind, maxdim, max_value, squared, positive_inside,
            output):
    """Compute persistence diagrams of INPUT and write a diagram file."""
    f, _ = _build_filtration(input_path, kind, maxdim, max_value,
                             positive_inside)
    _, diagrams = compute_persistence(f)
    if maxdim is not None:
        diagrams = [pd for pd in diagrams if pd.degree <= maxdim]
    pointcloud = kind in ("pointcloud", "pointcloud-weighted")
    if pointcloud and not squared:
        diagrams = [replace(pd, births=_signed_sqrt(pd.births),
                            deaths=_signed_sqrt(pd.deaths))
                    for pd in diagrams]
    params = {"maxdim": maxdim}
    if kind == "distance-matrix":
        params["max_value"] = max_value
    if kind == "binary-bitmap":
        params["positive_inside"] = positive_inside
    if output is None:
        output = str(Path(input_path).with_suffix("")) + ".diagram.json"
    write_diagram_file(output, diagrams, kind=kind,
                       squared=bool(pointcloud and squared),
                       input_path=input_path, params=params)


def _load_degree(path, degree):
    df = read_diagram_file(path)
    if degree < 0 or degree > df.max_degree:
        raise BadDegree(f"degree {degree} not in {path} "
                        f"(max {df.max_degree})")
    return df, df.diagram(degree)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--degree", type=int, required=True)
@_guarded
def pairs(file, degree):
    """Print 'birth death' per line, essential classes as 'birth inf'."""
    _, pd = _load_degree(file, degree)
    click.echo("".join(f"{b:.17g} {d:.17g}\n" for b, d
                       in zip(pd.births.tolist(), pd.deaths.tolist())),
               nl=False)


def _default_range(pd):
    finite = pd.finite_mask
    values = np.concatenate((np.column_stack(
        (pd.births[finite], pd.deaths[finite])).ravel(), pd.births[~finite]))
    if not len(values):
        return 0.0, 1.0
    # as min() and max() over the values in this order: a NaN counts only
    # when it comes first
    nan = np.isnan(values)
    values = values[:1] if nan[0] else values[~nan]
    lo = min(0.0, float(values.min()))
    hi = float(values.max())
    span = hi - lo
    if span <= 0:
        span = 1.0
    return lo, hi + 0.05 * span


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--degree", type=int, required=True)
@click.option("--range", "value_range", type=float, nargs=2, default=None,
              help="lo hi window on both axes (default: fit the data).")
@click.option("--bins", type=int, default=64, show_default=True)
@click.option("--log", is_flag=True, help="Log color scale.")
@click.option("-o", "--output", required=True,
              type=click.Path(dir_okay=False))
@_guarded
def plot(file, degree, value_range, bins, log, output):
    """Render the histogram of one degree as an SVG heatmap."""
    _, pd = _load_degree(file, degree)
    if not value_range:
        value_range = _default_range(pd)
    hist = histogram(pd, value_range, bins)
    Path(output).write_text(histogram_svg(hist, log=log), encoding="utf-8")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--degree", type=int, required=True)
@click.option("--range", "value_range", type=float, nargs=2, default=None,
              help="lo hi window (default: fit the data).")
@click.option("--bins", type=int, default=20, show_default=True)
@click.option("--sigma", type=float, default=None,
              help="Gaussian width (default: 5% of the window).")
@click.option("--wmax", type=float, default=None,
              help="Persistence where the weight saturates "
                   "(default: window height).")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Write the CSV row here instead of stdout.")
@_guarded
def vectorize(file, degree, value_range, bins, sigma, wmax, output):
    """Turn one degree into a persistence-image vector (one CSV row)."""
    _, pd = _load_degree(file, degree)
    if not value_range:
        value_range = _default_range(pd)
    if sigma is None:
        sigma = 0.05 * (value_range[1] - value_range[0])
    img = persistence_image(pd, value_range, bins, sigma, wmax)
    row = ",".join(f"{v:.17g}" for v in img.vector.tolist()) + "\n"
    if output is None:
        click.echo(row, nl=False)
    else:
        Path(output).write_text(row, encoding="utf-8")


@main.command()
@click.argument("file_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("file_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--degree", type=int, required=True)
@click.option("--metric", type=click.Choice(["bottleneck", "wasserstein"]),
              default="bottleneck", show_default=True)
@click.option("--q", type=float, default=1.0, show_default=True,
              help="Wasserstein exponent.")
@_guarded
def distance(file_a, file_b, degree, metric, q):
    """Print the matching distance between one degree of two files."""
    _, pd_a = _load_degree(file_a, degree)
    _, pd_b = _load_degree(file_b, degree)
    if metric == "bottleneck":
        report = bottleneck_distance(pd_a, pd_b)
    else:
        report = wasserstein_distance(pd_a, pd_b, q)
    click.echo(f"{report.value:.17g}")


def _cell_text(cell) -> str:
    if isinstance(cell, Simplex):
        return " ".join(str(v) for v in cell.vertices)
    anchor = ",".join(str(a) for a in cell.anchor)
    extent = ",".join(str(e) for e in cell.extent)
    return f"{anchor} {extent}"


def _nearest(births, deaths, target) -> int:
    """Index of the pair with the least (squared distance to target, birth,
    death); of tied pairs, the first."""
    dist = (births - target[0]) ** 2 + (deaths - target[1]) ** 2
    return int(np.lexsort((deaths, births, dist))[0])


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--degree", type=int, required=True)
@click.option("--nearest", type=float, nargs=2, required=True,
              metavar="BIRTH DEATH",
              help="Pick the finite pair closest to this point.")
@click.option("--tighten", is_flag=True,
              help="Shrink a degree-1 cycle to a shortest homologous loop.")
@_guarded
def invert(file, degree, nearest, tighten):
    """Show a representative cycle for the pair nearest (BIRTH, DEATH).

    Recomputes persistence from the input recorded in the diagram file, so
    that file must carry provenance and the input must still be readable.
    """
    df, pd = _load_degree(file, degree)
    births, deaths = pd.births[pd.finite_mask], pd.deaths[pd.finite_mask]
    if not len(births):
        raise NoPairs(f"degree {degree} has no finite pairs")
    prov = df.provenance.get(degree)
    meta = df.metadata
    if prov is None or not meta.get("input"):
        raise MissingProvenance("diagram file was written without provenance")

    k = _nearest(births, deaths, nearest)
    b, d = float(births[k]), float(deaths[k])
    # keep only the chosen pair's cells, so the parsed document is freed
    # before the filtration is built
    try:
        rows = prov["birth_cells"][k], prov["death_cells"][k]
    except (IndexError, KeyError, TypeError):
        rows = None
    del df, pd, births, deaths, prov

    kind = meta.get("kind")
    params = meta.get("params", {})
    if (kind not in KINDS or not isinstance(params, dict)
            or not isinstance(meta["input"], str)):
        raise ParseError(0, "metadata must name a known kind and the input "
                         "path, and hold params as a JSON object")
    try:
        f, cloud = _build_filtration(
            meta["input"], kind, params.get("maxdim"), params.get("max_value"),
            params.get("positive_inside", False))
    except FileNotFoundError:
        raise MissingProvenance(
            f"recorded input {meta['input']!r} is gone") from None
    try:
        birth = f.position(degree, rows[0])
        death = f.position(degree + 1, rows[1])
    except (IndexError, KeyError, TypeError, ValueError):
        raise MissingProvenance(
            f"diagram file has no readable cells for pair {k}") from None
    if birth < 0 or death < 0:
        raise MissingProvenance(
            "recorded input no longer reproduces the diagram")
    pairing, _ = compute_persistence(f)
    try:
        cycle = representative_cycle(pairing, (birth, death))
    except ValueError:
        raise MissingProvenance(
            "recorded input no longer reproduces the diagram") from None
    if tighten:
        cycle = tighten_cycle_1d(pairing, cycle)
    click.echo(f"pair: {b:.17g} {d:.17g}")
    cells = cycle.cells
    click.echo(f"cells ({len(cells)}):")
    for cell in cells:
        click.echo(f"  {_cell_text(cell)}")
    if cloud is not None:
        ids = sorted({v for cell in cells for v in cell.vertices})
        click.echo("vertices:")
        for v in ids:
            coords = " ".join(f"{x:.17g}" for x in cloud.points[v])
            click.echo(f"  {v}: {coords}")


if __name__ == "__main__":
    main()
