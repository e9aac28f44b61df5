"""The import layout: light commands load no scipy, and every public name
of the package resolves."""

import json
import os
import subprocess
import sys

import numpy as np

import phkit
from phkit import PersistenceDiagram, write_diagram_file

LIGHT_COMMANDS = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {}
import phkit
loaded["import phkit"] = scipy_modules()
import phkit.cli
loaded["import phkit.cli"] = scipy_modules()
path, svg = sys.argv[1:]
for args in (["pairs", path, "--degree", "1"],
             ["plot", path, "--degree", "1", "-o", svg],
             ["vectorize", path, "--degree", "1"]):
    phkit.cli.main(args, standalone_mode=False)
    loaded[args[0]] = scipy_modules()
print(json.dumps(loaded))
"""

COMPUTE = """
import sys
import phkit.cli
phkit.cli.main(sys.argv[1:], standalone_mode=False)
print(" ".join(sorted(m for m in ("scipy.ndimage", "scipy.spatial")
                      if m in sys.modules)))
"""

CUBICAL_PERSISTENCE = """
import sys
import numpy as np
import phkit.persistence
from phkit.cubical import cubical_filtration
f = cubical_filtration(np.random.default_rng(0).random((4, 4)))
cells_per_dim = np.bincount(f.dims)
assert cells_per_dim[-1] < cells_per_dim[-2]
phkit.persistence.compute_persistence(f)
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy.sparse"))))
"""

STAR_IMPORT = """
import phkit
assert phkit.analysis.DISTANCE_SIZE_CAP > 0
assert set(phkit._EXPORTS) <= set(dir(phkit))
assert all(getattr(phkit, m).__name__ == f"phkit.{m}" for m in phkit._EXPORTS)
namespace = {}
exec("from phkit import *", namespace)
missing = [n for n in phkit.__all__ if n not in namespace]
assert not missing, missing
assert all(namespace[n] is getattr(phkit, n) for n in phkit.__all__)
assert set(phkit.__all__) <= set(dir(phkit))
assert phkit.alpha_filtration is phkit.alpha.alpha_filtration
try:
    phkit.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("phkit.no_such_name resolved")
"""


def run_python(code, *args):
    """Run code in a fresh interpreter that imports this phkit."""
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        phkit.__file__)))
    path = os.pathsep.join(
        p for p in (src_root, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_light_commands_load_no_scipy(tmp_path):
    path = tmp_path / "d.diagram.json"
    diagrams = [PersistenceDiagram.from_pairs(0, [(0.0, 0.5)], [0.0]),
                PersistenceDiagram.from_pairs(1, [(0.25, 0.75), (0.5, 1.0)])]
    write_diagram_file(path, diagrams, kind="pointcloud", squared=False,
                       input_path="d.txt")
    r = run_python(LIGHT_COMMANDS, path, tmp_path / "d.svg")
    assert r.returncode == 0, r.stderr
    *printed, loaded = r.stdout.splitlines()
    assert printed[:2] == ["0.25 0.75", "0.5 1"]
    assert np.isfinite([float(v) for v in printed[2].split(",")]).all()
    assert (tmp_path / "d.svg").read_text().startswith("<svg")
    assert json.loads(loaded) == {
        step: [] for step in ["import phkit", "import phkit.cli", "pairs",
                              "plot", "vectorize"]}


def test_persistence_without_coboundary_pass_loads_no_scipy_sparse():
    # only the coboundary pass of top-heavy filtrations needs scipy.sparse
    r = run_python(CUBICAL_PERSISTENCE)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == ""


def test_star_import_binds_every_public_name():
    r = run_python(STAR_IMPORT)
    assert r.returncode == 0, r.stderr


def test_compute_loads_only_its_builder(tmp_path):
    x = np.random.default_rng(0).random((12, 2))
    cloud, matrix = tmp_path / "c.txt", tmp_path / "m.csv"
    np.savetxt(cloud, x)
    np.savetxt(matrix, np.linalg.norm(x[:, None] - x[None], axis=2),
               delimiter=",")
    for args, loaded in (
            ([cloud, "--kind", "pointcloud"], "scipy.spatial"),
            ([matrix, "--kind", "distance-matrix", "--maxdim", "1",
              "--max-value", "2"], "")):
        r = run_python(COMPUTE, "compute", *args,
                       "-o", tmp_path / "out.diagram.json")
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == loaded
