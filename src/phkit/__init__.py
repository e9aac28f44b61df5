"""Persistent homology toolkit.

Build filtrations from point clouds, weighted graphs, and bitmaps; compute
Z/2 persistence diagrams with representative cycles; post-process diagrams
into histograms, persistence images, and matching distances.

Public names and submodules resolve on first access (PEP 562), so
``import phkit`` loads only this table, and each submodule (with its share
of scipy) loads when it or one of its names is first used.
"""

import importlib

from . import errors

__version__ = "0.1.0"

_EXPORTS = {
    "complexes": ("BoundaryMatrix", "Cube", "Filtration", "Simplex",
                  "SimplicialComplex", "boundary", "make_complex",
                  "make_filtration"),
    "alpha": ("PointCloud", "alpha_filtration", "delaunay",
              "weighted_alpha_filtration"),
    "combinatorial": ("DistanceMatrix", "WeightedGraph", "clique_filtration",
                      "rips_filtration"),
    "cubical": ("Bitmap", "cubical_filtration", "distance_transform"),
    "persistence": ("PersistenceDiagram", "PersistencePairing",
                    "RepresentativeCycle", "betti_numbers",
                    "compute_persistence", "representative_cycle",
                    "tighten_cycle_1d"),
    "analysis": ("DiagramDistanceReport", "DiagramHistogram",
                 "PersistenceImage", "bottleneck_distance", "histogram",
                 "persistence_image", "wasserstein_distance"),
    "fileio": ("DiagramFile", "read_bitmap", "read_diagram_file",
               "read_distance_matrix", "read_point_cloud",
               "write_diagram_file"),
    "svgplot": ("histogram_svg",),
    "oracle": ("oracle_persistence",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted([*_MODULE_OF, "errors"])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
