"""Helpers shared by the test modules."""

import os

import numpy as np

import phkit


def child_env():
    """The environment with phkit's absolute source root first on PYTHONPATH.

    CLI children run in a temporary directory, where a relative entry such
    as ``src`` no longer resolves.
    """
    package_dir = os.path.dirname(os.path.abspath(phkit.__file__))
    src_root = os.path.dirname(package_dir)
    path = os.pathsep.join(
        p for p in (src_root, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def regular_tetrahedron(a=1.0):
    """The regular tetrahedron of edge a, one face in the z = 0 plane."""
    s3 = np.sqrt(3.0)
    return np.array([
        [0.0, 0.0, 0.0],
        [a, 0.0, 0.0],
        [a / 2, a * s3 / 2, 0.0],
        [a / 2, a * s3 / 6, a * np.sqrt(2.0 / 3.0)],
    ])


def exhaustive_distance(a, b, kind, q=1.0):
    """Minimum over every matching with diagonal options, by enumeration."""
    ea, eb = sorted(a.essential_births), sorted(b.essential_births)
    if len(ea) != len(eb):
        return np.inf
    ess_costs = [abs(x - y) for x, y in zip(ea, eb)]
    a_pairs = a.finite_pairs
    b_pairs = b.finite_pairs
    m = len(a_pairs)
    best = [np.inf]

    def leaf(used, costs):
        rest = [(d - b) / 2 for j, (b, d) in enumerate(b_pairs)
                if j not in used]
        all_costs = costs + rest + ess_costs
        if kind == "bottleneck":
            v = max(all_costs, default=0.0)
        else:
            v = sum(c ** q for c in all_costs) ** (1 / q)
        best[0] = min(best[0], v)

    def rec(i, used, costs):
        if i == m:
            leaf(used, costs)
            return
        b0, d0 = a_pairs[i]
        rec(i + 1, used, costs + [(d0 - b0) / 2])
        for j, (b1, d1) in enumerate(b_pairs):
            if j in used:
                continue
            c = max(abs(b0 - b1), abs(d0 - d1))
            rec(i + 1, used | {j}, costs + [c])

    rec(0, frozenset(), [])
    return best[0]


def same_value(x, y, tol=1e-12):
    """x and y within tol, or the same infinity."""
    if np.isinf(x) or np.isinf(y):
        return x == y
    return abs(x - y) < tol
