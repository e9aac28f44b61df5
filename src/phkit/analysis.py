"""Diagram post-processing: histograms, persistence images, and distances.

Distances allow matching points to their diagonal projections; essential
pairs must agree in count between the two diagrams (otherwise the distance
is infinite) and are matched among themselves by sorted birth. Both
distances form one dense m x n float64 matrix of point-to-point costs
(8*m*n bytes), refused past DISTANCE_SIZE_CAP, and match on one graph
(_augmented_graph) whose rows and columns take finite points in descending
persistence, the order in which scipy's Hopcroft-Karp finished fastest.

The bottleneck bisects candidate costs, each step one bipartite matching.
It drops every edge dearer than sending both its points to the diagonal,
and probes first a lower bound below which no candidate is kept: the
largest, over all points, of the cheapest edge or diagonal each point
could take, and the essential cost.

The Wasserstein distance is one minimum-weight perfect matching (LAPJVsp)
on costs^q. A cross edge is kept only where cost^q <= diag_a^q + diag_b^q,
as a dearer one loses to sending both points to the diagonal. The solver
reads a stored 0 as no edge, so zero weights, among them every projection
pair, are stored as the smallest normal float. The value sums the true
matched and essential costs^q in ascending order: it depends on the
matched costs alone, not on the solver's row layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# scipy is imported inside the distances: histograms and persistence
# images, which the CLI's plot and vectorize call, do not need it
from .errors import BadParams, BadRange, TooLarge

# both distances hold several arrays of m*n entries at once: with every
# edge kept, the Wasserstein distance traced 112 B per entry at 500 to
# 2,000 points per side, the bottleneck at most 90 B. This cap (about
# 4,472 x 4,472) allows about 2.2 GB and admits any two diagrams of at
# most 8,000 finite points together
DISTANCE_SIZE_CAP = 20_000_000


@dataclass
class DiagramHistogram:
    lo: float
    hi: float
    bins: int
    counts: np.ndarray
    overflow: int
    essential: int


@dataclass
class PersistenceImage:
    vector: np.ndarray
    lo: float
    hi: float
    bins: int
    sigma: float
    w_max: float
    weight_kind: str = "linear_ramp"

    @property
    def grid(self) -> np.ndarray:
        """(death, birth) view of the vector; birth runs fastest."""
        return self.vector.reshape(self.bins, self.bins)


@dataclass
class DiagramDistanceReport:
    value: float
    matching: list = field(default_factory=list)


def _finite_pairs(pd):
    mask = pd.finite_mask
    return pd.births[mask], pd.deaths[mask]


# histogram and persistence_image refuse a grid of more than this many
# entries: bins**2, and for the image also finite pairs * bins. At the cap
# the histogram's int64 counts take 8 B * 2**24 = 134 MB; under tracemalloc
# the image peaked at 135 MB for 4096 bins and at 436 MB for 838,860 pairs
# x 20 bins. phkit vectorize then joins 2**24 numbers of about 20
# characters into a 340 MB row; the join peaked at 109 MB per 2**20
# numbers, so about 1.8 GB at the cap. All of it fits in 8 GB. The
# defaults, 64 and 20 bins, and 1e5 pairs at 20 bins (2e6 entries) stay
# far below
GRID_CAP = 1 << 24


def _window(value_range, bins, error):
    """(lo, hi, bins) of a square window, or error for a bad one.

    Raises TooLarge when bins**2 passes GRID_CAP.
    """
    lo, hi = float(value_range[0]), float(value_range[1])
    bins = int(bins)
    if not lo < hi:
        raise error(f"empty range [{lo}, {hi}]")
    if not np.isfinite([lo, hi]).all():
        raise error(f"range [{lo}, {hi}] must have finite ends")
    if bins < 1:
        raise error("bins must be >= 1")
    if bins * bins > GRID_CAP:
        raise TooLarge(f"a {bins} x {bins} grid has more than {GRID_CAP} "
                       "entries")
    return lo, hi, bins


def histogram(pd, value_range, bins: int) -> DiagramHistogram:
    """2D histogram of finite pairs over a square (birth, death) window.

    Bins are half-open, the last one closed; counts[i][j] is the number of
    pairs with birth in bin i and death in bin j. Finite pairs outside the
    window land in the overflow tally; essential pairs are counted apart.
    Raises TooLarge when bins**2 passes GRID_CAP.
    """
    lo, hi, bins = _window(value_range, bins, BadRange)
    births, deaths = _finite_pairs(pd)
    counts = np.zeros((bins, bins), dtype=np.int64)
    inside = (births >= lo) & (births <= hi) & (deaths >= lo) & (deaths <= hi)
    b = births[inside]
    d = deaths[inside]
    width = (hi - lo) / bins
    bi = np.minimum(((b - lo) / width).astype(np.int64), bins - 1)
    di = np.minimum(((d - lo) / width).astype(np.int64), bins - 1)
    np.add.at(counts, (bi, di), 1)
    overflow = int(len(births) - inside.sum())
    essential = int((~pd.finite_mask).sum())
    return DiagramHistogram(lo, hi, bins, counts, overflow, essential)


def persistence_image(pd, value_range, bins: int, sigma: float,
                      w_max: float | None = None) -> PersistenceImage:
    """Gaussian-smoothed, diagonal-weighted vectorization of a diagram.

    Each finite pair contributes weight * Gaussian mass per bin, with the
    Gaussian density evaluated at bin centers and scaled by the bin area,
    so a single pair well inside the window sums to about its weight. The
    weight ramps linearly in persistence and saturates at w_max (default:
    the window height). The vector lists bins row-major, birth fastest.
    Raises TooLarge when bins**2 or finite pairs * bins passes GRID_CAP.
    """
    lo, hi, bins = _window(value_range, bins, BadParams)
    sigma = float(sigma)
    if not sigma > 0:
        raise BadParams("sigma must be positive")
    if w_max is None:
        w_max = hi - lo
    w_max = float(w_max)
    if not w_max > 0:
        raise BadParams("w_max must be positive")

    births, deaths = _finite_pairs(pd)
    if len(births) * bins > GRID_CAP:
        raise TooLarge(f"{len(births)} finite pairs x {bins} bins is more "
                       f"than {GRID_CAP} entries")
    width = (hi - lo) / bins
    centers = lo + (np.arange(bins) + 0.5) * width
    weights = np.minimum((deaths - births) / w_max, 1.0)
    two_s2 = 2.0 * sigma * sigma
    norm = width * width / (2.0 * np.pi * sigma * sigma)
    gb = np.exp(-((centers[None, :] - births[:, None]) ** 2) / two_s2)
    gd = np.exp(-((centers[None, :] - deaths[:, None]) ** 2) / two_s2)
    # outer product per pair: grid[death_bin, birth_bin]
    grid = norm * np.einsum("pd,pb->db", weights[:, None] * gd, gb)
    return PersistenceImage(grid.ravel(), lo, hi, bins, sigma, w_max)


def _cross_cost(ab, ad, bb, bd):
    """L-infinity distance from every finite point of a to every one of b."""
    return np.maximum(np.abs(ab[:, None] - bb[None, :]),
                      np.abs(ad[:, None] - bd[None, :]))


def _matching_setup(a, b):
    """(ess_cost, ess_matches, ia, ib, diag_a, diag_b, cross) of two diagrams.

    Essentials match by sorted birth; ia and ib index the finite points in
    descending persistence, and cross is their m x n _cross_cost. Returns
    None when the essential counts differ, and raises TooLarge before cross
    is made when m*n passes DISTANCE_SIZE_CAP.
    """
    if a.degree != b.degree:
        raise ValueError("diagrams compare within one degree")
    ea, eb = (np.flatnonzero(~pd.finite_mask) for pd in (a, b))
    if len(ea) != len(eb):
        return None
    ea = ea[np.argsort(a.births[ea], kind="stable")]
    eb = eb[np.argsort(b.births[eb], kind="stable")]
    ess_cost = float(np.abs(a.births[ea] - b.births[eb]).max(initial=0.0))
    ia, ib = (np.flatnonzero(pd.finite_mask) for pd in (a, b))
    ia = ia[np.argsort(a.births[ia] - a.deaths[ia], kind="stable")]
    ib = ib[np.argsort(b.births[ib] - b.deaths[ib], kind="stable")]
    ab, ad = a.births[ia], a.deaths[ia]
    bb, bd = b.births[ib], b.deaths[ib]
    m, n = len(ab), len(bb)
    if m * n > DISTANCE_SIZE_CAP:
        raise TooLarge(f"diagram distances accept at most {DISTANCE_SIZE_CAP}"
                       f" pairs of finite points, got {m} x {n}")
    return (ess_cost, list(zip(ea.tolist(), eb.tolist())), ia, ib,
            (ad - ab) / 2.0, (bd - bb) / 2.0, _cross_cost(ab, ad, bb, bd))


def _augmented_graph(m, n, ii, jj, ka, kb, weights):
    """CSR graph: rows a's points then b's projections, columns b's points
    then a's. Edges, weighted in this order by weights (or one for all):
    ii to jj, ka and kb to their own projections, and the projection pair
    (m + jj, n + ii) of each cross edge.

    The coordinates are int32, and so are the graph's index arrays. Built
    directly in numpy, the same arrays took 1.3 to 5 times as long as
    scipy's compiled COO to CSR conversion (150 to 3,000 points a side).
    """
    from scipy.sparse import csr_array

    rows = np.concatenate([ii, ka, m + kb, m + jj], dtype=np.int32)
    cols = np.concatenate([jj, n + ka, kb, n + ii], dtype=np.int32)
    return csr_array((np.broadcast_to(weights, rows.shape), (rows, cols)),
                     shape=(m + n, n + m))


def _assignment_matching(ia, ib, row_of) -> list:
    """Matching list of a perfect matching, row_of[c] matched to column c;
    a point matched to a projection matches the diagonal."""
    m, n = len(ia), len(ib)
    return [(int(ia[r]) if r < m else None, int(ib[c]) if c < n else None)
            for c, r in enumerate(row_of.tolist()) if r < m or c < n]


def bottleneck_distance(a, b) -> DiagramDistanceReport:
    """Smallest achievable worst edge over diagonal-augmented matchings.

    Raises TooLarge when m*n, the product of the two diagrams' numbers of
    finite points, passes DISTANCE_SIZE_CAP.
    """
    from scipy.sparse.csgraph import maximum_bipartite_matching

    setup = _matching_setup(a, b)
    if setup is None:
        return DiagramDistanceReport(float("inf"))
    ess_cost, ess_matches, ia, ib, diag_a, diag_b, cross = setup
    m, n = cross.shape
    # an edge dearer than sending both its points to the diagonal is never
    # needed: drop it from the candidates and from every step's graph
    cross[(cross > diag_a[:, None]) & (cross > diag_b)] = np.inf
    # every finite point must match something, and every essential its
    # partner, so no candidate below `lower` can be the answer; `lower` is
    # itself a diagonal, kept edge or essential cost
    lower = max(ess_cost,
                np.minimum(diag_a, cross.min(axis=1, initial=np.inf))
                .max(initial=0.0),
                np.minimum(diag_b, cross.min(axis=0, initial=np.inf))
                .max(initial=0.0))
    costs = np.concatenate([[ess_cost], diag_a, diag_b,
                            cross[cross < np.inf]])
    candidates = np.unique(costs[costs >= lower])

    def matching_at(c):
        # projections pair where their points could: this has a perfect
        # matching exactly when the graph with every projection pair
        # allowed has one, with O(edges) work per step
        ii, jj = np.nonzero(cross <= c)
        ka = np.flatnonzero(diag_a <= c)
        kb = np.flatnonzero(diag_b <= c)
        graph = _augmented_graph(m, n, ii, jj, ka, kb, np.int8(1))
        match_r = maximum_bipartite_matching(graph, perm_type="row")
        return int((match_r >= 0).sum()), match_r

    # the largest candidate always works (everything matches the diagonal),
    # and the lower bound is often the answer, so it is probed first
    lo_i, hi_i = 0, len(candidates) - 1
    mid = 0
    while lo_i <= hi_i:
        size, match_r = matching_at(candidates[mid])
        if size == m + n:
            best, best_match = candidates[mid], match_r
            hi_i = mid - 1
        else:
            lo_i = mid + 1
        mid = (lo_i + hi_i) // 2
    # the search always probes its answer, so best_match is perfect there
    matching = ess_matches + _assignment_matching(ia, ib, best_match)
    return DiagramDistanceReport(float(best), matching)


def wasserstein_distance(a, b, q: float = 1.0) -> DiagramDistanceReport:
    """Minimal (sum of cost^q)^(1/q) over diagonal-augmented matchings.

    Raises TooLarge when m*n, the product of the two diagrams' numbers of
    finite points, passes DISTANCE_SIZE_CAP.
    """
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    q = float(q)
    if not 1 <= q < np.inf:
        raise BadParams("q must be finite and >= 1")
    setup = _matching_setup(a, b)
    if setup is None:
        return DiagramDistanceReport(float("inf"))
    _, ess_matches, ia, ib, diag_a, diag_b, cross = setup
    m, n = cross.shape
    cross **= q
    diag_a **= q
    diag_b **= q
    # keep the edges an optimum may need; a stored 0 would be no edge
    ii, jj = np.nonzero(cross <= diag_a[:, None] + diag_b)
    weights = np.concatenate([cross[ii, jj], diag_a, diag_b,
                              np.zeros(len(ii))])
    weights[weights == 0] = np.finfo(np.float64).tiny
    col_of = min_weight_full_bipartite_matching(_augmented_graph(
        m, n, ii, jj, np.arange(m), np.arange(n), weights))[1]
    a_col, b_diag_col = col_of[:m], col_of[m:]
    to_b = np.flatnonzero(a_col < n)
    # true costs^q, ascending: the sum is the same for every row layout
    total = np.sort(np.concatenate([
        [abs(float(a.births[i]) - float(b.births[j])) ** q
         for i, j in ess_matches],
        cross[to_b, a_col[to_b]], diag_a[a_col >= n],
        diag_b[b_diag_col[b_diag_col < n]]])).sum()
    matching = ess_matches + _assignment_matching(ia, ib, np.argsort(col_of))
    return DiagramDistanceReport(float(total) ** (1.0 / q), matching)
