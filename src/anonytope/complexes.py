"""The exact eps-filtration of the anonymity (Čech) complex.

A subset of rows spans a simplex at radius eps exactly when the MEB of
its points has radius <= eps, so each simplex has a well-defined birth
value and the family over all eps is a filtration with exact critical
values (no radii grid needed).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FiltrationSizeError
from .geometry import MEB_REL_TOL, NormalizedDataset, min_enclosing_ball

#: most simplices a barcode may build; on 2 cores, 228 rows at dim_cap 2
#: (25,878 edges, 1,949,476 triangles) build in about 0.3 s at 60 MiB
#: peak RSS, and their H1 reduction by the cleared coboundary takes about
#: 0.55 s
DEFAULT_SIMPLEX_BUDGET = 2_000_000

#: simplices whose vertex rows are held at once while a dimension is
#: walked: enough to amortise numpy's per-call cost, few enough that no
#: dimension's rows are all held
BLOCK = 1 << 16

# relative margin over a / 2 that a triangle's computed circumradius must
# clear to count as acute: above the closed form's rounding (at most 4
# ulps seen on exact right triangles), far below MEB_REL_TOL
_RIGHT_SLACK = 8 * np.finfo(float).eps


def _binomials(n: int, size: int) -> np.ndarray:
    """C(m, k) at [m, k], for 0 <= m <= n and 0 <= k <= size, each column
    summed from the one before it: C(m, k) = sum of C(j, k-1), j < m."""
    binom = np.zeros((n + 1, size + 1), np.int64)
    binom[:, 0] = 1
    for k in range(1, size + 1):
        binom[1:, k] = np.cumsum(binom[:-1, k - 1])
    return binom


# In the combinatorial number system (as in Ripser), a simplex on n rows
# with row positions v_0 < ... < v_(size-1) has lexicographic rank
# C(n, size) - 1 - sum_i C(n - 1 - v_i, size - i): positions reversed
# (v -> n-1-v) list the simplices in reverse, and there a rank is the
# sum of those terms.


def simplex_vertices(n: int, size: int, ranks=None) -> np.ndarray:
    """The row positions of the simplices of size vertices on n rows at
    the given lexicographic ranks (all of them, in order, by default),
    one simplex per row of the result, in increasing order along it."""
    binom = _binomials(n, size)
    if ranks is None:
        ranks = np.arange(binom[n, size])
    # each reversed position is the largest one whose term fits in what
    # is left of the reversed rank, slot by slot
    left = binom[n, size] - 1 - np.asarray(ranks, np.int64)
    verts = np.empty((len(left), size), np.intp)
    for i in range(size):
        terms = binom[:, size - i]
        m = np.searchsorted(terms, left, side="right") - 1
        left -= terms[m]
        verts[:, i] = n - 1 - m
    return verts


def simplex_rank(n: int, verts: np.ndarray) -> np.ndarray:
    """The lexicographic rank of each simplex on n rows, given its row
    positions in increasing order along a row of verts."""
    size = verts.shape[1]
    binom = _binomials(n, size)
    terms = binom[n - 1 - verts, size - np.arange(size)]
    return binom[n, size] - 1 - terms.sum(axis=1)


def facet_ranks(n: int, verts: np.ndarray) -> np.ndarray:
    """The ranks of the facets of each simplex in verts; column j is the
    facet without the simplex's j-th vertex.

    Read from the simplex's own rank terms: in the facet without vertex
    j, the vertices after j move one slot down and keep their terms,
    and those before j keep their slots in a simplex one vertex smaller.
    """
    size = verts.shape[1]
    binom = _binomials(n, size)
    reversed_ = n - 1 - verts
    own = binom[reversed_, size - np.arange(size)]
    smaller = binom[reversed_, size - 1 - np.arange(size)]
    before = np.zeros(len(verts), np.int64)
    after = own.sum(axis=1)
    ranks = np.empty(verts.shape, np.int64)
    for j in range(size):
        after -= own[:, j]
        ranks[:, j] = binom[n, size - 1] - 1 - before - after
        before += smaller[:, j]
    return ranks


def coface_ranks(n: int, verts: np.ndarray) -> np.ndarray:
    """The ranks of the cofaces of one simplex on n rows, given its row
    positions in increasing order: one coface per row not in it."""
    outside = np.ones(n, bool)
    outside[verts] = False
    others = np.flatnonzero(outside)
    cofaces = np.column_stack(
        [np.broadcast_to(verts, (len(others), len(verts))), others])
    cofaces.sort(axis=1)
    return simplex_rank(n, cofaces)


def simplex_blocks(n: int, size: int):
    """(first rank, row positions) of the simplices of size vertices on n
    rows in consecutive rank blocks, so that no dimension's vertex rows
    are all held at once."""
    total = math.comb(n, size)
    for start in range(0, total, BLOCK):
        ranks = np.arange(start, min(start + BLOCK, total))
        yield start, simplex_vertices(n, size, ranks)


def check_budget(n: int, dim_cap: int) -> None:
    """Refuse a barcode on n rows whose simplices would exceed the
    budget: those of 2..dim_cap+1 rows, which it builds; at dim_cap 1 it
    builds none, since H0 comes from the merge tree."""
    if dim_cap < 2:
        return
    total = sum(math.comb(n, size) for size in range(2, dim_cap + 2))
    if total > DEFAULT_SIMPLEX_BUDGET:
        raise FiltrationSizeError(
            f"{total} simplices for N={n}, dim_cap={dim_cap} exceeds the "
            f"budget of {DEFAULT_SIMPLEX_BUDGET}; lower --dim-cap")


def _triangle_births(sides: np.ndarray) -> np.ndarray:
    """MEB radii of triangles from rows of side lengths, sorted in place.

    With sides a >= b >= c, a triangle that is not acute (b^2 + c^2 <=
    a^2), or has no area, is born at a / 2, the birth of its longest
    edge; an acute one at its circumradius abc / (4K), with the area K
    from Kahan's stable form of Heron's formula.  Float sides cannot
    tell a right triangle from a nearly right acute one, whose
    circumradius is a / 2 to within the formula's few ulps, so a
    circumradius that close to a / 2 is taken as a / 2.  Every triangle
    is thus born exactly with its longest edge or after it.
    """
    sides.sort(axis=1)
    c, b, a = sides.T
    heron16 = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    acute = (b * b + c * c > a * a) & (heron16 > 0)
    radius = np.zeros_like(a)
    radius[acute] = a[acute] * b[acute] * c[acute] / np.sqrt(heron16[acute])
    half = a / 2.0
    return np.where(radius > half * (1.0 + _RIGHT_SLACK), radius, half)


def simplex_births(data: NormalizedDataset, size: int,
                   facets: np.ndarray | None = None) -> np.ndarray:
    """The exact birth radii of all simplices of size >= 2 rows, by
    lexicographic rank.

    Edges and triangles take their births in closed form from the
    dataset's pairwise distances; larger simplices run Welzl and need
    facets, the births of the simplices one row smaller, by rank.
    """
    n = data.n_points
    dist = data.pair_distances
    if size == 2:
        return dist / 2.0
    born = np.empty(math.comb(n, size))
    for start, verts in simplex_blocks(n, size):
        if size == 3:           # edge ranks index the distance array
            radii = _triangle_births(dist[facet_ranks(n, verts)])
        else:
            radii = np.fromiter(
                (min_enclosing_ball(data.points[v]).radius
                 for v in verts), float, count=len(verts))
            # MEB is monotone over faces, and a coface born within
            # MEB_REL_TOL of its latest facet is born with it: the
            # gap is float noise, which would show as ulp-long bars
            latest = facets[facet_ranks(n, verts)].max(axis=1)
            radii = np.where(radii <= latest * (1.0 + MEB_REL_TOL),
                             latest, radii)
        born[start:start + len(verts)] = radii
    return born
