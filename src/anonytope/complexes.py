"""The exact eps-filtration of the anonymity (Čech) complex.

A subset of rows spans a simplex at radius eps exactly when the MEB of
its points has radius <= eps, so each simplex has a well-defined birth
value and the family over all eps is a filtration with exact critical
values (no radii grid needed).

The births come in the two forms of their dataset (see ``geometry``):
numpy arrays, or, for a plain dataset, tuples of Python floats, built
for simplices of at most three rows; the budget and the plain forms
need no numpy, and this module imports it only in the numpy forms.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from typing import TYPE_CHECKING

from .errors import ContractViolation, FiltrationSizeError

if TYPE_CHECKING:
    import numpy as np

    from .geometry import NormalizedDataset

#: most simplices a barcode may build; on 2 cores, 228 rows at dim_cap 2
#: (25,878 edges, 1,949,476 triangles) build in about 0.3 s at 60 MiB
#: peak RSS, and their H1 reduction by the cleared coboundary takes about
#: 0.55 s; at dim_cap 3 it binds at 83 rows in 3D (1,932,904 simplices),
#: whose ``barcode --dim-cap 3`` runs in 3.8 s at 95 MiB peak RSS
DEFAULT_SIMPLEX_BUDGET = 2_000_000

#: simplices whose vertex rows are held at once while a dimension is
#: walked: enough to amortise numpy's per-call cost, few enough that no
#: dimension's rows are all held
BLOCK = 1 << 16

# relative margin over its latest facet's birth that a simplex's computed
# circumradius must clear to count: above the closed forms' rounding (at
# most 4 ulps seen on exact right triangles)
_RIGHT_SLACK = 8 * sys.float_info.epsilon


def _binomials(n: int, size: int) -> np.ndarray:
    """C(m, k) at [m, k], for 0 <= m <= n and 0 <= k <= size, each column
    summed from the one before it: C(m, k) = sum of C(j, k-1), j < m."""
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    total = math.comb(n, size)
    for start in range(0, total, BLOCK):
        ranks = np.arange(start, min(start + BLOCK, total))
        yield start, simplex_vertices(n, size, ranks)


def simplex_count(n: int, dim_cap: int) -> int:
    """The simplices a barcode on n rows builds: those of
    2..min(dim_cap+1, n) rows; at dim_cap 1 none, since H0 comes from
    the merge tree."""
    if dim_cap < 2:
        return 0
    return sum(math.comb(n, s) for s in range(2, min(dim_cap, n - 1) + 2))


def check_budget(n: int, dim_cap: int) -> None:
    """Refuse a barcode on n rows whose simplices would exceed the
    budget."""
    total = simplex_count(n, dim_cap)
    if total > DEFAULT_SIMPLEX_BUDGET:
        raise FiltrationSizeError(
            f"{total} simplices for N={n}, dim_cap={dim_cap} exceeds the "
            f"budget of {DEFAULT_SIMPLEX_BUDGET}; lower --dim-cap")


def triangle_edges(n: int):
    """The ranks of the edges of each triangle on n rows, in triangle
    rank order: for rows i < j < k, those of (j, k), (i, k) and (i, j),
    the columns of facet_ranks, from the edge rank
    i (2n - i - 1) / 2 + j - i - 1 of rows i < j."""
    offset = [i * (2 * n - i - 1) // 2 - i - 1 for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ij = offset[i] + j
            for k in range(j + 1, n):
                yield offset[j] + k, offset[i] + k, ij


def _triangle_circumradii(sides: np.ndarray) -> np.ndarray:
    """Circumradii of triangles from rows of side lengths, or 0 for one
    that is not acute.  With sides a >= b >= c, one with area is acute
    when b^2 + c^2 > a^2, and its circumradius is abc / (4K), the area K
    from Kahan's stable form of Heron's formula.
    """
    import numpy as np

    # a min/max network orders the three columns faster than a row-wise
    # sort and picks the same values; two of its steps write into the
    # first step's buffers, so it allocates four columns, not six
    p, q, r = sides.T
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    a = np.maximum(hi, r)
    mid = np.minimum(hi, r, out=hi)
    c = np.minimum(lo, mid)
    b = np.maximum(lo, mid, out=lo)
    heron16 = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    acute = (b * b + c * c > a * a) & (heron16 > 0)
    radius = np.zeros_like(a)
    radius[acute] = a[acute] * b[acute] * c[acute] / np.sqrt(heron16[acute])
    return radius


def _circumradii(points: np.ndarray) -> np.ndarray:
    """Circumradii of simplices from (m, size, d) blocks of their points,
    or 0 where the circumcentre, the first point plus y V for the edge
    vectors V from it and G y = diag(G) / 2 with G = V V^T, is not
    strictly inside (its barycentric weights are y and 1 - sum(y)); a
    det(G) of at most 1e-12 of diag(G)'s product counts as dependent."""
    import numpy as np

    edges = points[:, 1:] - points[:, :1]
    gram = edges @ edges.transpose(0, 2, 1)
    half = np.diagonal(gram, axis1=1, axis2=2) / 2.0
    solid = np.linalg.det(gram) > 1e-12 * (2.0 * half).prod(axis=1)
    gram[~solid] = np.eye(gram.shape[1])    # any solvable system
    y = np.linalg.solve(gram, half[..., None])[..., 0]
    inside = solid & (y > 0).all(axis=1) & (y.sum(axis=1) < 1)
    return np.where(inside, np.sqrt(np.vecdot(y, half)), 0.0)


def simplex_births(data: NormalizedDataset, size: int, facets=None):
    """The exact birth radii of all simplices of size >= 2 rows, by
    lexicographic rank, in the dataset's form.

    An edge is born at half its length.  A larger simplex is born at its
    circumradius if its circumcentre is strictly inside it, else with its
    latest facet, where its MEB's support lies (Welzl 1991); facets holds
    the births one row smaller, by rank.  A circumradius within
    _RIGHT_SLACK of that birth, the float noise of a centre on the
    facet, is taken as it.
    """
    n = data.n_points
    dist = data.pair_distances
    if data.plain:
        if size == 2:
            return tuple(d / 2.0 for d in dist)
        if size > 3:
            raise ContractViolation("a plain dataset builds no simplex of "
                                    "more than 3 rows")
        return _triangle_births(n, dist, facets)
    import numpy as np

    if size == 2:
        return dist / 2.0
    born = np.empty(math.comb(n, size))
    for start, verts in simplex_blocks(n, size):
        ranks = facet_ranks(n, verts)
        radius = 0.0            # more than d + 1 points are dependent
        if size == 3:           # edge ranks index the distance array
            radius = _triangle_circumradii(dist[ranks])
        elif size <= data.dim + 1:
            radius = _circumradii(data.points[verts])
        # column by column: a max along a short last axis is 10x slower
        latest = reduce(np.maximum, facets[ranks].T)
        born[start:start + len(verts)] = np.where(
            radius > latest * (1.0 + _RIGHT_SLACK), radius, latest)
    return born


def _triangle_births(n: int, dist, facets) -> tuple[float, ...]:
    """The births of the triangles on n rows on Python floats, by rank,
    from the rows' pair distances and the edges' births: by the
    operations of _triangle_circumradii and simplex_births, in their
    order, so to the same bits."""
    slack = 1.0 + _RIGHT_SLACK
    born = []
    for jk, ik, ij in triangle_edges(n):
        # the sides in order, a >= b >= c, and the latest edge's birth
        a, b, c = dist[jk], dist[ik], dist[ij]
        if a < b:
            a, b = b, a
        if b < c:
            b, c = c, b
            if a < b:
                a, b = b, a
        latest = facets[jk] if facets[jk] >= facets[ik] else facets[ik]
        if facets[ij] > latest:
            latest = facets[ij]
        # a triangle that is not acute is born with its latest edge
        if b * b + c * c > a * a:
            heron16 = ((a + (b + c)) * (c - (a - b)) * (c + (a - b))
                       * (a + (b - c)))
            if heron16 > 0 and (radius := a * b * c / math.sqrt(heron16)) \
                    > latest * slack:
                latest = radius
        born.append(latest)
    return tuple(born)
