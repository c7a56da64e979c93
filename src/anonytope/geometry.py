"""Point geometry: table normalization, minimum enclosing balls and the
merge tree of the rows.

The one geometric primitive everything else rests on is the minimum
enclosing ball (MEB): the closed eps-balls around a point set share a
common point exactly when the set's MEB radius is at most eps, so every
"do these balls intersect" question reduces to one MEB computation, by
one routine, _enclose.  Every "which rows share a component at eps"
question is answered by one merge tree (single linkage), built once per
dataset.

A table and everything built from it come in one of two forms: numpy
arrays, or, with ``plain``, Python lists and tuples of floats, so that
a small table is answered without importing numpy.  Only the batch
kernels (the finite-value check, the scaling, the distance rows, the
farthest-point scan, the leaf order and the partitions) have a form of
each; both add a squared distance's per-column terms in column order,
as _square does, so both forms give the same bits.  The per-point
geometry (_welzl and the balls it builds) is one implementation on
Python floats, which both forms call.  This module imports numpy only
in the numpy forms.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

from .errors import ContractViolation, IngestionError

if TYPE_CHECKING:
    import numpy as np

# containment slack used when checking points against a candidate ball
_CONTAIN_TOL = 1e-12

#: relative radius accuracy guaranteed by min_enclosing_ball in any dimension
MEB_REL_TOL = 1e-9


# The records below are NamedTuples or plain classes, not dataclasses:
# ``dataclasses`` costs every numeric command its import.


class NumericTable:
    """The quasi-identifier columns of a table: their names, and one row
    of finite reals per table row as an (N, d) float array, d the number
    of names; with ``plain``, as N lists of d floats.  A row's id is its
    1-based position."""

    def __init__(self, quasi_names: list[str], rows, plain: bool = False):
        self.quasi_names = list(quasi_names)
        self.plain = plain
        if not len(rows):
            raise IngestionError("table has no data rows")
        if len(set(self.quasi_names)) != len(self.quasi_names):
            raise IngestionError("duplicate column names")
        if not self.quasi_names:
            raise IngestionError("no quasi-identifier columns declared")
        shape = f"an (N, {len(self.quasi_names)}) array of numbers"
        if plain:
            d = len(self.quasi_names)
            try:
                self.rows = [[float(v) for v in row] for row in rows]
            except (TypeError, ValueError):  # a row or cell that is no number
                raise IngestionError(f"rows do not form {shape}") from None
            if any(len(row) != d for row in self.rows):
                raise IngestionError(f"rows do not form {shape}")
            bad = next(((i, j) for i, row in enumerate(self.rows)
                        for j, v in enumerate(row) if not math.isfinite(v)),
                       None)
        else:
            import numpy as np

            try:
                self.rows = np.asarray(rows, float)
            except ValueError:      # ragged rows, or a cell that is no number
                raise IngestionError(f"rows do not form {shape}") from None
            if (self.rows.ndim != 2
                    or self.rows.shape[1] != len(self.quasi_names)):
                raise IngestionError(f"rows do not form {shape}")
            flat = np.flatnonzero(~np.isfinite(self.rows))
            bad = divmod(int(flat[0]), self.rows.shape[1]) if len(flat) \
                else None
        if bad is not None:
            i, j = bad
            raise IngestionError(
                f"row {i + 1}, column {self.quasi_names[j]!r}: value "
                f"{float(self.rows[i][j])!r} is not a finite number")

    @property
    def n_rows(self) -> int:
        return len(self.rows)


class NormalizedDataset:
    """Rows mapped into the unit hypercube, one point per row.

    A row's id is its 1-based position in the originating table.
    Immutable, with a read-only ``points`` array, or with ``plain`` a
    tuple of float tuples; a plain class because ``pair_distances`` and
    ``merge_tree`` are cached in the instance dict.
    """

    def __init__(self, points, plain: bool = False):
        if plain:
            points = tuple(map(tuple, points))
        else:
            import numpy as np

            points = np.asarray(points, float)      # shape (N, d), in [0, 1]
            points.setflags(write=False)
        vars(self).update(points=points, plain=plain)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @property
    def row_ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_points + 1))

    @cached_property
    def pair_distances(self):
        """Distances of all row pairs i < j in row order, by the rule of
        _square, built one row at a time, so no N^2 x d array is held.
        The filtration's edge births are half of each."""
        pts = self.points
        if self.plain:
            cols = list(zip(*pts))
            return tuple(d for i, p in enumerate(pts[:-1]) for d in
                         _distances([col[i + 1:] for col in cols], p))
        import numpy as np

        cols = pts.T.copy()
        dist = np.concatenate([np.empty(0)] + [
            np.sqrt(_squares(cols[:, i + 1:], p))
            for i, p in enumerate(pts[:-1].tolist())])
        dist.setflags(write=False)
        return dist

    @cached_property
    def merge_tree(self) -> "MergeTree":
        """Single linkage of the rows, built on first use and kept."""
        edges = (_spanning_edges_plain if self.plain
                 else _spanning_edges)(self.points)
        return MergeTree(self.points, edges, self.plain)


class Ball(NamedTuple):
    center: np.ndarray
    radius: float


def normalize_dataset(table: NumericTable) -> NormalizedDataset:
    """Min-max scale each quasi-identifier column onto [0, 1], in the
    table's form.

    Constant columns map to 0: a constant quasi-identifier never
    separates rows, so pinning it costs nothing and keeps the map total.
    A column whose range overflows a float is scaled from its halves.
    """
    raw = table.rows
    if table.plain:
        cols = []
        for col in zip(*raw):
            lo, hi = min(col), max(col)
            if math.isinf(hi - lo):
                col = [v / 2.0 for v in col]
                lo, hi = lo / 2.0, hi / 2.0
            cols.append([(v - lo) / (hi - lo) for v in col] if hi > lo
                        else [0.0] * len(col))
        return NormalizedDataset(zip(*cols), plain=True)
    import numpy as np

    pts = np.zeros_like(raw)
    for j in range(raw.shape[1]):
        col = raw[:, j]
        lo, hi = float(col.min()), float(col.max())
        if math.isinf(hi - lo):
            col, lo, hi = col / 2.0, lo / 2.0, hi / 2.0
        if hi > lo:
            pts[:, j] = (col - lo) / (hi - lo)
    return NormalizedDataset(pts)


# The distance rule: a squared distance adds the squares of the
# per-column differences in column order, each term and each sum rounded
# on its own (no fused multiply-add), so that it reads the same bits from
# a Python loop, a numpy loop over columns, and any CPU.


def _square(a, b) -> float:
    """The squared distance of two points, by the distance rule."""
    total = 0.0
    for x, y in zip(a, b):
        x -= y
        total += x * x
    return total


def _squares(cols, point):
    """The squared distances from point (a sequence of floats) to each
    column of cols, a (d, m) array, by the distance rule: one pass over
    each row of cols, vectorised over its m entries."""
    import numpy as np

    diff = np.subtract(cols[0], point[0])
    square = diff * diff
    for col, x in zip(cols[1:], point[1:]):
        np.subtract(col, x, out=diff)
        diff *= diff
        square += diff
    return square


def _dist(a, b) -> float:
    return math.sqrt(_square(a, b))


def _dot(u, v) -> float:
    """u . v, its products added in order, as _square adds its terms."""
    total = 0.0
    for x, y in zip(u, v):
        total += x * y
    return total


def _solve_gram(gram: list[list[float]], rhs: list[float]) -> list[float]:
    """A y with gram y = rhs, gram a symmetric positive semidefinite
    matrix, by Gaussian elimination on the largest remaining diagonal
    and back substitution; the unknowns left once it is at most 1e-12
    of the largest diagonal are dependent, and are 0."""
    k = len(rhs)
    rows = [row[:] + [r] for row, r in zip(gram, rhs)]
    floor = 1e-12 * max(rows[i][i] for i in range(k))
    free, pivots = list(range(k)), []
    while free:
        p = max(free, key=lambda i: rows[i][i])
        if rows[p][p] <= floor:
            break
        free.remove(p)
        pivots.append(p)
        top = rows[p]
        for i in free:
            if f := rows[i][p] / top[p]:
                rows[i] = [x - f * t for x, t in zip(rows[i], top)]
    y = [0.0] * k
    for at in range(len(pivots) - 1, -1, -1):
        row = rows[pivots[at]]
        total = row[k]
        for q in pivots[at + 1:]:
            total -= row[q] * y[q]
        y[pivots[at]] = total / row[pivots[at]]
    return y


def _ball_from_boundary(boundary: list) -> tuple[list[float], float]:
    """Smallest ball with all boundary points on its surface, on Python
    floats: (center, radius).

    Two points give the diametral ball.  Three give the circumcentre in
    their plane, solved from the 2x2 Gram system by Cramer's rule in any
    dimension; a degenerate triple (collinear or repeated) has no
    circumcircle and gets the diametral ball of its farthest pair.  Four
    or more solve the equidistance system restricted to the affine hull
    by _solve_gram, so affinely dependent boundaries degrade gracefully.
    """
    if len(boundary) == 1:
        return boundary[0], 0.0
    if len(boundary) == 2:
        p, q = boundary
        return [(x + y) / 2.0 for x, y in zip(p, q)], _dist(p, q) / 2.0
    p0 = boundary[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in boundary[1:]]
    if len(boundary) == 3:
        a, b = diffs
        aa, bb, ab = _dot(a, a), _dot(b, b), _dot(a, b)
        det = aa * bb - ab * ab
        if det <= 1e-12 * aa * bb:
            return _ball_from_boundary(max(combinations(boundary, 2),
                                           key=lambda pq: _dist(*pq)))
        s, t = 0.5 * bb * (aa - ab) / det, 0.5 * aa * (bb - ab) / det
        center = [x + s * u + t * w for x, u, w in zip(p0, a, b)]
    else:
        k = len(diffs)
        gram = [[0.0] * k for _ in diffs]
        for i, u in enumerate(diffs):     # symmetric: each product once
            for j in range(i, k):
                gram[i][j] = gram[j][i] = _dot(u, diffs[j])
        y = _solve_gram(gram, [0.5 * gram[i][i] for i in range(k)])
        center = p0
        for w, u in zip(y, diffs):
            if w:
                center = [x + w * v for x, v in zip(center, u)]
    radius = max(_dist(center, p) for p in boundary)
    return center, radius


def _welzl(pts: list, boundary: list, dim: int):
    """(center, radius, support) of the smallest ball holding pts with
    every point of the nonempty boundary on its surface (Welzl 1991),
    support being the boundary it was built from."""
    ball = (*_ball_from_boundary(boundary), boundary)
    if len(boundary) == dim + 1:
        return ball
    for i, p in enumerate(pts):
        if _dist(ball[0], p) > ball[1] + _CONTAIN_TOL:
            ball = _welzl(pts[:i], boundary + [p], dim)
    return ball


def min_enclosing_ball(points) -> Ball:
    """Smallest closed ball containing all points, by _enclose.

    Grown from the first point, in any dimension; the returned radius is
    within MEB_REL_TOL of optimal and is inflated (never deflated) so
    that every input point satisfies the containment invariant.
    """
    import numpy as np

    pts = np.asarray(points, float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.size == 0:
        raise ContractViolation("min_enclosing_ball of an empty point set")
    first = pts[0].tolist()
    radius, center, _ = _enclose(pts, (0.0, first, [first]))
    return Ball(np.array(center, float), radius)


def _enclose(points, ball):
    """(radius, center, support) of the smallest ball holding points, an
    (m, d) array or a list of float tuples, given that of some of them:
    the package's one MEB routine.

    While some point lies outside the ball, the farthest one moves to
    the front of the support and _welzl rebuilds the ball with it on its
    surface (move-to-front, Gärtner 1999).  The radius is inflated to the
    farthest point, so every point is held, except for two points: their
    diametral ball is exact, with radius half their distance.
    """
    plain = isinstance(points, list)
    if len(points) == 2:
        pair = points if plain else points.tolist()
        center, radius = _ball_from_boundary(pair)
        return radius, center, pair
    radius, center, support = ball
    front = list(support)
    # each move adds a point the ball did not hold, so at most len(points)
    for moved in range(len(points) + 1):
        far, square = (_farthest_plain if plain else _farthest)(points,
                                                               center)
        dist = math.sqrt(square)
        if dist <= radius + _CONTAIN_TOL or moved == len(points):
            return max(radius, dist), center, support
        p = points[far] if plain else points[far].tolist()
        center, radius, support = _welzl(front, [p], len(p))
        front.insert(0, p)


def _farthest(points, center) -> tuple[int, float]:
    """The first of the points farthest from center, and its squared
    distance: numpy form."""
    square = _squares(points.T, center)
    far = int(square.argmax())
    return far, float(square[far])


def _farthest_plain(points: list, center) -> tuple[int, float]:
    """_farthest on a list of float tuples, each square as _square
    adds it."""
    far, most = 0, -1.0
    for i, p in enumerate(points):
        square = 0.0
        for x, c in zip(p, center):
            x -= c
            square += x * x
        if square > most:
            far, most = i, square
    return far, most


def _spanning_edges(points) -> list[tuple[float, int, int]]:
    """The N-1 edges (distance, i, j), i < j, of the minimum spanning
    tree under the strict order (distance, pair rank), by Prim: each
    step adds the row nearest the tree and takes one distance row from
    it, by the distance rule, so bit for bit pair_distances's.  Under a
    strict order the tree is unique: these are the pairs a Kruskal scan
    of the stably sorted distances keeps."""
    import numpy as np

    n = len(points)
    # the rows outside the tree, in no order, their coordinates column by
    # column, and each one's nearest row in the tree, at distance gap
    rest, todo = np.arange(1, n), points[1:].T.copy()
    near, gap = np.zeros(n - 1, np.intp), np.full(n - 1, np.inf)

    def key(a, b):                  # orders pairs as their ranks do
        return np.minimum(a, b) * n + np.maximum(a, b)

    edges, v = [], 0
    for m in range(n - 1, 0, -1):   # m rows left outside
        dist = np.sqrt(_squares(todo[:, :m], points[v].tolist()))
        closer = dist < gap[:m]
        if len(tied := np.flatnonzero(dist == gap[:m])):
            closer[tied] = key(v, rest[tied]) < key(near[tied], rest[tied])
        np.copyto(gap[:m], dist, where=closer)
        near[:m][closer] = v
        p = int(gap[:m].argmin())
        if len(tied := np.flatnonzero(gap[:m] == gap[p])) > 1:
            p = int(tied[key(near[tied], rest[tied]).argmin()])
        v, u = int(rest[p]), int(near[p])
        edges.append((float(gap[p]), min(u, v), max(u, v)))
        # the last row outside takes p's slot
        rest[p], near[p], gap[p] = rest[m - 1], near[m - 1], gap[m - 1]
        todo[:, p] = todo[:, m - 1]
    return edges


def _spanning_edges_plain(points) -> list[tuple[float, int, int]]:
    """_spanning_edges on float tuples, by the same rules and the same
    column-by-column distance rows."""
    n = len(points)
    rest, near, gap = list(range(1, n)), [0] * (n - 1), [math.inf] * (n - 1)
    todo = [list(col[1:]) for col in zip(*points)]
    edges, v = [], 0
    for m in range(n - 1, 0, -1):
        dist = _distances([col[:m] for col in todo], points[v])
        for s, (d, g) in enumerate(zip(dist, gap)):
            # a tie goes to the pair of lower rank, v's or the old one's
            if d < g or d == g and (
                    min(rest[s], v) * n + max(rest[s], v)
                    < min(rest[s], near[s]) * n + max(rest[s], near[s])):
                gap[s], near[s] = d, v
        least = min(gap[:m])
        p = min((s for s in range(m) if gap[s] == least),
                key=lambda s: min(near[s], rest[s]) * n
                + max(near[s], rest[s]))
        v, u = rest[p], near[p]
        edges.append((least, min(u, v), max(u, v)))
        rest[p], near[p], gap[p] = rest[m - 1], near[m - 1], gap[m - 1]
        for col in todo:
            col[p] = col[m - 1]
    return edges


def _distances(cols: list[list[float]], point) -> list[float]:
    """The distances from point to each entry of the columns cols, by the
    distance rule, column by column as _squares adds them."""
    x = point[0]
    square = [(c - x) * (c - x) for c in cols[0]]
    for col, x in zip(cols[1:], point[1:]):
        square = [s + (c - x) * (c - x) for s, c in zip(square, col)]
    return list(map(math.sqrt, square))


class MergeTree:
    """Single linkage of a point set: its 0-dimensional persistence.

    Single linkage is fixed by the minimum spanning tree (Gower & Ross
    1969): its N-1 edges (distance, i, j), i < j, given in any order and
    replayed in their (distance, pair rank) order through one union-find
    pass.  Rows are addressed by position; a component is rooted at its
    first row, and merge j joins the component rooted at dying[j] into
    the elder one rooted at survivor[j] < dying[j], along the row pair of
    rank edge[j] (its index in NormalizedDataset.pair_distances), at
    pairwise distance height[j].  Two rows share a component at radius
    eps exactly when they are joined by merges of height <= 2 eps.  The
    filtration orders its edges by a stable sort of half the distances,
    so the merge edges are the edges that kill H0 bars there.

    The pass records each merge once: its children, survivor's first
    (the merge that formed each, or ~row for a single row), the size of
    the component it forms, and where that component starts in one
    order of the rows, the leaf order, in which every merge's component
    is a slice.  Every partition the tree passes through is read from
    those slices: classes(merges) names each component alive after a
    number of merges by the merge that formed it.
    The MEB of a merge's component is computed on first use, grown from
    the larger of its children's MEBs, which are computed first; so a
    radius depends on the tree alone, not on the order in which radii
    are asked for.  With ``plain`` the points are float tuples, and
    edge, survivor and dying are lists, not arrays.
    """

    def __init__(self, points, edges: list[tuple[float, int, int]],
                 plain: bool = False):
        self.points = points
        self.plain = plain
        n = len(points)
        root, rows = list(range(n)), [1] * n
        # each root's rows as a linked list with the root at its head,
        # and the merge that formed its component
        after, last, top = [-1] * n, list(range(n)), [~v for v in range(n)]

        def find(x):
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        self.height, edge, survivor, dying = [], [], [], []
        self.children, self.size = [], []
        # every spanning edge joins two components
        for j, (d, a, b) in enumerate(sorted(edges)):
            ra, rb = sorted((find(a), find(b)))
            root[rb] = ra
            self.height.append(d)
            edge.append(a * (2 * n - a - 1) // 2 + b - a - 1)
            survivor.append(ra)
            dying.append(rb)
            self.children.append((top[ra], top[rb]))
            top[ra] = j
            rows[ra] += rows[rb]
            self.size.append(rows[ra])
            after[last[ra]], last[ra] = rb, last[rb]
        # the roots' lists end to end, the leaf order: a merge's
        # component is the size[j] rows from where its survivor stands,
        # and the points are reordered so that it is one slice of them
        order = []
        for v in [v for v in range(n) if root[v] == v]:
            while v >= 0:
                order.append(v)
                v = after[v]
        if plain:
            place = [0] * n
            for i, v in enumerate(order):
                place[v] = i
            self.start = [place[v] for v in survivor]
            self._order = order
            self._leaves = [points[v] for v in order]
            self.edge, self.survivor, self.dying = edge, survivor, dying
        else:
            import numpy as np

            place = np.empty(n, np.intp)
            place[order] = np.arange(n)
            self.start = place[survivor].tolist()
            self._order = np.array(order, dtype=np.intp)
            self._leaves = points[self._order]
            self.edge = np.array(edge, dtype=np.intp)
            self.survivor = np.array(survivor, dtype=np.intp)
            self.dying = np.array(dying, dtype=np.intp)
        # (radius, center, support) of the MEB of the component each
        # merge forms, by merge, for the merges computed so far
        self._balls: dict[int, tuple] = {}

    def cut(self, eps: float) -> int:
        """How many merges have happened at radius eps (closed balls)."""
        return bisect_right(self.height, 2.0 * eps)

    def classes(self, merges: int) -> list[tuple[tuple[int, ...], int]]:
        """The components alive after the given number of merges,
        ordered by their first row: each as its ascending 1-based row
        ids, read from its slice of the leaf order, and the merge that
        formed it (~row for a single row)."""
        n = len(self.points)
        # a component is rooted at its first row; its root's latest merge
        # formed it
        if self.plain:
            top, alive = [~v for v in range(n)], [True] * n
            for j in range(merges):
                top[self.survivor[j]] = j
                alive[self.dying[j]] = False
            tops = [j for j, live in zip(top, alive) if live]
            sort = sorted
        else:
            import numpy as np

            top = ~np.arange(n)
            np.maximum.at(top, self.survivor[:merges], np.arange(merges))
            alive = np.ones(n, bool)
            alive[self.dying[:merges]] = False
            tops = top[alive].tolist()
            sort = np.sort
        classes = []
        for j in tops:
            if j < 0:
                classes.append(((~j + 1,), j))
            else:
                rows = sort(self._order[self.start[j]:
                                        self.start[j] + self.size[j]])
                classes.append((tuple(v + 1 for v in rows) if self.plain
                                else tuple((rows + 1).tolist()), j))
        return classes

    def radius(self, j: int) -> float:
        """The MEB radius of the component merge j formed; 0 for ~row."""
        return self._ball(j)[0] if j >= 0 else 0.0

    @cached_property
    def regime_table(self) -> list[tuple[float, float, int, int, float]]:
        """Per maximal eps interval [lo, hi) of constant partition (hi is
        inf for the last one): (lo, hi, merges so far, the smallest
        component's size, the largest component MEB radius).

        A merge never shrinks a component, and a component's radius is
        at least its children's, so both columns only grow with the
        merges: a running count of sizes and a running maximum of the
        merges' radii give them, and every k is a filter of this table.
        """
        n = len(self.points)
        count = [0] * (n + 1)       # components by size
        count[1] = n
        smallest, widest = [1], [0.0]
        for j, children in enumerate(self.children):
            for child in children:
                count[self.size[child] if child >= 0 else 1] -= 1
            count[self.size[j]] += 1
            least = smallest[-1]
            while not count[least]:
                least += 1
            smallest.append(least)
            widest.append(max(widest[-1], self._ball(j)[0]))
        starts = sorted({0.0} | {d / 2.0 for d in self.height})
        table = []
        for lo, hi in zip(starts, starts[1:] + [math.inf]):
            merges = self.cut(lo)
            table.append((lo, hi, merges, smallest[merges], widest[merges]))
        return table

    def _ball(self, j: int) -> tuple[float, list[float], list]:
        """(radius, center, support) of the component merge j forms,
        grown from its larger child's ball.  The merges under j that
        have no ball yet get theirs first, children before parents; no
        other merge does."""
        todo = [j]
        while j not in self._balls:
            x = todo[-1]
            late = [c for c in self.children[x]
                    if c >= 0 and c not in self._balls]
            if late:
                todo += late
                continue
            todo.pop()
            kids = [self._balls[c] if c >= 0 else self._single(~c)
                    for c in self.children[x]]
            start = self.start[x]
            radius, center, support = _enclose(
                self._leaves[start:start + self.size[x]],
                max(kids, key=lambda b: b[0]))
            # MEB is monotone; the children's radii bound float noise
            self._balls[x] = (max(radius, kids[0][0], kids[1][0]),
                              center, support)
        return self._balls[j]

    def _single(self, v: int) -> tuple[float, list[float], list]:
        """The ball of row v alone, on Python floats."""
        p = self.points[v] if self.plain else self.points[v].tolist()
        return 0.0, p, [p]
