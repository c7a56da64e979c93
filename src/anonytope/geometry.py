"""Point geometry: table normalization, minimum enclosing balls and the
merge tree of the rows.

The one geometric primitive everything else rests on is the minimum
enclosing ball (MEB): the closed eps-balls around a point set share a
common point exactly when the set's MEB radius is at most eps, so every
"do these balls intersect" question reduces to one MEB computation, by
one routine, _enclose.  Every "which rows share a component at eps"
question is answered by one merge tree (single linkage), built once per
dataset.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, IngestionError

# containment slack used when checking points against a candidate ball
_CONTAIN_TOL = 1e-12

#: relative radius accuracy guaranteed by min_enclosing_ball in any dimension
MEB_REL_TOL = 1e-9


# The records below are NamedTuples or plain classes, not dataclasses:
# ``dataclasses`` costs every numeric command its import.


class NumericTable:
    """The quasi-identifier columns of a table: their names, and one row
    of finite reals per table row as an (N, d) float array, d the number
    of names.  A row's id is its 1-based position."""

    def __init__(self, quasi_names: list[str], rows):
        self.quasi_names = list(quasi_names)
        if not len(rows):
            raise IngestionError("table has no data rows")
        if len(set(self.quasi_names)) != len(self.quasi_names):
            raise IngestionError("duplicate column names")
        if not self.quasi_names:
            raise IngestionError("no quasi-identifier columns declared")
        shape = f"an (N, {len(self.quasi_names)}) array of numbers"
        try:
            self.rows = np.asarray(rows, float)
        except ValueError:          # ragged rows, or a cell that is no number
            raise IngestionError(f"rows do not form {shape}") from None
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.quasi_names):
            raise IngestionError(f"rows do not form {shape}")
        bad = np.flatnonzero(~np.isfinite(self.rows))
        if len(bad):
            i, j = divmod(int(bad[0]), self.rows.shape[1])
            raise IngestionError(
                f"row {i + 1}, column {self.quasi_names[j]!r}: value "
                f"{float(self.rows[i, j])!r} is not a finite number")

    @property
    def n_rows(self) -> int:
        return len(self.rows)


class NormalizedDataset:
    """Rows mapped into the unit hypercube, one point per row.

    A row's id is its 1-based position in the originating table.
    Immutable, with a read-only ``points`` array; a plain class because
    ``pair_distances`` and ``merge_tree`` are cached in the instance
    dict.
    """

    def __init__(self, points):
        points = np.asarray(points, float)      # shape (N, d), in [0, 1]
        points.setflags(write=False)
        vars(self).update(points=points)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def row_ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_points + 1))

    @cached_property
    def pair_distances(self) -> np.ndarray:
        """Distances of all row pairs i < j in row order, built once by
        the kernel of _dist, one row at a time, so no N^2 x d array is
        held.  The filtration's edge births are half of each."""
        pts = self.points
        dist = np.concatenate([np.empty(0)] + [
            np.sqrt(np.vecdot(diff, diff))
            for diff in (pts[i] - pts[i + 1:] for i in range(len(pts) - 1))])
        dist.setflags(write=False)
        return dist

    @cached_property
    def merge_tree(self) -> "MergeTree":
        """Single linkage of the rows, built on first use and kept."""
        return MergeTree(self.points, _spanning_edges(self.points))


class Ball(NamedTuple):
    center: np.ndarray
    radius: float


def normalize_dataset(table: NumericTable) -> NormalizedDataset:
    """Min-max scale each quasi-identifier column onto [0, 1].

    Constant columns map to 0: a constant quasi-identifier never
    separates rows, so pinning it costs nothing and keeps the map total.
    A column whose range overflows a float is scaled from its halves.
    """
    raw = table.rows
    pts = np.zeros_like(raw)
    for j in range(raw.shape[1]):
        col = raw[:, j]
        lo, hi = float(col.min()), float(col.max())
        if math.isinf(hi - lo):
            col, lo, hi = col / 2.0, lo / 2.0, hi / 2.0
        if hi > lo:
            pts[:, j] = (col - lo) / (hi - lo)
    return NormalizedDataset(pts)


def _dist(a, b) -> float:
    diff = a - b
    return float(np.sqrt(np.vecdot(diff, diff)))


def _ball_from_boundary(boundary: list[np.ndarray]):
    """Smallest ball with all boundary points on its surface.

    Two points give the diametral ball.  Three give the circumcentre in
    their plane, solved from the 2x2 Gram system by Cramer's rule in any
    dimension; a degenerate triple (collinear or repeated) has no
    circumcircle and gets the diametral ball of its farthest pair.  Four
    or more solve the equidistance system restricted to the affine hull
    by least squares, so affinely dependent boundaries degrade
    gracefully.
    """
    if len(boundary) == 1:
        return boundary[0], 0.0
    if len(boundary) == 2:
        p, q = boundary
        return (p + q) / 2.0, _dist(p, q) / 2.0
    p0 = boundary[0]
    if len(boundary) == 3:
        a, b = boundary[1] - p0, boundary[2] - p0
        aa, bb, ab = (float(np.vecdot(u, v)) for u, v in ((a, a), (b, b),
                                                          (a, b)))
        det = aa * bb - ab * ab
        if det <= 1e-12 * aa * bb:
            return _ball_from_boundary(max(combinations(boundary, 2),
                                           key=lambda pq: _dist(*pq)))
        center = p0 + (0.5 * bb * (aa - ab) / det) * a \
            + (0.5 * aa * (bb - ab) / det) * b
    else:
        diffs = np.array([p - p0 for p in boundary[1:]])
        rhs = 0.5 * np.einsum("ij,ij->i", diffs, diffs)
        gram = diffs @ diffs.T
        y, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        center = p0 + y @ diffs
    radius = max(_dist(center, p) for p in boundary)
    return center, radius


def _welzl(pts: list[np.ndarray], boundary: list[np.ndarray], dim: int):
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
    pts = np.asarray(points, float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.size == 0:
        raise ContractViolation("min_enclosing_ball of an empty point set")
    radius, center, _ = _enclose(pts, (0.0, pts[0], [pts[0]]))
    return Ball(center.copy(), radius)


def _enclose(points: np.ndarray, ball):
    """(radius, center, support) of the smallest ball holding points,
    given that of some of them: the package's one MEB routine.

    While some point lies outside the ball, the farthest one moves to
    the front of the support and _welzl rebuilds the ball with it on its
    surface (move-to-front, Gärtner 1999).  The radius is inflated to the
    farthest point, so every point is held, except for two points: their
    diametral ball is exact, with radius half their distance.
    """
    if len(points) == 2:
        center, radius = _ball_from_boundary(list(points))
        return radius, center, list(points)
    radius, center, support = ball
    front = list(support)
    # each move adds a point the ball did not hold, so at most len(points)
    for moved in range(len(points) + 1):
        diff = points - center
        square = np.vecdot(diff, diff)
        far = int(square.argmax())
        dist = math.sqrt(square[far])   # rounds as np.sqrt does
        if dist <= radius + _CONTAIN_TOL or moved == len(points):
            return max(radius, dist), center, support
        center, radius, support = _welzl(front, [points[far]],
                                         points.shape[1])
        front.insert(0, points[far])


def _spanning_edges(points: np.ndarray) -> list[tuple[float, int, int]]:
    """The N-1 edges (distance, i, j), i < j, of the minimum spanning
    tree under the strict order (distance, pair rank), by Prim: each
    step adds the row nearest the tree and takes one distance row from
    it, by pair_distances's kernel up to a sign inside the square, so
    bit for bit.  Under a strict order the tree is unique: these are the
    pairs a Kruskal scan of the stably sorted distances keeps."""
    n = len(points)
    # the rows outside the tree, in no order, their points, and each
    # one's nearest row in the tree, at distance gap
    rest, todo = np.arange(1, n), points[1:].copy()
    near, gap = np.zeros(n - 1, np.intp), np.full(n - 1, np.inf)

    def key(a, b):                  # orders pairs as their ranks do
        return np.minimum(a, b) * n + np.maximum(a, b)

    edges, v = [], 0
    for m in range(n - 1, 0, -1):   # m rows left outside
        diff = todo[:m] - points[v]
        dist = np.sqrt(np.vecdot(diff, diff))
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
        rest[p], near[p], gap[p], todo[p] = \
            rest[m - 1], near[m - 1], gap[m - 1], todo[m - 1]
    return edges


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
    are asked for.
    """

    def __init__(self, points: np.ndarray,
                 edges: list[tuple[float, int, int]]):
        self.points = points
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
        top = ~np.arange(n)
        np.maximum.at(top, self.survivor[:merges], np.arange(merges))
        alive = np.ones(n, bool)
        alive[self.dying[:merges]] = False
        classes = []
        for j in top[alive].tolist():
            if j < 0:
                classes.append(((~j + 1,), j))
            else:
                rows = self._order[self.start[j]:self.start[j] + self.size[j]]
                classes.append((tuple((np.sort(rows) + 1).tolist()), j))
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

    def _ball(self, j: int) -> tuple[float, np.ndarray, list[np.ndarray]]:
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
            kids = [self._balls[c] if c >= 0
                    else (0.0, self.points[~c], [self.points[~c]])
                    for c in self.children[x]]
            start = self.start[x]
            radius, center, support = _enclose(
                self._leaves[start:start + self.size[x]],
                max(kids, key=lambda b: b[0]))
            # MEB is monotone; the children's radii bound float noise
            self._balls[x] = (max(radius, kids[0][0], kids[1][0]),
                              center, support)
        return self._balls[j]
