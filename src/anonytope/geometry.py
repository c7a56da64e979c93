"""Point geometry: table normalization, minimum enclosing balls and the
merge tree of the rows.

The one geometric primitive everything else rests on is the minimum
enclosing ball (MEB): the closed eps-balls around a point set share a
common point exactly when the set's MEB radius is at most eps, so every
"do these balls intersect" question reduces to one MEB computation.
Every "which rows share a component at eps" question is answered by one
merge tree (single linkage), built once per dataset.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolation, FiltrationSizeError, IngestionError

ROLE_IDENTIFIER = "identifier"
ROLE_QUASI = "quasi_identifier"
ROLE_SENSITIVE = "sensitive"

ROLES = (ROLE_IDENTIFIER, ROLE_QUASI, ROLE_SENSITIVE)

# containment slack used when checking points against a candidate ball
_CONTAIN_TOL = 1e-12

#: relative radius accuracy guaranteed by min_enclosing_ball in any dimension
MEB_REL_TOL = 1e-9

#: most row pairs a dataset may hold; sorting them takes about 32 bytes
#: each, so this caps that stage near 1.6 GB (N of about 10,000)
PAIR_BUDGET = 50_000_000


@dataclass(frozen=True)
class Column:
    name: str
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise IngestionError(f"unknown column role {self.role!r} "
                                 f"for column {self.name!r}")


@dataclass
class NumericTable:
    """A typed table whose quasi-identifier cells are finite reals."""

    columns: list[Column]
    rows: list[dict]

    def __post_init__(self):
        if not self.rows:
            raise IngestionError("table has no data rows")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise IngestionError("duplicate column names")
        if not self.quasi_names:
            raise IngestionError("no quasi-identifier columns declared")
        for i, row in enumerate(self.rows, start=1):
            if set(row) != set(names):
                raise IngestionError(f"row {i} does not match the schema")
            for name in self.quasi_names:
                v = row[name]
                if not isinstance(v, (int, float)) or isinstance(v, bool) \
                        or not math.isfinite(float(v)):
                    raise IngestionError(
                        f"row {i}, column {name!r}: value {v!r} is not a "
                        f"finite number")

    @property
    def quasi_names(self) -> list[str]:
        return [c.name for c in self.columns if c.role == ROLE_QUASI]

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class NormalizedDataset:
    """Rows mapped into the unit hypercube, one point per row.

    Row ids are stable 1-based indices into the originating table.
    """

    points: np.ndarray                      # shape (N, d), values in [0, 1]
    scale_params: tuple[tuple[float, float], ...]   # per-column (min, max)
    row_ids: tuple[int, ...]
    qi_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, float))
        self.points.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {r: i for i, r in enumerate(self.row_ids)}

    def subset(self, row_ids) -> np.ndarray:
        try:
            return self.points[[self._positions[r] for r in row_ids]]
        except KeyError as exc:
            raise ContractViolation(f"unknown row id {exc.args[0]}") from None

    @cached_property
    def pair_distances(self) -> np.ndarray:
        """Distances of all row pairs i < j in row order, built once.

        The merge tree's heights and the filtration's edge births (half
        of each) are these values.  Raises FiltrationSizeError, before
        anything is allocated, when the pairs exceed PAIR_BUDGET.
        """
        n = self.n_points
        pairs = n * (n - 1) // 2
        if pairs > PAIR_BUDGET:
            raise FiltrationSizeError(
                f"{pairs} row pairs for N={n} exceed the pairwise budget "
                f"of {PAIR_BUDGET}")
        dist = _pairwise_distances(self.points)
        dist.setflags(write=False)
        return dist

    @cached_property
    def merge_tree(self) -> "MergeTree":
        """Single linkage of the rows, built on first use and kept."""
        return MergeTree(self.points, self.row_ids, self.pair_distances)


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, float))


def normalize_dataset(table: NumericTable) -> NormalizedDataset:
    """Min-max scale each quasi-identifier column onto [0, 1].

    Constant columns map to 0: a constant quasi-identifier never
    separates rows, so pinning it costs nothing and keeps the map total.
    A column whose range overflows a float is scaled from its halves.
    """
    qi = table.quasi_names
    raw = np.array([[float(row[name]) for name in qi] for row in table.rows])
    scale = []
    pts = np.zeros_like(raw)
    for j in range(raw.shape[1]):
        col = raw[:, j]
        lo, hi = float(col.min()), float(col.max())
        scale.append((lo, hi))
        if math.isinf(hi - lo):
            col, lo, hi = col / 2.0, lo / 2.0, hi / 2.0
        if hi > lo:
            pts[:, j] = (col - lo) / (hi - lo)
    return NormalizedDataset(
        points=pts,
        scale_params=tuple(scale),
        row_ids=tuple(range(1, table.n_rows + 1)),
        qi_names=tuple(qi),
    )


def _dist(a, b) -> float:
    diff = a - b
    return float(np.sqrt(np.vecdot(diff, diff)))


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Distances of all pairs i < j in row order, by the kernel of _dist.

    Built one row block at a time, so no N^2 x d array is held.
    """
    blocks = [np.empty(0)]
    for i in range(len(points) - 1):
        diff = points[i] - points[i + 1:]
        blocks.append(np.sqrt(np.vecdot(diff, diff)))
    return np.concatenate(blocks)


def _ball_from_boundary(boundary: list[np.ndarray]):
    """Smallest ball with all boundary points on its surface.

    For two points this is the diametral ball; larger sets solve the
    equidistance system restricted to the affine hull (least squares, so
    affinely dependent boundaries degrade gracefully).
    """
    if not boundary:
        return None
    if len(boundary) == 1:
        return boundary[0], 0.0
    if len(boundary) == 2:
        p, q = boundary
        return (p + q) / 2.0, _dist(p, q) / 2.0
    p0 = boundary[0]
    diffs = np.array([p - p0 for p in boundary[1:]])
    rhs = 0.5 * np.einsum("ij,ij->i", diffs, diffs)
    gram = diffs @ diffs.T
    y, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    center = p0 + y @ diffs
    radius = max(_dist(center, p) for p in boundary)
    return center, radius


def _welzl(pts: list[np.ndarray], boundary: list[np.ndarray], dim: int):
    ball = _ball_from_boundary(boundary)
    if len(boundary) == dim + 1:
        return ball
    for i, p in enumerate(pts):
        if ball is None or _dist(ball[0], p) > ball[1] + _CONTAIN_TOL:
            ball = _welzl(pts[:i], boundary + [p], dim)
    return ball


def min_enclosing_ball(points) -> Ball:
    """Smallest closed ball containing all points (Welzl move-to-front).

    Works in any dimension; the returned radius is within MEB_REL_TOL of
    optimal and is inflated (never deflated) so that every input point
    satisfies the containment invariant.
    """
    pts = np.asarray(points, float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.size == 0:
        raise ContractViolation("min_enclosing_ball of an empty point set")
    n, d = pts.shape
    if n == 1:
        return Ball(pts[0].copy(), 0.0)
    if n == 2:
        return Ball((pts[0] + pts[1]) / 2.0, _dist(pts[0], pts[1]) / 2.0)
    order = list(range(n))
    random.Random(0x5EB).shuffle(order)
    center, radius = _welzl([pts[i] for i in order], [], d)
    # inflating to the farthest point guarantees containment without
    # breaking minimality beyond float noise
    radius = max(radius, max(_dist(center, p) for p in pts))
    return Ball(center, radius)


def _sorted_pairs(n: int, dist: np.ndarray):
    """(rank, i, j, distance) for all pairs i < j of n rows, given their
    distances in row order, the rank being a pair's index there, by one
    stable sort (ties in row order), handed out n pairs at a time."""
    order = np.argsort(dist, kind="stable")
    first, second = np.triu_indices(n, 1)
    for start in range(0, len(order), n):
        block = order[start:start + n]
        yield from zip(block.tolist(), first[block].tolist(),
                       second[block].tolist(), dist[block].tolist())


class MergeTree:
    """Single linkage of a point set: its 0-dimensional persistence.

    One stable sort of the pairwise distances (pairs i < j in row order,
    as NormalizedDataset.pair_distances holds them; ties in row order),
    then one union-find pass.  Rows are addressed by position; a
    component is rooted at its first row, and merge j joins the
    component rooted at dying[j] into the elder one rooted at
    survivor[j] < dying[j], along the row pair of rank edge[j] (its
    index in the distances), at pairwise distance height[j].  Two rows
    share a component at radius eps exactly when they are joined by
    merges of height <= 2 eps.  The filtration orders its edges by the
    same stable sort of half these distances, so the merge edges are
    the edges that kill H0 bars there.
    """

    def __init__(self, points: np.ndarray, row_ids: tuple[int, ...],
                 distances: np.ndarray):
        self.points = points
        self.ids = np.asarray(row_ids)
        n = len(points)
        root = list(range(n))

        def find(x):
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        self.height, edge, survivor, dying = [], [], [], []
        for rank, a, b, d in _sorted_pairs(n, distances):
            if len(dying) == n - 1:
                break
            ra, rb = sorted((find(a), find(b)))
            if ra != rb:
                root[rb] = ra
                self.height.append(d)
                edge.append(rank)
                survivor.append(ra)
                dying.append(rb)
        self.edge = np.array(edge, dtype=np.intp)
        self.survivor = np.array(survivor, dtype=np.intp)
        self.dying = np.array(dying, dtype=np.intp)
        self._radius: dict[tuple[int, int], float] = {}

    def cut(self, eps: float) -> int:
        """How many merges have happened at radius eps (closed balls)."""
        return bisect_right(self.height, 2.0 * eps)

    def intervals(self) -> list[tuple[float, float, int]]:
        """Maximal eps intervals [lo, hi) of constant partition, as
        (lo, hi, merges so far); hi is inf for the last one."""
        starts = sorted({0.0} | {d / 2.0 for d in self.height})
        return [(lo, hi, self.cut(lo))
                for lo, hi in zip(starts, starts[1:] + [math.inf])]

    def components(self, merges: int) -> list[np.ndarray]:
        """The components after the given number of merges, as ascending
        row positions, ordered by their first row."""
        root = np.arange(len(self.points))
        root[self.dying[:merges]] = self.survivor[:merges]
        while not np.array_equal(up := root[root], root):
            root = up
        order = np.argsort(root, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)

    def row_ids(self, component: np.ndarray) -> tuple[int, ...]:
        return tuple(self.ids[component].tolist())

    def radius(self, component: np.ndarray) -> float:
        """MEB radius of a component, computed once per component."""
        # a root's component grows with every merge into it, so its first
        # row and its size name it
        key = (int(component[0]), len(component))
        if key not in self._radius:
            self._radius[key] = min_enclosing_ball(
                self.points[component]).radius
        return self._radius[key]
