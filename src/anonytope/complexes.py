"""Anonymity complexes at fixed eps and the exact eps-filtration.

A subset of rows spans a simplex at radius eps exactly when the MEB of
its points has radius <= eps, so each simplex has a well-defined birth
value and the family over all eps is a filtration with exact critical
values (no radii grid needed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ContractViolation, FiltrationSizeError
from .geometry import NormalizedDataset, balls_intersect, min_enclosing_ball

# simplices are plain sorted tuples of 1-based row ids
Simplex = tuple[int, ...]

DEFAULT_SIMPLEX_BUDGET = 2_000_000

# relative margin over a / 2 that a triangle's computed circumradius must
# clear to count as acute: above the closed form's rounding (at most 4
# ulps seen on exact right triangles), far below MEB_REL_TOL
_RIGHT_SLACK = 8 * np.finfo(float).eps


def simplex_dim(simplex: Simplex) -> int:
    return len(simplex) - 1


@dataclass(frozen=True)
class SimplicialComplex:
    simplices: frozenset[Simplex]
    dim_cap: int

    def __contains__(self, simplex) -> bool:
        return tuple(sorted(simplex)) in self.simplices

    def simplices_of_dim(self, dim: int) -> list[Simplex]:
        return sorted(s for s in self.simplices if simplex_dim(s) == dim)

    def counts(self) -> list[int]:
        out = [0] * (self.dim_cap + 1)
        for s in self.simplices:
            out[simplex_dim(s)] += 1
        return out


@dataclass(frozen=True)
class Filtration:
    """Simplices with their exact birth radii, faces before cofaces.

    Entries are sorted by (birth, dimension, lexicographic vertices);
    birth of a simplex is the MEB radius of its vertex set.  Homology is
    read only below dim_cap: simplices of dimension dim_cap, if present,
    have no cofaces here, so the filtration may be cut short above them.
    """

    entries: tuple[tuple[float, Simplex], ...]
    dim_cap: int

    def sublevel(self, eps: float) -> SimplicialComplex:
        """The complex of all simplices born at or before eps."""
        return SimplicialComplex(
            simplices=frozenset(s for b, s in self.entries if b <= eps),
            dim_cap=self.dim_cap,
        )

    def critical_values(self) -> list[float]:
        return sorted({b for b, _ in self.entries})


def _entry_key(entry):
    birth, verts = entry
    return (birth, len(verts), verts)


def _check_budget(n: int, dim_cap: int, budget: int) -> None:
    total = sum(math.comb(n, size) for size in range(1, dim_cap + 2))
    if total > budget:
        raise FiltrationSizeError(
            f"{total} simplices for N={n}, dim_cap={dim_cap} exceeds the "
            f"budget of {budget}; lower --dim-cap")


def _triangle_births(dist: np.ndarray, n: int) -> np.ndarray:
    """MEB radii of all triples i < j < k of n rows, in lexicographic
    order, from their pairwise distances (pairs i < j in row order).

    With sides a >= b >= c, a triangle that is not acute (b^2 + c^2 <=
    a^2), or has no area, is born at a / 2, the birth of its longest
    edge; an acute one at its circumradius abc / (4K), with the area K
    from Kahan's stable form of Heron's formula.  Float sides cannot
    tell a right triangle from a nearly right acute one, whose
    circumradius is a / 2 to within the formula's few ulps, so a
    circumradius that close to a / 2 is taken as a / 2.  Every triangle
    is thus born exactly with its longest edge or after it.
    """
    first, second = np.triu_indices(n, 1)
    count = n - 1 - second                  # third vertices per pair
    i, j = np.repeat(first, count), np.repeat(second, count)
    k = j + 1 + np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)

    def side(p, q):                         # index of pair p < q
        return dist[p * (2 * n - p - 1) // 2 + q - p - 1]

    c, b, a = np.sort([side(i, j), side(i, k), side(j, k)], axis=0)
    heron16 = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    acute = (b * b + c * c > a * a) & (heron16 > 0)
    radius = np.zeros_like(a)
    radius[acute] = a[acute] * b[acute] * c[acute] / np.sqrt(heron16[acute])
    half = a / 2.0
    return np.where(radius > half * (1.0 + _RIGHT_SLACK), radius, half)


def build_filtration(data: NormalizedDataset, dim_cap: int,
                     budget: int = DEFAULT_SIMPLEX_BUDGET) -> Filtration:
    """All simplices of dim <= dim_cap with their exact birth radii.

    Edges and triangles take their births in closed form from the
    dataset's pairwise distances; larger simplices run Welzl.
    """
    if dim_cap < 1:
        raise ContractViolation("dim_cap must be >= 1")
    ids = data.row_ids
    _check_budget(len(ids), dim_cap, budget)
    dist = data.pair_distances
    births: dict[Simplex, float] = dict.fromkeys(combinations(ids, 1), 0.0)
    births.update(zip(combinations(ids, 2), (dist / 2.0).tolist()))
    if dim_cap >= 2:
        births.update(zip(combinations(ids, 3),
                          _triangle_births(dist, len(ids)).tolist()))
    for size in range(4, dim_cap + 2):
        for verts in combinations(ids, size):
            b = min_enclosing_ball(data.subset(verts)).radius
            # MEB is monotone over faces; clamping removes the 1-ulp
            # float noise that could put a coface before a face
            births[verts] = max(
                b, max(births[f] for f in combinations(verts, size - 1)))
    entries = sorted(((b, s) for s, b in births.items()), key=_entry_key)
    return Filtration(entries=tuple(entries), dim_cap=dim_cap)


def build_anonymity_complex(data: NormalizedDataset, eps: float,
                            dim_cap: int) -> SimplicialComplex:
    """The complex at radius eps: a simplex per subset whose balls meet.

    Built by upward extension so that only supersets of known simplices
    get their MEB tested (downward closure prunes the rest).
    """
    if dim_cap < 1:
        raise ContractViolation("dim_cap must be >= 1")
    if eps < 0:
        raise ContractViolation(f"eps must be nonnegative, got {eps}")
    ids = list(data.row_ids)
    simplices: set[Simplex] = {(v,) for v in ids}
    current = [(v,) for v in ids]
    for size in range(2, dim_cap + 2):
        nxt = []
        seen = set()
        for s in current:
            for v in ids:
                if v <= s[-1]:
                    continue
                cand = s + (v,)
                if cand in seen:
                    continue
                seen.add(cand)
                if balls_intersect(data.subset(cand), eps):
                    nxt.append(cand)
        simplices.update(nxt)
        current = nxt
    return SimplicialComplex(simplices=frozenset(simplices), dim_cap=dim_cap)


def is_anonymity_simplex(data: NormalizedDataset, subset, eps: float,
                         k: int) -> bool:
    """Can these rows be generalized together at radius eps as a group
    of at least k?  (Point count, not simplex dimension, compares to k.)
    """
    subset = tuple(sorted(subset))
    if not subset:
        raise ContractViolation("subset must be nonempty")
    if k < 1:
        raise ContractViolation("k must be >= 1")
    pts = data.subset(subset)
    return len(subset) >= k and balls_intersect(pts, eps)
