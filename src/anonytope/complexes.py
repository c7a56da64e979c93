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

from .errors import ContractViolation, FiltrationSizeError
from .geometry import NormalizedDataset, balls_intersect, min_enclosing_ball

# simplices are plain sorted tuples of 1-based row ids
Simplex = tuple[int, ...]

DEFAULT_SIMPLEX_BUDGET = 2_000_000


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

    def to_text(self) -> str:
        lines = [f"{b!r} " + " ".join(str(v) for v in s)
                 for b, s in self.entries]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, dim_cap: int | None = None) -> "Filtration":
        """Without dim_cap the text is taken as complete, not cut short:
        the cap is one above its top dimension, so every bar is kept."""
        entries = []
        for line in text.splitlines():
            if not line.strip():
                continue
            parts = line.split()
            entries.append((float(parts[0]), tuple(int(v) for v in parts[1:])))
        cap = dim_cap if dim_cap is not None else 1 + max(
            simplex_dim(s) for _, s in entries)
        return cls(entries=tuple(entries), dim_cap=cap)


def _entry_key(entry):
    birth, verts = entry
    return (birth, len(verts), verts)


def _check_budget(n: int, dim_cap: int, budget: int) -> None:
    total = sum(math.comb(n, size) for size in range(1, dim_cap + 2))
    if total > budget:
        raise FiltrationSizeError(
            f"{total} simplices for N={n}, dim_cap={dim_cap} exceeds the "
            f"budget of {budget}; lower --dim-cap")


def build_filtration(data: NormalizedDataset, dim_cap: int,
                     budget: int = DEFAULT_SIMPLEX_BUDGET) -> Filtration:
    """All simplices of dim <= dim_cap with their exact birth radii."""
    if dim_cap < 1:
        raise ContractViolation("dim_cap must be >= 1")
    ids = data.row_ids
    _check_budget(len(ids), dim_cap, budget)
    births: dict[Simplex, float] = {}
    for size in range(1, dim_cap + 2):
        for verts in combinations(ids, size):
            b = 0.0 if size == 1 else \
                min_enclosing_ball(data.subset(verts)).radius
            if size > 1:
                # MEB is monotone over faces; clamping removes the 1-ulp
                # float noise that could put a coface before a face
                b = max(b, max(births[f] for f in combinations(verts, size - 1)))
            births[verts] = b
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
