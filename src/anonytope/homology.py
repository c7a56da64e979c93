"""Persistence over GF(2): boundary matrices, column reduction, barcodes,
and the weighted H0 diagram.

Columns are stored as Python ints used as bit sets, which keeps the
left-to-right reduction and the rank computations exact and fast at the
scales this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import Filtration, SimplicialComplex, simplex_dim
from .errors import ContractViolation
from .geometry import NormalizedDataset


@dataclass(frozen=True)
class BoundaryMatrix:
    """Per filtration entry, the indices of its codimension-1 faces."""

    columns: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...]


@dataclass(frozen=True)
class PersistencePairs:
    pairs: tuple[tuple[int, int], ...]   # (birth index, death index)
    unpaired: tuple[int, ...]


@dataclass(frozen=True)
class Bar:
    dim: int
    birth: float
    death: float | None    # None encodes +infinity

    @property
    def is_zero_length(self) -> bool:
        return self.death is not None and self.death == self.birth


@dataclass(frozen=True)
class Barcode:
    bars: tuple[Bar, ...]

    def display_bars(self) -> list[Bar]:
        """Bars with positive length; zero-length ones stay in .bars."""
        return [b for b in self.bars if not b.is_zero_length]

    def betti_at(self, eps: float) -> dict[int, int]:
        out: dict[int, int] = {}
        for b in self.bars:
            if b.birth <= eps and (b.death is None or eps < b.death):
                out[b.dim] = out.get(b.dim, 0) + 1
        return out


@dataclass(frozen=True)
class WeightedBar:
    birth: float
    death: float | None
    # piecewise-constant component size: value steps[i][1] from steps[i][0]
    # up to the next step (or death)
    weight_steps: tuple[tuple[float, int], ...]

    def weight_at(self, eps: float) -> int:
        w = 0
        for e, size in self.weight_steps:
            if e <= eps:
                w = size
        return w


@dataclass(frozen=True)
class WeightedBarcode:
    h0_bars: tuple[WeightedBar, ...]
    n_points: int

    def live_bars(self, eps: float) -> list[WeightedBar]:
        return [b for b in self.h0_bars
                if b.birth <= eps and (b.death is None or eps < b.death)]


def boundary_matrix(filt: Filtration) -> BoundaryMatrix:
    index = {s: i for i, (_, s) in enumerate(filt.entries)}
    cols, dims = [], []
    for i, (_, s) in enumerate(filt.entries):
        dims.append(simplex_dim(s))
        if len(s) == 1:
            cols.append(())
            continue
        faces = []
        for f in combinations(s, len(s) - 1):
            j = index.get(f)
            if j is None or j >= i:
                raise ContractViolation(
                    f"face {f} of {s} missing or out of order in filtration")
            faces.append(j)
        cols.append(tuple(sorted(faces)))
    return BoundaryMatrix(columns=tuple(cols), dims=tuple(dims))


def reduce_matrix(bm: BoundaryMatrix) -> PersistencePairs:
    """Standard left-to-right column reduction with low-index pairing."""
    n = len(bm.columns)
    cols = [sum(1 << f for f in c) for c in bm.columns]
    low_owner: dict[int, int] = {}
    pairs = []
    for j in range(n):
        col = cols[j]
        while col:
            low = col.bit_length() - 1
            other = low_owner.get(low)
            if other is None:
                break
            col ^= cols[other]
        cols[j] = col
        if col:
            low = col.bit_length() - 1
            low_owner[low] = j
            pairs.append((low, j))
    killed = {i for i, _ in pairs} | {j for _, j in pairs}
    unpaired = tuple(i for i in range(n) if i not in killed)
    return PersistencePairs(pairs=tuple(sorted(pairs)), unpaired=unpaired)


def barcode(pairs: PersistencePairs, filt: Filtration) -> Barcode:
    """Bars of the dimensions below the filtration's dim_cap.  A simplex
    of the top dimension has no cofaces in the filtration, so its bar
    would stay open forever whatever the data."""
    ends = [(i, filt.entries[j][0]) for i, j in pairs.pairs]
    ends += [(i, None) for i in pairs.unpaired]
    bars = [Bar(dim=simplex_dim(filt.entries[i][1]),
                birth=filt.entries[i][0], death=death)
            for i, death in ends
            if simplex_dim(filt.entries[i][1]) < filt.dim_cap]
    bars.sort(key=lambda b: (b.dim, b.birth,
                             float("inf") if b.death is None else b.death))
    return Barcode(bars=tuple(bars))


def weighted_h0_barcode(data: NormalizedDataset) -> WeightedBarcode:
    """The H0 bars of the dataset's merge tree: each merge kills the
    younger component's bar and the survivor absorbs its weight."""
    tree = data.merge_tree
    n = data.n_points
    steps = [[(0.0, 1)] for _ in range(n)]
    deaths: list[float | None] = [None] * n
    for d, survivor, dying in zip(tree.height, tree.survivor.tolist(),
                                  tree.dying.tolist()):
        eps = d / 2.0
        deaths[dying] = eps
        steps[survivor].append((eps, steps[survivor][-1][1]
                                + steps[dying][-1][1]))
    bars = sorted((WeightedBar(birth=0.0, death=deaths[i],
                               weight_steps=tuple(steps[i]))
                   for i in range(n)),
                  key=lambda b: float("inf") if b.death is None else b.death)
    return WeightedBarcode(h0_bars=tuple(bars), n_points=n)


def _gf2_rank(columns: list[int]) -> int:
    rows: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            if low in rows:
                col ^= rows[low]
            else:
                rows[low] = col
                rank += 1
                break
    return rank


def homology_dims_at(complex_: SimplicialComplex) -> list[int]:
    """Betti numbers dim H_0 .. dim H_(dim_cap - 1) by rank-nullity."""
    cap = complex_.dim_cap
    by_dim = [complex_.simplices_of_dim(d) for d in range(cap + 1)]
    ranks = [0] * (cap + 2)    # ranks[d] = rank of boundary_d
    for d in range(1, cap + 1):
        if not by_dim[d]:
            continue
        face_index = {s: i for i, s in enumerate(by_dim[d - 1])}
        cols = []
        for s in by_dim[d]:
            mask = 0
            for f in combinations(s, len(s) - 1):
                mask |= 1 << face_index[f]
            cols.append(mask)
        ranks[d] = _gf2_rank(cols)
    return [len(by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(cap)]


def barcode_json(bars: Barcode, weighted: WeightedBarcode,
                 n_points: int) -> dict:
    """The on-disk JSON shape: H0 bars come from the merge tree with their
    weight steps, higher dimensions from the reduction with null."""
    out = [{"dim": 0, "birth": b.birth, "death": b.death,
            "weight_steps": [list(step) for step in b.weight_steps]}
           for b in weighted.h0_bars]
    out += [{"dim": b.dim, "birth": b.birth, "death": b.death,
             "weight_steps": None} for b in bars.bars if b.dim > 0]
    return {"bars": out, "n_points": n_points}
