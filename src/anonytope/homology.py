"""Persistence over GF(2): one barcode whose H0 bars carry their weights.

H0 comes from the dataset's merge tree; higher dimensions from one
boundary matrix per dimension.  Columns are stored as Python ints used
as bit sets, which keeps the left-to-right reduction exact and fast at
the scales this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import Filtration, facet_ranks, simplex_vertices
from .geometry import NormalizedDataset

# columns whose face rows are made Python lists at once: enough to amortise
# numpy's per-call cost, few enough that no dimension's lists are all held
_BLOCK = 1 << 16


@dataclass(frozen=True)
class Bar:
    dim: int
    birth: float
    death: float | None    # None encodes +infinity
    # H0 only: piecewise-constant component size, value steps[i][1] from
    # steps[i][0] up to the next step (or death); None above H0
    weight_steps: tuple[tuple[float, int], ...] | None = field(
        default=None, compare=False)

    @property
    def is_zero_length(self) -> bool:
        return self.death is not None and self.death == self.birth

    def weight_at(self, eps: float) -> int:
        w = 0
        for e, size in self.weight_steps:
            if e <= eps:
                w = size
        return w


@dataclass(frozen=True)
class Barcode:
    bars: tuple[Bar, ...]

    def display_bars(self) -> list[Bar]:
        """Bars with positive length; zero-length ones stay in .bars."""
        return [b for b in self.bars if not b.is_zero_length]

    def live_bars(self, eps: float) -> list[Bar]:
        return [b for b in self.bars
                if b.birth <= eps and (b.death is None or eps < b.death)]

    def betti_at(self, eps: float) -> dict[int, int]:
        out: dict[int, int] = {}
        for b in self.live_bars(eps):
            out[b.dim] = out.get(b.dim, 0) + 1
        return out


def _h0_bars(data: NormalizedDataset) -> list[Bar]:
    """The H0 bars of the dataset's merge tree, by death (ties in row
    order): each merge kills the younger component's bar and the
    survivor absorbs its weight."""
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
    return sorted((Bar(dim=0, birth=0.0, death=deaths[i],
                       weight_steps=tuple(steps[i])) for i in range(n)),
                  key=lambda b: float("inf") if b.death is None else b.death)


def barcode(data: NormalizedDataset, filt: Filtration) -> Barcode:
    """Bars of every dimension below the filtration's dim_cap.

    H0 is the dataset's merge tree: every row is born at 0, each merge
    kills one bar at half its height, one bar never dies, and each H0
    bar carries its component's weight steps.  For
    1 <= p < dim_cap the columns of the (p+1)-simplices are reduced left
    to right over rows of p-simplices, both indexed within their own
    dimension in filtration order.  A reduced column that becomes a
    pivot gives the bar from the birth of its lowest p-simplex to the
    birth of its own (p+1)-simplex.  The filtration holds every
    simplex up to dim_cap, so it is acyclic in dimensions 1..dim_cap-1
    and every bar there is finite.
    """
    bars = _h0_bars(data)
    n = data.n_points
    for p in range(1, filt.dim_cap):
        rows = np.argsort(filt.births[p], kind="stable")
        row_births = filt.births[p][rows].tolist()
        position = np.argsort(rows)     # lexicographic rank -> row
        columns = np.argsort(filt.births[p + 1], kind="stable")
        verts = simplex_vertices(n, p + 2)
        pivots: dict[int, int] = {}     # low row -> reduced column
        for start in range(0, len(columns), _BLOCK):
            block = columns[start:start + _BLOCK]
            faces = position[facet_ranks(n, verts[block])].tolist()
            for death, face_rows in zip(filt.births[p + 1][block].tolist(),
                                        faces):
                col = 0
                for f in face_rows:
                    col |= 1 << f
                while col:
                    low = col.bit_length() - 1
                    other = pivots.get(low)
                    if other is None:
                        pivots[low] = col
                        bars.append(Bar(dim=p, birth=row_births[low],
                                        death=death))
                        break
                    col ^= other
    # stable, so H0 keeps _h0_bars' order of tied deaths (barcode.json's)
    bars.sort(key=lambda b: (b.dim, b.birth,
                             float("inf") if b.death is None else b.death))
    return Barcode(bars=tuple(bars))


def barcode_json(bars: Barcode, n_points: int) -> dict:
    """The on-disk JSON shape: H0 bars with their weight steps, higher
    dimensions with null."""
    return {"bars": [{"dim": b.dim, "birth": b.birth, "death": b.death,
                      "weight_steps": None if b.weight_steps is None
                      else [list(step) for step in b.weight_steps]}
                     for b in bars.bars],
            "n_points": n_points}
