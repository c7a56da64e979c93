"""Persistence over GF(2): one barcode whose H0 bars carry their weights.

H0 comes from the dataset's merge tree; higher dimensions from one
boundary matrix per dimension.  Columns are stored as Python ints used
as bit sets, which keeps the left-to-right reduction exact and fast at
the scales this package targets.

``Bar`` is also the categorical side's bar, indexed by path position
instead of eps, so this module loads neither numpy nor ``dataclasses``
until ``barcode`` runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .complexes import Filtration
    from .geometry import NormalizedDataset

# columns whose face rows are made Python lists at once: enough to amortise
# numpy's per-call cost, few enough that no dimension's lists are all held
_BLOCK = 1 << 16


class Bar(NamedTuple):
    dim: int
    birth: float
    death: float | None    # None encodes +infinity
    # H0 only: piecewise-constant component size, value steps[i][1] from
    # steps[i][0] up to the next step (or death), one step per eps;
    # None above H0
    weight_steps: tuple[tuple[float, int], ...] | None = None

    def weight_at(self, eps: float) -> int:
        w = 0
        for e, size in self.weight_steps:
            if e <= eps:
                w = size
        return w


class Barcode(NamedTuple):
    bars: tuple[Bar, ...]

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
    survivor absorbs its weight, in one step per eps."""
    tree = data.merge_tree
    n = data.n_points
    steps = [[(0.0, 1)] for _ in range(n)]
    deaths: list[float | None] = [None] * n
    for d, survivor, dying in zip(tree.height, tree.survivor.tolist(),
                                  tree.dying.tolist()):
        eps = d / 2.0
        deaths[dying] = eps
        own = steps[survivor]
        step = (eps, own[-1][1] + steps[dying][-1][1])
        if own[-1][0] == eps:
            own[-1] = step
        else:
            own.append(step)
    return sorted((Bar(0, 0.0, deaths[i], tuple(steps[i])) for i in range(n)),
                  key=lambda b: float("inf") if b.death is None else b.death)


def barcode(data: NormalizedDataset, filt: Filtration) -> Barcode:
    """Bars of every dimension below the filtration's dim_cap.

    H0 is the dataset's merge tree: every row is born at 0, each merge
    kills one bar at half its height, one bar never dies, and each H0
    bar carries its component's weight steps.  For
    1 <= p < dim_cap the columns of the (p+1)-simplices are reduced left
    to right over rows of p-simplices, both indexed within their own
    dimension in filtration order.  A reduced column that becomes a
    pivot pairs its lowest p-simplex with its own (p+1)-simplex; the
    pair is a bar only when their births differ, since a zero-length
    bar above H0 depends on which complex is reduced, not on the data.
    The filtration holds every simplex up to dim_cap, so it is acyclic
    in dimensions 1..dim_cap-1 and every bar there is finite.
    """
    import numpy as np

    from .complexes import facet_ranks, simplex_vertices

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
                        if death != row_births[low]:
                            bars.append(Bar(p, row_births[low], death))
                        break
                    col ^= other
    # stable, so H0 keeps _h0_bars' order of tied deaths (barcode.json's)
    bars.sort(key=lambda b: (b.dim, b.birth,
                             float("inf") if b.death is None else b.death))
    return Barcode(tuple(bars))


def bar_json(bar: Bar) -> dict:
    """One bar's JSON shape, on both the numeric and categorical side:
    weight steps as [at, size] pairs, null above H0."""
    return {"dim": bar.dim, "birth": bar.birth, "death": bar.death,
            "weight_steps": None if bar.weight_steps is None
            else [list(step) for step in bar.weight_steps]}


def barcode_json(bars: Barcode, n_points: int) -> dict:
    """The on-disk JSON shape of a numeric barcode."""
    return {"bars": [bar_json(b) for b in bars.bars], "n_points": n_points}
