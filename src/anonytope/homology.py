"""Persistence over GF(2): one barcode whose H0 bars carry their weights.

H0 comes from the dataset's merge tree; each higher dimension from
reducing its coboundary matrix, with the columns that the dimension
below already paired cleared, and with most pairs read off before any
column is built.

``Bar`` is also the categorical side's bar, indexed by path position
instead of eps, so this module loads neither numpy nor ``dataclasses``
until ``barcode`` runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

    from .geometry import NormalizedDataset


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


def _h0_bars(data: NormalizedDataset) -> list[Bar]:
    """The H0 bars of the dataset's merge tree, in row order: each merge
    kills the younger component's bar, and the survivor's bar takes the
    size of the merged component, in one step per eps."""
    tree = data.merge_tree
    n = data.n_points
    steps = [[(0.0, 1)] for _ in range(n)]
    deaths: list[float | None] = [None] * n
    for d, survivor, dying, size in zip(tree.height, tree.survivor.tolist(),
                                        tree.dying.tolist(), tree.size):
        eps = d / 2.0
        deaths[dying] = eps
        own = steps[survivor]
        if own[-1][0] == eps:
            own.pop()
        own.append((eps, size))
    return [Bar(0, 0.0, deaths[i], tuple(steps[i])) for i in range(n)]


def _coboundary_pairs(n: int, p: int, faces: np.ndarray,
                      cofaces: np.ndarray, cleared: np.ndarray
                      ) -> tuple[dict[int, int], np.ndarray]:
    """The persistence pairs of the p-simplices with the (p+1)-simplices,
    given their births by rank, by reducing the coboundary δp.

    Its columns are the p-simplices in reverse filtration order, less
    the cleared ones, which reduce to zero; a column's rows are its
    cofaces, and its pivot is its earliest coface in filtration order.
    Reducing δp pairs the same simplices as reducing ∂(p+1) (de Silva,
    Morozov & Vejdemo-Johansson 2011).  A column whose earliest coface
    is no pivot yet is already reduced, so it is paired at once; only
    when two columns collide are coboundaries built, as sets of coface
    positions.  Returns {coface position: p-simplex rank} and the
    cofaces' ranks in filtration order.
    """
    import numpy as np

    from .complexes import (coface_ranks, facet_ranks, simplex_blocks,
                            simplex_vertices)

    order = np.argsort(cofaces, kind="stable")
    position = np.empty_like(order)     # rank -> filtration position
    position[order] = np.arange(len(order))
    earliest = np.full(len(faces), len(order))
    for start, verts in simplex_blocks(n, p + 2):
        born = position[start:start + len(verts)]
        for facet in facet_ranks(n, verts).T:
            np.minimum.at(earliest, facet, born)
    live = np.ones(len(faces), bool)
    live[cleared] = False
    columns = np.argsort(faces, kind="stable")[::-1]
    columns = columns[live[columns]]

    def coboundary(sigma: int) -> set[int]:
        verts = simplex_vertices(n, p + 1, [sigma])[0]
        return set(position[coface_ranks(n, verts)].tolist())

    # every column has a coface: a p-simplex without one is the whole
    # simplex on n = p + 1 rows, which the dimension below pairs
    owner: dict[int, int] = {}          # pivot -> its column's p-simplex
    built: dict[int, set[int]] = {}     # pivot -> its column, once built
    for sigma, low in zip(columns.tolist(), earliest[columns].tolist()):
        if low not in owner:
            owner[low] = sigma
            continue
        col = coboundary(sigma)
        while col:
            low = min(col)
            other = owner.get(low)
            if other is None:
                owner[low] = sigma
                built[low] = col
                break
            if low not in built:
                built[low] = coboundary(other)
            col ^= built[low]
    return owner, order


def barcode(data: NormalizedDataset, dim_cap: int) -> Barcode:
    """Bars of every dimension below dim_cap, building only the
    simplices of 2..dim_cap+1 rows, and none at dim_cap 1.

    H0 is the dataset's merge tree: every row is born at 0, each merge
    kills one bar at half its height, one bar never dies, and each H0
    bar carries its component's weight steps.  For 1 <= p < dim_cap the
    p-simplices are paired with the (p+1)-simplices by reducing the
    coboundary δp, both ordered within their own dimension by
    np.argsort(births, kind="stable").  Clearing (Chen & Kerber 2011)
    skips the p-simplices already paired in dimension p-1: for edges,
    the merge tree's edges, whose stable order on distances is the
    filtration's on their halves (a nonzero distance is at least the
    square root of the least positive float, so halving it is exact).  A pair is
    a bar only when its births differ, since a zero-length bar above H0
    depends on which complex is reduced, not on the data.  Every simplex
    up to dim_cap is reduced, so the complex is acyclic in dimensions
    1..dim_cap-1 and every bar there is finite.  The simplex budget is
    checked before anything is built.
    """
    import numpy as np

    from .complexes import check_budget, simplex_births
    from .errors import ContractViolation

    if dim_cap < 1:
        raise ContractViolation("dim_cap must be >= 1")
    n = data.n_points
    check_budget(n, dim_cap)
    bars = _h0_bars(data)
    cleared = data.merge_tree.edge
    faces = simplex_births(data, 2) if dim_cap > 1 else None
    for p in range(1, dim_cap):
        cofaces = simplex_births(data, p + 2, faces)
        owner, order = _coboundary_pairs(n, p, faces, cofaces, cleared)
        cleared = order[np.fromiter(owner, np.intp, len(owner))]
        births = faces[np.fromiter(owner.values(), np.intp, len(owner))]
        bars += (Bar(p, birth, death) for birth, death
                 in zip(births.tolist(), cofaces[cleared].tolist())
                 if birth != death)
        faces = cofaces     # the p-simplices are no longer needed
    # stable, so the H0 bars, all born at 0, go by death with ties in
    # row order (barcode.json's order)
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
