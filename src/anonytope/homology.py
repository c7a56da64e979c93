"""Persistence over GF(2): one barcode whose H0 bars carry their weights.

H0 comes from ``elder_bars``, which the numeric side feeds the merge
tree's merges over eps and the categorical side the merges between a
lattice path's partitions over path position; each higher dimension
from reducing its coboundary matrix, with the columns that the
dimension below already paired cleared, and with most pairs read off
before any column is built.  ``barcode`` returns a plain tuple of
``Bar``; ``cli`` alone lays bars out as JSON.  ``Bar`` and
``elder_bars`` need neither numpy nor ``dataclasses``, and this module
loads neither until ``barcode`` runs.
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


def elder_bars(first: dict, merges) -> list[Bar]:
    """The H0 bars of a sequence of merges, by the elder rule.

    ``first`` maps each bar's row to its birth step ``(at, size)``; its
    key order is the order of the bars returned.  ``merges`` yields
    ``(at, survivor, dying, size)`` in order of ``at``: the dying row's
    bar ends at ``at``, and from ``at`` on the survivor's bar weighs
    ``size``, in one step per ``at`` however many bars it absorbs there.
    """
    # per bar: its death, None while it lives, then its weight steps
    steps = {row: [None, step] for row, step in first.items()}
    for at, survivor, dying, size in merges:
        steps[dying][0] = at
        own = steps[survivor]
        if own[-1][0] == at:
            own.pop()
        own.append((at, size))
    # a step gives way only to one at the same at, so own[1] keeps the
    # birth
    return [Bar(0, own[1][0], own[0], tuple(own[1:]))
            for own in steps.values()]


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


def barcode(data: NormalizedDataset, dim_cap: int) -> tuple[Bar, ...]:
    """Bars of every dimension below dim_cap, building only the
    simplices of 2..min(dim_cap+1, N) rows, and none at dim_cap 1.

    H0 is the dataset's merge tree: every row is born at 0, each merge
    kills one bar at half its height, one bar never dies, and each H0
    bar carries its component's weight steps.  For 1 <= p < dim_cap and
    p <= N-2 (a larger p has no (p+1)-simplex, so no bar), the
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
    tree = data.merge_tree
    bars = elder_bars(dict.fromkeys(range(n), (0.0, 1)),
                      zip((d / 2.0 for d in tree.height),
                          tree.survivor.tolist(), tree.dying.tolist(),
                          tree.size))
    cleared = tree.edge
    faces = simplex_births(data, 2) if dim_cap > 1 else None
    for p in range(1, min(dim_cap, n - 1)):
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
    return tuple(bars)
