"""Deciding k-anonymity per radius, extracting the full regime spectrum,
and emitting the generalized table.

A dataset is k-anonymous at radius eps exactly when every connected
component of the eps-neighborhood graph has at least k members and its
points fit in a ball of radius eps: such components are full simplices
of the anonymity complex, so the complex decomposes into disjoint
simplices of size >= k and all higher homology vanishes.  Verdicts,
regimes and generalized tables are plain records; ``cli`` writes them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, InfeasibleError
from .geometry import NormalizedDataset, NumericTable

FAIL_TOO_SMALL = "component_too_small"
FAIL_NOT_SIMPLEX = "component_not_simplex"


class FailureReason(NamedTuple):
    kind: str                      # FAIL_TOO_SMALL or FAIL_NOT_SIMPLEX
    component: tuple[int, ...]


class AnonymityVerdict(NamedTuple):
    achieved: bool
    classes: tuple[tuple[int, ...], ...] | None
    failure_reason: FailureReason | None


class Regime(NamedTuple):
    """A maximal eps interval [eps_lo, eps_hi) with a constant
    k-anonymous partition; eps_hi None means unbounded."""

    eps_lo: float
    eps_hi: float | None
    classes: tuple[tuple[int, ...], ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)


class GeneralizedTable(NamedTuple):
    """Per row, each quasi-identifier replaced by a closed interval in
    original units; rows in the same class share identical tuples."""

    qi_names: tuple[str, ...]
    rows: tuple[tuple[tuple[float, float], ...], ...]
    class_ids: tuple[int, ...]


def _failed(kind: str, component: tuple[int, ...]) -> AnonymityVerdict:
    return AnonymityVerdict(achieved=False, classes=None,
                            failure_reason=FailureReason(kind, component))


def check_k_anonymity(data: NormalizedDataset, eps: float,
                      k: int) -> AnonymityVerdict:
    """Whether the table is k-anonymous at radius eps, and if not, why.

    Balls are closed: a component passes the ball test when its MEB
    radius is <= eps.  Sizes are checked before radii, so a partition
    with a component of fewer than k rows fails as too small even when
    some other component's ball is too wide; the component reported is
    the first failing one, by its first row.  k > N reports every row as
    one component too small.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    if not eps >= 0:                # NaN too
        raise ContractViolation(f"eps must be nonnegative, got {eps}")
    if k > data.n_points:
        return _failed(FAIL_TOO_SMALL, data.row_ids)
    tree = data.merge_tree
    classes = tree.classes(tree.cut(eps))
    for rows, _ in classes:
        if len(rows) < k:
            return _failed(FAIL_TOO_SMALL, rows)
    # radii are computed only now, for a partition whose sizes pass
    for rows, j in classes:
        if tree.radius(j) > eps:
            return _failed(FAIL_NOT_SIMPLEX, rows)
    return AnonymityVerdict(achieved=True,
                            classes=tuple(rows for rows, _ in classes),
                            failure_reason=None)


def compute_regimes(data: NormalizedDataset, k: int) -> list[Regime]:
    """Every maximal interval on which k-anonymity holds.

    Within an interval of constant partition, the verdict flips at most
    once, at the largest component MEB radius, and the partition holds
    for k while its smallest component has k rows; so every k is a
    filter of the merge tree's one regime table, and the classes are
    read off the tree only for the intervals kept.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    if k > data.n_points:
        return []
    tree = data.merge_tree
    return [Regime(eps_lo=start, eps_hi=None if math.isinf(hi) else hi,
                   classes=tuple(rows for rows, _ in tree.classes(merges)))
            for lo, hi, merges, smallest, radius in tree.regime_table
            if smallest >= k and (start := max(lo, radius)) < hi]


def minimal_epsilon(data: NormalizedDataset, k: int) -> Regime:
    """The earliest k-anonymous regime; its eps_lo is the smallest
    generalization radius.

    A later regime has had at least one more merge, so the earliest
    regime also has the most classes.  Every k <= N has a regime: the
    last interval is one class of all N rows.
    """
    regimes = compute_regimes(data, k)
    if not regimes:
        raise InfeasibleError(f"no generalization radius achieves "
                              f"{k}-anonymity (k exceeds row count)")
    return regimes[0]


def generalize_table(table: NumericTable, regime: Regime) -> GeneralizedTable:
    """Replace each quasi-identifier by its class-wide [min, max] range
    in original units."""
    order = [rid - 1 for cls in regime.classes for rid in cls]
    if sorted(order) != list(range(table.n_rows)) \
            or not all(regime.classes):
        raise ContractViolation("regime classes do not partition the rows")
    class_ids = [0] * table.n_rows
    for cid, cls in enumerate(regime.classes):
        for rid in cls:
            class_ids[rid - 1] = cid
    # the rows class by class, so one reduceat gives every class's range
    block = table.rows[order]
    starts = np.cumsum([0] + [len(cls) for cls in regime.classes[:-1]])
    intervals = [tuple(zip(lo, hi)) for lo, hi in zip(
        np.minimum.reduceat(block, starts).tolist(),
        np.maximum.reduceat(block, starts).tolist())]
    return GeneralizedTable(qi_names=tuple(table.quasi_names),
                            rows=tuple(intervals[c] for c in class_ids),
                            class_ids=tuple(class_ids))
