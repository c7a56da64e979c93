"""Deciding k-anonymity per radius, extracting the full regime spectrum,
and emitting the generalized table.

A dataset is k-anonymous at radius eps exactly when every connected
component of the eps-neighborhood graph has at least k members and its
points fit in a ball of radius eps: such components are full simplices
of the anonymity complex, so the complex decomposes into disjoint
simplices of size >= k and all higher homology vanishes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (OBJECTIVE_MAX_CLASSES, OBJECTIVE_SMALLEST_EPS,
                     ContractViolation, InfeasibleError)
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
    if k < 1:
        raise ContractViolation("k must be >= 1")
    if not eps >= 0:                # NaN too
        raise ContractViolation(f"eps must be nonnegative, got {eps}")
    if k > data.n_points:
        return _failed(FAIL_TOO_SMALL, data.row_ids)
    tree = data.merge_tree
    merges = tree.cut(eps)
    comps = tree.components(merges)
    for comp in comps:
        if len(comp) < k:
            return _failed(FAIL_TOO_SMALL, tree.row_ids(comp))
    # radii are computed only now, for a partition whose sizes pass
    for comp, radius in zip(comps, tree.radii(merges)):
        if radius > eps:
            return _failed(FAIL_NOT_SIMPLEX, tree.row_ids(comp))
    return AnonymityVerdict(achieved=True,
                            classes=tuple(map(tree.row_ids, comps)),
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
                   classes=tuple(map(tree.row_ids, tree.components(merges))))
            for lo, hi, merges, smallest, radius in tree.regime_table
            if smallest >= k and (start := max(lo, radius)) < hi]


def minimal_epsilon(data: NormalizedDataset, k: int,
                    objective: str = OBJECTIVE_MAX_CLASSES):
    """The preferred generalization radius and its regime.

    smallest_eps: the infimum of the earliest regime.  max_classes: the
    earliest regime with the largest class count, which preserves the
    most data structure.
    """
    regimes = compute_regimes(data, k)
    if not regimes:
        raise InfeasibleError(
            f"no generalization radius achieves {k}-anonymity "
            f"(k exceeds row count)" if k > data.n_points else
            f"no generalization radius achieves {k}-anonymity")
    if objective == OBJECTIVE_SMALLEST_EPS:
        best = regimes[0]
    elif objective == OBJECTIVE_MAX_CLASSES:
        top = max(r.n_classes for r in regimes)
        best = next(r for r in regimes if r.n_classes == top)
    else:
        raise ContractViolation(f"unknown objective {objective!r}")
    return best.eps_lo, best


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


def regime_report(k: int, regimes: list[Regime]) -> dict:
    return {
        "k": k,
        "regimes": [
            {
                "eps_lo": r.eps_lo,
                "eps_hi": r.eps_hi,
                "n_classes": r.n_classes,
                "classes": [list(c) for c in r.classes],
            }
            for r in regimes
        ],
    }
