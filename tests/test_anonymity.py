import math
import random
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from anonytope.anonymity import (FAIL_NOT_SIMPLEX, FAIL_TOO_SMALL, Regime,
                                 check_k_anonymity, compute_regimes,
                                 generalize_table, minimal_epsilon)
from anonytope import geometry
from anonytope.errors import ContractViolation, InfeasibleError
from anonytope.geometry import NumericTable, normalize_dataset
from anonytope.homology import barcode

from oracles import (build_anonymity_complex, dataset, dist,
                     homology_dims_at, k_anonymity_bruteforce, meb_bruteforce,
                     regime_contains, regimes_per_interval, seeded_points)

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
# the benchmark's tables
from gen import clustered_table, uniform_table  # noqa: E402

# Values frozen from scripts/sample_oracle.py (exhaustive MEB + BFS):
# under per-column min-max scaling the 9-row sample admits, for k = 2..4,
# exactly one regime starting at the all-points MEB radius sqrt(2)/2.
SAMPLE_SINGLE_REGIME_LO = 0.7071067811865476
MEB_123789 = 0.41699143580105935


class TestCheck:
    def test_identical_points_single_class(self):
        data = dataset([(0.5, 0.5)] * 4)
        v = check_k_anonymity(data, 0.0, 4)
        assert v.achieved and v.classes == ((1, 2, 3, 4),)

    def test_two_far_points_fail(self):
        v = check_k_anonymity(dataset([(0, 0), (1, 0)]), 0.4, 2)
        assert not v.achieved
        assert v.failure_reason.kind == FAIL_TOO_SMALL

    def test_two_points_at_threshold(self):
        v = check_k_anonymity(dataset([(0, 0), (1, 0)]), 0.5, 2)
        assert v.achieved and v.classes == ((1, 2),)

    def test_two_rows_at_half_their_distance(self):
        # closed balls: two rows share a class from half their distance
        # on, though their midpoint's distance to them may round above it
        rng = random.Random(29)
        for _ in range(200):
            d = rng.choice([2, 3, 5])
            pts = [[rng.random() for _ in range(d)] for _ in range(2)]
            half = dataset(pts).pair_distances[0] / 2
            assert check_k_anonymity(dataset(pts), half, 2).achieved
            assert compute_regimes(dataset(pts), 2)[0].eps_lo == half

    def test_sample_component_not_simplex(self, sample_data):
        # at eps = 0.3 the components are {1,2,3,7,8,9} and {4,5,6}, but
        # the six-row component needs radius 0.417 to fit in one ball
        v = check_k_anonymity(sample_data, 0.3, 3)
        assert not v.achieved
        assert v.failure_reason.kind == FAIL_NOT_SIMPLEX
        assert v.failure_reason.component == (1, 2, 3, 7, 8, 9)

    def test_sample_achieved_past_full_merge(self, sample_data):
        v = check_k_anonymity(sample_data, SAMPLE_SINGLE_REGIME_LO, 3)
        assert v.achieved and len(v.classes) == 1

    def test_k_above_row_count(self, sample_data):
        v = check_k_anonymity(sample_data, 1.0, 10)
        assert not v.achieved
        assert v.failure_reason.kind == FAIL_TOO_SMALL
        assert v.failure_reason.component == sample_data.row_ids


class TestRegimes:
    def test_two_points(self):
        regimes = compute_regimes(dataset([(0, 0), (0.8, 0)]), 2)
        assert len(regimes) == 1
        r = regimes[0]
        assert r.eps_lo == pytest.approx(0.4) and r.eps_hi is None
        assert r.classes == ((1, 2),)

    def test_three_clusters_three_regimes(self):
        # three tight pairs on a line with unequal gaps: 2-anonymity
        # holds pairwise, then after each of the two distinct merges
        data = dataset([(0, 0), (0.02, 0), (0.4, 0), (0.42, 0),
                        (1.0, 0), (1.02, 0)])
        regimes = compute_regimes(data, 2)
        assert [r.n_classes for r in regimes] == [3, 2, 1]
        assert regimes[0].classes == ((1, 2), (3, 4), (5, 6))
        assert regimes[1].classes == ((1, 2, 3, 4), (5, 6))

    def test_sample_single_regime(self, sample_data):
        for k in (2, 3, 4):
            regimes = compute_regimes(sample_data, k)
            assert len(regimes) == 1
            assert regimes[0].eps_lo == pytest.approx(
                SAMPLE_SINGLE_REGIME_LO, abs=1e-12)
            assert regimes[0].eps_hi is None
            assert regimes[0].n_classes == 1

    def test_k_above_row_count_empty(self, sample_data):
        assert compute_regimes(sample_data, 10) == []

    def test_class_count_nonincreasing(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 8)
            data = dataset([(rng.random(), rng.random()) for _ in range(n)])
            for k in (1, 2, 3):
                counts = [r.n_classes for r in compute_regimes(data, k)]
                assert counts == sorted(counts, reverse=True)

    def test_regimes_match_pointwise_verdicts(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(2, 7)
            data = dataset([(rng.random(), rng.random()) for _ in range(n)])
            k = rng.randint(1, 3)
            regimes = compute_regimes(data, k)
            for g in range(0, 1100, 7):
                eps = g * 1e-3
                want = check_k_anonymity(data, eps, k).achieved
                got = any(regime_contains(r, eps) for r in regimes)
                assert got == want

    def test_regime_starts_are_exact_thresholds(self):
        # check_k_anonymity holds at every eps_lo; where eps_lo is not a
        # partition change point it is the largest class MEB radius, and
        # one ulp below it the verdict fails.  Odd trials sit on a
        # half-integer grid, so many distances tie.
        rng = random.Random(41)
        below_checked = 0
        for trial in range(40):
            n = rng.randint(2, 8)
            pts = [(rng.randint(0, 3) / 2, rng.randint(0, 3) / 2)
                   if trial % 2 else (rng.random(), rng.random())
                   for _ in range(n)]
            data = dataset(pts)
            changes = {0.0} | {dist(p, q) / 2
                               for p, q in combinations(pts, 2)}
            for k in (1, 2, 3):
                for r in compute_regimes(data, k):
                    at = check_k_anonymity(data, r.eps_lo, k)
                    assert at.achieved and at.classes == r.classes
                    if r.eps_lo in changes:
                        continue
                    meb = max(meb_bruteforce([pts[i - 1] for i in c])
                              for c in r.classes)
                    assert r.eps_lo == pytest.approx(meb, rel=1e-9)
                    below = check_k_anonymity(
                        data, math.nextafter(r.eps_lo, 0), k)
                    assert not below.achieved
                    assert below.failure_reason.kind == FAIL_NOT_SIMPLEX
                    below_checked += 1
        assert below_checked > 20


    def test_regimes_match_per_interval_oracle(self):
        for pts in seeded_points(21, 240):
            data = dataset(pts)
            for k in (1, 2, 3, 5):
                got = compute_regimes(data, k)
                want = regimes_per_interval(dataset(pts), k)
                assert [(r.eps_hi, r.classes) for r in got] == \
                    [(r.eps_hi, r.classes) for r in want], (pts, k)
                for r, w in zip(got, want):
                    assert r.eps_lo == pytest.approx(w.eps_lo, rel=1e-12,
                                                     abs=0)

    def test_fresh_check_agrees_with_regime_starts(self):
        # a point check on a fresh dataset computes only the radii of its
        # own components, and must read the same values as the table
        below_checked = 0
        for pts in seeded_points(22, 120):
            tree = dataset(pts).merge_tree
            changes = {0.0} | {h / 2.0 for h in tree.height}
            for k in (1, 2, 3, 5):
                for r in compute_regimes(dataset(pts), k):
                    at = check_k_anonymity(dataset(pts), r.eps_lo, k)
                    assert at.achieved and at.classes == r.classes
                    if r.eps_lo in changes:
                        continue
                    below = check_k_anonymity(
                        dataset(pts), math.nextafter(r.eps_lo, 0), k)
                    assert below.failure_reason.kind == FAIL_NOT_SIMPLEX
                    below_checked += 1
        assert below_checked > 100

    def test_failing_check_grows_only_its_components_balls(self,
                                                           monkeypatch):
        # a check that fails the ball test grows the balls of the merges
        # inside the components up to the failing one, and no others;
        # growing every merge up to the failing one's last made 257-296
        # calls here where 8-77 are needed
        calls = []
        enclose = geometry._enclose
        monkeypatch.setattr(geometry, "_enclose",
                            lambda *args: calls.append(1) or enclose(*args))
        for i in range(7):
            table = clustered_table(1, i, 300)
            for eps in (0.02, 0.1):
                data = normalize_dataset(NumericTable(table.quasi,
                                                      table.points))
                tree = data.merge_tree
                calls.clear()
                v = check_k_anonymity(data, eps, 1)
                assert v.failure_reason.kind == FAIL_NOT_SIMPLEX
                comps = [rows for rows, _ in tree.classes(tree.cut(eps))]
                reached = comps[:comps.index(v.failure_reason.component) + 1]
                assert len(calls) == sum(len(c) - 1 for c in reached)

    def test_only_radius_readers_compute_radii(self, monkeypatch,
                                               sample_data):
        # barcode reads the merge tree's heights alone, and a check whose
        # partition fails the size test reads no radius
        def refuse(*args):
            raise AssertionError("component MEB computed")

        monkeypatch.setattr(geometry, "_enclose", refuse)
        barcode(sample_data, 2)
        v = check_k_anonymity(sample_data, 0.05, 3)
        assert v.failure_reason.kind == FAIL_TOO_SMALL

    def test_planar_regimes_need_no_lstsq(self, monkeypatch):
        # in 2D no boundary exceeds three points, and those are solved in
        # closed form
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        planar = [p for p in seeded_points(23, 160) if len(p[0]) == 2]
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "lstsq", refuse)
            got = [[compute_regimes(dataset(pts), k) for k in (1, 2, 3, 5)]
                   for pts in planar]
        want = [[regimes_per_interval(dataset(pts), k) for k in (1, 2, 3, 5)]
                for pts in planar]
        assert [[[(r.eps_hi, r.classes) for r in rs] for rs in by_k]
                for by_k in got] == \
            [[[(r.eps_hi, r.classes) for r in rs] for rs in by_k]
             for by_k in want]


class TestMinimalEpsilon:
    def test_two_points_smallest(self):
        data = dataset([(0, 0), (0.8, 0)])
        regime = minimal_epsilon(data, 2)
        assert regime.eps_lo == pytest.approx(0.4)
        assert regime.n_classes == 1

    def test_max_classes_prefers_finer_partition(self):
        data = dataset([(0, 0), (0.02, 0), (0.5, 0), (0.52, 0),
                        (1.0, 0), (1.02, 0)])
        assert minimal_epsilon(data, 2).n_classes == 3

    def test_sample_smallest(self, sample_data):
        assert minimal_epsilon(sample_data, 2).eps_lo == \
            pytest.approx(SAMPLE_SINGLE_REGIME_LO, abs=1e-12)

    def test_infeasible_raises(self, sample_data):
        with pytest.raises(InfeasibleError):
            minimal_epsilon(sample_data, 10)

    def test_earliest_regime_has_most_classes(self):
        # every k <= N has a regime, the last of which is all N rows in
        # one class; the class count falls strictly from one regime to
        # the next, so the earliest regime is both the smallest radius
        # and the finest partition
        for n in range(1, 61):
            dim = n % 4 + 1
            tables = [uniform_table(1, n, n, dim).points]
            # rounded, so rows repeat and merges tie
            tables.append(np.round(tables[0], 1))
            if n > 1 and dim > 1:
                tables.append(clustered_table(1, n, n, dim).points)
            for points in tables:
                self.check_regime_invariants(points)

    @staticmethod
    def check_regime_invariants(points):
        n, dim = points.shape
        data = normalize_dataset(
            NumericTable([f"q{j}" for j in range(dim)], points))
        for k in range(1, n + 1):
            regimes = compute_regimes(data, k)
            assert regimes, (n, dim, k)
            counts = [r.n_classes for r in regimes]
            assert all(a > b for a, b in zip(counts, counts[1:])), \
                (n, dim, k, counts)
            assert (regimes[-1].classes, regimes[-1].eps_hi) == \
                ((tuple(range(1, n + 1)),), None)
            assert minimal_epsilon(data, k) == regimes[0]
        assert compute_regimes(data, n + 1) == []


class TestGeneralize:
    def test_reference_three_class_intervals(self, sample_table):
        # interval construction checked against the known 3-class
        # grouping, independent of whether a sweep selects it
        regime = Regime(eps_lo=0.0, eps_hi=None,
                        classes=((1, 2, 3), (4, 5, 6), (7, 8, 9)))
        gen = generalize_table(sample_table, regime)
        assert gen.rows[0] == ((22.0, 25.0), (47602.0, 47678.0))
        assert gen.rows[3] == ((38.0, 52.0), (47905.0, 47909.0))
        assert gen.rows[6] == ((32.0, 47.0), (47605.0, 47673.0))

    @pytest.mark.parametrize("classes", [
        ((1, 2, 3), (4, 5, 6), (7, 8)),             # row 9 left out
        ((1, 2, 3), (4, 5, 6), (7, 8, 9), (3,)),    # row 3 twice
        ((1, 2, 3), (), (4, 5, 6, 7, 8, 9)),        # an empty class
    ])
    def test_classes_must_partition_the_rows(self, sample_table, classes):
        regime = Regime(eps_lo=0.0, eps_hi=None, classes=classes)
        with pytest.raises(ContractViolation, match="do not partition"):
            generalize_table(sample_table, regime)

    def test_singleton_class_degenerate_interval(self, sample_table):
        regime = Regime(eps_lo=0.0, eps_hi=None,
                        classes=tuple((i,) for i in range(1, 10)))
        gen = generalize_table(sample_table, regime)
        assert gen.rows[0] == ((25.0, 25.0), (47677.0, 47677.0))

    def test_soundness_and_uniform_classes(self, sample_table, sample_data):
        regimes = compute_regimes(sample_data, 3)
        gen = generalize_table(sample_table, regimes[0])
        for row, values in zip(gen.rows, sample_table.rows):
            for (lo, hi), value in zip(row, values):
                assert lo <= value <= hi
        by_class = {}
        for row, cid in zip(gen.rows, gen.class_ids):
            by_class.setdefault(cid, set()).add(row)
        assert all(len(v) == 1 for v in by_class.values())


def test_bruteforce_soundness():
    # the component test is sufficient but not necessary for the
    # existence of an arbitrary >=k block decomposition: a connected
    # group whose enclosing ball exceeds eps may still split into
    # valid blocks, which the component criterion deliberately rejects
    # (its classes are required to be full simplices, so homology
    # counts them; see test_achieved_implies_trivial_homology)
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 7)
        pts = [(rng.random(), rng.random()) for _ in range(n)]
        data = dataset(pts)
        eps = rng.random() * 0.7
        k = rng.randint(1, 4)
        got = check_k_anonymity(data, eps, k).achieved
        want = k_anonymity_bruteforce(pts, eps, k)
        assert not got or want, (pts, eps, k)


def test_achieved_implies_trivial_homology():
    rng = random.Random(31)
    hits = 0
    while hits < 10:
        n = rng.randint(2, 6)
        pts = [(rng.random() * 0.4, rng.random() * 0.4) for _ in range(n)]
        data = dataset(pts)
        eps = rng.random() * 0.5
        v = check_k_anonymity(data, eps, 2)
        if not v.achieved:
            continue
        hits += 1
        cx = build_anonymity_complex(data, eps, dim_cap=n - 1 if n > 1 else 1)
        dims = homology_dims_at(cx)
        assert dims[0] == len(v.classes)
        assert all(d == 0 for d in dims[1:])
