import json
import math
import random
from itertools import combinations

import numpy as np
import pytest

from anonytope.complexes import facet_ranks, simplex_vertices
from anonytope.errors import ContractViolation
from anonytope.geometry import min_enclosing_ball
from anonytope.homology import barcode, barcode_json

import oracles
from oracles import (SimplicialComplex, boundary_matrix, critical_values,
                     dataset, filtration_births, filtration_entries,
                     homology_dims_at, reduce_matrix, simplex_meb_exact,
                     sublevel)

EQUILATERAL = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]


def entries_of(points, dim_cap):
    data = dataset(points)
    return filtration_entries(data, filtration_births(data, dim_cap))


def test_boundary_matrix_single_vertex():
    bm = boundary_matrix(entries_of([(0.5, 0.5)], dim_cap=1))
    assert bm.columns == ((),)
    assert bm.dims == (0,)


def test_boundary_matrix_edge():
    bm = boundary_matrix(entries_of([(0, 0), (1, 0)], dim_cap=1))
    assert bm.columns == ((), (), (0, 1))


def test_boundary_matrix_triangle_lists_three_edges():
    bm = boundary_matrix(entries_of(EQUILATERAL, dim_cap=2))
    assert sorted(len(c) for c in bm.columns) == [0, 0, 0, 2, 2, 2, 3]


def test_reduce_isolated_vertices():
    pairs = reduce_matrix(boundary_matrix(entries_of([(0, 0)], dim_cap=1)))
    assert pairs.unpaired == (0,)


def test_reduce_two_points_pairs_younger_vertex_with_edge():
    pairs = reduce_matrix(boundary_matrix(entries_of([(0, 0), (1, 0)],
                                                     dim_cap=1)))
    assert pairs.pairs == ((1, 2),)
    assert pairs.unpaired == (0,)


def test_equilateral_h1_bar():
    data = dataset(EQUILATERAL)
    bars = barcode(data, dim_cap=2)
    h1 = [b for b in bars.bars if b.dim == 1]
    assert len(h1) == 1
    assert h1[0].birth == pytest.approx(0.5)
    assert h1[0].death == pytest.approx(1 / math.sqrt(3), rel=1e-9)


def test_non_acute_triangles_leave_no_h1_bar_to_draw():
    # a triangle that is not acute is born with its longest edge, so the
    # pair of that edge and the triangle has length exactly 0 and is no
    # bar
    rng = random.Random(1729)
    tested = 0
    while tested < 200:
        pts = [(rng.random(), rng.random()) for _ in range(3)]
        c2, b2, a2 = sorted(math.dist(p, q) ** 2
                            for p, q in combinations(pts, 2))
        if b2 + c2 > a2 * (1 - 1e-9):   # acute or nearly right
            continue
        data = dataset(pts)
        bars = barcode(data, dim_cap=2)
        assert all(b.dim == 0 for b in bars.bars)
        tested += 1


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, d, cap, flat", [
    (60, 2, 3, False), (40, 3, 3, True), (22, 3, 4, False)])
def test_points_in_r_d_leave_no_h_d_bar(seed, n, d, cap, flat):
    # by the nerve theorem the union of balls in R^d, or in a plane of
    # it, has no homology in dimension d or above: each simplex of more
    # than d + 1 rows is born with its latest facet, and a slanted plane
    # in R^3 leaves no H2 bar either, though float rows are only nearly
    # on it
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    if flat:
        pts[:, 2] = (pts[:, 0] + 2 * pts[:, 1]) / 3
    bars = barcode(dataset(pts), dim_cap=cap)
    assert [b for b in bars.bars if b.dim >= (2 if flat else d)] == []
    assert any(b.dim == cap - 2 for b in bars.bars)


def test_single_point_infinite_bar():
    data = dataset([(0.1, 0.9)])
    bars = barcode(data, dim_cap=1)
    assert len(bars.bars) == 1
    assert bars.bars[0].death is None and bars.bars[0].dim == 0


def test_cap_one_builds_no_pair_distances():
    # every bar below cap 1 comes from the merge tree's spanning edges
    data = dataset([(0, 0), (0.4, 0.9), (0.9, 0.1)])
    barcode(data, dim_cap=1)
    assert "merge_tree" in vars(data)
    assert "pair_distances" not in vars(data)


def test_exactly_one_infinite_h0_bar(sample_data):
    bars = barcode(sample_data, dim_cap=2)
    infinite = [b for b in bars.bars if b.death is None]
    assert [b.dim for b in infinite] == [0]


class TestBettiAt:
    def test_isolated_vertices(self):
        cx = SimplicialComplex(frozenset({(1,), (2,), (3,)}), dim_cap=2)
        assert homology_dims_at(cx) == [3, 0]

    def test_hollow_triangle(self):
        cx = SimplicialComplex(
            frozenset({(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)}), dim_cap=2)
        assert homology_dims_at(cx) == [1, 1]

    def test_filled_triangle(self):
        cx = SimplicialComplex(
            frozenset({(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)}),
            dim_cap=2)
        assert homology_dims_at(cx) == [1, 0]


def h0_barcode(data):
    """The barcode at cap 1: its H0 bars only."""
    return barcode(data, dim_cap=1)


class TestWeightedBarcode:
    def test_all_singletons_at_zero(self, sample_data):
        wb = h0_barcode(sample_data)
        live = wb.live_bars(0.0)
        assert len(live) == 9
        assert all(b.weight_at(0.0) == 1 for b in live)

    def test_single_bar_at_large_eps(self, sample_data):
        wb = h0_barcode(sample_data)
        live = wb.live_bars(10.0)
        assert len(live) == 1
        assert live[0].weight_at(10.0) == 9

    def test_two_component_regime_weights(self, sample_data):
        # components {1,2,3,7,8,9} and {4,5,6} coexist around eps = 0.3
        wb = h0_barcode(sample_data)
        weights = sorted(b.weight_at(0.3) for b in wb.live_bars(0.3))
        assert weights == [3, 6]

    @staticmethod
    def partitions_at_deaths(data, wb):
        """The merge tree's partition at zero and at every H0 death."""
        tree = data.merge_tree
        for eps in [0.0] + [b.death for b in wb.bars
                            if b.death is not None]:
            yield eps, [rows for rows, _ in tree.classes(tree.cut(eps))]

    def test_weights_conserved_at_every_merge(self, sample_data):
        wb = h0_barcode(sample_data)
        for eps, parts in self.partitions_at_deaths(sample_data, wb):
            total = sum(b.weight_at(eps) for b in wb.live_bars(eps))
            assert total == sample_data.n_points
            assert len(wb.live_bars(eps)) == len(parts)

    def test_snapshot_partitions_cover_rows(self, sample_data):
        wb = h0_barcode(sample_data)
        for _, parts in self.partitions_at_deaths(sample_data, wb):
            rows = sorted(v for p in parts for v in p)
            assert rows == list(sample_data.row_ids)


def test_h0_weights_are_component_sizes_on_ties():
    # on a half-integer grid merges tie and rows repeat, so a bar can
    # absorb several bars at one eps, in one weight step; at zero and at
    # every H0 death the live bars' weights are still the merge tree's
    # component sizes
    rng = random.Random(2718)
    for _ in range(100):
        n, d = rng.randint(2, 12), rng.randint(1, 3)
        data = dataset([[rng.randint(0, 4) / 2 for _ in range(d)]
                        for _ in range(n)])
        bars = h0_barcode(data)
        for b in bars.bars:
            at = [e for e, _ in b.weight_steps]
            assert len(set(at)) == len(at), (data.points.tolist(), b)
        tree = data.merge_tree
        for eps in {0.0} | {b.death for b in bars.bars
                            if b.death is not None}:
            got = sorted(b.weight_at(eps) for b in bars.live_bars(eps))
            want = sorted(len(rows)
                          for rows, _ in tree.classes(tree.cut(eps)))
            assert got == want, (data.points.tolist(), eps)


def test_barcode_betti_matches_rank_nullity():
    # every dimension below the cap, and none at or above it, where
    # simplices have no cofaces to close their bars
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 7)
        pts = [(rng.random(), rng.random()) for _ in range(n)]
        data = dataset(pts)
        for cap in (1, 2, 3):
            bars = barcode(data, cap)
            assert all(b.dim < cap for b in bars.bars)
            entries = filtration_entries(data, filtration_births(data, cap))
            for eps in critical_values(entries):
                betti = oracles.betti_at(bars, eps)
                want = homology_dims_at(sublevel(entries, eps, cap))
                assert [betti.get(d, 0) for d in range(cap)] == want


def test_complete_filtration_keeps_top_dimension_bars():
    # a hollow triangle whose cap is one above its edges is complete, not
    # cut short there, so the reference reduction keeps its loop as a
    # genuine infinite H1 bar
    entries = [(0.0, (1,)), (0.0, (2,)), (0.0, (3,)),
               (0.5, (1, 2)), (0.5, (1, 3)), (0.5, (2, 3))]
    bars = oracles.barcode(reduce_matrix(boundary_matrix(entries)), entries,
                           dim_cap=2)
    assert [b.dim for b in bars.bars if b.death is None] == [0, 1]
    assert homology_dims_at(sublevel(entries, 0.5, dim_cap=2)) == [1, 1]


def test_barcode_equals_global_reduction_oracle():
    # every bar, H0 from the merge tree included, equals the one found by
    # reducing the whole filtration over its global index, less the
    # oracle's zero-length bars above H0; the oracle computes no weight
    # steps.  Half the draws sit on a half-integer grid, for ties and
    # duplicate rows.  Above H0 every p-simplex not paired as a death is
    # paired as a birth, so no bar there is infinite.
    rng = random.Random(17)
    for trial in range(300):
        n, d = rng.randint(1, 10), rng.randint(1, 3)
        if trial % 2:
            pts = [[rng.randint(0, 4) / 2 for _ in range(d)]
                   for _ in range(n)]
        else:
            pts = [[rng.random() for _ in range(d)] for _ in range(n)]
        data = dataset(pts)
        for cap in (1, 2, 3, 4):
            bars = barcode(data, cap)
            entries = filtration_entries(data, filtration_births(data, cap))
            want = oracles.barcode(reduce_matrix(boundary_matrix(entries)),
                                   entries, cap)
            assert [b[:3] for b in bars.bars] == [
                b[:3] for b in want.bars
                if b.dim == 0 or b.death != b.birth], (pts, cap)
            paired = n - 1          # the edge columns pair all but one vertex
            for p in range(1, cap):
                dim_p = [b for b in want.bars if b.dim == p]
                paired = math.comb(n, p + 1) - paired
                assert len(dim_p) == paired, (pts, cap, p)
                assert all(b.death is not None for b in dim_p)


def test_cap3_births_leave_no_ulp_long_bars():
    # at cap 3 no bar above H0 is 1e-12 relative long or less, and the
    # bars over 1e-9 relative are those that the global index reduction
    # finds with each tetrahedron born at its exact rational MEB radius,
    # rounded to a float and clamped to its facets: as many in each
    # dimension, each endpoint within 1e-12 relative.  Born at its
    # min_enclosing_ball radius, only clamped, each tetrahedron leaves
    # bars of float noise
    def above_h0(bars, longer_than):
        return sorted(b[:3] for b in bars.bars if b.dim > 0
                      and b.death - b.birth > longer_than * b.death)

    def reduced(data, births, tetrahedra):
        verts = simplex_vertices(data.n_points, 4)
        clamped = np.maximum(
            [tetrahedra(data.points[v]) for v in verts],
            births[2][facet_ranks(data.n_points, verts)].max(axis=1))
        entries = filtration_entries(data, births + (clamped,))
        return oracles.barcode(reduce_matrix(boundary_matrix(entries)),
                               entries, dim_cap=3)

    noise = 0
    for seed in range(16):
        rng = random.Random(seed)
        n, d = rng.randint(8, 16), seed % 2 + 2
        data = dataset([[rng.random() for _ in range(d)] for _ in range(n)])
        births = filtration_births(data, dim_cap=2)
        exact = reduced(data, births,
                        lambda pts: math.sqrt(simplex_meb_exact(pts)[0]))
        bars = barcode(data, dim_cap=3)
        assert above_h0(bars, 0.0) == above_h0(bars, 1e-12), seed
        got, want = above_h0(bars, 1e-9), above_h0(exact, 1e-9)
        assert [b[0] for b in got] == [b[0] for b in want], seed
        for (_, birth, death), (_, birth_x, death_x) in zip(got, want):
            assert abs(birth - birth_x) <= 1e-12 * birth_x, seed
            assert abs(death - death_x) <= 1e-12 * death_x, seed
        grown = reduced(data, births,
                        lambda pts: min_enclosing_ball(pts).radius)
        noise += len(above_h0(grown, 0.0)) - len(above_h0(grown, 1e-12))
    assert noise > 1000         # the clamp alone left 1,113 such bars


def test_determinism(sample_data):
    one = barcode(sample_data, dim_cap=2)
    two = barcode(sample_data, dim_cap=2)
    a = json.dumps(barcode_json(one, sample_data.n_points))
    b = json.dumps(barcode_json(two, sample_data.n_points))
    assert a == b


def test_barcode_json_schema(sample_data):
    bars = barcode(sample_data, dim_cap=2)
    doc = barcode_json(bars, sample_data.n_points)
    assert doc["n_points"] == 9
    for bar in doc["bars"]:
        assert set(bar) == {"dim", "birth", "death", "weight_steps"}
        assert bar["death"] is None or bar["death"] >= bar["birth"]
        if bar["dim"] != 0:
            assert bar["weight_steps"] is None
    infinite_h0 = [b for b in doc["bars"]
                   if b["dim"] == 0 and b["death"] is None]
    assert len(infinite_h0) == 1
    assert infinite_h0[0]["weight_steps"][-1][1] == 9


def test_missing_face_rejected():
    bad = [(0.0, (1,)), (0.5, (1, 2))]
    with pytest.raises(ContractViolation):
        boundary_matrix(bad)
