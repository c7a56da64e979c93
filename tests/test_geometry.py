import itertools
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonytope.errors import ContractViolation, IngestionError
from anonytope.geometry import (MEB_REL_TOL, NumericTable,
                                min_enclosing_ball, normalize_dataset)

from oracles import (balls_intersect, boundary_matrix, dataset, dist,
                     filtration_births, filtration_entries, kruskal_scan,
                     kruskal_tree, meb_bruteforce, reduce_matrix,
                     seeded_points, triangle_meb_exact, union_find_partition)

points_2d = st.lists(
    st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
    min_size=1, max_size=10)


def make_table(values):
    names = [f"c{i}" for i in range(len(values[0]) if values else 1)]
    return NumericTable(names, values)


class TestNormalize:
    def test_single_row_maps_to_origin(self):
        data = normalize_dataset(make_table([(25, 47677)]))
        assert np.allclose(data.points, [[0.0, 0.0]])

    def test_extreme_rows_hit_corners(self, sample_data):
        assert np.allclose(sample_data.points[2 - 1], [0.0, 0.0])
        assert np.allclose(sample_data.points[5 - 1], [1.0, 1.0])

    def test_interior_row_minmax(self, sample_data):
        assert np.allclose(sample_data.points[1 - 1],
                           [(25 - 22) / 30, (47677 - 47602) / 307])

    def test_non_quasi_columns_excluded(self, sample_table, sample_data):
        assert sample_data.dim == 2
        assert sample_table.quasi_names == ["Age", "ZIP"]

    def test_non_numeric_cell_names_row_and_column(self):
        # the first non-finite cell in row-major order is named
        with pytest.raises(IngestionError, match=r"^row 2, column 'c1': "
                           r"value inf is not a finite number$"):
            make_table([(1, 2), (3, math.inf), (math.nan, 4)])

    def test_empty_table_rejected(self):
        with pytest.raises(IngestionError):
            make_table([])

    @pytest.mark.parametrize("names, rows", [
        (["a", "b"], [[1.0], [2.0], [5.0]]),        # one column, two names
        (["a"], [1.0, 2.0, 4.0]),                    # one value per row
        (["a", "b"], [[1.0, 2.0], [3.0]]),           # ragged
    ])
    def test_rows_must_match_the_names(self, names, rows):
        with pytest.raises(IngestionError, match="do not form an"):
            NumericTable(names, rows)


class TestMinEnclosingBall:
    def test_single_point(self):
        ball = min_enclosing_ball([(3.0, 4.0)])
        assert ball.radius == 0.0
        assert np.allclose(ball.center, [3, 4])

    def test_two_points_diametral(self):
        ball = min_enclosing_ball([(0, 0), (1, 0)])
        assert ball.radius == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(ball.center, [0.5, 0])

    def test_equilateral_circumradius(self):
        ball = min_enclosing_ball([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        assert ball.radius == pytest.approx(1 / math.sqrt(3), rel=1e-9)

    def test_obtuse_triangle_uses_diametral_pair(self):
        ball = min_enclosing_ball([(0, 0), (2, 0), (1, 0.1)])
        assert ball.radius == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(ball.center, [1, 0], atol=1e-9)

    def test_empty_input_rejected(self):
        with pytest.raises(ContractViolation):
            min_enclosing_ball(np.empty((0, 2)))

    def test_duplicate_points(self):
        ball = min_enclosing_ball([(1, 1)] * 4)
        assert ball.radius == 0.0

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_collinear_and_repeated_triples(self, d):
        # a triple with no circumcircle is held by its farthest pair's
        # diametral ball, in every order, to 1e-12 of exact arithmetic
        rng = random.Random(3 * d)
        for trial in range(40):
            p, v = ([rng.random() for _ in range(d)] for _ in range(2))
            ts = [0.0, rng.random(), rng.random()] if trial % 2 else \
                [0.0, 0.0, rng.choice([0.0, rng.random()])]
            triple = [[x + t * y for x, y in zip(p, v)] for t in ts]
            want = math.sqrt(triangle_meb_exact(*triple)[0])
            for order in itertools.permutations(triple):
                assert min_enclosing_ball(order).radius == \
                    pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_bruteforce_oracle(self, d):
        rng = random.Random(17 * d)
        for _ in range(60):
            n = rng.randint(1, 10)
            pts = [[rng.random() for _ in range(d)] for _ in range(n)]
            got = min_enclosing_ball(pts).radius
            want = meb_bruteforce(pts)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @given(points_2d)
    @settings(max_examples=150, deadline=None)
    def test_containment_invariant(self, pts):
        ball = min_enclosing_ball(pts)
        for p in pts:
            assert np.linalg.norm(ball.center - np.array(p)) \
                <= ball.radius + 1e-9

    @given(points_2d, st.tuples(st.floats(0, 1), st.floats(0, 1)))
    @settings(max_examples=100, deadline=None)
    def test_adding_point_never_shrinks(self, pts, extra):
        before = min_enclosing_ball(pts).radius
        after = min_enclosing_ball(pts + [extra]).radius
        assert after >= before - 1e-9


class TestBallsIntersect:
    def test_single_point_at_zero(self):
        assert balls_intersect([(0.3, 0.7)], 0.0)

    def test_below_threshold(self):
        assert not balls_intersect([(0, 0), (1, 0)], 0.4)

    def test_closed_ball_boundary_counts(self):
        assert balls_intersect([(0, 0), (1, 0)], 0.5)

    def test_negative_eps_rejected(self):
        with pytest.raises(ContractViolation):
            balls_intersect([(0, 0)], -0.1)

    @given(points_2d, st.floats(0, 2), st.floats(0, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_eps(self, pts, eps, bump):
        if balls_intersect(pts, eps):
            assert balls_intersect(pts, eps + bump)


def grid_datasets(seed, count):
    """Rows on a half-integer grid in d = 1, 2 and 3 in turn: merges tie
    and rows repeat."""
    rng = random.Random(seed)
    for trial in range(count):
        n, d = rng.randint(2, 12), trial % 3 + 1
        yield dataset([[rng.randint(0, 4) / 2 for _ in range(d)]
                       for _ in range(n)])


class TestMergeTreeEdges:
    def test_edge_distance_is_height(self):
        for data in grid_datasets(5, 60):
            tree = data.merge_tree
            assert data.pair_distances[tree.edge].tolist() == tree.height

    def test_edge_joins_survivor_and_dying(self):
        for data in grid_datasets(6, 60):
            tree = data.merge_tree
            pairs = list(combinations(range(data.n_points), 2))
            for j, rank in enumerate(tree.edge.tolist()):
                part = {v - 1: c for c, (rows, _)
                        in enumerate(tree.classes(j)) for v in rows}
                ends = {part[v] for v in pairs[rank]}
                assert ends == {part[int(tree.survivor[j])],
                                part[int(tree.dying[j])]}

    def test_edges_are_the_oracle_vertex_pairs(self):
        # the edges that reducing the whole filtration over its global
        # index pairs with vertices, in filtration order
        for data in grid_datasets(7, 90):
            entries = filtration_entries(data,
                                         filtration_births(data, dim_cap=1))
            rank = {e: r for r, e in
                    enumerate(combinations(data.row_ids, 2))}
            killed = sorted(j for i, j in reduce_matrix(
                boundary_matrix(entries)).pairs if len(entries[i][1]) == 1)
            assert data.merge_tree.edge.tolist() == \
                [rank[entries[j][1]] for j in killed], data.points.tolist()


def tie_heavy_points(seed, count):
    """Rows on a half-integer or a 1/5 grid in d = 1, 2 and 3 in turn,
    a quarter of them repeated: distances tie and rows repeat."""
    rng = random.Random(seed)
    for trial in range(count):
        n, d, step = rng.randint(1, 80), trial % 3 + 1, (2, 5)[trial // 3 % 2]
        pts = [[rng.randint(0, 2 * step) / step for _ in range(d)]
               for _ in range(n)]
        pts += [rng.choice(pts) for _ in range(n // 4)]
        rng.shuffle(pts)
        yield pts


class TestSpanningTree:
    # Prim's N-1 edges under (distance, pair rank) replayed give the
    # tree that a stable sort of all pairs and a Kruskal scan give
    @staticmethod
    def assert_kruskal_tree(pts):
        tree, want = dataset(pts).merge_tree, kruskal_tree(pts)
        assert tree.height == want.height, pts
        for name in ("edge", "survivor", "dying"):
            assert getattr(tree, name).tolist() == \
                getattr(want, name).tolist(), (name, pts)
        assert tree.regime_table == want.regime_table, pts

    def test_tie_heavy_grids(self):
        for pts in tie_heavy_points(13, 120):
            self.assert_kruskal_tree(pts)

    def test_uniform_rows(self):
        rng = random.Random(1500)
        self.assert_kruskal_tree([[rng.random(), rng.random()]
                                  for _ in range(1500)])


class TestClasses:
    # every partition the tree passes through, read from its leaf order,
    # against union-find over the pairs the Kruskal scan keeps
    @staticmethod
    def assert_union_find_classes(pts):
        data = dataset(pts)
        tree, kept = data.merge_tree, kruskal_scan(data)[0]
        for m in range(data.n_points):
            classes = tree.classes(m)
            assert [rows for rows, _ in classes] == [
                tuple(v + 1 for v in c)
                for c in union_find_partition(data.n_points, kept[:m])
            ], (m, pts)
            for rows, j in classes:
                if len(rows) == 1:
                    assert j == ~(rows[0] - 1), (m, pts)
                else:
                    assert 0 <= j < m and tree.size[j] == len(rows), (m, pts)

    def test_tie_heavy_grids(self):
        for pts in tie_heavy_points(14, 90):
            self.assert_union_find_classes(pts)

    def test_seeded_points(self):
        for pts in seeded_points(15, 120):
            self.assert_union_find_classes(pts)


class TestMergeRadii:
    def test_component_radii_match_min_enclosing_ball(self):
        # path independence: every merge's radius, grown from its
        # children's balls, against the ball grown from the component's
        # first row
        for pts in seeded_points(11, 120):
            data = dataset(pts)
            tree = data.merge_tree
            for merges in range(data.n_points):
                for rows, j in tree.classes(merges):
                    radius = tree.radius(j)
                    comp = [v - 1 for v in rows]
                    want = min_enclosing_ball(data.points[comp]).radius
                    assert radius == pytest.approx(want, rel=MEB_REL_TOL,
                                                   abs=0), pts

    def test_component_radii_match_bruteforce(self):
        # every component's radius against the best of its support
        # subsets, on 2-10 rows in d = 1-4: uniform, on a 1/4 grid
        # (distances tie, rows repeat) and in two tight clusters
        rng = random.Random(25)
        checked = 0
        for trial in range(72):
            n, d, kind = rng.randint(2, 10), trial % 4 + 1, trial // 4 % 3
            centres = [[rng.random() for _ in range(d)] for _ in range(2)]
            pts = [[rng.random() for _ in range(d)] if kind == 0 else
                   [rng.randint(0, 4) / 4 for _ in range(d)] if kind == 1
                   else [x + rng.gauss(0, 0.02) for x in rng.choice(centres)]
                   for _ in range(n)]
            data = dataset(pts)
            tree, want = data.merge_tree, {}
            for merges in range(n):
                for key, j in tree.classes(merges):
                    radius = tree.radius(j)
                    if key not in want:
                        want[key] = meb_bruteforce(
                            data.points[[v - 1 for v in key]])
                    assert radius == pytest.approx(want[key], rel=1e-9,
                                                   abs=1e-12), (pts, key)
                    checked += 1
        assert checked > 1000

    def test_radii_do_not_depend_on_call_order(self):
        rng = random.Random(12)
        for pts in seeded_points(12, 60):
            table = dataset(pts).merge_tree.regime_table
            tree = dataset(pts).merge_tree
            cuts = list(range(len(pts)))
            rng.shuffle(cuts)
            shuffled = {m: [tree.radius(j) for _, j in tree.classes(m)]
                        for m in cuts}
            first = dataset(pts).merge_tree
            assert shuffled == {m: [first.radius(j)
                                    for _, j in first.classes(m)]
                                for m in sorted(cuts)}
            assert tree.regime_table == table


@pytest.mark.parametrize("plain", [False, True], ids=["numpy", "floats"])
def test_distances_follow_the_distance_rule(plain):
    # every pair distance and merge height is a plain-Python sequential
    # multiply-add, bit for bit, in either form: np.vecdot fused the
    # multiply and the add on some CPUs and differed from it on 8-16% of
    # pairs, so the output bits depended on the CPU
    rng = random.Random(35)
    for d in range(1, 13):
        for n in (2, 9, 40):
            rows = [[rng.random() for _ in range(d)] for _ in range(n)]
            data = normalize_dataset(NumericTable(
                [f"c{j}" for j in range(d)], rows, plain=plain))
            pts = [[float(x) for x in p] for p in data.points]
            want = [dist(p, q) for p, q in combinations(pts, 2)]
            assert list(data.pair_distances) == want, (d, n)
            tree = data.merge_tree
            assert tree.height == [want[rank] for rank in tree.edge], (d, n)
