import math
import random
import warnings
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from anonytope import complexes
from anonytope.complexes import (facet_ranks, simplex_births,
                                 simplex_rank, simplex_vertices)
from anonytope.errors import ContractViolation, FiltrationSizeError
from anonytope.homology import barcode

from oracles import (build_anonymity_complex, dataset, filtration_births,
                     filtration_entries, is_anonymity_simplex, subset,
                     simplex_meb_exact, sublevel, triangle_meb_exact)

EQUILATERAL = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]


def test_eps_zero_gives_isolated_vertices():
    data = dataset([(0, 0), (0.5, 0.5), (1, 1)])
    cx = build_anonymity_complex(data, 0.0, dim_cap=2)
    assert cx.simplices == frozenset({(1,), (2,), (3,)})


def test_two_points_edge_at_half_distance():
    data = dataset([(0, 0), (1, 0)])
    cx = build_anonymity_complex(data, 0.5, dim_cap=2)
    assert (1, 2) in cx
    assert cx.counts()[:2] == [2, 1]


def test_equilateral_edges_without_fill():
    data = dataset(EQUILATERAL)
    cx = build_anonymity_complex(data, 0.55, dim_cap=2)
    assert cx.counts() == [3, 3, 0]     # 0.5 <= 0.55 < 1/sqrt(3)


def test_filtration_single_point():
    births = filtration_births(dataset([(0.2, 0.4)]), dim_cap=1)
    assert [b.tolist() for b in births] == [[0.0], []]


def test_filtration_two_points():
    births = filtration_births(dataset([(0, 0), (1, 0)]), dim_cap=1)
    assert [b.tolist() for b in births] == [[0.0, 0.0], [0.5]]


def test_filtration_equilateral_births():
    data = dataset(EQUILATERAL)
    edges = simplex_births(data, 2)
    assert edges[0] == pytest.approx(0.5)  # edge (1, 2)
    assert simplex_births(data, 3, edges)[0] == \
        pytest.approx(1 / math.sqrt(3), rel=1e-9)


def births_by_simplex(data, dim_cap):
    return {s: b for b, s in
            filtration_entries(data, filtration_births(data, dim_cap))}


def test_simplex_indexing_is_lexicographic_rank():
    for n in range(13):
        for size in range(1, 6):
            verts = simplex_vertices(n, size)
            assert verts.shape == (math.comb(n, size), size)
            assert verts.tolist() == \
                [list(c) for c in combinations(range(n), size)]
            assert simplex_rank(n, verts).tolist() == \
                list(range(math.comb(n, size)))
            index = {f: i for i, f in
                     enumerate(combinations(range(n), size - 1))}
            assert facet_ranks(n, verts).tolist() == \
                [[index[s[:j] + s[j + 1:]] for j in range(size)]
                 for s in combinations(range(n), size)]


def test_filtration_budget_guard():
    data = dataset([(i / 40, 0.0) for i in range(30)])
    with pytest.raises(FiltrationSizeError, match="dim_cap"):
        barcode(data, dim_cap=10)


def test_anonymity_simplex_counts_points_not_dimension():
    data = dataset([(0.5, 0.5)] * 4)
    assert is_anonymity_simplex(data, [1, 2, 3, 4], eps=0.0, k=4)
    assert not is_anonymity_simplex(data, [1, 2, 3], eps=0.0, k=4)


def test_two_far_clusters_cannot_join():
    # two tight clusters; eps covers each cluster but not their union
    data = dataset([(0, 0), (0.1, 0), (0, 0.1),
                    (2, 2), (2.1, 2), (2, 2.1)])
    eps = 0.2
    assert is_anonymity_simplex(data, [1, 2, 3], eps, k=3)
    assert is_anonymity_simplex(data, [4, 5, 6], eps, k=3)
    assert not is_anonymity_simplex(data, [1, 2, 3, 4], eps, k=4)


def test_unknown_row_id_rejected():
    data = dataset([(0, 0)])
    with pytest.raises(ContractViolation):
        is_anonymity_simplex(data, [7], eps=0.1, k=1)


def test_sublevel_matches_direct_construction():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(1, 8)
        pts = [(rng.random(), rng.random()) for _ in range(n)]
        data = dataset(pts)
        entries = filtration_entries(data, filtration_births(data, 2))
        for _ in range(10):
            eps = rng.random() * 0.8
            assert sublevel(entries, eps, dim_cap=2).simplices == \
                build_anonymity_complex(data, eps, dim_cap=2).simplices


def test_downward_closure_at_every_birth():
    rng = random.Random(7)
    pts = [(rng.random(), rng.random()) for _ in range(7)]
    data = dataset(pts)
    births = births_by_simplex(data, dim_cap=3)
    for s, b in births.items():
        for f in combinations(s, len(s) - 1):
            if f:
                assert births[f] <= b


def test_nesting_in_eps():
    rng = random.Random(11)
    pts = [(rng.random(), rng.random()) for _ in range(6)]
    data = dataset(pts)
    lo = build_anonymity_complex(data, 0.2, dim_cap=2)
    hi = build_anonymity_complex(data, 0.35, dim_cap=2)
    assert lo.simplices <= hi.simplices


def special_triangles(rng, d):
    """One seeded triangle of each kind the closed-form births must get
    right, as (kind, 3 x d points)."""
    p, q, g = rng.random(d), rng.random(d), rng.integers(-8, 9, d) / 8
    yield "uniform", np.array([p, q, rng.random(d)])
    yield "duplicate", np.array([p, q, p])
    yield "all equal", np.array([p, p, p])
    yield "collinear", np.array([p, q, p + rng.uniform(-1, 2) * (q - p)])
    v, (s, t) = rng.integers(-4, 5, d), rng.integers(-3, 4, 2)
    yield "grid collinear", np.array([g + s * v / 8, g, g + t * v / 8])
    if d < 2:
        return
    u, w = rng.integers(-4, 5, d), rng.integers(-4, 5, d)
    w = (u @ u) * w - (u @ w) * u       # integer, orthogonal to u
    yield "grid right", np.array([g + u / 8, g + w / 8, g])
    e, f = rng.normal(size=d), rng.normal(size=d)
    e /= np.linalg.norm(e)
    f -= (f @ e) * e
    f /= np.linalg.norm(f)
    width = 10.0 ** -rng.integers(3, 10)
    yield "needle", np.array([p, p + width * e,
                              p + width / 2 * e + rng.uniform(0.1, 1) * f])


def check_triangle_birth(births, tri, pts):
    """The birth is within 1e-12 relative of the exact MEB radius, and a
    triangle that is not acute is born exactly with its longest edge."""
    r2, acute = triangle_meb_exact(*pts)
    birth, exact = births[tri], math.sqrt(r2)
    assert abs(birth - exact) <= 1e-12 * exact, (tri, pts)
    if not acute:
        assert birth == max(births[e] for e in combinations(tri, 2)), \
            (tri, pts)
    return acute


def test_triangle_births_match_exact_oracle():
    rng = np.random.default_rng(2718)
    kinds = Counter()
    for _ in range(96):
        for d in (1, 2, 3, 5):
            for kind, pts in special_triangles(rng, d):
                data = dataset(pts)
                births = births_by_simplex(data, dim_cap=2)
                assert [births[e] for e in combinations((1, 2, 3), 2)] == \
                    (data.pair_distances / 2).tolist()
                kinds[kind, check_triangle_birth(births, (1, 2, 3), pts)] += 1
    assert sum(kinds.values()) >= 2000
    assert kinds["grid right", False] == 3 * 96
    for kind in ("uniform", "needle"):
        assert min(kinds[kind, False], kinds[kind, True]) >= 20


def test_births_read_distance_array_in_row_order():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n, d = int(rng.integers(4, 11)), (1, 2, 3, 5)[trial % 4]
        pts = rng.integers(0, 5, (n, d)) / 8 if trial % 2 else \
            rng.random((n, d))              # half on a grid, for ties
        data = dataset(pts)
        births = births_by_simplex(data, dim_cap=3)
        ids = data.row_ids
        assert [births[e] for e in combinations(ids, 2)] == \
            (data.pair_distances / 2).tolist()
        for tri in combinations(ids, 3):
            check_triangle_birth(births, tri, subset(data, tri))


def special_simplices(rng, size, d):
    """One seeded simplex of size points in R^d of each kind the births
    must get right, as (kind, size x d points)."""
    p = rng.random((size, d))
    yield "uniform", p
    yield "duplicate", np.vstack([p[:-1], p[:1]])
    yield "grid", rng.integers(-8, 9, (size, d)) / 8
    u, w = rng.integers(-4, 5, (2, d))
    s, t = rng.integers(-4, 5, (2, size, 1))
    yield "coplanar", (rng.integers(-8, 9, d) + s * u + t * w) / 8
    e = rng.normal(size=d)
    e /= np.linalg.norm(e)
    width = 10.0 ** -rng.integers(3, 10)
    yield "needle", p[:1] + rng.random((size, 1)) * e + \
        width * rng.normal(size=(size, d))
    if size > d + 1:
        return
    # a sliver: points nearly on a sphere in a flat of dimension size - 2,
    # lifted off it by small heights of alternating sign, so that their
    # circumcentre is the sphere's centre, often inside them
    basis = np.linalg.qr(rng.normal(size=(d, size - 1)))[0].T
    on_sphere = rng.normal(size=(size, size - 2))
    on_sphere /= np.linalg.norm(on_sphere, axis=1, keepdims=True)
    height = 10.0 ** -rng.integers(3, 8) * (-1) ** np.arange(size)[:, None]
    yield "sliver", p[0] + np.hstack([on_sphere, height]) @ basis


def test_simplex_births_match_exact_oracle():
    rng = np.random.default_rng(1729)
    kinds = Counter()
    for _ in range(12):
        for d in (2, 3, 4, 5):
            for size in (4, 5, 6):
                for kind, pts in special_simplices(rng, size, d):
                    births = filtration_births(dataset(pts), size - 1)
                    (birth,), latest = births[-1], births[-2].max()
                    r2, full = simplex_meb_exact(pts)
                    exact = math.sqrt(r2)
                    assert abs(birth - exact) <= 1e-12 * exact, (kind, pts)
                    if not full:
                        assert birth == latest, (kind, pts)
                    kinds[kind, full] += 1
    assert sum(kinds.values()) == 792
    for kind in ("uniform", "grid", "sliver"):
        assert min(kinds[kind, False], kinds[kind, True]) >= 5


def test_dependent_simplices_are_born_with_their_latest_facet():
    # coplanar grid rows in 4D and 5D: their Gram determinant is float
    # noise below 1e-12 of its diagonal's product; solved as if it were
    # not, the squared radius came out negative and the CLI printed
    # numpy's "invalid value encountered in sqrt"
    rng = np.random.default_rng(1729)
    seen = 0
    for _ in range(12):
        for d in (4, 5):
            for size in (5, 6):
                for kind, pts in special_simplices(rng, size, d):
                    if kind != "coplanar":
                        continue
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        births = filtration_births(dataset(pts), size - 1)
                    assert births[-1][0] == births[-2].max(), pts
                    seen += 1
    assert seen == 48


def test_centre_on_a_facet_is_born_with_it():
    # the circumcentre (2, 1, 0) / 8 lies on the acute face z = 0: the
    # tetrahedron is born with that face, whether or not a centre on
    # the boundary counts as inside
    pts = np.array([(0, 0, 0), (4, 0, 0), (1, 3, 0), (3, 1, 2)]) / 8
    births = filtration_births(dataset(pts), 3)
    assert births[-1][0] == births[-2][0] == pytest.approx(math.sqrt(5) / 8)


def test_no_circumradius_above_d_plus_one_rows(monkeypatch):
    # more than d + 1 rows in R^d are affinely dependent, so they are
    # born with their latest facet without a Gram solve: skipping it
    # took the tetrahedra of 60 planar rows from 0.50 to 0.10 s
    circumradii = complexes._circumradii

    def refuse(points):
        assert points.shape[1] <= points.shape[2] + 1, points.shape
        return circumradii(points)

    monkeypatch.setattr(complexes, "_circumradii", refuse)
    for d in (1, 2, 3):
        pts = np.random.default_rng(d).random((9, d))
        assert filtration_births(dataset(pts), 4)[-1].shape == (126,)
