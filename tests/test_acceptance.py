"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.

Criteria 1 and 3 pin the 9-row sample's k=3 regime table and generalized
table to the values printed by scripts/sample_oracle.py, which imports no
package code.  The published reference grouping (1,2,3),(4,5,6),(7,8,9)
of that table is not pinned: it comes from ZIP-prefix and age-band
generalization, and no per-column scaling makes it a component partition
(the script checks the two-inequality argument), so no distance-based
method can return it.

Criterion 5 checks check_k_anonymity against a brute force stated from
the nerve characterization (classes are full simplices, pairwise
disjoint in the nerve).  The weaker any-block decomposition oracle is
kept to check soundness and to count the instances where the two
definitions differ.
"""

import csv
import itertools
import random
import time

import pytest

from anonytope.anonymity import check_k_anonymity, compute_regimes
from anonytope.cli import EXIT_OK, main as cli_main
from anonytope.geometry import min_enclosing_ball
from anonytope.homology import barcode

from oracles import (betti_at, components_bfs, critical_values, dataset,
                     dist, filtration_births, filtration_entries,
                     homology_dims_at, k_anonymity_bruteforce,
                     k_anonymity_separated_bruteforce, live_bars,
                     meb_bruteforce, regime_contains, sublevel, weight_at)

# printed by scripts/sample_oracle.py: the sample's only k=3 regime, all
# nine rows from the MEB radius of rows 2 and 5 at (0,0) and (1,1)
SAMPLE_K3_REGIMES = [(0.70710678118654757, None,
                      ((1, 2, 3, 4, 5, 6, 7, 8, 9),))]
SAMPLE_K3_ROW = ("[22-52]", "[47602-47909]")
# why the reference steps never appear, from the same script's change
# points: (1,2,3,7,8,9),(4,5,6) holds only on [0.21419, 0.38094), and
# its six-row MEB 0.41699 lies beyond that interval
REFERENCE_ABSENT = ("the reference grouping (1,2,3),(4,5,6),(7,8,9) is a "
                    "component partition under no per-column scaling, and "
                    "(1,2,3,7,8,9),(4,5,6) holds only on [0.21419, 0.38094) "
                    "while its six-row MEB is 0.41699, so neither is a "
                    "regime")


def report(criterion: int, ok: bool, detail: str = ""):
    print(f"\ncriterion {criterion:02d}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_sample_regime_structure(sample_data):
    t0 = time.monotonic()
    regimes = compute_regimes(sample_data, 3)
    elapsed = time.monotonic() - t0
    got = [(r.eps_lo, r.eps_hi, r.classes) for r in regimes]
    ok = (len(got) == len(SAMPLE_K3_REGIMES)
          and all(g[2] == w[2] and g[1] == w[1]
                  and abs(g[0] - w[0]) <= 1e-12
                  for g, w in zip(got, SAMPLE_K3_REGIMES))
          and elapsed < 1.0)
    report(1, ok, f"got {got} in {elapsed:.3f}s, want the oracle table "
           f"{SAMPLE_K3_REGIMES}; {REFERENCE_ABSENT}")


def test_criterion_02_thresholds_match_independent_oracle(sample_data):
    pts = [tuple(p) for p in sample_data.points]

    # oracle: exhaustive sweep with BFS components and brute-force MEB
    def oracle_regimes(k):
        halves = sorted({dist(pts[i], pts[j]) / 2
                         for i, j in itertools.combinations(range(9), 2)})
        change, prev = [0.0], components_bfs(pts, 0.0)
        parts = [prev]
        for h in halves:
            cur = components_bfs(pts, h)
            if cur != prev:
                change.append(h)
                parts.append(cur)
                prev = cur
        out = []
        for i, lo in enumerate(change):
            hi = change[i + 1] if i + 1 < len(change) else None
            comps = parts[i]
            if any(len(c) < k for c in comps):
                continue
            need = max(meb_bruteforce([pts[v] for v in c]) for c in comps)
            start = max(lo, need)
            if hi is None or start < hi:
                out.append((start, hi,
                            tuple(tuple(v + 1 for v in c) for c in comps)))
        return out

    ok = True
    details = []
    for k in (2, 3, 4):
        got = [(r.eps_lo, r.eps_hi, r.classes)
               for r in compute_regimes(sample_data, k)]
        want = oracle_regimes(k)
        if len(got) != len(want):
            ok = False
            details.append(f"k={k}: {len(got)} vs {len(want)} regimes")
            continue
        for g, w in zip(got, want):
            if abs(g[0] - w[0]) > 1e-9 or g[2] != w[2] or \
                    ((g[1] is None) != (w[1] is None)) or \
                    (g[1] is not None and abs(g[1] - w[1]) > 1e-9):
                ok = False
                details.append(f"k={k}: {g} vs {w}")

    # H1 bars (length > 1e-12) against the frozen oracle output
    bars = barcode(sample_data, dim_cap=2)
    h1 = [(b.birth, b.death) for b in bars
          if b.dim == 1 and b.death - b.birth > 1e-12]
    want_h1 = [(0.16686548917831662, 0.18006990324570873),
               (0.18344904436849335, 0.18792640630783738),
               (0.50207800578340533, 0.50307996926047982)]
    if len(h1) != len(want_h1):
        ok = False
        details.append(f"H1 bars {h1}")
    else:
        for g, w in zip(sorted(h1), want_h1):
            if abs(g[0] - w[0]) > 1e-9 or abs(g[1] - w[1]) > 1e-9:
                ok = False
                details.append(f"H1 bar {g} vs {w}")
    report(2, ok, "; ".join(details) or
           "regimes and H1 bars match the exhaustive oracle to 1e-9")


def test_criterion_03_anonymize_matches_reference_table(sample_csv,
                                                        tmp_path):
    out = tmp_path / "anon"
    rc = cli_main(["anonymize", "--input", str(sample_csv),
                   "--quasi", "Age", "ZIP", "--k", "3",
                   "--out", str(out)])
    rows = []
    if rc == EXIT_OK:
        with open(out / "anonymized_k3.csv") as fh:
            rows = [tuple(r) for r in csv.reader(fh)][1:]
    want = [SAMPLE_K3_ROW] * 9
    ok = rc == EXIT_OK and rows == want
    report(3, ok, f"exit {rc}, emitted {sorted(set(rows))}, want nine rows "
           f"of {SAMPLE_K3_ROW}, the column ranges of the single k=3 "
           f"class; {REFERENCE_ABSENT}")


def test_criterion_04_homology_oracle_equivalence():
    rng = random.Random(404)
    t0 = time.monotonic()
    for _ in range(100):
        n = rng.randint(1, 7)
        data = dataset([(rng.random(), rng.random()) for _ in range(n)])
        # cap = n leaves an empty top layer so every Betti number of the
        # full complex is reported, not just the ones below the cap
        bars = barcode(data, dim_cap=n)
        entries = filtration_entries(data, filtration_births(data, n))
        for eps in critical_values(entries):
            cx = sublevel(entries, eps, n)
            betti = betti_at(bars, eps)
            want = homology_dims_at(cx)
            got = [betti.get(d, 0) for d in range(len(want))]
            assert got == want, (data.points, eps)
            euler_simplices = sum((-1) ** d * c
                                  for d, c in enumerate(cx.counts()))
            euler_betti = sum((-1) ** d * b for d, b in enumerate(want))
            assert euler_simplices == euler_betti, (data.points, eps)
    elapsed = time.monotonic() - t0
    report(4, elapsed < 30.0, f"100 datasets checked in {elapsed:.1f}s")


def test_criterion_05_decomposition_oracle():
    rng = random.Random(505)
    t0 = time.monotonic()
    mismatches = 0
    unsound = 0
    # (any-block, separated) verdicts where the any-block oracle differs
    counterexamples = []
    for _ in range(200):
        n = rng.randint(1, 8)
        pts = [(rng.random(), rng.random()) for _ in range(n)]
        eps = rng.random() * 0.8
        k = rng.randint(1, 5)
        got = check_k_anonymity(dataset(pts), eps, k).achieved
        any_block = k_anonymity_bruteforce(pts, eps, k)
        separated = k_anonymity_separated_bruteforce(pts, eps, k)
        if got != separated:
            mismatches += 1
        if got and not any_block:
            unsound += 1
        if got != any_block:
            counterexamples.append((any_block, separated))
    elapsed = time.monotonic() - t0
    assert unsound == 0, "decision claimed achievable where no block " \
                         "partition exists"
    assert all(a and not s for a, s in counterexamples), \
        f"any-block disagreements not explained by separation: " \
        f"{counterexamples}"
    ok = mismatches == 0 and elapsed < 60.0
    report(5, ok, f"{mismatches}/200 mismatches against the separated-block "
           f"(nerve) oracle; {len(counterexamples)}/200 instances where a "
           f"connected group splits into valid blocks but is not itself a "
           f"simplex, all rejected by the separated oracle too (classes "
           f"must be full disjoint simplices so homology counts them, cf. "
           f"criterion 6); "
           f"{elapsed:.1f}s")


def test_criterion_06_achieved_implies_trivial_homology():
    rng = random.Random(606)
    from oracles import build_anonymity_complex
    checked = 0
    while checked < 40:
        n = rng.randint(2, 7)
        spread = rng.choice([0.3, 0.6, 1.0])
        pts = [(rng.random() * spread, rng.random() * spread)
               for _ in range(n)]
        data = dataset(pts)
        eps = rng.random() * 0.6
        k = rng.randint(1, 3)
        verdict = check_k_anonymity(data, eps, k)
        if not verdict.achieved:
            continue
        checked += 1
        cx = build_anonymity_complex(data, eps, dim_cap=max(1, n - 1))
        dims = homology_dims_at(cx)
        assert dims[0] == len(verdict.classes)
        assert all(d == 0 for d in dims[1:])
    report(6, True, f"{checked} achieved instances, all contractible "
           f"with dim H0 = class count")


def test_criterion_07_meb_against_support_subset_bruteforce():
    rng = random.Random(707)
    for _ in range(500):
        d = rng.randint(1, 4)
        n = rng.randint(1, 10)
        pts = [[rng.random() for _ in range(d)] for _ in range(n)]
        got = min_enclosing_ball(pts).radius
        want = meb_bruteforce(pts)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), pts
    report(7, True, "500 point sets, relative error <= 1e-9")


def test_criterion_08_weighted_barcode_conservation(sample_data):
    rng = random.Random(808)
    datasets = [sample_data]
    for _ in range(20):
        n = rng.randint(1, 9)
        datasets.append(dataset([(rng.random(), rng.random())
                                 for _ in range(n)]))
    for data in datasets:
        bars = barcode(data, dim_cap=1)
        infinite = [b for b in bars if b.death is None]
        assert len(infinite) == 1
        eps_values = {0.0} | {b.death for b in bars
                              if b.death is not None}
        for eps in eps_values:
            total = sum(weight_at(b, eps) for b in live_bars(bars, eps))
            assert total == data.n_points
    report(8, True, f"{len(datasets)} datasets conserved weights")


def test_criterion_09_categorical_fixture(trees_yaml):
    from anonytope.categorical import (STRATEGY_EXHAUSTIVE,
                                       STRATEGY_LOWER_THEN_UPPER,
                                       generalize_value,
                                       generalized_partition_at,
                                       lattice_search, load_trees)
    t0 = time.monotonic()
    trees = load_trees(trees_yaml)
    gender, country = trees
    assert generalize_value(country, "USA", 2) == "America"
    rows = [("Male", "Portugal"), ("Female", "Spain"), ("Male", "Hungary")]
    parts = generalized_partition_at([(r[1],) for r in rows], [country], (2,))
    assert parts == [(1, 2, 3)]
    assert tuple(t.height for t in trees) == (1, 3)
    exhaustive = lattice_search(rows, trees, 3, STRATEGY_EXHAUSTIVE)
    assert exhaustive.nodes == ((1, 2),)
    assert all(n[1] == 2 for n in exhaustive.nodes)
    country_only = lattice_search([(r[1],) for r in rows], [country], 3,
                                  STRATEGY_LOWER_THEN_UPPER)
    assert country_only.nodes == ((2,),)
    assert country_only.upper_chain_skipped
    elapsed = time.monotonic() - t0
    report(9, elapsed < 1.0, f"fixture checks in {elapsed:.3f}s")


def test_criterion_10_grid_exact_consistency():
    rng = random.Random(1010)
    for _ in range(20):
        n = rng.randint(2, 7)
        data = dataset([(rng.random(), rng.random()) for _ in range(n)])
        k = rng.randint(1, 3)
        regimes = compute_regimes(data, k)
        for g in range(0, 1001):
            eps = g * 1e-3
            exact = any(regime_contains(r, eps) for r in regimes)
            grid = check_k_anonymity(data, eps, k).achieved
            assert exact == grid, (data.points, k, eps)
    report(10, True, "20 datasets agree at every 1e-3 grid point")
