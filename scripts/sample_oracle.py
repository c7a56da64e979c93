"""Independent oracle for the 9-row Age/ZIP sample dataset.

Computes, by brute force only (no library code from src/):
  * min-max normalized coordinates,
  * minimum enclosing balls via exhaustive support-subset enumeration,
  * connected components via BFS on the eps-neighborhood graph,
  * every change point of the component partition, with its classes,
  * k-anonymity regimes from the exact critical values, cross-checked
    against a 1e-4 grid sweep, and the generalized k=3 table,
  * H1 bar endpoints from rank-nullity Betti numbers at every critical eps,
  * a check that the reference grouping {1,2,3},{4,5,6},{7,8,9} is a
    component partition under no per-column weighting of Age and ZIP.

Run this before trusting any frozen constant in tests/: the printed values
are the ones embedded there.
"""

import functools
import itertools
import math

AGES = [25, 22, 24, 43, 52, 38, 47, 36, 32]
ZIPS = [47677, 47602, 47678, 47905, 47909, 47906, 47605, 47673, 47607]
N = len(AGES)


def normalize():
    amin, amax = min(AGES), max(AGES)
    zmin, zmax = min(ZIPS), max(ZIPS)
    return [((a - amin) / (amax - amin), (z - zmin) / (zmax - zmin))
            for a, z in zip(AGES, ZIPS)]


def dist(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def circumsphere(pts):
    """Smallest ball with all of pts on its boundary, or None if degenerate.

    Solves the equidistance system restricted to the affine hull by plain
    Gaussian elimination (pts are 2-D here, so the system is at most 2x2).
    """
    if len(pts) == 1:
        return pts[0], 0.0
    p0 = pts[0]
    rows = []
    rhs = []
    for p in pts[1:]:
        d = [a - b for a, b in zip(p, p0)]
        rows.append(d)
        rhs.append(0.5 * sum(x * x for x in d))
    # center = p0 + sum_i y_i * rows_i ; solve (rows rows^T) y = rhs
    m = len(rows)
    g = [[sum(rows[i][k] * rows[j][k] for k in range(len(p0)))
          for j in range(m)] for i in range(m)]
    aug = [g[i] + [rhs[i]] for i in range(m)]
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(aug[r][col]))
        if abs(aug[piv][col]) < 1e-14:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(m):
            if r != col:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    y = [aug[i][m] / aug[i][i] for i in range(m)]
    center = list(p0)
    for i in range(m):
        for k in range(len(p0)):
            center[k] += y[i] * rows[i][k]
    return tuple(center), dist(center, p0)


@functools.lru_cache(maxsize=None)
def meb_bruteforce(pts):
    """Exhaustive MEB: try every support subset of size <= d+1.

    pts is a tuple of points; the result is memoized on it, because the
    grid cross-check asks for the same few components thousands of times.
    """
    d = len(pts[0])
    best = None
    for size in range(1, min(len(pts), d + 1) + 1):
        for sub in itertools.combinations(pts, size):
            cs = circumsphere(list(sub))
            if cs is None:
                continue
            c, r = cs
            if all(dist(c, p) <= r + 1e-9 for p in pts):
                if best is None or r < best[1]:
                    best = (c, r)
    return best[1]


def components(pts, eps):
    adj = {i: [] for i in range(len(pts))}
    for i, j in itertools.combinations(range(len(pts)), 2):
        if dist(pts[i], pts[j]) <= 2 * eps:
            adj[i].append(j)
            adj[j].append(i)
    seen, comps = set(), []
    for s in range(len(pts)):
        if s in seen:
            continue
        stack, comp = [s], []
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def k_anon_at(pts, eps, k):
    comps = components(pts, eps)
    for c in comps:
        if len(c) < k or meb_bruteforce(tuple(pts[i] for i in c)) > eps:
            return None
    return comps


def partition_intervals(pts):
    """Maximal eps intervals [lo, hi) of constant component partition.

    The partition only changes at half pairwise distances."""
    halves = sorted({dist(pts[i], pts[j]) / 2
                     for i, j in itertools.combinations(range(len(pts)), 2)})
    change = [(0.0, components(pts, 0.0))]
    for h in halves:
        cur = components(pts, h)
        if cur != change[-1][1]:
            change.append((h, cur))
    out = []
    for idx, (lo, comps) in enumerate(change):
        hi = change[idx + 1][0] if idx + 1 < len(change) else math.inf
        out.append((lo, hi, comps))
    return out


def regimes(pts, k):
    """Maximal eps intervals with constant k-anonymous partition."""
    out = []
    for lo, hi, comps in partition_intervals(pts):
        if any(len(c) < k for c in comps):
            continue
        need = max(meb_bruteforce(tuple(pts[i] for i in c)) for c in comps)
        start = max(lo, need)
        if start < hi:
            out.append((start, hi, [[i + 1 for i in c] for c in comps]))
    return out


def fmt_interval(lo, hi):
    return str(lo) if lo == hi else f"[{lo}-{hi}]"


def generalized_rows(classes):
    """Each row's (Age, ZIP) replaced by its class-wide [min-max] range."""
    row = {}
    for cls in classes:
        ages = [AGES[i - 1] for i in cls]
        zips = [ZIPS[i - 1] for i in cls]
        cell = (fmt_interval(min(ages), max(ages)),
                fmt_interval(min(zips), max(zips)))
        for i in cls:
            row[i] = cell
    return [row[i] for i in range(1, N + 1)]


REFERENCE = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]


def sq_deltas(i, j):
    """Squared Age and ZIP differences of rows i and j (1-based)."""
    return (AGES[i - 1] - AGES[j - 1]) ** 2, (ZIPS[i - 1] - ZIPS[j - 1]) ** 2


def shorter_ratios(e, f):
    """Open interval of weight ratios r = b/a > 0 on which edge e is
    strictly shorter than edge f, where the weighted distance of rows
    i, j is sqrt(a^2 dAge^2 + b^2 dZIP^2); None when there is none."""
    (ae, ze), (af, zf) = sq_deltas(*e), sq_deltas(*f)
    # e < f  <=>  r^2 (ze - zf) < af - ae
    dz, da = ze - zf, af - ae
    if dz == 0:
        return (0.0, math.inf) if da > 0 else None
    bound = da / dz
    if dz > 0:
        return (0.0, math.sqrt(bound)) if bound > 0 else None
    return (math.sqrt(bound), math.inf) if bound > 0 else (0.0, math.inf)


def weighted(ratio):
    """The sample with Age weighted 1 and ZIP weighted ratio."""
    return [(a - min(AGES), ratio * (z - min(ZIPS)))
            for a, z in zip(AGES, ZIPS)]


def reference_grouping_argument():
    """The reference grouping is never a component partition.

    If it were one at some eps, row 2 would link to row 1 or 3 and row 7
    to row 8 or 9 by edges <= 2 eps, while the cross edge 2-9 stays
    > 2 eps.  Both links must therefore be shorter than 2-9; the ratios
    b/a allowing each are disjoint."""
    def show(i, j):
        ivl = shorter_ratios((i, j), (2, 9))
        if ivl is None:
            print(f"  d{i}{j} < d29 for no b/a")
        else:
            print(f"  d{i}{j} < d29 iff {ivl[0]:.17g} < b/a < {ivl[1]:.17g}")
        return ivl

    print("\nreference grouping {1,2,3},{4,5,6},{7,8,9} under Age weight a,"
          " ZIP weight b:")
    join2 = [ivl for ivl in (show(2, 1), show(2, 3)) if ivl]
    join7 = [ivl for ivl in (show(7, 8), show(7, 9)) if ivl]
    overlap = [(p, q) for p in join2 for q in join7
               if max(p[0], q[0]) < min(p[1], q[1])]
    assert not overlap, overlap
    print("  row 2 joining {1,3} and row 7 joining {8,9} before 2-9 links"
          " need disjoint b/a ranges: the grouping never forms")
    minmax = (max(AGES) - min(AGES)) / (max(ZIPS) - min(ZIPS))
    print(f"  min-max scaling has b/a = {minmax:.17g}")

    ratios = [10 ** (i / 100) for i in range(-400, 401)]
    want = [[i - 1 for i in c] for c in REFERENCE]
    hits = 0
    for r in ratios:
        if any(sorted(comps) == want
               for _, _, comps in partition_intervals(weighted(r))):
            hits += 1
    assert hits == 0
    print(f"  scan of {len(ratios)} log-spaced b/a in [1e-4, 1e4]: "
          f"grouping formed at {hits}")


def birth(pts, simplex):
    """MEB radius, made monotone over faces so 1-ulp float noise cannot
    put a triangle before one of its edges."""
    b = meb_bruteforce(tuple(pts[i] for i in simplex))
    if len(simplex) > 2:
        for f in itertools.combinations(simplex, len(simplex) - 1):
            b = max(b, birth(pts, f))
    elif len(simplex) == 2:
        b = dist(pts[simplex[0]], pts[simplex[1]]) / 2
    return b


def betti_01(pts, eps):
    """(b0, b1) of the Cech complex at eps, via rank-nullity over GF(2)."""
    verts = list(range(len(pts)))
    edges = [e for e in itertools.combinations(verts, 2)
             if birth(pts, e) <= eps]
    tris = [t for t in itertools.combinations(verts, 3)
            if birth(pts, t) <= eps]

    def gf2_rank(cols):
        rows = {}
        rank = 0
        for c in cols:
            while c:
                low = c.bit_length() - 1
                if low in rows:
                    c ^= rows[low]
                else:
                    rows[low] = c
                    rank += 1
                    break
        return rank

    eidx = {e: i for i, e in enumerate(edges)}
    d1 = [(1 << e[0]) | (1 << e[1]) for e in edges]
    d2 = []
    for t in tris:
        mask = 0
        for f in itertools.combinations(t, 2):
            mask |= 1 << eidx[f]
        d2.append(mask)
    r1, r2 = gf2_rank(d1), gf2_rank(d2)
    b0 = len(verts) - r1
    b1 = len(edges) - r1 - r2
    return b0, b1


def main():
    pts = normalize()
    print("normalized points:")
    for i, p in enumerate(pts, 1):
        print(f"  {i}: ({p[0]:.17g}, {p[1]:.17g})")

    print("\ncomponent partition change points [lo, hi), classes, largest "
          "component MEB:")
    for lo, hi, comps in partition_intervals(pts):
        need = max(meb_bruteforce(tuple(pts[i] for i in c)) for c in comps)
        hi_s = "inf" if math.isinf(hi) else f"{hi:.17g}"
        classes = [[i + 1 for i in c] for c in comps]
        print(f"  [{lo:.17g}, {hi_s})  classes={classes}  meb={need:.17g}")

    for k in (2, 3, 4):
        print(f"\nk = {k} regimes (exact):")
        for lo, hi, classes in regimes(pts, k):
            hi_s = "inf" if math.isinf(hi) else f"{hi:.17g}"
            print(f"  [{lo:.17g}, {hi_s})  classes={classes}")

    # the max-classes regime is the earliest with the most classes
    k3 = regimes(pts, 3)
    top = max(len(classes) for _, _, classes in k3)
    best = next(classes for _, _, classes in k3 if len(classes) == top)
    print(f"\nk = 3 generalized table (max-classes regime {best}):")
    for i, (age, zipc) in enumerate(generalized_rows(best), 1):
        print(f"  {i}: {age},{zipc}")

    # grid cross-check at 1e-4
    for k in (2, 3, 4):
        rs = regimes(pts, k)
        step = 1e-4
        bad = 0
        for g in range(0, 10001):
            eps = g * step
            exact = any(lo <= eps < hi for lo, hi, _ in rs)
            grid = k_anon_at(pts, eps, k) is not None
            if exact != grid:
                bad += 1
        print(f"grid/exact mismatches for k={k} on [0,1] step 1e-4: {bad}")

    # H1 bars from Betti numbers at all critical values (edge halves and
    # triple MEBs, where H1 can change)
    crit = {0.0}
    for i, j in itertools.combinations(range(N), 2):
        crit.add(birth(pts, (i, j)))
    for t in itertools.combinations(range(N), 3):
        crit.add(birth(pts, t))
    crit = sorted(crit)
    print("\nH1 across critical values (eps, b0, b1):")
    prev_b1 = 0
    for eps in crit:
        b0, b1 = betti_01(pts, eps)
        if b1 != prev_b1:
            print(f"  eps={eps:.17g}  b0={b0}  b1={b1}")
            prev_b1 = b1

    # facts the test suite freezes
    print("\ncomponents at eps=0.3:",
          [[i + 1 for i in c] for c in components(pts, 0.3)])
    print("MEB of {1,2,3,7,8,9}:",
          f"{meb_bruteforce(tuple(pts[i] for i in (0, 1, 2, 6, 7, 8))):.17g}")
    print("MEB of all 9 points:",
          f"{meb_bruteforce(tuple(pts)):.17g}")
    for cls in ((0, 1, 2), (3, 4, 5), (6, 7, 8)):
        print(f"MEB of {[i + 1 for i in cls]}:",
              f"{meb_bruteforce(tuple(pts[i] for i in cls)):.17g}")

    reference_grouping_argument()


if __name__ == "__main__":
    main()
