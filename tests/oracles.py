"""Brute-force oracles used by the test suite.

Everything here is deliberately naive (exhaustive subset enumeration,
BFS, set-partition enumeration, parent-link walks, one reduction over
the whole filtration's global index) and shares no code path with the
package implementation it checks, except that the fixed-eps anonymity
complex tests its simplices with the package's min_enclosing_ball, the
per-interval regime sweep runs min_enclosing_ball on each component of
its own union-find partitions, the Kruskal scan reads the dataset's
pair distances, the Kruskal merge tree reads MergeTree's regime table
over the scan's merges, and the lattice brute force reads the
package's per-node partition.
"""

import bisect
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from anonytope.anonymity import Regime
from anonytope.categorical import generalized_partition_at
from anonytope.complexes import simplex_births
from anonytope.errors import ContractViolation, TreeDefinitionError
from anonytope.geometry import (MergeTree, NormalizedDataset,
                                min_enclosing_ball)
from anonytope.homology import Bar

# simplices are plain sorted tuples of 1-based row ids
Simplex = tuple[int, ...]


def dataset(points) -> NormalizedDataset:
    return NormalizedDataset(points)


def subset(data: NormalizedDataset, row_ids) -> np.ndarray:
    """The points of these 1-based row ids, in the order given."""
    positions = {r: i for i, r in enumerate(data.row_ids)}
    try:
        return data.points[[positions[r] for r in row_ids]]
    except KeyError as exc:
        raise ContractViolation(f"unknown row id {exc.args[0]}") from None


def regime_contains(regime: Regime, eps: float) -> bool:
    """Is eps in the regime's half-open interval [eps_lo, eps_hi)?"""
    return regime.eps_lo <= eps and (regime.eps_hi is None
                                     or eps < regime.eps_hi)


def live_bars(bars: tuple[Bar, ...], eps: float) -> list[Bar]:
    """The bars alive at eps: born at or before it, dying after it."""
    return [b for b in bars
            if b.birth <= eps and (b.death is None or eps < b.death)]


def weight_at(bar: Bar, eps: float) -> int:
    """An H0 bar's weight at eps: the size of its last weight step at or
    before eps, 0 before the first."""
    w = 0
    for at, size in bar.weight_steps:
        if at <= eps:
            w = size
    return w


def betti_at(bars: tuple[Bar, ...], eps: float) -> dict[int, int]:
    """The number of bars alive at eps, per dimension."""
    return dict(Counter(b.dim for b in live_bars(bars, eps)))


def seeded_points(seed: int, count: int):
    """count seeded point sets of 2 to 24 rows, in d = 1, 2, 3 and 5 in
    turn, each kind in turn: uniform, on a 1/4 grid (distances tie and
    rows repeat), and in tight clusters."""
    rng = random.Random(seed)
    for trial in range(count):
        n, d = rng.randint(2, 24), (1, 2, 3, 5)[trial % 4]
        kind = trial // 4 % 3
        if kind == 0:
            yield [[rng.random() for _ in range(d)] for _ in range(n)]
        elif kind == 1:
            yield [[rng.randint(0, 4) / 4 for _ in range(d)]
                   for _ in range(n)]
        else:
            centres = [[rng.random() for _ in range(d)] for _ in range(3)]
            yield [[x + rng.gauss(0, 0.02) for x in rng.choice(centres)]
                   for _ in range(n)]


def dist(p, q) -> float:
    return float(np.linalg.norm(np.asarray(p, float) - np.asarray(q, float)))


def circumsphere(pts):
    """Smallest ball with all pts on its boundary, None if degenerate."""
    pts = [np.asarray(p, float) for p in pts]
    if len(pts) == 1:
        return pts[0], 0.0
    p0 = pts[0]
    diffs = np.array([p - p0 for p in pts[1:]])
    gram = diffs @ diffs.T
    rhs = 0.5 * np.einsum("ij,ij->i", diffs, diffs)
    if abs(np.linalg.det(gram)) < 1e-14:
        return None
    y = np.linalg.solve(gram, rhs)
    center = p0 + y @ diffs
    return center, max(dist(center, p) for p in pts)


def meb_bruteforce(points) -> float:
    """MEB radius by trying every support subset of size <= d+1."""
    pts = [np.asarray(p, float) for p in points]
    d = len(pts[0])
    best = math.inf
    for size in range(1, min(len(pts), d + 1) + 1):
        for sub in itertools.combinations(pts, size):
            cs = circumsphere(list(sub))
            if cs is None:
                continue
            c, r = cs
            if r < best and all(dist(c, p) <= r + 1e-9 for p in pts):
                best = r
    return best


def triangle_meb_exact(p, q, r) -> tuple[Fraction, bool]:
    """Squared MEB radius of a triangle and whether it is acute, without
    rounding: rationals on the float coordinates.  With squared sides
    a2 >= b2 >= c2 the radius is a2 / 4 when the triangle is not acute
    (b2 + c2 <= a2, which covers duplicate and collinear points), else
    the squared circumradius a2 b2 c2 / (16 K^2), 16 K^2 written in the
    squared sides."""
    pts = [[Fraction(float(x)) for x in pt] for pt in (p, q, r)]

    def sq(u, v):
        return sum((x - y) ** 2 for x, y in zip(u, v))

    c2, b2, a2 = sorted(sq(u, v) for u, v in itertools.combinations(pts, 2))
    if b2 + c2 <= a2:
        return a2 / 4, False
    return a2 * b2 * c2 / (2 * a2 * b2 + 2 * b2 * c2 + 2 * c2 * a2
                           - a2 ** 2 - b2 ** 2 - c2 ** 2), True


def _int_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss' fraction-free
    elimination, every division exact."""
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def simplex_meb_exact(points) -> tuple[Fraction, bool]:
    """Squared MEB radius of a point set and whether its support is all
    of the points, without rounding.  The float coordinates are scaled
    to integers by their common power-of-two denominator; every subset
    of at most d + 1 affinely independent points has its circumcentre
    in its own affine hull solved by Cramer's rule, and the least ball
    so found that holds every point is the MEB.  Subsets are tried from
    the smallest, so a support is all of the points only when no
    proper subset's ball is as small."""
    exact = [[float(x).as_integer_ratio() for x in pt] for pt in points]
    scale = max(den for pt in exact for _, den in pt)
    pts = [[num * (scale // den) for num, den in pt] for pt in exact]
    best = None
    for size in range(1, min(len(pts), len(pts[0]) + 1) + 1):
        for sub in itertools.combinations(pts, size):
            edges = [[a - b for a, b in zip(q, sub[0])] for q in sub[1:]]
            gram = [[sum(a * b for a, b in zip(u, v)) for v in edges]
                    for u in edges]
            det = _int_det(gram)
            if det == 0:
                continue
            # the circumcentre is sub[0] + sum_i y_i edges[i], with
            # gram y = diag(gram) / 2, so y_i = cramer[i] / (2 det)
            diag = [gram[i][i] for i in range(len(gram))]
            cramer = [_int_det([row[:i] + [d] + row[i + 1:]
                                for row, d in zip(gram, diag)])
                      for i in range(len(gram))]
            offset = [sum(c * e[j] for c, e in zip(cramer, edges))
                      for j in range(len(sub[0]))]
            centre = [2 * det * a + o for a, o in zip(sub[0], offset)]
            r2 = sum(o * o for o in offset)     # scaled by (2 det)^2
            if all(sum((2 * det * a - c) ** 2 for a, c in zip(q, centre))
                   <= r2 for q in pts):
                r2 = Fraction(r2, (2 * det * scale) ** 2)
                if best is None or r2 < best[0]:
                    best = r2, size == len(pts)
    return best


def components_bfs(points, eps):
    """Connected components (0-based) of the eps-neighborhood graph."""
    n = len(points)
    adj = {i: [] for i in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        if dist(points[i], points[j]) <= 2 * eps:
            adj[i].append(j)
            adj[j].append(i)
    seen, comps = set(), []
    for s in range(n):
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
    return sorted(comps)


def regimes_per_interval(data: NormalizedDataset, k: int) -> list[Regime]:
    """compute_regimes as one pass over the Kruskal scan's partitions,
    from the coarsest: at each interval of constant partition, its
    components by union-find over the pairs kept so far, and one
    min_enclosing_ball per component (each computed once), stopping at
    the first partition too fine for k."""
    if k > data.n_points:
        return []
    kept = kruskal_scan(data)[0]
    heights = [d for d, _, _ in kept]
    starts = sorted({0.0} | {h / 2.0 for h in heights})
    radius, regimes = {}, []
    for lo, hi in reversed(list(zip(starts, starts[1:] + [math.inf]))):
        merges = bisect.bisect_right(heights, 2.0 * lo)
        comps = union_find_partition(data.n_points, kept[:merges])
        if any(len(c) < k for c in comps):
            break
        for c in comps:
            if c not in radius:
                radius[c] = min_enclosing_ball(data.points[list(c)]).radius
        start = max(lo, max(radius[c] for c in comps))
        if start < hi:
            regimes.append(Regime(
                eps_lo=start, eps_hi=None if math.isinf(hi) else hi,
                classes=tuple(tuple(data.row_ids[i] for i in c)
                              for c in comps)))
    return regimes[::-1]


def _find(root: list[int], x: int) -> int:
    while root[x] != x:
        root[x] = x = root[root[x]]
    return x


def kruskal_scan(data: NormalizedDataset):
    """(kept, survivor, dying) of one stable sort of every pair's
    distance (ties in row order, so in pair rank order) and a Kruskal
    scan that keeps each pair (distance, a, b) joining two components,
    the elder root surviving."""
    dist = data.pair_distances
    first, second = np.triu_indices(data.n_points, 1)
    root = list(range(data.n_points))
    kept, survivor, dying = [], [], []
    for rank in np.argsort(dist, kind="stable").tolist():
        a, b = int(first[rank]), int(second[rank])
        ra, rb = sorted((_find(root, a), _find(root, b)))
        if ra != rb:
            root[rb] = ra
            kept.append((float(dist[rank]), a, b))
            survivor.append(ra)
            dying.append(rb)
    return kept, survivor, dying


def union_find_partition(n: int, pairs) -> list[tuple[int, ...]]:
    """The components of n rows joined by the pairs (_, a, b), by
    union-find: each as its ascending 0-based rows, ordered by their
    first row."""
    root = list(range(n))
    for _, a, b in pairs:
        ra, rb = sorted((_find(root, a), _find(root, b)))
        root[rb] = ra
    comps = {}
    for v in range(n):
        comps.setdefault(_find(root, v), []).append(v)
    return [tuple(c) for c in comps.values()]


def kruskal_tree(points) -> MergeTree:
    """The merge tree by the all-pairs route: the pairs kruskal_scan
    keeps build a MergeTree of the points, whose replay must merge them
    as the scan did, so its regime table and radii are read off the
    scan's merges."""
    data = dataset(points)
    kept, survivor, dying = kruskal_scan(data)
    tree = MergeTree(data.points, kept)
    assert (tree.survivor.tolist(), tree.dying.tolist()) == (survivor, dying)
    return tree


def set_partitions(items):
    """All partitions of items into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]


def _block_meb_within(points, eps):
    """Memoized test "the block's MEB radius is <= eps", keyed by the
    sorted block so each block costs one brute-force MEB."""
    cache = {}

    def ok(block):
        key = tuple(sorted(block))
        if key not in cache:
            cache[key] = meb_bruteforce([points[i] for i in key]) <= eps
        return cache[key]

    return ok


def k_anonymity_bruteforce(points, eps, k) -> bool:
    """Does ANY partition into blocks of size >= k with per-block
    MEB <= eps exist?  Stated directly from the definition."""
    n = len(points)
    if k > n:
        return False
    block_ok = _block_meb_within(points, eps)
    for part in set_partitions(range(n)):
        if all(len(b) >= k and block_ok(b) for b in part):
            return True
    return False


def k_anonymity_separated_bruteforce(points, eps, k) -> bool:
    """Does a partition into blocks of size >= k exist in which

      * every block has MEB <= eps, so the closed eps-balls of its rows
        share a point and the block is a full simplex of the nerve, and
      * no two rows of different blocks lie within 2*eps, so no closed
        eps-ball of one block meets one of another and the blocks are
        disjoint simplices of the nerve?

    This is the nerve characterization of k-anonymity, stated directly
    as a search over set partitions."""
    n = len(points)
    if k > n:
        return False
    block_ok = _block_meb_within(points, eps)
    near = {(i, j) for i, j in itertools.combinations(range(n), 2)
            if dist(points[i], points[j]) <= 2 * eps}

    def separated(part):
        return not any((min(i, j), max(i, j)) in near
                       for a, b in itertools.combinations(part, 2)
                       for i in a for j in b)

    for part in set_partitions(range(n)):
        if (all(len(b) >= k for b in part) and separated(part)
                and all(block_ok(b) for b in part)):
            return True
    return False


def gf2_rank(columns) -> int:
    rows = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            if low in rows:
                col ^= rows[low]
            else:
                rows[low] = col
                rank += 1
                break
    return rank


def betti_numbers(simplices_by_dim) -> list[int]:
    """Betti numbers from explicit simplex lists per dimension, by
    rank-nullity over GF(2)."""
    cap = len(simplices_by_dim) - 1
    ranks = [0] * (cap + 2)
    for d in range(1, cap + 1):
        faces = {s: i for i, s in enumerate(simplices_by_dim[d - 1])}
        cols = []
        for s in simplices_by_dim[d]:
            mask = 0
            for f in itertools.combinations(s, len(s) - 1):
                mask |= 1 << faces[f]
            cols.append(mask)
        ranks[d] = gf2_rank(cols)
    return [len(simplices_by_dim[d]) - ranks[d] - ranks[d + 1]
            for d in range(cap + 1)]


def simplex_dim(simplex: Simplex) -> int:
    return len(simplex) - 1


def balls_intersect(points, eps: float) -> bool:
    """Do the closed eps-balls around the points share a common point?

    Closed-ball convention: equality with the MEB radius counts.
    """
    if eps < 0:
        raise ContractViolation(f"eps must be nonnegative, got {eps}")
    return min_enclosing_ball(points).radius <= eps


@dataclass(frozen=True)
class SimplicialComplex:
    simplices: frozenset[Simplex]
    dim_cap: int

    def __contains__(self, simplex) -> bool:
        return tuple(sorted(simplex)) in self.simplices

    def simplices_of_dim(self, dim: int) -> list[Simplex]:
        return sorted(s for s in self.simplices if simplex_dim(s) == dim)

    def counts(self) -> list[int]:
        out = [0] * (self.dim_cap + 1)
        for s in self.simplices:
            out[simplex_dim(s)] += 1
        return out


def build_anonymity_complex(data: NormalizedDataset, eps: float,
                            dim_cap: int) -> SimplicialComplex:
    """The complex at radius eps: a simplex per subset whose balls meet.

    Built by upward extension so that only supersets of known simplices
    get their MEB tested (downward closure prunes the rest).
    """
    if dim_cap < 1:
        raise ContractViolation("dim_cap must be >= 1")
    if eps < 0:
        raise ContractViolation(f"eps must be nonnegative, got {eps}")
    ids = list(data.row_ids)
    simplices: set[Simplex] = {(v,) for v in ids}
    current = [(v,) for v in ids]
    for size in range(2, dim_cap + 2):
        nxt = []
        seen = set()
        for s in current:
            for v in ids:
                if v <= s[-1]:
                    continue
                cand = s + (v,)
                if cand in seen:
                    continue
                seen.add(cand)
                if balls_intersect(subset(data, cand), eps):
                    nxt.append(cand)
        simplices.update(nxt)
        current = nxt
    return SimplicialComplex(simplices=frozenset(simplices), dim_cap=dim_cap)


def is_anonymity_simplex(data: NormalizedDataset, rows, eps: float,
                         k: int) -> bool:
    """Can these rows be generalized together at radius eps as a group
    of at least k?  (Point count, not simplex dimension, compares to k.)
    """
    rows = tuple(sorted(rows))
    if not rows:
        raise ContractViolation("subset must be nonempty")
    if k < 1:
        raise ContractViolation("k must be >= 1")
    pts = subset(data, rows)
    return len(rows) >= k and balls_intersect(pts, eps)


def homology_dims_at(complex_: SimplicialComplex) -> list[int]:
    """Betti numbers dim H_0 .. dim H_(dim_cap - 1) by rank-nullity."""
    cap = complex_.dim_cap
    return betti_numbers([complex_.simplices_of_dim(d)
                          for d in range(cap + 1)])[:cap]


def filtration_births(data: NormalizedDataset,
                      dim_cap: int) -> tuple[np.ndarray, ...]:
    """The births of every simplex of dim <= dim_cap, one array per
    dimension by lexicographic rank: zeros for the vertices, then
    simplex_births for each larger size, given its facets' births."""
    births = [np.zeros(data.n_points)]
    for size in range(2, dim_cap + 2):
        births.append(simplex_births(data, size, births[-1]))
    return tuple(births)


def filtration_entries(data: NormalizedDataset,
                       births) -> list[tuple[float, Simplex]]:
    """Every simplex of a births tuple as (birth, row-id tuple), sorted
    by (birth, dimension, lexicographic row ids).  births[p] is read as
    the p-simplices in the order itertools.combinations lists them."""
    entries = [(b, s) for p, born in enumerate(births)
               for b, s in zip(born.tolist(),
                               itertools.combinations(data.row_ids, p + 1),
                               strict=True)]
    return sorted(entries, key=lambda e: (e[0], len(e[1]), e[1]))


def sublevel(entries, eps: float, dim_cap: int) -> SimplicialComplex:
    """The complex of all simplices born at or before eps."""
    return SimplicialComplex(
        simplices=frozenset(s for b, s in entries if b <= eps),
        dim_cap=dim_cap,
    )


def critical_values(entries) -> list[float]:
    return sorted({b for b, _ in entries})


@dataclass(frozen=True)
class BoundaryMatrix:
    """Per filtration entry, the indices of its codimension-1 faces."""

    columns: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...]


@dataclass(frozen=True)
class PersistencePairs:
    pairs: tuple[tuple[int, int], ...]   # (birth index, death index)
    unpaired: tuple[int, ...]


def boundary_matrix(entries) -> BoundaryMatrix:
    index = {s: i for i, (_, s) in enumerate(entries)}
    cols, dims = [], []
    for i, (_, s) in enumerate(entries):
        dims.append(simplex_dim(s))
        if len(s) == 1:
            cols.append(())
            continue
        faces = []
        for f in itertools.combinations(s, len(s) - 1):
            j = index.get(f)
            if j is None or j >= i:
                raise ContractViolation(
                    f"face {f} of {s} missing or out of order in filtration")
            faces.append(j)
        cols.append(tuple(sorted(faces)))
    return BoundaryMatrix(columns=tuple(cols), dims=tuple(dims))


def reduce_matrix(bm: BoundaryMatrix) -> PersistencePairs:
    """Standard left-to-right column reduction with low-index pairing."""
    n = len(bm.columns)
    cols = [sum(1 << f for f in c) for c in bm.columns]
    low_owner: dict[int, int] = {}
    pairs = []
    for j in range(n):
        col = cols[j]
        while col:
            low = col.bit_length() - 1
            other = low_owner.get(low)
            if other is None:
                break
            col ^= cols[other]
        cols[j] = col
        if col:
            low = col.bit_length() - 1
            low_owner[low] = j
            pairs.append((low, j))
    killed = {i for i, _ in pairs} | {j for _, j in pairs}
    unpaired = tuple(i for i in range(n) if i not in killed)
    return PersistencePairs(pairs=tuple(sorted(pairs)), unpaired=unpaired)


def barcode(pairs: PersistencePairs, entries,
            dim_cap: int) -> tuple[Bar, ...]:
    """Bars of the dimensions below dim_cap.  A simplex of the top
    dimension has no cofaces in the filtration, so its bar would stay
    open forever whatever the data."""
    ends = [(i, entries[j][0]) for i, j in pairs.pairs]
    ends += [(i, None) for i in pairs.unpaired]
    bars = [Bar(dim=simplex_dim(entries[i][1]),
                birth=entries[i][0], death=death)
            for i, death in ends
            if simplex_dim(entries[i][1]) < dim_cap]
    bars.sort(key=lambda b: (b.dim, b.birth,
                             float("inf") if b.death is None else b.death))
    return tuple(bars)


def ancestor_walk(root: str, parent: dict, value: str, level: int) -> str:
    """The value's ancestor ``level`` steps up, by following parent links
    (stopping at the root)."""
    node = value
    for _ in range(level):
        if node == root:
            break
        node = parent[node]
    return node


def tree_links(tree) -> tuple[str, dict]:
    """A tree's root and child -> parent links, read off its leaves'
    chains."""
    chains = tree.ancestors.values()
    parent = {child: up for chain in chains
              for child, up in zip(chain, chain[1:])}
    return next(iter(chains))[-1], parent


class ReferenceTree:
    """A tree stored as its parent map, with the leaf chains derived from
    it by a second walk: the package's tree before it became its chains,
    kept as the reference for ``trees_from_dict``."""

    def __init__(self, attribute: str, root: str, parent: dict[str, str]):
        # parent: child -> parent, root absent
        self.attribute, self.root, self.parent = attribute, root, parent

    @property
    def nodes(self) -> set[str]:
        return set(self.parent) | {self.root}

    @property
    def ancestors(self) -> dict[str, tuple[str, ...]]:
        inner = set(self.parent.values())
        leaves = sorted(n for n in self.parent if n not in inner)
        table = {}
        for leaf in leaves or [self.root]:
            chain = [leaf]
            while chain[-1] != self.root:
                chain.append(self.parent[chain[-1]])
            table[leaf] = tuple(chain)
        return table


def reference_problems(tree: ReferenceTree) -> list[str]:
    """All invariant violations, empty when the tree is well formed."""
    problems = []
    if tree.root in tree.parent:
        problems.append(f"root {tree.root!r} has a parent")
    for child, par in tree.parent.items():
        if par not in tree.nodes:
            problems.append(f"node {child!r} has unknown parent {par!r}")
    # reachability: every node must walk up to the root without a cycle
    for node in tree.parent:
        seen = {node}
        cur = node
        while cur != tree.root:
            cur = tree.parent.get(cur)
            if cur is None or cur in seen:
                problems.append(f"node {node!r} cannot reach the root")
                break
            seen.add(cur)
    if not problems:
        depths = {len(chain) - 1 for chain in tree.ancestors.values()}
        if len(depths) > 1:
            problems.append(
                f"leaves sit at mixed depths {sorted(depths)}; levels "
                f"would be ambiguous")
    return problems


def reference_trees(spec: dict) -> list[ReferenceTree]:
    """The trees of a definition whose names are all strings, each
    checked by ``reference_problems``; the errors raised carry the
    package's text."""
    trees = []
    for attr, body in spec.items():
        if not isinstance(body, dict) or "root" not in body:
            raise TreeDefinitionError(f"attribute {attr!r}: missing root")
        parent = {}
        for par, children in body.items():
            if par == "root":
                continue
            if not isinstance(children, list):
                raise TreeDefinitionError(
                    f"attribute {attr!r}: children of {par!r} must be a list")
            for child in children:
                if child in parent:
                    raise TreeDefinitionError(
                        f"attribute {attr!r}: {child!r} has two parents")
                parent[child] = par
        tree = ReferenceTree(attr, body["root"], parent)
        problems = reference_problems(tree)
        if problems:
            raise TreeDefinitionError(
                f"attribute {attr!r}: " + "; ".join(problems))
        trees.append(tree)
    return trees


def chain_sweep_elder(rows, trees, path):
    """Partitions and weighted H0 bars along a lattice path.

    Partitions group rows by their tuples of walked ancestors; the bars
    follow the elder rule with an explicit representative (the smallest
    row id of a bar's class) and member list per bar, merged across
    steps.  Returns (partitions, bars) in ``ChainReport.h0_bars`` form:
    H0 ``Bar``s whose birth, death and steps are path positions.
    """
    links = [tree_links(t) for t in trees]
    partitions = []
    for node in path:
        buckets = {}
        for rid, row in enumerate(rows, start=1):
            key = tuple(ancestor_walk(*link, v, lvl)
                        for link, v, lvl in zip(links, row, node))
            buckets.setdefault(key, []).append(rid)
        partitions.append(sorted(tuple(v) for v in buckets.values()))
    rep, members, bar_steps = {}, {}, {}
    for cls in partitions[0]:
        r = min(cls)
        members[r] = list(cls)
        bar_steps[r] = [(0, len(cls))]
        for rid in cls:
            rep[rid] = r
    deaths = {}
    for idx, classes in enumerate(partitions[1:], start=1):
        for cls in classes:
            reps = sorted({rep[rid] for rid in cls})
            if len(reps) == 1:
                continue
            survivor = reps[0]
            for dying in reps[1:]:
                deaths[dying] = idx
                members[survivor] += members.pop(dying)
            bar_steps[survivor].append((idx, len(members[survivor])))
            for rid in cls:
                rep[rid] = survivor
    bars = tuple(sorted(
        (Bar(0, 0, deaths.get(r), tuple(bar_steps[r])) for r in bar_steps),
        key=lambda b: (b.death is None, b.death or 0, b.weight_steps)))
    return partitions, bars


def exhaustive_nodes(rows, trees, k: int) -> tuple:
    """The k-anonymous lattice nodes of least level sum, in lexicographic
    order, from the partition at every node of the lattice."""
    good = [node for node in itertools.product(
                *(range(t.height + 1) for t in trees))
            if all(len(c) >= k
                   for c in generalized_partition_at(rows, trees, node))]
    if not good:
        return ()
    least = min(map(sum, good))
    return tuple(sorted(node for node in good if sum(node) == least))
