"""Independent checks of anonytope's CLI outputs.

Uses numpy only and imports nothing from anonytope: every expected value
is recomputed here from the generated input (min-max scaling, pairwise
distances, single-linkage components, a Prim minimum spanning tree, an
integer ancestor table).  Each ``check_*`` function returns a list of
problems; an empty list means the answer is accepted.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

# relative slack on distance thresholds: distances computed here may
# differ from the program's in the last bits
_REL = 1e-12
# absolute tolerance on H0 deaths against the MST
H0_TOL = 1e-12


def normalize(points: np.ndarray) -> np.ndarray:
    """Min-max scale each column onto [0, 1]; constant columns map to 0."""
    pts = np.asarray(points, float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return np.where(hi > lo, (pts - lo) / span, 0.0)


def pairwise(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def components(dist: np.ndarray, threshold: float) -> list[tuple[int, ...]]:
    """Single-linkage components of the graph with an edge wherever
    dist <= threshold, as sorted tuples of 1-based row ids, sorted."""
    adj = dist <= threshold
    label = np.full(len(dist), -1)
    comps = []
    for start in range(len(dist)):
        if label[start] >= 0:
            continue
        label[start] = len(comps)
        frontier = [start]
        members = [start]
        while frontier:
            fresh = np.flatnonzero(adj[frontier].any(axis=0) & (label < 0))
            label[fresh] = len(comps)
            members.extend(fresh.tolist())
            frontier = fresh.tolist()
        comps.append(tuple(sorted(m + 1 for m in members)))
    return sorted(comps)


def mst_lengths(dist: np.ndarray) -> np.ndarray:
    """Edge lengths of a minimum spanning tree (Prim, O(N^2))."""
    n = len(dist)
    best = dist[0].copy()
    done = np.zeros(n, bool)
    done[0] = True
    out = []
    for _ in range(n - 1):
        cand = np.where(done, np.inf, best)
        v = int(np.argmin(cand))
        out.append(cand[v])
        done[v] = True
        best = np.minimum(best, dist[v])
    return np.sort(np.array(out))


def _diameter(dist: np.ndarray, comp) -> float:
    idx = np.array(comp) - 1
    return float(dist[np.ix_(idx, idx)].max())


def check_regimes(report: dict, k: int, dist: np.ndarray) -> list[str]:
    """A regime report for one k: classes partition the rows into groups
    of size >= k that are exactly the single-linkage components on the
    whole interval, intervals are ordered and disjoint, and the last one
    is unbounded."""
    n = len(dist)
    problems = []
    if report.get("k") != k:
        problems.append(f"regime report k={report.get('k')} != {k}")
    regimes = report.get("regimes", [])
    if k <= n and not regimes:
        problems.append(f"k={k}: no regimes although k <= N")
    prev_hi = -math.inf
    for i, r in enumerate(regimes):
        where = f"k={k} regime {i}"
        lo, hi = r["eps_lo"], r["eps_hi"]
        classes = sorted(tuple(sorted(c)) for c in r["classes"])
        if r["n_classes"] != len(classes):
            problems.append(f"{where}: n_classes {r['n_classes']} != "
                            f"{len(classes)}")
        if sorted(v for c in classes for v in c) != list(range(1, n + 1)):
            problems.append(f"{where}: classes do not partition rows 1..{n}")
        if any(len(c) < k for c in classes):
            problems.append(f"{where}: a class is smaller than k")
        if not lo >= prev_hi:
            problems.append(f"{where}: starts at {lo!r} before the previous "
                            f"regime ends at {prev_hi!r}")
        if hi is not None and not lo < hi:
            problems.append(f"{where}: empty interval [{lo!r}, {hi!r})")
        if hi is None and i != len(regimes) - 1:
            problems.append(f"{where}: unbounded regime is not the last")
        if components(dist, 2 * lo * (1 + _REL)) != classes:
            problems.append(f"{where}: classes differ from the components "
                            f"at 2*eps_lo")
        if hi is not None and components(dist, 2 * hi * (1 - _REL)) != classes:
            problems.append(f"{where}: classes differ from the components "
                            f"just below 2*eps_hi")
        # Jung lower bound: a class of diameter D needs radius >= D/2
        widest = max((_diameter(dist, c) for c in classes), default=0.0)
        if lo < widest / 2 * (1 - _REL):
            problems.append(f"{where}: eps_lo {lo!r} below half the widest "
                            f"class diameter {widest / 2!r}")
        prev_hi = math.inf if hi is None else hi
    if regimes and k <= n and regimes[-1]["eps_hi"] is not None:
        problems.append(f"k={k}: last regime is bounded")
    return problems


def _weight_at(steps, eps: float) -> int:
    w = 0
    for e, size in steps:
        if e <= eps:
            w = size
    return w


def check_barcode(doc: dict, dist: np.ndarray) -> list[str]:
    """barcode.json: one H0 bar per row, finite H0 deaths equal half the
    MST edge lengths, and the live H0 weights sum to N at every death."""
    n = len(dist)
    problems = []
    if doc.get("n_points") != n:
        problems.append(f"n_points {doc.get('n_points')} != {n}")
    h0 = [b for b in doc.get("bars", []) if b["dim"] == 0]
    if len(h0) != n:
        problems.append(f"{len(h0)} H0 bars for {n} rows")
    if any(b["birth"] != 0.0 for b in h0):
        problems.append("an H0 bar is not born at 0")
    for b in doc.get("bars", []):
        if b["death"] is not None and not b["death"] >= b["birth"]:
            problems.append(f"bar dies before it is born: {b}")
            break
    deaths = np.sort(np.array([b["death"] for b in h0
                               if b["death"] is not None], float))
    want = mst_lengths(dist) / 2.0
    if len(deaths) != len(want):
        problems.append(f"{len(deaths)} finite H0 deaths, MST has "
                        f"{len(want)} edges")
    else:
        err = float(np.max(np.abs(deaths - want), initial=0.0))
        if err > H0_TOL:
            problems.append(f"H0 deaths differ from half the MST edge "
                            f"lengths by up to {err:.3g}")
    if any(b.get("weight_steps") is None for b in h0):
        problems.append("an H0 bar has no weight steps")
        return problems
    for eps in [0.0, *deaths.tolist()]:
        live = [b for b in h0 if b["death"] is None or eps < b["death"]]
        total = sum(_weight_at(b["weight_steps"], eps) for b in live)
        if total != n:
            problems.append(f"live H0 weights sum to {total} at eps={eps!r}, "
                            f"not {n}")
            break
    return problems


def check_svg(text: str) -> list[str]:
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return ["SVG output is not a complete <svg> document"]
    return []


_CLASS_LIST = re.compile(r"\[([0-9, ]*)\]")


def _id_lists(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(v) for v in m.split(",") if v.strip())
            for m in _CLASS_LIST.findall(text)]


def expected_verdict(dist: np.ndarray, dim: int, k: int, eps: float):
    """What the component test may say at (k, eps).

    Returns (allowed, partitions, candidates).  ``allowed`` holds the
    verdict kinds ("achieved", "component_too_small",
    "component_not_simplex") consistent with the checker's components
    and the MEB bounds diam/2 <= r <= diam * sqrt(d / (2 (d + 1)))
    (Jung); more than one kind means the bounds leave the case
    undecided.  ``partitions`` are the acceptable achieved classes and
    ``candidates`` the components the program may report as failing.
    """
    below = components(dist, 2 * eps * (1 - 1e-9))
    comps = components(dist, 2 * eps * (1 + 1e-9))
    if below != comps:      # a pairwise distance within 1e-9 of 2*eps
        return ({"achieved", "component_too_small", "component_not_simplex"},
                [below, comps], below + comps)
    small = [c for c in comps if len(c) < k]
    if small:
        # the program reports the first too-small component in order
        return {"component_too_small"}, [], small[:1]
    jung = math.sqrt(dim / (2.0 * (dim + 1)))
    diam = [_diameter(dist, c) if len(c) > 1 else 0.0 for c in comps]
    if all(d * jung <= eps * (1 - 1e-9) for d in diam):
        return {"achieved"}, [comps], []
    allowed = {"component_not_simplex"}
    if all(d / 2 <= eps * (1 + 1e-9) for d in diam):
        allowed.add("achieved")
    # the program reports the first component (in sorted order) whose
    # MEB exceeds eps, so every component before it must fit
    cands = []
    for c, d in zip(comps, diam):
        if d * jung > eps * (1 - 1e-9):
            cands.append(c)
        if d / 2 > eps * (1 + 1e-9):
            break
    return allowed, [comps], cands


def check_verdict(dist: np.ndarray, dim: int, k: int, eps: float,
                  exit_code: int, stdout: str, stderr: str):
    """One ``anonytope check`` answer.  Returns (problems, kind,
    undecided): kind is the verdict the program gave, undecided whether
    the checker's bounds could not settle the case on their own."""
    allowed, partitions, cands = expected_verdict(dist, dim, k, eps)
    undecided = len(allowed) > 1
    where = f"k={k} eps={eps!r}"
    if exit_code == 0:
        got = "achieved"
        classes = sorted(_id_lists(stdout.split(":", 1)[-1]))
        ok = classes in partitions
        detail = "achieved classes differ from the components at 2*eps"
    elif exit_code == 2:
        match = re.search(r": (component_\w+) (\[[0-9, ]*\])", stderr)
        if match is None:
            return [f"{where}: unreadable verdict {stderr!r}"], None, undecided
        got = match.group(1)
        ok = _id_lists(match.group(2))[0] in cands
        detail = "reported component cannot be the first failing one"
    else:
        return [f"{where}: exit code {exit_code}"], None, undecided
    problems = [] if ok else [f"{where}: {detail}"]
    if got not in allowed:
        problems.append(f"{where}: verdict {got}, expected one of "
                        f"{sorted(allowed)}")
    return problems, got, undecided


def ancestor_table(fanout: tuple[int, ...]) -> np.ndarray:
    """(height + 1, leaves) integer table: code of each leaf's ancestor at
    each level, level 0 being the leaf itself and the top the root."""
    leaves = int(np.prod(fanout))
    codes = np.arange(leaves)
    rows = [codes]
    div = 1
    for b in reversed(fanout):
        div *= b
        rows.append(codes // div)
    return np.stack(rows)


def anonymous_nodes(codes: np.ndarray, branching, k: int):
    """Every lattice node at which all classes have >= k rows."""
    tables = [ancestor_table(b) for b in branching]
    radix = [int(np.prod(b)) for b in branching]
    heights = [len(b) for b in branching]
    good = []
    for node in np.ndindex(*(h + 1 for h in heights)):
        key = np.zeros(len(codes), np.int64)
        for a, level in enumerate(node):
            key = key * radix[a] + tables[a][level][codes[:, a]]
        _, counts = np.unique(key, return_counts=True)
        if counts.min() >= k:
            good.append(tuple(int(v) for v in node))
    return good


def check_lattice(payload: dict, k: int, codes: np.ndarray,
                  branching) -> list[str]:
    """Exhaustive lattice search: the returned nodes are exactly the
    k-anonymous nodes of least level sum."""
    good = anonymous_nodes(codes, branching, k)
    best = min((sum(n) for n in good), default=None)
    want = sorted(n for n in good if sum(n) == best)
    got = sorted(tuple(n) for n in payload.get("nodes", []))
    problems = []
    if payload.get("k") != k:
        problems.append(f"lattice report k={payload.get('k')} != {k}")
    if got != want:
        problems.append(f"k={k}: minimal anonymous nodes {got}, expected "
                        f"{want}")
    return problems


def self_test(barcode_path, dist: np.ndarray, regimes_path=None,
              k: int | None = None) -> list[str]:
    """Corrupt accepted outputs and check that they are rejected: one H0
    death shifted by 1e-6 in barcode.json and, given a regime report, one
    class dropped from its first regime.  Returns the corrupted outputs
    that were wrongly accepted."""
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    missed = []
    doc = load(barcode_path)
    bar = next(b for b in doc["bars"] if b["dim"] == 0 and b["death"])
    bar["death"] += 1e-6
    if not check_barcode(doc, dist):
        missed.append("barcode.json with a shifted H0 death")
    if regimes_path is not None:
        report = load(regimes_path)
        first = report["regimes"][0]
        first["classes"].pop()
        first["n_classes"] -= 1
        if not check_regimes(report, k, dist):
            missed.append("regime JSON with a dropped class")
    return missed
