"""Categorical attributes: generalization trees, each the ancestor chains
of its leaves, checked and built when its definition is read; the product
lattice of per-attribute levels; and anonymity sweeps along monotone
lattice chains.

Levels here replace the radius of the numeric case: raising one
attribute's level coarsens the partition of identical generalized
tuples, so a monotone path through the lattice behaves like a filtration
and ``homology.elder_bars`` gives its weighted H0 bars from the merges
between consecutive partitions, indexed by path position.  Searches and
sweeps return plain records; ``cli`` writes them as ``lattice_k*.json``.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby, product
from typing import TYPE_CHECKING, NamedTuple

from .errors import (STRATEGY_EXHAUSTIVE, STRATEGY_LOWER_THEN_UPPER,
                     ContractViolation, IngestionError, TreeDefinitionError,
                     read_yaml)

if TYPE_CHECKING:
    from .homology import Bar

LatticeNode = tuple[int, ...]

# The records below are NamedTuples, not dataclasses:
# ``dataclasses`` imports ``inspect``, which costs a numpy-free
# ``lattice-sweep`` more than its lattice search.


class GeneralizationTree(NamedTuple):
    """Per-attribute hierarchy as its leaves' ancestor chains: per leaf,
    in sorted order, the leaf and each ancestor up to the root, so entry
    ``level`` is the leaf generalized to that level; every leaf sits at
    depth ``height``.  ``trees_from_dict`` builds it."""
    attribute: str
    ancestors: dict[str, tuple[str, ...]]

    @property
    def height(self) -> int:
        return max(map(len, self.ancestors.values())) - 1


def generalize_value(tree: GeneralizationTree, value: str, level: int) -> str:
    chain = tree.ancestors.get(value)
    if chain is None:
        raise ContractViolation(
            f"{value!r} is not a leaf of tree {tree.attribute!r}")
    if not 0 <= level < len(chain):
        raise ContractViolation(
            f"level {level} outside [0, {len(chain) - 1}] "
            f"for tree {tree.attribute!r}")
    return chain[level]


def _yaml_name(value, what: str) -> str:
    """A tree or node name as a string; YAML reads some unquoted words as
    a boolean or null, which name nothing in the CSV."""
    if value is None or isinstance(value, bool):
        raise TreeDefinitionError(
            f"{what} {value!r} is not a string: YAML reads an unquoted "
            f"yes, no, on, off or null as a boolean or null; quote the name")
    return str(value)


def trees_from_dict(spec: dict) -> list[GeneralizationTree]:
    """Parse the tree-definition document: per attribute a root name and
    parent -> [children] listing.  Every tree is checked."""
    trees = []
    for attr, body in spec.items():
        _yaml_name(attr, "tree name")
        if not isinstance(body, dict) or "root" not in body:
            raise TreeDefinitionError(f"attribute {attr!r}: missing root")
        node = f"attribute {attr!r}: node"
        root = _yaml_name(body["root"], node)
        parent: dict[str, str] = {}
        for par, children in body.items():
            if par == "root":
                continue
            par = _yaml_name(par, node)
            if not isinstance(children, list):
                raise TreeDefinitionError(
                    f"attribute {attr!r}: children of {par!r} must be a list")
            for child in children:
                child = _yaml_name(child, node)
                if child in parent:
                    raise TreeDefinitionError(
                        f"attribute {attr!r}: {child!r} has two parents")
                parent[child] = par
        trees.append(GeneralizationTree(attr, _chains(attr, root, parent)))
    return trees


def _chains(attr, root: str, parent: dict[str, str]) -> dict[str, tuple]:
    """Each leaf's chain up to the root, in sorted leaf order, from one
    walk up from every node; any invariant violation raises."""
    problems = [f"root {root!r} has a parent"] if root in parent else []
    problems += [f"node {child!r} has unknown parent {par!r}"
                 for child, par in parent.items()
                 if par != root and par not in parent]
    inner, chains = set(parent.values()), {}
    for node in parent:
        chain = [node]
        while chain[-1] != root:
            up = parent.get(chain[-1])
            if up is None or up in chain:
                problems.append(f"node {node!r} cannot reach the root")
                break
            chain.append(up)
        if chain[-1] == root and node not in inner:
            chains[node] = tuple(chain)
    depths = sorted({len(chain) - 1 for chain in chains.values()})
    if len(depths) > 1 and not problems:
        problems.append(f"leaves sit at mixed depths {depths}; levels "
                        f"would be ambiguous")
    if problems:
        raise TreeDefinitionError(f"attribute {attr!r}: "
                                  + "; ".join(problems))
    # a root alone is its one leaf
    return dict(sorted(chains.items())) or {root: (root,)}


# the plain words that YAML 1.1 reads as a boolean or null
_YAML_WORDS = frozenset(
    form for word in ("yes", "no", "true", "false", "on", "off", "null")
    for form in (word, word.title(), word.upper()))


def _plain_name(token: str) -> str | None:
    """The name a token spells in the plain layout, or None: a nonempty
    single-quoted run of printable ASCII without a quote, or a plain word
    ``[A-Za-z_]([A-Za-z0-9_. -]*[A-Za-z0-9_.-])?`` that YAML reads as
    a string.  The text is known to be ASCII, so ``isalnum`` and
    ``isprintable`` test ASCII classes."""
    if token[:1] == "'":
        inner = token[1:-1]
        if (len(token) > 2 and token[-1] == "'" and "'" not in inner
                and inner.isprintable()):
            return inner
        return None
    word = token
    for mark in "_.- ":
        word = word.replace(mark, "a")
    if ((token[:1].isalpha() or token[:1] == "_") and word.isalnum()
            and token[-1] != " " and token not in _YAML_WORDS):
        return token
    return None


def _plain_names(value: str) -> list[str] | None:
    """The names of a ``[name, name, ...]`` flow list, or None."""
    if value[:1] != "[" or value[-1:] != "]":
        return None
    inner, at, names = value[1:-1], 0, []
    while True:
        if inner[at:at + 1] == "'":
            end = inner.find("'", at + 1) + 1
        else:
            end = inner.find(", ", at)
        if end <= at:           # no closing quote or no further comma
            end = len(inner)
        name = _plain_name(inner[at:end])
        if name is None:
            return None
        names.append(name)
        if end == len(inner):
            return names
        if inner[end:end + 2] != ", ":
            return None
        at = end + 2


def _plain_trees(text: str) -> dict | None:
    """The document ``yaml.safe_load`` reads from text in the plain trees
    layout, or None for any other text.  In that layout each line is
    either ``name:`` at column 0, or ``name: name`` or ``name: [name,
    name, ...]`` under it at one indent shared by the whole file, and
    every top-level name has at least one such line."""
    if not text.isascii():
        return None
    doc, body, indent = {}, None, None
    for line in text.removesuffix("\n").split("\n"):
        rest = line.lstrip(" ")
        if rest == line:
            if body == {}:
                return None
            # YAML limits a key to 1024 characters
            name = (_plain_name(line[:-1])
                    if line[-1:] == ":" and len(line) <= 1025 else None)
            if name is None:
                return None
            doc[name] = body = {}
            continue
        width = len(line) - len(rest)
        indent = indent or width
        if body is None or width != indent:
            return None
        sep = rest.find("'", 1) + 1 if rest[:1] == "'" else rest.find(": ")
        key = _plain_name(rest[:sep]) if 0 < sep <= 1024 else None
        if key is None or rest[sep:sep + 2] != ": ":
            return None
        value = rest[sep + 2:]
        value = (_plain_names(value) if value[:1] == "[" else
                 _plain_name(value))
        if value is None:
            return None
        body[key] = value
    return doc if body else None


def load_trees(path) -> list[GeneralizationTree]:
    """The trees a YAML file defines.  A file in the plain layout of
    ``_plain_trees`` is read without PyYAML; any other file, and every
    error, goes through ``read_yaml``."""
    with open(path, "rb") as fh:
        # latin-1 decodes any bytes; the reader refuses all but ASCII
        spec = _plain_trees(fh.read().decode("latin-1"))
    if spec is None:
        spec = read_yaml(path)
    if not isinstance(spec, dict) or not spec:
        raise TreeDefinitionError(f"{path}: no tree definitions found")
    return trees_from_dict(spec)


def _ancestor_chains(rows, trees) -> list[list[tuple[str, ...]]]:
    """Per attribute and level, every row's value generalized to that
    level: entry ``[a][level][i]`` belongs to row i + 1.  Every row's
    arity and values are checked here, once."""
    tables = [tree.ancestors for tree in trees]
    chains = [[] for _ in trees]
    for rid, row in enumerate(rows, start=1):
        if len(row) != len(trees):
            raise IngestionError(f"row {rid} has {len(row)} values, "
                                 f"expected {len(trees)}")
        for tree, table, column, value in zip(trees, tables, chains, row):
            chain = table.get(str(value))
            if chain is None:
                raise ContractViolation(f"{str(value)!r} is not a leaf of "
                                        f"tree {tree.attribute!r}")
            column.append(chain)
    return [list(zip(*column)) or [()] * (tree.height + 1)
            for tree, column in zip(trees, chains)]


def _check_node(trees, node: LatticeNode) -> None:
    if len(node) != len(trees):
        raise ContractViolation("node arity does not match tree count")
    for tree, level in zip(trees, node):
        if not 0 <= level <= tree.height:
            raise ContractViolation(
                f"level {level} outside [0, {tree.height}] "
                f"for tree {tree.attribute!r}")


def _keys_at(chains, node: LatticeNode):
    """Each row's generalized tuple at the node, in row order."""
    return zip(*(levels[level] for levels, level in zip(chains, node)))


def _classes_at(chains, node: LatticeNode) -> list[tuple[int, ...]]:
    buckets: dict[tuple, list[int]] = {}
    for rid, key in enumerate(_keys_at(chains, node), start=1):
        buckets.setdefault(key, []).append(rid)
    return sorted(tuple(v) for v in buckets.values())


def generalized_partition_at(rows: list[tuple], trees, node: LatticeNode):
    """Classes of rows whose generalized tuples at these levels coincide.

    A class of m rows is exactly a generalized anonymity simplex on m
    points.  Row ids are 1-based.
    """
    _check_node(trees, node)
    return _classes_at(_ancestor_chains(rows, trees), node)


class ChainStep(NamedTuple):
    node: LatticeNode
    classes: tuple[tuple[int, ...], ...]
    k_anonymous: bool


class ChainReport(NamedTuple):
    steps: tuple[ChainStep, ...]
    k: int
    # weighted H0 over path index: births, deaths and weight steps are
    # path positions
    h0_bars: tuple[Bar, ...]

    @property
    def first_anonymous_node(self) -> LatticeNode | None:
        for step in self.steps:
            if step.k_anonymous:
                return step.node
        return None


def _is_monotone(path) -> bool:
    for prev, cur in zip(path, path[1:]):
        diffs = [c - p for p, c in zip(prev, cur)]
        if sorted(diffs) != [0] * (len(diffs) - 1) + [1]:
            return False
    return True


def chain_sweep(rows, trees, path, k: int) -> ChainReport:
    """Partitions, verdicts, and the weighted H0 barcode along one
    monotone lattice path."""
    if k < 1:
        raise ContractViolation("k must be >= 1")
    path = tuple(tuple(n) for n in path)
    if not path:
        raise ContractViolation("path must be nonempty")
    if not _is_monotone(path):
        raise ContractViolation("path must increment one level per step")
    for node in path:
        _check_node(trees, node)
    return _sweep(_ancestor_chains(rows, trees), path, k)


def _sweep(chains, path, k: int) -> ChainReport:
    """chain_sweep over the rows' ancestor chains, along a path that is
    known to be valid."""
    from .homology import elder_bars

    steps = []
    for node in path:
        classes = _classes_at(chains, node)
        steps.append(ChainStep(
            node=node, classes=tuple(classes),
            k_anonymous=all(len(c) >= k for c in classes)))

    # partitions only coarsen along the path and each class is ascending,
    # so a class's bar belongs to its first row, and every other row of
    # it that headed a class one step earlier merges into that bar
    merges = []
    for idx, (prev, cur) in enumerate(zip(steps, steps[1:]), start=1):
        heads = {cls[0] for cls in prev.classes}
        merges += ((idx, cls[0], rid, len(cls)) for cls in cur.classes
                   for rid in cls[1:] if rid in heads)
    bars = tuple(sorted(
        elder_bars({cls[0]: (0, len(cls)) for cls in steps[0].classes},
                   merges),
        key=lambda b: (b.death is None, b.death or 0, b.weight_steps)))
    return ChainReport(steps=tuple(steps), k=k, h0_bars=bars)


def lower_chain(heights: tuple[int, ...]) -> list[LatticeNode]:
    """Bottom row of the lattice diagram: all attributes at level 0, the
    last one swept from 0 to its height."""
    return [(0,) * (len(heights) - 1) + (s,) for s in range(heights[-1] + 1)]


def upper_chain(heights: tuple[int, ...]) -> list[LatticeNode]:
    """Top row: all attributes but the last at their maximum level."""
    return [tuple(heights[:-1]) + (s,) for s in range(heights[-1] + 1)]


class LatticeSearchResult(NamedTuple):
    nodes: tuple[LatticeNode, ...]          # earliest k-anonymous nodes
    reports: tuple[ChainReport, ...]
    note: str

    @property
    def upper_chain_skipped(self) -> bool:
        # lower_then_upper stops after one chain when the lower hits or
        # is the upper too; exhaustive sweeps no chain
        return len(self.reports) == 1


def lattice_search(rows, trees, k: int,
                   strategy: str = STRATEGY_LOWER_THEN_UPPER
                   ) -> LatticeSearchResult:
    """Find k-anonymous lattice nodes.

    lower_then_upper sweeps the diagram's lower chain first; success
    there carries over to the upper chain by inclusion, so the upper
    sweep is skipped.  A double failure proves infeasibility: the upper
    chain ends at the top node, where every attribute is at its root and
    all rows form one class, so there are fewer than k rows.
    exhaustive returns every k-anonymous node of least level sum, in
    lexicographic order; minimal nodes of a larger sum are not reported.
    It counts class sizes node by node in ascending level sum and stops
    after the first sum that has a k-anonymous node: raising a level
    only merges classes, so no later node can lower that sum.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    if not trees:
        raise ContractViolation("at least one tree is required")
    if strategy not in (STRATEGY_EXHAUSTIVE, STRATEGY_LOWER_THEN_UPPER):
        raise ContractViolation(f"unknown strategy {strategy!r}")
    heights = tuple(t.height for t in trees)
    # the rows are read and checked once, whichever chains are swept
    chains = _ancestor_chains(rows, trees)
    if strategy == STRATEGY_EXHAUSTIVE:
        # product yields the nodes in lexicographic order, which the
        # stable sort keeps within each level sum
        nodes = product(*(range(h + 1) for h in heights))
        for _, same_sum in groupby(sorted(nodes, key=sum), key=sum):
            minimal = tuple(
                node for node in same_sum
                if all(size >= k
                       for size in Counter(_keys_at(chains, node)).values()))
            if minimal:
                return LatticeSearchResult(
                    nodes=minimal, reports=(),
                    note=("exhaustive search in ascending level sum, stopped "
                          "after the least sum with a k-anonymous node"))
        return LatticeSearchResult(
            nodes=(), reports=(),
            note=f"no lattice node achieves {k}-anonymity")

    lower = lower_chain(heights)
    lower_report = _sweep(chains, lower, k)
    hit = lower_report.first_anonymous_node
    if hit is not None:
        return LatticeSearchResult(
            nodes=(hit,), reports=(lower_report,),
            note="lower chain achieved k-anonymity; upper chain skipped")

    upper = upper_chain(heights)
    if upper == lower:
        return LatticeSearchResult(
            nodes=(), reports=(lower_report,),
            note=f"the single chain never achieves {k}-anonymity")
    upper_report = _sweep(chains, upper, k)
    hit = upper_report.first_anonymous_node
    if hit is not None:
        return LatticeSearchResult(
            nodes=(hit,), reports=(lower_report, upper_report),
            note="upper chain achieved k-anonymity after the lower failed")
    return LatticeSearchResult(
        nodes=(), reports=(lower_report, upper_report),
        note=(f"no lattice node achieves {k}-anonymity: the top node puts "
              f"all {len(rows)} rows in one class"))
