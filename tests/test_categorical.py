import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from anonytope import categorical
from anonytope.categorical import (STRATEGY_EXHAUSTIVE,
                                   STRATEGY_LOWER_THEN_UPPER,
                                   GeneralizationTree, chain_sweep,
                                   generalize_value,
                                   generalized_partition_at, lattice_search,
                                   load_trees, lower_chain, trees_from_dict,
                                   upper_chain)
from anonytope.errors import ContractViolation, TreeDefinitionError

from conftest import TREES_YAML
from oracles import (ancestor_walk, chain_sweep_elder, exhaustive_nodes,
                     reference_trees, weight_at)
import yaml

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
# the benchmark's tables and trees
from gen import categorical_table  # noqa: E402


@pytest.fixture
def trees():
    return trees_from_dict(yaml.safe_load(TREES_YAML))


@pytest.fixture
def gender(trees):
    return trees[0]


@pytest.fixture
def country(trees):
    return trees[1]


# rows over (gender, country); the three-row Europe group is the running
# fixture for lattice searches
EURO_ROWS = [("Male", "Portugal"), ("Female", "Spain"), ("Male", "Hungary")]


def random_definition(rng, name: str, depth: int) -> dict:
    """One tree's definition: every leaf at ``depth``; each inner node has
    1 to 4 children."""
    body, level = {"root": name}, [name]
    for _ in range(depth):
        nxt = []
        for node in level:
            body[node] = [f"{node}.{c}" for c in range(rng.randint(1, 4))]
            nxt += body[node]
        level = nxt
    return {name: body}


def random_tree(rng, name: str, depth: int) -> GeneralizationTree:
    return trees_from_dict(random_definition(rng, name, depth))[0]


class TestTrees:
    def test_gender_tree(self, gender):
        assert gender.ancestors == {"Female": ("Female", "Person"),
                                    "Male": ("Male", "Person")}
        assert gender.height == 1
        assert list(gender.ancestors) == ["Female", "Male"]

    def test_country_tree(self, country):
        assert list(country.ancestors) == ["Canada", "Hungary", "Portugal",
                                           "Spain", "USA"]
        assert country.ancestors["Hungary"] == (
            "Hungary", "East Europe", "Europe", "World")
        assert country.height == 3
        assert generalize_value(country, "Portugal", 1) == "West Europe"
        assert generalize_value(country, "Portugal", 2) == "Europe"

    def test_orphan_node_reported(self):
        spec = {"x": {"root": "R", "R": ["a"], "ghost": ["b"]}}
        with pytest.raises(TreeDefinitionError) as info:
            trees_from_dict(spec)
        assert str(info.value) == ("attribute 'x': node 'b' has unknown "
                                   "parent 'ghost'; node 'b' cannot reach "
                                   "the root")

    def test_two_parents_rejected(self):
        spec = {"x": {"root": "R", "R": ["a", "b"], "a": ["c"], "b": ["c"]}}
        with pytest.raises(TreeDefinitionError, match="two parents"):
            trees_from_dict(spec)

    def test_mixed_leaf_depths_rejected(self):
        spec = {"x": {"root": "R", "R": ["a", "b"], "a": ["c"]}}
        with pytest.raises(TreeDefinitionError, match="depth"):
            trees_from_dict(spec)


class TestGeneralizeValue:
    def test_usa_two_levels_up(self, country):
        assert generalize_value(country, "USA", 2) == "America"

    def test_level_zero_identity(self, country):
        assert generalize_value(country, "Portugal", 0) == "Portugal"

    def test_gender_root(self, gender):
        assert generalize_value(gender, "Female", 1) == "Person"

    def test_unknown_leaf(self, country):
        with pytest.raises(ContractViolation):
            generalize_value(country, "Atlantis", 1)

    def test_level_out_of_range(self, gender):
        with pytest.raises(ContractViolation):
            generalize_value(gender, "Male", 2)

    def test_matches_parent_walk_at_every_level(self):
        rng = random.Random(11)
        specs = [dict([item]) for item in yaml.safe_load(TREES_YAML).items()]
        specs += [random_definition(rng, f"r{i}", i % 5) for i in range(12)]
        for spec in specs:
            [tree] = trees_from_dict(spec)
            [body] = spec.values()
            parent = {child: par for par, children in body.items()
                      if par != "root" for child in children}
            nodes = set(parent) | {body["root"]}
            assert list(tree.ancestors) == sorted(
                nodes - set(parent.values()))
            for leaf in tree.ancestors:
                for level in range(tree.height + 1):
                    assert generalize_value(tree, leaf, level) == \
                        ancestor_walk(body["root"], parent, leaf, level)

    PROBLEMS = ("two parents", "has a parent", "unknown parent",
                "cannot reach", "mixed depths")

    def test_matches_the_parent_map_reference(self):
        # random trees over at most 7 nodes, some with links moved to any
        # name or to an unknown one, or with a child listed twice: each
        # definition gives the chains, or the error text, of the
        # parent-map tree checked by its own walk and walked again
        rng = random.Random(30)
        kinds = Counter()
        for _ in range(3000):
            names = rng.sample([f"n{i}" for i in range(7)], rng.randint(1, 7))
            parent = {child: rng.choice(names[:i])
                      for i, child in enumerate(names) if i}
            for _ in range(rng.choice((0, 0, 1, 2))):
                parent[rng.choice(names + ["ghost"])] = rng.choice(
                    names + ["ghost"])
            body = {"root": names[0]}
            for child, par in parent.items():
                body.setdefault(par, []).append(child)
            if rng.random() < 0.1:
                body.setdefault(rng.choice(names), []).append(
                    rng.choice(names))
            spec = {"x": body}
            try:
                expected = reference_trees(spec)
            except TreeDefinitionError as exc:
                with pytest.raises(TreeDefinitionError) as info:
                    trees_from_dict(spec)
                assert str(info.value) == str(exc)
                kinds.update(kind for kind in self.PROBLEMS
                             if kind in str(exc))
                continue
            got = trees_from_dict(spec)
            assert [(t.attribute, list(t.ancestors.items())) for t in got] \
                == [(t.attribute, list(t.ancestors.items()))
                    for t in expected]
            for leaf, chain in got[0].ancestors.items():
                for level in range(len(chain)):
                    assert generalize_value(got[0], leaf, level) == \
                        ancestor_walk(body["root"], expected[0].parent,
                                      leaf, level)
            kinds["valid"] += 1
            kinds["deep"] += got[0].height >= 2
        assert min(kinds[kind] for kind in ("valid", *self.PROBLEMS)) >= 200
        assert kinds["deep"] >= 200


class TestChains:
    def test_gender_country_rows(self, trees):
        heights = tuple(t.height for t in trees)
        assert heights == (1, 3)
        assert lower_chain(heights) == [(0, 0), (0, 1), (0, 2), (0, 3)]
        assert upper_chain(heights) == [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_single_tree_chains_coincide(self, country):
        heights = (country.height,)
        assert lower_chain(heights) == upper_chain(heights) \
            == [(0,), (1,), (2,), (3,)]

    def test_unit_heights_diamond(self):
        spec = {"a": {"root": "A", "A": ["a1", "a2"]},
                "b": {"root": "B", "B": ["b1", "b2"]}}
        heights = tuple(t.height for t in trees_from_dict(spec))
        assert heights == (1, 1)
        assert lower_chain(heights) == [(0, 0), (0, 1)]
        assert upper_chain(heights) == [(1, 0), (1, 1)]


class TestPartition:
    def test_all_merge_at_person_europe(self, trees):
        parts = generalized_partition_at(EURO_ROWS, trees, (1, 2))
        assert parts == [(1, 2, 3)]

    def test_leaves_stay_apart(self, trees):
        parts = generalized_partition_at(EURO_ROWS, trees, (0, 0))
        assert parts == [(1,), (2,), (3,)]

    def test_west_europe_groups_iberia(self, trees):
        parts = generalized_partition_at(EURO_ROWS, trees, (1, 1))
        assert parts == [(1, 2), (3,)]

    def test_unknown_value_rejected(self, trees):
        with pytest.raises(ContractViolation):
            generalized_partition_at([("Male", "Mars")], trees, (0, 0))


class TestChainSweep:
    def test_top_node_single_class(self, trees):
        path = [(0, 0), (1, 0), (1, 1), (1, 2), (1, 3)]
        report = chain_sweep(EURO_ROWS, trees, path, k=3)
        assert report.steps[-1].k_anonymous
        assert report.steps[-1].classes == ((1, 2, 3),)

    def test_first_anonymous_node(self, trees):
        # gender must reach level 1 before any class can hold all three
        # rows, so the country-first full path achieves only at the top
        path = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3)]
        report = chain_sweep(EURO_ROWS, trees, path, k=3)
        assert report.first_anonymous_node == (1, 3)
        gender_first = [(0, 0), (1, 0), (1, 1), (1, 2), (1, 3)]
        report2 = chain_sweep(EURO_ROWS, trees, gender_first, k=3)
        assert report2.first_anonymous_node == (1, 2)

    def test_identical_rows_anonymous_at_bottom(self, trees):
        rows = [("Male", "Spain"), ("Male", "Spain")]
        report = chain_sweep(rows, trees, [(0, 0)], k=2)
        assert report.first_anonymous_node == (0, 0)

    def test_k_below_one_rejected(self, trees):
        for k in (0, -3):
            with pytest.raises(ContractViolation, match="k must be >= 1"):
                chain_sweep(EURO_ROWS, trees, [(0, 0), (1, 0)], k)

    def test_non_monotone_path_rejected(self, trees):
        with pytest.raises(ContractViolation):
            chain_sweep(EURO_ROWS, trees, [(0, 0), (1, 1)], k=2)

    def test_partitions_only_coarsen(self, trees):
        path = [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3)]
        report = chain_sweep(EURO_ROWS, trees, path, k=2)
        for prev, cur in zip(report.steps, report.steps[1:]):
            for cls in prev.classes:
                assert any(set(cls) <= set(c) for c in cur.classes)

    def test_anonymity_stays_after_achieved(self, trees):
        path = [(0, 0), (1, 0), (1, 1), (1, 2), (1, 3)]
        report = chain_sweep(EURO_ROWS, trees, path, k=2)
        seen = False
        for step in report.steps:
            if seen:
                assert step.k_anonymous
            seen = seen or step.k_anonymous

    def test_h0_weights_sum_to_row_count(self, trees):
        path = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3)]
        report = chain_sweep(EURO_ROWS, trees, path, k=3)
        for idx in range(len(path)):
            total = sum(weight_at(bar, idx) for bar in report.h0_bars
                        if bar.death is None or idx < bar.death)
            assert total == len(EURO_ROWS)

    def test_matches_elder_rule_oracle_on_random_paths(self):
        rng = random.Random(29)
        above_bottom = wide_merges = 0
        for _ in range(320):
            trees = [random_tree(rng, f"t{a}", rng.randint(1, 3))
                     for a in range(rng.randint(1, 3))]
            rows = [tuple(rng.choice(list(t.ancestors)) for t in trees)
                    for _ in range(rng.randint(1, 25))]
            node = [rng.randint(0, t.height) if rng.random() < 0.4 else 0
                    for t in trees]
            path = [tuple(node)]
            while rng.random() < 0.85:
                open_ = [a for a, t in enumerate(trees) if node[a] < t.height]
                if not open_:
                    break
                node[rng.choice(open_)] += 1
                path.append(tuple(node))
            k = rng.randint(1, 4)
            report = chain_sweep(rows, trees, path, k)
            partitions, bars = chain_sweep_elder(rows, trees, path)
            assert [s.node for s in report.steps] == path
            assert [list(s.classes) for s in report.steps] == partitions
            assert [s.k_anonymous for s in report.steps] == \
                [all(len(c) >= k for c in p) for p in partitions]
            assert report.h0_bars == bars
            above_bottom += any(path[0])
            wide_merges += sum(
                1 for prev, cur in zip(partitions, partitions[1:])
                for cls in cur
                if sum(p[0] in cls for p in prev) >= 3)
        assert above_bottom >= 50 and wide_merges >= 50


class TestLatticeSearch:
    def test_already_anonymous_at_bottom(self, trees):
        rows = [("Male", "Spain")] * 2
        for strategy in (STRATEGY_LOWER_THEN_UPPER, STRATEGY_EXHAUSTIVE):
            result = lattice_search(rows, trees, 2, strategy)
            assert result.nodes[0] == (0, 0)

    def test_k_below_one_rejected(self, trees):
        for k in (0, -3):
            for strategy in (STRATEGY_LOWER_THEN_UPPER, STRATEGY_EXHAUSTIVE):
                with pytest.raises(ContractViolation,
                                   match="k must be >= 1"):
                    lattice_search(EURO_ROWS, trees, k, strategy)

    def test_exhaustive_minimal_nodes(self, trees):
        result = lattice_search(EURO_ROWS, trees, 3, STRATEGY_EXHAUSTIVE)
        assert result.nodes == ((1, 2),)

    def test_country_only_succeeds_on_single_chain(self, country):
        rows = [("Portugal",), ("Spain",), ("Hungary",)]
        result = lattice_search(rows, [country], 3,
                                STRATEGY_LOWER_THEN_UPPER)
        assert result.nodes == ((2,),)
        assert result.upper_chain_skipped

    def test_falls_through_to_upper_chain(self, trees):
        # mixed genders keep the gender-0 row from ever collapsing the
        # partition, so the sweep must continue on the gender-1 row
        result = lattice_search(EURO_ROWS, trees, 3,
                                STRATEGY_LOWER_THEN_UPPER)
        assert not result.upper_chain_skipped
        assert result.nodes == ((1, 2),)
        assert len(result.reports) == 2

    def test_both_chains_read_the_rows_once(self, trees, monkeypatch):
        # the upper chain reuses the lower chain's ancestor chains
        calls = []
        chains = categorical._ancestor_chains
        monkeypatch.setattr(categorical, "_ancestor_chains",
                            lambda *args: calls.append(1) or chains(*args))
        result = lattice_search(EURO_ROWS, trees, 3,
                                STRATEGY_LOWER_THEN_UPPER)
        assert len(result.reports) == 2 and len(calls) == 1

    def test_double_failure_is_conclusive(self, trees):
        # the upper chain ends at the top node, where the three rows form
        # one class, so no node of the lattice is 4-anonymous
        result = lattice_search(EURO_ROWS, trees, 4,
                                STRATEGY_LOWER_THEN_UPPER)
        assert result.nodes == ()
        assert result.reports[-1].steps[-1].node == (1, 3)
        assert result.note == ("no lattice node achieves 4-anonymity: the "
                               "top node puts all 3 rows in one class")
        assert exhaustive_nodes(EURO_ROWS, trees, 4) == ()

    def test_lower_then_upper_fails_only_when_no_node_can(self):
        rng = random.Random(53)
        found = failed = 0
        for _ in range(300):
            trees = [random_tree(rng, f"t{a}", rng.randint(0, 3))
                     for a in range(rng.randint(1, 3))]
            rows = [tuple(rng.choice(list(t.ancestors)) for t in trees)
                    for _ in range(rng.randint(1, 12))]
            k = rng.randint(1, len(rows) + 2)
            result = lattice_search(rows, trees, k,
                                    STRATEGY_LOWER_THEN_UPPER)
            assert (result.nodes == ()) == (
                exhaustive_nodes(rows, trees, k) == ()), (rows, k)
            for node in result.nodes:
                assert all(len(c) >= k for c in
                           generalized_partition_at(rows, trees, node))
            found += bool(result.nodes)
            failed += not result.nodes
        assert found >= 100 and failed >= 50

    def test_exhaustive_matches_bruteforce(self, trees):
        import itertools
        for k in (1, 2, 3):
            result = lattice_search(EURO_ROWS, trees, k, STRATEGY_EXHAUSTIVE)
            good = []
            for node in itertools.product(range(2), range(4)):
                parts = generalized_partition_at(EURO_ROWS, trees, node)
                if all(len(c) >= k for c in parts):
                    good.append(node)
            assert set(result.nodes) <= set(good)
            if good:
                best = min(sum(n) for n in good)
                assert set(result.nodes) == {n for n in good
                                             if sum(n) == best}

    def test_exhaustive_matches_every_node_oracle(self):
        # the search stops after the first level sum with an anonymous
        # node; the oracle evaluates every node
        rng = random.Random(47)
        infeasible = beyond_bottom = ties = 0
        for _ in range(220):
            trees = [random_tree(rng, f"t{a}", rng.randint(0, 3))
                     for a in range(rng.randint(1, 3))]
            rows = [tuple(rng.choice(list(t.ancestors)) for t in trees)
                    for _ in range(rng.randint(1, 20))]
            for k in (1, rng.randint(2, 6), len(rows) + 1):
                result = lattice_search(rows, trees, k, STRATEGY_EXHAUSTIVE)
                expected = exhaustive_nodes(rows, trees, k)
                assert result.nodes == expected
                assert result.reports == ()
                infeasible += expected == ()
                beyond_bottom += bool(expected) and any(expected[0])
                ties += len(expected) > 1
        assert infeasible >= 220 and beyond_bottom >= 100 and ties >= 10


def test_load_trees_from_file(trees_yaml, tmp_path):
    trees = load_trees(trees_yaml)
    assert [t.attribute for t in trees] == ["gender", "country"]
    assert trees[1].height == 3
    # a file outside the plain layout is read by PyYAML to the same trees
    commented = tmp_path / "commented.yaml"
    commented.write_text("# trees\n" + TREES_YAML)
    assert load_trees(commented) == trees
    accented = tmp_path / "accented.yaml"
    accented.write_text("city:\n  root: Zürich\n", encoding="utf-8")
    assert load_trees(accented)[0].ancestors == {"Zürich": ("Zürich",)}


def ordered(doc):
    """A document as nested item lists, so that key order counts."""
    if isinstance(doc, dict):
        return [(key, ordered(value)) for key, value in doc.items()]
    return doc


class TestPlainTreesReader:
    """The plain ``--trees`` layout is read without PyYAML to the document
    that PyYAML reads; any other text is left to PyYAML."""

    # a generated trees file depends on the trees' branching, not the seed
    DOCS = [TREES_YAML] + [
        categorical_table(seed, 0, 20, branching).trees_yaml
        for seed in (1, 2, 7919)
        for branching in (((2, 3, 4), (2, 5), (2, 2, 2, 3)), ((2, 3), (3,)),
                          ((5,), (2, 2, 2)))]

    def test_generated_trees_read_as_yaml_reads_them(self):
        for text in self.DOCS:
            doc = categorical._plain_trees(text)
            assert doc is not None
            assert ordered(doc) == ordered(yaml.safe_load(text))

    def test_accepted_mutants_read_as_yaml_reads_them(self):
        # one character inserted, deleted or replaced, in small documents
        # with plain and with quoted names
        docs = [TREES_YAML, self.DOCS[2]]
        rng = random.Random(24)
        alphabet = "aYyNnOo_.-' :,[]{}#&*!|>\"\\\t\r\n\ufeff0~"
        accepted = 0
        for _ in range(4000):
            text = rng.choice(docs)
            at = rng.randrange(len(text) + 1)
            cut = rng.randrange(2)
            text = text[:at] + rng.choice(["", *alphabet]) + text[at + cut:]
            doc = categorical._plain_trees(text)
            if doc is not None:
                accepted += 1
                assert ordered(doc) == ordered(yaml.safe_load(text)), text
        assert accepted >= 1000

    @pytest.mark.parametrize("text", [
        "# trees\na:\n  root: x\n",
        "a:\n\troot: x\n",
        "a:\r\n  root: x\r\n",
        "\ufeffa:\n  root: x\n",
        "a:\n  root: 'it''s'\n",
        'a:\n  root: "x"\n',
        "a:\n  root: yes\n",
        "No:\n  root: x\n",
        "a:\n  root: x\n  x: [y, NULL]\n",
        "a:\n  root: x\n  x: []\n",
        "a:\n  root: x\n  x: [a,b]\n",
        "a:\n  root: x\nb:\n    root: y\n",
        "attr: x\n",
        "a:\nb:\n  root: x\n",
        "",
        "a:\n  root: Zürich\n",
    ], ids=["comment", "tab", "crlf", "bom", "quote_in_quotes",
            "double_quotes", "yes", "No", "NULL", "empty_list",
            "no_space_after_comma", "mixed_indents", "top_level_value",
            "key_without_entries", "empty", "not_ascii"])
    def test_other_layouts_are_left_to_yaml(self, text):
        assert categorical._plain_trees(text) is None


def test_records_compare_by_value_and_are_immutable(trees):
    again = trees_from_dict(yaml.safe_load(TREES_YAML))
    assert again == trees and again[0] is not trees[0]
    assert trees[0] != trees[1]
    result = lattice_search(EURO_ROWS, trees, 3)
    assert lattice_search(EURO_ROWS, trees, 3) == result
    report = result.reports[0]
    for record, name in ((trees[0], "attribute"), (report.steps[0], "node"),
                         (report, "k"), (result, "note")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del trees[0].ancestors
    assert trees[0].height == 1     # the chains are still there
