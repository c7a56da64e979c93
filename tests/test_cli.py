import csv
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

import anonytope
from anonytope import anonymity
from anonytope.categorical import chain_sweep, load_trees
from anonytope.cli import (EXIT_INFEASIBLE, EXIT_INPUT_ERROR, EXIT_OK,
                           _chain_json, build_config, ingest_csv, main)
from anonytope.errors import IngestionError, read_yaml


def ingest_sample(path, quasi=("Age", "ZIP")):
    return ingest_csv(path, list(quasi), [], ["Salary"])


class TestIngest:
    def test_sample_csv(self, sample_csv):
        table = ingest_sample(sample_csv)
        assert table.n_rows == 9
        assert table.quasi_names == ["Age", "ZIP"]
        assert table.rows[0].tolist() == [25.0, 47677.0]

    def test_quasi_columns_in_header_order(self, sample_csv):
        # a column --sensitive also names is not a quasi-identifier
        table = ingest_sample(sample_csv, ["ZIP", "Salary", "Age"])
        assert table.quasi_names == ["Age", "ZIP"]
        assert table.rows[0].tolist() == [25.0, 47677.0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("Age,ZIP\n")
        with pytest.raises(IngestionError, match="no data rows"):
            ingest_sample(path)

    def test_headerless_empty_file(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("")
        with pytest.raises(IngestionError, match="no header"):
            ingest_sample(path)

    def test_missing_column_named(self, sample_csv):
        with pytest.raises(IngestionError, match="Postcode"):
            ingest_sample(sample_csv, ["Age", "Postcode"])

    def test_unparsable_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Age,ZIP\n25,47677\nforty,47602\n")
        with pytest.raises(IngestionError, match=r"row 2.*Age"):
            ingest_csv(path, ["Age", "ZIP"])

    def test_categorical_mode_returns_tuples(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("gender,country\nMale,Spain\nFemale,Hungary\n")
        rows = ingest_csv(path, ["gender", "country"], categorical=True)
        assert rows == [("Male", "Spain"), ("Female", "Hungary")]


class TestBuildConfig:
    def test_defaults(self):
        config = build_config(["sweep", "--input", "a.csv", "--quasi", "x"])
        assert vars(config) == {
            "command": "sweep", "config": None, "input": "a.csv",
            "quasi": ["x"], "identifiers": [], "sensitive": [], "k": [2],
            "eps": None, "dim_cap": 2, "trees": None,
            "strategy": "lower_then_upper", "out": ".", "formats": ["json"]}

    @pytest.mark.parametrize("dim_cap_key", ["dim_cap", "dim-cap"])
    def test_config_file_reads_every_flag_as_the_command_line(
            self, tmp_path, dim_cap_key):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({
            "input": "a.csv", "quasi": ["x", "y"], "identifiers": "id",
            "sensitive": ["s"], "k": [3, 4], "eps": 0.5, dim_cap_key: 1,
            "trees": "t.yaml", "strategy": "exhaustive", "out": "o",
            "format": ["json", "svg"]}))
        by_flags = build_config([
            "sweep", "--input", "a.csv", "--quasi", "x", "y", "--identifiers",
            "id", "--sensitive", "s", "--k", "3", "4", "--eps", "0.5",
            "--dim-cap", "1", "--trees", "t.yaml", "--strategy", "exhaustive",
            "--out", "o", "--format", "json", "svg"])
        # every flag is given a value other than its default
        defaults = build_config(["sweep", "--input", "b.csv", "--quasi", "z"])
        assert [name for name, value in vars(by_flags).items()
                if value == vars(defaults)[name]] == ["command", "config"]
        by_file = build_config(["sweep", "--config", str(cfg)])
        assert vars(by_file) == {**vars(by_flags), "config": str(cfg)}
        # a flag given both ways takes its command-line value
        both = build_config(["sweep", "--config", str(cfg), "--k", "5",
                             "--dim-cap", "0", "--identifiers"])
        assert vars(both) == {**vars(by_file), "k": [5], "dim_cap": 0,
                              "identifiers": []}

    def test_config_file_leaves_unset_flags_at_their_defaults(self,
                                                              tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("input: a.csv\nquasi: x\n")
        assert vars(build_config(["check", "--config", str(cfg)])) == {
            **vars(build_config(["check", "--input", "a.csv", "--quasi",
                                 "x"])), "config": str(cfg)}


def run_cli(*argv):
    return main(list(argv))


def package_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(anonytope.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestExitPaths:
    def check_on(self, path, *quasi):
        return run_cli("check", "--input", str(path), "--quasi", *quasi,
                       "--k", "1", "--eps", "0.1")

    def test_short_row_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("a,b\n1,2\n3\n")
        assert self.check_on(path, "a", "b") == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            "error: row 2 has 1 fields, header has 2\n"

    def test_long_row_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("a,b\n3,4,9\n")
        assert self.check_on(path, "a", "b") == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            "error: row 1 has 3 fields, header has 2\n"

    @pytest.mark.parametrize("command", ["sweep", "anonymize"])
    @pytest.mark.parametrize("cell, value", [("nan", "nan"), ("inf", "inf"),
                                             ("-inf", "-inf"),
                                             ("1e999", "inf")])
    def test_non_finite_cell_is_input_error(self, tmp_path, capsys, command,
                                            cell, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n{cell},4\n")
        rc = run_cli(command, "--input", str(path), "--quasi", "a", "b",
                     "--out", str(tmp_path / "out"))
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", f"error: row 2, column 'b': value "
                                           f"{value} is not a finite number\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--identifiers", "--sensitive"])
    def test_excluded_text_column_is_not_parsed(self, tmp_path, capsys,
                                                flag):
        # --quasi names s too, but s is left out, so its text is no
        # number to parse; the run answers as it does without s
        path = tmp_path / "text.csv"
        path.write_text("q1,s\n0.1,flu\n0.15,cold\n0.9,flu\n")
        argv = ["check", "--input", str(path), "--k", "1", "--eps", "0.1"]
        assert run_cli(*argv, "--quasi", "q1") == EXIT_OK
        alone = capsys.readouterr()
        assert run_cli(*argv, "--quasi", "q1", "s", flag, "s") == EXIT_OK
        assert capsys.readouterr() == alone

    @pytest.mark.parametrize("flag", ["--identifiers", "--sensitive"])
    def test_missing_named_column_is_input_error(self, sample_csv, capsys,
                                                 flag):
        rc = run_cli("check", "--input", str(sample_csv), "--quasi", "Age",
                     "ZIP", flag, "Name", "--k", "1", "--eps", "0.1")
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr() == \
            ("", f"error: column 'Name' not found in {sample_csv}\n")

    def test_oversized_filtration_is_input_error(self, tmp_path, capsys):
        # C(40, 6) = 3,838,380 six-vertex simplices alone exceed the
        # 2M budget, so this fails before any simplex is built
        path = tmp_path / "forty.csv"
        path.write_text("x,y\n" + "".join(f"{i},{i * i % 7}\n"
                                           for i in range(40)))
        rc = run_cli("barcode", "--input", str(path), "--quasi", "x", "y",
                     "--dim-cap", "5", "--out", str(tmp_path / "out"))
        assert rc == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "lower --dim-cap" in err
        assert not (tmp_path / "out").exists()

    def test_oversized_sweep_refuses_before_any_regime(
            self, tmp_path, capsys, monkeypatch):
        # 229 rows at dim_cap 2 have C(229, 2) + C(229, 3) = 2,001,460
        # edges and triangles, just over the budget; computing every k's
        # regimes first took 9.2 s on 20,000 rows before the refusal
        def refuse(*args):
            raise AssertionError("regimes computed")

        monkeypatch.setattr(anonymity, "compute_regimes", refuse)
        rng = random.Random(229)
        path = tmp_path / "uniform.csv"
        path.write_text("x,y\n" + "".join(
            f"{rng.random()!r},{rng.random()!r}\n" for _ in range(229)))
        rc = run_cli("sweep", "--input", str(path), "--quasi", "x", "y",
                     "--dim-cap", "2", "--out", str(tmp_path / "out"))
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr() == (
            "", "error: 2001460 simplices for N=229, dim_cap=2 exceeds the "
                "budget of 2000000; lower --dim-cap\n")
        assert not (tmp_path / "out").exists()

    def test_nan_eps_is_input_error(self, sample_csv, capsys):
        rc = run_cli("check", "--input", str(sample_csv),
                     "--quasi", "Age", "ZIP", "--k", "3", "--eps", "nan")
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr() == \
            ("", "error: eps must be nonnegative, got nan\n")

    @pytest.mark.parametrize("eps", ["nan", "-1"])
    def test_bad_eps_with_k_over_rows(self, sample_csv, capsys, eps):
        # the eps is checked before k is compared with the row count
        rc = run_cli("check", "--input", str(sample_csv),
                     "--quasi", "Age", "ZIP", "--k", "10", "--eps", eps)
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr() == \
            ("", f"error: eps must be nonnegative, got {float(eps)}\n")

    @pytest.mark.parametrize("which", ["csv", "config", "trees"])
    def test_non_utf8_file_is_input_error(self, sample_csv, tmp_path, capsys,
                                          which):
        bad = tmp_path / f"bad.{which}"
        bad.write_bytes({"csv": b"a,b\n1,\xff\n",
                         "config": b"input: x.csv\nquasi: \xff\n",
                         "trees": b"gender:\n  root: \xff\n"}[which])
        argv = {"csv": ["check", "--input", str(bad), "--quasi", "a", "b",
                        "--k", "1", "--eps", "0.1"],
                "config": ["--config", str(bad), "check"],
                "trees": ["lattice-sweep", "--input", str(sample_csv),
                          "--quasi", "Age", "--trees", str(bad)]}[which]
        assert run_cli(*argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            f"error: {bad}: not valid UTF-8 (invalid start byte)\n"

    def test_python_dash_m(self, sample_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "anonytope", "check", "--input",
             str(sample_csv), "--quasi", "Age", "ZIP", "--k", "3",
             "--eps", "0.8"],
            capture_output=True, text=True, env=package_env(), timeout=120)
        assert proc.returncode == EXIT_OK
        assert proc.stdout.startswith("3-anonymous at eps=0.8 with 1 classes")
        assert proc.stderr == ""    # no runpy warning either


class TestConfigAndFlagErrors:
    """A bad config value or flag is an input error (exit 1, one
    `error:` line), never a traceback or argparse's exit code 2."""

    def sweep_with(self, sample_csv, tmp_path, entry, *flags):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({
            "input": str(sample_csv), "quasi": ["Age", "ZIP"],
            "out": str(tmp_path / "out"), **entry}))
        return run_cli("--config", str(cfg), "sweep", *flags)

    @pytest.mark.parametrize("entry, message", [
        ({"mode": "categorical"}, "unrecognized arguments: --mode"),
        ({"k": "x"}, "argument --k: invalid int value: 'x'"),
        ({"dim_cap": "x"}, "argument --dim-cap: invalid int value: 'x'"),
        ({"out": None}, "argument --out: expected one argument"),
    ], ids=["mode", "k", "dim_cap", "null"])
    def test_bad_config_value(self, sample_csv, tmp_path, capsys, entry,
                              message):
        rc = self.sweep_with(sample_csv, tmp_path, entry)
        assert rc == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_scalar_config_value_reads_as_flag(self, sample_csv, tmp_path):
        out = tmp_path / "out"
        names = ("barcode.json", "regimes_k3.json")
        assert self.sweep_with(sample_csv, tmp_path,
                               {"dim_cap": 1, "k": 3}) == EXIT_OK
        by_file = [(out / name).read_text() for name in names]
        assert self.sweep_with(sample_csv, tmp_path, {},
                               "--dim-cap", "1", "--k", "3") == EXIT_OK
        assert [(out / name).read_text() for name in names] == by_file
        # the sample has H1 bars at the default cap of 2
        assert {b["dim"] for b in json.loads(by_file[0])["bars"]} == {0}

    @pytest.mark.parametrize("flag", ["--config", "--trees"])
    @pytest.mark.parametrize("last_line, message", [
        ("foo: [1", "{bad}: line 3, column 1: expected ',' or ']'"),
        ("foo: \x07", "unacceptable character #x0007"),
    ], ids=["syntax", "control_char"])
    def test_yaml_error_is_one_line(self, sample_csv, tmp_path, capsys,
                                    flag, last_line, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"input: {sample_csv}\n{last_line}\n")
        argv = ["--config", str(bad), "sweep"] if flag == "--config" else [
            "lattice-sweep", "--input", str(sample_csv), "--quasi", "Age",
            "--trees", str(bad)]
        assert run_cli(*argv) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message.format(bad=bad) in err and str(bad) in err

    @pytest.mark.parametrize("command",
                             ["check", "anonymize", "lattice-sweep"])
    def test_extra_k_is_input_error(self, sample_csv, tmp_path, trees_yaml,
                                    capsys, command):
        # these commands answer one k; a second one must not be dropped,
        # even when it repeats the first
        if command == "lattice-sweep":
            path = tmp_path / "cat.csv"
            path.write_text("gender,country\n" + "Male,Spain\n" * 4)
            flags = ["--input", str(path), "--quasi", "gender", "country",
                     "--trees", str(trees_yaml)]
        else:
            flags = ["--input", str(sample_csv), "--quasi", "Age", "ZIP",
                     "--eps", "0.8"]
        out = tmp_path / "out"
        for ks in ("2", "3"), ("2", "2"):
            rc = run_cli(command, *flags, "--k", *ks, "--out", str(out))
            assert rc == EXIT_INPUT_ERROR
            assert capsys.readouterr().err == \
                f"error: {command} takes one --k value, got {' '.join(ks)}\n"
            assert not out.exists()

    @pytest.mark.parametrize("by_file", [False, True], ids=["flag", "config"])
    def test_repeated_k_is_input_error(self, sample_csv, tmp_path, capsys,
                                       by_file):
        # sweep would answer k = 2 twice, writing its files twice
        ks = {"k": [2, 3, 2]}
        if by_file:
            rc = self.sweep_with(sample_csv, tmp_path, ks)
        else:
            rc = self.sweep_with(sample_csv, tmp_path, {},
                                 "--k", "2", "3", "2")
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr() == \
            ("", "error: k=2 is named twice in --k\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--k", "abc"], "argument --k: invalid int value: 'abc'"),
    ], ids=["k"])
    def test_bad_flag(self, sample_csv, capsys, flags, message):
        rc = run_cli("sweep", "--input", str(sample_csv),
                     "--quasi", "Age", "ZIP", *flags)
        assert rc == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("by_file", [False, True], ids=["flag", "config"])
    def test_removed_objective_is_input_error(self, sample_csv, tmp_path,
                                              capsys, by_file):
        # anonymize writes the earliest regime, which has the most
        # classes, so the flag that chose between the two is gone
        out = tmp_path / "out"
        flags = ["--input", str(sample_csv), "--quasi", "Age", "ZIP",
                 "--out", str(out)]
        if by_file:
            cfg = tmp_path / "run.yaml"
            cfg.write_text("objective: max_classes\n")
            flags += ["--config", str(cfg)]
        else:
            flags += ["--objective", "max_classes"]
        assert run_cli("anonymize", *flags) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unrecognized arguments: --objective max_classes" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "lattice-sweep"])
    def test_column_named_twice_is_input_error(self, sample_csv, tmp_path,
                                               trees_yaml, capsys, command):
        # the column would otherwise be read twice: a 2-D table of one
        # column, or one tree applied to it twice
        if command == "lattice-sweep":
            path = tmp_path / "cat.csv"
            path.write_text("gender,country\n" + "Male,Spain\n" * 4)
            flags = ["--input", str(path), "--quasi", "country", "gender",
                     "country", "--trees", str(trees_yaml)]
            name = "country"
        else:
            flags = ["--input", str(sample_csv), "--quasi", "Age", "Age"]
            name = "Age"
        out = tmp_path / "out"
        assert run_cli(command, *flags, "--out", str(out)) == \
            EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            f"error: column {name!r} is named twice in --quasi\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "lattice-sweep"])
    def test_header_column_named_twice_is_input_error(
            self, tmp_path, trees_yaml, capsys, command):
        # read into one dict per row, the second column would silently
        # replace the first
        path = tmp_path / "twice.csv"
        path.write_text("gender,gender\nMale,Female\nFemale,Male\n")
        out = tmp_path / "out"
        rc = run_cli(command, "--input", str(path), "--quasi", "gender",
                     "--trees", str(trees_yaml), "--out", str(out))
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr() == (
            "", f"error: {path}: column 'gender' is named twice in the "
                f"header\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("lattice-sweep", ["--format", "svg"],
         "lattice-sweep writes --format json, not svg"),
        ("check", ["--format", "json"],
         "check writes no file, not json"),
        ("anonymize", ["--format", "csv", "json"],
         "anonymize writes --format csv, not json"),
    ], ids=["lattice-sweep", "check", "anonymize"])
    def test_unwritten_format_is_input_error(self, sample_csv, tmp_path,
                                             trees_yaml, capsys, command,
                                             flags, message):
        # the format would be ignored and the command exit 0
        if command == "lattice-sweep":
            path = tmp_path / "cat.csv"
            path.write_text("gender,country\n" + "Male,Spain\n" * 4)
            inputs = ["--input", str(path), "--quasi", "gender", "country",
                      "--trees", str(trees_yaml)]
        else:
            inputs = ["--input", str(sample_csv), "--quasi", "Age", "ZIP",
                      "--eps", "0.8"]
        out = tmp_path / "out"
        rc = run_cli(command, *inputs, "--k", "2", *flags, "--out", str(out))
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_format_from_config_file_is_checked(self, sample_csv, tmp_path,
                                                capsys):
        # checked like the flag; the default ["json"] is not checked, or
        # check and anonymize would reject it
        assert self.sweep_with(sample_csv, tmp_path,
                               {"format": ["json"], "k": 3}) == EXIT_OK
        capsys.readouterr()
        cfg = tmp_path / "run.yaml"
        assert run_cli("--config", str(cfg), "anonymize") == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            "error: anonymize writes --format csv, not json\n"

    @pytest.mark.parametrize("command", ["sweep", "barcode"])
    def test_csv_format_is_input_error(self, sample_csv, tmp_path, capsys,
                                       command):
        # neither command writes a table, so --format csv would write
        # nothing and still succeed
        out = tmp_path / "out"
        rc = run_cli(command, "--input", str(sample_csv), "--quasi", "Age",
                     "ZIP", "--format", "json", "csv", "--out", str(out))
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            f"error: {command} writes --format json or svg, not csv\n"
        assert not out.exists()


class TestCommands:
    def test_sweep_writes_report_and_barcode(self, sample_csv, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("sweep", "--input", str(sample_csv),
                     "--quasi", "Age", "ZIP", "--k", "3",
                     "--out", str(out), "--format", "json", "svg")
        assert rc == EXIT_OK
        report = json.loads((out / "regimes_k3.json").read_text())
        assert report["k"] == 3
        assert len(report["regimes"]) >= 1
        assert (out / "barcode.json").exists()
        svg = (out / "barcode_k3.svg").read_text()
        assert svg.startswith("<svg") and "H0" in svg

    def test_check_feasible(self, sample_csv, capsys):
        rc = run_cli("check", "--input", str(sample_csv),
                     "--quasi", "Age", "ZIP", "--k", "3", "--eps", "0.8")
        assert rc == EXIT_OK
        assert "3-anonymous" in capsys.readouterr().out

    def test_check_k_exceeds_rows(self, sample_csv, capsys):
        rc = run_cli("check", "--input", str(sample_csv),
                     "--quasi", "Age", "ZIP", "--k", "10", "--eps", "0.5")
        assert rc == EXIT_INFEASIBLE
        assert "k exceeds row count" in capsys.readouterr().err

    def test_check_infeasible_eps(self, sample_csv, capsys):
        rc = run_cli("check", "--input", str(sample_csv),
                     "--quasi", "Age", "ZIP", "--k", "3", "--eps", "0.1")
        assert rc == EXIT_INFEASIBLE
        assert capsys.readouterr() == ("", "not 3-anonymous at eps=0.1: "
                                           "component_too_small [1, 3] "
                                           "(size 2)\n")

    def test_missing_input_is_input_error(self, tmp_path):
        rc = run_cli("sweep", "--input", str(tmp_path / "nope.csv"),
                     "--quasi", "Age", "--k", "2")
        assert rc == EXIT_INPUT_ERROR

    def test_anonymize_roundtrip_k_anonymous(self, sample_csv, tmp_path):
        out = tmp_path / "anon"
        rc = run_cli("anonymize", "--input", str(sample_csv),
                     "--quasi", "Age", "ZIP", "--k", "3", "--out", str(out))
        assert rc == EXIT_OK
        with open(out / "anonymized_k3.csv") as fh:
            rows = list(csv.reader(fh))
        tuples = Counter(tuple(r) for r in rows[1:])
        assert sum(tuples.values()) == 9
        assert all(count >= 3 for count in tuples.values())

    def test_anonymize_infeasible_suggests_alternative(self, sample_csv,
                                                       tmp_path, capsys):
        rc = run_cli("anonymize", "--input", str(sample_csv),
                     "--quasi", "Age", "ZIP", "--k", "10",
                     "--out", str(tmp_path))
        assert rc == EXIT_INFEASIBLE
        assert capsys.readouterr().err == (
            "no generalization radius achieves 10-anonymity "
            "(k exceeds row count)\n"
            "nearest achievable: 9-anonymity at eps >= 0.707107 "
            "with 1 classes\n")

    def test_sweep_on_column_whose_range_overflows(self, tmp_path):
        # 1e308 - (-1e308) overflows a float; scaled from that range the
        # second column became [nan, 0] and the rows never met
        path = tmp_path / "huge.csv"
        path.write_text("q1,q2\n1,1e308\n2,-1e308\n")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "anonytope", "sweep", "--input", str(path),
             "--quasi", "q1", "q2", "--k", "2", "--out", str(out)],
            capture_output=True, text=True, env=package_env(), timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""
        assert "k=2: 1 regime(s)" in proc.stdout

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads((out / "regimes_k2.json").read_text(),
                            parse_constant=no_constant)
        assert report["regimes"][0]["classes"] == [[1, 2]]
        json.loads((out / "barcode.json").read_text(),
                   parse_constant=no_constant)

    def test_barcode_command(self, sample_csv, tmp_path):
        out = tmp_path / "bc"
        rc = run_cli("barcode", "--input", str(sample_csv),
                     "--quasi", "Age", "ZIP", "--out", str(out),
                     "--format", "json", "svg")
        assert rc == EXIT_OK
        doc = json.loads((out / "barcode.json").read_text())
        assert doc["n_points"] == 9
        assert (out / "barcode.svg").exists()

    def test_lattice_sweep(self, tmp_path, trees_yaml):
        path = tmp_path / "cat.csv"
        path.write_text("gender,country\n"
                        "Male,Portugal\nFemale,Spain\nMale,Hungary\n")
        out = tmp_path / "lat"
        rc = run_cli("lattice-sweep", "--input", str(path),
                     "--quasi", "gender", "country",
                     "--trees", str(trees_yaml), "--k", "3",
                     "--strategy", "exhaustive", "--out", str(out))
        assert rc == EXIT_OK
        doc = json.loads((out / "lattice_k3.json").read_text())
        assert doc["nodes"] == [[1, 2]]

    @pytest.mark.parametrize("strategy",
                             ["lower_then_upper", "exhaustive"])
    def test_unknown_leaf_is_input_error(self, tmp_path, trees_yaml, capsys,
                                         strategy):
        path = tmp_path / "cat.csv"
        path.write_text("gender,country\nMale,Spain\nFemale,Mars\n")
        rc = run_cli("lattice-sweep", "--input", str(path),
                     "--quasi", "gender", "country",
                     "--trees", str(trees_yaml), "--k", "2",
                     "--strategy", strategy, "--out", str(tmp_path / "out"))
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr() == \
            ("", "error: 'Mars' is not a leaf of tree 'country'\n")
        assert not (tmp_path / "out").exists()

    def test_config_file_with_flag_override(self, sample_csv, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({
            "input": str(sample_csv),
            "quasi": ["Age", "ZIP"],
            "k": [2],
            "out": str(tmp_path / "cfg_out"),
        }))
        rc = run_cli("--config", str(cfg), "sweep", "--k", "4")
        assert rc == EXIT_OK
        assert (tmp_path / "cfg_out" / "regimes_k4.json").exists()


class TestLatticeTreesByName:
    """lattice-sweep picks each --quasi column's tree by its name."""

    def run(self, tmp_path, trees_yaml, header, *quasi, flags=()):
        path = tmp_path / "cat.csv"
        path.write_text(header + "\nMale,Portugal\nFemale,Spain\n"
                        "Male,Hungary\nFemale,Hungary\n")
        out = tmp_path / "out"
        rc = run_cli("lattice-sweep", "--input", str(path),
                     "--quasi", *quasi, *flags, "--trees", str(trees_yaml),
                     "--k", "2", "--strategy", "exhaustive",
                     "--out", str(out))
        doc = json.loads((out / "lattice_k2.json").read_text()) \
            if rc == EXIT_OK else None
        return rc, doc

    def test_quasi_order_differs_from_file_order(self, tmp_path, trees_yaml):
        _, in_order = self.run(tmp_path, trees_yaml, "gender,country",
                               "gender", "country")
        rc, swapped = self.run(tmp_path, trees_yaml, "gender,country",
                               "country", "gender")
        assert rc == EXIT_OK
        assert in_order["nodes"] == [[0, 2], [1, 1]]
        assert swapped["nodes"] == [[1, 1], [2, 0]]

    def test_column_without_tree_is_input_error(self, tmp_path, trees_yaml,
                                                capsys):
        rc, _ = self.run(tmp_path, trees_yaml, "sex,nation", "sex", "nation")
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            f"error: no tree for --quasi column 'sex' in {trees_yaml}; "
            f"its trees are 'gender', 'country'\n")
        assert not (tmp_path / "out").exists()

    def test_unnamed_trees_are_left_out(self, tmp_path, trees_yaml):
        rc, doc = self.run(tmp_path, trees_yaml, "gender,country", "country")
        assert rc == EXIT_OK
        assert doc["nodes"] == [[1]]

    @pytest.mark.parametrize("flag", ["--identifiers", "--sensitive"])
    def test_excluded_column_is_not_generalized(self, tmp_path, trees_yaml,
                                                capsys, flag):
        # a column --identifiers or --sensitive names is no
        # quasi-identifier, even when --quasi names it too
        rc, doc = self.run(tmp_path, trees_yaml, "gender,country",
                           "gender", "country", flags=[flag, "gender"])
        assert rc == EXIT_OK
        assert doc["nodes"] == [[1]]
        assert capsys.readouterr().out.endswith(
            "k=2: achieved at levels [1]\n")

    @pytest.mark.parametrize("command", ["lattice-sweep", "check"])
    def test_every_quasi_column_excluded_is_input_error(
            self, tmp_path, trees_yaml, capsys, command):
        path = tmp_path / "cat.csv"
        path.write_text("gender,country\n1,2\n3,4\n")
        rc = run_cli(command, "--input", str(path), "--quasi", "gender",
                     "country", "--identifiers", "country", "--sensitive",
                     "gender", "--trees", str(trees_yaml), "--k", "1",
                     "--eps", "0.1", "--out", str(tmp_path / "out"))
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr() == \
            ("", "error: no quasi-identifier columns declared\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tree, read_as", [
        ("gender:\n  root: Person\n  Person: [yes, Female]\n", "True"),
        ("gender:\n  root: 'yes'\n  yes: [Male, Female]\n", "True"),
        ("gender:\n  root: null\n  'null': [Male, Female]\n", "None"),
    ], ids=["child", "parent", "root"])
    def test_node_name_read_as_boolean_or_null(self, tmp_path, capsys, tree,
                                               read_as):
        trees = tmp_path / "yn.yaml"
        trees.write_text(tree)
        rc, _ = self.run(tmp_path, trees, "gender,country", "gender")
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            f"error: attribute 'gender': node {read_as} is not a string: "
            f"YAML reads an unquoted yes, no, on, off or null as a boolean "
            f"or null; quote the name\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, read_as", [
        ("yes", "True"), ("off", "False"), ("null", "None")])
    def test_tree_name_read_as_boolean_or_null(self, tmp_path, capsys,
                                               name, read_as):
        trees = tmp_path / "yn.yaml"
        trees.write_text(f"{name}:\n  root: Any\n  Any: [Male, Female]\n")
        rc, _ = self.run(tmp_path, trees, f"{name},country", name)
        assert rc == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            f"error: tree name {read_as} is not a string: YAML reads an "
            f"unquoted yes, no, on, off or null as a boolean or null; "
            f"quote the name\n")
        assert not (tmp_path / "out").exists()
        trees.write_text(f"'{name}':\n  root: Any\n  Any: [Male, Female]\n")
        rc, doc = self.run(tmp_path, trees, f"{name},country", name)
        assert rc == EXIT_OK
        assert doc["nodes"] == [[0]]


EURO = "Male,Portugal\nFemale,Spain\nMale,Hungary\n"


@pytest.mark.parametrize(
    "rows, quasi, k, strategy, nodes, skipped, chains, note", [
        (EURO, ("gender", "country"), 3, "exhaustive", [[1, 2]], False, 0,
         "exhaustive search in ascending level sum, stopped after the "
         "least sum with a k-anonymous node"),
        (EURO, ("gender", "country"), 4, "exhaustive", [], False, 0,
         "no lattice node achieves 4-anonymity"),
        ("Male,Spain\nMale,Spain\n", ("gender", "country"), 2,
         "lower_then_upper", [[0, 0]], True, 1,
         "lower chain achieved k-anonymity; upper chain skipped"),
        (EURO, ("country",), 4, "lower_then_upper", [], True, 1,
         "the single chain never achieves 4-anonymity"),
        (EURO, ("gender", "country"), 3, "lower_then_upper", [[1, 2]],
         False, 2, "upper chain achieved k-anonymity after the lower failed"),
        (EURO, ("gender", "country"), 4, "lower_then_upper", [], False, 2,
         "no lattice node achieves 4-anonymity: the top node puts all 3 "
         "rows in one class"),
    ], ids=["exhaustive-found", "exhaustive-infeasible", "lower-hit",
            "single-chain-fails", "upper-hit", "both-chains-fail"])
def test_lattice_report_fields(tmp_path, trees_yaml, capsys, rows, quasi, k,
                               strategy, nodes, skipped, chains, note):
    """Every search outcome as lattice_k*.json and the exit code state it."""
    path = tmp_path / "cat.csv"
    path.write_text("gender,country\n" + rows)
    out = tmp_path / "out"
    rc = run_cli("lattice-sweep", "--input", str(path), "--quasi", *quasi,
                 "--trees", str(trees_yaml), "--k", str(k),
                 "--strategy", strategy, "--out", str(out))
    doc = json.loads((out / f"lattice_k{k}.json").read_text())
    assert (doc["k"], doc["strategy"], doc["nodes"]) == (k, strategy, nodes)
    assert doc["upper_chain_skipped"] is skipped
    assert doc["note"] == note
    assert len(doc["chains"]) == chains
    assert rc == (EXIT_OK if nodes else EXIT_INFEASIBLE)
    assert capsys.readouterr().err == ("" if nodes else note + "\n")


def written(out: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_regime_report_schema(sample_csv, tmp_path):
    assert run_cli("sweep", "--input", str(sample_csv), "--quasi", "Age",
                   "ZIP", "--k", "3", "--out", str(tmp_path)) == EXIT_OK
    doc = json.loads((tmp_path / "regimes_k3.json").read_text())
    assert doc["k"] == 3
    for r in doc["regimes"]:
        assert set(r) == {"eps_lo", "eps_hi", "n_classes", "classes"}
        assert r["eps_hi"] is None or r["eps_hi"] > r["eps_lo"]
        assert r["n_classes"] == len(r["classes"])


def test_barcode_json_schema(sample_csv, tmp_path):
    runs = []
    for out in (tmp_path / "one", tmp_path / "two"):
        assert run_cli("barcode", "--input", str(sample_csv), "--quasi",
                       "Age", "ZIP", "--dim-cap", "2",
                       "--out", str(out)) == EXIT_OK
        runs.append(written(out))
    assert runs[0] == runs[1]
    doc = json.loads(runs[0]["barcode.json"])
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


def test_chain_report_json_shape(trees_yaml):
    rows = [tuple(line.split(",")) for line in EURO.splitlines()]
    path = [(0, 0), (0, 1)]
    report = chain_sweep(rows, load_trees(trees_yaml), path, k=2)
    doc = json.loads(json.dumps(_chain_json(report)))
    assert doc["k"] == 2
    assert [s["levels"] for s in doc["steps"]] == [[0, 0], [0, 1]]
    # the numeric barcode.json's bar shape, indexed by path position
    for bar in doc["h0_bars"]:
        assert set(bar) == {"dim", "birth", "death", "weight_steps"}
        assert bar["dim"] == 0 and bar["birth"] == 0
    assert sum(bar["weight_steps"][-1][1] for bar in doc["h0_bars"]
               if bar["death"] is None) == len(rows)


def test_byte_order_mark_is_read_past(sample_csv, tmp_path):
    # spreadsheet tools write a UTF-8 byte-order mark; it is not part of
    # the first header cell
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + sample_csv.read_bytes())
    runs = []
    for path in (sample_csv, bom):
        out = tmp_path / path.stem
        assert run_cli("sweep", "--input", str(path), "--quasi", "Age",
                       "ZIP", "--k", "2", "3", "--format", "json", "svg",
                       "--out", str(out)) == EXIT_OK
        runs.append(written(out))
    assert runs[0] == runs[1]
    cfg = tmp_path / "run.yaml"
    cfg.write_bytes(b"\xef\xbb\xbf" + yaml.safe_dump({
        "input": str(bom), "quasi": ["Age", "ZIP"], "k": [2, 3],
        "format": ["json", "svg"], "out": str(tmp_path / "cfg")}).encode())
    assert run_cli("--config", str(cfg), "sweep") == EXIT_OK
    assert written(tmp_path / "cfg") == runs[0]


@pytest.mark.parametrize("n", [2, 26])
def test_dim_cap_far_above_the_rows(tmp_path, n):
    # no simplex has more than n rows, so a cap above n - 1 adds nothing
    # and must not walk every empty dimension up to it
    rng = random.Random(n)
    path = tmp_path / "rows.csv"
    path.write_text("x,y\n" + "".join(
        f"{rng.random()!r},{rng.random()!r}\n" for _ in range(n)))
    runs = []
    for cap in (str(n), "1000000000"):
        out = tmp_path / cap
        proc = subprocess.run(
            [sys.executable, "-m", "anonytope", "barcode", "--input",
             str(path), "--quasi", "x", "y", "--dim-cap", cap,
             "--format", "json", "svg", "--out", str(out)],
            capture_output=True, text=True, env=package_env(), timeout=60)
        runs.append((proc.returncode,
                     proc.stdout.replace(str(out), "OUT"),
                     proc.stderr.replace(f"dim_cap={cap}", "dim_cap=CAP"),
                     written(out) if out.exists() else None))
    assert runs[0] == runs[1]
    # 26 rows at a cap of 26 hold 2**26 - 27 simplices, over the budget
    assert runs[0][0] == (EXIT_OK if n == 2 else EXIT_INPUT_ERROR)


class TestYamlLoaders:
    """read_yaml parses with PyYAML's own parser, so removing libyaml's
    loader changes neither the documents nor the one-line errors."""

    def test_same_documents(self, trees_yaml, tmp_path, monkeypatch):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("input: in.csv\nquasi: [Age, 'ZIP']\nk: 0x10\n"
                       "eps: 1.5e-1\ndim_cap: 017\nout: null\n"
                       "flag: yes\nwhen: 2020-01-01\nnested: {a: [1, ~]}\n")
        fast = [read_yaml(trees_yaml), read_yaml(cfg)]
        assert fast[1]["k"] == 16 and fast[1]["flag"] is True
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert [read_yaml(trees_yaml), read_yaml(cfg)] == fast

    @pytest.mark.parametrize("flag", ["--config", "--trees"])
    @pytest.mark.parametrize("text", [
        b"input: x.csv\nfoo: [1\n", b"input: x.csv\nfoo: \x07\n",
        b"- input\n- x.csv\n", b"input: x.csv\nquasi: \xff\n",
    ], ids=["syntax", "control_char", "not_mapping", "not_utf8"])
    def test_same_errors(self, sample_csv, tmp_path, capsys, monkeypatch,
                         flag, text):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(text)
        argv = ["--config", str(bad), "sweep"] if flag == "--config" else [
            "lattice-sweep", "--input", str(sample_csv), "--quasi", "Age",
            "--trees", str(bad)]
        assert run_cli(*argv) == EXIT_INPUT_ERROR
        fast = capsys.readouterr()
        assert fast.out == "" and fast.err.count("\n") == 1
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert run_cli(*argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == fast


def loaded_modules(tmp_path, *argv) -> dict:
    """In a fresh interpreter: which of the heavy modules are loaded
    after ``import anonytope.cli``, and after ``main(argv)`` if argv."""
    probe = (
        "import json, sys\n"
        "watch = ('numpy', 'yaml', 'anonytope.categorical', "
        "'dataclasses', 'inspect', 'anonytope.homology')\n"
        "def loaded():\n"
        "    return [m for m in watch if m in sys.modules]\n"
        "import anonytope.cli\n"
        "doc = {'import': loaded()}\n"
        "if sys.argv[1:]:\n"
        "    doc['rc'] = anonytope.cli.main(sys.argv[1:])\n"
        "    doc['run'] = loaded()\n"
        "print(json.dumps(doc))\n")
    proc = subprocess.run([sys.executable, "-c", probe, *map(str, argv)],
                          capture_output=True, text=True, env=package_env(),
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_each_command_loads_only_what_it_needs(sample_csv, trees_yaml,
                                                tmp_path):
    assert loaded_modules(tmp_path) == {"import": []}
    cat = tmp_path / "cat.csv"
    cat.write_text("gender,country\n" + "Male,Spain\n" * 3)
    commented = tmp_path / "commented.yaml"
    commented.write_text("# trees\n" + trees_yaml.read_text())
    lattice = {trees: loaded_modules(
        tmp_path, "lattice-sweep", "--input", cat, "--quasi", "gender",
        "country", "--trees", trees, "--k", "2",
        "--strategy", "exhaustive", "--out", tmp_path / "lat")
        for trees in (trees_yaml, commented)}
    # the plain trees layout is read without PyYAML, a comment is not
    assert lattice == {
        trees_yaml: {"import": [], "rc": EXIT_OK,
                     "run": ["anonytope.categorical"]},
        commented: {"import": [], "rc": EXIT_OK,
                    "run": ["yaml", "anonytope.categorical"]}}
    sweep = loaded_modules(
        tmp_path, "sweep", "--input", sample_csv, "--quasi", "Age", "ZIP",
        "--k", "3", "--out", tmp_path / "sweep")
    # numpy itself imports inspect
    assert sweep == {"import": [], "rc": EXIT_OK,
                     "run": ["numpy", "inspect", "anonytope.homology"]}


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the thread count from /proc")
@pytest.mark.parametrize("caller, threads", [(None, 1), ("2", 2)])
def test_cli_starts_no_blas_worker(sample_csv, tmp_path, caller, threads):
    # OpenBLAS starts one thread per usable CPU unless told otherwise,
    # and a count the caller sets wins over the CLI's own
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS starts no more threads than usable CPUs")
    env = package_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    probe = (
        "import sys\n"
        "from anonytope.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as f:\n"
        "    print(rc, next(ln.split()[1] for ln in f\n"
        "                   if ln.startswith('Threads:')))\n")
    proc = subprocess.run(
        [sys.executable, "-c", probe, "sweep", "--input", str(sample_csv),
         "--quasi", "Age", "ZIP", "--k", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} {threads}"


def test_library_imports_leave_the_environment_alone(tmp_path):
    env = package_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    probe = ("import os\n"
             "before = dict(os.environ)\n"
             "import anonytope, anonytope.geometry, anonytope.cli\n"
             "print(dict(os.environ) == before)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def peak_rss_mib(*argv):
    """Run argv with this package importable; return the process and the
    peak resident memory of the run in MiB."""
    # a process started from this one counts this one's resident memory
    # at its exec, so a small interpreter starts the run and reports the
    # peak of its own child
    probe = ("import resource, subprocess, sys; "
             "rc = subprocess.run(sys.argv[1:]).returncode; "
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss); "
             "sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, env=package_env(),
                          timeout=300)
    return proc, int(proc.stdout.split()[-1]) / 1024   # ru_maxrss in KiB


def test_barcode_peak_rss_at_100_rows(tmp_path):
    # 100 uniform rows in 2D at dim_cap 2 (4,950 edges, 161,700
    # triangles) took 1.8 GB when every column of the filtration was
    # reduced over its global index
    rng = random.Random(100)
    path = tmp_path / "uniform.csv"
    path.write_text("x,y\n" + "".join(
        f"{rng.random()!r},{rng.random()!r}\n" for _ in range(100)))
    proc, peak = peak_rss_mib(
        sys.executable, "-m", "anonytope", "barcode", "--input", str(path),
        "--quasi", "x", "y", "--dim-cap", "2", "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert peak < 400


def test_barcode_peak_rss_at_simplex_budget(tmp_path):
    # 228 uniform rows in 2D at dim_cap 2 hold 1,949,476 triangles, just
    # under the 2M simplex budget; reducing their boundary matrix took
    # 34 s at 208 MiB
    rng = random.Random(228)
    path = tmp_path / "uniform.csv"
    path.write_text("x,y\n" + "".join(
        f"{rng.random()!r},{rng.random()!r}\n" for _ in range(228)))
    proc, peak = peak_rss_mib(
        sys.executable, "-m", "anonytope", "barcode", "--input", str(path),
        "--quasi", "x", "y", "--dim-cap", "2", "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert peak < 300


def test_verdicts_at_ten_thousand_rows(tmp_path):
    # 10,001 rows have 50,005,000 pairs: sorting them all for the merge
    # tree took over 1 GB, and the table was refused; its N-1 spanning
    # edges are found one distance row at a time.  At dim_cap 1 a sweep
    # builds no simplex, since every bar comes from the merge tree; a
    # filtration of all 50,005,000 edges once refused it too
    path = tmp_path / "big.csv"
    path.write_text("x,y\n" + "".join(f"{i},{i % 97}\n"
                                       for i in range(10_001)))
    run = [sys.executable, "-m", "anonytope"]
    given = ["--input", str(path), "--quasi", "x", "y", "--k", "2"]
    proc, peak = peak_rss_mib(*run, "check", *given, "--eps", "0.01")
    assert proc.returncode == EXIT_INFEASIBLE, proc.stderr
    assert peak < 150
    # the failing component's size and first ten ids, not every id: the
    # line once listed all 10,001 rows in 57 KB
    assert proc.stderr == (
        "not 2-anonymous at eps=0.01: component_not_simplex "
        "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (size 10001)\n")
    out = tmp_path / "out"
    proc, peak = peak_rss_mib(*run, "anonymize", *given, "--out", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert peak < 150
    with open(out / "anonymized_k2.csv") as fh:
        assert len(list(csv.reader(fh))) == 10_002
    proc, peak = peak_rss_mib(*run, "sweep", *given, "--dim-cap", "1",
                              "--out", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert peak < 150
    bars = json.loads((out / "barcode.json").read_text())["bars"]
    assert len(bars) == 10_001 and all(b["dim"] == 0 for b in bars)


def test_filtration_peak_rss_at_simplex_budget():
    # 228 uniform rows in 2D at dim_cap 2 hold 1,949,476 triangles, just
    # under the 2M simplex budget; with a (birth, vertex tuple) pair per
    # simplex the build peaked at 587 MiB
    build = ("import numpy as np; "
             "from anonytope.complexes import simplex_births; "
             "from anonytope.geometry import NormalizedDataset; "
             "pts = np.random.default_rng(228).random((228, 2)); "
             "data = NormalizedDataset(pts); "
             "print(len(simplex_births(data, 3, simplex_births(data, 2))))")
    proc, peak = peak_rss_mib(sys.executable, "-c", build)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.split()[0] == "1949476"
    assert peak < 350
