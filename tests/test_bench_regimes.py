import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="peak RSS is read from /proc")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_regimes", ROOT / "scripts" / "bench_regimes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(bench, tmp_path, src, case):
    csv = tmp_path / f"{case[0]}.csv"
    bench.write_rows(csv, case)
    return bench.run_once(src, case, csv, tmp_path / "out")


def test_in_process_case_yields_every_figure(bench, tmp_path):
    case = ("regimes_n30_d2", "regimes", 30, 2, [], {})
    got = run(bench, tmp_path, ROOT / "src", case)
    assert set(got) == {"wall_s", "exit", "merge_tree_s",
                        "compute_regimes_s", "regimes", "peak_rss_mib"}
    assert got["exit"] == 0 and got["regimes"] > 0


@pytest.mark.parametrize("command", ["sweep", "lattice-sweep"])
def test_phases_case_yields_every_figure(bench, tmp_path, command):
    case = next(case for case in bench.FIXED_CASES
                if case[1] == "phases" and case[4][0] == command)
    got = run(bench, tmp_path, ROOT / "src", case)
    phases = ("import_numpy_s", "import_package_s", "main_s", "exit_s")
    assert set(got) == {"wall_s", "exit", "peak_rss_mib", *phases}
    assert got["exit"] == 0 and got["peak_rss_mib"] > 0
    # lattice-sweep imports no numpy
    assert min(got[name] for name in phases) >= 0 and got["exit_s"] > 0
    assert sum(got[name] for name in phases) < got["wall_s"]


def test_cli_case_records_its_verdict(bench, tmp_path):
    case = ("check_n30_d2", "cli", 30, 2,
            ["check", "--k", "2", "--eps", "0.1"], {})
    got = run(bench, tmp_path, ROOT / "src", case)
    assert got["exit"] == 2 and got["peak_rss_mib"] > 0


def test_run_on_an_empty_tree_is_recorded_as_failed(bench, tmp_path):
    case = ("check_n30_d2", "cli", 30, 2,
            ["check", "--k", "2", "--eps", "0.1"], {})
    empty = tmp_path / "src"
    empty.mkdir()
    got = run(bench, tmp_path, empty, case)
    assert got == {"failed": "ModuleNotFoundError: No module named "
                             "'anonytope'", "exit": 1}
    assert "failed" in bench.summary([got])
