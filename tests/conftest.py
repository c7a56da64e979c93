import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from anonytope.geometry import NumericTable, normalize_dataset

AGES = [25, 22, 24, 43, 52, 38, 47, 36, 32]
ZIPS = [47677, 47602, 47678, 47905, 47909, 47906, 47605, 47673, 47607]
SALARIES = [47000, 32000, 52000, 151000, 145000, 98000, 110000, 92000,
            115000]

TREES_YAML = """\
gender:
  root: Person
  Person: [Male, Female]
country:
  root: World
  World: [Europe, America]
  Europe: [West Europe, East Europe]
  America: [North America]
  West Europe: [Portugal, Spain]
  East Europe: [Hungary]
  North America: [USA, Canada]
"""


@pytest.fixture
def sample_table() -> NumericTable:
    return NumericTable(["Age", "ZIP"], list(zip(AGES, ZIPS)))


@pytest.fixture
def sample_data(sample_table):
    return normalize_dataset(sample_table)


@pytest.fixture
def sample_csv(tmp_path) -> Path:
    lines = ["Age,ZIP,Salary"]
    lines += [f"{a},{z},{s}" for a, z, s in zip(AGES, ZIPS, SALARIES)]
    path = tmp_path / "sample.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def trees_yaml(tmp_path) -> Path:
    path = tmp_path / "trees.yaml"
    path.write_text(TREES_YAML)
    return path


def _files(root: Path) -> dict:
    """Every directory (as None) and file (as its bytes) under root."""
    return {path: path.read_bytes() if path.is_file() else None
            for path in sorted(root.rglob("*"))}


def _restore(root: Path, files: dict) -> None:
    """Put root back as _files found it: what was added since goes,
    deepest first, and a file that changed gets its bytes back."""
    for path in sorted(_files(root), reverse=True):
        if path not in files:
            path.unlink() if path.is_file() else path.rmdir()
        elif files[path] is not None and path.read_bytes() != files[path]:
            path.write_bytes(files[path])


@pytest.fixture
def both_forms(request, tmp_path, monkeypatch):
    """Runs each call of the test module's ``main`` twice from the same
    files under tmp_path: with the crossovers of ``cli`` forced so that a
    numeric command computes on Python floats, and then so that it
    computes on numpy.  Both runs must exit alike, print the same and
    leave the same files; the test then sees the second run's."""
    from anonytope import cli

    main = request.module.main

    def twice(argv=None):
        outcomes = []
        for limit in (sys.maxsize, -1):
            before = _files(tmp_path)
            out, err = io.StringIO(), io.StringIO()
            with pytest.MonkeyPatch.context() as crossovers, \
                    redirect_stdout(out), redirect_stderr(err):
                for name in ("FLOAT_ROWS", "FLOAT_CELLS", "FLOAT_SIMPLICES"):
                    crossovers.setattr(cli, name, limit)
                code = main(argv)
            outcomes.append((code, out.getvalue(), err.getvalue(),
                             _files(tmp_path)))
            if len(outcomes) == 1:
                _restore(tmp_path, before)
        assert outcomes[0] == outcomes[1]
        code, out, err, _ = outcomes[1]
        sys.stdout.write(out)
        sys.stderr.write(err)
        return code

    monkeypatch.setattr(request.module, "main", twice)
