import sys
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
