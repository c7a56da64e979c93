"""Seeded input generators for the anonytope benchmark.

Every generator takes a seed (and, where a workload makes one input per
answer, the answer index) and returns plain numpy arrays plus the text
of the CSV / YAML files the CLI reads.  The benchmark writes those files
before it starts the clock on an answer.

The same (seed, index) always gives the same bytes: all randomness comes
from ``numpy.random.default_rng`` seeded with both numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: seed used while writing a change
DEV_SEED = 1
#: seed kept back to re-check a claimed gain on inputs nobody tuned for
HELDOUT_SEED = 7919


def _rng(seed: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _numeric_csv(points: np.ndarray, sensitive: np.ndarray) -> str:
    names = [f"q{j + 1}" for j in range(points.shape[1])]
    lines = [",".join(names + ["s"])]
    for row, s in zip(points, sensitive):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(s)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NumericInput:
    """Quasi-identifier values in the units written to the CSV."""

    points: np.ndarray          # (N, d)
    csv: str

    @property
    def quasi(self) -> list[str]:
        return [f"q{j + 1}" for j in range(self.points.shape[1])]


def clustered_table(seed: int, index: int, n: int, dim: int = 2,
                    groups: int = 4) -> NumericInput:
    """Two-level clustered rows: tight sub-clusters of 2-6 rows inside
    ``groups`` well-separated groups.

    Group centres sit on a jittered grid of the unit square (first two
    columns; further columns are uniform), sub-cluster centres spread
    0.06 around their group centre and rows 0.006 around their
    sub-cluster centre.  The three scales make the component partition
    change in distinct steps as eps grows.
    """
    rng = _rng(seed, index)
    side = int(np.ceil(np.sqrt(groups)))
    cells = rng.permutation(side * side)[:groups]
    centres = np.empty((groups, dim))
    centres[:, :2] = (np.stack([cells // side, cells % side], axis=1) + 0.5
                      + rng.uniform(-0.15, 0.15, (groups, 2))) / side
    if dim > 2:
        centres[:, 2:] = rng.uniform(0.2, 0.8, (groups, dim - 2))
    sizes = []
    while sum(sizes) < n:
        sizes.append(int(rng.integers(2, 7)))
    sizes[-1] -= sum(sizes) - n
    if sizes[-1] < 2:               # fold a lone remainder into its neighbour
        lone = sizes.pop()
        sizes[-1] += lone
    rows = []
    for i, size in enumerate(sizes):
        sub = centres[i % groups] + rng.normal(0.0, 0.06, dim)
        rows.append(sub + rng.normal(0.0, 0.006, (size, dim)))
    pts = np.concatenate(rows)[rng.permutation(n)]
    # original units: an age-like and a ZIP-like column, then plain reals
    scale = np.array([60.0, 90000.0] + [1.0] * (dim - 2))[:dim]
    offset = np.array([18.0, 10000.0] + [0.0] * (dim - 2))[:dim]
    pts = offset + scale * pts
    return NumericInput(points=pts,
                        csv=_numeric_csv(pts, rng.integers(0, 5, n)))


def uniform_table(seed: int, index: int, n: int, dim: int) -> NumericInput:
    """Rows drawn uniformly in the unit cube."""
    rng = _rng(seed, index)
    pts = rng.uniform(0.0, 1.0, (n, dim))
    return NumericInput(points=pts,
                        csv=_numeric_csv(pts, rng.integers(0, 5, n)))


def check_query(seed: int, index: int, ks=(2, 3, 5, 10),
                eps_range=(1e-3, 1.0), strata: int = 5
                ) -> tuple[int, float]:
    """The index-th (k, eps) point query: k cycles over ``ks`` and eps is
    log-uniform over ``eps_range``, stratified: each k in turn draws from
    one of ``strata`` equal slices of the log range, so every block of
    ``len(ks) * strata`` queries covers each (k, slice) pair once and the
    verdict mix of a run depends little on the seed."""
    rng = _rng(seed, (1 << 20) + index)
    stratum = (index // len(ks)) % strata
    lo, hi = np.log(eps_range[0]), np.log(eps_range[1])
    u = (stratum + rng.uniform()) / strata
    return ks[index % len(ks)], float(np.exp(lo + u * (hi - lo)))


@dataclass(frozen=True)
class CategoricalInput:
    """Rows as integer leaf codes per attribute, and the files naming
    them.  ``branching[a]`` lists the fan-out of attribute a's tree from
    the root down; leaf code c has the mixed-radix digits of its path."""

    branching: tuple[tuple[int, ...], ...]
    codes: np.ndarray           # (N, attributes), leaf index per cell
    csv: str
    trees_yaml: str

    @property
    def quasi(self) -> list[str]:
        return [f"c{a + 1}" for a in range(len(self.branching))]


def _node_name(attr: int, path: tuple[int, ...]) -> str:
    return f"a{attr + 1}" + "".join(f".{p}" for p in path)


def _tree_yaml(attr: int, fanout: tuple[int, ...]) -> list[str]:
    lines = [f"c{attr + 1}:", f"  root: '{_node_name(attr, ())}'"]
    level = [()]
    for b in fanout:
        nxt = []
        for path in level:
            kids = [path + (i,) for i in range(b)]
            names = ", ".join(f"'{_node_name(attr, p)}'" for p in kids)
            lines.append(f"  '{_node_name(attr, path)}': [{names}]")
            nxt.extend(kids)
        level = nxt
    return lines


def _leaf_path(code: int, fanout: tuple[int, ...]) -> tuple[int, ...]:
    """Mixed-radix digits of a leaf code, root first."""
    digits = []
    for b in reversed(fanout):
        code, d = divmod(code, b)
        digits.append(d)
    return tuple(reversed(digits))


def categorical_table(seed: int, index: int, n: int,
                      branching=((2, 3, 4), (2, 5), (2, 2, 2, 3))
                      ) -> CategoricalInput:
    """Rows drawn uniformly over the leaves of balanced trees."""
    rng = _rng(seed, index)
    branching = tuple(tuple(b) for b in branching)
    leaves = [int(np.prod(b)) for b in branching]
    codes = np.stack([rng.integers(0, m, n) for m in leaves], axis=1)
    header = ",".join(f"c{a + 1}" for a in range(len(branching)))
    lines = [header]
    for row in codes:
        lines.append(",".join(_node_name(a, _leaf_path(int(c), branching[a]))
                              for a, c in enumerate(row)))
    yaml_lines = []
    for a, b in enumerate(branching):
        yaml_lines += _tree_yaml(a, b)
    return CategoricalInput(branching=branching, codes=codes,
                            csv="\n".join(lines) + "\n",
                            trees_yaml="\n".join(yaml_lines) + "\n")
