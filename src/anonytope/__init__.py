"""k-anonymity tradeoff analysis via anonymity complexes and persistence."""

from .anonymity import (AnonymityVerdict, Regime, check_k_anonymity,
                        compute_regimes, generalize_table, minimal_epsilon)
from .categorical import (GeneralizationLattice, GeneralizationTree,
                          build_lattice, chain_sweep, generalize_value,
                          generalized_partition_at, lattice_search,
                          load_trees, lower_chain, upper_chain)
from .cli import RunConfig, ingest_csv
from .complexes import Filtration, build_filtration
from .geometry import (Ball, Column, NormalizedDataset, NumericTable,
                       min_enclosing_ball, normalize_dataset)
from .homology import Barcode, barcode

__all__ = [
    "AnonymityVerdict", "Ball", "Barcode", "Column", "Filtration",
    "GeneralizationLattice", "GeneralizationTree", "NormalizedDataset",
    "NumericTable", "Regime", "RunConfig", "barcode",
    "build_filtration", "build_lattice", "chain_sweep", "check_k_anonymity",
    "compute_regimes", "generalize_table", "generalize_value",
    "generalized_partition_at", "ingest_csv", "lattice_search",
    "load_trees", "lower_chain", "min_enclosing_ball", "minimal_epsilon",
    "normalize_dataset", "upper_chain",
]

__version__ = "0.1.0"
