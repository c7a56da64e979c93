"""k-anonymity tradeoff analysis via anonymity complexes and persistence.

The public names below are imported from their home modules on first
access (PEP 562), so ``import anonytope.cli`` loads only what the
subcommand it runs needs: the categorical side never loads numpy.
"""

import importlib

_HOMES = {
    "anonymity": ("AnonymityVerdict", "Regime", "check_k_anonymity",
                  "compute_regimes", "generalize_table", "minimal_epsilon"),
    "categorical": ("GeneralizationTree", "chain_sweep", "generalize_value",
                    "generalized_partition_at", "lattice_search",
                    "load_trees", "lower_chain", "upper_chain"),
    "cli": ("RunConfig", "ingest_csv"),
    "geometry": ("Ball", "NormalizedDataset", "NumericTable",
                 "min_enclosing_ball", "normalize_dataset"),
    "homology": ("Barcode", "barcode"),
}
_HOME_OF = {name: module for module, names in _HOMES.items()
            for name in names}

__all__ = sorted(_HOME_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value     # later lookups skip this hook
    return value
