"""POD/GPR reduced-order modeling of parameterized plume dispersion fields.

The public names load their submodule on first access (PEP 562), so
``import plumerom`` imports neither numpy nor scipy. The command-line entry
point relies on this to choose the BLAS thread count before numpy loads.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Public name -> submodule that defines it.
_EXPORTS = {
    "ConfigError": "errors",
    "DataError": "errors",
    "NumericalError": "errors",
    "PlumeRomError": "errors",
    "GammaPrior": "gpr",
    "GaussianPrior": "gpr",
    "GpModel": "gpr",
    "Hyperparameters": "gpr",
    "PriorSet": "gpr",
    "FieldSnapshot": "plume",
    "Grid": "plume",
    "SnapshotSet": "plume",
    "generate_dataset": "plume",
    "generate_field": "plume",
    "ReducedBasis": "pod",
    "NoiseEstimate": "priors",
    "EvaluationReport": "rom",
    "RomModel": "rom",
    "evaluate": "rom",
    "predict": "rom",
    "robustness_sweep": "rom",
    "split": "rom",
    "train": "rom",
    "ParameterSpace": "sampling",
    "design": "sampling",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
