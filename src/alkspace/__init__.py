"""Alkane chemical-space exploration with graph-kernel active learning.

The package covers the full loop: enumerate alkane trees, compare them
with a random-walk graph kernel, select informative molecules by GP
posterior variance, generate property data from a deterministic oracle,
and fit/score property models. ``alkspace.cli`` is the command line.

Every exported name loads on first use (PEP 562): ``import alkspace``
imports no submodule, and ``alkspace.MgkCalculator`` imports ``mgk`` (and
numpy) only when it is first read. So a command pays only for the modules
it runs; ``alkspace enumerate`` with explicit bounds loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# The submodule that defines each exported name.
_SOURCES = {
    "active_learning": (
        "AlStallError", "AlState", "al_continue", "al_init", "al_resume", "al_run",
        "load_checkpoint", "save_checkpoint",
    ),
    "errors": ("ConfigError",),
    "gpr": ("FitError", "GprModel", "TemperatureProductKernel", "fit"),
    "mgk": (
        "KernelConvergenceError", "MgkCalculator", "MgkHyperparameters", "mgk_raw",
    ),
    "molspace": (
        "CanonicalSmiles", "EnumerationLimitError", "GraphError",
        "MolecularGraph", "SmilesError", "descriptors", "enumerate_alkane_smiles",
        "enumerate_alkanes", "parse_smiles", "to_canonical_smiles",
    ),
    "pipeline": (
        "ComparisonReport", "EvalReport", "Metrics", "PipelineConfig", "StageError",
        "StageResult", "compare_al_random", "evaluate", "export_plot_data", "run_alms",
        "split_test",
    ),
    "thermo": (
        "Dataset", "qc_evaluate", "read_dataset", "simulate_batch",
        "synth_critical_temperature", "temperature_grid", "write_dataset",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
