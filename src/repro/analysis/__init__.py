"""Analysis utilities: metrics, parameter sweeps and result reporting.

Names resolve on first access (PEP 562), so the numpy-free reporting and
sweep helpers the CLI uses never pull in :mod:`~repro.analysis.metrics`
and numpy with it.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "EfficiencyReport": "metrics",
    "classification_accuracy": "metrics",
    "relative_accuracy": "metrics",
    "relative_rmse": "metrics",
    "rmse": "metrics",
    "snr_db": "metrics",
    "top1_agreement": "metrics",
    "tops_per_watt": "metrics",
    "curve_to_rows": "reporting",
    "format_table": "reporting",
    "format_value": "reporting",
    "to_csv": "reporting",
    "to_json": "reporting",
    "write_csv": "reporting",
    "SweepResult": "sweep",
    "parameter_sweep": "sweep",
    "sweep_grid": "sweep",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in ("metrics", "reporting", "sweep"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
