"""Experiment drivers: one module per table/figure of the paper's evaluation.

============  ===========================================================
module        reproduces
============  ===========================================================
``table1``    Table I  -- multiplier scaling parameters k0..k5, N
``fig2``      Fig. 2   -- frequency / slack / voltage / activity vs bits
``fig3``      Fig. 3a  -- multiplier energy vs precision,
              Fig. 3b  -- energy vs RMSE against baselines [3]-[5], [8]
``fig4``      Fig. 4   -- SIMD processor energy vs precision (SW = 8, 64)
``table2``    Table II -- SIMD processor power distribution per mode
``fig6``      Fig. 6   -- per-layer minimum precision (LeNet-5, AlexNet)
``fig8``      Fig. 8   -- Envision energy vs precision (const f / const T)
``table3``    Table III-- per-layer power/efficiency of VGG16/AlexNet/LeNet
============  ===========================================================

Each module exposes ``run(**kwargs) -> list[dict]`` returning the raw rows,
``render(rows) -> str`` formatting rows from a live run or the result cache
alike, and ``report(**kwargs) -> str`` (= ``render(run(**kwargs))``).  The
cacheable parameters are declared in each module's ``PARAMS`` mapping
(name -> default) -- the schema consumed by :mod:`repro.runner.registry`;
object-valued injection parameters are listed in ``OBJECT_PARAMS`` and
bypass the cache.  ``python -m repro`` is the unified entry point.

The runner never imports this package to *list* the experiments: it reads
the declarations from the driver sources (see
:data:`repro.runner.registry.DRIVERS`) and imports a driver only to run or
render it.  Here the drivers, and :data:`EXPERIMENTS` with them, load on
first access (PEP 562).
"""

import importlib

__all__ = ["EXPERIMENTS", "fig2", "fig3", "fig4", "fig6", "fig8", "table1", "table2", "table3"]


def __getattr__(name: str):
    from ..runner.registry import DRIVERS

    if name == "EXPERIMENTS":
        # Registry of all experiments, keyed by the paper artefact they regenerate.
        value = {experiment: importlib.import_module(module) for experiment, module in DRIVERS.items()}
        globals()[name] = value
        return value
    if f"{__name__}.{name}" in DRIVERS.values():
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
