"""DVAFS reproduction library.

A from-scratch Python implementation of the systems described in

    Moons, Uytterhoeven, Dehaene, Verhelst,
    "DVAFS: Trading Computational Accuracy for Energy Through
    Dynamic-Voltage-Accuracy-Frequency-Scaling", DATE 2017.

Subpackages
-----------
``repro.arithmetic``
    Fixed point, structural Booth-Wallace multipliers (DAS/DVAS), the
    subword-parallel DVAFS multiplier, MAC units and the approximate
    multiplier baselines of Fig. 3b.
``repro.circuit``
    Technology corners, alpha-power-law delay, energy, voltage scaling and
    power domains.
``repro.core``
    The DVAFS power equations, scaling-parameter extraction (Table I),
    operating points, precision scheduling and Pareto analysis.
``repro.simd``
    The DVAFS-compatible SIMD RISC vector processor of Section III-B
    (ISA, assembler, cycle-level simulator, calibrated power model).
``repro.nn``
    The CNN substrate: layers, LeNet-5/AlexNet/VGG16 topologies, synthetic
    datasets, training, quantisation search and sparsity analysis.
``repro.envision``
    The Envision CNN-processor model of Section V.
``repro.experiments``
    One driver per table/figure of the paper's evaluation.
``repro.runner``
    Experiment orchestration: typed registry, content-addressed result
    cache, process-parallel execution and the ``python -m repro`` CLI.
``repro.api``
    The stable public facade (``run``/``run_all``/``sweep``/``serve``/
    ``list_experiments`` plus the typed error taxonomy) that both the CLI
    and the HTTP service are thin renderers over.
``repro.service``
    The stdlib-only HTTP/JSON service behind ``python -m repro serve``.
"""

import importlib

__version__ = "1.0.0"

#: Subpackages and modules, imported on first attribute access (PEP 562):
#: ``import repro`` -- which every ``python -m repro`` launch runs -- loads
#: neither numpy nor any model.
_SUBMODULES = frozenset(
    {"analysis", "api", "arithmetic", "circuit", "core", "envision", "experiments", "nn", "runner", "simd"}
)

#: Re-exported names -> the subpackage that defines them.
_EXPORTS = {
    "BoothWallaceMultiplier": "arithmetic",
    "MacUnit": "arithmetic",
    "SubwordParallelMultiplier": "arithmetic",
    "TECH_28NM_FDSOI": "circuit",
    "TECH_40NM_LP_LVT": "circuit",
    "Technology": "circuit",
    "DvafsSystem": "core",
    "OperatingPoint": "core",
    "PAPER_TABLE_I": "core",
    "PrecisionScheduler": "core",
    "ScalingParameters": "core",
    "characterize_multiplier": "core",
    "multiplier_energy_curves": "core",
    "EnvisionChip": "envision",
    "EnvisionScheduler": "envision",
    "Network": "nn",
    "PrecisionSearch": "nn",
    "alexnet": "nn",
    "lenet5": "nn",
    "vgg16": "nn",
    "SimdPowerModel": "simd",
    "SimdProcessor": "simd",
    "convolution_kernel": "simd",
}

__all__ = sorted(_SUBMODULES) + list(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
