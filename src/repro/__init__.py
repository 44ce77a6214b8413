"""repro -- hierarchical scheduling for component-based real-time systems.

A complete, from-scratch reproduction of

    J.L. Lorente, G. Lipari, E. Bini,
    "A Hierarchical Scheduling Model for Component-Based Real-Time Systems",
    IPDPS/WPDRTS 2006.

The library provides the paper's component model, abstract computing
platforms with supply-function algebra, the component-to-transaction
transform, the generalized holistic schedulability analysis (exact and
reduced), a discrete-event simulator for validation, workload generators,
and the platform-parameter optimization sketched as future work.

Quickstart
----------
>>> import repro
>>> system = repro.paper.sensor_fusion_system()
>>> result = repro.analyze(system, trace=True)
>>> result.schedulable
True
>>> round(result.wcrt(0, 3), 3)   # end-to-end response of Gamma_1
31.0
"""

import importlib.util

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Every subpackage and re-exported name loads on first access, so a
# process pays only for what it uses: a ``campaign --shard`` subprocess
# never loads networkx, the simulator or the optimizer.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "analysis": ("AnalysisConfig", "SystemAnalysis", "analyze",
                     "is_schedulable"),
        "components": ("Component", "SystemAssembly"),
        "model": ("Task", "Transaction", "TransactionSystem"),
        "platforms": ("DedicatedPlatform", "LinearSupplyPlatform",
                      "PeriodicServer"),
        "sim": ("simulate", "validate_against_analysis"),
    },
    submodules=("analysis", "batch", "components", "gen", "io", "model",
                "opt", "paper", "platforms", "sim", "util", "viz"),
)
__all__.append("__version__")

# The analysis core runs NumPy-free (the interference kernel degrades to
# its scalar reference closures); the simulator, the random-system
# generators and the campaign engine genuinely need NumPy (RNG streams,
# SeedSequence cell seeds).  Binding them to None keeps `import repro` --
# and the whole analysis surface -- usable on minimal installs, which the
# no-NumPy CI leg pins.  ``find_spec`` probes for NumPy without importing
# it; a genuine first-party ImportError inside batch/gen/sim still
# propagates on first access instead of masquerading as "NumPy missing".
if importlib.util.find_spec("numpy") is None:  # pragma: no cover
    batch = gen = sim = None  # type: ignore[assignment]
    simulate = validate_against_analysis = None  # type: ignore[assignment]
