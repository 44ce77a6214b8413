"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools

import pytest

from repro.paper import sensor_fusion_system

try:
    import numpy  # noqa: F401

    _HAVE_NUMPY = True
except ImportError:
    _HAVE_NUMPY = False

#: Test modules that import (directly or through repro.gen/sim/batch) the
#: NumPy-dependent subsystems.  The no-NumPy CI leg runs the remainder --
#: the analysis core on its scalar-kernel fallback -- so a broken scalar
#: path can no longer hide behind the vector kernel.
_NUMPY_TEST_FILES = [
    "test_analysis_gauss_seidel.py",
    "test_analysis_properties.py",
    "test_analysis_report.py",
    "test_analysis_sensitivity.py",
    "test_batch_campaign.py",
    "test_campaign_resume_prefix.py",
    "test_campaign_sharding.py",
    "test_cli.py",
    "test_differential_sim_vs_analysis.py",
    "test_dispatch.py",
    "test_dispatch_faults.py",
    "test_examples_run.py",
    "test_exactness.py",
    "test_gen.py",
    "test_gen_presets.py",
    "test_integration.py",
    "test_io_components.py",
    "test_io_spec.py",
    "test_kernel_equivalence.py",
    "test_perf_smoke.py",
    "test_platform_algebra.py",
    "test_platform_hierarchy.py",
    "test_platform_periodic_server.py",
    "test_properties_deep.py",
    "test_result_store.py",
    "test_serve.py",
    "test_sim_engine.py",
    "test_sim_engine_edge.py",
    "test_sim_execution_and_gantt.py",
    "test_sim_physical.py",
    "test_sim_physical_properties.py",
    "test_sim_quantiles.py",
    "test_sim_supply.py",
    "test_sim_validate.py",
    "test_transport.py",
    "test_verdict_parity.py",
    "test_viz.py",
    "test_warm_start.py",
    "test_zygote.py",
]

collect_ignore = [] if _HAVE_NUMPY else list(_NUMPY_TEST_FILES)


@functools.lru_cache(maxsize=1)
def _shared_memory_usable() -> bool:
    """Whether multiprocessing.shared_memory actually works on this runner.

    Constrained runners (no /dev/shm, seccomp-filtered shm_open) can import
    the module yet fail to allocate; probe with a real segment.
    """
    try:
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=16)
        seg.close()
        seg.unlink()
        return True
    except Exception:
        return False


@pytest.fixture
def shm_guard() -> None:
    """Skip (not fail) `dist`-marked tests that need real shared memory."""
    if not _shared_memory_usable():
        pytest.skip(
            "multiprocessing.shared_memory is unusable on this runner"
        )


@pytest.fixture
def paper_system():
    """The paper's sensor-fusion system (Tables 1-2)."""
    return sensor_fusion_system()


@pytest.fixture(params=[1, 2, 3, 5, 8])
def small_random_system(request):
    """A parade of small random systems at moderate utilization."""
    gen = pytest.importorskip(
        "repro.gen", reason="random-system generation needs NumPy"
    )
    spec = gen.RandomSystemSpec(
        n_platforms=2,
        n_transactions=3,
        tasks_per_transaction=(1, 3),
        utilization=0.35,
    )
    return gen.random_system(spec, seed=request.param)
