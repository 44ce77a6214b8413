"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import signal
import subprocess

import pytest

from repro.paper import sensor_fusion_system
from system_edits import OVERFLOWING_SYSTEMS, paper_dict_with

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


#: One-entry edits of the paper example the loader must reject, with the
#: text its error names the entry by: ``name -> (path, value, text)``.
MALFORMED_EDITS = {
    "wcet_overflow": (
        ("transactions", 0, "tasks", 0, "wcet"), 1e308,
        "infinite execution time",
    ),
    "platforms_not_list": (("platforms",), {}, "platforms must be a list"),
    "platform_not_object": (
        ("platforms", 0), 5, "platforms[0] must be an object",
    ),
    "rate_wrong_type": (("platforms", 1, "rate"), [], "platforms[1]: rate"),
    "transaction_not_object": (
        ("transactions", 1), "x", "transactions[1] must be an object",
    ),
    "period_wrong_type": (
        ("transactions", 0, "period"), "x", "transactions[0]: period",
    ),
    "tasks_not_list": (
        ("transactions", 0, "tasks"), 5,
        "transactions[0].tasks must be a list",
    ),
    "task_not_object": (
        ("transactions", 0, "tasks", 2), [],
        "transactions[0].tasks[2] must be an object",
    ),
    "bcet_wrong_type": (
        ("transactions", 0, "tasks", 0, "bcet"), "x",
        "transactions[0].tasks[0]: bcet",
    ),
}


@pytest.fixture(params=sorted(MALFORMED_EDITS))
def malformed_system(request) -> tuple[dict, str]:
    """A malformed paper-example dict and the text its error must carry."""
    path, value, text = MALFORMED_EDITS[request.param]
    return paper_dict_with(path, value), text


@pytest.fixture
def huge_deadline_system() -> dict:
    """The paper example with transaction 0's deadline at 1e30: its
    derived jitters, capped at the deadline, span ~2e28 periods."""
    return paper_dict_with(("transactions", 0, "deadline"), 1e30)


@pytest.fixture(params=sorted(OVERFLOWING_SYSTEMS))
def overflowing_system(request) -> tuple[dict, str | None]:
    """A system whose finite values overflow once summed, and the text
    its load error carries (None: it loads and is unschedulable)."""
    return OVERFLOWING_SYSTEMS[request.param]


@contextlib.contextmanager
def _within(seconds: float):
    def expire(signum, frame):
        raise AssertionError(f"no answer within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def within():
    """``with within(seconds): ...`` fails the test once the block has
    run *seconds* (a SIGALRM timer, so a hang fails instead of wedging
    the suite)."""
    return _within


@pytest.fixture
def popen_calls(monkeypatch) -> list[list[str]]:
    """The argv of every ``subprocess.Popen`` the test makes.  The test
    starts without a shard zygote: the one an earlier test's dispatch
    left up in this process is closed first."""
    from repro.batch import zygote

    if zygote._current is not None:
        zygote._current.close()
    started = []

    class CountingPopen(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            started.append(list(args))
            super().__init__(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", CountingPopen)
    return started
