"""ISSUE 2 equivalence properties: vector kernel and dirty-set scheduler.

Two layers of the PR must be behavior-preserving:

* the **vector kernel** (NumPy rows, the step-envelope W*) must agree
  with the scalar reference closures within ``EPS`` -- at the closure
  level (same job counts at the same time points, boundary-nudged ones
  included) and end-to-end through both the reduced and the exact
  analysis on hundreds of random systems;
* the chain-aware **dirty-set Gauss-Seidel** must converge to the same
  response times as the full-sweep Gauss-Seidel (and hence the Jacobi
  trace), only skipping work;
* W* closures shared across the tasks of one analysis must compile once
  per distinct view, per call, without moving any response.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.analysis import AnalysisConfig, analyze
from repro.analysis.busy import (
    HAVE_NUMPY,
    HPTask,
    TransactionView,
    build_views,
    compile_w_transaction_k,
    compile_w_transaction_star,
    scenario_rows,
    w_transaction_k,
    w_transaction_star,
)
from repro.gen import RandomSystemSpec, random_system
from repro.util.math import EPS

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vector kernel requires numpy"
)

TOL = max(EPS, 1e-9)


def _systems(n: int, *, spec: RandomSystemSpec, seed0: int = 0):
    for k in range(n):
        # Vary utilization with the seed so the sweep covers both
        # comfortably schedulable and saturated systems.
        util = 0.3 + 0.6 * ((seed0 + k) % 7) / 6.0
        yield random_system(
            RandomSystemSpec(
                n_platforms=spec.n_platforms,
                n_transactions=spec.n_transactions,
                tasks_per_transaction=spec.tasks_per_transaction,
                utilization=util,
            ),
            seed=seed0 + k,
        )


def _assert_same_responses(a, b, context: str) -> None:
    assert a.schedulable == b.schedulable, context
    assert a.converged == b.converged, context
    for key in a.tasks:
        ra, rb = a.tasks[key].wcrt, b.tasks[key].wcrt
        if math.isinf(ra) or math.isinf(rb):
            assert ra == rb, f"{context} task={key}"
        else:
            assert rb == pytest.approx(ra, abs=TOL), f"{context} task={key}"


class TestKernelEquivalenceEndToEnd:
    """Scalar vs vector through the full holistic analysis."""

    SPEC = RandomSystemSpec(
        n_platforms=2, n_transactions=3, tasks_per_transaction=(1, 3)
    )

    def test_reduced_path_200_random_systems(self):
        updates = ("jacobi", "gauss_seidel")
        for k, system in enumerate(_systems(200, spec=self.SPEC)):
            update = updates[k % 2]
            scalar = analyze(
                system,
                config=AnalysisConfig(kernel="scalar", update=update),
            )
            vector = analyze(
                system,
                config=AnalysisConfig(kernel="vector", update=update),
            )
            _assert_same_responses(
                scalar, vector, f"reduced seed={k} update={update}"
            )

    def test_exact_path_random_systems(self):
        small = RandomSystemSpec(
            n_platforms=2, n_transactions=2, tasks_per_transaction=(1, 2)
        )
        for k, system in enumerate(_systems(60, spec=small, seed0=1000)):
            scalar = analyze(
                system, config=AnalysisConfig(method="exact", kernel="scalar")
            )
            vector = analyze(
                system, config=AnalysisConfig(method="exact", kernel="vector")
            )
            _assert_same_responses(scalar, vector, f"exact seed={1000 + k}")


class TestKernelEquivalenceClosures:
    """Scalar vs vector at the compiled-closure level: the job counts must
    be bit-identical (same IEEE operations), so the W values agree to the
    last ulp of the final sum."""

    def test_w_k_and_w_star_match_interpreted(self):
        import numpy as np

        rng = np.random.default_rng(7)
        for trial in range(200):
            period = float(rng.uniform(5.0, 200.0))
            n = int(rng.integers(1, 5))
            tasks = tuple(
                HPTask(
                    phi=float(rng.uniform(0.0, period)),
                    jitter=float(rng.uniform(0.0, 3.0 * period)),
                    cost=float(rng.uniform(0.01, 20.0)),
                    index=j,
                )
                for j in range(n)
            )
            view = TransactionView(period=period, index=0, tasks=tasks)
            s_phi = float(rng.uniform(0.0, period))
            s_jit = float(rng.uniform(0.0, 2.0 * period))
            ts = rng.uniform(0.0, 5.0 * period, 6)

            scalar_k = compile_w_transaction_k(
                view, None, starter_phi=s_phi, starter_jitter=s_jit,
                kernel="scalar",
            )
            vector_k = compile_w_transaction_k(
                view, None, starter_phi=s_phi, starter_jitter=s_jit,
                kernel="vector",
            )
            scalar_star = compile_w_transaction_star(view, kernel="scalar")
            vector_star = compile_w_transaction_star(view, kernel="vector")
            for t in ts:
                t = float(t)
                expected_k = w_transaction_k(
                    view, None, t, starter_phi=s_phi, starter_jitter=s_jit
                )
                assert scalar_k(t) == pytest.approx(expected_k, abs=TOL)
                assert vector_k(t) == pytest.approx(expected_k, abs=TOL)
                expected_star = w_transaction_star(view, t)
                assert scalar_star(t) == pytest.approx(expected_star, abs=TOL)
                assert vector_star(t) == pytest.approx(expected_star, abs=TOL)

    def test_auto_kernel_matches_forced(self):
        system = random_system(
            RandomSystemSpec(
                n_platforms=2, n_transactions=3, tasks_per_transaction=(2, 4),
                utilization=0.6,
            ),
            seed=42,
        )
        auto = analyze(system, config=AnalysisConfig(kernel="auto"))
        scalar = analyze(system, config=AnalysisConfig(kernel="scalar"))
        _assert_same_responses(scalar, auto, "auto-vs-scalar")

    def test_bad_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            AnalysisConfig(kernel="quantum")


def _random_view(rng, n: int) -> TransactionView:
    """A view of *n* tasks whose phases, jitters and time points land on
    and around the snap boundaries as well as on random reals."""
    period = rng.choice(
        [rng.uniform(5.0, 500.0), float(rng.randint(1, 400)),
         0.1 * rng.randint(1, 100)]
    )
    style = rng.randrange(3)
    tasks = []
    for j in range(n):
        if style == 0:  # on the period grid, jitters exact multiples of T
            phi = period * rng.randint(0, 7) / 8
            jitter = period * rng.randint(0, 3)
        elif style == 1:  # a mix of grid and random values
            phi = rng.choice([0.0, period, rng.uniform(0.0, period)])
            jitter = rng.choice(
                [0.0, period * rng.randint(1, 3), rng.uniform(0.0, period)]
            )
        else:
            phi = rng.uniform(0.0, period)
            jitter = rng.uniform(0.0, 3.0 * period)
        tasks.append(
            HPTask(phi=phi, jitter=jitter, cost=rng.uniform(0.01, 20.0),
                   index=j)
        )
    return TransactionView(period=period, tasks=tuple(tasks), index=0)


def _boundary_points(rng, view: TransactionView) -> list[float]:
    """Job boundaries t = phase + m*T, nudged by 0, +-EPS*T, +-2*EPS*T and
    +-1 ulp; random points; and points within 2*EPS*T of the start."""
    period = view.period
    phases = sorted(
        {ph for s in view.tasks for ph, *_ in scenario_rows(view, s)}
    )
    points = [rng.uniform(0.0, 6.0 * period) for _ in range(8)]
    points += [rng.uniform(-2.0, 2.0) * EPS * period for _ in range(3)]
    points += [0.0, EPS * period, 2.0 * EPS * period]
    for ph in rng.sample(phases, min(len(phases), 4)):
        for m in range(3):
            for delta in (0.0, EPS, -EPS, 2.0 * EPS, -2.0 * EPS):
                t = ph + m * period + delta * period
                points += [t, math.nextafter(t, math.inf),
                           math.nextafter(t, -math.inf)]
    return points


class TestStarEnvelope:
    """The vector W* (a step envelope over sorted phases) against the
    scalar max over per-starter closures.  The tolerance is far below any
    one job's cost, so the job counts must agree exactly."""

    REL = 1e-12

    def test_matches_scalar_on_random_views(self):
        rng = random.Random(15)
        checked = 0
        for trial in range(130):
            view = _random_view(rng, 2 + trial % 13)
            scalar = compile_w_transaction_star(view, kernel="scalar")
            vector = compile_w_transaction_star(view, kernel="vector")
            for t in _boundary_points(rng, view):
                expected = scalar(t)
                assert vector(t) == pytest.approx(
                    expected, rel=self.REL, abs=0.0
                ), (trial, view, t)
                checked += 1
        assert checked > 20_000

    def test_falls_back_to_scalar_closures_near_the_start(self, monkeypatch):
        import repro.analysis.busy as busy

        period = 10.0
        view = TransactionView(
            period=period,
            tasks=tuple(
                HPTask(phi=phi, jitter=0.0, cost=1.0 + j, index=j)
                for j, phi in enumerate((0.0, 2.5, 5.0, 7.5, 9.0))
            ),
            index=0,
        )
        scalar = compile_w_transaction_star(view, kernel="scalar")
        vector = compile_w_transaction_star(view, kernel="vector")
        compile_rows = busy.compile_w_rows
        kernels = []

        def recording(rows, *, kernel="scalar"):
            kernels.append(kernel)
            return compile_rows(rows, kernel=kernel)

        monkeypatch.setattr(busy, "compile_w_rows", recording)
        assert vector(2.0 * EPS * period) == scalar(2.0 * EPS * period)
        assert kernels == []
        # Each starter sees itself at phase T, which counts job -1 up to
        # t = EPS * T: the scalar closures answer there, compiled once.
        for t in (0.5 * EPS * period, 0.0, -EPS * period):
            assert vector(t) == scalar(t)
        assert kernels == ["scalar"] * len(view.tasks)


class TestStarSharing:
    """Compiled W* closures are shared by the tasks of one analysis."""

    @pytest.fixture(scope="class")
    def system(self):
        from repro.gen import wide_view_spec

        return random_system(wide_view_spec(0.35), seed=4)

    @staticmethod
    def _compiled_views(monkeypatch, system, config) -> list:
        import repro.analysis.reduced as reduced

        views = []
        compile_star = reduced.compile_w_transaction_star

        def counting(view, *, kernel):
            views.append(view)
            return compile_star(view, kernel=kernel)

        monkeypatch.setattr(reduced, "compile_w_transaction_star", counting)
        analyze(system, config=config)
        monkeypatch.undo()
        return views

    def test_each_distinct_view_compiles_once(self, monkeypatch, system):
        config = AnalysisConfig(update="gauss_seidel")
        shared = self._compiled_views(monkeypatch, system, config)
        assert shared and len(set(shared)) == len(shared)
        unshared = self._compiled_views(
            monkeypatch, system,
            AnalysisConfig(update="gauss_seidel", driver_cache=False),
        )
        assert set(unshared) == set(shared)
        assert len(unshared) > len(shared)

    def test_cache_lives_for_one_call(self, monkeypatch, system):
        config = AnalysisConfig(update="gauss_seidel")
        first = self._compiled_views(monkeypatch, system, config)
        second = self._compiled_views(monkeypatch, system, config)
        assert len(first) == len(second)

    def test_driver_cache_off_agrees(self, system):
        for update in ("jacobi", "gauss_seidel"):
            cached = analyze(system, config=AnalysisConfig(update=update))
            uncached = analyze(
                system,
                config=AnalysisConfig(update=update, driver_cache=False),
            )
            _assert_same_responses(cached, uncached, f"driver_cache {update}")


class TestDirtySetEquivalence:
    """Incremental (dirty-set) Gauss-Seidel vs the full sweep."""

    SPEC = RandomSystemSpec(
        n_platforms=2, n_transactions=3, tasks_per_transaction=(2, 4)
    )

    def test_same_responses_on_random_systems(self):
        for k, system in enumerate(_systems(80, spec=self.SPEC, seed0=500)):
            full = analyze(
                system,
                config=AnalysisConfig(
                    update="gauss_seidel", incremental=False
                ),
            )
            incremental = analyze(
                system,
                config=AnalysisConfig(
                    update="gauss_seidel", incremental=True
                ),
            )
            _assert_same_responses(
                full, incremental, f"dirty-set seed={500 + k}"
            )
            # The fast path must actually skip work on multi-round solves.
            if incremental.outer_iterations > 1 and incremental.converged:
                assert incremental.task_skips > 0

    def test_same_responses_with_warm_start(self):
        """Warm starts can seed jitters above the refresh target; the
        dirty-set bookkeeping must re-dirty observers of lowered jitters."""
        for k, system in enumerate(_systems(40, spec=self.SPEC, seed0=900)):
            cold = analyze(
                system, config=AnalysisConfig(update="gauss_seidel")
            )
            if not cold.converged:
                continue
            warm_vector = cold.final_jitters()
            if any(math.isinf(v) for v in warm_vector.values()):
                continue
            full = analyze(
                system,
                config=AnalysisConfig(
                    update="gauss_seidel", incremental=False
                ),
                warm_start=warm_vector,
            )
            incremental = analyze(
                system,
                config=AnalysisConfig(update="gauss_seidel"),
                warm_start=warm_vector,
            )
            _assert_same_responses(
                full, incremental, f"warm dirty-set seed={900 + k}"
            )

    def test_jacobi_ignores_incremental_flag(self):
        system = random_system(self.SPEC, seed=3)
        a = analyze(
            system, config=AnalysisConfig(update="jacobi", incremental=True)
        )
        b = analyze(
            system, config=AnalysisConfig(update="jacobi", incremental=False)
        )
        assert a.task_skips == b.task_skips == 0
        _assert_same_responses(a, b, "jacobi")

    def test_skip_accounting_consistent(self):
        system = random_system(self.SPEC, seed=11)
        result = analyze(
            system, config=AnalysisConfig(update="gauss_seidel")
        )
        n_tasks = len(result.tasks)
        assert result.task_solves + result.task_skips == (
            result.outer_iterations * n_tasks
        )
