"""Canonical ready-made workloads.

Two realistic component-based systems in the style the paper's introduction
motivates, usable as test fixtures, demo material and benchmark seeds:

* :func:`automotive_cluster` -- three ECUs around a CAN-like bus: an engine
  controller polling sensors over the bus, a dashboard subscribing to the
  engine state, and a diagnostics unit with background traffic.  Exercises
  message tasks, multiple callers of one provided method, and priority
  bands on the bus.
* :func:`avionics_partitions` -- an IMA-flavoured uniprocessor hosting
  three partitions (flight control / navigation / maintenance) as periodic
  servers, with an RPC from navigation into flight control's provided
  attitude service.  Exercises server platforms and cross-partition calls.

Both return a validated :class:`~repro.components.assembly.SystemAssembly`
whose derived system is schedulable under the default analysis.

Random-campaign presets (ROADMAP items): two
:class:`~repro.gen.random_transactions.RandomSystemSpec` shapes that pin
down where the PR 2 performance layers pay off --

* :func:`deep_chain_spec` -- few long transactions (8-16 tasks each,
  spread over two platforms): once a chain's upstream prefix stabilizes,
  the chain-aware dirty set stops re-solving it, so the skip fraction
  *grows* with chain depth;
* :func:`wide_view_spec` -- everything on one platform with 10-14 tasks
  per transaction: every foreign transaction view batches well past
  :data:`repro.analysis.busy.VECTOR_MIN_JOBS` (starters x tasks), so
  ``kernel="auto"`` evaluates Eq. 15 with the vector kernel's step
  envelope;
* :func:`independent_tasks_spec` -- single-task transactions only: the
  regime where the verdict-mode sufficient pre-filter (capped-jitter
  response bound, see :mod:`repro.analysis.schedulability`) classifies
  schedulable systems without entering the holistic loop at all -- with
  no derived jitters to cap, the one filter round *is* the analysis.

:func:`campaign_base` converts any of them into the ``base`` params dict
of a :class:`~repro.batch.campaign.CampaignSpec` utilization sweep.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.components.assembly import SystemAssembly
from repro.components.component import Component
from repro.components.interface import ProvidedMethod, RequiredMethod
from repro.components.threads import CallStep, EventThread, PeriodicThread, TaskStep
from repro.gen.random_transactions import RandomSystemSpec
from repro.platforms.linear import LinearSupplyPlatform
from repro.platforms.network import Message, NetworkLinkPlatform
from repro.platforms.periodic_server import PeriodicServer

__all__ = [
    "automotive_cluster",
    "avionics_partitions",
    "campaign_base",
    "deep_chain_spec",
    "independent_tasks_spec",
    "wide_view_spec",
]


def deep_chain_spec(utilization: float = 0.4) -> RandomSystemSpec:
    """Deep precedence chains: 2 transactions of 8-16 tasks on 2 platforms.

    The showcase (and regression pin) for the chain-aware dirty set of the
    incremental Gauss-Seidel outer iteration: with long chains, most of a
    round's per-task solves are skipped once the upstream prefix of each
    chain has stabilized, so the ``task_skips`` fraction is substantially
    higher than on shallow (1-3 task) systems.
    """
    return RandomSystemSpec(
        n_platforms=2,
        n_transactions=2,
        tasks_per_transaction=(8, 16),
        utilization=utilization,
    )


def wide_view_spec(utilization: float = 0.5) -> RandomSystemSpec:
    """Wide interference views: 3 transactions of 10-14 tasks, 1 platform.

    Co-locating everything on a single platform makes every foreign
    transaction view 10-14 tasks wide; its Eq. 15 bound then covers
    ``(starters x tasks) >= 100`` jobs per call, comfortably past the
    ``kernel="auto"`` vector threshold
    (:data:`repro.analysis.busy.VECTOR_MIN_JOBS`), so campaigns over this
    preset evaluate W* with the vector kernel's step envelope.  Tasks
    that see one foreign transaction at the same jitters share its
    compiled W* within an analysis, so W* compiles once per distinct view.
    """
    return RandomSystemSpec(
        n_platforms=1,
        n_transactions=3,
        tasks_per_transaction=(10, 14),
        utilization=utilization,
    )


def independent_tasks_spec(utilization: float = 0.4) -> RandomSystemSpec:
    """Independent tasks: 4 single-task transactions on 2 platforms.

    The showcase (and regression pin) for the verdict-mode sufficient
    pre-filter: single-task transactions carry no derived jitters, so the
    one capped-jitter solve round of
    :func:`repro.analysis.schedulability.response_bound_prefilter`
    evaluates the exact final jitter vector -- every schedulable draw is
    accepted without entering the holistic loop (``prefilter_accepts`` in
    the fixed-point stats).  Multi-task chains leave this regime quickly:
    the deadline-sized jitter caps inflate the one-round bound past the
    deadline, and the filter correctly declines to classify.
    """
    return RandomSystemSpec(
        n_platforms=2,
        n_transactions=4,
        tasks_per_transaction=(1, 1),
        utilization=utilization,
    )


def campaign_base(spec: RandomSystemSpec) -> dict:
    """*spec* as a campaign ``base`` dict (utilization left to the sweep).

    >>> from repro.batch import CampaignSpec
    >>> CampaignSpec(
    ...     grid={"utilization": (0.3, 0.6)}, base=campaign_base(wide_view_spec())
    ... ).n_cells()
    2
    """
    base = asdict(spec)
    del base["utilization"]
    return base


def automotive_cluster() -> SystemAssembly:
    """Three ECUs + CAN-like bus; times in milliseconds, payloads in bytes."""
    engine = Component(
        name="EngineController",
        provided=[ProvidedMethod("engine_state", mit=9.0)],
        threads=[
            PeriodicThread(
                name="injection",
                period=5.0,
                deadline=5.0,
                priority=4,
                body=[TaskStep("injection_law", wcet=0.8, bcet=0.3)],
            ),
            PeriodicThread(
                name="lambda_loop",
                period=20.0,
                deadline=20.0,
                priority=3,
                body=[TaskStep("lambda_ctrl", wcet=1.5, bcet=0.6)],
            ),
            EventThread(
                name="state_server",
                realizes="engine_state",
                priority=2,
                body=[TaskStep("snapshot", wcet=0.4, bcet=0.2)],
            ),
        ],
    )
    dashboard = Component(
        name="Dashboard",
        required=[RequiredMethod("engine", mit=40.0)],
        threads=[
            PeriodicThread(
                name="refresh",
                period=40.0,
                deadline=40.0,
                priority=2,
                body=[
                    CallStep("engine"),
                    TaskStep("render", wcet=4.0, bcet=1.5),
                ],
            )
        ],
    )
    diagnostics = Component(
        name="Diagnostics",
        required=[RequiredMethod("engine", mit=100.0)],
        threads=[
            PeriodicThread(
                name="obd",
                period=100.0,
                deadline=100.0,
                priority=1,
                body=[
                    CallStep("engine"),
                    TaskStep("store_dtc", wcet=6.0, bcet=2.0),
                ],
            )
        ],
    )

    asm = SystemAssembly(name="automotive-cluster")
    asm.add_instance("Engine", engine)
    asm.add_instance("Dash", dashboard)
    asm.add_instance("Diag", diagnostics)
    asm.add_platform("ecu.engine", LinearSupplyPlatform(0.7, 0.3, 0.0, name="ecu.engine"))
    asm.add_platform("ecu.dash", LinearSupplyPlatform(0.5, 0.5, 0.0, name="ecu.dash"))
    asm.add_platform("ecu.diag", LinearSupplyPlatform(0.3, 1.0, 0.0, name="ecu.diag"))
    asm.add_platform(
        "can",
        NetworkLinkPlatform(
            bandwidth=62.5,            # bytes/ms (500 kbit/s)
            share=0.6,                 # periodic window
            arbitration_delay=0.27,    # one max frame at 500 kbit/s
            frame_overhead=6.0,
            name="can",
        ),
    )
    asm.place("Engine", platform="ecu.engine")
    asm.place("Dash", platform="ecu.dash")
    asm.place("Diag", platform="ecu.diag")
    asm.bind(
        "Dash", "engine", "Engine", "engine_state",
        request=Message(payload=2.0, priority=3, name="dash.req"),
        reply=Message(payload=8.0, priority=3, name="dash.rep"),
        network="can",
    )
    asm.bind(
        "Diag", "engine", "Engine", "engine_state",
        request=Message(payload=2.0, priority=1, name="diag.req"),
        reply=Message(payload=8.0, priority=1, name="diag.rep"),
        network="can",
    )
    return asm


def avionics_partitions() -> SystemAssembly:
    """Three IMA partitions on one CPU (periodic servers); times in ms."""
    flight_control = Component(
        name="FlightControl",
        provided=[ProvidedMethod("attitude", mit=90.0)],
        threads=[
            PeriodicThread(
                name="inner_loop",
                period=10.0,
                deadline=10.0,
                priority=4,
                body=[TaskStep("stabilize", wcet=1.0, bcet=0.5)],
            ),
            EventThread(
                name="attitude_server",
                realizes="attitude",
                priority=3,
                body=[TaskStep("read_attitude", wcet=0.5, bcet=0.25)],
            ),
        ],
    )
    navigation = Component(
        name="Navigation",
        required=[RequiredMethod("att", mit=100.0)],
        threads=[
            PeriodicThread(
                name="fusion",
                period=100.0,
                deadline=100.0,
                priority=2,
                body=[
                    TaskStep("predict", wcet=2.0, bcet=1.0),
                    CallStep("att"),
                    TaskStep("correct", wcet=3.0, bcet=1.2),
                ],
            )
        ],
    )
    maintenance = Component(
        name="Maintenance",
        threads=[
            PeriodicThread(
                name="health",
                period=200.0,
                deadline=200.0,
                priority=1,
                body=[TaskStep("bit", wcet=8.0, bcet=3.0)],
            )
        ],
    )

    asm = SystemAssembly(name="avionics-partitions")
    asm.add_instance("FC", flight_control)
    asm.add_instance("NAV", navigation)
    asm.add_instance("MX", maintenance)
    # One physical CPU, three ARINC-style servers: total bandwidth 0.8.
    asm.add_platform("p.fc", PeriodicServer(2.0, 5.0, name="p.fc"))
    asm.add_platform("p.nav", PeriodicServer(2.5, 10.0, name="p.nav"))
    asm.add_platform("p.mx", PeriodicServer(3.0, 20.0, name="p.mx"))
    asm.place("FC", platform="p.fc")
    asm.place("NAV", platform="p.nav")
    asm.place("MX", platform="p.mx")
    asm.bind("NAV", "att", "FC", "attitude")
    return asm
