"""Command-line interface.

Operates on JSON system files (see :mod:`repro.io.spec` for the schema):

.. code-block:: console

   $ python -m repro analyze system.json [--method exact] [--trace]
   $ python -m repro simulate system.json [--horizon T] [--seed N]
   $ python -m repro validate system.json [--seeds 0,1,2]
   $ python -m repro design system.json [--rate-tol X]
   $ python -m repro example --out system.json   # dump the paper example
   $ python -m repro campaign --grid utilization=0.3:0.9:5 --systems 100 \\
         --methods reduced,dedicated --workers 4   # acceptance-ratio sweep
   $ python -m repro campaign ... --shard 0/2 --json shard0.json  # host A
   $ python -m repro campaign ... --shard 1/2 --json shard1.json  # host B
   $ python -m repro campaign-merge shard0.json shard1.json --json all.json
   $ python -m repro campaign-dispatch ... --workers 4 --shards 16 \\
         --partition lpt --json all.json   # unattended sharded deployment
   $ python -m repro serve --port 8000 --store store/  # analysis service

Exit status: 0 when the system is schedulable (or the command succeeded),
1 when unschedulable / bounds violated, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis import AnalysisConfig, analyze
from repro.io import load_system, save_system, system_to_dict
from repro.io.spec import read_json
from repro.viz import format_table

# Subsystems only some commands use -- the simulator (NumPy), the
# optimizer, the paper tables, the campaign engine, the service -- are
# imported inside their handlers, so a ``campaign --shard`` subprocess
# loads only the code it runs and the analysis commands never need NumPy.

__all__ = ["main", "build_parser"]


def _add_campaign_spec_args(p: argparse.ArgumentParser) -> None:
    """The flags that define a CampaignSpec, shared by ``campaign`` and
    ``campaign-dispatch`` (so a dispatch deployment is described exactly
    like the single run it must reproduce)."""
    p.add_argument(
        "--grid", action="append", default=[], metavar="AXIS=SPEC",
        help="grid axis: AXIS=start:stop:count (linspace) or AXIS=v1,v2,... "
        "(repeatable; default 'utilization=0.3:0.9:5')",
    )
    p.add_argument("--transactions", type=int, default=3,
                   help="transactions per system (default 3)")
    p.add_argument("--platforms", type=int, default=2,
                   help="abstract platforms per system (default 2)")
    p.add_argument("--tasks", default="1,3", metavar="LO,HI",
                   help="tasks per transaction range (default 1,3)")
    p.add_argument("--deadline-factor", type=float, default=1.0)
    p.add_argument("--systems", type=int, default=20,
                   help="random systems per grid cell (default 20)")
    p.add_argument("--methods", default="reduced",
                   help="comma-separated method names (default 'reduced'; "
                   "'verdict' runs the early-exit verdict pipeline with "
                   "monotone level pruning along the utilization sweep -- "
                   "identical verdicts, no exact WCRTs on pruned cells)")
    p.add_argument("--generator", default="random_system")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-warm-start", action="store_true",
                   help="disable warm-start chaining along the sweep axis")
    p.add_argument("--spec", dest="spec_file", metavar="PATH",
                   help="load the full CampaignSpec from this JSON file "
                   "(as campaign-dispatch hands to its shard "
                   "subprocesses); the grid/shape flags above are then "
                   "ignored")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hierarchical scheduling analysis for component-based "
        "real-time systems (Lorente/Lipari/Bini 2006).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="response-time analysis + verdict")
    p_an.add_argument("system", help="JSON system file")
    p_an.add_argument("--method", choices=("reduced", "exact"), default="reduced")
    p_an.add_argument(
        "--best-case", choices=("simple", "sound", "iterative"), default="simple"
    )
    p_an.add_argument(
        "--mode", choices=("exact", "verdict"), default="exact",
        help="'verdict' computes only the schedulability verdict "
        "(identical to exact mode) with early-exit solves and cheap "
        "pre-filters; response times are then partial/upper bounds",
    )
    p_an.add_argument("--trace", action="store_true",
                      help="print the (J, R) iteration table")
    p_an.add_argument("--report", action="store_true",
                      help="print the full text report instead of the summary")
    p_an.add_argument("--store", metavar="DIR",
                      help="content-addressed result store: serve the "
                      "verdict/WCRTs from DIR when this (system, config) "
                      "was analyzed before, else analyze and write back; "
                      "ignored with --trace/--report (those need the live "
                      "iteration state)")

    p_sim = sub.add_parser("simulate", help="discrete-event simulation")
    p_sim.add_argument("system")
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--placement", choices=("early", "late", "random"), default="random"
    )
    p_sim.add_argument("--scheduler", choices=("fixed_priority", "edf"),
                       default="fixed_priority")

    p_val = sub.add_parser("validate", help="simulation-vs-analysis soundness")
    p_val.add_argument("system")
    p_val.add_argument("--seeds", default="0,1,2",
                       help="comma-separated seed list")
    p_val.add_argument("--horizon", type=float, default=None)

    p_des = sub.add_parser("design", help="bandwidth-minimal platform design")
    p_des.add_argument("system")
    p_des.add_argument("--rate-tol", type=float, default=1e-3)
    p_des.add_argument("--out", help="write the designed system here")

    p_dv = sub.add_parser(
        "derive",
        help="expand a component assembly (Sec. 2.4) into a system file",
    )
    p_dv.add_argument("assembly", help="JSON assembly file")
    p_dv.add_argument("--out", required=True, help="output system JSON path")

    p_g = sub.add_parser("gantt", help="render a simulated schedule as text")
    p_g.add_argument("system")
    p_g.add_argument("--horizon", type=float, default=None)
    p_g.add_argument("--window", type=float, default=None,
                     help="render only the first WINDOW time units")
    p_g.add_argument("--width", type=int, default=100)
    p_g.add_argument("--seed", type=int, default=0)
    p_g.add_argument(
        "--placement", choices=("early", "late", "random"), default="random"
    )

    p_ex = sub.add_parser("example", help="dump the paper's example system")
    p_ex.add_argument("--out", help="output path (default: stdout)")

    p_cp = sub.add_parser(
        "campaign",
        help="parallel schedulability campaign over random systems",
        description="Run a grid of analysis campaigns: generate random "
        "transaction systems per grid cell, analyze each with the chosen "
        "methods on a process pool, and aggregate acceptance ratios and "
        "iteration accounting.",
    )
    _add_campaign_spec_args(p_cp)
    p_cp.add_argument("--workers", type=int, default=1,
                      help="process-pool size; 1 runs inline")
    p_cp.add_argument("--chunk-size", type=int, default=None,
                      help="chains per pool task, >= 1 (default: auto)")
    p_cp.add_argument("--json", dest="json_out", metavar="PATH",
                      help="write the full CampaignResult as JSON")
    p_cp.add_argument("--csv", dest="csv_out", metavar="PATH",
                      help="write the per-cell table as CSV")
    p_cp.add_argument("--acceptance-csv", metavar="PATH",
                      help="write the aggregated acceptance table as CSV")
    p_cp.add_argument("--stream-csv", metavar="PATH",
                      help="append each finished cell to this CSV as it "
                      "completes (bounded-memory export for huge sweeps)")
    p_cp.add_argument("--no-collect", action="store_true",
                      help="with --stream-csv: do not keep cells in memory "
                      "(summary output and --json/--csv are then empty)")
    p_cp.add_argument("--shard", metavar="K/N",
                      help="run only shard K of a deterministic N-way "
                      "chain partition (0-based, e.g. 0/2); the union of "
                      "all shards is bit-identical to the unsharded run "
                      "and reassembles with 'campaign-merge'")
    p_cp.add_argument("--partition", choices=("hash", "lpt"),
                      default="hash",
                      help="shard partition strategy: 'hash' interleaves "
                      "by seed hash (balances chain counts), 'lpt' does a "
                      "longest-processing-time assignment over per-chain "
                      "costs (see --cost-manifest); every shard of one "
                      "deployment must use the same strategy and manifest")
    p_cp.add_argument("--cost-manifest", metavar="PATH",
                      help="chain-cost source for --partition lpt: a "
                      "previous campaign result JSON of the same spec "
                      "(its chain_costs block records per-chain wall "
                      "seconds) or a bare {chain index: seconds} mapping; "
                      "omitted, lpt falls back to the levels x tasks "
                      "size proxy")
    p_cp.add_argument("--store", metavar="DIR",
                      help="content-addressed result store: cells whose "
                      "(system, execution context, level, method) was "
                      "solved by any previous run sharing DIR are served "
                      "from disk (bit-identical to solving them), fresh "
                      "solves are written back as they finish -- rerun a "
                      "killed campaign with the same DIR to recover it")
    p_cp.add_argument("--chains", metavar="I,J,...",
                      help="run only the chains with these plan indices "
                      "(the dispatcher's elastic-split primitive; any "
                      "disjoint cover unions bit-identically to the full "
                      "run); mutually exclusive with --shard")
    p_cp.add_argument("--heartbeat", metavar="PATH",
                      help="atomically rewrite a liveness JSON here "
                      "(monotonic cells-completed counter + beat "
                      "sequence) so a dispatcher can tell progressing "
                      "from stalled from dead")
    p_cp.add_argument("--heartbeat-interval", type=float, default=1.0,
                      metavar="S",
                      help="max seconds between --heartbeat writes "
                      "(default 1.0)")

    p_cd = sub.add_parser(
        "campaign-dispatch",
        help="drive a sharded campaign to completion and auto-merge",
        description="Over-partition the campaign into fine shards, run "
        "them on a pool of worker subprocesses fed from a shared queue "
        "(fast workers steal the long tail), relaunch dead shards (with "
        "--store, a relaunch serves every cell an earlier attempt "
        "solved), and auto-merge the union -- bit-identical to a "
        "single-process run.",
    )
    _add_campaign_spec_args(p_cd)
    p_cd.add_argument("--workers", type=int, default=2,
                      help="concurrent shard subprocesses (default 2)")
    p_cd.add_argument("--shards", type=int, default=None,
                      help="shard count (default: 4x workers; finer "
                      "shards give the queue more to balance with)")
    p_cd.add_argument("--partition", choices=("hash", "lpt"),
                      default="hash",
                      help="chain partition strategy (see 'campaign')")
    p_cd.add_argument("--cost-manifest", metavar="PATH",
                      help="chain-cost source for --partition lpt "
                      "(see 'campaign')")
    p_cd.add_argument("--work-dir", metavar="DIR",
                      help="directory for spec/shard/heartbeat files "
                      "(default: a temporary directory, removed on "
                      "success)")
    p_cd.add_argument("--hosts", metavar="ssh:HOST[,HOST...]",
                      help="run shard commands through 'ssh HOST' with "
                      "worker slots pinned round-robin to the hosts "
                      "(shared --work-dir filesystem, or --transport "
                      "copyback); default runs local subprocesses")
    p_cd.add_argument("--transport", choices=("shared", "copyback"),
                      default="shared",
                      help="file movement to/from workers: 'shared' "
                      "(default) assumes one filesystem; 'copyback' "
                      "gives every host its own work dir under "
                      "WORK_DIR/hosts/HOST -- inputs staged out per "
                      "launch, results/heartbeats pulled "
                      "back per poll, every transfer timeout-bounded, "
                      "retried, digest-verified and atomically landed")
    p_cd.add_argument("--host-blacklist-after", type=int, default=None,
                      metavar="N",
                      help="host-level failure domains: quarantine a "
                      "host after N consecutive failures (dead/stalled/"
                      "timeout shards, transport failures) and "
                      "reschedule its shards onto healthy hosts "
                      "(default: off)")
    p_cd.add_argument("--host-cooldown", type=float, default=60.0,
                      metavar="S",
                      help="seconds a quarantined host sits out before "
                      "re-admission on probation -- one probe shard, "
                      "and a probation failure retires the host for "
                      "the rest of the dispatch (default 60)")
    p_cd.add_argument("--max-attempts", type=int, default=3,
                      help="launch attempts per shard before giving up "
                      "(default 3)")
    p_cd.add_argument("--stall-after", type=float, default=None,
                      metavar="S",
                      help="heartbeat liveness window: kill and relaunch "
                      "a shard whose cells-completed counter has not "
                      "advanced for S seconds (still-beating shards count "
                      "as stalled, silent ones as dead; default: off)")
    p_cd.add_argument("--heartbeat-interval", type=float, default=1.0,
                      metavar="S",
                      help="seconds between shard heartbeat writes "
                      "(default 1.0; capped at --stall-after/4 so a "
                      "healthy shard can never look silent)")
    p_cd.add_argument("--shard-timeout", type=float, default=None,
                      metavar="S",
                      help="flat wall-clock budget per shard attempt; "
                      "exceeding it counts as a failed attempt "
                      "(default: off)")
    p_cd.add_argument("--timeout-factor", type=float, default=None,
                      metavar="K",
                      help="with --cost-manifest: per-shard budget of "
                      "K x predicted cost + --timeout-floor seconds "
                      "(--shard-timeout wins when both are set)")
    p_cd.add_argument("--timeout-floor", type=float, default=30.0,
                      metavar="S",
                      help="constant term of the --timeout-factor budget "
                      "(default 30)")
    p_cd.add_argument("--backoff", dest="backoff_base", type=float,
                      default=1.0, metavar="S",
                      help="base of the exponential relaunch backoff "
                      "min(max, S * 2^(attempt-1) + jitter) with "
                      "deterministic seeded jitter (default 1.0; 0 "
                      "relaunches immediately)")
    p_cd.add_argument("--backoff-max", type=float, default=60.0,
                      metavar="S",
                      help="upper bound of the relaunch backoff "
                      "(default 60)")
    p_cd.add_argument("--split-after", type=float, default=None,
                      metavar="S",
                      help="elastic straggler splitting: when the queue "
                      "is empty, slots sit idle and one shard has held "
                      "its slot for S seconds, re-partition its "
                      "unfinished chains onto the idle slots (with "
                      "--store, chains the store holds count as finished "
                      "and are served; the union stays bit-identical; "
                      "default: off)")
    p_cd.add_argument("--json", dest="json_out", metavar="PATH",
                      help="write the merged CampaignResult as JSON "
                      "(its chain_costs block is the natural "
                      "--cost-manifest for the next deployment)")
    p_cd.add_argument("--csv", dest="csv_out", metavar="PATH",
                      help="write the merged per-cell table as CSV")
    p_cd.add_argument("--acceptance-csv", metavar="PATH",
                      help="write the merged acceptance table as CSV")
    p_cd.add_argument("--store", metavar="DIR",
                      help="content-addressed result store passed to every "
                      "shard via --store (must be shared storage when "
                      "--hosts spans machines); relaunched and split "
                      "shards, repeated or overlapping dispatches then "
                      "skip already-solved cells.  Without it a failed "
                      "shard is solved again from scratch")

    p_cm = sub.add_parser(
        "campaign-merge",
        help="merge shard/partial campaign result JSONs into one",
        description="Union campaign result files produced with --shard "
        "(or --chains subsets) into one canonical-order result. "
        "All inputs must share the exact campaign spec; overlapping "
        "cells and duplicate shard indices are rejected.  Exit status 1 "
        "when the union is still missing cells of the spec.",
    )
    p_cm.add_argument("inputs", nargs="+", metavar="RESULT_JSON",
                      help="campaign result JSON files to merge")
    p_cm.add_argument("--json", dest="json_out", metavar="PATH",
                      help="write the merged CampaignResult as JSON")
    p_cm.add_argument("--csv", dest="csv_out", metavar="PATH",
                      help="write the merged per-cell table as CSV")
    p_cm.add_argument("--acceptance-csv", metavar="PATH",
                      help="write the merged acceptance table as CSV")
    p_cm.add_argument("--quiet", action="store_true",
                      help="suppress the summary table")

    p_ss = sub.add_parser(
        "store-stats",
        help="entry count / size / age histogram of a result store",
        description="Walk a content-addressed result store directory "
        "(as used by analyze/campaign/campaign-dispatch --store) and "
        "report entry count, payload bytes, and an age histogram.",
    )
    p_ss.add_argument("store", metavar="DIR", help="store root directory")
    p_ss.add_argument("--json", dest="json_out", action="store_true",
                      help="emit machine-readable JSON instead of a table")

    p_sg = sub.add_parser(
        "store-gc",
        help="prune a result store by age and/or spec reachability",
        description="Remove store entries condemned by EVERY given "
        "criterion (intersection): older than --older-than, and/or not "
        "reachable from the campaign spec in --spec.  With no criterion "
        "nothing is removed.  Orphaned temp files from crashed writers "
        "are swept once a day old regardless.",
    )
    p_sg.add_argument("store", metavar="DIR", help="store root directory")
    p_sg.add_argument("--older-than", metavar="AGE",
                      help="prune entries whose mtime is older than AGE: "
                      "30s, 10m, 4h, 7d, or bare seconds")
    p_sg.add_argument("--spec", dest="spec_file", metavar="PATH",
                      help="keep only entries a run of this campaign "
                      "spec would consult (a spec JSON as written by "
                      "campaign-dispatch work dirs, or any campaign "
                      "result JSON -- its spec block is used)")
    p_sg.add_argument("--dry-run", action="store_true",
                      help="report what would be removed without deleting")

    p_sv = sub.add_parser(
        "serve",
        help="run the analysis service (persistent worker pool)",
        description="Long-running HTTP service in front of the engine: "
        "POST /analyze (sync single-system analysis), POST /campaigns "
        "(spec JSON -> async job on a persistent process pool, or the "
        "dispatcher for large sweeps), GET /campaigns/{id}[/result], "
        "GET /healthz, GET /stats.  The pool outlives requests so driver "
        "caches amortize across calls; --store makes the content-"
        "addressed result store the response cache.",
    )
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument("--port", type=int, default=8000)
    p_sv.add_argument("--store", metavar="DIR",
                      help="content-addressed result store shared by "
                      "/analyze and campaign jobs (and any CLI run "
                      "pointing --store at the same DIR)")
    p_sv.add_argument("--pool-workers", type=int, default=2,
                      help="persistent process-pool size for campaign "
                      "jobs; 1 runs campaigns inline (default 2)")
    p_sv.add_argument("--job-runners", type=int, default=1,
                      help="concurrent campaign jobs (default 1)")
    p_sv.add_argument("--max-queue", type=int, default=8,
                      help="bounded job-queue length; overflow answers "
                      "429 + Retry-After (default 8)")
    p_sv.add_argument("--max-cells", type=int, default=20000,
                      help="per-request ceiling on planned analyses "
                      "(cells x methods); larger specs answer 413 "
                      "(default 20000)")
    p_sv.add_argument("--retry-after", type=float, default=2.0,
                      metavar="S",
                      help="seconds advertised in the 429 Retry-After "
                      "header (default 2)")
    p_sv.add_argument("--dispatch-workers", type=int, default=2,
                      help="subprocess slots for backend=dispatch jobs "
                      "(default 2)")
    p_sv.add_argument("--dispatch-shards", type=int, default=None,
                      help="shard count for backend=dispatch jobs "
                      "(default: 4x dispatch workers)")
    p_sv.add_argument("--http", dest="http_impl",
                      choices=("auto", "uvicorn", "stdlib"),
                      default="auto",
                      help="HTTP layer: uvicorn when installed, else the "
                      "bundled stdlib bridge (default auto)")
    return parser


def _parse_grid_axis(text: str) -> tuple[str, tuple]:
    """Parse ``axis=start:stop:count`` or ``axis=v1,v2,...``."""
    if "=" not in text:
        raise ValueError(f"grid axis {text!r} must look like AXIS=SPEC")
    axis, spec = text.split("=", 1)
    axis = axis.strip()
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"grid range {spec!r} must be start:stop:count"
            )
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"grid range {spec!r} needs count >= 1")
        from repro.batch import linspace_levels

        return axis, linspace_levels(start, stop, count)
    values = tuple(float(v) for v in spec.split(",") if v != "")
    if not values:
        raise ValueError(f"grid axis {text!r} has no values")
    # Integer axes (e.g. n_transactions) should stay integers.
    if all(v == int(v) for v in values) and "." not in spec:
        return axis, tuple(int(v) for v in values)
    return axis, values


def _analyze_store(args: argparse.Namespace, config: AnalysisConfig):
    """``(store, key)`` for a ``--store`` analyze call, or ``(None, None)``.

    ``--trace``/``--report`` need the live iteration state a served
    result cannot provide, so the store is skipped for them.  The store
    modules live under ``repro.batch`` (whose import pulls in NumPy), so
    a missing NumPy downgrades ``--store`` to a warning instead of
    breaking the otherwise NumPy-free analyze path.
    """
    if not args.store or args.trace or args.report:
        return None, None
    try:
        from repro.batch.canonical import analysis_config_hash, system_hash
        from repro.batch.store import ResultStore, StoreKey
    except ImportError as exc:
        print(
            f"warning: --store unavailable ({exc}); analyzing uncached",
            file=sys.stderr,
        )
        return None, None
    system = load_system(args.system)
    key = StoreKey(
        system_hash(system), analysis_config_hash(config), None, "analyze"
    )
    return ResultStore(args.store), key


def _cmd_analyze(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    config = AnalysisConfig(
        method=args.method, best_case=args.best_case, mode=args.mode
    )
    store, store_key = _analyze_store(args, config)
    served = store.get(store_key) if store is not None else None
    if served is not None and (
        not isinstance(served.get("transaction_wcrt"), list)
        or len(served["transaction_wcrt"]) != len(system.transactions)
    ):
        served = None  # malformed/foreign entry: analyze normally
    if served is not None:
        schedulable = bool(served["schedulable"])
        wcrts = [float(w) for w in served["transaction_wcrt"]]
    else:
        result = analyze(
            system, config=config, trace=args.trace or args.report
        )
        schedulable = result.schedulable
        wcrts = [
            result.transaction_wcrt[i]
            for i in range(len(system.transactions))
        ]
        if store is not None:
            store.put(
                store_key,
                {
                    "schedulable": bool(result.schedulable),
                    "converged": bool(result.converged),
                    "transaction_wcrt": [float(w) for w in wcrts],
                },
            )

    if args.report:
        from repro.analysis.report import text_report

        print(text_report(system, result, include_trace=args.trace))
        return 0 if result.schedulable else 1

    rows = [
        [
            tr.name or f"Gamma{i + 1}",
            f"{wcrts[i]:.4g}",
            f"{tr.deadline:g}",
            f"{tr.deadline - wcrts[i]:.4g}",
            "yes" if wcrts[i] <= tr.deadline + 1e-9 else "NO",
        ]
        for i, tr in enumerate(system.transactions)
    ]
    print(format_table(
        ["transaction", "wcrt", "deadline", "slack", "meets"],
        rows,
        title=f"analysis of {args.system} (method={args.method})",
    ))
    if args.trace:
        from repro.paper import render_table3

        print()
        for i in range(len(system.transactions)):
            if len(system.transactions[i].tasks) > 1:
                print(render_table3(result, transaction=i))
                print()
    if served is not None:
        print(f"(served from result store {args.store})")
    print(f"schedulable: {schedulable}")
    return 0 if schedulable else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim import SimulationConfig, simulate

    system = load_system(args.system)
    cfg = SimulationConfig(
        horizon=args.horizon,
        seed=args.seed,
        placement=args.placement,
        scheduler=args.scheduler,
    )
    trace = simulate(system, config=cfg)
    rows = []
    for (i, j), st in sorted(trace.tasks.items()):
        name = system.transactions[i].tasks[j].name or f"({i},{j})"
        rows.append([
            name, str(st.count), f"{st.min_response:.4g}",
            f"{st.mean_response:.4g}", f"{st.max_response:.4g}",
            str(st.misses),
        ])
    print(format_table(
        ["task", "jobs", "min R", "mean R", "max R", "misses"],
        rows,
        title=f"simulation of {args.system} "
              f"(horizon={trace.horizon:g}, seed={args.seed})",
    ))
    misses = trace.total_misses()
    print(f"total deadline misses: {misses}")
    return 0 if misses == 0 else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.sim import validate_against_analysis

    system = load_system(args.system)
    seeds = tuple(int(s) for s in args.seeds.split(",") if s != "")
    report = validate_against_analysis(system, seeds=seeds, horizon=args.horizon)
    rows = [
        [str(key), f"{report.observed.get(key, 0.0):.4g}",
         f"{report.bound[key]:.4g}", f"{report.tightness(*key):.2f}"]
        for key in sorted(report.bound)
    ]
    print(format_table(
        ["task", "observed", "bound", "tightness"],
        rows,
        title=f"validation of {args.system} ({report.runs} runs)",
    ))
    print(f"sound: {report.sound}")
    if report.violations:
        print(f"bound violations: {report.violations}")
    if report.best_violations:
        print(f"best-case violations: {report.best_violations}")
    return 0 if report.sound else 1


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.opt import minimize_bandwidth

    system = load_system(args.system)
    design = minimize_bandwidth(system, rate_tol=args.rate_tol)
    rows = [
        [getattr(p, "name", "") or f"Pi{k + 1}",
         f"{system.platforms[k].rate:.4g}", f"{p.rate:.4g}"]
        for k, p in enumerate(design.platforms)
    ]
    print(format_table(
        ["platform", "rate before", "rate after"],
        rows,
        title=f"bandwidth-minimal design of {args.system}",
    ))
    print(f"feasible: {design.feasible}; total bandwidth "
          f"{design.initial_bandwidth:.4g} -> {design.total_bandwidth:.4g} "
          f"(saves {design.savings:.1%})")
    if args.out and design.feasible:
        save_system(design.designed_system(system), args.out)
        print(f"designed system written to {args.out}")
    return 0 if design.feasible else 1


def _cmd_derive(args: argparse.Namespace) -> int:
    from repro.io import load_assembly

    assembly = load_assembly(args.assembly)
    problems = assembly.validate()
    for p in problems:
        print(p)
    system = assembly.derive_transactions()
    save_system(system, args.out)
    print(
        f"derived {len(system.transactions)} transactions / "
        f"{system.total_tasks()} tasks over {len(system.platforms)} "
        f"platforms -> {args.out}"
    )
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from repro.sim import SimulationConfig, simulate
    from repro.viz.gantt import render_gantt

    system = load_system(args.system)
    cfg = SimulationConfig(
        horizon=args.horizon,
        seed=args.seed,
        placement=args.placement,
        record_intervals=True,
    )
    trace = simulate(system, config=cfg)
    end = args.window if args.window is not None else trace.horizon
    print(render_gantt(system, trace, end=min(end, trace.horizon),
                       width=args.width))
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    from repro.paper import sensor_fusion_system

    system = sensor_fusion_system()
    if args.out:
        save_system(system, args.out)
        print(f"paper example written to {args.out}")
    else:
        json.dump(system_to_dict(system), sys.stdout, indent=2)
        print()
    return 0


def _spec_from_args(args: argparse.Namespace):
    """Build the CampaignSpec described by the shared campaign flags."""
    from repro.batch import CampaignSpec

    if getattr(args, "spec_file", None):
        return CampaignSpec.from_dict(read_json(args.spec_file))

    grid_specs = args.grid or ["utilization=0.3:0.9:5"]
    grid: dict[str, tuple] = {}
    for text in grid_specs:
        axis, values = _parse_grid_axis(text)
        grid[axis] = values

    try:
        lo, hi = (int(x) for x in args.tasks.split(","))
    except ValueError:
        raise ValueError(
            f"--tasks must be LO,HI (two integers), got {args.tasks!r}"
        ) from None
    base = {
        "n_platforms": args.platforms,
        "n_transactions": args.transactions,
        "tasks_per_transaction": (lo, hi),
        "deadline_factor": args.deadline_factor,
    }
    if args.generator != "random_system":
        # Custom generators define their own parameter space; make the
        # discard of random_system shape flags visible instead of silent.
        defaults = {"transactions": 3, "platforms": 2, "tasks": "1,3",
                    "deadline_factor": 1.0}
        overridden = [
            f"--{name.replace('_', '-')}"
            for name, default in defaults.items()
            if getattr(args, name) != default
        ]
        if overridden:
            print(
                f"warning: generator {args.generator!r} ignores "
                f"{', '.join(overridden)} (random_system shape flags)",
                file=sys.stderr,
            )
        base = {}

    return CampaignSpec(
        grid=grid,
        base=base,
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        systems_per_cell=args.systems,
        seed=args.seed,
        generator=args.generator,
        warm_start=not args.no_warm_start,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.batch import Campaign, parse_shard
    from repro.batch.campaign import load_cost_manifest

    spec = _spec_from_args(args)
    shard = parse_shard(args.shard) if args.shard else None
    chain_indices = None
    if args.chains is not None:
        try:
            chain_indices = [
                int(token)
                for token in args.chains.split(",")
                if token.strip()
            ]
        except ValueError:
            raise ValueError(
                "--chains must be a comma-separated list of chain plan "
                f"indices, got {args.chains!r}"
            ) from None
        if not chain_indices:
            raise ValueError(
                f"--chains names no chain index, got {args.chains!r}"
            )
    cost_manifest = (
        load_cost_manifest(args.cost_manifest)
        if args.cost_manifest
        else None
    )
    result = Campaign(spec).run(
        workers=args.workers,
        chunk_size=args.chunk_size,
        stream_csv=args.stream_csv,
        collect=not args.no_collect,
        shard=shard,
        partition=args.partition,
        cost_manifest=cost_manifest,
        store=args.store,
        chain_indices=chain_indices,
        heartbeat=args.heartbeat,
        heartbeat_interval=args.heartbeat_interval,
    )
    if args.store:
        print(
            f"result store {args.store}: {result.store_hits} cells served, "
            f"{result.store_misses} solved and stored"
        )
    if shard is not None:
        # Under --no-collect the result keeps no cells; the streamed count
        # is then the number of analyses this shard executed.
        executed = result.n_analyses or result.streamed_cells
        print(f"shard {shard[0]}/{shard[1]}: "
              f"{executed} of {spec.n_analyses()} total analyses")
    if args.stream_csv:
        print(f"streamed {result.streamed_cells} cells to {args.stream_csv}")
    print(result.format_summary())
    if args.json_out:
        from repro.batch.faults import CORRUPT_PAYLOAD, WorkerFaults

        worker_faults = WorkerFaults.from_env()
        if worker_faults is not None and worker_faults.corrupts_output():
            # Fault injection: damage the output exactly where a crash
            # mid-write would, exercising crash-consistent readers.
            from pathlib import Path as _Path

            _Path(args.json_out).write_text(CORRUPT_PAYLOAD)
            print(f"fault injection: corrupt output written to {args.json_out}")
        else:
            print(
                f"campaign result written to {result.save_json(args.json_out)}"
            )
    if args.csv_out:
        print(f"per-cell CSV written to {result.write_cells_csv(args.csv_out)}")
    if args.acceptance_csv:
        print(
            "acceptance CSV written to "
            f"{result.write_acceptance_csv(args.acceptance_csv)}"
        )
    return 0


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    from repro.batch import CampaignResult, CampaignSpec, merge_campaign_results

    results = [CampaignResult.load_json(path) for path in args.inputs]
    merged = merge_campaign_results(results)
    spec = CampaignSpec.from_dict(merged.spec)
    expected = spec.n_analyses()
    missing = expected - len(merged.cells)
    print(
        f"merged {len(results)} result file(s): "
        f"{len(merged.cells)}/{expected} cells"
    )
    if missing:
        print(
            f"warning: {missing} cells of the spec are still missing "
            "(merge more shards)",
            file=sys.stderr,
        )
    if not args.quiet:
        print(merged.format_summary())
    if args.json_out:
        print(f"merged result written to {merged.save_json(args.json_out)}")
    if args.csv_out:
        print(f"per-cell CSV written to {merged.write_cells_csv(args.csv_out)}")
    if args.acceptance_csv:
        print(
            "acceptance CSV written to "
            f"{merged.write_acceptance_csv(args.acceptance_csv)}"
        )
    return 1 if missing else 0


def _cmd_campaign_dispatch(args: argparse.Namespace) -> int:
    import shutil
    import signal
    import tempfile
    from pathlib import Path

    from repro.batch.campaign import load_cost_manifest
    from repro.batch.dispatch import (
        CampaignDispatcher,
        DispatchError,
        DispatchInterrupted,
        LocalBackend,
        SshBackend,
    )

    spec = _spec_from_args(args)
    workers = args.workers
    if workers < 1:
        # Checked before the default shard count is derived from it, so
        # the error names the flag that is wrong.
        raise ValueError(f"--workers must be >= 1, got {workers}")
    shards = args.shards if args.shards is not None else 4 * workers
    cost_manifest = (
        load_cost_manifest(args.cost_manifest)
        if args.cost_manifest
        else None
    )
    backend: LocalBackend | SshBackend = LocalBackend()
    if args.hosts:
        scheme, sep, host_list = args.hosts.partition(":")
        if not sep or scheme != "ssh" or not host_list:
            raise ValueError(
                f"--hosts must look like ssh:HOST[,HOST...], got "
                f"{args.hosts!r}"
            )
        backend = SshBackend(
            [h.strip() for h in host_list.split(",") if h.strip()]
        )
    temp_dir = args.work_dir is None
    work_dir = Path(
        args.work_dir
        if args.work_dir is not None
        else tempfile.mkdtemp(prefix="repro-dispatch-")
    )
    transport = None
    if args.transport == "copyback":
        from repro.batch.transport import CopyBackTransport

        hosts = backend.hosts if isinstance(backend, SshBackend) else ["local"]
        transport = CopyBackTransport(
            work_dir,
            {h: work_dir / "hosts" / h for h in hosts},
            seed=spec.seed,
        )
    dispatcher = CampaignDispatcher(
        spec,
        shards=shards,
        workers=workers,
        partition=args.partition,
        cost_manifest=cost_manifest,
        work_dir=work_dir,
        backend=backend,
        max_attempts=args.max_attempts,
        stall_after=args.stall_after,
        heartbeat_interval=args.heartbeat_interval,
        shard_timeout=args.shard_timeout,
        timeout_factor=args.timeout_factor,
        timeout_floor=args.timeout_floor,
        backoff_base=args.backoff_base,
        backoff_max=args.backoff_max,
        split_after=args.split_after,
        store=args.store,
        transport=transport,
        host_blacklist_after=args.host_blacklist_after,
        host_cooldown=args.host_cooldown,
    )

    # SIGTERM (systemd stop, cluster preemption, a plain `kill`) takes
    # the same graceful path SIGINT already does: the dispatcher
    # terminates every child shard and saves the merged partial.
    def _graceful_term(signum, frame):
        raise KeyboardInterrupt

    _unset = object()
    previous_term = _unset
    try:
        previous_term = signal.signal(signal.SIGTERM, _graceful_term)
    except ValueError:
        pass  # not the main thread (embedded use); SIGINT still works
    try:
        report = dispatcher.run()
    except DispatchInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        print(f"shard files kept under {work_dir}", file=sys.stderr)
        return 1
    except DispatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"shard files kept under {work_dir}", file=sys.stderr)
        return 1
    finally:
        if previous_term is not _unset:
            signal.signal(signal.SIGTERM, previous_term)
    print(report.format_summary())
    print(report.result.format_summary())
    if args.json_out:
        path = report.result.save_json(args.json_out)
        print(f"merged result written to {path}")
    if args.csv_out:
        print(
            "per-cell CSV written to "
            f"{report.result.write_cells_csv(args.csv_out)}"
        )
    if args.acceptance_csv:
        print(
            "acceptance CSV written to "
            f"{report.result.write_acceptance_csv(args.acceptance_csv)}"
        )
    if temp_dir:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _parse_age(text: str) -> float:
    """``"30s"/"10m"/"4h"/"7d"`` (or bare seconds) -> seconds."""
    raw = text.strip().lower()
    unit = 1.0
    if raw and raw[-1] in _AGE_UNITS:
        unit = _AGE_UNITS[raw[-1]]
        raw = raw[:-1]
    try:
        seconds = float(raw) * unit
    except ValueError:
        raise ValueError(
            f"--older-than must be a number with optional s/m/h/d "
            f"suffix, got {text!r}"
        ) from None
    if seconds < 0:
        raise ValueError("--older-than must be >= 0")
    return seconds


def _open_store(root: str):
    """A ResultStore for *root*, or ``None`` when NumPy is missing.

    The store backend itself is stdlib-only, but it lives under
    ``repro.batch`` whose package import pulls in NumPy; a missing NumPy
    should degrade to a clear error, not a traceback.
    """
    try:
        from repro.batch.store import ResultStore
    except ImportError as exc:
        print(f"error: store tooling unavailable ({exc})", file=sys.stderr)
        return None
    return ResultStore(root)


def _cmd_store_stats(args: argparse.Namespace) -> int:
    from pathlib import Path

    store = _open_store(args.store)
    if store is None:
        return 2
    if not Path(args.store).is_dir():
        print(f"error: {args.store} is not a directory", file=sys.stderr)
        return 2
    stats = store.stats()
    histogram = store.age_histogram()
    if args.json_out:
        json.dump(
            {
                "root": str(store.root),
                "entries": stats.entries,
                "bytes": stats.bytes,
                "age_histogram": {label: n for label, n in histogram},
            },
            sys.stdout,
        )
        print()
        return 0
    print(f"result store {store.root}")
    print(f"  entries: {stats.entries}")
    print(f"  payload: {stats.bytes} bytes")
    print("  age histogram:")
    for label, count in histogram:
        print(f"    {label:>5}: {count}")
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    from pathlib import Path

    store = _open_store(args.store)
    if store is None:
        return 2
    if not Path(args.store).is_dir():
        print(f"error: {args.store} is not a directory", file=sys.stderr)
        return 2
    if not args.older_than and not args.spec_file:
        print(
            "error: store-gc needs --older-than and/or --spec "
            "(refusing to interpret no criteria as 'prune everything')",
            file=sys.stderr,
        )
        return 2
    older_than_s = _parse_age(args.older_than) if args.older_than else None
    keep_digests = None
    if args.spec_file:
        from repro.batch import CampaignSpec
        from repro.batch.campaign import store_reachable_digests

        data = read_json(args.spec_file)
        if isinstance(data, dict) and isinstance(data.get("spec"), dict):
            data = data["spec"]  # a campaign result JSON: use its spec
        spec = CampaignSpec.from_dict(data)
        keep_digests = store_reachable_digests(spec)
        print(
            f"spec {args.spec_file}: {len(keep_digests)} reachable "
            "entr(ies) kept"
        )
    result = store.gc(
        older_than_s=older_than_s,
        keep_digests=keep_digests,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {result.removed} entr(ies) "
        f"({result.bytes_freed} bytes), kept {result.kept}"
        + (
            f"; swept {result.tmp_removed} orphaned temp file(s)"
            if result.tmp_removed
            else ""
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # The serve subsystem sits on repro.batch (NumPy) and optionally
    # uvicorn; both degrade to clear errors, not tracebacks.
    try:
        from repro.serve import ServeConfig, create_app
        from repro.serve.server import serve_forever
    except ImportError as exc:
        print(
            f"error: the analysis service is unavailable ({exc}); "
            "it needs NumPy (the campaign engine runs on it)",
            file=sys.stderr,
        )
        return 2
    app = create_app(ServeConfig(
        store=args.store,
        pool_workers=args.pool_workers,
        job_runners=args.job_runners,
        max_queue=args.max_queue,
        max_cells_per_job=args.max_cells,
        retry_after_s=args.retry_after,
        dispatch_workers=args.dispatch_workers,
        dispatch_shards=args.dispatch_shards,
    ))
    return serve_forever(
        app, host=args.host, port=args.port, http_impl=args.http_impl
    )


_COMMANDS = {
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "design": _cmd_design,
    "derive": _cmd_derive,
    "gantt": _cmd_gantt,
    "example": _cmd_example,
    "campaign": _cmd_campaign,
    "campaign-merge": _cmd_campaign_merge,
    "campaign-dispatch": _cmd_campaign_dispatch,
    "store-stats": _cmd_store_stats,
    "store-gc": _cmd_store_gc,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # AssemblyError and friends
        from repro.components.validation import AssemblyError

        if isinstance(exc, AssemblyError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
