"""Start-up cost of the package's entry points and of a dispatched shard.

A dispatched shard's fixed cost is what it pays before its first cell.
Local shards fork from one warm zygote per process
(:mod:`repro.batch.zygote`), which pays interpreter start and the
campaign engine's imports once: the process's first local dispatch
starts it, later dispatches fork from it while the interpreter, cwd,
start env and preload list stay the same (otherwise, or once it died,
they start a fresh one), and it closes at interpreter exit.  Idle, it
holds one interpreter's RSS; its log is a temp file of its own, outside
every dispatch's work dir (this benchmark names one in its work dir); a
process that dispatches once still pays one start.  ssh shards, and local shards before the zygote, are fresh
``python -m repro campaign --shard k/n`` processes.  This benchmark
times both.  Fresh interpreters, spawn to exit:

* ``python`` -- ``python -c pass``, the interpreter's own floor;
* ``import_repro`` -- ``python -c "import repro"``;
* ``import_serve`` -- ``python -c "import repro.serve"``;
* ``cli_help`` -- ``python -m repro --help``;
* ``shard`` -- a one-chain ``python -m repro campaign --shard 0/1``
  (one system over 14 utilization levels, verdict mode).

Beside each of those walls it records what the process loaded: the
module count, the ``repro.*`` module count and whether NumPy and
networkx were imported -- counted once, in a separate run that dumps
``sys.modules`` at exit, so the count never perturbs the walls.  Timed
inside a helper interpreter (its own start excluded):

* ``zygote_start`` -- a zygote's start, from :func:`zygote.acquire
  <repro.batch.zygote.acquire>` to ready;
* ``forked_shard`` -- the same one-chain shard forked from that warm
  zygote, launch to exit, next to the cold ``shard``;
* ``zygote_close`` -- :meth:`Zygote.close` once that shard has exited,
  the wait the interpreter's exit hook adds;
* ``dispatch_4x2`` -- ``CampaignDispatcher.run()`` with 4 shards on 2
  local slots over the shard's spec at 4 replicates (one chain per
  shard), zygote start included, polling every 50 ms;
* ``dispatch_4x2_warm`` -- a second such dispatch in the same helper
  interpreter, which forks from the zygote the first one started (a
  tree whose zygote lives for one dispatch starts another).

Each wall is the median of interleaved repeats (command by command, so
every command samples the same machine phases).  ``--baseline DIR``
times another checkout's ``DIR/src`` interleaved with this one and
records its numbers and the speedups beside them; a tree without a
zygote records only the two dispatch walls of the five launch walls.  The
interpreter's own settings are inherited, not overridden; whether it
writes bytecode caches is recorded, because without them every cold
start compiles the package's sources again.

Run:  python benchmarks/bench_startup.py [--baseline DIR] [--quick]
Writes ``BENCH_startup.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_startup.json"

#: Interleaved repeats per command and tree (``--quick``: QUICK_REPEATS).
REPEATS = 15
QUICK_REPEATS = 3

#: Runs ``python -m repro ARGS`` in-process, then prints the loaded
#: module set as JSON.
_DUMP_CLI = """
import json, runpy, sys
sys.argv = ["repro", *sys.argv[1:]]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(sorted(sys.modules)))
"""

_DUMP_IMPORT = "import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"

#: Starts a zygote, forks ``python -m repro ARGS`` from it, closes it,
#: and prints ``[start, launch-to-exit, close]`` seconds; argv[1] is the
#: work dir.  A tree whose zygote lives for one dispatch has no
#: ``acquire``: its zygote is constructed directly.
_ZYGOTE = """
import json, os, sys, time
from pathlib import Path
from repro.batch import zygote as z
work = Path(sys.argv[1])
start = getattr(z, "acquire", z.Zygote)
t0 = time.perf_counter()
zygote = start(dict(os.environ), work / "zygote.log")
t1 = time.perf_counter()
proc = zygote.launch([sys.executable, "-m", "repro", *sys.argv[2:]],
                     dict(os.environ), work / "forked.log")
code = proc.wait()
t2 = time.perf_counter()
zygote.close()
t3 = time.perf_counter()
assert code == 0, code
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""

#: Prints the walls of two 4-shard, 2-slot dispatches in a row, into
#: work dirs under argv[1]: ``[cold, warm]``.
_DISPATCH = """
import json, sys, time
from repro.batch import CampaignDispatcher, CampaignSpec, linspace_levels
spec = CampaignSpec(
    grid={"utilization": linspace_levels(0.30, 0.95, 14)},
    base={"n_platforms": 3, "n_transactions": 4,
          "tasks_per_transaction": (2, 4)},
    methods=("verdict",), systems_per_cell=4, seed=11,
)
walls = []
for run in ("cold", "warm"):
    t0 = time.perf_counter()
    CampaignDispatcher(spec, shards=4, workers=2,
                       work_dir=f"{sys.argv[1]}_{run}",
                       poll_interval=0.05, poll_max=0.05).run()
    walls.append(time.perf_counter() - t0)
print(json.dumps(walls))
"""

#: The launch walls, and whether a tree without a zygote has them.
LAUNCHES = {"zygote_start": False, "forked_shard": False,
            "zygote_close": False, "dispatch_4x2": True,
            "dispatch_4x2_warm": True}


def _commands(work: Path) -> dict[str, tuple[list[str], list[str]]]:
    """``name -> (timed argv, module-dump argv)`` after the interpreter."""
    shard = [
        "campaign", "--grid", "utilization=0.3:0.95:14", "--platforms", "3",
        "--transactions", "4", "--tasks", "2,4", "--methods", "verdict",
        "--systems", "1", "--seed", "11", "--shard", "0/1", "--workers", "1",
        "--json", str(work / "shard.json"),
    ]
    return {
        "python": (["-c", "pass"], ["-c", _DUMP_IMPORT.format(module="os")]),
        "import_repro": (
            ["-c", "import repro"],
            ["-c", _DUMP_IMPORT.format(module="repro")],
        ),
        "import_serve": (
            ["-c", "import repro.serve"],
            ["-c", _DUMP_IMPORT.format(module="repro.serve")],
        ),
        "cli_help": (["-m", "repro", "--help"], ["-c", _DUMP_CLI, "--help"]),
        "shard": (["-m", "repro", *shard], ["-c", _DUMP_CLI, *shard]),
    }


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def _wall(argv: list[str], src: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, *argv], env=_env(src), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=300, check=True,
    )
    return time.perf_counter() - t0


def _timed(script: str, args: list[str], src: Path):
    """The JSON a timing *script* prints (it times itself)."""
    out = subprocess.run(
        [sys.executable, "-c", script, *args], env=_env(src),
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _has_zygote(src: Path) -> bool:
    return (src / "repro" / "batch" / "zygote.py").exists()


def _modules(argv: list[str], src: Path) -> dict:
    out = subprocess.run(
        [sys.executable, *argv], env=_env(src), capture_output=True,
        text=True, timeout=300, check=True,
    )
    modules = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        "modules": len(modules),
        "repro_modules": sum(1 for m in modules if m.split(".")[0] == "repro"),
        "numpy": "numpy" in modules,
        "networkx": "networkx" in modules,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _summary(walls: list[float]) -> dict:
    q1, _median, q3 = statistics.quantiles(walls, n=4)
    return {
        "wall_s": statistics.median(walls),
        "wall_s_iqr": q3 - q1,
        "samples": len(walls),
    }


def measure(trees: dict[str, Path], repeats: int) -> dict[str, dict]:
    """``tree -> command -> record`` over interleaved repeats."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        commands = _commands(work)
        shard_args = commands["shard"][0][2:]
        launches = {
            tree: [
                name for name, without_zygote in LAUNCHES.items()
                if without_zygote or _has_zygote(src)
            ]
            for tree, src in trees.items()
        }
        walls = {
            t: {c: [] for c in [*commands, *launches[t]]} for t in trees
        }
        for k in range(repeats):
            for name, (argv, _dump) in commands.items():
                for tree, src in trees.items():
                    walls[tree][name].append(_wall(argv, src))
            for tree, src in trees.items():
                if "forked_shard" in launches[tree]:
                    start, forked, close = _timed(
                        _ZYGOTE, [tmp, *shard_args], src
                    )
                    walls[tree]["zygote_start"].append(start)
                    walls[tree]["forked_shard"].append(forked)
                    walls[tree]["zygote_close"].append(close)
            for tree, src in trees.items():
                wd = str(work / f"dispatch_{tree}_{k}")
                cold, warm = _timed(_DISPATCH, [wd], src)
                walls[tree]["dispatch_4x2"].append(cold)
                walls[tree]["dispatch_4x2_warm"].append(warm)
        return {
            tree: {
                **{
                    name: {
                        "argv": [
                            "python",
                            *(a.replace(f"{work}{os.sep}", "") for a in argv),
                        ],
                        **_summary(walls[tree][name]),
                        **_modules(dump, src),
                    }
                    for name, (argv, dump) in commands.items()
                },
                **{
                    name: _summary(walls[tree][name])
                    for name in launches[tree]
                },
            }
            for tree, src in trees.items()
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, metavar="DIR",
        help="another checkout whose src/ is timed interleaved with this one",
    )
    parser.add_argument(
        "--out", type=Path, default=BENCH_JSON, metavar="PATH",
        help="where to write the bench JSON (default: repo root)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"{QUICK_REPEATS} repeats instead of {REPEATS} (a smoke run)",
    )
    args = parser.parse_args(argv)
    repeats = QUICK_REPEATS if args.quick else REPEATS
    trees = {"current": ROOT / "src"}
    if args.baseline is not None:
        trees["baseline"] = args.baseline.resolve() / "src"
    results = measure(trees, repeats)
    payload = {
        "description": "fresh-interpreter walls (median of interleaved "
        "repeats, spawn to exit) and loaded-module counts of the entry "
        "points, plus zygote start, forked-shard, zygote close and cold "
        "and warm 4x2 dispatch walls; see benchmarks/bench_startup.py",
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "quick": args.quick,
        "repeats": repeats,
        "commands": results["current"],
    }
    if "baseline" in results:
        payload["baseline"] = results["baseline"]
        payload["speedup"] = {
            name: record["wall_s"] / results["current"][name]["wall_s"]
            for name, record in results["baseline"].items()
        }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    for tree, records in results.items():
        for name, record in records.items():
            loaded = (
                f"  {record['modules']:4d} modules, "
                f"{record['repro_modules']:3d} repro.*"
                if "modules" in record else ""
            )
            print(
                f"{tree:8s} {name:17s} {record['wall_s'] * 1e3:8.1f} ms "
                f"(IQR {record['wall_s_iqr'] * 1e3:5.1f}){loaded}"
            )
    print(f"written {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
