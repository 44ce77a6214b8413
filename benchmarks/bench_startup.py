"""Fresh-interpreter startup cost of the package's entry points.

Every dispatched shard is a new ``python -m repro campaign --shard k/n``
process, so what an interpreter loads before its first cell is a fixed
cost each shard pays.  This benchmark times fresh interpreters:

* ``python`` -- ``python -c pass``, the interpreter's own floor;
* ``import_repro`` -- ``python -c "import repro"``;
* ``import_serve`` -- ``python -c "import repro.serve"``;
* ``cli_help`` -- ``python -m repro --help``;
* ``shard`` -- a one-chain ``python -m repro campaign --shard 0/1``
  (one system over 14 utilization levels, verdict mode).

Each wall is the median of interleaved repeats (command by command, so
every command samples the same machine phases) of the whole process,
spawn to exit.  Beside each wall it records what the process loaded:
the module count, the ``repro.*`` module count and whether NumPy and
networkx were imported -- counted once, in a separate run that dumps
``sys.modules`` at exit, so the count never perturbs the walls.

``--baseline DIR`` times another checkout's ``DIR/src`` interleaved with
this one and records its numbers and the speedups beside them.  The
interpreter's own settings are inherited, not overridden; whether it
writes bytecode caches is recorded, because without them every start
compiles the package's sources again.

Run:  python benchmarks/bench_startup.py [--baseline DIR]
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

#: Interleaved repeats per command and tree.
REPEATS = 15

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


def measure(trees: dict[str, Path]) -> dict[str, dict]:
    """``tree -> command -> record`` over interleaved repeats."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        commands = _commands(work)
        walls = {t: {c: [] for c in commands} for t in trees}
        for _ in range(REPEATS):
            for name, (argv, _dump) in commands.items():
                for tree, src in trees.items():
                    walls[tree][name].append(_wall(argv, src))
        return {
            tree: {
                name: {
                    "argv": [
                        "python",
                        *(a.replace(f"{work}{os.sep}", "") for a in argv),
                    ],
                    **_summary(walls[tree][name]),
                    **_modules(dump, src),
                }
                for name, (argv, dump) in commands.items()
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
    args = parser.parse_args(argv)
    trees = {"current": ROOT / "src"}
    if args.baseline is not None:
        trees["baseline"] = args.baseline.resolve() / "src"
    results = measure(trees)
    payload = {
        "description": "fresh-interpreter walls (median of interleaved "
        "repeats, spawn to exit) and loaded-module counts of the entry "
        "points; see benchmarks/bench_startup.py",
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "repeats": REPEATS,
        "commands": results["current"],
    }
    if "baseline" in results:
        payload["baseline"] = results["baseline"]
        payload["speedup"] = {
            name: results["baseline"][name]["wall_s"] / record["wall_s"]
            for name, record in results["current"].items()
        }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    for tree, records in results.items():
        for name, record in records.items():
            print(
                f"{tree:8s} {name:12s} {record['wall_s'] * 1e3:8.1f} ms "
                f"(IQR {record['wall_s_iqr'] * 1e3:5.1f})  "
                f"{record['modules']:4d} modules, "
                f"{record['repro_modules']:3d} repro.*"
            )
    print(f"written {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
