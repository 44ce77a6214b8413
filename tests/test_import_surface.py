"""Import-surface gates: what each entry point loads, by module set.

The package surfaces are lazy (PEP 562): ``import repro`` binds nothing,
and a dispatched ``campaign --shard`` subprocess -- or the zygote that
local shards are forked from -- loads the campaign engine and the
analysis core but none of the simulator, the optimizer, the component
model (and networkx), the service, the dispatcher or the transports.
Every gate here compares module *sets* of fresh interpreters, so it
holds on any machine; the walls these sets buy are recorded by
``benchmarks/bench_startup.py``.  The zygote preloads ``numpy.random``
so a forked shard imports no NumPy module; that is safe only while no
module draws from NumPy's global ``RandomState``, which a static gate
pins.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import signal
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path
from types import ModuleType

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

needs_numpy = pytest.mark.skipif(
    find_spec("numpy") is None, reason="the campaign engine needs NumPy"
)

#: Runs ``python -m repro ARGS`` in-process, then writes the exit code and
#: the loaded module set as JSON to the path in argv[1].
_RUN_CLI = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["repro", *sys.argv[2:]]
code = None
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(out, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""

#: Never loaded by a shard (the dispatcher launches many of them) or by
#: the zygote that local shards are forked from.
SHARD_EXCLUDED = (
    "networkx",
    "repro.sim",
    "repro.components",
    "repro.opt",
    "repro.paper",
    "repro.serve",
    "repro.batch.dispatch",
    "repro.batch.transport",
)


def _env(*paths: Path) -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(
        [*(str(p) for p in (*paths, SRC)), *filter(None, inherited)]
    )
    return env


def _fresh(code: str, *paths: Path):
    """JSON printed last by *code* in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(*paths),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _loaded(modules, prefixes) -> list[str]:
    return [
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


class TestFreshImport:
    def test_import_repro_loads_nothing_but_the_package(self):
        modules = _fresh(
            "import json, sys, repro; print(json.dumps(sorted(sys.modules)))"
        )
        assert [m for m in modules if m.startswith("repro")] == [
            "repro", "repro._lazy",
        ]
        assert _loaded(modules, ("numpy", "networkx")) == []

    def test_analysis_surface_runs_without_networkx(self):
        schedulable = _fresh(
            "import json, sys; sys.modules['networkx'] = None\n"
            "import repro\n"
            "r = repro.analyze(repro.paper.sensor_fusion_system())\n"
            "print(json.dumps(r.schedulable))"
        )
        assert schedulable is True


@needs_numpy
class TestEntryPoints:
    def test_campaign_shard_loads_only_what_it_runs(self, tmp_path):
        dump = tmp_path / "modules.json"
        subprocess.run(
            [
                sys.executable, "-c", _RUN_CLI, str(dump), "campaign",
                "--grid", "utilization=0.3,0.6", "--transactions", "2",
                "--tasks", "1,2", "--systems", "1", "--methods", "verdict",
                "--shard", "0/1", "--workers", "1",
                "--json", str(tmp_path / "shard.json"),
            ],
            env=_env(), capture_output=True, timeout=120, check=True,
        )
        run = json.loads(dump.read_text())
        assert run["code"] == 0
        assert "repro.batch.campaign" in run["modules"]
        assert _loaded(run["modules"], SHARD_EXCLUDED) == []

    def test_shard_forked_after_preload_imports_no_numpy(self, tmp_path):
        """What a forked shard imports itself: a one-chain verdict shard
        run in-process after :data:`~repro.batch.zygote.PRELOAD` needs
        no further NumPy module (the ``SeedSequence`` it draws its seed
        from is preloaded)."""
        code = (
            "import importlib, json, sys\n"
            "from repro.batch import zygote\n"
            "for name in zygote.PRELOAD:\n"
            "    importlib.import_module(name)\n"
            "before = set(sys.modules)\n"
            "from repro.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(set(sys.modules) - before)]))"
        )
        out = subprocess.run(
            [
                sys.executable, "-c", code, "campaign",
                "--grid", "utilization=0.3,0.6", "--transactions", "2",
                "--tasks", "1,2", "--systems", "1", "--methods", "verdict",
                "--shard", "0/1", "--workers", "1",
                "--json", str(tmp_path / "shard.json"),
            ],
            env=_env(), capture_output=True, text=True, timeout=120,
            check=True,
        )
        code, imported = json.loads(out.stdout.strip().splitlines()[-1])
        assert code == 0
        assert _loaded(imported, ("numpy",)) == []

    def test_zygote_preload_loads_only_what_shards_run(self):
        modules = _fresh(
            "import importlib, json, sys\n"
            "from repro.batch import zygote\n"
            "for name in zygote.PRELOAD:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps(sorted(sys.modules)))"
        )
        assert {"repro.cli", "repro.batch.campaign"} <= set(modules)
        assert _loaded(modules, SHARD_EXCLUDED) == []

    def test_stdlib_serve_never_imports_uvicorn(self, tmp_path):
        # An importable stand-in, so the probe finds "uvicorn" installed
        # and only the --http choice keeps it out.
        stub = tmp_path / "stub" / "uvicorn"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text("")
        dump = tmp_path / "modules.json"
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-c", _RUN_CLI, str(dump), "serve",
                "--http", "stdlib", "--port", "0", "--pool-workers", "1",
            ],
            env=_env(tmp_path / "stub"), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening" in banner, banner
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        run = json.loads(dump.read_text())
        assert run["code"] == 0
        assert "repro.serve.server" in run["modules"]
        assert "uvicorn" not in run["modules"]
        # The stdlib bridge steps each request's coroutine itself.
        assert "asyncio" not in run["modules"]


#: Each package's public names must be the very objects their defining
#: submodules hold -- whether a name is resolved before or after its
#: submodule was imported directly (``repro.gen.uunifast`` is both a
#: submodule and the function it defines).
_IDENTITY = """
import importlib, json, pkgutil, sys, types
import repro
if sys.argv[1] == "submodules-first":
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)
subpackages = {"analysis", "batch", "components", "gen", "io", "model",
               "opt", "paper", "platforms", "sim", "util", "viz"}
bad = []
for name in ("repro", "repro.batch", "repro.gen", "repro.io"):
    package = importlib.import_module(name)
    for attr in package.__all__:
        obj = getattr(package, attr)
        if name == "repro" and attr in subpackages:
            ok = obj is sys.modules["repro." + attr]
        elif name == "repro" and attr == "__version__":
            ok = isinstance(obj, str)
        else:
            home = getattr(obj, "__module__", "")
            ok = (
                not isinstance(obj, types.ModuleType)
                and home.startswith(name + ".")
                and getattr(sys.modules[home], attr) is obj
            )
        if not ok:
            bad.append(f"{name}.{attr}")
print(json.dumps(bad))
"""


@needs_numpy
class TestPublicNames:
    @pytest.mark.parametrize("order", ["names-first", "submodules-first"])
    def test_names_are_their_defining_objects(self, order):
        out = subprocess.run(
            [sys.executable, "-c", _IDENTITY, order], env=_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert json.loads(out.stdout.strip().splitlines()[-1]) == []

    @pytest.mark.parametrize(
        "name", ["repro", "repro.batch", "repro.gen", "repro.io"]
    )
    def test_dir_star_import_and_unknown_names(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(package.__all__) <= set(namespace)
        with pytest.raises(AttributeError):
            getattr(package, "no_such_name")
        with pytest.raises(AttributeError):
            getattr(package, "_private_probe")

    def test_submodule_attribute_access(self):
        import repro.batch

        assert isinstance(repro.batch.dispatch, ModuleType)
        assert repro.batch.dispatch is sys.modules["repro.batch.dispatch"]
        assert repro.gen.presets is sys.modules["repro.gen.presets"]


#: ``numpy.random`` names that keep no global state: the generator API.
#: Every other name there (``seed``, ``rand``, ``shuffle``,
#: ``RandomState``, ...) reaches the legacy global ``RandomState``, which
#: every shard forked from the zygote would share.
_STATELESS_RANDOM = {
    "BitGenerator", "Generator", "PCG64", "SeedSequence", "default_rng",
}


def _is_numpy_random(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def test_no_module_draws_from_numpys_global_random_state():
    """Forking shards from a zygote that imported ``numpy.random`` is
    safe because nothing under ``src/repro`` uses the global state."""
    bad = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        where = path.relative_to(SRC)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and _is_numpy_random(node.value)
                and node.attr not in _STATELESS_RANDOM
            ):
                bad.append(f"{where}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and node.module in (
                "numpy", "numpy.random",
            ):
                bad.extend(
                    f"{where}:{node.lineno}: from {node.module} import "
                    f"{alias.name}"
                    for alias in node.names
                    if (alias.name == "random" if node.module == "numpy"
                        else alias.name not in _STATELESS_RANDOM)
                )
            elif isinstance(node, ast.Import):
                # An alias of the module hides what is drawn from it.
                bad.extend(
                    f"{where}:{node.lineno}: import {alias.name} as "
                    f"{alias.asname}"
                    for alias in node.names
                    if alias.name == "numpy.random" and alias.asname
                )
    assert bad == []
