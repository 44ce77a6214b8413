"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.batch import CampaignResult
from repro.batch.campaign import load_cost_manifest
from repro.cli import main
from repro.io import load_assembly, load_system
from repro.io import save_system, system_to_dict
from repro.model.system import TransactionSystem
from repro.model.task import Task
from repro.model.transaction import Transaction
from repro.paper import sensor_fusion_system
from repro.platforms.linear import DedicatedPlatform


@pytest.fixture
def paper_file(tmp_path):
    return str(save_system(sensor_fusion_system(), tmp_path / "paper.json"))


@pytest.fixture
def unschedulable_file(tmp_path):
    t1 = Transaction(period=10.0, tasks=[Task(wcet=7.0, platform=0, priority=2)])
    t2 = Transaction(period=10.0, tasks=[Task(wcet=7.0, platform=0, priority=1)])
    s = TransactionSystem(transactions=[t1, t2], platforms=[DedicatedPlatform()])
    return str(save_system(s, tmp_path / "bad.json"))


class TestAnalyze:
    def test_schedulable_exit_zero(self, paper_file, capsys):
        assert main(["analyze", paper_file]) == 0
        out = capsys.readouterr().out
        assert "schedulable: True" in out
        assert "Gamma1" in out

    def test_trace_prints_iteration_table(self, paper_file, capsys):
        assert main(["analyze", paper_file, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "J(0)" in out and "R(3)" in out

    def test_exact_method(self, paper_file, capsys):
        assert main(["analyze", paper_file, "--method", "exact"]) == 0

    def test_unschedulable_exit_one(self, unschedulable_file, capsys):
        assert main(["analyze", unschedulable_file]) == 1
        assert "NO" in capsys.readouterr().out

    @pytest.mark.parametrize("edit", ["no_transactions", "unresolvable"])
    def test_degenerate_system_exit_two(self, tmp_path, capsys, edit):
        data = system_to_dict(sensor_fusion_system())
        if edit == "no_transactions":
            data["transactions"] = []
        else:
            data["transactions"][0]["period"] = 2e9
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file_exit_two(self, capsys):
        assert main(["analyze", "/nonexistent/sys.json"]) == 2
        assert "error" in capsys.readouterr().err


#: A JSON document nested past the parser's recursion limit.
NESTED = "[" * 50_000 + "]" * 50_000


class TestNestedUserFiles:
    """A file too deep to parse is a usage error (exit 2), not a crash."""

    @pytest.fixture
    def nested_file(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text(NESTED)
        return path

    def test_analyze_exits_two_without_traceback(self, nested_file):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", str(nested_file)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["campaign", "store-gc"])
    def test_spec_flag_exits_two(self, nested_file, tmp_path, capsys,
                                 command):
        argv = [command, "--spec", str(nested_file)]
        if command == "store-gc":
            (tmp_path / "store").mkdir()
            argv.insert(1, str(tmp_path / "store"))
        assert main(argv) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "load",
        [load_system, load_assembly, load_cost_manifest,
         CampaignResult.load_json],
    )
    def test_loaders_raise_value_error(self, nested_file, load):
        with pytest.raises(ValueError, match="nested too deeply"):
            load(nested_file)


class TestSimulate:
    def test_runs(self, paper_file, capsys):
        assert main(["simulate", paper_file, "--horizon", "500"]) == 0
        out = capsys.readouterr().out
        assert "total deadline misses: 0" in out

    def test_misses_exit_one(self, unschedulable_file, capsys):
        assert main(["simulate", unschedulable_file, "--horizon", "200"]) == 1

    def test_edf_scheduler_flag(self, paper_file, capsys):
        assert main(
            ["simulate", paper_file, "--horizon", "300", "--scheduler", "edf"]
        ) == 0


class TestValidate:
    def test_sound(self, paper_file, capsys):
        assert main(
            ["validate", paper_file, "--seeds", "0", "--horizon", "1000"]
        ) == 0
        assert "sound: True" in capsys.readouterr().out


class TestDesign:
    def test_design_writes_output(self, paper_file, tmp_path, capsys):
        out_path = tmp_path / "designed.json"
        assert main(
            ["design", paper_file, "--rate-tol", "0.01", "--out", str(out_path)]
        ) == 0
        assert out_path.exists()
        data = json.loads(out_path.read_text())
        assert data["version"] == 1
        out = capsys.readouterr().out
        assert "saves" in out


class TestGantt:
    def test_renders_chart(self, paper_file, capsys):
        assert main([
            "gantt", paper_file, "--horizon", "200", "--window", "100",
            "--width", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "Gantt [0, 100)" in out
        assert "Pi3" in out

    def test_placement_flag(self, paper_file, capsys):
        assert main([
            "gantt", paper_file, "--horizon", "100", "--placement", "late",
        ]) == 0


class TestExample:
    def test_dump_to_stdout(self, capsys):
        assert main(["example"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["transactions"]) == 4

    def test_dump_to_file(self, tmp_path, capsys):
        path = tmp_path / "ex.json"
        assert main(["example", "--out", str(path)]) == 0
        assert json.loads(path.read_text()) == system_to_dict(sensor_fusion_system())
