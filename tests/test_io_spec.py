"""Tests for system serialization."""

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import analyze
from repro.gen import random_system
from repro.io import load_system, save_system, system_from_dict, system_to_dict
from repro.model.system import TransactionSystem
from repro.model.task import Task
from repro.model.transaction import Transaction
from repro.paper import sensor_fusion_system
from repro.platforms import (
    CBSServer,
    DedicatedPlatform,
    NetworkLinkPlatform,
    PeriodicServer,
    PFairPlatform,
    StaticPartitionPlatform,
)

from system_edits import LEAF_VALUES, leaf_paths, set_leaf


class TestRoundTrip:
    def test_paper_example(self):
        s = sensor_fusion_system()
        s2 = system_from_dict(system_to_dict(s))
        assert analyze(s).transaction_wcrt == pytest.approx(
            analyze(s2).transaction_wcrt
        )

    def test_random_system(self):
        s = random_system(seed=11)
        s2 = system_from_dict(system_to_dict(s))
        assert analyze(s).transaction_wcrt == pytest.approx(
            analyze(s2).transaction_wcrt
        )

    def test_task_fields_preserved(self):
        s = sensor_fusion_system()
        s.transactions[0].tasks[0].jitter = 3.5
        s.transactions[0].tasks[0].blocking = 0.25
        d = system_to_dict(s)
        s2 = system_from_dict(d)
        t = s2.transactions[0].tasks[0]
        assert t.jitter == 3.5
        assert t.blocking == 0.25
        assert t.name == s.transactions[0].tasks[0].name

    @pytest.mark.parametrize("platform", [
        DedicatedPlatform(speed=0.5, name="cpu"),
        PeriodicServer(2.0, 5.0, name="srv"),
        CBSServer(1.0, 4.0, name="cbs"),
        StaticPartitionPlatform([(0.0, 1.0), (3.0, 1.0)], cycle=6.0, name="tdm"),
        PFairPlatform(0.3, name="pf"),
        NetworkLinkPlatform(100.0, share=0.5, frame_overhead=4.0, name="bus"),
    ])
    def test_platform_kinds_round_trip(self, platform):
        t = Transaction(period=10.0, tasks=[Task(wcet=0.5, platform=0, priority=1)])
        s = TransactionSystem(transactions=[t], platforms=[platform])
        s2 = system_from_dict(system_to_dict(s))
        p2 = s2.platforms[0]
        assert type(p2) is type(platform)
        assert p2.triple() == pytest.approx(platform.triple())
        assert p2.name == platform.name

    def test_file_round_trip(self, tmp_path):
        s = sensor_fusion_system()
        path = save_system(s, tmp_path / "sub" / "sys.json")
        assert path.exists()
        s2 = load_system(path)
        assert s2.name == s.name
        assert len(s2.transactions) == 4


class TestErrors:
    def test_unknown_version(self):
        with pytest.raises(ValueError, match="schema version"):
            system_from_dict({"version": 99, "platforms": [], "transactions": []})

    def test_unknown_platform_kind(self):
        d = system_to_dict(sensor_fusion_system())
        d["platforms"][0]["kind"] = "quantum"
        with pytest.raises(ValueError, match="unknown platform kind"):
            system_from_dict(d)

    def test_unserializable_platform(self):
        from repro.io.spec import _platform_to_dict

        with pytest.raises(TypeError):
            _platform_to_dict(object())


class TestMalformedInput:
    """Malformed structure, wrong types and overflowing values are a
    :class:`ValueError` naming the entry, never another exception."""

    def test_rejected_naming_the_entry(self, malformed_system):
        data, text = malformed_system
        with pytest.raises(ValueError) as info:
            system_from_dict(data)
        assert text in str(info.value)

    @pytest.mark.parametrize("data", [[], "system", None])
    def test_non_object_system_rejected(self, data):
        with pytest.raises(ValueError, match="must be a JSON object"):
            system_from_dict(data)


_PAPER = system_to_dict(sensor_fusion_system())


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    path=st.sampled_from(list(leaf_paths(_PAPER))),
    value=st.sampled_from(LEAF_VALUES),
)
def test_single_leaf_mutation_fails_cleanly_or_answers(path, value, within):
    """One leaf of the paper example swapped for a hostile value (or
    deleted): the loader raises ValueError/KeyError, or both analysis
    modes answer within 5 s."""
    data = copy.deepcopy(_PAPER)
    set_leaf(data, path, value)
    try:
        system = system_from_dict(data)
    except (ValueError, KeyError):
        return
    for mode in ("exact", "verdict"):
        with within(5.0):
            analyze(system, mode=mode)
