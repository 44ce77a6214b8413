"""Unit drills for the dispatcher's file-movement layer.

:class:`SharedDirTransport` must stay a faithful zero-copy no-op (the
PR 7 shared-filesystem contract), and :class:`CopyBackTransport` must
carry the full crash-consistency contract on every transfer: per-file
timeout, bounded seeded-backoff retry, SHA-256 digest verification, and
atomic tmp+rename landing -- so a torn, truncated, or bit-flipped copy
never lands, and a failed transfer leaves the destination exactly as it
was.  The injected-fault semantics (first/count windows, per-attempt
counters, host blackholing) are pinned here because the dispatcher-level
fault drills in ``test_dispatch_faults.py`` build on them.
"""

from __future__ import annotations

import pytest

from repro.batch.faults import Fault, FaultPlan, TransportFault
from repro.batch.transport import (
    CopyBackTransport,
    SharedDirTransport,
    TransportError,
)

pytestmark = pytest.mark.transport


@pytest.fixture
def dirs(tmp_path):
    """A dispatcher work dir plus two mock host work dirs."""
    local = tmp_path / "dispatch"
    local.mkdir()
    hosts = {}
    for h in ("alpha", "beta"):
        hosts[h] = tmp_path / "hosts" / h
        hosts[h].mkdir(parents=True)
    return local, hosts


def make(local, hosts, **kwargs):
    kwargs.setdefault("backoff_base", 0.0)  # no sleeps in unit tests
    return CopyBackTransport(local, hosts, **kwargs)


class TestSharedDirTransport:
    def test_worker_paths_are_dispatcher_paths(self, tmp_path):
        t = SharedDirTransport(tmp_path)
        assert t.worker_path("anything", "spec.json") == tmp_path / "spec.json"
        assert t.stage_out("h", "spec.json") is True
        assert t.pull("h", "shard0000.json") is True
        assert t.stats() == {"kind": "shared"}

    def test_remove_unlinks_and_tolerates_absence(self, tmp_path):
        t = SharedDirTransport(tmp_path)
        (tmp_path / "x.json").write_text("{}")
        t.remove("h", "x.json")
        assert not (tmp_path / "x.json").exists()
        t.remove("h", "x.json")  # already gone: no error

    def test_arming_transport_faults_is_a_harness_bug(self, tmp_path):
        t = SharedDirTransport(tmp_path)
        t.arm([])  # empty plan is fine
        with pytest.raises(ValueError, match="CopyBackTransport"):
            t.arm([TransportFault(kind="drop")])


class TestCopyBackRoundTrip:
    def test_stage_out_and_pull(self, dirs):
        local, hosts = dirs
        t = make(local, hosts)
        (local / "spec.json").write_text('{"seed": 1}')
        assert t.stage_out("alpha", "spec.json")
        assert (hosts["alpha"] / "spec.json").read_text() == '{"seed": 1}'
        assert not (hosts["beta"] / "spec.json").exists()

        (hosts["alpha"] / "shard0000.json").write_text('{"cells": []}')
        assert t.pull("alpha", "shard0000.json")
        assert (local / "shard0000.json").read_text() == '{"cells": []}'
        assert t.stats()["pushes"] == 1
        assert t.stats()["pulls"] == 1

    def test_unchanged_push_is_skipped_changed_push_is_not(self, dirs):
        local, hosts = dirs
        t = make(local, hosts)
        (local / "spec.json").write_text("v1")
        assert t.stage_out("alpha", "spec.json")
        assert t.stage_out("alpha", "spec.json")  # same bytes: cached
        assert t.stats()["pushes"] == 1
        assert t.stats()["skipped_pushes"] == 1
        # The cache is per (host, name): beta still gets its own push.
        assert t.stage_out("beta", "spec.json")
        assert t.stats()["pushes"] == 2
        # A changed source is re-pushed.
        (local / "spec.json").write_text("v2")
        assert t.stage_out("alpha", "spec.json")
        assert (hosts["alpha"] / "spec.json").read_text() == "v2"
        assert t.stats()["pushes"] == 3

    def test_pull_of_absent_file_is_benign(self, dirs):
        local, hosts = dirs
        t = make(local, hosts)
        assert t.pull("alpha", "shard0000.hb.json") is True
        assert not (local / "shard0000.hb.json").exists()
        assert t.stats()["failures"] == 0

    def test_remove_clears_both_sides_and_staging_cache(self, dirs):
        local, hosts = dirs
        t = make(local, hosts)
        (local / "spec.json").write_text("v1")
        t.stage_out("alpha", "spec.json")
        t.remove("alpha", "spec.json")
        assert not (local / "spec.json").exists()
        assert not (hosts["alpha"] / "spec.json").exists()
        # The cache forgot the digest, so the next push really pushes.
        (local / "spec.json").write_text("v1")
        assert t.stage_out("alpha", "spec.json")
        assert t.stats()["pushes"] == 2
        assert t.stats()["skipped_pushes"] == 0

    def test_constructor_validation(self, dirs):
        local, hosts = dirs
        with pytest.raises(ValueError, match="at least one host"):
            CopyBackTransport(local, {})
        with pytest.raises(ValueError, match="collides"):
            CopyBackTransport(local, {"alpha": local})
        with pytest.raises(ValueError, match="timeout"):
            CopyBackTransport(local, hosts, timeout=0)
        with pytest.raises(ValueError, match="retries"):
            CopyBackTransport(local, hosts, retries=-1)

    def test_unknown_host_fails_loudly(self, dirs):
        local, hosts = dirs
        t = make(local, hosts)
        with pytest.raises(KeyError, match="gamma"):
            t.worker_path("gamma", "spec.json")
        with pytest.raises(ValueError, match="unknown host"):
            t.arm([TransportFault(kind="drop", host="gamma")])


class TestInjectedFaults:
    def test_truncate_is_caught_by_digest_and_healed_by_retry(self, dirs):
        local, hosts = dirs
        t = make(local, hosts)
        t.arm([TransportFault(kind="truncate", op="pull", name="out.json")])
        (hosts["alpha"] / "out.json").write_text('{"cells": [1, 2, 3]}')
        assert t.pull("alpha", "out.json")  # attempt 2 heals
        assert (local / "out.json").read_text() == '{"cells": [1, 2, 3]}'
        assert t.stats()["retries"] == 1
        assert t.stats()["failures"] == 0

    def test_corrupt_is_caught_by_digest(self, dirs):
        local, hosts = dirs
        t = make(local, hosts)
        t.arm([TransportFault(kind="corrupt", op="push")])
        (local / "spec.json").write_text("x" * 256)
        assert t.stage_out("alpha", "spec.json")
        assert (hosts["alpha"] / "spec.json").read_text() == "x" * 256
        assert t.stats()["retries"] == 1

    def test_persistent_drop_fails_and_leaves_destination_intact(self, dirs):
        local, hosts = dirs
        t = make(local, hosts)
        t.arm([TransportFault(kind="drop", op="pull", count=None)])
        (local / "out.json").write_text("previous good copy")
        (hosts["alpha"] / "out.json").write_text("never lands")
        assert t.pull("alpha", "out.json") is False
        assert (local / "out.json").read_text() == "previous good copy"
        assert t.stats()["failures"] == 1
        assert t.stats()["retries"] == t.retries
        assert any("dropped" in e for e in t.events)

    def test_delay_past_timeout_is_abandoned(self, dirs):
        local, hosts = dirs
        t = make(local, hosts, timeout=0.05)
        t.arm(
            [TransportFault(kind="delay", delay_s=5.0, op="pull", count=None)]
        )
        (hosts["alpha"] / "out.json").write_text("slow bytes")
        assert t.pull("alpha", "out.json") is False
        assert not (local / "out.json").exists()
        assert any("timeout" in e for e in t.events)

    def test_first_count_window(self, dirs):
        """``first=2, count=2`` skips attempt 1, fires attempts 2 and 3."""
        local, hosts = dirs
        t = make(local, hosts, retries=0)
        t.arm([TransportFault(kind="drop", op="pull", first=2, count=2)])
        (hosts["alpha"] / "out.json").write_text("payload")
        assert t.pull("alpha", "out.json") is True  # attempt 1: clean
        assert t.pull("alpha", "out.json") is False  # attempt 2: dropped
        assert t.pull("alpha", "out.json") is False  # attempt 3: dropped
        assert t.pull("alpha", "out.json") is True  # window passed

    def test_blackhole_poisons_one_host_only(self, dirs):
        local, hosts = dirs
        t = make(local, hosts)
        t.arm([TransportFault(kind="blackhole", host="beta")])
        (local / "spec.json").write_text("spec")
        (hosts["beta"] / "out.json").write_text("unreachable")
        assert t.stage_out("beta", "spec.json") is False
        assert "beta" in t.blackholed
        # Every later transfer touching beta fails fast, no retries added.
        retries_after_first = t.stats()["retries"]
        assert t.pull("beta", "out.json") is False
        assert t.stats()["retries"] == retries_after_first
        # alpha is a separate failure domain and keeps working.
        assert t.stage_out("alpha", "spec.json") is True
        assert t.stats()["blackholed"] == ["beta"]

    def test_transfer_once_raises_transport_error(self, dirs):
        local, hosts = dirs
        t = make(local, hosts)
        t.arm([TransportFault(kind="drop")])
        (local / "spec.json").write_text("spec")
        with pytest.raises(TransportError, match="dropped"):
            t._transfer_once(
                "alpha", "push", "spec.json",
                local / "spec.json", hosts["alpha"] / "spec.json",
            )


class TestRetryBackoff:
    def test_backoff_is_deterministic_and_bounded(self, dirs):
        local, hosts = dirs
        a = CopyBackTransport(
            local, hosts, backoff_base=0.5, backoff_max=2.0, seed=7
        )
        b = CopyBackTransport(
            local, hosts, backoff_base=0.5, backoff_max=2.0, seed=7
        )
        delays_a = [a._backoff("alpha", "x", k) for k in (2, 3, 4, 9)]
        delays_b = [b._backoff("alpha", "x", k) for k in (2, 3, 4, 9)]
        assert delays_a == delays_b  # seeded: a drill replays exactly
        assert all(0.0 < d <= 2.0 for d in delays_a)
        assert a._backoff("alpha", "x", 9) == 2.0  # capped
        # Disabled by default in these tests: zero delay.
        off = make(local, hosts)
        assert off._backoff("alpha", "x", 3) == 0.0


class TestTransportFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown transport fault"):
            TransportFault(kind="explode")
        with pytest.raises(ValueError, match="op"):
            TransportFault(kind="drop", op="sideways")
        with pytest.raises(ValueError, match="1-based"):
            TransportFault(kind="drop", first=0)
        with pytest.raises(ValueError, match="count"):
            TransportFault(kind="drop", count=0)
        with pytest.raises(ValueError, match="delay_s"):
            TransportFault(kind="delay", delay_s=-1.0)

    def test_matches_scopes_host_op_and_name_glob(self):
        f = TransportFault(
            kind="drop", host="beta", op="pull", name="*.hb.json"
        )
        assert f.matches("beta", "pull", "shard0000.hb.json")
        assert not f.matches("alpha", "pull", "shard0000.hb.json")
        assert not f.matches("beta", "push", "shard0000.hb.json")
        assert not f.matches("beta", "pull", "shard0000.json")
        wide = TransportFault(kind="blackhole")
        assert wide.matches("anyone", "push", "anything")

    def test_fault_plan_splits_worker_and_transport_entries(self):
        plan = FaultPlan([
            Fault(shard=0, kind="kill", at_cell=1),
            TransportFault(kind="drop", host="beta"),
            {"kind": "blackhole", "host": "alpha"},  # dict, by kind
            {"shard": 1, "kind": "exit"},
        ])
        assert [f.kind for f in plan.faults] == ["kill", "exit"]
        assert [f.kind for f in plan.for_transport()] == [
            "drop", "blackhole",
        ]
        # for_transport returns a copy, not the live list.
        plan.for_transport().clear()
        assert len(plan.transport_faults) == 2
        with pytest.raises(TypeError, match="FaultPlan entries"):
            FaultPlan([object()])
