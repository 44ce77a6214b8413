"""API suite for the analysis service (`python -m repro serve`).

Everything runs through the in-process ASGI test client -- no live
server, no sockets -- except one test that mounts the same app on the
stdlib bridge to pin the production path.  The acceptance spine:

* a campaign submitted via POST /campaigns completes through the
  persistent pool and its merged result is *bit-identical* to the
  `python -m repro campaign` CLI run of the same spec;
* resubmitting the same spec is served warm from the content-addressed
  store (all-cells store_hits) and returns byte-identical JSON;
* queue overflow answers 429 + Retry-After while in-flight jobs finish.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.serve.app as app_module
from repro.batch.campaign import Campaign, CampaignSpec
from repro.batch.store import ResultStore
from repro.cli import main as cli_main
from repro.io import system_to_dict
from repro.paper import sensor_fusion_system
from repro.serve import (
    ServeConfig,
    canonical_result_json,
    canonical_result_payload,
    create_app,
)
from repro.serve.schemas import (
    AnalyzeRequest,
    CampaignRequest,
    ValidationError,
)
from repro.serve.testclient import TestClient, call_asgi

from system_edits import LEAF_VALUES, OVERFLOWING_SYSTEMS, leaf_paths, set_leaf

pytestmark = pytest.mark.serve

#: Small enough for milliseconds per job, structured enough to exercise
#: warm-start chains and the sweep axis.
SPEC_DICT = {
    "grid": {"utilization": [0.3, 0.6]},
    "base": {
        "n_platforms": 2,
        "n_transactions": 2,
        "tasks_per_transaction": [1, 2],
    },
    "methods": ["reduced"],
    "systems_per_cell": 2,
    "seed": 7,
}


#: Bodies the JSON parser rejects with something other than a
#: JSONDecodeError: nesting past its recursion limit, bytes that are not
#: UTF-8, and an integer literal past int's string-conversion limit.
HOSTILE_BODIES = {
    "deep_array": b"[" * 50_000 + b"]" * 50_000,
    "deep_object": b'{"a":' * 50_000 + b"0" + b"}" * 50_000,
    "invalid_utf8": b'{"system": "\xff"}',
    "long_int": b'{"system": ' + b"9" * 5_002 + b"}",
}


def make_client(tmp_path=None, **overrides) -> TestClient:
    overrides.setdefault("pool_workers", 1)
    if tmp_path is not None:
        overrides.setdefault("store", str(tmp_path / "store"))
    return TestClient(create_app(ServeConfig(**overrides)))


def submit_and_wait(client, body, *, timeout=60.0):
    """POST /campaigns, poll to a terminal state, return (status, job)."""
    response = client.post("/campaigns", json=body)
    assert response.status == 202, response.body
    job_id = response.json()["id"]
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.get(f"/campaigns/{job_id}").json()
        if status["state"] in ("done", "failed"):
            return status, job_id
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestHealthAndRouting:
    def test_healthz(self):
        with make_client() as client:
            response = client.get("/healthz")
            assert response.status == 200
            assert response.json()["status"] == "ok"
            assert response.headers["content-type"] == "application/json"

    def test_unknown_route_404(self):
        with make_client() as client:
            assert client.get("/nope").status == 404

    def test_method_not_allowed_405(self):
        with make_client() as client:
            response = client.post("/healthz", json={})
            assert response.status == 405
            assert response.headers["allow"] == "GET"
            assert client.get("/analyze").status == 405

    def test_stats_shape(self, tmp_path):
        with make_client(tmp_path) as client:
            client.get("/healthz")
            stats = client.get("/stats").json()
            assert stats["uptime_s"] >= 0
            assert stats["requests"]["GET /healthz"] == 1
            assert stats["jobs"] == {
                "queued": 0, "running": 0, "done": 0, "failed": 0,
            }
            pool = stats["pool"]
            assert pool["pool_workers"] == 1
            assert pool["busy_runners"] == 0
            assert pool["max_queue"] == 8
            assert stats["store"]["entries"] == 0

    def test_stats_store_block_absent_without_store(self):
        with make_client() as client:
            assert client.get("/stats").json()["store"] is None


class TestAnalyze:
    def test_paper_example_round_trip(self):
        system = sensor_fusion_system()
        with make_client() as client:
            response = client.post(
                "/analyze", json={"system": system_to_dict(system)}
            )
            assert response.status == 200
            body = response.json()
            assert body["schedulable"] is True
            assert body["store"] == "off"
            from repro.analysis import analyze

            reference = analyze(system)
            for i, row in enumerate(body["transactions"]):
                assert row["wcrt"] == pytest.approx(
                    reference.transaction_wcrt[i]
                )
                assert row["meets"] is True

    def test_verdict_mode(self):
        with make_client() as client:
            body = client.post(
                "/analyze",
                json={
                    "system": system_to_dict(sensor_fusion_system()),
                    "mode": "verdict",
                    "method": "exact",
                },
            ).json()
            assert body["schedulable"] is True
            assert body["mode"] == "verdict"
            assert body["method"] == "exact"

    def test_store_miss_then_hit(self, tmp_path):
        request = {"system": system_to_dict(sensor_fusion_system())}
        with make_client(tmp_path) as client:
            first = client.post("/analyze", json=request).json()
            second = client.post("/analyze", json=request).json()
            assert first["store"] == "miss"
            assert second["store"] == "hit"
            assert second["transactions"] == first["transactions"]
            stats = client.get("/stats").json()
            assert stats["analyze"] == {"requests": 2, "store_hits": 1}

    def test_cli_and_service_share_one_cache(self, tmp_path):
        """`analyze --store DIR` and the service use the same store keys."""
        system_file = tmp_path / "system.json"
        system_file.write_text(
            json.dumps(system_to_dict(sensor_fusion_system()))
        )
        store = tmp_path / "store"
        assert cli_main(
            ["analyze", str(system_file), "--store", str(store)]
        ) == 0
        with make_client(tmp_path) as client:
            body = client.post(
                "/analyze",
                json={"system": system_to_dict(sensor_fusion_system())},
            ).json()
            assert body["store"] == "hit"

    def test_validation_errors_are_aggregated(self):
        with make_client() as client:
            response = client.post(
                "/analyze",
                json={"method": "bogus", "mode": "wat", "extra": 1},
            )
            assert response.status == 400
            detail = "\n".join(response.json()["detail"])
            assert "method" in detail
            assert "mode" in detail
            assert "extra" in detail
            assert "system is required" in detail

    def test_bad_json_400(self):
        with make_client() as client:
            response = client.post("/analyze", body=b"{nope")
            assert response.status == 400
            assert client.post("/analyze").status == 400  # empty body

    @pytest.mark.parametrize("path", ["/analyze", "/campaigns"])
    @pytest.mark.parametrize("body", sorted(HOSTILE_BODIES))
    def test_hostile_json_400(self, path, body):
        with make_client() as client:
            response = client.post(path, body=HOSTILE_BODIES[body])
        assert response.status == 400, response.body[:200]
        assert "not valid JSON" in response.json()["detail"][0]

    def test_unparseable_system_400(self):
        with make_client() as client:
            response = client.post(
                "/analyze", json={"system": {"transactions": 3}}
            )
            assert response.status == 400
            assert "does not parse" in response.json()["detail"][0]

    def test_malformed_system_400(self, malformed_system):
        data, text = malformed_system
        with make_client() as client:
            response = client.post("/analyze", json={"system": data})
        assert response.status == 400, response.body[:200]
        assert text in response.json()["detail"][0]

    def test_huge_deadline_verdict_answers(self, huge_deadline_system,
                                           within):
        """A 1e30 deadline in verdict mode answers at once, with exact
        mode's verdict (it had not answered after 8 s)."""
        with make_client() as client, within(10.0):
            verdict, exact = (
                client.post(
                    "/analyze",
                    json={"system": huge_deadline_system, "mode": mode},
                )
                for mode in ("verdict", "exact")
            )
            assert verdict.status == exact.status == 200
            assert verdict.json()["schedulable"] is True
            assert exact.json()["schedulable"] is True

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("no_transactions", "at least one transaction"),
            ("unresolvable", "Gamma1: period"),
        ],
    )
    def test_degenerate_system_400(self, edit, message):
        system = system_to_dict(sensor_fusion_system())
        if edit == "no_transactions":
            system["transactions"] = []
        else:
            system["transactions"][0]["period"] = 2e9
        with make_client() as client:
            response = client.post("/analyze", json={"system": system})
            assert response.status == 400
            assert message in response.json()["detail"][0]

    @pytest.mark.parametrize("mode", ["exact", "verdict"])
    def test_overflowing_sums_never_500(self, tmp_path, overflowing_system,
                                        mode):
        """Finite values whose sums or job counts overflow answer 200
        (unschedulable) or 400 (rejected on load); exact mode was a 500."""
        data, text = overflowing_system
        with make_client(tmp_path) as client:
            response = client.post(
                "/analyze", json={"system": data, "mode": mode}
            )
        if text is None:
            assert response.status == 200, response.body[:300]
            assert response.json()["schedulable"] is False
        else:
            assert response.status == 400, response.body[:300]
            assert text in response.json()["detail"][0]


def paper_body(**fields) -> bytes:
    """An ``/analyze`` body for the paper example."""
    return json.dumps(
        {"system": system_to_dict(sensor_fusion_system()), **fields}
    ).encode()


@pytest.fixture
def spies(monkeypatch):
    """Counts of ``AnalyzeRequest.parse`` and ``system_hash`` calls made
    by the app."""
    counts = {"parse": 0, "hash": 0}
    parse = AnalyzeRequest.parse
    system_hash = app_module.system_hash

    def counted_parse(cls, body):
        counts["parse"] += 1
        return parse(body)

    def counted_hash(system):
        counts["hash"] += 1
        return system_hash(system)

    monkeypatch.setattr(AnalyzeRequest, "parse", classmethod(counted_parse))
    monkeypatch.setattr(app_module, "system_hash", counted_hash)
    return counts


class TestAnalyzeMemo:
    """A byte-identical repeat is answered from its remembered store key;
    the store stays the only source of answers."""

    @pytest.mark.parametrize(
        "body",
        [
            paper_body(),
            paper_body(mode="verdict", method="exact"),
            json.dumps(
                {"system": OVERFLOWING_SYSTEMS["two_transactions"][0]}
            ).encode(),
        ],
        ids=["exact", "verdict", "infinite_wcrt"],
    )
    def test_repeat_answers_the_bytes_of_a_fresh_app(self, tmp_path, body):
        with make_client(tmp_path) as client:
            miss, *repeats = (
                client.post("/analyze", body=body) for _ in range(3)
            )
        with make_client(tmp_path) as fresh:
            reference = fresh.post("/analyze", body=body)
        assert miss.json()["store"] == "miss"
        assert reference.json()["store"] == "hit"
        for repeat in repeats:
            assert repeat.status == reference.status == 200
            assert repeat.body == reference.body
        expected = dict(reference.json(), store="miss")
        assert miss.json() == expected

    def test_repeats_skip_parse_and_hash(self, tmp_path, spies):
        body = paper_body()
        with make_client(tmp_path) as client:
            for _ in range(5):
                assert client.post("/analyze", body=body).status == 200
            assert spies == {"parse": 1, "hash": 1}
            client.post("/analyze", body=paper_body(mode="verdict"))
            assert spies == {"parse": 2, "hash": 2}
            reserialized = json.dumps(json.loads(body), indent=1).encode()
            answer = client.post("/analyze", body=reserialized).json()
            assert spies == {"parse": 3, "hash": 3}
            assert answer["store"] == "hit"
            stats = client.get("/stats").json()["analyze"]
        assert stats == {"requests": 7, "store_hits": 5}

    def test_store_miss_behind_a_memo_hit(self, tmp_path, spies):
        body = paper_body()
        store = tmp_path / "store"
        with make_client(tmp_path) as client:
            first, second = (
                client.post("/analyze", body=body).json() for _ in range(2)
            )
            assert (first["store"], second["store"]) == ("miss", "hit")
            shutil.rmtree(store)
            third = client.post("/analyze", body=body).json()
            assert third["store"] == "miss"
            assert third["transactions"] == first["transactions"]
            assert spies["parse"] == 2
            assert ResultStore(store).stats().entries == 1
            assert client.post("/analyze", body=body).json()["store"] == "hit"
            stats = client.get("/stats").json()["analyze"]
        assert stats == {"requests": 4, "store_hits": 2}

    def test_malformed_entry_is_reanalyzed(self, tmp_path, spies):
        """A wrong-length ``transaction_wcrt`` under an intact identity is
        analyzed afresh on every request, the entry left as it is (the
        store is put-if-absent)."""
        body = paper_body()
        store = ResultStore(tmp_path / "store")
        with make_client(tmp_path) as client:
            first = client.post("/analyze", body=body).json()
            (path,) = (p for p, _stat in store.iter_entries())
            entry = json.loads(path.read_text())
            entry["value"]["transaction_wcrt"] = [1.0]
            path.write_text(json.dumps(entry))
            again = [
                client.post("/analyze", body=body).json() for _ in range(2)
            ]
            stats = client.get("/stats").json()["analyze"]
        for answer in again:
            assert answer == first
        assert spies["parse"] == 3
        assert json.loads(path.read_text()) == entry
        assert stats == {"requests": 3, "store_hits": 0}

    def test_invalid_body_is_never_remembered(self, tmp_path, spies):
        body = json.dumps({"system": {"transactions": 3}}).encode()
        with make_client(tmp_path) as client:
            for _ in range(2):
                assert client.post("/analyze", body=body).status == 400
            assert not client.app._memo
        assert spies["parse"] == 2

    def test_no_store_parses_every_request(self, spies):
        body = paper_body()
        with make_client() as client:
            states = [
                client.post("/analyze", body=body).json()["store"]
                for _ in range(3)
            ]
            assert not client.app._memo
        assert states == ["off"] * 3
        assert spies == {"parse": 3, "hash": 0}

    def test_memo_is_a_bounded_lru(self, tmp_path, spies, monkeypatch):
        bound = 4
        monkeypatch.setattr(app_module, "ANALYZE_MEMO_SIZE", bound)
        # Distinct bodies of one system: the name is not hashed, so every
        # body after the first is a store hit.
        system = system_to_dict(sensor_fusion_system())
        bodies = [
            json.dumps({"system": dict(system, name=f"s{i}")}).encode()
            for i in range(bound + 3)
        ]
        with make_client(tmp_path) as client:
            for body in bodies:
                assert client.post("/analyze", body=body).status == 200
            assert len(client.app._memo) == bound
            assert spies["parse"] == bound + 3
            client.post("/analyze", body=bodies[-1])
            assert spies["parse"] == bound + 3
            client.post("/analyze", body=bodies[0])
            assert spies["parse"] == bound + 4
            assert len(client.app._memo) == bound

    def test_concurrent_first_posts(self, tmp_path):
        body = paper_body(mode="verdict")
        threads = 8
        barrier = threading.Barrier(threads, timeout=30)
        responses: list = [None] * threads
        with make_client(tmp_path) as client:

            def post(i: int) -> None:
                barrier.wait()
                responses[i] = client.post("/analyze", body=body)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [
                    threading.Thread(target=post, args=(i,), daemon=True)
                    for i in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(worker.is_alive() for worker in workers)
            stats = client.get("/stats").json()["analyze"]
            assert len(client.app._memo) == 1
        assert all(r is not None and r.status == 200 for r in responses)
        answers = [r.json() for r in responses]
        assert all(
            a["transactions"] == answers[0]["transactions"] for a in answers
        )
        hits = sum(a["store"] == "hit" for a in answers)
        assert stats == {"requests": threads, "store_hits": hits}


#: The paper-example request a whole-body fuzz mutates, and the leaves it
#: may change: every system leaf plus ``mode`` and ``method``.
_FUZZ_REQUEST = {
    "system": system_to_dict(sensor_fusion_system()),
    "mode": "exact",
    "method": "reduced",
}
_FUZZ_PATHS = list(leaf_paths(_FUZZ_REQUEST))
_FUZZ_VALUES = LEAF_VALUES + [1e306, 0, -0.0, "exact", "verdict"]


@pytest.fixture(scope="module")
def fuzz_client(tmp_path_factory):
    with make_client(tmp_path_factory.mktemp("fuzz")) as client:
        yield client


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(_FUZZ_PATHS), st.sampled_from(_FUZZ_VALUES)),
        min_size=2, max_size=3, unique_by=lambda edit: edit[0],
    )
)
def test_whole_body_mutation_answers_cleanly(edits, fuzz_client, within):
    """Two or three leaves of the paper-example request changed at once:
    each of two posts answers 200 or 400 within 5 s, both the same, and
    two 200s differ in nothing but ``store``."""
    request = copy.deepcopy(_FUZZ_REQUEST)
    for path, value in edits:
        set_leaf(request, path, value)
    body = json.dumps(request).encode()
    answers = []
    for _ in range(2):
        with within(5.0):
            answers.append(fuzz_client.post("/analyze", body=body))
    first, second = answers
    assert first.status in (200, 400), first.body[:300]
    assert second.status == first.status
    if first.status == 200:
        a, b = first.json(), second.json()
        assert a.pop("store") in ("miss", "hit")
        assert b.pop("store") == "hit"
        assert a == b


class TestCampaignJobs:
    def test_submit_poll_result(self, tmp_path):
        with make_client(tmp_path) as client:
            submitted = client.post("/campaigns", json={"spec": SPEC_DICT})
            assert submitted.status == 202
            handle = submitted.json()
            assert handle["state"] == "queued"
            assert handle["n_analyses"] == 4
            assert handle["links"]["status"] == f"/campaigns/{handle['id']}"
            status, job_id = submit_and_wait_from(client, handle)
            assert status["state"] == "done"
            assert status["cells"] == 4
            assert status["store"] == {"hits": 0, "misses": 4}
            result = client.get(f"/campaigns/{job_id}/result")
            assert result.status == 200
            payload = json.loads(result.body)
            assert len(payload["cells"]) == 4
            assert payload["spec"]["seed"] == 7
            # Volatile execution fields must not leak into the canonical
            # result document.
            assert "wall_time_s" not in payload
            assert all("time_s" not in cell for cell in payload["cells"])

    def test_unknown_job_404(self):
        with make_client() as client:
            assert client.get("/campaigns/job-999999").status == 404
            assert client.get("/campaigns/job-999999/result").status == 404

    def test_job_list(self, tmp_path):
        with make_client(tmp_path) as client:
            _, job_id = submit_and_wait(client, {"spec": SPEC_DICT})
            listed = client.get("/campaigns").json()["jobs"]
            assert [job["id"] for job in listed] == [job_id]

    def test_runtime_failure_reports_failed(self, tmp_path):
        # Validates (generator and methods exist) but explodes at run
        # time: random_system rejects the unknown shape parameter.
        bad = dict(SPEC_DICT, base={"no_such_shape_param": 3})
        with make_client(tmp_path) as client:
            status, job_id = submit_and_wait(client, {"spec": bad})
            assert status["state"] == "failed"
            assert "no_such_shape_param" in status["error"]
            result = client.get(f"/campaigns/{job_id}/result")
            assert result.status == 410
            stats = client.get("/stats").json()
            assert stats["jobs"]["failed"] == 1

    def test_invalid_spec_400(self):
        with make_client() as client:
            response = client.post(
                "/campaigns",
                json={"spec": dict(SPEC_DICT, methods=["no_such_method"])},
            )
            assert response.status == 400
            assert "no_such_method" in "".join(response.json()["detail"])

    def test_finished_job_retention_evicts_oldest(self, tmp_path):
        with make_client(tmp_path, max_finished_jobs=1) as client:
            _, first = submit_and_wait(client, {"spec": SPEC_DICT})
            _, second = submit_and_wait(client, {"spec": SPEC_DICT})
            assert client.get(f"/campaigns/{first}").status == 404
            assert client.get(f"/campaigns/{second}").status == 200


def submit_and_wait_from(client, handle, *, timeout=60.0):
    """Poll an already-submitted handle to a terminal state."""
    job_id = handle["id"]
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.get(f"/campaigns/{job_id}").json()
        if status["state"] in ("done", "failed"):
            return status, job_id
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestWarmPathDeterminism:
    """The PR's acceptance spine: API == API (warm) == CLI, bit for bit."""

    def test_api_twice_and_cli_bit_identical(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(SPEC_DICT))
        cli_json = tmp_path / "cli.json"
        assert cli_main(
            ["campaign", "--spec", str(spec_file), "--json", str(cli_json)]
        ) == 0
        cli_bytes = canonical_result_json(json.loads(cli_json.read_text()))

        with make_client(tmp_path) as client:
            first_status, first_id = submit_and_wait(
                client, {"spec": SPEC_DICT}
            )
            second_status, second_id = submit_and_wait(
                client, {"spec": SPEC_DICT}
            )
            first = client.get(f"/campaigns/{first_id}/result").body
            second = client.get(f"/campaigns/{second_id}/result").body

        n = first_status["n_analyses"]
        assert first_status["store"] == {"hits": 0, "misses": n}
        # The warm resubmission serves every cell from the store...
        assert second_status["store"] == {"hits": n, "misses": 0}
        # ...and all three result documents agree byte for byte.
        assert first == second
        assert first == cli_bytes

    @pytest.mark.dist
    def test_pool_workers_match_inline(self, tmp_path):
        """The persistent multi-process pool changes nothing but speed."""
        inline = canonical_result_json(
            Campaign(CampaignSpec.from_dict(SPEC_DICT)).run(workers=1)
        )
        with make_client(tmp_path, pool_workers=2) as client:
            status, job_id = submit_and_wait(client, {"spec": SPEC_DICT})
            assert status["state"] == "done"
            body = client.get(f"/campaigns/{job_id}/result").body
            pool = client.get("/stats").json()["pool"]
        assert body == inline
        assert pool["executor_started"] is True

    @pytest.mark.dist
    def test_dispatch_backend_matches_pool(self, tmp_path):
        """backend=dispatch rides CampaignDispatcher, same bytes out."""
        inline = canonical_result_json(
            Campaign(CampaignSpec.from_dict(SPEC_DICT)).run(workers=1)
        )
        with make_client(
            tmp_path, dispatch_workers=2, dispatch_shards=2
        ) as client:
            status, job_id = submit_and_wait(
                client, {"spec": SPEC_DICT, "backend": "dispatch"},
                timeout=120.0,
            )
            assert status["state"] == "done", status
            assert status["backend"] == "dispatch"
            body = client.get(f"/campaigns/{job_id}/result").body
        assert body == inline


class TestAdmissionControl:
    def test_queue_overflow_429_while_inflight_finish(self, tmp_path):
        entered = threading.Event()
        release = threading.Event()

        def gate(job):
            entered.set()
            assert release.wait(timeout=60.0)

        with make_client(
            tmp_path, max_queue=1, job_runners=1, job_gate=gate,
            retry_after_s=3.0,
        ) as client:
            first = client.post("/campaigns", json={"spec": SPEC_DICT})
            assert first.status == 202
            # The runner holds the first job at the gate: it occupies the
            # runner slot, not the queue.
            assert entered.wait(timeout=30.0)
            second = client.post("/campaigns", json={"spec": SPEC_DICT})
            assert second.status == 202
            third = client.post("/campaigns", json={"spec": SPEC_DICT})
            assert third.status == 429
            assert third.headers["retry-after"] == "3"
            assert "retry later" in third.json()["error"]
            # The rejected submission never became a job.
            listed = client.get("/campaigns").json()["jobs"]
            assert len(listed) == 2
            pool = client.get("/stats").json()["pool"]
            assert pool["busy_runners"] == 1
            assert pool["queue_depth"] == 1
            # In-flight jobs finish once the stall clears.
            release.set()
            for handle in (first.json(), second.json()):
                status, _ = submit_and_wait_from(client, handle)
                assert status["state"] == "done"

    def test_result_before_done_409(self, tmp_path):
        release = threading.Event()

        def gate(job):
            assert release.wait(timeout=60.0)

        with make_client(tmp_path, job_gate=gate) as client:
            handle = client.post(
                "/campaigns", json={"spec": SPEC_DICT}
            ).json()
            response = client.get(f"/campaigns/{handle['id']}/result")
            assert response.status == 409
            assert response.json()["state"] in ("queued", "running")
            release.set()
            status, _ = submit_and_wait_from(client, handle)
            assert status["state"] == "done"

    def test_cell_ceiling_413(self, tmp_path):
        with make_client(tmp_path, max_cells_per_job=3) as client:
            response = client.post("/campaigns", json={"spec": SPEC_DICT})
            assert response.status == 413
            body = response.json()
            assert body["n_analyses"] == 4
            assert body["max_cells_per_job"] == 3
            # Refused at admission: no job handle exists.
            assert client.get("/campaigns").json()["jobs"] == []


class TestSchemas:
    def test_analyze_parse_defaults(self):
        request = AnalyzeRequest.parse(
            {"system": system_to_dict(sensor_fusion_system())}
        )
        assert request.config.method == "reduced"
        assert request.config.mode == "exact"

    def test_campaign_parse_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown campaign"):
            CampaignRequest.parse({"spec": SPEC_DICT, "shards": 4})

    def test_campaign_parse_backend(self):
        request = CampaignRequest.parse(
            {"spec": SPEC_DICT, "backend": "dispatch"}
        )
        assert request.backend == "dispatch"
        with pytest.raises(ValidationError, match="backend"):
            CampaignRequest.parse({"spec": SPEC_DICT, "backend": "cloud"})

    def test_canonical_payload_strips_volatile_fields(self):
        result = Campaign(CampaignSpec.from_dict(SPEC_DICT)).run(workers=1)
        payload = canonical_result_payload(result)
        assert set(payload) == {"spec", "shard", "truncated", "cells"}
        assert all("time_s" not in cell for cell in payload["cells"])
        # In-memory result and its JSON round trip canonicalize equally.
        round_tripped = canonical_result_payload(result.to_dict())
        assert canonical_result_json(result) == canonical_result_json(
            round_tripped
        )

    def test_canonical_payload_nonfinite_floats(self):
        document = {
            "spec": {},
            "cells": [
                {
                    "max_wcrt_ratio": float("inf"),
                    "extras": {"x": float("nan")},
                    "time_s": 1.0,
                }
            ],
        }
        payload = canonical_result_payload(document)
        cell = payload["cells"][0]
        assert cell["max_wcrt_ratio"] == "Infinity"
        assert cell["extras"]["x"] == "NaN"


class TestBridgeContract:
    """``call_asgi`` runs no event loop: an app that suspends is refused."""

    def test_suspending_app_raises_promptly(self):
        import asyncio
        import gc
        import warnings

        closed = []

        async def app(scope, receive, send):
            try:
                await asyncio.sleep(0)
            finally:
                closed.append(True)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="suspended"):
                call_asgi(app, "GET", "/healthz")
            assert time.monotonic() - t0 < 1.0
            gc.collect()
        assert closed == [True]  # the coroutine was closed, not dropped
        assert not [w for w in caught if "never awaited" in str(w.message)]


class TestStdlibBridge:
    """The production fallback path: the same app on http.server."""

    @pytest.fixture
    def port(self):
        from http.server import ThreadingHTTPServer

        from repro.serve.server import _make_handler

        app = create_app(ServeConfig(pool_workers=1))
        server = ThreadingHTTPServer(
            ("127.0.0.1", 0), _make_handler(app)
        )
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server.server_port
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            app.close()

    def test_http_round_trip(self, port):
        import urllib.request

        base = f"http://127.0.0.1:{port}"
        with urllib.request.urlopen(base + "/healthz", timeout=10) as r:
            assert json.loads(r.read())["status"] == "ok"
        request = urllib.request.Request(
            base + "/analyze",
            data=json.dumps(
                {"system": system_to_dict(sensor_fusion_system())}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as r:
            assert json.loads(r.read())["schedulable"] is True

    def test_keepalive_responses_do_not_stall(self, port):
        # A plain keep-alive client (no TCP_QUICKACK): with Nagle on, each
        # response's body waits for the client's delayed ACK of its
        # headers, a floor of >= 40 ms per request.
        import http.client
        from statistics import median

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        latencies = []
        try:
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                latencies.append(time.perf_counter() - t0)
                assert response.status == 200
        finally:
            conn.close()
        assert median(latencies) < 0.020, latencies
