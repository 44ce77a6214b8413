"""Content-addressed result store: hashing, persistence, warm reruns.

The store's contract (ISSUE 6 acceptance criteria): canonical hashes are
deterministic and insensitive to cosmetic/derived state, the directory
store round-trips values atomically and treats any damage as a miss, and
a ``Campaign.run(store=...)`` rerun over a warmed store is bit-identical
to the cold run -- same cells, same verdicts, same accounting -- with
``store_hits == n_analyses`` and zero new solves.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisConfig, analyze
from repro.batch import (
    Campaign,
    CampaignSpec,
    ResultStore,
    StoreKey,
    analysis_config_hash,
    campaign_config_hash,
    canonical_json,
    content_hash,
    merge_campaign_results,
    spec_hash,
    store_reachable_digests,
    system_hash,
)
from repro.batch.campaign import chain_store_digest
from repro.batch.canonical import _write_canonical
from repro.gen.random_transactions import RandomSystemSpec, random_system
from repro.model.system import TransactionSystem
from repro.model.task import Task
from repro.model.transaction import Transaction
from repro.paper import sensor_fusion_system
from repro.platforms.linear import DedicatedPlatform


def small_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        grid={"utilization": (0.3, 0.6, 0.9)},
        base={
            "n_platforms": 2,
            "n_transactions": 2,
            "tasks_per_transaction": (1, 2),
        },
        methods=("gauss_seidel",),
        systems_per_cell=3,
        seed=7,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def two_task_system() -> TransactionSystem:
    return TransactionSystem(
        transactions=[
            Transaction(
                period=10.0,
                deadline=10.0,
                tasks=[
                    Task(wcet=2.0, platform=0, priority=2, offset=1.0,
                         jitter=0.5),
                    Task(wcet=1.0, platform=0, priority=1),
                ],
                name="G1",
            ),
            Transaction(
                period=20.0,
                tasks=[Task(wcet=3.0, platform=0, priority=3)],
                name="G2",
            ),
        ],
        platforms=[DedicatedPlatform()],
    )


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )
        assert canonical_json({"a": 2, "b": 1}) == '{"a":2,"b":1}'

    def test_float_shortest_repr(self):
        assert canonical_json(0.3) == "0.3"
        assert canonical_json(0.1 + 0.2) == "0.30000000000000004"

    def test_negative_zero_collapses(self):
        assert canonical_json(-0.0) == canonical_json(0.0)

    def test_nan_and_infinity_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                canonical_json({"x": bad})

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="string keys"):
            canonical_json({1: "x"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError, match="cannot encode"):
            canonical_json({"x": object()})

    def test_numpy_scalars_encode_as_python(self):
        np = pytest.importorskip("numpy")
        assert canonical_json(np.float64(0.3)) == canonical_json(0.3)
        assert canonical_json([np.int64(4)]) == canonical_json([4])

    def test_tuples_encode_as_lists(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_content_hash_is_sha256_of_canonical(self):
        import hashlib

        obj = {"a": [1, 2.5, None, True]}
        expected = hashlib.sha256(
            canonical_json(obj).encode("utf-8")
        ).hexdigest()
        assert content_hash(obj) == expected


def _oracle_write_canonical(obj, out):
    """The previous canonical writer, verbatim but for its name."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(
                f"canonical JSON cannot encode non-finite float {obj!r}"
            )
        # Demote subclasses: NumPy's float64 *is* a float but reprs as
        # "np.float64(...)"; the value is bit-identical either way.
        obj = float(obj)
        if obj == 0.0:
            obj = 0.0  # collapse -0.0 (== 0.0, but repr differs)
        out.append(repr(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _oracle_write_canonical(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            if not isinstance(k, str):
                raise TypeError(
                    f"canonical JSON requires string keys, got {k!r}"
                )
            if i:
                out.append(",")
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(":")
            _oracle_write_canonical(obj[k], out)
        out.append("}")
    else:
        item = getattr(obj, "item", None)
        if callable(item):  # NumPy scalars, without importing NumPy
            _oracle_write_canonical(item(), out)
        else:
            raise TypeError(
                f"canonical JSON cannot encode {type(obj).__name__}: {obj!r}"
            )


def _written(write, obj):
    """What *write* makes of *obj*: the text, or the error it raised."""
    out: list[str] = []
    try:
        write(obj, out)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return "".join(out)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


_UNENCODABLE = object()


def _power_of_ten(exponent: int) -> int:
    """``±10**|exponent|``: 4300 digits still convert, 4301 do not."""
    return 10 ** abs(exponent) * (1 if exponent > 0 else -1)


#: JSON-able leaves: what store keys and payloads are made of, in every
#: type the writer accepts.
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.sampled_from([4299, -4299]).map(_power_of_ten),  # 4300 digits
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0.1 + 0.2, 5e-324, 1e308]),
    st.text(),
    st.text(st.characters(codec=None, exclude_categories=())),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(
        np.float32
    ),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text().map(_Str),
    st.integers().map(_Int),
    st.floats(allow_nan=False, allow_infinity=False).map(_Float),
)

#: Leaves the writer must refuse: non-finite floats (plain, subclassed
#: and NumPy), ints past the 4300-digit string limit, objects with no
#: JSON form.
_refused = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([math.nan, -math.inf]).map(np.float64),
    st.sampled_from([math.inf]).map(_Float),
    st.sampled_from([4300, -4400]).map(_power_of_ten),
    st.just(_UNENCODABLE),
)


def _nested(leaves, *, int_keys=False):
    def containers(children):
        branches = [
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.lists(children, max_size=4).map(_List),
            st.dictionaries(st.text(max_size=6), children, max_size=4),
            st.dictionaries(st.text(max_size=6), children, max_size=4).map(
                _Dict
            ),
        ]
        if int_keys:
            branches.append(
                st.dictionaries(st.integers(0, 3), children, min_size=1,
                                max_size=2)
            )
        return st.one_of(branches)

    return st.recursive(leaves, containers, max_leaves=24)


class TestWriterOracle:
    @settings(max_examples=300, deadline=None)
    @given(_nested(_leaves))
    def test_matches_previous_writer(self, obj):
        written = _written(_write_canonical, obj)
        assert isinstance(written, str)
        assert written == _written(_oracle_write_canonical, obj)

    @settings(max_examples=150, deadline=None)
    @given(_nested(st.one_of(_leaves, _refused), int_keys=True))
    def test_raises_what_previous_writer_raised(self, obj):
        assert _written(_write_canonical, obj) == _written(
            _oracle_write_canonical, obj
        )

    @pytest.mark.parametrize(
        "obj",
        [
            -0.0,
            np.float64(-0.0),
            np.float64("nan"),
            np.float32(0.1),
            "\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600",
            {"\u00e9": ("\n", True, None)},
            10**4300,
            {"b": 1, 2: 3},
        ],
        ids=["neg-zero", "np-neg-zero", "np-nan", "np-float32",
             "control-and-non-ascii", "non-ascii-key", "digit-limit",
             "mixed-keys"],
    )
    def test_edge_cases_match_previous_writer(self, obj):
        assert _written(_write_canonical, obj) == _written(
            _oracle_write_canonical, obj
        )


#: Hashes as the previous writer computed them: a rewrite that moved one
#: byte would turn every stored entry into a miss.
GOLDEN_PAPER_SYSTEM = (
    "53f03913d8cdb8f77e86d1af1c8a290a6b82c4e7859d6188207bd59df7b33590"
)
GOLDEN_GENERATED_SYSTEMS = {
    1: "43ef8acc8446b31dd80adbdc72a24a5149337ba0153db9f10d69326076d3d7be",
    2: "2e0562be9ec4e0ba9c1dbd82451bba90fc4f4da6e1e6fb353486451f159f2a4f",
    3: "9156a6a1d85b9eddfcd19c17deda2b19a1ac45e125b32db417c1c112c5c3fb01",
}
GOLDEN_EXACT_CONFIG = (
    "d1b404204fc38924a5358df2f4b06cd77a868b708391e4e5e9ff719569a8b9dc"
)
GOLDEN_VERDICT_CONFIG = (
    "36aed4645e086b47cbeab42bafb5d62f7830216643868be4fb34ff8a529d5b07"
)
GOLDEN_CAMPAIGN_CONFIG = (
    "7824c4c1b28faa2c7d9fa63a8daff8ad11c1f0461be2abc974ded5e5a668ae08"
)
#: ``StoreKey`` of the paper system's one-shot exact ``analyze``.
GOLDEN_ANALYZE_KEY = (
    "bc2010af0f2116522cc83c46cdb9c4e7c6da378f9a1b816717536d50b87aecf5"
)
#: The store entry of ``small_spec()``'s first chain.
GOLDEN_CHAIN_KEY = (
    "b27e66187f846607794ba9093670e731cf9172064835b052b27433856003b913"
)


class TestGoldenKeys:
    def test_paper_system_hash(self):
        assert system_hash(sensor_fusion_system()) == GOLDEN_PAPER_SYSTEM

    @pytest.mark.parametrize("seed", sorted(GOLDEN_GENERATED_SYSTEMS))
    def test_generated_system_hash(self, seed):
        system = random_system(RandomSystemSpec(), seed=seed)
        assert system_hash(system) == GOLDEN_GENERATED_SYSTEMS[seed]

    def test_analysis_config_hashes(self):
        assert analysis_config_hash(AnalysisConfig()) == GOLDEN_EXACT_CONFIG
        assert (
            analysis_config_hash(AnalysisConfig(mode="verdict"))
            == GOLDEN_VERDICT_CONFIG
        )

    def test_campaign_config_hash(self):
        assert campaign_config_hash(small_spec()) == GOLDEN_CAMPAIGN_CONFIG

    def test_store_key_digest(self):
        key = StoreKey(
            system_hash(sensor_fusion_system()),
            analysis_config_hash(AnalysisConfig()),
            None,
            "analyze",
        )
        assert key.digest() == GOLDEN_ANALYZE_KEY
        assert key.identity() == key.identity()  # cached, not re-encoded

    def test_chain_store_digest(self):
        spec = small_spec()
        assert chain_store_digest(spec, spec.chains()[0]) == GOLDEN_CHAIN_KEY


class TestSystemHash:
    def test_deterministic(self):
        assert system_hash(two_task_system()) == system_hash(
            two_task_system()
        )

    def test_invariant_under_in_place_analysis(self):
        # The holistic analysis overwrites derived offset/jitter of
        # non-first tasks in place; the hash must see the same input.
        system = sensor_fusion_system()
        before = system_hash(system)
        analyze(system, in_place=True)
        assert system_hash(system) == before

    def test_invariant_under_names_and_meta(self):
        a = two_task_system()
        b = two_task_system()
        for tr in b.transactions:
            tr.name = f"renamed-{tr.name}"
        assert system_hash(a) == system_hash(b)

    def test_sensitive_to_wcet(self):
        a = two_task_system()
        b = two_task_system()
        b.transactions[0].tasks[1].wcet = 1.5
        assert system_hash(a) != system_hash(b)

    def test_sensitive_to_first_task_offset(self):
        a = two_task_system()
        b = two_task_system()
        b.transactions[0].tasks[0].offset = 2.0
        assert system_hash(a) != system_hash(b)

    def test_insensitive_to_derived_later_task_jitter(self):
        a = two_task_system()
        b = two_task_system()
        b.transactions[0].tasks[1].jitter = 4.25
        assert system_hash(a) == system_hash(b)


class TestConfigHashes:
    def test_campaign_config_folds_methods_and_levels(self):
        base = small_spec()
        assert campaign_config_hash(base) == campaign_config_hash(
            small_spec()
        )
        # Different method tuple, warm-start flag or ladder: different
        # execution context, cells must not be served across.
        assert campaign_config_hash(base) != campaign_config_hash(
            small_spec(methods=("gauss_seidel", "reduced"))
        )
        assert campaign_config_hash(base) != campaign_config_hash(
            small_spec(warm_start=False)
        )
        assert campaign_config_hash(base) != campaign_config_hash(
            small_spec(grid={"utilization": (0.3, 0.6)})
        )

    def test_campaign_config_ignores_seed_and_replicates(self):
        # Seeds/replicate counts shape *which* systems exist, not how a
        # given system's cell is executed -- reuse across them is the
        # whole point (replicate extensions hit the store).
        base = small_spec()
        assert campaign_config_hash(base) == campaign_config_hash(
            small_spec(seed=99, systems_per_cell=10)
        )

    def test_spec_hash_covers_seed(self):
        assert spec_hash(small_spec()) != spec_hash(small_spec(seed=8))
        assert spec_hash(small_spec()) == spec_hash(small_spec().to_dict())

    def test_analysis_config_hash(self):
        a = AnalysisConfig()
        assert analysis_config_hash(a) == analysis_config_hash(
            AnalysisConfig()
        )
        assert analysis_config_hash(a) != analysis_config_hash(
            AnalysisConfig(method="exact")
        )


class TestResultStore:
    def key(self, n=0) -> StoreKey:
        return StoreKey(f"sys{n}", "cfg", 0.3, "gauss_seidel")

    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get(self.key()) is None
        assert store.put(self.key(), {"x": 1}) is True
        assert store.get(self.key()) == {"x": 1}

    def test_put_if_absent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(self.key(), {"x": 1})
        assert store.put(self.key(), {"x": 2}) is False
        assert store.get(self.key()) == {"x": 1}

    def test_nan_value_round_trips(self, tmp_path):
        # Cell metrics may hold NaN (diverged max_wcrt_ratio); the store
        # value encoding must accept it even though key hashing rejects it.
        import math

        store = ResultStore(tmp_path / "store")
        store.put(self.key(), {"ratio": float("nan")})
        assert math.isnan(store.get(self.key())["ratio"])

    def test_corrupt_file_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(self.key(), {"x": 1})
        store._path(self.key()).write_text("{not json", encoding="utf-8")
        assert store.get(self.key()) is None

    def test_identity_mismatch_reads_as_miss(self, tmp_path):
        # A file whose content belongs to a different key (hash collision,
        # botched copy) must read as a miss, never as a wrong hit.
        store = ResultStore(tmp_path / "store")
        store.put(self.key(0), {"x": 1})
        path1 = store._path(self.key(1))
        path1.parent.mkdir(parents=True, exist_ok=True)
        path1.write_text(
            store._path(self.key(0)).read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert store.get(self.key(1)) is None

    def test_stats(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.stats().entries == 0
        store.put(self.key(0), {"x": 1})
        store.put(self.key(1), {"x": 2})
        stats = store.stats()
        assert stats.entries == 2
        assert stats.bytes > 0

    def test_same_key_puts_from_threads(self, tmp_path):
        # The service's request threads share one process: writers of one
        # key must not share a temp file (the loser's rename would raise).
        import sys
        import threading

        store = ResultStore(tmp_path / "store")
        value = {"x": list(range(200))}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in range(10):
                barrier = threading.Barrier(8, timeout=30)
                errors = []

                def put(key=self.key(n)):
                    try:
                        barrier.wait()
                        store.put(key, value)
                    except Exception as exc:  # noqa: BLE001 - collected
                        errors.append(exc)

                threads = [threading.Thread(target=put) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert errors == []
                assert store.get(self.key(n)) == value
        finally:
            sys.setswitchinterval(interval)
        assert list(store.root.glob("??/*.tmp.*")) == []

    def test_unwritable_root_raises(self, tmp_path):
        import os

        if os.geteuid() == 0:
            pytest.skip("root ignores directory permissions")
        root = tmp_path / "ro"
        root.mkdir()
        root.chmod(0o500)
        try:
            with pytest.raises(OSError):
                ResultStore(root).put(self.key(), {"x": 1})
        finally:
            root.chmod(0o700)


def run_cold_warm(spec, tmp_path, workers=1):
    """Cold run into a fresh store, then a warm rerun; both results."""
    store = ResultStore(tmp_path / "store")
    cold = Campaign(spec).run(workers=workers, store=store)
    warm = Campaign(spec).run(workers=workers, store=store)
    return cold, warm, store


def assert_warm_bit_identical(cold, warm, spec):
    # Served cells carry the stored time_s, so full byte-for-byte cell
    # equality holds for warm-vs-cold (not just timing-free metrics).
    assert json.dumps(warm.to_dict()["cells"]) == json.dumps(
        cold.to_dict()["cells"]
    )
    n = spec.n_analyses()
    assert cold.store_hits == 0
    assert cold.store_misses == n
    assert warm.store_hits == n
    assert warm.store_misses == 0


class TestCampaignStore:
    def test_cold_matches_storeless_reference(self, tmp_path):
        spec = small_spec()
        reference = Campaign(spec).run(workers=1)
        cold, warm, _ = run_cold_warm(spec, tmp_path)
        # time_s is wall clock and differs across independent solves;
        # compare the timing-free metric view against the reference.
        assert cold.metrics() == reference.metrics()
        assert_warm_bit_identical(cold, warm, spec)

    def test_warm_rerun_sweep(self, tmp_path):
        spec = small_spec()
        cold, warm, _ = run_cold_warm(spec, tmp_path)
        assert_warm_bit_identical(cold, warm, spec)

    def test_warm_rerun_pruned_verdict(self, tmp_path):
        # Pruned chains store solved *and* inferred cells, so the warm
        # rerun serves the whole chain without re-bisecting.
        spec = small_spec(methods=("verdict",),
                          grid={"utilization": (0.3, 0.5, 0.7, 0.9)})
        cold, warm, _ = run_cold_warm(spec, tmp_path)
        assert_warm_bit_identical(cold, warm, spec)

    def test_warm_rerun_multi_method(self, tmp_path):
        spec = small_spec(methods=("gauss_seidel", "reduced"))
        cold, warm, _ = run_cold_warm(spec, tmp_path)
        assert_warm_bit_identical(cold, warm, spec)

    def test_warm_rerun_pool(self, tmp_path):
        spec = small_spec()
        cold, warm, _ = run_cold_warm(spec, tmp_path, workers=2)
        assert_warm_bit_identical(cold, warm, spec)
        inline = Campaign(spec).run(workers=1)
        assert cold.metrics() == inline.metrics()

    def test_warm_rerun_no_warm_start(self, tmp_path):
        spec = small_spec(warm_start=False)
        cold, warm, _ = run_cold_warm(spec, tmp_path)
        assert_warm_bit_identical(cold, warm, spec)

    def test_replicate_extension_reuses_original_cells(self, tmp_path):
        # Growing systems_per_cell keeps the original replicates' seeds,
        # so their cells hit the store and only the new replicates solve.
        store = ResultStore(tmp_path / "store")
        small = small_spec(systems_per_cell=3)
        big = small_spec(systems_per_cell=5)
        Campaign(small).run(workers=1, store=store)
        extended = Campaign(big).run(workers=1, store=store)
        assert extended.store_hits == small.n_analyses()
        assert extended.store_misses == (
            big.n_analyses() - small.n_analyses()
        )
        assert extended.metrics() == Campaign(big).run(workers=1).metrics()

    def test_partial_store_rerun_identical(self, tmp_path):
        # Delete half the entries: the rerun serves what remains, solves
        # the rest, and the result is still identical to the cold run.
        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        cold = Campaign(spec).run(workers=1, store=store)
        files = sorted(store.root.glob("??/*.json"))
        assert len(files) == len(spec.chains())
        for path in files[::2]:
            path.unlink()
        kept = len(files) - len(files[::2])
        partial = Campaign(spec).run(workers=1, store=store)
        assert partial.metrics() == cold.metrics()
        assert partial.store_hits + partial.store_misses == spec.n_analyses()
        # An entry serves its whole chain: every surviving entry is hit.
        assert partial.store_hits == kept * spec.n_analyses() // len(files)
        # Every miss was re-stored: the store is whole again.
        assert len(sorted(store.root.glob("??/*.json"))) == len(files)

    @pytest.mark.parametrize("damage", ["empty", "not_json", "foreign"])
    def test_rerun_repairs_a_damaged_entry(self, tmp_path, damage):
        # A damaged entry reads as a miss; the rerun that solves its cell
        # again replaces it, so the next rerun serves every cell.
        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        cold = Campaign(spec).run(workers=1, store=store)
        victim, donor = sorted(store.root.glob("??/*.json"))[:2]
        victim.write_text(
            {"empty": "", "not_json": "{not json",
             "foreign": donor.read_text(encoding="utf-8")}[damage],
            encoding="utf-8",
        )
        repairing = Campaign(spec).run(workers=1, store=store)
        assert repairing.store_misses > 0
        assert repairing.metrics() == cold.metrics()
        served = Campaign(spec).run(workers=1, store=store)
        assert served.store_hits == spec.n_analyses()
        assert served.store_misses == 0
        assert served.metrics() == cold.metrics()

    def test_store_accounting_surfaces(self, tmp_path):
        spec = small_spec()
        _, warm, _ = run_cold_warm(spec, tmp_path)
        acct = warm.accounting()
        assert acct["store"] == {
            "hits": spec.n_analyses(),
            "misses": 0,
        }
        assert "result store:" in warm.format_summary()

    def test_storeless_run_reports_zero(self):
        result = Campaign(small_spec()).run(workers=1)
        assert result.store_hits == 0
        assert result.store_misses == 0
        assert "result store:" not in result.format_summary()


def entry_files(store: ResultStore) -> list:
    return sorted(store.root.glob("??/*.json"))


#: The entry an earlier version's ``analyze --store`` wrote for the paper
#: example under ``GOLDEN_ANALYZE_KEY``, byte for byte: one-shot keys and
#: values did not change when the campaign store became chain-granular.
EARLIER_ANALYZE_ENTRY = (
    '{"identity": "{\\"config\\":\\"d1b404204fc38924a5358df2f4b06cd77a868b7'
    '08391e4e5e9ff719569a8b9dc\\",\\"level\\":null,\\"method\\":\\"analyze'
    '\\",\\"system\\":\\"53f03913d8cdb8f77e86d1af1c8a290a6b82c4e7859d618820'
    '7bd59df7b33590\\"}", "value": {"schedulable": true, "converged": true,'
    ' "transaction_wcrt": [31.0, 3.5, 3.5, 52.0]}}'
)


class TestChainEntries:
    """The chain is the store's unit: one entry holds every cell of a
    chain, and an entry serves its whole chain or nothing."""

    @pytest.mark.parametrize("mode", ["inline", "pool", "shard", "chains"])
    def test_cold_run_writes_one_entry_per_chain(self, tmp_path, mode):
        spec = small_spec(methods=("gauss_seidel", "verdict"))
        store = ResultStore(tmp_path / "store")
        campaign = Campaign(spec)
        indices = [c["index"] for c in spec.chains()]
        if mode == "inline":
            parts = [campaign.run(workers=1, store=store)]
        elif mode == "pool":
            parts = [campaign.run(workers=2, store=store)]
        elif mode == "shard":
            parts = [campaign.run(workers=1, shard=(k, 2), store=store)
                     for k in range(2)]
        else:
            parts = [
                campaign.run(workers=1, chain_indices=indices[k::2],
                             store=store)
                for k in range(2)
            ]
        cold = merge_campaign_results(parts)
        assert cold.store_misses == spec.n_analyses()
        assert len(entry_files(store)) == len(spec.chains())
        assert {p.stem for p in entry_files(store)} == (
            store_reachable_digests(spec)
        )
        assert cold.metrics() == Campaign(spec).run(workers=1).metrics()

    def test_a_perturbed_level_misses(self, tmp_path, monkeypatch):
        """The key covers every level's system, not only the first: a
        scaler that changes the top level's system makes every chain
        miss, and the re-solved cells equal the storeless run's."""
        import repro.batch.campaign as campaign_mod

        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        Campaign(spec).run(workers=1, store=store)
        scale = campaign_mod.GENERATOR_SWEEP_SCALERS["random_system"]

        def perturbed(base, axis, base_value, new_value):
            system = scale(base, axis, base_value, new_value)
            if new_value == spec.sweep_values()[-1]:
                system.transactions[0].tasks[0].wcet *= 1.01
            return system

        monkeypatch.setitem(
            campaign_mod.GENERATOR_SWEEP_SCALERS, "random_system", perturbed
        )
        storeless = Campaign(spec).run(workers=1)
        rerun = Campaign(spec).run(workers=1, store=store)
        assert rerun.store_hits == 0
        assert rerun.store_misses == spec.n_analyses()
        assert rerun.metrics() == storeless.metrics()
        assert len(entry_files(store)) == 2 * len(spec.chains())

    @pytest.mark.parametrize("damage", ["short", "missing_field", "no_list"])
    def test_an_entry_that_does_not_validate_is_a_miss(
        self, tmp_path, damage
    ):
        """Under an intact identity, a cell list one short, a cell
        without a stored field or no list at all reads as a miss: the
        chain is solved whole again."""
        import repro.batch.campaign as campaign_mod

        spec = small_spec(systems_per_cell=1,
                          methods=("gauss_seidel", "reduced"))
        store = ResultStore(tmp_path / "store")
        cold = Campaign(spec).run(workers=1, store=store)
        (path,) = entry_files(store)
        payload = json.loads(path.read_text(encoding="utf-8"))
        cells = payload["value"]["cells"]
        assert len(cells) == spec.n_analyses()
        if damage == "short":
            cells.pop()
        elif damage == "missing_field":
            del cells[1]["extras"]
        else:
            payload["value"]["cells"] = dict(enumerate(cells))
        path.write_text(json.dumps(payload), encoding="utf-8")
        systems, _ = campaign_mod._chain_systems(spec, spec.chains()[0])
        assert store.get(campaign_mod._chain_key(spec, systems)) is not None
        rerun = Campaign(spec).run(workers=1, store=store)
        assert rerun.store_hits == 0
        assert rerun.store_misses == spec.n_analyses()
        assert rerun.metrics() == cold.metrics()

    def test_per_cell_entries_never_match_and_gc_prunes_them(self, tmp_path):
        """Entries an earlier version filed per cell (one system hash,
        the level, the method) are a miss, never a wrong hit, and
        ``store-gc --spec`` removes them."""
        import repro.batch.campaign as campaign_mod

        spec = small_spec(systems_per_cell=1)
        store = ResultStore(tmp_path / "store")
        systems, _ = campaign_mod._chain_systems(spec, spec.chains()[0])
        cfg = campaign_config_hash(spec)
        for system, level in zip(systems, spec.sweep_values()):
            store.put(
                StoreKey(system_hash(system), cfg, level, "gauss_seidel"),
                {"cell": {"schedulable": False}, "warm": False},
            )
        run = Campaign(spec).run(workers=1, store=store)
        assert run.store_hits == 0
        assert run.metrics() == Campaign(spec).run(workers=1).metrics()
        swept = store.gc(keep_digests=store_reachable_digests(spec))
        assert (swept.removed, swept.kept) == (len(systems), 1)

    def test_analyze_entry_of_an_earlier_version_is_served(
        self, tmp_path, capsys
    ):
        from repro.cli import main as cli_main

        store = tmp_path / "store"
        path = store / GOLDEN_ANALYZE_KEY[:2] / f"{GOLDEN_ANALYZE_KEY}.json"
        path.parent.mkdir(parents=True)
        path.write_text(EARLIER_ANALYZE_ENTRY, encoding="utf-8")
        system = tmp_path / "paper.json"
        assert cli_main(["example", "--out", str(system)]) == 0
        capsys.readouterr()
        assert cli_main(["analyze", str(system), "--store", str(store)]) == 0
        assert "(served from result store" in capsys.readouterr().out
        assert sorted(store.glob("??/*.json")) == [path]


class TestSaveJsonDurability:
    def test_save_json_fsyncs_before_replace(self, tmp_path, monkeypatch):
        # Regression: the atomic-rename result write must fsync the temp
        # file first, or a crash can leave a zero-length "complete"
        # result file behind.
        import os

        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda a, b: (events.append("replace"), real_replace(a, b)),
        )
        result = Campaign(small_spec()).run(workers=1)
        path = result.save_json(tmp_path / "out.json")
        assert "fsync" in events
        assert events.index("fsync") < events.index("replace")
        assert json.loads(path.read_text(encoding="utf-8"))["cells"]


class TestStoreLifecycle:
    """store-stats / store-gc backend: histograms and criteria-gated GC."""

    def key(self, n=0) -> StoreKey:
        return StoreKey(f"sys{n}", "cfg", 0.3, "gauss_seidel")

    def fill(self, tmp_path, ages_s, now=1_000_000.0):
        """A store with one entry per requested age (mtime back-dated)."""
        import os

        store = ResultStore(tmp_path / "store")
        for n, age in enumerate(ages_s):
            store.put(self.key(n), {"n": n})
            path = store._path(self.key(n))
            os.utime(path, (now - age, now - age))
        return store, now

    def test_age_histogram_buckets(self, tmp_path):
        store, now = self.fill(
            tmp_path, [60.0, 7200.0, 90_000.0, 800_000.0, 900_000.0]
        )
        assert store.age_histogram(now=now) == [
            ("<=1h", 1), ("<=1d", 1), ("<=7d", 1), (">7d", 2),
        ]

    def test_gc_without_criteria_removes_nothing(self, tmp_path):
        store, now = self.fill(tmp_path, [10.0, 1e6])
        swept = store.gc(now=now)
        assert swept.removed == 0 and swept.kept == 2
        assert store.stats().entries == 2

    def test_gc_by_age(self, tmp_path):
        store, now = self.fill(tmp_path, [10.0, 5_000.0, 90_000.0])
        dry = store.gc(older_than_s=3600.0, dry_run=True, now=now)
        assert dry.removed == 2 and dry.kept == 1
        assert store.stats().entries == 3  # dry run deleted nothing
        swept = store.gc(older_than_s=3600.0, now=now)
        assert swept.removed == 2 and swept.kept == 1
        assert swept.bytes_freed > 0
        assert store.stats().entries == 1
        assert store.get(self.key(0)) == {"n": 0}  # the young one survived

    def test_gc_by_reachability(self, tmp_path):
        store, now = self.fill(tmp_path, [10.0, 10.0, 10.0])
        keep = {store._path(self.key(n)).stem for n in (0, 2)}
        swept = store.gc(keep_digests=keep, now=now)
        assert swept.removed == 1 and swept.kept == 2
        assert store.get(self.key(1)) is None

    def test_gc_criteria_intersect(self, tmp_path):
        """Both criteria must condemn an entry: old-but-reachable and
        young-but-unreachable each survive."""
        store, now = self.fill(tmp_path, [90_000.0, 90_000.0, 10.0])
        keep = {store._path(self.key(0)).stem}  # 0: old but reachable
        swept = store.gc(older_than_s=3600.0, keep_digests=keep, now=now)
        assert swept.removed == 1  # only 1: old AND unreachable
        assert store.get(self.key(0)) is not None
        assert store.get(self.key(1)) is None
        assert store.get(self.key(2)) is not None  # young, kept by age

    def test_gc_sweeps_day_old_tmp_orphans(self, tmp_path):
        import os

        store, now = self.fill(tmp_path, [10.0])
        fan = store._path(self.key(0)).parent
        stale = fan / "deadbeef.json.tmp.1234"
        fresh = fan / "deadbeef.json.tmp.5678"
        for tmp, age in ((stale, 100_000.0), (fresh, 10.0)):
            tmp.write_text("torn")
            os.utime(tmp, (now - age, now - age))
        swept = store.gc(older_than_s=1e9, now=now)  # condemns no entry
        assert swept.removed == 0
        assert swept.tmp_removed == 1
        assert not stale.exists() and fresh.exists()

    def test_gc_prunes_emptied_fanout_dirs(self, tmp_path):
        store, now = self.fill(tmp_path, [90_000.0])
        fan = store._path(self.key(0)).parent
        swept = store.gc(older_than_s=3600.0, now=now)
        assert swept.removed == 1
        assert not fan.exists()

    def test_reachable_digests_cover_exactly_a_runs_entries(self, tmp_path):
        """store_reachable_digests must predict the precise key set a
        campaign run consults -- a reachability GC right after a run
        removes nothing of that run and everything foreign."""
        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        Campaign(spec).run(workers=1, store=store)
        reachable = store_reachable_digests(spec)
        on_disk = {p.stem for p, _ in store.iter_entries()}
        assert on_disk == reachable
        # Plant a foreign entry: only it is condemned.
        store.put(StoreKey("alien", "cfg", 0.1, "m"), {"x": 1})
        swept = store.gc(keep_digests=reachable)
        assert swept.removed == 1
        assert {p.stem for p, _ in store.iter_entries()} == reachable
        # And the warm rerun still serves everything from the store.
        warm = Campaign(spec).run(workers=1, store=store)
        assert warm.store_hits == spec.n_analyses()
        assert warm.store_misses == 0


class TestStoreCli:
    def seeded_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(StoreKey("s0", "c", 0.3, "m"), {"x": 1})
        store.put(StoreKey("s1", "c", 0.6, "m"), {"x": 2})
        return store

    def test_store_stats_table_and_json(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        store = self.seeded_store(tmp_path)
        assert cli_main(["store-stats", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "entries: 2" in out
        assert "age histogram" in out
        assert cli_main(["store-stats", str(store.root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert payload["bytes"] > 0
        assert set(payload["age_histogram"]) == {
            "<=1h", "<=1d", "<=7d", ">7d",
        }

    def test_store_stats_rejects_missing_dir(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["store-stats", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_store_gc_requires_a_criterion(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        store = self.seeded_store(tmp_path)
        assert cli_main(["store-gc", str(store.root)]) == 2
        assert "prune everything" in capsys.readouterr().err
        assert store.stats().entries == 2

    def test_store_gc_rejects_garbage_age(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        store = self.seeded_store(tmp_path)
        rc = cli_main(["store-gc", str(store.root), "--older-than", "soon"])
        assert rc == 2
        assert "--older-than" in capsys.readouterr().err

    def test_store_gc_by_age_with_dry_run(self, tmp_path, capsys):
        import os
        import time

        from repro.cli import main as cli_main

        store = self.seeded_store(tmp_path)
        old = store._path(StoreKey("s0", "c", 0.3, "m"))
        back = time.time() - 8 * 86400
        os.utime(old, (back, back))
        rc = cli_main(
            ["store-gc", str(store.root), "--older-than", "7d", "--dry-run"]
        )
        assert rc == 0
        assert "would remove 1 entr(ies)" in capsys.readouterr().out
        assert store.stats().entries == 2
        rc = cli_main(["store-gc", str(store.root), "--older-than", "7d"])
        assert rc == 0
        assert "removed 1 entr(ies)" in capsys.readouterr().out
        assert store.stats().entries == 1

    def test_store_gc_by_spec_accepts_result_json(self, tmp_path, capsys):
        """--spec takes a bare spec JSON or a whole campaign result JSON
        (its spec block is used), matching what dispatch work dirs and
        --json outputs actually contain."""
        from repro.cli import main as cli_main

        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        result = Campaign(spec).run(workers=1, store=store)
        store.put(StoreKey("alien", "cfg", 0.1, "m"), {"x": 1})
        result_json = tmp_path / "result.json"
        result.save_json(result_json)
        rc = cli_main(
            ["store-gc", str(store.root), "--spec", str(result_json)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "reachable" in out
        assert "removed 1 entr(ies)" in out
        assert store.stats().entries == len(spec.chains())
