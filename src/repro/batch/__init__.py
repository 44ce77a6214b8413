"""Parallel campaign engine for large-scale schedulability experiments.

The paper's evaluation is a set of *campaigns*: generate many random
transaction systems, analyze each with several methods (exact, reduced,
holistic variants, classical special cases) and aggregate acceptance
ratios and iteration counts.  This sub-package turns the per-benchmark
ad-hoc loops into one engine:

* :mod:`repro.batch.methods` -- a registry of named analysis methods
  mapping a :class:`~repro.model.system.TransactionSystem` to a
  structured :class:`~repro.batch.methods.MethodOutcome`;
* :mod:`repro.batch.campaign` -- the :class:`~repro.batch.campaign.Campaign`
  driver: a system generator, a parameter grid and a method list are
  expanded into a cross-product of *cells*, executed serially or on a
  :class:`concurrent.futures.ProcessPoolExecutor` with deterministic
  per-cell seeds, chunked dispatch and warm-start chaining along the
  sweep axis.  Results come back as ``CellResult``/``CampaignResult``
  dataclasses with JSON/CSV export.

Campaigns scale past one machine by sharding at chain granularity
(``run(shard=(k, n))`` / ``--shard k/n``; union is bit-identical to the
single run), merge back with :func:`merge_campaign_results`
(``python -m repro campaign-merge``), recover a killed run by rerunning it
against the result store it wrote each solved cell to, and stream cells
to a CSV without keeping them (``collect=False``); pool workers return
their cells through the executor.  :mod:`repro.batch.dispatch` drives a
whole sharded deployment unattended: over-partitioned shards on a
work-stealing queue of subprocess slots, cost-aware ``lpt`` partitions
fed by the ``chain_costs`` every result records, fault-tolerant
relaunches against the result store and streaming auto-merge
(``python -m repro campaign-dispatch``) -- hardened by heartbeat
liveness (progressing/stalled/dead), deterministic retry backoff,
wall-clock budgets, elastic straggler splitting, and the
:mod:`repro.batch.faults` injection harness that drills every one of
those recovery paths in tests.  :mod:`repro.batch.transport` moves shard
artifacts between the dispatcher and per-host work directories
(:class:`~repro.batch.transport.SharedDirTransport` for a shared
filesystem, :class:`~repro.batch.transport.CopyBackTransport` for
copy-in/copy-back with digest verification), and host-level failure
domains quarantine machines whose shards keep dying so their work is
rescheduled instead of retried into a black hole.

Cross-run reuse comes from the content-addressed result store:
:mod:`repro.batch.canonical` hashes analysis inputs (system content,
campaign execution context, analysis config) into stable identities, and
:mod:`repro.batch.store` persists solved cells under those identities, so
``Campaign.run(store=...)`` / ``--store DIR`` serves already-solved cells
from disk -- bit-identically to solving them -- and only pays for what no
previous run covered.

The CLI front end is ``python -m repro campaign``.
"""

from repro._lazy import lazy_exports

# Names load on first access: a ``campaign --shard`` subprocess imports
# the campaign engine but never the dispatcher or the transports.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "methods": (
        "MethodInfo",
        "MethodOutcome",
        "available_methods",
        "holistic_method",
        "register_method",
        "reseed_jitters",
        "resolve_method",
    ),
    "canonical": (
        "analysis_config_hash",
        "campaign_config_hash",
        "canonical_json",
        "content_hash",
        "spec_hash",
        "system_hash",
    ),
    "store": ("ResultStore", "StoreGcStats", "StoreKey", "StoreStats"),
    "faults": ("Fault", "FaultPlan", "TransportFault"),
    "transport": ("CopyBackTransport", "SharedDirTransport", "TransportError"),
    "campaign": (
        "Campaign",
        "CampaignResult",
        "CampaignSpec",
        "CellResult",
        "StreamingMerger",
        "available_generators",
        "chain_cost_estimates",
        "chain_store_digests",
        "linspace_levels",
        "load_cost_manifest",
        "lpt_shard_chains",
        "merge_campaign_results",
        "parse_shard",
        "partition_chains",
        "register_generator",
        "run_campaign",
        "shard_chains",
        "store_reachable_digests",
    ),
    "dispatch": (
        "CampaignDispatcher",
        "DispatchError",
        "DispatchInterrupted",
        "DispatchReport",
        "HostHealth",
        "HostState",
        "LocalBackend",
        "SshBackend",
    ),
})
