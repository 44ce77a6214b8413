"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a checkout; see
:mod:`perfbench.run` for the output contract and ``BENCHMARK.json`` for
the metric catalog and the reason each workload exists.
"""
