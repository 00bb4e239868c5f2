"""Benchmark for the vrmsi toolkit: workloads, gates, tracing and statistics.

Run it with ``python3 vrbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``vrbench/README.md``.
"""
