"""The repository benchmark: three pinned workloads, end-to-end and per-layer metrics.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints its metrics; the last stdout line is one JSON
object.  :mod:`perfbench.spec` names every workload and metric, and
``BENCHMARK.json`` at the repository root records the same names.
"""
