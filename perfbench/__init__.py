"""Repository benchmark: three fixed workloads, end-to-end and per-layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n>`` from the
repository root; see ``perfbench/README.md``.
"""
