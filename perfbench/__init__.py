"""End-to-end and per-layer benchmark of the line-chart search system.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>``;
see ``perfbench/README.md`` for the workloads and metrics.
"""
