"""Benchmark for kissgeo: seeded workloads, an independent numpy oracle and a span tracer.

Run it from the repository root with ``python3 bench/run.py --workload <name>``.
"""
