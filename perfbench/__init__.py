"""memvec benchmark: seeded workloads, correctness checks and a span tracer.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1``; see ``perfbench/README.md``.
"""
