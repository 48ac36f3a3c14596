"""Benchmark for ergolab: fixed scenario workloads run through
``ergolab.runner.run_scenario``, one fresh process per operation.

``run.py`` is the entry point; ``op.py`` is the per-operation child process;
``tracing.py`` wraps ergolab's public layer functions for the traced run;
``gates.py`` holds the correctness gates every operation must pass.
"""
