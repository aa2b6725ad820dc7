"""Benchmark harness for mmtlab: workloads, tracer and reporting."""
