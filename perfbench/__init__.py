"""Benchmark of the repro package: workloads, span tracing and metrics."""
