"""Benchmark harness for oscibath; the entry point is ``bench/run.py``."""
