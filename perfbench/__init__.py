"""Benchmark of the tsracks package; see README.md."""
