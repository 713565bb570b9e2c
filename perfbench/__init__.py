"""Benchmark harness for chaincodes; see README.md in this directory."""
