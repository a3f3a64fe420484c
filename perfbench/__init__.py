"""Benchmark for the qbayes library and CLI; see README.md in this directory."""
