"""Layered benchmark harness for gnumsd; `perfbench/run.py` is the entry point."""
