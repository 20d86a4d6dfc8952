"""Repository benchmark package; the entry point is ``repobench/run.py``."""
