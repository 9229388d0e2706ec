"""perfbench: the wall-clock benchmark of the MPF engine.

Four workloads, seven end-to-end metrics, one per-layer trace; see
``perfbench/README.md``.  Run as ``python3 -m perfbench`` from the
repository root (the entry point puts ``src/`` on ``sys.path`` itself).
"""
