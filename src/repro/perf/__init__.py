"""Deterministic performance harness for the repro stack.

Fast paths (incremental GP updates, kernel-matrix caching, the batched
``ask()``, the calendar-queue kernel, the compiled route index, the
sharded discovery index) are only trustworthy if they are *measured*:

- :mod:`repro.perf.workloads` defines seeded workloads that time those
  hot paths, with gates that do not depend on the machine's speed;
- :mod:`repro.perf.harness` times them, emits a versioned report
  (``BENCH_PERF.json``), and compares against a committed baseline;
- ``python -m repro.perf`` is the CLI (see :mod:`repro.perf.__main__`).

End-to-end throughput per paper-shaped workload, with a per-layer
split, is ``aislebench``'s job; its ``ops_per_s`` is the end-to-end
gate of record.  That each fast path still computes what its simple
predecessor did is held by tier-1 oracle tests, not by racing a frozen
copy of the old code.
"""

from repro.perf.harness import (SCHEMA_VERSION, PerfHarness, compare_reports,
                                load_report, write_report)
from repro.perf.workloads import WORKLOADS

__all__ = [
    "SCHEMA_VERSION",
    "PerfHarness",
    "WORKLOADS",
    "compare_reports",
    "load_report",
    "write_report",
]
