"""The runtime import path stays free of heavy optional libraries."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_testbed_loads_neither_scipy_stats_nor_networkx():
    # Every aislebench worker and `repro.scale` process pays for these
    # imports in its set-up time and memory.
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    code = ("import sys, repro.testbed; "
            "print(sorted(m for m in ('scipy.stats', 'networkx') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"
