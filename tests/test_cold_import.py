"""The runtime import path stays free of heavy optional libraries."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter, so nothing this test
    process already imported counts."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    return out.stdout.strip()


def test_import_testbed_loads_neither_scipy_stats_nor_networkx():
    # Every aislebench worker and `repro.scale` process pays for these
    # imports in its set-up time and memory.
    code = ("import sys, repro.testbed; "
            "print(sorted(m for m in ('scipy.stats', 'networkx') "
            "if m in sys.modules))")
    assert _fresh(code) == "[]"


def test_only_a_world_that_builds_a_methods_object_loads_scipy():
    # Only repro.methods imports scipy, and nothing outside it imports
    # repro.methods at module top: the service, mesh and coordination
    # worlds never fit a GP, so they never pay for it.  A testbed build
    # constructs each lab's optimizer, so a GP world pays at build, not
    # at its first ask.
    code = """
import json, sys
import repro.testbed, repro.service.service, repro.scale
import repro.comm.rpc, repro.data.mesh, repro.security.zerotrust

imported = sorted(m for m in sys.modules
                  if m.split('.')[0] == 'scipy'
                  or m.split('.')[:2] == ['repro', 'methods'])
repro.testbed.Testbed().site('site-0').build()
built = [m for m in ('scipy.linalg', 'scipy.special') if m in sys.modules]
print(json.dumps([imported, built]))
"""
    imported, built = json.loads(_fresh(code))
    assert imported == []
    assert built == ["scipy.linalg", "scipy.special"]
