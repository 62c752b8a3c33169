"""Shared fixtures for the AISLE test suite."""

import pytest

from repro.net import FaultInjector, Link, Network, Site, Topology
from repro.sim import RngRegistry, Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rngs():
    return RngRegistry(12345)


@pytest.fixture
def two_site_topo():
    topo = Topology()
    topo.add_site(Site.make("a", institution="Lab A"))
    topo.add_site(Site.make("b", institution="Lab B"))
    topo.connect("a", "b", Link(latency_s=0.01, bandwidth_Bps=1e9))
    return topo


@pytest.fixture
def testbed_topo():
    return Topology.national_lab_testbed(5, latency_s=0.02, jitter_s=0.0)


@pytest.fixture
def network(sim, two_site_topo, rngs):
    faults = FaultInjector(sim)
    return Network(sim, two_site_topo, rngs.stream("net"), faults)


@pytest.fixture
def testbed_network(sim, testbed_topo, rngs):
    faults = FaultInjector(sim)
    return Network(sim, testbed_topo, rngs.stream("net"), faults)


@pytest.fixture(scope="session")
def qd_landscape():
    from repro.labsci import QuantumDotLandscape
    return QuantumDotLandscape(seed=3)


@pytest.fixture
def qd_params(qd_landscape):
    import numpy as np
    return qd_landscape.space.sample(np.random.default_rng(0))


@pytest.fixture(scope="session")
def repo_report(tmp_path_factory):
    """``python -m repro.analysis`` from the repo root, as a callable.

    The first call fills a session-wide fact cache (a cold run); every
    later call is a warm run over that cache."""
    from pathlib import Path

    from repro.analysis import analyze, load_config
    root = Path(__file__).resolve().parents[1]
    cache = tmp_path_factory.mktemp("analysis") / "cache.json"

    def run():
        return analyze(
            [root / "src"],
            refs=[root / p for p in ("tests", "benchmarks", "examples")],
            config=load_config(root), cache_path=cache,
            baseline_path=root / "analysis_baseline.json")
    return run
