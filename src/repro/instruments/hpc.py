"""HPC cluster as a computational "instrument".

The paper's workflows "run simulations on HPC systems" alongside
experiments.  This model provides a node pool with FIFO scheduling, queue
wait, walltime accounting, and a surrogate-physics job type that predicts
landscape properties with controllable model bias — cheaper but less
accurate than a real experiment, which is what makes simulation/experiment
trade-offs meaningful for the orchestrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

import numpy as np

from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.labsci.landscapes import Landscape
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry


@dataclass
class JobResult:
    """Outcome of one HPC job."""

    job_id: str
    values: dict[str, float]
    queued_s: float
    ran_s: float
    nodes: int
    metadata: dict[str, Any] = field(default_factory=dict)


class HpcCluster:
    """A multi-node cluster with a FIFO node allocator.

    Parameters
    ----------
    sim, name, site, rngs:
        Standard identity plumbing.
    n_nodes:
        Pool size.
    """

    kind = "hpc-cluster"
    #: Systematic and stochastic error of the surrogate-physics job —
    #: simulations are *informative but wrong*, so campaigns cannot
    #: simply replace experiments with compute.
    MODEL_BIAS = 0.08
    MODEL_NOISE = 0.04

    def __init__(self, sim: "Simulator", name: str, site: str,
                 rngs: "RngRegistry", *, n_nodes: int = 16) -> None:
        self.sim = sim
        self.name = name
        self.site = site
        self.rng = rngs.stream(f"hpc/{name}")
        self.nodes = Resource(sim, capacity=n_nodes)
        self.n_nodes = n_nodes
        self.stats = {"jobs": 0, "node_seconds": 0.0, "queue_wait": 0.0}

    def capability_descriptor(self) -> dict[str, Any]:
        return {"kind": self.kind, "site": self.site, "nodes": self.n_nodes,
                "operations": ["simulate", "analyze"]}

    def run_job(self, walltime_s: float, n_nodes: int = 1,
                job_kind: str = "generic",
                compute: Optional[Any] = None):
        """Generator: allocate nodes, run, free; returns a JobResult.

        ``compute`` is an optional zero-argument callable evaluated at job
        completion whose dict result becomes ``JobResult.values``.
        """
        if n_nodes > self.n_nodes:
            raise ValueError(
                f"job wants {n_nodes} nodes; cluster has {self.n_nodes}")
        submit_time = self.sim.now
        requests = [self.nodes.request() for _ in range(n_nodes)]
        yield self.sim.all_of(requests)
        queued = self.sim.now - submit_time
        try:
            yield self.sim.timeout(walltime_s)
        finally:
            for req in requests:
                req.release()
        self.stats["jobs"] += 1
        self.stats["node_seconds"] += walltime_s * n_nodes
        self.stats["queue_wait"] += queued
        values = compute() if compute is not None else {}
        # World-scoped ids: one "hpc.job" stream per world, so same-seed
        # federations number their jobs identically.
        return JobResult(job_id=self.sim.ids.label("hpc.job", "job"),
                         values=values,
                         queued_s=queued, ran_s=walltime_s, nodes=n_nodes,
                         metadata={"kind": job_kind, "cluster": self.name})

    def simulate(self, landscape: "Landscape", params: Mapping[str, Any],
                 fidelity: str = "medium"):
        """Generator: surrogate-physics prediction of landscape properties.

        Fidelity trades walltime for error:

        ====== =========== ==========================
        level  walltime    error multiplier
        ====== =========== ==========================
        low    120 s, 1 n  2.0x
        medium 900 s, 4 n  1.0x
        high   7200 s, 8 n 0.4x
        ====== =========== ==========================
        """
        profile = {"low": (120.0, 1, 2.0), "medium": (900.0, 4, 1.0),
                   "high": (7200.0, 8, 0.4)}
        if fidelity not in profile:
            raise ValueError(f"unknown fidelity {fidelity!r}")
        walltime, n_nodes, err = profile[fidelity]

        def compute() -> dict[str, float]:
            truth = landscape.evaluate(params)
            out = {}
            for k, v in truth.items():
                scale = max(abs(v), 1e-9)
                out[k] = float(
                    v + err * self.MODEL_BIAS * scale *
                    np.sin(7.0 * sum(ord(c) for c in k))
                    + self.rng.normal(0.0, err * self.MODEL_NOISE * scale))
            return out

        result = yield from self.run_job(walltime, n_nodes,
                                         job_kind=f"simulate/{fidelity}",
                                         compute=compute)
        return result
