"""Dependency-DAG execution of multi-step experimental workflows.

The paper's canonical scenario — "synthesizing a material in one lab,
characterizing it at national user facilities, and running simulations on
HPC systems" — is a DAG of heterogeneous steps.  A :class:`WorkflowDAG`
holds named steps (generator factories) with dependencies and executes
every ready step concurrently on the kernel, with per-step retry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class WorkflowError(Exception):
    """A step failed permanently, or the graph is malformed."""


@dataclass
class WorkflowStep:
    """One node of the workflow.

    ``factory`` is called as ``factory(results)`` — receiving the dict of
    upstream step results — and must return a generator to run on the
    kernel.  ``retries`` re-invokes the factory on failure.
    """

    name: str
    factory: Callable[[dict[str, Any]], Any]
    deps: tuple[str, ...] = ()
    retries: int = 0
    optional: bool = False


class WorkflowDAG:
    """Build-then-run workflow executor with maximal parallelism."""

    def __init__(self, sim: "Simulator", name: str = "workflow") -> None:
        self.sim = sim
        self.name = name
        self._steps: dict[str, WorkflowStep] = {}
        # step -> steps that depend on it, in the order they were added.
        self._children: dict[str, list[str]] = {}
        self.results: dict[str, Any] = {}
        self.failures: dict[str, str] = {}
        self.timings: dict[str, tuple[float, float]] = {}

    # -- construction ---------------------------------------------------------

    def add(self, name: str, factory: Callable[[dict[str, Any]], Any],
            deps: tuple[str, ...] = (), retries: int = 0,
            optional: bool = False) -> WorkflowStep:
        if name in self._steps:
            raise WorkflowError(f"duplicate step {name!r}")
        for dep in deps:
            if dep not in self._steps:
                raise WorkflowError(f"{name!r} depends on unknown {dep!r}")
        step = WorkflowStep(name=name, factory=factory, deps=tuple(deps),
                            retries=retries, optional=optional)
        self._steps[name] = step
        self._children[name] = []
        for dep in dict.fromkeys(deps):
            self._children[dep].append(name)
        return step

    def __len__(self) -> int:
        return len(self._steps)

    # -- execution ------------------------------------------------------------------

    def run(self):
        """Generator: execute the DAG; returns the results dict.

        Steps start the moment their dependencies complete.  A failed
        required step aborts downstream work and raises
        :class:`WorkflowError`; failed *optional* steps are recorded and
        skipped over.  :meth:`add` accepts only steps that already exist
        as dependencies, so the graph cannot hold a cycle.
        """
        pending = dict(self._steps)
        running: dict[str, Any] = {}
        completed: set[str] = set()

        def ready(step: WorkflowStep) -> bool:
            return all(d in completed for d in step.deps)

        def deps_failed(step: WorkflowStep) -> bool:
            return any(d in self.failures for d in step.deps)

        while pending or running:
            # Launch everything that became ready.
            for name in [n for n, s in pending.items() if ready(s)]:
                step = pending.pop(name)
                running[name] = self.sim.process(
                    self._run_step(step))
            # Drop steps whose dependencies failed.
            for name in [n for n, s in pending.items() if deps_failed(s)]:
                step = pending.pop(name)
                self.failures[name] = "upstream failure"
            if not running:
                break
            # Wait for any running step to finish.
            procs = list(running.values())
            yield self.sim.any_of(procs)
            for name, proc in list(running.items()):
                if not proc.is_alive:
                    del running[name]
                    ok, payload = proc.value
                    if ok:
                        completed.add(name)
                        self.results[name] = payload
                    else:
                        self.failures[name] = payload
                        if not self._steps[name].optional:
                            # Cancel everything else and abort.
                            for other in running.values():
                                if other.is_alive:
                                    other.interrupt("workflow-abort")
                            raise WorkflowError(
                                f"step {name!r} failed: {payload}")
        return dict(self.results)

    def _run_step(self, step: WorkflowStep):
        """Generator: run one step with retries; returns (ok, payload)."""
        from repro.sim.process import Interrupt
        start = self.sim.now
        last_error = ""
        for _attempt in range(step.retries + 1):
            inner = self.sim.process(step.factory(self.results))
            try:
                value = yield inner
                self.timings[step.name] = (start, self.sim.now)
                return True, value
            except Interrupt:
                # Aborted mid-step: absorb the detached inner process's
                # eventual failure so it can't crash the simulation.
                if inner.is_alive and inner.callbacks is not None:
                    inner.callbacks.append(
                        lambda ev: setattr(ev, "_defused", True))
                last_error = "aborted"
                break
            except Exception as exc:  # noqa: BLE001 - step errors are data
                last_error = f"{type(exc).__name__}: {exc}"
        self.timings[step.name] = (start, self.sim.now)
        return False, last_error

    # -- introspection ---------------------------------------------------------------------

    def critical_path(self) -> list[str]:
        """Longest-duration chain through the executed DAG.

        Steps are visited in Kahn order by generations, each generation
        in the order its steps became ready (networkx's
        ``topological_sort`` order); equal-duration chains resolve to the
        first step in that order.
        """
        durations = {n: (self.timings[n][1] - self.timings[n][0])
                     if n in self.timings else 0.0
                     for n in self._steps}
        parents = {n: tuple(dict.fromkeys(s.deps))
                   for n, s in self._steps.items()}
        waiting = {n: len(p) for n, p in parents.items()}
        order = [n for n, k in waiting.items() if k == 0]
        for node in order:  # grows by one generation after another
            for child in self._children[node]:
                waiting[child] -= 1
                if waiting[child] == 0:
                    order.append(child)
        best: dict[str, tuple[float, list[str]]] = {}
        for node in order:
            preds = parents[node]
            if preds:
                prev_cost, prev_path = max(
                    (best[p] for p in preds), key=lambda t: t[0])
            else:
                prev_cost, prev_path = 0.0, []
            best[node] = (prev_cost + durations[node], prev_path + [node])
        if not best:
            return []
        return max(best.values(), key=lambda t: t[0])[1]
