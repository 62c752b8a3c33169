"""The deterministic parallel world runner.

PR 3's determinism contract (per-world :class:`~repro.sim.ids.IdSequencer`
streams, detlint-enforced freedom from process-global state) guarantees
that a seeded world is a pure function of ``(seed, config, entrypoint)``
— it does not matter *where* it runs.  This module cashes that in: a
:class:`WorldRunner` fans a list of :class:`WorldSpec`\\ s across a
process pool and the results are, by contract, byte-identical to running
them one after another in this process.  The contract is checkable: every
world result carries a :func:`~repro.scale.hashing.decision_hash`, and
``verify=True`` (or the CI ``parallel-equivalence`` job) replays the
batch serially and compares digests world by world.

Worker count resolution (:func:`resolve_workers`)::

    REPRO_WORKERS unset      -> min(8, os.cpu_count()): real parallelism
                                by default, capped so a big box is not
                                oversubscribed by nested tooling
    REPRO_WORKERS=N  (N>=1)  -> N workers; 1 means serial in-process
    REPRO_WORKERS=0 / auto   -> os.cpu_count()

Each parallel :meth:`WorldRunner.run` forks its own pool of
``min(workers, len(specs))`` workers (``fork`` context, so the parent's
imports and ground-truth tables are shared copy-on-write instead of
re-imported per world), dispatches the specs in chunks to amortize
pickling, and joins the workers before it returns: no process outlives
the batch.

Entrypoints must be module-level callables (or ``"pkg.mod:fn"`` strings)
taking ``(seed, config)`` and returning plain picklable data — the
process pool ships them by reference and the decision hash refuses
address-dependent values.  This module is the **one sanctioned home** of
process-pool primitives in the repository; detlint rule D006 flags
``ProcessPoolExecutor``/``multiprocessing`` use anywhere else.
"""

from __future__ import annotations

import os
from concurrent import futures
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.obs.metrics import MetricsRegistry
from repro.scale.hashing import combine_hashes, decision_hash

__all__ = ["WORKERS_ENV", "DeterminismError", "WorldFailure", "WorldSpec",
           "WorldResult", "WorldBatch", "WorldRunner", "resolve_workers"]

#: Environment knob read by :func:`resolve_workers`.
WORKERS_ENV = "REPRO_WORKERS"

Entrypoint = Union[Callable[[int, dict], Any], str]


class WorldFailure(RuntimeError):
    """A world's entrypoint raised; carries the seed for triage."""

    def __init__(self, seed: int, message: str) -> None:
        super().__init__(f"world seed={seed} failed: {message}")
        self.seed = seed


class DeterminismError(AssertionError):
    """Parallel and serial replays of the same specs disagreed."""


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count from the argument or ``REPRO_WORKERS``.

    With no argument and no env var, defaults to ``min(8, cpu_count)``:
    parallel execution is hash-verified equivalent to serial (the CI
    equivalence job holds that line), so the default should win
    wall-clock time on multi-core machines instead of leaving them idle.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip().lower()
        if not raw:
            return min(8, os.cpu_count() or 1)
        if raw == "auto":
            workers = 0
        else:
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV}={raw!r} is not an integer or 'auto'"
                ) from None
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


@dataclass(frozen=True)
class WorldSpec:
    """One seeded world: ``entrypoint(seed, config)`` describes it fully."""

    seed: int
    entrypoint: Entrypoint
    config: dict = field(default_factory=dict)
    name: str = ""

    @property
    def label(self) -> str:
        return self.name or f"world-{self.seed}"


@dataclass(frozen=True)
class WorldResult:
    """What one world produced, plus its decision digest."""

    seed: int
    name: str
    ok: bool
    value: Any = None
    decision_hash: str = ""
    error: str = ""


class WorldBatch:
    """Ordered results of one :meth:`WorldRunner.run` call."""

    def __init__(self, results: Sequence[WorldResult], workers: int) -> None:
        self.results = list(results)
        self.workers = workers

    @property
    def values(self) -> list:
        return [r.value for r in self.results]

    @property
    def hashes(self) -> list[str]:
        return [r.decision_hash for r in self.results]

    @property
    def combined_hash(self) -> str:
        return combine_hashes(self.hashes)

    def merged_metrics(self) -> MetricsRegistry:
        """One registry merged from every world's per-shard metrics dump.

        Worlds that want their observability aggregated include a
        ``MetricsRegistry.state()`` dump under ``"metrics_state"`` in
        their returned dict (plain data, so it survives the process-pool
        pickle).
        Counters add, gauges sum, histograms merge bucket-wise — the
        same path :mod:`repro.service` tenants report through.
        """
        merged = MetricsRegistry()
        for result in self.results:
            if result.ok and isinstance(result.value, dict):
                state = result.value.get("metrics_state")
                if state is not None:
                    merged.merge_state(state)
        return merged

    def raise_on_failure(self) -> "WorldBatch":
        for r in self.results:
            if not r.ok:
                raise WorldFailure(r.seed, r.error)
        return self

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


def _resolve_entrypoint(entrypoint: Entrypoint) -> Callable[[int, dict], Any]:
    if callable(entrypoint):
        return entrypoint
    module_name, _, attr = str(entrypoint).partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"string entrypoint must look like 'pkg.mod:fn', "
            f"got {entrypoint!r}")
    fn = getattr(import_module(module_name), attr)
    if not callable(fn):
        raise TypeError(f"{entrypoint!r} resolved to non-callable {fn!r}")
    return fn


def _execute(spec: WorldSpec) -> WorldResult:
    """Run one world to completion (in this or a worker process).

    Failures are returned as data rather than raised: worker exceptions
    do not always survive pickling, and a deterministic runner must not
    let one bad seed tear down the sibling worlds mid-flight.
    """
    try:
        fn = _resolve_entrypoint(spec.entrypoint)
        value = fn(spec.seed, dict(spec.config))
        return WorldResult(seed=spec.seed, name=spec.label, ok=True,
                           value=value, decision_hash=decision_hash(value))
    except Exception as exc:  # noqa: BLE001 - reported per-world
        return WorldResult(seed=spec.seed, name=spec.label, ok=False,
                           error=f"{type(exc).__name__}: {exc}")


class WorldRunner:
    """Fans seeded worlds across processes, deterministically.

    Parameters
    ----------
    workers:
        ``None`` reads ``REPRO_WORKERS``, and ``min(8, cpu_count)`` when
        that is unset (see :func:`resolve_workers`); ``0`` or ``"auto"``
        in the env means one worker per CPU.  With one worker (or one
        spec) everything runs in-process — no pool, no pickling.
    metrics:
        Optional shared registry; the runner reports ``scale.worlds``,
        ``scale.batches``, and a ``scale.workers`` gauge into it.
    verify:
        Replay every parallel batch serially and compare decision hashes
        (:class:`DeterminismError` on any mismatch).  Costs a full extra
        run; meant for CI and for flushing out nondeterminism, not for
        production sweeps.

    :meth:`run` raises :class:`WorldFailure` on the first failed world.
    """

    def __init__(self, workers: Optional[int] = None, *,
                 metrics: Optional[MetricsRegistry] = None,
                 verify: bool = False) -> None:
        self.workers = resolve_workers(workers)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.verify = verify

    # -- execution ---------------------------------------------------------

    def run(self, specs: Iterable[WorldSpec]) -> WorldBatch:
        """Run every spec; results come back in spec order regardless of
        completion order (the contract benches rely on)."""
        specs = list(specs)
        used = min(self.workers, len(specs)) if specs else 1
        if used > 1:
            results = self._run_parallel(specs, used)
        else:
            used = 1
            results = [_execute(spec) for spec in specs]
        batch = WorldBatch(results, workers=used)

        if self.verify and used > 1:
            serial = WorldBatch([_execute(s) for s in specs], workers=1)
            self._compare(serial, batch)

        self.metrics.counter("scale.worlds").inc(len(specs))
        self.metrics.counter("scale.batches").inc()
        self.metrics.gauge("scale.workers").set(used)
        return batch.raise_on_failure()

    def map(self, entrypoint: Entrypoint, seeds: Iterable[int],
            config: Optional[dict] = None) -> list:
        """Sugar: run ``entrypoint`` once per seed, return the values."""
        cfg = dict(config or {})
        batch = self.run(WorldSpec(seed=int(s), entrypoint=entrypoint,
                                   config=cfg) for s in seeds)
        return batch.values

    # -- internals ---------------------------------------------------------

    def _run_parallel(self, specs: list[WorldSpec],
                      used: int) -> list[WorldResult]:
        # The sanctioned process-pool call site (detlint D006): everything
        # else in the repo must fan out through this runner.  ``fork`` is
        # pinned on POSIX so worker state is a copy-on-write snapshot of
        # this process — imports and ground-truth tables are shared, and
        # string/callable entrypoints resolve without re-importing.
        try:
            import multiprocessing  # detlint: ignore[D006] — WorldRunner is the sanctioned runner
            ctx = multiprocessing.get_context("fork")  # detlint: ignore[D006] — WorldRunner is the sanctioned runner
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = None
        # Chunked dispatch: ship several specs per worker round-trip so
        # pickling and queue wakeups amortize, while keeping ~4 chunks
        # per worker in flight for load balance across uneven worlds.
        chunksize = max(1, len(specs) // (used * 4))
        with futures.ProcessPoolExecutor(  # detlint: ignore[D006] — WorldRunner is the sanctioned runner
                max_workers=used, mp_context=ctx) as pool:
            return list(pool.map(_execute, specs, chunksize=chunksize))

    @staticmethod
    def _compare(serial: WorldBatch, parallel: WorldBatch) -> None:
        mismatched = [
            (s.seed, s.decision_hash, p.decision_hash)
            for s, p in zip(serial.results, parallel.results)
            if s.ok and p.ok and s.decision_hash != p.decision_hash]
        if mismatched:
            detail = "; ".join(
                f"seed {seed}: serial {sh[:12]} != parallel {ph[:12]}"
                for seed, sh, ph in mismatched)
            raise DeterminismError(
                f"parallel execution diverged from serial replay: {detail}")
