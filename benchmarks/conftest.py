"""Shared helpers for the experiment-regeneration benchmarks.

Every benchmark regenerates one experiment from DESIGN.md's per-experiment
index (the paper has no tables/figures; experiments target quantified
milestones and in-text claims).  Wall-clock timing comes from
pytest-benchmark; the scientific quantities are *simulated* metrics,
printed as the rows the paper would report and asserted on *shape* (who
wins, by roughly what factor) per the reproduction contract.
"""

import pytest

from repro.scale import WorldRunner, WorldSpec


def run_seeded(entrypoint, seeds, config=None, workers=None):
    """Fan a ``(seed, config) -> data`` world across seeds, in seed order.

    The sanctioned multi-seed path for benchmarks: honours the
    ``REPRO_WORKERS`` knob (unset means ``WorldRunner``'s default of
    ``min(8, cpu_count)`` workers; ``REPRO_WORKERS=1`` is serial), and
    because every result carries a decision hash, ``REPRO_WORKERS=4``
    runs are checkably identical to serial ones (see the CI
    ``parallel-equivalence`` job).
    Entrypoints must be module-level and return plain picklable data.
    """
    runner = WorldRunner(workers)
    batch = runner.run(WorldSpec(seed=int(s), entrypoint=entrypoint,
                                 config=dict(config or {})) for s in seeds)
    return batch.values


def report(title: str, header: list[str], rows: list[list]) -> None:
    """Print one experiment's results table."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) + 2
              for i, h in enumerate(header)] if rows else [len(h) + 2
                                                           for h in header]
    print(f"\n=== {title} ===")
    print("".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("".join(str(c).ljust(w) for c, w in zip(row, widths)))


@pytest.fixture
def bench_once(benchmark):
    """Run a scenario exactly once under pytest-benchmark timing.

    Campaign simulations are deterministic and heavy; repeated rounds
    would re-measure identical work.
    """
    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)
    return run


def fmt(value, digits: int = 3):
    """Format numbers compactly; pass strings/None through."""
    if value is None:
        return "DNF"
    if isinstance(value, float):
        return round(value, digits)
    return value
