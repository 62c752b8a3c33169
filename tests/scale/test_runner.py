"""Tests for the deterministic parallel world runner."""

import multiprocessing
import os

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.scale import (DeterminismError, WorldBatch, WorldFailure,
                         WorldRunner, WorldSpec, combine_hashes,
                         decision_hash, resolve_workers)
from repro.scale.__main__ import main as scale_main
from repro.scale.runner import _execute


def square_world(seed, config):
    """Module-level (hence picklable) toy world."""
    return {"seed": seed, "value": seed * seed + config.get("offset", 0)}


def failing_world(seed, config):
    if seed == config.get("bad_seed", 1):
        raise RuntimeError("boom")
    return {"seed": seed}


def pid_world(seed, config):
    # Deliberately process-dependent: used to prove verify=True catches
    # nondeterminism (the parallel child's pid differs from the parent's).
    return {"seed": seed, "pid": os.getpid()}


# -- resolve_workers -----------------------------------------------------------

def test_resolve_workers_default_is_parallel_capped(monkeypatch):
    # Unset env -> real parallelism by default, capped at 8 workers.
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(None) == min(8, os.cpu_count() or 1)


def test_resolve_workers_env_one_means_serial(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "1")
    assert resolve_workers(None) == 1


def test_resolve_workers_env_and_explicit(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(7) == 7  # explicit beats env


def test_resolve_workers_auto_and_zero(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "auto")
    assert resolve_workers(None) == (os.cpu_count() or 1)
    assert resolve_workers(0) == (os.cpu_count() or 1)


def test_resolve_workers_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "many")
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        resolve_workers(None)
    with pytest.raises(ValueError):
        resolve_workers(-1)


# -- serial execution ----------------------------------------------------------

def test_run_returns_results_in_spec_order():
    runner = WorldRunner(1)
    specs = [WorldSpec(seed=s, entrypoint=square_world, config={})
             for s in (5, 2, 9)]
    batch = runner.run(specs)
    assert [r.seed for r in batch] == [5, 2, 9]
    assert batch.values == [square_world(s, {}) for s in (5, 2, 9)]
    assert batch.workers == 1


def test_result_hashes_are_decision_hashes():
    batch = WorldRunner(1).run([WorldSpec(seed=4, entrypoint=square_world)])
    (result,) = batch.results
    assert result.decision_hash == decision_hash(square_world(4, {}))
    assert batch.combined_hash == combine_hashes(batch.hashes)


def test_map_sugar():
    values = WorldRunner(1).map(square_world, [1, 2], {"offset": 10})
    assert values == [{"seed": 1, "value": 11}, {"seed": 2, "value": 14}]


def test_string_entrypoint_resolves():
    batch = WorldRunner(1).run([WorldSpec(
        seed=0, entrypoint="tests.scale.test_runner:square_world")])
    assert batch.values == [{"seed": 0, "value": 0}]


def test_bad_string_entrypoint_rejected():
    # Entrypoint resolution happens inside the world, so the shape error
    # surfaces as that world's failure (with the offending seed attached).
    with pytest.raises(WorldFailure, match="pkg.mod:fn"):
        WorldRunner(1).run([WorldSpec(seed=0, entrypoint="no-colon")])


def test_strict_failure_raises_with_seed():
    specs = [WorldSpec(seed=s, entrypoint=failing_world,
                       config={"bad_seed": 2}) for s in (1, 2, 3)]
    with pytest.raises(WorldFailure, match="seed=2.*boom"):
        WorldRunner(1).run(specs)


def test_non_strict_keeps_failures_as_data():
    specs = [WorldSpec(seed=s, entrypoint=failing_world,
                       config={"bad_seed": 2}) for s in (1, 2, 3)]
    # Workers return failures as data; the runner raises on the batch.
    batch = WorldBatch([_execute(spec) for spec in specs], workers=1)
    assert [r.ok for r in batch] == [True, False, True]
    failed = batch.results[1]
    assert "boom" in failed.error and failed.decision_hash == ""
    with pytest.raises(WorldFailure):
        batch.raise_on_failure()


def test_runner_reports_metrics():
    metrics = MetricsRegistry()
    runner = WorldRunner(1, metrics=metrics)
    runner.run([WorldSpec(seed=s, entrypoint=square_world) for s in (1, 2)])
    assert metrics.counter("scale.worlds").value == 2
    assert metrics.counter("scale.batches").value == 1
    assert metrics.gauge("scale.workers").value == 1


def test_spec_label():
    assert WorldSpec(seed=3, entrypoint=square_world).label == "world-3"
    assert WorldSpec(seed=3, entrypoint=square_world,
                     name="bo-a").label == "bo-a"


# -- parallel execution --------------------------------------------------------

def test_parallel_matches_serial_hashes():
    specs = [WorldSpec(seed=s, entrypoint=square_world, config={"offset": 1})
             for s in range(6)]
    serial = WorldRunner(1).run(specs)
    parallel = WorldRunner(2).run(specs)
    assert parallel.workers == 2
    assert parallel.hashes == serial.hashes
    assert parallel.combined_hash == serial.combined_hash
    assert [r.seed for r in parallel] == [r.seed for r in serial]


def test_parallel_real_world_matches_serial():
    from repro.scale.worlds import bo_world
    config = {"budget": 4, "n_init": 2, "n_candidates": 16}
    specs = [WorldSpec(seed=s, entrypoint=bo_world, config=config)
             for s in (0, 1)]
    serial = WorldRunner(1).run(specs)
    parallel = WorldRunner(2, verify=True).run(specs)  # verify replays too
    assert parallel.hashes == serial.hashes


def test_verify_catches_process_dependent_world():
    specs = [WorldSpec(seed=s, entrypoint=pid_world) for s in (0, 1)]
    with pytest.raises(DeterminismError, match="diverged"):
        WorldRunner(2, verify=True).run(specs)


def test_parallel_failure_still_strict():
    specs = [WorldSpec(seed=s, entrypoint=failing_world,
                       config={"bad_seed": 1}) for s in (0, 1, 2)]
    with pytest.raises(WorldFailure, match="seed=1"):
        WorldRunner(2).run(specs)


def test_single_spec_never_spawns_a_pool():
    batch = WorldRunner(8).run([WorldSpec(seed=0, entrypoint=square_world)])
    assert batch.workers == 1  # pool skipped for one world


def test_empty_specs():
    batch = WorldRunner(4).run([])
    assert isinstance(batch, WorldBatch)
    assert len(batch) == 0
    assert batch.values == []


def test_chunked_dispatch_keeps_spec_order():
    specs = [WorldSpec(seed=s, entrypoint=square_world) for s in range(16)]
    batch = WorldRunner(2).run(specs)  # chunks of 2: 16 // (2 workers * 4)
    assert [r.seed for r in batch] == list(range(16))


def test_parallel_run_leaves_no_worker_alive():
    # The pool is forked for the batch and joined before ``run`` returns.
    specs = [WorldSpec(seed=s, entrypoint=square_world) for s in range(4)]
    batch = WorldRunner(2).run(specs)
    assert batch.workers == 2
    assert multiprocessing.active_children() == []


# -- the CLI / parallel-equivalence shape --------------------------------------

def test_cli_manifest_identical_across_worker_counts(tmp_path, capsys):
    args = ["--world", "bo", "--seeds", "2,5", "--budget", "3"]
    p1, p2 = tmp_path / "w1.json", tmp_path / "w2.json"
    assert scale_main([*args, "--workers", "1", "--json", str(p1)]) == 0
    assert scale_main([*args, "--workers", "2", "--verify",
                       "--json", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()
    out = capsys.readouterr().out
    assert "combined:" in out


@pytest.fixture
def no_world_runs(monkeypatch):
    """Fail the test if the CLI gets as far as running a world."""
    def refuse(self, specs):
        raise AssertionError("a world ran")
    monkeypatch.setattr(WorldRunner, "run", refuse)


@pytest.mark.parametrize("world", ["mesh", "service"])
def test_cli_rejects_budget_for_worlds_without_one(world, no_world_runs,
                                                   capsys):
    # Neither world reads a budget, so the manifest would record a knob
    # that changed nothing.
    with pytest.raises(SystemExit) as exc:
        scale_main(["--world", world, "--seeds", "0", "--budget", "3"])
    assert exc.value.code == 2
    assert f"--budget does not apply to --world {world}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_cli_rejects_budget_below_one(budget, no_world_runs, capsys):
    # In the world, 0 leaves ``opt.best`` with no observation to return
    # and -1 asks for an array of negative size.
    with pytest.raises(SystemExit) as exc:
        scale_main(["--world", "bo", "--seeds", "0", "--budget", budget])
    assert exc.value.code == 2
    assert "--budget must be >= 1" in capsys.readouterr().err


def test_cli_rejects_duplicate_seeds(no_world_runs, capsys):
    # A repeated seed would run twice but keep one entry under ``hashes``.
    with pytest.raises(SystemExit) as exc:
        scale_main(["--world", "bo", "--seeds", "0,0", "--budget", "3"])
    assert exc.value.code == 2
    assert "--seeds must not repeat a seed" in capsys.readouterr().err


@pytest.fixture
def no_replay_runs(monkeypatch):
    """Fail the test if the CLI gets as far as replaying an archive."""
    import repro.data.replay as replay

    def refuse(*args, **kwargs):
        raise AssertionError("a replay ran")
    monkeypatch.setattr(replay, "replay_campaign", refuse)


@pytest.mark.parametrize("flags", [
    ["--world", "bo"], ["--seeds", "5,5"], ["--budget", "-3"],
    ["--json", "out.json"], ["--verify"]], ids=lambda f: f[0].lstrip("-"))
def test_cli_rejects_sweep_flags_with_replay(flags, no_replay_runs, tmp_path,
                                             capsys):
    # The archive fixes the world, seeds and config and replay writes no
    # manifest, so each flag would otherwise be dropped without a word.
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    with pytest.raises(SystemExit) as exc:
        scale_main(["--replay", str(tmp_path), *flags])
    assert exc.value.code == 2
    assert f"{flags[0]} does not apply to --replay" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_cli_replay_takes_workers(tmp_path, capsys):
    from repro.data import CampaignArchive, record_campaign
    record_campaign("mesh", [0, 1], {"n_facilities": 4, "n_shards": 2,
                                     "records_per_facility": 2,
                                     "max_trace_events": 64},
                    str(tmp_path), workers=1)
    assert scale_main(["--replay", str(tmp_path), "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "(matches recording)" in out
    # The printed count is every archived trace shard's length, summed.
    archive = CampaignArchive(str(tmp_path))
    n_events = sum(len(archive.trace_events(s)) for s in (0, 1))
    assert n_events == 48
    assert f"({n_events} archived trace events)" in out
