"""CLI for the scale-out runner: ``python -m repro.scale``.

Runs a canonical multi-seed world sweep and prints (optionally writes)
the per-seed decision hashes.  The JSON manifest deliberately contains
*only* determinism-relevant fields — world kind, config, seeds, hashes —
so two manifests produced at different worker counts diff clean iff the
runs were equivalent.  That is exactly what the CI
``parallel-equivalence`` job does::

    REPRO_WORKERS=1 python -m repro.scale --seeds 0,1,2,3 --json h1.json
    REPRO_WORKERS=4 python -m repro.scale --seeds 0,1,2,3 --json h4.json
    diff h1.json h4.json

Time-travel replay rides the same manifest idea: ``--record DIR`` runs
the sweep while archiving trace/provenance shards plus decision hashes
(:mod:`repro.data.replay`), and ``--replay DIR`` re-drives the archived
worlds and fails loudly unless every hash matches byte-for-byte::

    python -m repro.scale --world mesh --seeds 0,1 --record campaign/
    python -m repro.scale --replay campaign/
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.scale.runner import WorldRunner, WorldSpec
from repro.scale.worlds import BUDGET_WORLDS, WORLD_KINDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scale",
        description="Run a multi-seed world sweep and emit decision hashes.")
    parser.add_argument("--world", default=None, choices=sorted(WORLD_KINDS),
                        help="canonical world entrypoint (default: bo)")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds (default: 0,1,2,3)")
    parser.add_argument("--budget", type=int, default=None,
                        help="per-world experiment budget override (only "
                             f"{', '.join(sorted(BUDGET_WORLDS))} read one)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: REPRO_WORKERS, or "
                             "min(8, cpu_count) when unset; 1 = serial, "
                             "0 = one per CPU)")
    parser.add_argument("--verify", action="store_true",
                        help="replay serially and assert hash equality")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the hash manifest here")
    parser.add_argument("--record", default=None, metavar="DIR",
                        help="archive trace/provenance shards and decision "
                             "hashes to DIR for later --replay")
    parser.add_argument("--replay", default=None, metavar="DIR",
                        help="re-drive the campaign archived at DIR and "
                             "verify decision hashes (exit 1 on mismatch)")
    args = parser.parse_args(argv)

    if args.replay is not None:
        # The archive fixes the world, seeds and config, and replay
        # writes no manifest; of the sweep flags only --workers applies.
        for flag in ("world", "seeds", "budget", "json", "record"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag} does not apply to --replay")
        if args.verify:
            parser.error("--verify does not apply to --replay")
        return _replay(args.replay, workers=args.workers)
    if args.world is None:
        args.world = "bo"
    if args.seeds is None:
        args.seeds = "0,1,2,3"

    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        parser.error(f"--seeds must be comma-separated ints, "
                     f"got {args.seeds!r}")
    if not seeds:
        parser.error("need at least one seed")
    if len(set(seeds)) != len(seeds):
        parser.error(f"--seeds must not repeat a seed, got {args.seeds!r}")
    if args.budget is not None:
        if args.world not in BUDGET_WORLDS:
            parser.error(f"--budget does not apply to --world {args.world}")
        if args.budget < 1:
            parser.error(f"--budget must be >= 1, got {args.budget}")
    config = {} if args.budget is None else {"budget": args.budget}

    if args.record is not None:
        from repro.data.replay import record_campaign
        manifest = record_campaign(args.world, seeds, config, args.record,
                                   workers=args.workers)
        print(f"world={args.world} recorded -> {args.record}")
        for seed in seeds:
            print(f"  seed {seed:>4}  {manifest['hashes'][str(seed)]}")
        print(f"combined: {manifest['combined']}")
        return 0

    runner = WorldRunner(args.workers, verify=args.verify)
    specs = [WorldSpec(seed=s, entrypoint=WORLD_KINDS[args.world],
                       config=config) for s in seeds]
    batch = runner.run(specs)

    print(f"world={args.world} workers={batch.workers} "
          f"verify={args.verify}")
    for result in batch:
        print(f"  seed {result.seed:>4}  {result.decision_hash}")
    print(f"combined: {batch.combined_hash}")

    if args.json:
        manifest = {
            "world": args.world,
            "config": config,
            "seeds": seeds,
            "hashes": {str(r.seed): r.decision_hash for r in batch},
            "combined": batch.combined_hash,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


def _replay(root: str, workers=None) -> int:
    from repro.data.replay import CampaignArchive, replay_campaign
    report = replay_campaign(root, workers=workers)
    archive = CampaignArchive(root)
    n_events = sum(len(archive.trace_events(s)) for s in report["seeds"])
    print(f"world={report['world']} replayed from {root} "
          f"({n_events} archived trace events)")
    mismatched = {m["seed"] for m in report["mismatches"]}
    for seed in report["seeds"]:
        status = "MISMATCH" if seed in mismatched else "ok"
        print(f"  seed {seed:>4}  {status}")
    if not report["ok"]:
        for m in report["mismatches"]:
            print(f"  seed {m['seed']}: recorded {m['recorded'][:16]} "
                  f"!= replayed {m['replayed'][:16]}")
        print("REPLAY FAILED")
        return 1
    print(f"combined: {report['combined_replayed']} (matches recording)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
