"""Campaign record and replay: archived trace shards and decision hashes.

A recorded campaign is a directory — a :class:`CampaignArchive` — holding
one ``manifest.json`` plus per-seed shards:

- ``trace-<seed>.jsonl`` — the incremental JSONL trace spill a bounded
  :class:`~repro.obs.trace.Tracer` streamed while the world ran;
- ``provenance-<seed>.json`` — the merged federation provenance dump.

The manifest pins everything determinism-relevant: world kind, config,
seeds, and each world's canonical SHA-256 decision hash.  Replay
(:func:`replay_campaign`) re-runs the recorded world entrypoints from the
archived ``(world, seed, config)`` triples and compares decision hashes
byte-for-byte.  World entrypoints exclude the spill side-channel paths
from their hashed return value, so a replay without spill digests
identically to the recording iff the run is deterministic.

``python -m repro.scale --record DIR`` writes an archive;
``--replay DIR`` re-drives one.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from repro.obs.export import load_jsonl
from repro.obs.trace import TraceEvent

__all__ = ["ARCHIVE_VERSION", "MANIFEST_NAME", "CampaignArchive",
           "record_campaign", "replay_campaign"]

ARCHIVE_VERSION = 1
MANIFEST_NAME = "manifest.json"


class CampaignArchive:
    """One recorded campaign on disk: manifest + per-seed shards."""

    def __init__(self, root: str) -> None:
        self.root = root

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def trace_path(self, seed: int) -> str:
        return os.path.join(self.root, f"trace-{int(seed)}.jsonl")

    def provenance_path(self, seed: int) -> str:
        return os.path.join(self.root, f"provenance-{int(seed)}.json")

    # -- manifest ----------------------------------------------------------

    def write_manifest(self, manifest: dict[str, Any]) -> str:
        os.makedirs(self.root, exist_ok=True)
        with open(self.manifest_path, "w", encoding="utf-8",
                  newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return self.manifest_path

    def load_manifest(self) -> dict[str, Any]:
        with open(self.manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        version = manifest.get("version")
        if version != ARCHIVE_VERSION:
            raise ValueError(
                f"unsupported archive version {version!r} at {self.root} "
                f"(this build reads version {ARCHIVE_VERSION})")
        return manifest

    # -- shard access ------------------------------------------------------

    def trace_events(self, seed: int) -> list[TraceEvent]:
        """Spilled trace shard for one seed ([] when none was recorded)."""
        path = self.trace_path(seed)
        if not os.path.isfile(path):
            return []
        return load_jsonl(path)


# -- record / re-drive -----------------------------------------------------

def _world_entrypoint(world: str):
    # Deferred: repro.scale imports repro.data (worlds build meshes), so a
    # top-level import here would be circular.
    from repro.scale.worlds import WORLD_KINDS
    try:
        return WORLD_KINDS[world]
    except KeyError:
        raise ValueError(f"unknown world kind {world!r}; "
                         f"have {sorted(WORLD_KINDS)}") from None


def record_campaign(world: str, seeds: "list[int]", config: dict,
                    root: str, *, workers: Optional[int] = None
                    ) -> dict[str, Any]:
    """Run a multi-seed sweep and archive it for later replay.

    Each seed's config gains two side-channel keys — ``trace_spill`` and
    ``provenance_out`` — pointing into the archive; worlds that support
    spilling (``mesh``) stream their shards there, others ignore the keys
    and the archive simply has no shard files.  Returns the manifest
    (also written to ``<root>/manifest.json``).
    """
    from repro.scale.runner import WorldRunner, WorldSpec

    archive = CampaignArchive(root)
    os.makedirs(root, exist_ok=True)
    entrypoint = _world_entrypoint(world)
    specs = [WorldSpec(seed=int(s), entrypoint=entrypoint,
                       config=dict(config,
                                   trace_spill=archive.trace_path(s),
                                   provenance_out=archive.provenance_path(s)))
             for s in seeds]
    batch = WorldRunner(workers).run(specs)
    manifest = {
        "version": ARCHIVE_VERSION,
        "world": world,
        "config": dict(config),
        "seeds": [int(s) for s in seeds],
        "hashes": {str(r.seed): r.decision_hash for r in batch},
        "combined": batch.combined_hash,
        "shards": {
            str(r.seed): {
                "trace": (os.path.basename(archive.trace_path(r.seed))
                          if os.path.isfile(archive.trace_path(r.seed))
                          else None),
                "provenance": (
                    os.path.basename(archive.provenance_path(r.seed))
                    if os.path.isfile(archive.provenance_path(r.seed))
                    else None),
            } for r in batch
        },
    }
    archive.write_manifest(manifest)
    return manifest


def replay_campaign(root: str, *,
                    workers: Optional[int] = None) -> dict[str, Any]:
    """Re-drive an archived campaign and compare decision hashes.

    Runs the recorded ``(world, seed, config)`` triples afresh — without
    the spill side-channels — and checks every seed's decision hash
    byte-for-byte against the manifest.  Returns a report whose ``ok``
    is false and whose ``mismatches`` name each diverged seed.
    """
    from repro.scale.runner import WorldRunner, WorldSpec

    archive = CampaignArchive(root)
    manifest = archive.load_manifest()
    entrypoint = _world_entrypoint(manifest["world"])
    seeds = [int(s) for s in manifest["seeds"]]
    specs = [WorldSpec(seed=s, entrypoint=entrypoint,
                       config=dict(manifest["config"])) for s in seeds]
    batch = WorldRunner(workers).run(specs)

    mismatches = []
    for result in batch:
        recorded = manifest["hashes"][str(result.seed)]
        if result.decision_hash != recorded:
            mismatches.append({"seed": result.seed,
                               "recorded": recorded,
                               "replayed": result.decision_hash})
    return {
        "ok": not mismatches,
        "world": manifest["world"],
        "seeds": seeds,
        "mismatches": mismatches,
        "combined_recorded": manifest["combined"],
        "combined_replayed": batch.combined_hash,
    }
