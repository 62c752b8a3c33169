"""Tests for time-travel campaign replay (record -> archive -> re-drive)."""

import json
import os

import pytest

from repro.data import (CampaignArchive, ProvenanceGraph, record_campaign,
                        replay_campaign)
from repro.data.replay import ARCHIVE_VERSION

CONFIG = {"n_facilities": 4, "n_shards": 2, "records_per_facility": 2,
          "max_trace_events": 64}
SEEDS = [0, 1]


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("campaign"))
    manifest = record_campaign("mesh", SEEDS, CONFIG, root, workers=1)
    return CampaignArchive(root), manifest


def test_record_writes_manifest_and_shards(archive):
    arc, manifest = archive
    assert os.path.isfile(arc.manifest_path)
    assert manifest["version"] == ARCHIVE_VERSION
    assert manifest["world"] == "mesh"
    assert arc.load_manifest()["seeds"] == SEEDS
    names = set()
    for seed in SEEDS:
        assert manifest["shards"][str(seed)]["trace"] == f"trace-{seed}.jsonl"
        assert (manifest["shards"][str(seed)]["provenance"]
                == f"provenance-{seed}.json")
        assert arc.trace_events(seed)
        names.update(ev.name for ev in arc.trace_events(seed))
    assert {"ingest", "discover"} <= names
    # Spill keys are side-channels, not part of the recorded config.
    assert "trace_spill" not in manifest["config"]
    assert "provenance_out" not in manifest["config"]


def test_provenance_shard_loads(archive):
    arc, _ = archive
    with open(arc.provenance_path(0), encoding="utf-8") as fh:
        graph = ProvenanceGraph.from_dict(json.load(fh))
    assert len(graph) > 0
    assert graph.pending_stitches == []  # merged graph is fully stitched
    assert arc.trace_events(999) == []


def test_replay_reproduces_hashes(archive):
    arc, manifest = archive
    report = replay_campaign(arc.root, workers=1)
    assert report["ok"]
    assert report["mismatches"] == []
    assert report["combined_replayed"] == manifest["combined"]


def test_tampered_manifest_is_detected(archive, tmp_path):
    arc, manifest = archive
    tampered = json.loads(json.dumps(manifest))
    tampered["hashes"]["0"] = "0" * 64
    CampaignArchive(str(tmp_path)).write_manifest(tampered)
    report = replay_campaign(str(tmp_path), workers=1)
    assert not report["ok"]
    assert [m["seed"] for m in report["mismatches"]] == [0]


def test_unsupported_archive_version_rejected(tmp_path):
    arc = CampaignArchive(str(tmp_path))
    arc.write_manifest({"version": 999, "seeds": []})
    with pytest.raises(ValueError):
        arc.load_manifest()


def test_unknown_world_rejected(tmp_path):
    with pytest.raises(ValueError):
        record_campaign("no-such-world", [0], {}, str(tmp_path))
