"""Tests for metadata extraction (M5) and FAIR scoring/governance (M6)."""

import pytest

from repro.data import (DataRecord, FairGovernor, FieldSpec, MetadataExtractor,
                        ProvenanceGraph, Schema, SchemaRegistry, fair_score)
from repro.instruments import (ElectronMicroscope, LiquidHandler,
                               PLSpectrometer, XRayDiffractometer)
from repro.labsci import Sample


def run(sim, gen):
    out = {}

    def proc():
        out["r"] = yield from gen
    sim.process(proc())
    sim.run()
    return out["r"]


@pytest.fixture
def extractor():
    return MetadataExtractor()


# -- extraction on real instrument payloads -----------------------------------

def test_extract_pl_spectrum(sim, rngs, qd_landscape, qd_params, extractor):
    spec = PLSpectrometer(sim, "spec", "ornl", rngs, scan_time_s=1.0)
    m = run(sim, spec.measure(Sample.synthesize(qd_params, qd_landscape)))
    ann = extractor.extract(m.raw, m.values)
    assert ann.technique == "photoluminescence"
    assert "plqy" in ann.quantities
    assert ann.confidence > 0.3


def test_extract_xrd(sim, rngs, qd_landscape, qd_params, extractor):
    xrd = XRayDiffractometer(sim, "xrd", "ornl", rngs, scan_time_s=1.0,
                             n_points=200)
    m = run(sim, xrd.measure(Sample.synthesize(qd_params, qd_landscape)))
    ann = extractor.extract(m.raw, m.values)
    assert ann.technique == "powder-xrd"
    assert "crystallinity" in ann.quantities


def test_extract_micrograph(sim, rngs, qd_landscape, qd_params, extractor):
    mic = ElectronMicroscope(sim, "sem", "ornl", rngs, image_time_s=1.0,
                             image_px=32)
    m = run(sim, mic.measure(Sample.synthesize(qd_params, qd_landscape)))
    ann = extractor.extract(m.raw, m.values)
    assert ann.technique == "electron-microscopy"
    assert ("raw.image" in ann.array_shapes)


def test_extract_plate_map(sim, rngs, extractor):
    lh = LiquidHandler(sim, "lh", "ornl", rngs, time_per_transfer_s=1.0)
    m = run(sim, lh.prepare("mix-1", {"precursor": 100.0}))
    ann = extractor.extract(m.raw, m.values)
    assert ann.technique == "liquid-handling"


def test_extract_unknown_payload(extractor):
    ann = extractor.extract({"blob": [1, 2, 3]}, {})
    assert ann.technique == "unknown"
    assert extractor.stats["unknowns"] == 1


def test_extract_unit_suffix_detection(extractor):
    ann = extractor.extract({"temperature_K": 373.15}, {})
    assert ann.quantities.get("temperature") == "K"


def test_extract_high_threshold_more_conservative():
    strict = MetadataExtractor(min_confidence=0.95)
    ann = strict.extract({"emission_nm": 520.0}, {})
    assert ann.technique == "unknown"


def test_extract_deterministic(sim, rngs, qd_landscape, qd_params, extractor):
    spec = PLSpectrometer(sim, "spec", "ornl", rngs, scan_time_s=1.0)
    m = run(sim, spec.measure(Sample.synthesize(qd_params, qd_landscape)))
    a1 = extractor.extract(m.raw, m.values)
    a2 = extractor.extract(m.raw, m.values)
    assert a1.technique == a2.technique
    assert a1.confidence == a2.confidence


# -- FAIR scoring -------------------------------------------------------------------

def make_record(**kw):
    defaults = dict(source="spec-1", values={"plqy": 0.5}, site="ornl",
                    institution="ornl")
    defaults.update(kw)
    return DataRecord(**defaults)


def test_bare_record_scores_low():
    report = fair_score(make_record())
    assert report.overall < 0.6
    assert "interoperable" in report.gaps()


def test_fully_dressed_record_scores_high():
    schemas = SchemaRegistry()
    schemas.register(Schema("pl", 1, (FieldSpec("plqy", unit="fraction"),)))
    prov = ProvenanceGraph()
    prov.entity("rec-x")
    prov.agent("planner")
    prov.activity("meas-1", ended=10.0)
    prov.used("meas-1", prov.entity("sample-1"))
    prov.was_generated_by("rec-x", "meas-1")
    prov.was_associated_with("meas-1", "planner")
    rec = make_record(schema_id="pl@1", license="CC-BY-4.0",
                      provenance_id="rec-x",
                      metadata={"technique": "photoluminescence",
                                "units": {"plqy": "fraction"}},
                      quality={"score": 0.9})
    report = fair_score(rec, indexed=True, schemas=schemas, provenance=prov)
    assert report.overall > 0.9
    assert report.findable == 1.0
    assert report.reusable == 1.0


def test_unregistered_schema_does_not_count():
    schemas = SchemaRegistry()
    rec = make_record(schema_id="ghost@9")
    report = fair_score(rec, schemas=schemas)
    assert report.interoperable < 0.6


# -- FAIR governor ----------------------------------------------------------------------

def test_governor_improves_score(sim, rngs, qd_landscape, qd_params):
    spec = PLSpectrometer(sim, "spec", "ornl", rngs, scan_time_s=1.0)
    m = run(sim, spec.measure(Sample.synthesize(qd_params, qd_landscape)))
    rec = DataRecord.from_measurement(m)
    rec.metadata.pop("technique", None)  # strip what the instrument knew
    rec.metadata.pop("units", None)
    schemas = SchemaRegistry()
    schemas.register(Schema("pl", 1, (
        FieldSpec("plqy", unit="fraction"),
        FieldSpec("emission_nm", unit="nm"),
    )))
    governor = FairGovernor()
    before = fair_score(rec, schemas=schemas).overall
    report = governor.audit(rec, schemas=schemas)
    assert report.overall > before
    assert rec.license == "CC-BY-4.0"
    assert rec.schema_id == "pl@1"
    assert rec.metadata["technique"] == "photoluminescence"
    assert governor.stats["repairs"] == 1
    assert governor.mean_improvement() > 0


def test_governor_schema_requires_all_required_fields():
    schemas = SchemaRegistry()
    schemas.register(Schema("pl", 1, (
        FieldSpec("plqy"), FieldSpec("emission_nm"),
    )))
    rec = make_record(values={"plqy": 0.5})  # missing emission_nm
    FairGovernor().audit(rec, schemas=schemas)
    assert rec.schema_id == ""  # no schema fits


def test_governor_noop_on_compliant_record():
    rec = make_record(license="MIT",
                      metadata={"technique": "photoluminescence"})
    g = FairGovernor()
    g.audit(rec)
    assert g.stats["repairs"] == 0
