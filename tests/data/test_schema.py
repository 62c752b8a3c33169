"""Tests for schemas, evolution, and the schema registry."""

import pytest

from repro.data import FieldSpec, Schema, SchemaRegistry
from repro.data.schema import SchemaError


@pytest.fixture
def pl_schema():
    return Schema(name="pl-spectrum", version=1, fields=(
        FieldSpec("plqy", unit="fraction", lo=0.0, hi=1.0),
        FieldSpec("emission_nm", unit="nm", lo=200.0, hi=2000.0),
        FieldSpec("temperature", unit="C", required=False),
    ))


# -- validation ------------------------------------------------------------------

def test_schema_validate_ok(pl_schema):
    assert pl_schema.is_valid({"plqy": 0.5, "emission_nm": 520.0})


def test_schema_validate_missing_required(pl_schema):
    problems = pl_schema.validate({"plqy": 0.5})
    assert any("emission_nm" in p for p in problems)


def test_schema_validate_range(pl_schema):
    problems = pl_schema.validate({"plqy": 1.7, "emission_nm": 520.0})
    assert any("plqy" in p for p in problems)


def test_schema_validate_non_numeric(pl_schema):
    problems = pl_schema.validate({"plqy": "high", "emission_nm": 520.0})
    assert any("not numeric" in p for p in problems)


def test_optional_field_not_required(pl_schema):
    assert pl_schema.is_valid({"plqy": 0.1, "emission_nm": 400.0})


# -- evolution --------------------------------------------------------------------

def test_evolve_bumps_version(pl_schema):
    v2 = pl_schema.evolve(add=(FieldSpec("fwhm_nm", unit="nm",
                                         required=False),))
    assert v2.version == 2
    assert v2.schema_id == "pl-spectrum@2"
    assert v2.field("fwhm_nm") is not None
    assert pl_schema.version == 1  # original untouched


def test_evolve_drop_field(pl_schema):
    v2 = pl_schema.evolve(drop=("temperature",))
    assert v2.field("temperature") is None


def test_evolve_duplicate_rejected(pl_schema):
    with pytest.raises(SchemaError):
        pl_schema.evolve(add=(FieldSpec("plqy"),))


def test_compatibility(pl_schema):
    v2 = pl_schema.evolve(add=(FieldSpec("fwhm_nm", required=False),))
    assert v2.compatible_with(pl_schema)  # new optional field: compatible
    v3 = pl_schema.evolve(add=(FieldSpec("fwhm_nm", required=True),))
    assert not v3.compatible_with(pl_schema)


# -- registry ---------------------------------------------------------------------------

def test_registry_versions(pl_schema):
    reg = SchemaRegistry()
    reg.register(pl_schema)
    v2 = pl_schema.evolve(add=(FieldSpec("x", required=False),))
    reg.register(v2)
    assert reg.get("pl-spectrum@2") is v2
    assert reg.get("pl-spectrum@1") is pl_schema
    assert "pl-spectrum@1" in reg
    assert len(reg) == 2


def test_registry_duplicate_rejected(pl_schema):
    reg = SchemaRegistry()
    reg.register(pl_schema)
    with pytest.raises(SchemaError):
        reg.register(pl_schema)


def test_registry_unknown(pl_schema):
    with pytest.raises(SchemaError):
        SchemaRegistry().get("ghost@1")
