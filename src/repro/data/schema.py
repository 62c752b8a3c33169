"""Schemas, schema evolution, and agent-driven schema negotiation.

The paper names "dynamic schema evolution: how autonomous agents can
negotiate schema changes when encountering new experiment types without
manual intervention" as a critical research gap (§3.2).  Here a
:class:`Schema` is versioned and immutable; :meth:`Schema.evolve` derives
new versions; and :class:`SchemaNegotiator` automatically maps producer
records onto consumer expectations using aliases, unit conversions, and
defaults — failing loudly only when no safe mapping exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional


class SchemaError(Exception):
    """Validation or negotiation failure."""


@dataclass(frozen=True)
class FieldSpec:
    """One schema field.

    Attributes
    ----------
    name / unit:
        Canonical name and unit string.
    required:
        Whether validation demands the field.
    lo / hi:
        Optional physical range (validation + quality checks).
    aliases:
        Names other dialects use for the same quantity.
    """

    name: str
    unit: str = ""
    required: bool = True
    lo: Optional[float] = None
    hi: Optional[float] = None
    aliases: tuple[str, ...] = ()

    def in_range(self, value: float) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True


#: unit -> (canonical unit, conversion to canonical)
_UNIT_CONVERSIONS: dict[str, tuple[str, Callable[[float], float]]] = {
    "K": ("C", lambda v: v - 273.15),
    "F": ("C", lambda v: (v - 32.0) * 5.0 / 9.0),
    "min": ("s", lambda v: v * 60.0),
    "hr": ("s", lambda v: v * 3600.0),
    "ms": ("s", lambda v: v / 1000.0),
    "uL": ("mL", lambda v: v / 1000.0),
    "L": ("mL", lambda v: v * 1000.0),
    "A": ("nm", lambda v: v / 10.0),
    "um": ("nm", lambda v: v * 1000.0),
    "percent": ("fraction", lambda v: v / 100.0),
}


def convert_unit(value: float, from_unit: str, to_unit: str) -> float:
    """Convert between known units; identity when units already match."""
    if from_unit == to_unit:
        return value
    entry = _UNIT_CONVERSIONS.get(from_unit)
    if entry and entry[0] == to_unit:
        return entry[1](value)
    # Try the reverse direction via a linear probe of the table.
    rev = _UNIT_CONVERSIONS.get(to_unit)
    if rev and rev[0] == from_unit:
        # Invert an affine map y = a*x + b numerically.
        f = rev[1]
        b = f(0.0)
        a = f(1.0) - b
        return (value - b) / a
    raise SchemaError(f"no conversion {from_unit!r} -> {to_unit!r}")


@dataclass(frozen=True)
class Schema:
    """An immutable, versioned record schema."""

    name: str
    version: int = 1
    fields: tuple[FieldSpec, ...] = ()
    description: str = ""

    @property
    def schema_id(self) -> str:
        return f"{self.name}@{self.version}"

    def field(self, name: str) -> Optional[FieldSpec]:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    # -- validation --------------------------------------------------------------

    def validate(self, values: Mapping[str, Any]) -> list[str]:
        """Return a list of violations (empty = valid)."""
        problems = []
        for f in self.fields:
            if f.name not in values:
                if f.required:
                    problems.append(f"missing required field {f.name!r}")
                continue
            v = values[f.name]
            if not isinstance(v, (int, float)):
                problems.append(f"{f.name} is not numeric: {v!r}")
            elif not f.in_range(float(v)):
                problems.append(
                    f"{f.name}={v} outside [{f.lo}, {f.hi}]")
        return problems

    def is_valid(self, values: Mapping[str, Any]) -> bool:
        return not self.validate(values)

    # -- evolution -----------------------------------------------------------------

    def evolve(self, *, add: tuple[FieldSpec, ...] = (),
               drop: tuple[str, ...] = (),
               description: str = "") -> "Schema":
        """Derive the next version with fields added/removed."""
        kept = tuple(f for f in self.fields if f.name not in drop)
        clashes = {f.name for f in add} & {f.name for f in kept}
        if clashes:
            raise SchemaError(f"evolve would duplicate fields: {clashes}")
        return Schema(name=self.name, version=self.version + 1,
                      fields=kept + tuple(add),
                      description=description or self.description)

    def compatible_with(self, older: "Schema") -> bool:
        """Backward compatibility: can data valid under ``older`` satisfy us?

        True iff every field we *require* exists in the older schema (same
        name) — additions must be optional to stay compatible.
        """
        older_names = set(older.field_names())
        return all(f.name in older_names
                   for f in self.fields if f.required)


class SchemaRegistry:
    """All versions of all schemas known to a mesh node."""

    def __init__(self) -> None:
        self._schemas: dict[str, Schema] = {}

    def register(self, schema: Schema) -> Schema:
        if schema.schema_id in self._schemas:
            raise SchemaError(f"{schema.schema_id} already registered")
        self._schemas[schema.schema_id] = schema
        return schema

    def get(self, schema_id: str) -> Schema:
        try:
            return self._schemas[schema_id]
        except KeyError:
            raise SchemaError(f"unknown schema {schema_id!r}") from None

    def latest(self, name: str) -> Optional[Schema]:
        versions = [s for s in self._schemas.values() if s.name == name]
        return max(versions, key=lambda s: s.version) if versions else None

    def __contains__(self, schema_id: str) -> bool:
        return schema_id in self._schemas

    def __len__(self) -> int:
        return len(self._schemas)

    def schema_ids(self) -> list[str]:
        return sorted(self._schemas)


@dataclass
class FieldMapping:
    """How one consumer field is satisfied from producer data."""

    consumer_field: str
    producer_field: Optional[str] = None
    conversion: Optional[tuple[str, str]] = None  # (from_unit, to_unit)
    default: Optional[float] = None


class SchemaNegotiator:
    """Automatically maps producer records onto a consumer schema.

    Resolution order per consumer field: exact name match -> alias match
    -> unit-suffix match (``temperature_K`` satisfies ``temperature`` via
    K->C conversion) -> declared default -> failure if required.
    """

    def __init__(self, registry: Optional[SchemaRegistry] = None) -> None:
        self.registry = registry or SchemaRegistry()
        self.stats = {"negotiations": 0, "failures": 0}

    def negotiate(self, producer_fields: Mapping[str, str],
                  consumer: Schema,
                  defaults: Optional[Mapping[str, float]] = None
                  ) -> list[FieldMapping]:
        """Compute mappings for every consumer field.

        ``producer_fields`` maps field name -> unit ("" when unknown).
        Raises :class:`SchemaError` when a required field can't be mapped.
        """
        self.stats["negotiations"] += 1
        defaults = defaults or {}
        mappings: list[FieldMapping] = []
        for f in consumer.fields:
            mapping = self._map_field(f, producer_fields, defaults)
            if mapping is None:
                if f.required:
                    self.stats["failures"] += 1
                    raise SchemaError(
                        f"cannot satisfy required field {f.name!r} from "
                        f"producer fields {sorted(producer_fields)}")
                continue
            mappings.append(mapping)
        return mappings

    def _map_field(self, f: FieldSpec, producer: Mapping[str, str],
                   defaults: Mapping[str, float]) -> Optional[FieldMapping]:
        # 1. exact name
        if f.name in producer:
            unit = producer[f.name]
            conv = ((unit, f.unit) if unit and f.unit and unit != f.unit
                    else None)
            if conv is not None:
                convert_unit(0.0, *conv)  # raises if unconvertible
            return FieldMapping(f.name, f.name, conversion=conv)
        # 2. aliases
        for alias in f.aliases:
            if alias in producer:
                unit = producer[alias]
                conv = ((unit, f.unit) if unit and f.unit and unit != f.unit
                        else None)
                if conv is not None:
                    convert_unit(0.0, *conv)
                return FieldMapping(f.name, alias, conversion=conv)
        # 3. unit-suffix heuristics: field_K, field_min, ...
        for pname in producer:
            if "_" not in pname:
                continue
            stem, suffix = pname.rsplit("_", 1)
            if stem == f.name and suffix in _UNIT_CONVERSIONS:
                target = _UNIT_CONVERSIONS[suffix][0]
                if not f.unit or f.unit == target:
                    return FieldMapping(f.name, pname,
                                        conversion=(suffix, target))
        # 4. defaults
        if f.name in defaults:
            return FieldMapping(f.name, None, default=defaults[f.name])
        return None

    @staticmethod
    def apply(mappings: list[FieldMapping],
              values: Mapping[str, Any]) -> dict[str, float]:
        """Transform producer values into consumer-shaped values."""
        out: dict[str, float] = {}
        for m in mappings:
            if m.producer_field is None:
                out[m.consumer_field] = float(m.default)  # type: ignore[arg-type]
                continue
            if m.producer_field not in values:
                continue
            v = float(values[m.producer_field])
            if m.conversion is not None:
                v = convert_unit(v, *m.conversion)
            out[m.consumer_field] = v
        return out
