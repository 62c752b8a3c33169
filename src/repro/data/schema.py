"""Schemas and schema evolution.

The paper names "dynamic schema evolution: how autonomous agents can
negotiate schema changes when encountering new experiment types without
manual intervention" as a critical research gap (§3.2).  Here a
:class:`Schema` is versioned and immutable, :meth:`Schema.evolve` derives
new versions, and a :class:`SchemaRegistry` holds every version a mesh
node knows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional


class SchemaError(Exception):
    """Validation or registry failure."""


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
    """

    name: str
    unit: str = ""
    required: bool = True
    lo: Optional[float] = None
    hi: Optional[float] = None

    def in_range(self, value: float) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True


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

    def __contains__(self, schema_id: str) -> bool:
        return schema_id in self._schemas

    def __len__(self) -> int:
        return len(self._schemas)

    def schema_ids(self) -> list[str]:
        return sorted(self._schemas)
