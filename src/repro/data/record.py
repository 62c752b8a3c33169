"""The unit of scientific data: a typed, annotated record."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.comm.serialization import estimate_size
from repro.sim.ids import next_label


@dataclass
class DataRecord:
    """One scientific observation (or derived product) in the data fabric.

    Attributes
    ----------
    record_id:
        Globally unique identifier ("F" in FAIR needs one).
    schema_id:
        ``name@version`` of the schema the values claim to follow
        (empty until annotation assigns one).
    source:
        Producing instrument or agent.
    site / institution:
        Where the record was produced (data sovereignty follows this).
    values:
        Scalar, schema-validated observations.
    raw:
        Vendor-format payload (arrays, nested dicts); may be a
        :class:`~repro.data.proxystore.Proxy` when passed by reference.
    metadata:
        Free-form annotations (technique, operator, environment...).
    license / sensitivity:
        Reuse terms ("R" in FAIR) and access class.
    provenance_id:
        Entity id inside the provenance graph.
    quality:
        Filled by the quality layer: score in [0, 1] plus flags.
    """

    source: str
    values: dict[str, float] = field(default_factory=dict)
    raw: Any = None
    site: str = ""
    institution: str = ""
    schema_id: str = ""
    metadata: dict[str, Any] = field(default_factory=dict)
    license: str = ""
    sensitivity: str = "open"
    provenance_id: str = ""
    time: float = 0.0
    record_id: str = ""
    quality: Optional[dict[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.record_id:
            # Ambient world allocation (repro.sim.ids): records minted on
            # a simulation path draw from that world's "record" stream.
            self.record_id = next_label("record", "rec")

    def size_bytes(self) -> float:
        return 256.0 + estimate_size(self.values) + estimate_size(self.raw) \
            + estimate_size(self.metadata)

    def index_entry(self) -> dict[str, Any]:
        """The metadata-only view shared with the global discovery index.

        Raw payloads never leave the owning site through the index —
        that is the data-sovereignty property of the mesh (§3.2).
        """
        return {
            "record_id": self.record_id,
            "schema_id": self.schema_id,
            "source": self.source,
            "site": self.site,
            "institution": self.institution,
            "time": self.time,
            "keys": sorted(self.values),
            "metadata": dict(self.metadata),
            "sensitivity": self.sensitivity,
            "quality_score": (self.quality or {}).get("score"),
        }

    @classmethod
    def from_measurement(cls, measurement) -> "DataRecord":
        """Lift an instrument :class:`Measurement` into the data fabric
        (open sensitivity; the site stands in for the institution)."""
        return cls(
            source=measurement.instrument,
            values=dict(measurement.values),
            raw=measurement.raw,
            site=measurement.site,
            institution=measurement.site,
            metadata={"kind": measurement.kind,
                      "sample_id": measurement.sample_id,
                      "units": dict(measurement.units),
                      **dict(measurement.metadata)},
            time=measurement.time,
        )
