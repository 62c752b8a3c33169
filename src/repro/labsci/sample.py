"""Physical samples flowing between instruments.

A :class:`Sample` is created by a synthesis instrument and carries its
*true* properties privately; characterization instruments read them
through :meth:`Sample.true_property` and add their own noise.  Orchestration
code must never touch the truth directly — that is the simulation's
stand-in for "you have to actually measure it".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.sim.ids import next_label


@dataclass
class Sample:
    """A synthesized specimen.

    Attributes
    ----------
    sample_id:
        Unique identifier.
    params:
        Synthesis parameters that produced it.
    site:
        Site where it physically resides (shipping between sites takes
        simulated time; see :class:`repro.core.federation.FederationManager`).
    provenance:
        Ordered list of (time, instrument, operation) records.
    """

    params: dict[str, Any]
    site: str = ""
    sample_id: str = ""
    provenance: list[tuple[float, str, str]] = field(default_factory=list)
    _true_properties: dict[str, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.sample_id:
            # Ambient world allocation (repro.sim.ids): samples synthesized
            # inside a simulation draw from that world's "sample" stream.
            self.sample_id = next_label("sample")

    @classmethod
    def synthesize(cls, params: Mapping[str, Any], landscape,
                   site: str = "") -> "Sample":
        """Create a sample whose truth comes from ``landscape``."""
        true_props = landscape.evaluate(params)
        return cls(params=dict(params), site=site,
                   _true_properties=dict(true_props))

    def true_property(self, name: str) -> float:
        """Ground truth access — instruments only."""
        return self._true_properties[name]

    def true_properties(self) -> dict[str, float]:
        return dict(self._true_properties)

    def record(self, time: float, instrument: str, operation: str) -> None:
        self.provenance.append((time, instrument, operation))
