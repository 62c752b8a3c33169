"""Hardware abstraction layer (milestone M1).

"Establish common integration interfaces for scientific instruments with
vendor-agnostic hardware abstraction layers."  A :class:`HalAdapter`
translates canonical :class:`~repro.instruments.base.OperationRequest`
objects into one vendor's native dialect; the
:class:`HardwareAbstractionLayer` routes requests to the right adapter so
agents never see vendor differences — the mechanism E6 evaluates.
"""

from __future__ import annotations

from typing import Optional

from repro.instruments.base import OperationRequest
from repro.instruments.errors import VendorError
from repro.instruments.vendors import VendorProtocol
from repro.obs.metrics import MetricsRegistry


class HalAdapter:
    """Canonical-to-native translator for one instrument endpoint."""

    def __init__(self, protocol: VendorProtocol,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.protocol = protocol
        metrics = metrics or MetricsRegistry()
        self.stats = metrics.stats(
            "hal.adapter", {"requests": 0, "unsupported": 0},
            instrument=self.instrument_name, vendor=self.vendor,
            site=protocol.instrument.site)

    @property
    def instrument_name(self) -> str:
        return self.protocol.instrument.name

    @property
    def vendor(self) -> str:
        return self.protocol.vendor

    def supports(self, operation: str) -> bool:
        return (operation in self.protocol.dialect.command_map
                and operation in self.protocol.instrument.operations)

    def execute(self, request: OperationRequest):
        """Generator: run a canonical request through the native protocol."""
        self.stats["requests"] += 1
        dialect = self.protocol.dialect
        native_cmd = dialect.command_map.get(request.operation)
        if native_cmd is None or not self.supports(request.operation):
            self.stats["unsupported"] += 1
            raise VendorError(
                f"HAL: {self.instrument_name} ({self.vendor}) does not "
                f"support operation {request.operation!r}")
        payload = dialect.encode(dict(request.params))
        result = yield from self.protocol.invoke(
            native_cmd, payload, sample=request.sample,
            requester=request.requester)
        return result


class HardwareAbstractionLayer:
    """The site- or federation-wide registry of HAL adapters.

    Agents address instruments by name and canonical operation; the HAL
    owns the vendor mess.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self._adapters: dict[str, HalAdapter] = {}

    def register(self, protocol: VendorProtocol) -> HalAdapter:
        """Wrap a vendor endpoint and make it addressable by name."""
        adapter = HalAdapter(protocol, metrics=self.metrics)
        name = adapter.instrument_name
        if name in self._adapters:
            raise ValueError(f"instrument {name!r} already registered")
        self._adapters[name] = adapter
        return adapter

    def adapter(self, instrument_name: str) -> HalAdapter:
        try:
            return self._adapters[instrument_name]
        except KeyError:
            raise KeyError(
                f"no HAL adapter for {instrument_name!r}; registered: "
                f"{sorted(self._adapters)}") from None

    def execute(self, instrument_name: str, request: OperationRequest):
        """Generator: route a canonical request to the named instrument."""
        adapter = self.adapter(instrument_name)
        result = yield from adapter.execute(request)
        return result
