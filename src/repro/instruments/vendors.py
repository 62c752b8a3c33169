"""Vendor-specific instrument protocol dialects.

Real laboratories face "established commercial products to custom-built
research equipment not originally designed for networked automation"
(§3.1).  We model four fictional vendor dialects that differ in command
vocabulary, payload shape, and units — the heterogeneity the hardware
abstraction layer (:mod:`repro.instruments.hal`) exists to hide:

========== ==================== ======================= ==================
vendor     command style        payload shape           units
========== ==================== ======================= ==================
aisle-ref  canonical names      flat dict               canonical (C, s)
kelvin-sci ``StartSynthesis``   flat dict               Kelvin, minutes
helios     single ``execute``   nested ``{"recipe":..}`` Fahrenheit, s
custom-lab ``cmd_*``            list of (key, value)    C, hours
========== ==================== ======================= ==================

``aisle-ref`` is the one vendor whose dialect happens to match the
canonical interface, so "no HAL" workflows succeed against it and fail
against the rest — the contrast E6 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.instruments.base import Instrument
from repro.instruments.errors import VendorError

#: Canonical parameter units: temperature C, times s, volumes mL.
CANONICAL_TIME_KEYS = ("residence_time", "hold_time")


@dataclass(frozen=True)
class VendorDialect:
    """One vendor's wire conventions."""

    vendor: str
    #: canonical operation -> native command name
    command_map: dict[str, str]
    #: canonical params -> native payload
    encode: Callable[[dict[str, Any]], Any]
    #: native payload -> canonical params
    decode: Callable[[Any], dict[str, Any]]


# -- unit/shape helpers -----------------------------------------------------------

def _identity_encode(params: dict[str, Any]) -> Any:
    return dict(params)


def _identity_decode(payload: Any) -> dict[str, Any]:
    if not isinstance(payload, Mapping):
        raise VendorError(f"aisle-ref expects a flat mapping, got {payload!r}")
    return dict(payload)


def _kelvin_encode(params: dict[str, Any]) -> Any:
    out: dict[str, Any] = {}
    for k, v in params.items():
        if k == "temperature":
            out["temperature_K"] = float(v) + 273.15
        elif k in CANONICAL_TIME_KEYS:
            out[f"{k}_min"] = float(v) / 60.0
        else:
            out[k] = v
    return out


def _kelvin_decode(payload: Any) -> dict[str, Any]:
    if not isinstance(payload, Mapping):
        raise VendorError("kelvin-sci expects a mapping payload")
    out: dict[str, Any] = {}
    for k, v in payload.items():
        if k == "temperature_K":
            out["temperature"] = float(v) - 273.15
        elif k.endswith("_min"):
            out[k[:-4]] = float(v) * 60.0
        else:
            out[k] = v
    return out


def _helios_encode(params: dict[str, Any]) -> Any:
    recipe: dict[str, Any] = {}
    for k, v in params.items():
        if k == "temperature":
            recipe["T_setpoint_F"] = float(v) * 9.0 / 5.0 + 32.0
        else:
            recipe[k] = v
    return {"recipe": recipe, "schema": "helios/v2"}


def _helios_decode(payload: Any) -> dict[str, Any]:
    if (not isinstance(payload, Mapping) or "recipe" not in payload
            or not isinstance(payload["recipe"], Mapping)):
        raise VendorError("helios expects {'recipe': {...}}")
    out: dict[str, Any] = {}
    for k, v in payload["recipe"].items():
        if k == "T_setpoint_F":
            out["temperature"] = (float(v) - 32.0) * 5.0 / 9.0
        else:
            out[k] = v
    return out


def _customlab_encode(params: dict[str, Any]) -> Any:
    pairs = []
    for k, v in params.items():
        if k in CANONICAL_TIME_KEYS:
            pairs.append((f"{k}_hr", float(v) / 3600.0))
        else:
            pairs.append((k, v))
    return pairs


def _customlab_decode(payload: Any) -> dict[str, Any]:
    if not isinstance(payload, (list, tuple)):
        raise VendorError("custom-lab expects a list of (key, value) pairs")
    out: dict[str, Any] = {}
    for item in payload:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise VendorError(f"bad custom-lab pair: {item!r}")
        k, v = item
        if str(k).endswith("_hr"):
            out[str(k)[:-3]] = float(v) * 3600.0
        else:
            out[str(k)] = v
    return out


#: The four dialects, keyed by vendor name.
VENDOR_DIALECTS: dict[str, VendorDialect] = {
    "aisle-ref": VendorDialect(
        vendor="aisle-ref",
        command_map={"synthesize": "synthesize", "measure": "measure",
                     "prepare": "prepare"},
        encode=_identity_encode, decode=_identity_decode),
    "kelvin-sci": VendorDialect(
        vendor="kelvin-sci",
        command_map={"synthesize": "StartSynthesis",
                     "measure": "StartMeasurement",
                     "prepare": "StartPrep"},
        encode=_kelvin_encode, decode=_kelvin_decode),
    "helios": VendorDialect(
        vendor="helios",
        command_map={"synthesize": "execute", "measure": "execute",
                     "prepare": "execute"},
        encode=_helios_encode, decode=_helios_decode),
    "custom-lab": VendorDialect(
        vendor="custom-lab",
        command_map={"synthesize": "cmd_synth", "measure": "cmd_meas",
                     "prepare": "cmd_prep"},
        encode=_customlab_encode, decode=_customlab_decode),
}


class VendorProtocol:
    """An instrument's native control endpoint, speaking one dialect.

    :meth:`invoke` is what arrives "on the wire": a native command name and
    a native payload.  Unknown commands and malformed payloads raise
    :class:`VendorError` — this is where HAL-less cross-vendor workflows
    die.
    """

    def __init__(self, instrument: Instrument, dialect: VendorDialect) -> None:
        self.instrument = instrument
        self.dialect = dialect
        # Reverse map: native command -> canonical ops it can carry.
        self._reverse: dict[str, list[str]] = {}
        for op, cmd in dialect.command_map.items():
            self._reverse.setdefault(cmd, []).append(op)
        self.stats = {"invocations": 0, "errors": 0}

    @property
    def vendor(self) -> str:
        return self.dialect.vendor

    def invoke(self, native_command: str, payload: Any = None,
               sample: Any = None, requester: str = ""):
        """Generator: execute a native command.

        For multiplexed dialects (helios), the canonical operation is
        inferred from which operations the instrument supports.
        """
        self.stats["invocations"] += 1
        ops = self._reverse.get(native_command)
        if not ops:
            self.stats["errors"] += 1
            raise VendorError(
                f"{self.vendor} device {self.instrument.name!r} does not "
                f"understand command {native_command!r}")
        try:
            params = self.dialect.decode(payload) if payload is not None else {}
        except VendorError:
            self.stats["errors"] += 1
            raise
        op = next((o for o in ops if o in self.instrument.operations), ops[0])
        result = yield from self._dispatch(op, params, sample, requester)
        return result

    def _dispatch(self, op: str, params: dict[str, Any], sample: Any,
                  requester: str):
        inst = self.instrument
        if op not in inst.operations:
            self.stats["errors"] += 1
            raise VendorError(
                f"{inst.name} ({inst.kind}) does not support {op!r}")
        if op == "synthesize":
            result = yield from inst.synthesize(params, requester=requester)
        elif op == "measure":
            if sample is None:
                raise VendorError("measure requires a sample")
            result = yield from inst.measure(sample, requester=requester)
        elif op == "prepare":
            mixture_id = str(params.pop("mixture_id", "mixture"))
            result = yield from inst.prepare(mixture_id, params,
                                             requester=requester)
        else:  # pragma: no cover - defensive
            raise VendorError(f"unhandled canonical operation {op!r}")
        return result


def make_vendor_protocol(instrument: Instrument,
                         vendor: str) -> VendorProtocol:
    """Wrap ``instrument`` behind the named vendor's native protocol."""
    try:
        dialect = VENDOR_DIALECTS[vendor]
    except KeyError:
        raise KeyError(
            f"unknown vendor {vendor!r}; known: {sorted(VENDOR_DIALECTS)}"
        ) from None
    return VendorProtocol(instrument, dialect)
