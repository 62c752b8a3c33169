"""Fluidic self-driving-lab reactor (§3.1, ref [24]).

A continuous microfluidic reactor: droplet-scale reaction volumes, seconds
per condition once the line is primed, and in-line optical sampling.  The
module models the properties the paper quantifies — ">100x data
acquisition efficiency over traditional batch methods" with minimal
chemical waste — via per-sample time and reagent budgets orders of
magnitude below :class:`~repro.instruments.synthesis.BatchSynthesisRobot`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.instruments.base import Instrument, OperationRequest
from repro.labsci.sample import Sample

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.labsci.landscapes import Landscape


class FluidicReactor(Instrument):
    """Continuous-flow droplet reactor with in-line sampling.

    Parameters
    ----------
    landscape:
        Ground truth sampled by the reactor.
    sample_time_s:
        Steady-state time per condition (droplet residence + switching).
    prime_time_s:
        One-off line priming cost when conditions change chemistry
        (i.e. when any *discrete* parameter differs from the previous
        condition).
    reagent_per_sample_mL:
        Droplet-scale consumption.
    """

    kind = "fluidic-reactor"
    operations = ("synthesize", "sweep")

    def __init__(self, sim, name, site, rngs, landscape: "Landscape", *,
                 sample_time_s: float = 12.0, prime_time_s: float = 120.0,
                 reagent_per_sample_mL: float = 0.05, **kw: Any) -> None:
        super().__init__(sim, name, site, rngs, **kw)
        self.landscape = landscape
        self.sample_time_s = sample_time_s
        self.prime_time_s = prime_time_s
        self.reagent_per_sample_mL = reagent_per_sample_mL
        self.reagent_used_mL = 0.0
        self.samples_made = 0
        self._last_chemistry: tuple[str, ...] | None = None

    def operating_envelope(self) -> dict[str, tuple[float, float]]:
        # Microfluidic lines tolerate less heat than a batch mantle and
        # clog at high concentrations.
        return {"temperature": (0.0, 260.0), "dopant_conc": (0.0, 1.0),
                "residence_time": (0.5, 3600.0)}

    def _condition_time(self, params: Mapping[str, Any]) -> float:
        chemistry = self.landscape.space.discrete_key(params)
        t = self.sample_time_s
        if chemistry != self._last_chemistry:
            t += self.prime_time_s
        self._last_chemistry = chemistry
        return t

    def synthesize(self, params: Mapping[str, Any], requester: str = ""):
        """Generator: produce one droplet-scale sample."""
        duration = self._condition_time(params)
        request = OperationRequest(operation="synthesize",
                                   params=dict(params), requester=requester)
        yield from self.operate(request, duration)
        self.reagent_used_mL += self.reagent_per_sample_mL
        self.samples_made += 1
        sample = Sample.synthesize(params, self.landscape, site=self.site)
        sample.record(self.sim.now, self.name, "synthesize(flow)")
        return sample

    def sweep(self, param_list: list[Mapping[str, Any]], requester: str = ""):
        """Generator: run a batch of conditions back-to-back.

        Returns a list of samples.  Sweeps amortize priming across
        conditions sharing a chemistry — the access pattern fluidic SDLs
        are built for.  Each condition runs through :meth:`synthesize`.
        """
        samples = []
        for params in param_list:
            sample = yield from self.synthesize(params, requester)
            samples.append(sample)
        return samples
