"""The simulated LLM: a stochastic reasoner with honest failure modes.

M8 contrasts agent architectures, not language models, so the LLM here is
a behavioural model (see DESIGN.md substitutions): it has realistic
**latency** (the paper: "higher-latency, resource intensive compared to
traditional methods"), a **token cost** meter, and — crucially — a
**hallucination rate**: a fraction of its direct parameter proposals are
plausible-but-wrong (unsafe conditions, forbidden chemistry, absurd
predicted outcomes).  The verification layer's whole job (E2) is to catch
exactly these.

Where the LLM is *good* is orchestration: tool selection and stage
sequencing carry a much lower error rate, matching the paper's framing of
LLMs "as an orchestrator rather than a replacement for existing
techniques."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional

import numpy as np

from repro.labsci.landscapes import ParameterSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


@dataclass
class LLMResponse:
    """One completion.

    ``grounded`` records whether the response was generated by the sound
    path; it is *hidden metadata* for experiment accounting — orchestrators
    must not branch on it (that would be cheating; they have verification
    tools instead).
    """

    task: str
    content: dict[str, Any]
    latency_s: float
    tokens: int
    grounded: bool = True


class SimulatedLLM:
    """Deterministic-seeded LLM behaviour model.

    Parameters
    ----------
    sim:
        Kernel (latency is spent on its clock).
    rng:
        Random stream.
    hallucination_rate:
        Probability that a *parameter proposal* is corrupted.
    """

    #: Probability that a tool-selection answer is wrong.
    tool_error_rate = 0.03
    #: (lo, hi) uniform per-call latency.
    LATENCY_RANGE_S = (0.8, 3.0)

    def __init__(self, sim: "Simulator", rng: np.random.Generator, *,
                 hallucination_rate: float = 0.25) -> None:
        if not 0.0 <= hallucination_rate <= 1.0:
            raise ValueError("hallucination_rate must be in [0, 1]")
        self.sim = sim
        self.rng = rng
        self.hallucination_rate = hallucination_rate
        self.stats = {"calls": 0, "tokens": 0, "hallucinations": 0}

    # -- plumbing -------------------------------------------------------------

    def _charge(self, prompt_tokens: int):
        """Generator: spend latency; returns (latency, total tokens)."""
        self.stats["calls"] += 1
        latency = float(self.rng.uniform(*self.LATENCY_RANGE_S))
        tokens = prompt_tokens + int(self.rng.integers(100, 600))
        self.stats["tokens"] += tokens
        yield self.sim.timeout(latency)
        return latency, tokens

    # -- capabilities -----------------------------------------------------------------

    def propose_parameters(self, space: ParameterSpace,
                           history: list[tuple[Mapping[str, Any], float]],
                           safety_envelope: Optional[Mapping[str, tuple[float, float]]] = None):
        """Generator: LLM-direct experiment proposal (error-prone).

        The sound path perturbs the best recipe seen so far (a decent
        human-like heuristic); the hallucinated path produces the failure
        modes §3.3 worries about.
        """
        latency, tokens = yield from self._charge(
            prompt_tokens=50 * max(len(history), 1))
        if self.rng.random() < self.hallucination_rate:
            self.stats["hallucinations"] += 1
            content = self._hallucinate(space, history, safety_envelope or {})
            return LLMResponse("propose_parameters", content, latency,
                               tokens, grounded=False)
        params = self._plausible_proposal(space, history)
        expected = {}
        if history:
            best_v = max(v for _, v in history)
            expected = {"objective": min(1.0, best_v * 1.05)}
        return LLMResponse("propose_parameters",
                           {"params": params, "expected": expected},
                           latency, tokens, grounded=True)

    def select_tool(self, goal: str, tools: list[str], preferred: str):
        """Generator: orchestration-level tool choice (mostly reliable)."""
        latency, tokens = yield from self._charge(prompt_tokens=100)
        if preferred in tools and self.rng.random() >= self.tool_error_rate:
            choice = preferred
            grounded = True
        else:
            choice = str(self.rng.choice(tools))
            grounded = choice == preferred
        return LLMResponse("select_tool", {"tool": choice, "goal": goal},
                           latency, tokens, grounded=grounded)

    # -- internals ----------------------------------------------------------------------

    def _plausible_proposal(self, space: ParameterSpace,
                            history: list[tuple[Mapping[str, Any], float]]
                            ) -> dict[str, Any]:
        if not history:
            return space.sample(self.rng)
        best_params, _ = max(history, key=lambda h: h[1])
        out = dict(best_params)
        for d in space.continuous:
            span = (d.high - d.low) * 0.1
            out[d.name] = d.clip(float(out[d.name])
                                 + float(self.rng.normal(0.0, span)))
        return out

    def _hallucinate(self, space: ParameterSpace,
                     history: list[tuple[Mapping[str, Any], float]],
                     safety_envelope: Mapping[str, tuple[float, float]]
                     ) -> dict[str, Any]:
        """A plausible-but-wrong proposal.

        Three modes, chosen at random:

        1. **unsafe**: a continuous parameter pushed past the safety
           envelope (but often still within hardware interlocks);
        2. **confabulated-outcome**: valid parameters with an absurd
           predicted objective;
        3. **invalid**: a parameter outside the space entirely (the model
           "remembers" a chemistry that does not exist here).
        """
        params = self._plausible_proposal(space, history)
        mode = self.rng.choice(["unsafe", "confabulated", "invalid"])
        if mode == "unsafe":
            cont = [d for d in space.continuous]
            d = cont[int(self.rng.integers(0, len(cont)))] if cont else None
            if d is not None:
                lo, hi = safety_envelope.get(d.name, (d.low, d.high))
                params[d.name] = float(hi + 0.3 * (d.high - d.low))
            return {"params": params, "expected": {"objective": 0.9}}
        if mode == "confabulated":
            return {"params": params, "expected": {"objective": 50.0}}
        # invalid: corrupt a discrete choice
        if space.discrete:
            d = space.discrete[int(self.rng.integers(0, len(space.discrete)))]
            params[d.name] = f"unobtainium-{int(self.rng.integers(0, 99))}"
        elif space.continuous:
            d0 = space.continuous[0]
            params[d0.name] = d0.high * 10.0
        return {"params": params, "expected": {"objective": 0.8}}
