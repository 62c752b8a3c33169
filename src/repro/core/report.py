"""The canonical campaign result type: :class:`CampaignReport`.

:class:`CampaignReport` is one typed, frozen dataclass per campaign:

- built once from a :class:`~repro.core.campaign.CampaignResult` via
  :meth:`CampaignReport.from_result` (every derived quantity — validity,
  correctness, time-to-target — is computed here and nowhere else);
- **plain data** throughout, so a report can be pickled across process
  boundaries and digested by
  :func:`repro.scale.hashing.decision_hash` unchanged;
- :meth:`to_dict` is the stable wire/JSON form, including the
  per-experiment ``decisions`` rows that pin the full decision sequence;
- :meth:`summary` is the compact printable dict;
- :meth:`speedup_vs` / :meth:`reduction_vs` compare two arms (the M8
  speedup and the M9 experiment reduction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.campaign import CampaignResult
from repro.core.metrics import reduction_fraction, speedup

#: ``to_dict`` schema version; bump when keys change incompatibly.
REPORT_SCHEMA = 1


@dataclass(frozen=True)
class CampaignReport:
    """Everything one campaign produced, as plain immutable data.

    Attributes
    ----------
    campaign / objective_key:
        Identity: the campaign name and the measured quantity.
    tenant:
        Owning tenant when the campaign ran through
        :class:`repro.service.CampaignService` (empty for library runs).
    n_experiments / n_valid / correctness:
        Executed experiment count, how many produced usable data, and
        their ratio (the E2 correctness metric; 1.0 on an empty run).
    best_value / best_params:
        The campaign's winner.
    stop_reason:
        Why the loop ended (``"target-reached"``, ``"budget-exhausted"``,
        ``"cancelled"``, ...).
    started / finished:
        Campaign start/end on the simulated clock.
    sim_seconds:
        Simulator clock when the report was cut (>= ``finished``).
    target / time_to_target / experiments_to_target:
        Attainment accounting against ``target`` (``None`` = never
        reached, reported as "DNF" rather than a fabricated number).
    counters:
        Component tallies (planner/verification/fault-tolerance stats).
    decisions:
        One row per executed experiment —
        ``[index, objective (nan when invalid), started, finished,
        valid]`` — pinning the full per-experiment decision sequence for
        :func:`~repro.scale.hashing.decision_hash`, not just the winner.
    """

    campaign: str
    objective_key: str
    tenant: str = ""
    n_experiments: int = 0
    n_valid: int = 0
    correctness: float = 1.0
    best_value: Optional[float] = None
    best_params: Optional[dict[str, Any]] = None
    stop_reason: str = ""
    started: float = 0.0
    finished: float = 0.0
    sim_seconds: float = 0.0
    target: Optional[float] = None
    time_to_target: Optional[float] = None
    experiments_to_target: Optional[int] = None
    counters: dict[str, Any] = field(default_factory=dict)
    decisions: list[list[float]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Total campaign time on the simulated clock."""
        return self.finished - self.started

    # -- construction ------------------------------------------------------

    @classmethod
    def from_result(cls, result: CampaignResult, *, tenant: str = "",
                    sim_seconds: Optional[float] = None,
                    target: Optional[float] = None) -> "CampaignReport":
        """Derive every reported quantity from one campaign result.

        ``target`` defaults to the spec's own target; ``sim_seconds``
        defaults to the campaign's finish time (pass ``sim.now`` when the
        clock kept running after the campaign ended).
        """
        spec = result.spec
        if target is None:
            target = spec.target
        ttt: Optional[float] = None
        ett: Optional[int] = None
        decisions: list[list[float]] = []
        n_valid = 0
        for i, rec in enumerate(result.records, start=1):
            usable = rec.valid and rec.objective is not None
            if usable:
                n_valid += 1
                if target is not None and ttt is None \
                        and rec.objective >= target:
                    ttt = rec.finished - result.started
                    ett = i
            decisions.append([
                float(rec.index),
                float(rec.objective) if usable else float("nan"),
                float(rec.started), float(rec.finished),
                1.0 if rec.valid else 0.0])
        n = len(result.records)
        best = result.best_value
        return cls(
            campaign=spec.name, objective_key=spec.objective_key,
            tenant=tenant, n_experiments=n, n_valid=n_valid,
            correctness=(n_valid / n) if n else 1.0,
            best_value=float(best) if best is not None else None,
            best_params=(dict(result.best_params)
                         if result.best_params is not None else None),
            stop_reason=result.stop_reason,
            started=float(result.started), finished=float(result.finished),
            sim_seconds=(float(sim_seconds) if sim_seconds is not None
                         else float(result.finished)),
            target=target, time_to_target=ttt, experiments_to_target=ett,
            counters=dict(result.counters), decisions=decisions)

    def with_tenant(self, tenant: str) -> "CampaignReport":
        """Copy of this report attributed to ``tenant``.

        Equal, field for field, to ``dataclasses.replace(self,
        tenant=tenant)``, which shares ``counters``, ``decisions`` and
        ``best_params`` the same way, but copies ``__dict__`` instead of
        re-running the generated 17-field ``__init__`` (the service cuts
        one copy per completed campaign).
        """
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__)
        copy.__dict__["tenant"] = tenant
        return copy

    # -- views -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Stable plain-data form (wire/JSON/decision-hash shape).

        The ``decisions`` rows keep decision hashes sensitive to the full
        experiment sequence, not just the winner.
        """
        return {
            "schema": REPORT_SCHEMA,
            "campaign": self.campaign,
            "tenant": self.tenant,
            "objective_key": self.objective_key,
            "n_experiments": self.n_experiments,
            "n_valid": self.n_valid,
            "correctness": self.correctness,
            "best_value": self.best_value,
            "stop_reason": self.stop_reason,
            "started": self.started,
            "finished": self.finished,
            "duration_s": self.duration,
            "sim_seconds": self.sim_seconds,
            "target": self.target,
            "time_to_target": self.time_to_target,
            "experiments_to_target": self.experiments_to_target,
            "counters": self.counters,
            "decisions": self.decisions,
        }

    def summary(self) -> dict[str, Any]:
        """Compact printable dict: rounded headline numbers plus the
        component counters."""
        return {
            "campaign": self.campaign,
            "experiments": self.n_experiments,
            "valid": self.n_valid,
            "correctness": round(self.correctness, 4),
            "best": (round(self.best_value, 4)
                     if self.best_value is not None else None),
            "duration_s": round(self.duration, 1),
            "stop_reason": self.stop_reason,
            **self.counters,
        }

    # -- arm-vs-arm comparisons -------------------------------------------

    def speedup_vs(self, baseline: "CampaignReport | float | None",
                   ) -> Optional[float]:
        """Baseline time-to-target over ours — the M8-style "3x" metric.

        ``baseline`` is another report or a raw time in sim-seconds;
        ``None`` on either side (never reached the target) gives ``None``.
        """
        base = (baseline.time_to_target
                if isinstance(baseline, CampaignReport) else baseline)
        return speedup(base, self.time_to_target)

    def reduction_vs(self, baseline: "CampaignReport | float | None",
                     ) -> Optional[float]:
        """1 - ours/baseline in experiments-to-target — the M9 ">30%
        fewer" metric; ``baseline`` is a report or a raw count."""
        base = (baseline.experiments_to_target
                if isinstance(baseline, CampaignReport) else baseline)
        return reduction_fraction(base, self.experiments_to_target)
