"""Campaign specifications and results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class CampaignSpec:
    """What a discovery campaign is trying to do.

    Attributes
    ----------
    name:
        Campaign identifier.
    objective_key:
        The measured quantity being maximized (e.g. ``"plqy"``).
    target:
        Optional objective value that ends the campaign on attainment.
    max_experiments:
        Hard budget of executed experiments.
    patience:
        Optional early stop after this many non-improving experiments.
    """

    name: str
    objective_key: str
    target: Optional[float] = None
    max_experiments: int = 50
    patience: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_experiments < 1:
            raise ValueError("max_experiments must be >= 1")


@dataclass
class ExperimentRecord:
    """One row of the campaign log."""

    index: int
    params: dict[str, Any]
    valid: bool
    objective: Optional[float]
    source: str
    started: float
    finished: float
    verified: bool = False
    repaired: bool = False
    failure: str = ""
    site: str = ""

    @property
    def duration(self) -> float:
        return self.finished - self.started


@dataclass
class CampaignResult:
    """Everything a campaign produced, plus derived metrics."""

    spec: CampaignSpec
    records: list[ExperimentRecord] = field(default_factory=list)
    best_value: Optional[float] = None
    best_params: Optional[dict[str, Any]] = None
    started: float = 0.0
    finished: float = 0.0
    stop_reason: str = ""
    counters: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Total campaign wall time on the simulated clock."""
        return self.finished - self.started

    @property
    def n_experiments(self) -> int:
        return len(self.records)

    @property
    def n_valid(self) -> int:
        return sum(1 for r in self.records if r.valid)

    @property
    def correctness(self) -> float:
        """Fraction of executed experiments that produced usable data.

        The E2 metric: a hallucinated recipe that ran and produced
        garbage counts against correctness.
        """
        if not self.records:
            return 1.0
        return self.n_valid / len(self.records)

    def best_trajectory(self) -> list[float]:
        """Running best objective over executed experiments."""
        out: list[float] = []
        cur = float("-inf")
        for r in self.records:
            if r.valid and r.objective is not None:
                cur = max(cur, r.objective)
            out.append(cur)
        return out

    def report(self, *, target: Optional[float] = None):
        """This result as a :class:`~repro.core.report.CampaignReport` —
        the canonical plain-data form every entry point now returns."""
        from repro.core.report import CampaignReport
        return CampaignReport.from_result(self, target=target)
