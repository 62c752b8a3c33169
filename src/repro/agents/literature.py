"""Automated literature review as a campaign knowledge source (§3.1).

The paper flags that "the automation of literature review remains a
bottleneck, with frameworks that exhibit significant performance drops
during the literature review phases" [8].  This module models why: the
published record is a *biased, noisy* sample of reality.

:class:`SyntheticLiterature` generates a corpus of prior "papers" about a
landscape with two classic pathologies — **publication bias** (only
results above a quality bar get published) and **optimism bias**
(reported values exceed what replication yields).  The
:class:`LiteratureAgent` reviews the corpus and seeds an optimizer with
reported results; whether that helps or misleads depends on the corpus's
honesty — exactly the trade the E-tests quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.labsci.landscapes import Landscape
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class PublishedResult:
    """One literature claim: a recipe and its reported outcome."""

    paper_id: str
    params: tuple[tuple[str, Any], ...]
    reported_value: float
    true_value: float  # hidden ground truth, for accounting only

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    @property
    def inflation(self) -> float:
        return self.reported_value - self.true_value


class SyntheticLiterature:
    """A biased published record over one landscape.

    Parameters
    ----------
    landscape:
        The underlying truth the historical groups were probing.
    rng:
        Corpus generation stream.
    n_papers:
        Corpus size (after publication filtering).
    publication_quantile:
        Only attempts above this quantile of attempted outcomes get
        published (the file-drawer effect).
    optimism_bias:
        Mean fractional inflation of reported over replicable values.
    noise:
        Reporting noise standard deviation (fractional).
    """

    def __init__(self, landscape: "Landscape", rng: np.random.Generator, *,
                 n_papers: int = 40, publication_quantile: float = 0.5,
                 optimism_bias: float = 0.0, noise: float = 0.05) -> None:
        self.landscape = landscape
        self.optimism_bias = optimism_bias
        attempts = []
        for _ in range(max(n_papers * 4, 40)):
            params = landscape.space.sample(rng)
            attempts.append((params, landscape.objective_value(params)))
        attempts.sort(key=lambda t: t[1])
        cut = int(len(attempts) * publication_quantile)
        published = attempts[cut:][-n_papers:]
        self.corpus: list[PublishedResult] = []
        for i, (params, truth) in enumerate(published):
            reported = truth * (1.0 + optimism_bias
                                + float(rng.normal(0.0, noise)))
            self.corpus.append(PublishedResult(
                paper_id=f"doi:10.0/{i:04d}",
                params=tuple(sorted(params.items())),
                reported_value=float(reported), true_value=float(truth)))

    def search(self, top_k: int = 10,
               chemistry: Optional[tuple[str, ...]] = None
               ) -> list[PublishedResult]:
        """The best-reported prior results (optionally one chemistry)."""
        hits = self.corpus
        if chemistry is not None:
            hits = [p for p in hits
                    if self.landscape.space.discrete_key(
                        p.params_dict()) == chemistry]
        return sorted(hits, key=lambda p: -p.reported_value)[:top_k]

    def mean_inflation(self) -> float:
        if not self.corpus:
            return 0.0
        return float(np.mean([p.inflation for p in self.corpus]))


class LiteratureAgent:
    """Reviews the literature and seeds an optimizer with prior claims.

    Parameters
    ----------
    sim:
        Kernel (reviewing costs time).
    literature:
        The corpus to review.
    review_time_per_paper_s:
        Reading/extraction cost per paper.
    discount:
        Multiplier applied to reported values before absorption — a
        skeptical reviewer discounts the record (the knob that controls
        how badly optimism bias propagates).
    """

    def __init__(self, sim: "Simulator", literature: SyntheticLiterature, *,
                 review_time_per_paper_s: float = 300.0,
                 discount: float = 1.0) -> None:
        self.sim = sim
        self.literature = literature
        self.review_time_per_paper_s = review_time_per_paper_s
        self.discount = discount
        self.stats = {"papers_reviewed": 0, "claims_absorbed": 0}

    def review_into(self, optimizer, top_k: int = 10):
        """Generator: read the top papers and seed the optimizer.

        Returns the list of absorbed :class:`PublishedResult`.  Claims
        whose recipes fall outside the optimizer's (possibly
        safety-clipped) space are skipped — old papers used conditions a
        modern SDL will not run.
        """
        hits = self.literature.search(top_k=top_k)
        yield self.sim.timeout(self.review_time_per_paper_s * len(hits))
        absorbed = []
        for paper in hits:
            self.stats["papers_reviewed"] += 1
            params = paper.params_dict()
            if not optimizer.space.contains(params):
                continue
            optimizer.absorb(params, paper.reported_value * self.discount)
            absorbed.append(paper)
            self.stats["claims_absorbed"] += 1
        return absorbed
