"""Arm-comparison arithmetic: the M8 speedup and the M9 reduction.

Campaign-level comparisons call these on two reports'
:attr:`~repro.core.report.CampaignReport.time_to_target` (speedup) or
:attr:`~repro.core.report.CampaignReport.experiments_to_target`
(reduction).

All comparisons are ``None``-propagating: a campaign that never reached
its target yields ``None`` (reported as "DNF") rather than a fabricated
ratio.
"""

from __future__ import annotations

from typing import Optional


def speedup(baseline_time: Optional[float],
            improved_time: Optional[float]) -> Optional[float]:
    """baseline / improved, None-propagating.

    ``None`` in either slot (target never reached) yields ``None`` —
    benchmarks report "DNF" rather than a fabricated ratio.
    """
    if baseline_time is None or improved_time is None:
        return None
    if improved_time <= 0:
        return float("inf")
    return baseline_time / improved_time


def reduction_fraction(baseline: Optional[float],
                       improved: Optional[float]) -> Optional[float]:
    """1 - improved/baseline: the M9-style ">30% fewer" metric."""
    if baseline is None or improved is None or baseline <= 0:
        return None
    return 1.0 - improved / baseline
