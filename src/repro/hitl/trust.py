"""Adaptive trust calibration between humans and autonomous systems.

Follows the human-autonomy-teaming literature the paper cites (ref [9]):
trust rises slowly with observed successes and falls sharply on observed
failures (negativity asymmetry).  *Calibration* is the gap between trust
and the system's actual reliability — both over-trust (complacency) and
under-trust (disuse) are failure modes that training (E13) should shrink.
"""

from __future__ import annotations

from collections import deque


class TrustModel:
    """One human's evolving trust in one autonomous system.

    Parameters
    ----------
    initial:
        Starting trust in [0, 1].
    gain_success / loss_failure:
        Update step sizes; failures move trust several times faster than
        successes (empirical asymmetry).
    """

    #: Window for the running estimate of actual system reliability.
    RELIABILITY_WINDOW = 50

    def __init__(self, initial: float = 0.5, gain_success: float = 0.02,
                 loss_failure: float = 0.10) -> None:
        if not 0.0 <= initial <= 1.0:
            raise ValueError("initial trust must be in [0, 1]")
        self.trust = initial
        self.gain_success = gain_success
        self.loss_failure = loss_failure
        self._outcomes: deque = deque(maxlen=self.RELIABILITY_WINDOW)
        self.history: list[float] = [initial]

    def observe(self, success: bool) -> float:
        """Update trust from one observed system outcome."""
        self._outcomes.append(bool(success))
        if success:
            self.trust = min(1.0, self.trust + self.gain_success
                             * (1.0 - self.trust))
        else:
            self.trust = max(0.0, self.trust - self.loss_failure
                             * self.trust)
        self.history.append(self.trust)
        return self.trust

    @property
    def observed_reliability(self) -> float:
        """Running estimate of the system's actual success rate."""
        if not self._outcomes:
            return 0.5
        return sum(self._outcomes) / len(self._outcomes)

    @property
    def calibration_error(self) -> float:
        """|trust - reliability|: 0 is perfectly calibrated."""
        return abs(self.trust - self.observed_reliability)

    @property
    def over_trusting(self) -> bool:
        """Complacency: trust substantially above observed reliability."""
        return self.trust - self.observed_reliability > 0.15

    @property
    def under_trusting(self) -> bool:
        """Disuse: trust substantially below observed reliability."""
        return self.observed_reliability - self.trust > 0.15

    def vigilance(self) -> float:
        """Probability of scrutinizing any given agent action.

        Decreases with trust (complacency effect): a fully trusting
        operator reviews ~20% of actions, a distrustful one ~95%.
        """
        return 0.95 - 0.75 * self.trust
