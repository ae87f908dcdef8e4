"""Monte-Carlo statistics for the figure sweeps.

The paper reports averages over 10 000 random bursts without confidence
intervals.  This module adds them: per-scheme mean cost with a normal-
approximation CI, and a sample-size check that the reported effects
(e.g. the ~6.7 % OPT gain) are many standard errors wide at the paper's
sample count — i.e. that 10 000 bursts is comfortably enough.

Normal quantiles come from the standard library's
:class:`statistics.NormalDist`, so the module needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Sequence, Tuple

from ..core.bitops import ALL_ONES_WORD
from ..core.burst import Burst
from ..core.costs import CostModel
from ..core.schemes import DbiScheme


def _z_value(confidence: float) -> float:
    """Two-sided normal quantile: 1.96 at ``confidence=0.95``."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class MeanEstimate:
    """Sample mean with a normal-approximation confidence interval."""

    mean: float
    std_error: float
    confidence: float
    n_samples: int

    @property
    def half_width(self) -> float:
        """Half the CI width."""
        return _z_value(self.confidence) * self.std_error

    @property
    def interval(self) -> Tuple[float, float]:
        """(low, high) confidence bounds."""
        return (self.mean - self.half_width, self.mean + self.half_width)

    def separated_from(self, other: "MeanEstimate") -> bool:
        """True iff the two confidence intervals do not overlap."""
        low_a, high_a = self.interval
        low_b, high_b = other.interval
        return high_a < low_b or high_b < low_a


def per_burst_costs(scheme: DbiScheme, bursts: Sequence[Burst],
                    model: CostModel) -> List[float]:
    """Cost of every burst individually (the Monte-Carlo sample)."""
    return [scheme.encode(burst, prev_word=ALL_ONES_WORD).cost(model)
            for burst in bursts]


def estimate_mean(samples: Sequence[float],
                  confidence: float = 0.95) -> MeanEstimate:
    """Mean and CI of a sample.

    >>> est = estimate_mean([1.0, 2.0, 3.0, 4.0])
    >>> round(est.mean, 2)
    2.5
    """
    n = len(samples)
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    mean = sum(samples) / n
    variance = sum((value - mean) ** 2 for value in samples) / (n - 1)
    return MeanEstimate(mean=mean, std_error=math.sqrt(variance / n),
                        confidence=confidence, n_samples=n)


def scheme_cost_estimate(scheme: DbiScheme, bursts: Sequence[Burst],
                         model: CostModel,
                         confidence: float = 0.95) -> MeanEstimate:
    """Mean cost per burst of *scheme* with a confidence interval."""
    return estimate_mean(per_burst_costs(scheme, bursts, model), confidence)


def samples_for_precision(samples: Sequence[float], target_half_width: float,
                          confidence: float = 0.95) -> int:
    """Sample count needed for a CI half-width of *target_half_width*.

    Uses the pilot sample's variance; answers "was the paper's 10 000
    enough?" quantitatively.
    """
    if target_half_width <= 0:
        raise ValueError("target_half_width must be positive")
    pilot = estimate_mean(samples, confidence)
    z = _z_value(confidence)
    std = pilot.std_error * math.sqrt(pilot.n_samples)
    return max(2, math.ceil((z * std / target_half_width) ** 2))
