"""Cost models mapping lane activity to abstract energy.

The paper expresses the per-burst cost of an encoding as::

    cost = alpha * (number of lane transitions) + beta * (number of zeros)

``alpha`` captures the dynamic (AC) energy of a lane toggle and ``beta`` the
DC termination energy of driving a zero for one beat.  Only the ratio
``alpha/beta`` matters for which encoding is optimal (uniform scaling of
edge weights never changes a shortest path), which the paper exploits to
build fixed- and small-integer-coefficient hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .bitops import transitions, zeros_in_word


@dataclass(frozen=True)
class CostModel:
    """Weights for the two energy contributors of a POD interface.

    Parameters
    ----------
    alpha:
        Cost of one lane transition (AC component).
    beta:
        Cost of transmitting one zero for one beat (DC component).

    >>> CostModel.dc_only().word_cost(0x1FF, 0x0FF)
    1.0
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(value) and value >= 0
                   for value in (self.alpha, self.beta)):
            raise ValueError(
                "cost coefficients must be finite and non-negative, got "
                f"alpha={self.alpha}, beta={self.beta}")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("at least one of alpha/beta must be positive")

    # -- constructors ----------------------------------------------------
    @classmethod
    def fixed(cls) -> "CostModel":
        """The paper's DBI OPT (Fixed) setting: alpha = beta = 1."""
        return cls(1.0, 1.0)

    @classmethod
    def dc_only(cls) -> "CostModel":
        """Count only zeros — makes the optimum coincide with DBI DC."""
        return cls(0.0, 1.0)

    @classmethod
    def ac_only(cls) -> "CostModel":
        """Count only transitions — makes the optimum coincide with DBI AC."""
        return cls(1.0, 0.0)

    @classmethod
    def from_ac_fraction(cls, ac_cost: float) -> "CostModel":
        """The sweep parameterisation of Figs. 3/4: alpha=ac, beta=1-ac."""
        if not 0.0 <= ac_cost <= 1.0:
            raise ValueError(f"ac_cost must be within [0, 1], got {ac_cost}")
        return cls(ac_cost, 1.0 - ac_cost)

    @classmethod
    def from_energies(cls, energy_per_transition: float, energy_per_zero: float) -> "CostModel":
        """Physical coefficients straight from a :mod:`repro.phy.power` model."""
        return cls(energy_per_transition, energy_per_zero)

    # -- derived quantities ----------------------------------------------
    @property
    def ac_fraction(self) -> float:
        """alpha / (alpha + beta) — the x-axis of the paper's Figs. 3/4."""
        return self.alpha / (self.alpha + self.beta)

    def word_cost(self, prev_word: int, word: int) -> float:
        """Cost of transmitting *word* right after *prev_word*.

        This is exactly the weight of one trellis edge (paper Fig. 2).
        """
        return self.alpha * transitions(prev_word, word) + self.beta * zeros_in_word(word)

    def activity_cost(self, n_transitions: int, n_zeros: int) -> float:
        """Cost of an already-tallied activity pair."""
        if n_transitions < 0 or n_zeros < 0:
            raise ValueError("activity counts must be non-negative")
        return self.alpha * n_transitions + self.beta * n_zeros

    def scaled(self, factor: float) -> "CostModel":
        """Uniformly scale both coefficients (optimal encodings unchanged)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return CostModel(self.alpha * factor, self.beta * factor)

    def quantized(self, bits: int) -> "QuantizedCostModel":
        """Round to *bits*-bit integer coefficients (the paper's HW variant)."""
        return QuantizedCostModel.from_cost_model(self, bits)


@dataclass(frozen=True)
class QuantizedCostModel(CostModel):
    """Integer-coefficient cost model matching the configurable hardware.

    The paper's configurable encoder stores alpha and beta as 3-bit
    integers.  Quantisation preserves the coefficient *ratio* as well as
    possible; the class records the quantisation error so the ablation
    bench can report it.
    """

    bits: int = 3
    target_ac_fraction: float = -1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        limit = (1 << self.bits) - 1
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if value != int(value):
                raise ValueError(f"{name} must be an integer, got {value}")
            if not 0 <= value <= limit:
                raise ValueError(f"{name}={value} does not fit in {self.bits} bits")
        if self.target_ac_fraction < 0:
            object.__setattr__(self, "target_ac_fraction", self.ac_fraction)

    @classmethod
    def from_cost_model(cls, model: CostModel, bits: int = 3) -> "QuantizedCostModel":
        """Best integer approximation of *model* with *bits*-bit coefficients.

        Scans all representable (alpha, beta) pairs and returns the one whose
        AC fraction is closest to the target — the scale-invariance of the
        shortest path means only the ratio matters.  Ties prefer smaller
        coefficients (cheaper hardware datapath).
        """
        if bits < 1:
            raise ValueError("bits must be >= 1")
        limit = (1 << bits) - 1
        target = model.ac_fraction
        best_key: Tuple[float, int, int] = (float("inf"), 0, 0)
        best_pair = (1, 1)
        for alpha in range(limit + 1):
            for beta in range(limit + 1):
                if alpha == 0 and beta == 0:
                    continue
                fraction = alpha / (alpha + beta)
                key = (abs(fraction - target), alpha + beta, alpha)
                if key < best_key:
                    best_key = key
                    best_pair = (alpha, beta)
        alpha, beta = best_pair
        return cls(float(alpha), float(beta), bits=bits, target_ac_fraction=target)

    @property
    def quantization_error(self) -> float:
        """Absolute error of the achieved AC fraction versus the target."""
        return abs(self.ac_fraction - self.target_ac_fraction)
