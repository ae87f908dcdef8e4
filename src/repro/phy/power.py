"""CACTI-IO-derived interface energy model (paper §IV-A, Eqs. 1–4).

Following the paper, all lane load capacitances are unified into a single
``c_load`` per lane and the CACTI-IO power equations are reformulated as
energy **per activity event**::

    E_zero       = VDDQ² / (R_pu + R_pd) · (1 / f)          (Eq. 1)
    V_swing      = VDDQ · R_pu / (R_pu + R_pd)              (Eq. 3)
    E_transition = ½ · VDDQ · V_swing · c_load              (Eq. 2)
    E_burst      = n_zeros·E_zero + n_transitions·E_trans   (Eq. 4)

so a burst's interface energy follows directly from the (zeros,
transitions) tallies produced by any :class:`~repro.core.schemes.DbiScheme`.
The model also exposes the equivalent abstract
:class:`~repro.core.costs.CostModel` (alpha = E_transition,
beta = E_zero − E_one), which is how the physical sweeps of Figs. 7/8
drive the optimal encoder.

Since PR 5 the model constructs from **any**
:class:`~repro.phy.interface.Interface` — POD, SSTL or LVSTL — not just
POD.  The POD behaviour (and every float it produces) is unchanged: POD's
``energy_per_one`` is exactly ``0.0``, so the one-level term vanishes and
the differential DC weight collapses to ``E_zero``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..core.costs import CostModel
from ..core.schemes import EncodedBurst
from .interface import Interface
from .pod import PodInterface, pod135

#: One gigabit per second, in hertz of bit time.
GBPS = 1e9

#: One picofarad, in farads.
PICOFARAD = 1e-12

#: One picojoule, in joules.
PICOJOULE = 1e-12


@dataclass(frozen=True)
class InterfaceEnergyModel:
    """Energy-per-event model for one lane group at an operating point.

    Parameters
    ----------
    interface:
        Electrical parameters (voltage, termination network) — any
        :class:`~repro.phy.interface.Interface` implementation (POD,
        SSTL, LVSTL, or a custom model).
    data_rate_hz:
        Per-pin data rate in bits/second (bit time = 1/data_rate).
    c_load_farads:
        Unified lane load capacitance (driver + receiver pads + trace).

    >>> model = InterfaceEnergyModel(pod135(), 12 * GBPS, 3 * PICOFARAD)
    >>> round(model.energy_per_zero / PICOJOULE, 2)
    1.52
    >>> round(model.energy_per_transition / PICOJOULE, 2)
    1.64
    """

    interface: Interface
    data_rate_hz: float
    c_load_farads: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.data_rate_hz) and self.data_rate_hz > 0):
            raise ValueError("data rate must be finite and positive, "
                             f"got {self.data_rate_hz}")
        if not (math.isfinite(self.c_load_farads) and self.c_load_farads > 0):
            raise ValueError("c_load must be finite and positive, "
                             f"got {self.c_load_farads}")

    # -- per-event energies (paper Eqs. 1-3) -------------------------------
    @property
    def energy_per_zero(self) -> float:
        """E_zero in joules (Eq. 1)."""
        return self.interface.energy_per_zero(self.data_rate_hz)

    @property
    def energy_per_one(self) -> float:
        """Energy of holding a one for one bit time (0 for POD)."""
        return self.interface.energy_per_one(self.data_rate_hz)

    @property
    def energy_per_transition(self) -> float:
        """E_transition in joules (Eq. 2)."""
        return self.interface.energy_per_transition(self.c_load_farads)

    @property
    def v_swing(self) -> float:
        """Signal swing in volts (Eq. 3)."""
        return self.interface.v_swing

    # -- burst-level energy (paper Eq. 4) -----------------------------------
    def burst_energy(self, n_transitions: int, n_zeros: int,
                     lane_beats: int = 0) -> float:
        """E_burst in joules for tallied activity (Eq. 4).

        ``lane_beats`` is the total number of lane-beats the tallies cover
        (9 × byte-beats for DBI'd byte lanes); when given, the one-level
        term ``(lane_beats − n_zeros) · E_one`` is added — zero for POD
        interfaces (E_one = 0), required for exact SSTL/LVSTL accounting.
        The two-argument form is unchanged from the paper's Eq. 4.
        """
        if n_transitions < 0 or n_zeros < 0:
            raise ValueError("activity counts must be non-negative")
        energy = (n_zeros * self.energy_per_zero
                  + n_transitions * self.energy_per_transition)
        if lane_beats:
            if lane_beats < n_zeros:
                raise ValueError(
                    f"lane_beats={lane_beats} is fewer than n_zeros={n_zeros}")
            one_term = (lane_beats - n_zeros) * self.energy_per_one
            if one_term:
                energy += one_term
        return energy

    def encoded_burst_energy(self, encoded: EncodedBurst) -> float:
        """E_burst for a concrete encoded burst."""
        n_transitions, n_zeros = encoded.activity()
        return self.burst_energy(n_transitions, n_zeros)

    # -- bridges to the abstract cost world ---------------------------------
    def cost_model(self) -> CostModel:
        """The equivalent (alpha, beta) = (E_transition, E_zero − E_one)
        weights.

        Feeding this to :class:`~repro.core.encoder.DbiOptimal` makes the
        trellis search minimise true joules at this operating point.  The
        DC weight is *differential*: a burst of fixed length drives every
        lane-beat at one level or the other, so only the excess cost of a
        zero over a one steers the encoding.  On POD (E_one = 0) this is
        exactly the paper's ``beta = E_zero``; on SSTL it is 0 (zeros buy
        nothing, only transitions matter); on LVSTL — where zeros are
        *cheaper* — it clamps to 0, because this library's zero-counting
        convention cannot express a zero-maximising objective (see
        ROADMAP.md: polarity-aware encoding).
        """
        return CostModel.from_energies(
            self.energy_per_transition,
            max(self.energy_per_zero - self.energy_per_one, 0.0))

    @property
    def ac_fraction(self) -> float:
        """Where this operating point sits on Figs. 3/4's x-axis."""
        return self.cost_model().ac_fraction

    def with_data_rate(self, data_rate_hz: float) -> "InterfaceEnergyModel":
        """Same interface and load at a different data rate."""
        return InterfaceEnergyModel(self.interface, data_rate_hz,
                                    self.c_load_farads)

    def with_load(self, c_load_farads: float) -> "InterfaceEnergyModel":
        """Same interface and data rate with a different load."""
        return InterfaceEnergyModel(self.interface, self.data_rate_hz,
                                    c_load_farads)


def crossover_data_rate(interface: PodInterface, c_load_farads: float,
                        ac_fraction: float = 0.5) -> float:
    """Data rate at which the AC-cost fraction reaches *ac_fraction*.

    Solves ``E_trans / (E_trans + E_zero(f)) = ac_fraction`` for ``f``.
    With the default 0.5 this is the rate where one transition costs the
    same as one zero — the sweet spot of DBI OPT (Fixed).

    >>> rate = crossover_data_rate(pod135(), 3 * PICOFARAD)
    >>> 10e9 < rate < 15e9
    True
    """
    if not 0.0 < ac_fraction < 1.0:
        raise ValueError("ac_fraction must be strictly between 0 and 1")
    e_transition = interface.energy_per_transition(c_load_farads)
    # E_zero(f) = zero_power / f; solve e_t/(e_t + P0/f) = a.
    zero_power = interface.zero_power
    return ac_fraction * zero_power / ((1.0 - ac_fraction) * e_transition)
