"""Generic 32 nm-class standard-cell library model.

The paper synthesises its encoders with Synopsys Design Compiler and the
Synopsys 32 nm generic libraries.  That flow is proprietary, so this module
substitutes a compact cell library whose per-cell area, leakage, switching
energy and delay are calibrated to published 32 nm-generic-library
characteristics (saed32-class cells).  The goal is faithful *relative*
accounting — gate counts, datapath widths and logic depth drive every
Table I trend — with absolute numbers in the right order of magnitude.

Every combinational cell carries a boolean evaluation function so netlists
built from these cells are bit-true simulatable.  Each cell additionally
carries a *bitwise word form* of the same function (``word_function``):
the identical boolean operation applied lane-wise across every bit of a
machine word, which is what lets :mod:`repro.hw.bitsim` evaluate one gate
for W packed input vectors at once.  Word functions receive an explicit
all-ones ``mask`` as their first argument so complement is expressed as
``x ^ mask`` — correct for arbitrary-precision Python ints, where
``~x`` would go negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

#: femtojoule in joules.
FEMTOJOULE = 1e-15

#: nanowatt in watts.
NANOWATT = 1e-9

#: picosecond in seconds.
PICOSECOND = 1e-12


@dataclass(frozen=True)
class Cell:
    """One standard cell.

    Parameters
    ----------
    name:
        Library name.
    n_inputs:
        Number of input pins.
    area_um2:
        Placed cell area in µm².
    leakage_nw:
        Static leakage power in nanowatts (32 nm generic libraries are
        notoriously leaky; values reflect that).
    toggle_energy_fj:
        Internal + output switching energy per output toggle, femtojoules.
    delay_ps:
        Pin-to-output propagation delay in picoseconds (nominal load).
    function:
        Boolean evaluation, mapping an input bit tuple to the output bit.
    word_function:
        Bit-parallel form of ``function``: ``word_function(mask, *words)``
        applies the boolean operation independently to every bit lane of
        the input words, where ``mask`` is the all-ones word of the active
        lane width (complement must be written ``x ^ mask``).  ``None``
        means no hand-written form exists; :mod:`repro.hw.bitsim` then
        synthesises one from the scalar truth table.
    """

    name: str
    n_inputs: int
    area_um2: float
    leakage_nw: float
    toggle_energy_fj: float
    delay_ps: float
    function: Callable[..., int]
    word_function: Optional[Callable[..., int]] = None

    def evaluate(self, *inputs: int) -> int:
        """Evaluate the cell on bit inputs (each 0 or 1)."""
        if len(inputs) != self.n_inputs:
            raise ValueError(
                f"{self.name} expects {self.n_inputs} inputs, got {len(inputs)}")
        return self.function(*inputs)

    def evaluate_words(self, mask: int, *words: int) -> int:
        """Evaluate the cell lane-wise on packed words.

        ``mask`` selects the active lanes (all-ones over the packed
        width); each bit position of the result is ``function`` applied
        to the corresponding bit of every input word.
        """
        if len(words) != self.n_inputs:
            raise ValueError(
                f"{self.name} expects {self.n_inputs} inputs, got {len(words)}")
        if self.word_function is not None:
            return self.word_function(mask, *words)
        from .bitsim import word_function_for

        return word_function_for(self)(mask, *words)

    @property
    def leakage_w(self) -> float:
        """Leakage in watts."""
        return self.leakage_nw * NANOWATT

    @property
    def toggle_energy_j(self) -> float:
        """Switching energy per output toggle in joules."""
        return self.toggle_energy_fj * FEMTOJOULE

    @property
    def delay_s(self) -> float:
        """Propagation delay in seconds."""
        return self.delay_ps * PICOSECOND


def _mux2(d0: int, d1: int, select: int) -> int:
    return d1 if select else d0


def _mux2_words(mask: int, d0: int, d1: int, select: int) -> int:
    return (d1 & select) | (d0 & (select ^ mask))


#: The library: saed32-class generic cells.  Each scalar lambda is paired
#: with its lane-wise word form (mask-first; complement = ``x ^ mask``).
LIBRARY: Dict[str, Cell] = {
    cell.name: cell
    for cell in (
        Cell("INV", 1, 0.51, 9.0, 0.45, 11.0, lambda a: a ^ 1,
             lambda m, a: a ^ m),
        Cell("BUF", 1, 0.76, 12.0, 0.60, 18.0, lambda a: a,
             lambda m, a: a),
        Cell("NAND2", 2, 0.76, 12.0, 0.60, 14.0, lambda a, b: (a & b) ^ 1,
             lambda m, a, b: (a & b) ^ m),
        Cell("NOR2", 2, 0.76, 12.0, 0.60, 16.0, lambda a, b: (a | b) ^ 1,
             lambda m, a, b: (a | b) ^ m),
        Cell("AND2", 2, 1.02, 16.0, 0.80, 20.0, lambda a, b: a & b,
             lambda m, a, b: a & b),
        Cell("OR2", 2, 1.02, 16.0, 0.80, 20.0, lambda a, b: a | b,
             lambda m, a, b: a | b),
        Cell("XOR2", 2, 1.52, 26.0, 1.40, 24.0, lambda a, b: a ^ b,
             lambda m, a, b: a ^ b),
        Cell("XNOR2", 2, 1.52, 26.0, 1.40, 24.0, lambda a, b: (a ^ b) ^ 1,
             lambda m, a, b: (a ^ b) ^ m),
        Cell("MUX2", 3, 1.78, 28.0, 1.30, 22.0, _mux2, _mux2_words),
        Cell("AND3", 3, 1.27, 20.0, 1.00, 26.0, lambda a, b, c: a & b & c,
             lambda m, a, b, c: a & b & c),
        Cell("OR3", 3, 1.27, 20.0, 1.00, 26.0, lambda a, b, c: a | b | c,
             lambda m, a, b, c: a | b | c),
        Cell("NOR3", 3, 1.02, 16.0, 0.80, 22.0,
             lambda a, b, c: (a | b | c) ^ 1,
             lambda m, a, b, c: (a | b | c) ^ m),
        Cell("AOI21", 3, 1.02, 16.0, 0.85, 18.0,
             lambda a, b, c: ((a & b) | c) ^ 1,
             lambda m, a, b, c: ((a & b) | c) ^ m),
        Cell("OAI21", 3, 1.02, 16.0, 0.85, 18.0,
             lambda a, b, c: ((a | b) & c) ^ 1,
             lambda m, a, b, c: ((a | b) & c) ^ m),
    )
}

#: Sequential cell used for pipeline-register accounting (not simulated in
#: the combinational netlist evaluator).
DFF = Cell("DFF", 1, 4.57, 75.0, 2.60, 90.0, lambda d: d, lambda m, d: d)

#: Effective flip-flop timing overhead (clk-to-Q + setup) in picoseconds,
#: the floor on any pipelined cycle time.
REGISTER_OVERHEAD_PS = 95.0


def get_cell(name: str) -> Cell:
    """Look up a combinational cell by name.

    >>> get_cell("NAND2").n_inputs
    2
    """
    try:
        return LIBRARY[name]
    except KeyError:
        known = ", ".join(sorted(LIBRARY))
        raise KeyError(f"unknown cell {name!r}; known cells: {known}") from None
