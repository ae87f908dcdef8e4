#!/usr/bin/env python
"""DDR4 write-path controller study.

Streams cache-line write transactions through the per-byte reference
write path (:class:`~repro.ctrl.controller.MemoryController` with
``backend="reference"``) on a DDR4 (POD12) channel and compares encoder
policies at the controller level: window-1 greedy, the paper's per-burst
optimum, and deep cross-burst lookahead.

Run with::

    python examples/ddr4_write_controller.py
"""

import numpy as np

from repro.core.costs import CostModel
from repro.ctrl import CACHE_LINE_BYTES, MemoryController, WriteTransaction
from repro.phy import GBPS, PICOFARAD, ddr4
from repro.sim.report import markdown_table
from repro.workloads.traces import zero_run_trace

N_LINES = 256
WINDOWS = (1, 8, 64)


def transaction_stream() -> list:
    """A mix of random and sparse cache lines, like a real writeback mix."""
    rng = np.random.default_rng(20)
    sparse = zero_run_trace(N_LINES * CACHE_LINE_BYTES // 2, seed=4)
    lines = []
    for index in range(N_LINES):
        if index % 2:
            data = bytes(rng.integers(0, 256, size=CACHE_LINE_BYTES,
                                      dtype=np.uint8))
        else:
            start = (index // 2) * CACHE_LINE_BYTES
            data = sparse[start:start + CACHE_LINE_BYTES]
        lines.append(WriteTransaction(index * CACHE_LINE_BYTES, data))
    return lines


def main() -> None:
    profile = ddr4()
    energy_model = profile.energy_model(data_rate_hz=3.2 * GBPS,
                                        c_load_farads=3 * PICOFARAD)
    cost_model = energy_model.cost_model()
    print(f"channel: {profile.name} ({profile.interface.name}), "
          f"{profile.dq_width} DQ, {energy_model.data_rate_hz / 1e9:.1f} Gbps")
    print(f"E_zero = {energy_model.energy_per_zero * 1e12:.2f} pJ, "
          f"E_transition = {energy_model.energy_per_transition * 1e12:.2f} pJ\n")

    transactions = transaction_stream()
    rows = []
    baseline_energy = None
    for window in WINDOWS:
        controller = MemoryController(channels=1,
                                      byte_lanes=profile.byte_lanes,
                                      model=cost_model, window=window,
                                      energy_model=energy_model,
                                      backend="reference")
        for transaction in transactions:
            controller.write(transaction)
        stats = controller.flush()
        if baseline_energy is None:
            baseline_energy = stats.energy_joules
        rows.append([
            window,
            stats.zeros,
            stats.transitions,
            f"{stats.energy_joules * 1e9:.2f} nJ",
            f"{100 * (1 - stats.energy_joules / baseline_energy):+.2f}%",
        ])
    print(markdown_table(
        ["lookahead window (bytes)", "zeros", "transitions",
         "interface energy", "vs window-1"],
        rows))
    print(f"\n({N_LINES} cache-line writes, "
          f"{N_LINES * CACHE_LINE_BYTES} bytes total; window 1 = greedy "
          f"per-byte, window 8 = the paper's per-burst granularity)")


if __name__ == "__main__":
    main()
