"""Regenerate the golden figure snapshots.

Run from the repository root after an *intentional* change to the figure
pipelines::

    PYTHONPATH=src python tests/integration/golden/regenerate.py

The snapshots pin the exact numbers of a small, seeded Fig. 3 alpha
sweep and Fig. 8 load sweep; ``tests/integration/test_golden_figures.py``
asserts that both backends keep reproducing them.  Keep populations and
sweep grids in sync with that module (it imports the constants below).
"""

from __future__ import annotations

import json
import pathlib

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

#: Population / grid parameters shared with the regression test.
POPULATION_COUNT = 400
POPULATION_SEED = 2018
ALPHA_POINTS = 11
LOAD_RATES_GBPS = (2, 6, 10, 14, 18)
LOADS_FARADS = (1e-12, 3e-12, 8e-12)


def _population():
    from repro.workloads.population import RandomPopulation

    return RandomPopulation(count=POPULATION_COUNT, seed=POPULATION_SEED)


def fig3_snapshot(backend=None):
    from repro.sim.sweep import alpha_sweep

    sweep = alpha_sweep(_population(), points=ALPHA_POINTS,
                        include_fixed=True, backend=backend)
    return {"ac_costs": sweep.ac_costs, "series": sweep.series}


def fig8_snapshot(backend=None):
    from repro.phy.power import GBPS
    from repro.sim.sweep import load_sweep

    sweep = load_sweep(_population(),
                       c_loads_farads=list(LOADS_FARADS),
                       data_rates_hz=[g * GBPS for g in LOAD_RATES_GBPS],
                       backend=backend)
    return {
        "data_rates_gbps": list(LOAD_RATES_GBPS),
        # JSON keys must be strings; use the repr of the load in farads.
        "normalized": {repr(load): series
                       for load, series in sweep.normalized.items()},
    }


def main() -> None:
    for name, build in (("fig3_alpha_sweep", fig3_snapshot),
                        ("fig8_load_sweep", fig8_snapshot)):
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(build(), indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
