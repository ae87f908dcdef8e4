"""Golden-file regression tests for the figure pipelines.

The snapshots under ``golden/`` pin the exact summary numbers of a
small, seeded Fig. 3 alpha sweep and Fig. 8 load sweep.  Both execution
backends must keep reproducing them, with or without NumPy (a seed draws
the same population on every install, and Fig. 8 reads Table I's pinned
encoder energies) — this catches silent numerical drift in the encoders,
the sweep harness, or the physical energy model, and doubles as an
end-to-end backend-equivalence check.

After an *intentional* pipeline change, regenerate with::

    PYTHONPATH=src python tests/integration/golden/regenerate.py
"""

import importlib.util
import json
import pathlib

import pytest

from repro.core.vectorized import available_backends

_REGENERATE = pathlib.Path(__file__).resolve().parent / "golden" / "regenerate.py"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _REGENERATE)
golden_regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_regenerate)

GOLDEN_DIR = golden_regenerate.GOLDEN_DIR
fig3_snapshot = golden_regenerate.fig3_snapshot
fig8_snapshot = golden_regenerate.fig8_snapshot


def _load(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():  # pragma: no cover - repo integrity
        pytest.fail(f"golden file missing: {path}; run golden/regenerate.py")
    return json.loads(path.read_text())


@pytest.mark.parametrize("backend", available_backends())
class TestGoldenFigures:
    def test_fig3_alpha_sweep(self, backend):
        golden = _load("fig3_alpha_sweep")
        snapshot = fig3_snapshot(backend=backend)
        assert snapshot["ac_costs"] == golden["ac_costs"]
        assert set(snapshot["series"]) == set(golden["series"])
        for name, series in golden["series"].items():
            assert snapshot["series"][name] == pytest.approx(series,
                                                             rel=1e-12), name

    def test_fig8_load_sweep(self, backend):
        golden = _load("fig8_load_sweep")
        snapshot = fig8_snapshot(backend=backend)
        assert snapshot["data_rates_gbps"] == golden["data_rates_gbps"]
        assert set(snapshot["normalized"]) == set(golden["normalized"])
        for load, series in golden["normalized"].items():
            assert snapshot["normalized"][load] == pytest.approx(series,
                                                                 rel=1e-12), load
