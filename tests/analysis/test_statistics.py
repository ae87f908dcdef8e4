"""Unit tests for Monte-Carlo statistics."""

import math
import os
import pathlib
import subprocess
import sys
from statistics import NormalDist

import pytest

import repro
from repro.analysis.statistics import (
    MeanEstimate,
    _z_value,
    estimate_mean,
    per_burst_costs,
    samples_for_precision,
    scheme_cost_estimate,
)
from repro.core.costs import CostModel
from repro.core.encoder import DbiOptimal
from repro.core.schemes import get_scheme
from repro.workloads.random_data import random_bursts


class TestEstimateMean:
    def test_known_sample(self):
        estimate = estimate_mean([1.0, 2.0, 3.0, 4.0])
        assert estimate.mean == pytest.approx(2.5)
        expected_se = math.sqrt((5.0 / 3.0) / 4.0)
        assert estimate.std_error == pytest.approx(expected_se)

    def test_interval_symmetric(self):
        estimate = estimate_mean([1.0, 2.0, 3.0])
        low, high = estimate.interval
        assert (low + high) / 2 == pytest.approx(estimate.mean)
        assert estimate.half_width == pytest.approx((high - low) / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_mean([1.0])
        with pytest.raises(ValueError):
            estimate_mean([1.0, 2.0], confidence=1.5)

    def test_higher_confidence_wider_interval(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        narrow = estimate_mean(samples, confidence=0.9)
        wide = estimate_mean(samples, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_separation(self):
        a = MeanEstimate(mean=1.0, std_error=0.01, confidence=0.95,
                         n_samples=100)
        b = MeanEstimate(mean=2.0, std_error=0.01, confidence=0.95,
                         n_samples=100)
        c = MeanEstimate(mean=1.02, std_error=0.05, confidence=0.95,
                         n_samples=100)
        assert a.separated_from(b)
        assert not a.separated_from(c)


class TestSchemeEstimates:
    @pytest.fixture(scope="class")
    def population(self):
        return random_bursts(count=1500, seed=77)

    def test_per_burst_costs_length(self, population):
        costs = per_burst_costs(get_scheme("raw"), population[:30],
                                CostModel.fixed())
        assert len(costs) == 30

    def test_opt_gain_statistically_significant(self, population):
        """The paper's 6.7% gain is many standard errors wide even at a
        fraction of the paper's sample count."""
        model = CostModel.fixed()
        opt = scheme_cost_estimate(DbiOptimal(model), population, model)
        dc = scheme_cost_estimate(get_scheme("dbi-dc"), population, model)
        ac = scheme_cost_estimate(get_scheme("dbi-ac"), population, model)
        best_conventional = min((dc, ac), key=lambda e: e.mean)
        assert opt.separated_from(best_conventional)
        assert (best_conventional.mean - opt.mean) > 10 * opt.std_error

    def test_paper_sample_count_suffices(self, population):
        """10 000 bursts give a CI half-width far below the reported
        2-cost-point effect size."""
        model = CostModel.fixed()
        samples = per_burst_costs(DbiOptimal(model), population, model)
        needed = samples_for_precision(samples, target_half_width=0.2)
        assert needed < 10_000

    def test_samples_for_precision_validation(self, population):
        model = CostModel.fixed()
        samples = per_burst_costs(get_scheme("raw"), population[:50], model)
        with pytest.raises(ValueError):
            samples_for_precision(samples, target_half_width=0.0)

    def test_tighter_precision_needs_more_samples(self, population):
        model = CostModel.fixed()
        samples = per_burst_costs(get_scheme("raw"), population[:200], model)
        loose = samples_for_precision(samples, target_half_width=0.5)
        tight = samples_for_precision(samples, target_half_width=0.05)
        assert tight > loose


class TestNormalQuantile:
    @pytest.mark.parametrize("confidence, z", [(0.9, 1.6448536269514722),
                                               (0.95, 1.959963984540054),
                                               (0.99, 2.5758293035489004)])
    def test_matches_normal_dist(self, confidence, z):
        assert _z_value(confidence) == NormalDist().inv_cdf(
            0.5 + confidence / 2)
        assert _z_value(confidence) == pytest.approx(z, rel=1e-14)

    def test_cli_import_loads_no_scipy(self):
        """The quantile comes from the standard library, so neither the
        module nor anything else ``repro.cli`` imports pulls scipy in."""
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        code = ("import sys, repro.cli; print(sorted(name for name in "
                "sys.modules if name.startswith('scipy')))")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
