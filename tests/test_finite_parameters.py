"""Model constructors reject NaN and infinite parameters.

NaN passes every ``< 0`` / ``<= 0`` guard, so without an explicit
finiteness check a NaN load or coefficient used to construct, key a
cache entry under ``r=nan`` and print ``nan`` in every table cell.
"""

import pytest

from repro.core.costs import CostModel
from repro.ctrl.adaptive import OperatingPoint
from repro.phy.pod import pod135
from repro.phy.power import GBPS, PICOFARAD, InterfaceEnergyModel

NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("value", NON_FINITE)
class TestNonFiniteRejected:
    def test_cost_model(self, value):
        with pytest.raises(ValueError, match="finite"):
            CostModel(value, 1.0)
        with pytest.raises(ValueError, match="finite"):
            CostModel(1.0, value)

    def test_interface_energy_model(self, value):
        with pytest.raises(ValueError, match="finite"):
            InterfaceEnergyModel(pod135(), value, 3 * PICOFARAD)
        with pytest.raises(ValueError, match="finite"):
            InterfaceEnergyModel(pod135(), 8 * GBPS, value)

    def test_operating_point(self, value):
        with pytest.raises(ValueError, match="finite"):
            OperatingPoint(interface="pod135", data_rate_hz=value,
                           c_load_farads=3 * PICOFARAD)
        with pytest.raises(ValueError, match="finite"):
            OperatingPoint(interface="pod135", data_rate_hz=8 * GBPS,
                           c_load_farads=value)


def test_finite_parameters_still_construct():
    assert CostModel(0.0, 1.0).beta == 1.0
    assert InterfaceEnergyModel(pod135(), 8 * GBPS,
                                3 * PICOFARAD).c_load_farads == 3 * PICOFARAD
    assert OperatingPoint(interface="pod135", data_rate_hz=8 * GBPS,
                          c_load_farads=3 * PICOFARAD).label
