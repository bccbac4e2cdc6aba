"""Built-in supply presets for a small humanoid platform.

The reference platform is a HOAP-2 class robot: 250 W peak rated power,
about 40 W of computer and sensor load, a walking average near 45 W, and
a 1.2 kg allowance for the power supply (the mass of the stock NiMH
pack). The four presets size that allowance four ways: the stock NiMH
pack, a lithium-ion pack of the same mass, a bare fuel-cell stack with
fuel, and a fuel-cell/battery hybrid.

Battery-pack comparisons use the stock pack's implied average draw
(48 Wh over a 3 hour endurance, about 16 W) as their load basis.
Pack presets use lossless accounting over the full charge window so the
figures reduce to plain reservoir arithmetic.
"""

from __future__ import annotations

from .powertrain import BatterySpec
from .sizing import (
    SizingInputs,
    SizingResult,
    default_battery_template,
    size_battery_only,
    size_direct_fc,
    size_hybrid,
)
from .simulator import HybridConfig

MASS_BUDGET_KG = 1.2
PEAK_POWER_W = 250.0
WALK_AVERAGE_W = 45.0
PACK_COMPARISON_LOAD_W = 16.0  # stock 48 Wh pack over its 3 h endurance

SIZING_INPUTS = SizingInputs(mass_budget=MASS_BUDGET_KG, steady_power=WALK_AVERAGE_W,
                             peak_power=PEAK_POWER_W)

# specific power figures for the stock-pack chemistries are typical
# catalog values; they only matter for the peak-feasibility column
NIMH_TEMPLATE = BatterySpec(
    chemistry="NiMH", mass=0.0, specific_energy=40.0, specific_power=250.0,
    charge_efficiency=1.0, discharge_efficiency=1.0, cycle_life=1000.0,
    soc_min=0.0, soc_max=1.0)
LIION_TEMPLATE = BatterySpec(
    chemistry="Li-ion", mass=0.0, specific_energy=120.0, specific_power=300.0,
    charge_efficiency=1.0, discharge_efficiency=1.0, cycle_life=1000.0,
    soc_min=0.0, soc_max=1.0)
NANO_TEMPLATE = default_battery_template(SIZING_INPUTS)


def nimh_sizing() -> SizingResult:
    return size_battery_only(NIMH_TEMPLATE, MASS_BUDGET_KG, PACK_COMPARISON_LOAD_W)


def liion_sizing() -> SizingResult:
    return size_battery_only(LIION_TEMPLATE, MASS_BUDGET_KG, PACK_COMPARISON_LOAD_W)


def direct_fc_sizing() -> SizingResult:
    return size_direct_fc(SIZING_INPUTS)


def hybrid_sizing() -> SizingResult:
    return size_hybrid(SIZING_INPUTS)


def comparison_sizings() -> list[SizingResult]:
    """The four supply options, battery packs first."""
    return [nimh_sizing(), liion_sizing(), direct_fc_sizing(), hybrid_sizing()]


def nimh_config() -> HybridConfig:
    return nimh_sizing().config


def liion_config() -> HybridConfig:
    return liion_sizing().config


def direct_fc_config() -> HybridConfig:
    return direct_fc_sizing().config


def hybrid_config() -> HybridConfig:
    return hybrid_sizing().config


def comparison_configs() -> list[HybridConfig]:
    """The four supply options as configurations, battery packs first."""
    return [nimh_config(), liion_config(), direct_fc_config(), hybrid_config()]
