"""INI-style configuration files.

A supply file can override any component field; unspecified values fall
back to the built-in hybrid preset, so a minimal file only names what it
changes. Sections and keys::

    [system]      mode
    [fuel_cell]   rated_power, mass, cell_voltage, ideal_voltage, specific_power
    [battery]     chemistry, mass, specific_energy, specific_power,
                  charge_efficiency, discharge_efficiency, cycle_life,
                  soc_min, soc_max
    [fuel_tank]   fuel_mass, specific_energy_electric
    [electronics] mass, converter_efficiency
    [degradation] ref_voltage, ref_life, slope, ripple_gain
    [controller]  fc_setpoint_w, filter_time_constant_s, trickle_headroom
    [sizing]      mass_budget, steady_power, peak_power,
                  stack_specific_power, battery_specific_power,
                  battery_specific_energy, fuel_specific_energy,
                  electronics_mass
"""

from __future__ import annotations

import configparser
from dataclasses import replace
from pathlib import Path

from .controller import ControllerParams
from .errors import ValidationError
from .powertrain import (
    BatterySpec,
    DegradationParams,
    ElectronicsSpec,
    FuelCellStackSpec,
    FuelTankSpec,
)
from .presets import hybrid_config
from .simulator import HybridConfig
from .sizing import SizingConstants, SizingInputs


def _read(path) -> configparser.ConfigParser:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {p}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(p.read_text(encoding="utf-8"))
    except configparser.Error as exc:
        raise ValidationError(f"bad config file {p}: {exc}") from None
    return cp


def _getf(cp: configparser.ConfigParser, section: str, key: str, default: float) -> float:
    if not cp.has_option(section, key):
        return default
    try:
        return cp.getfloat(section, key)
    except ValueError as exc:
        raise ValidationError(f"[{section}] {key}: {exc}") from None


def _gets(cp: configparser.ConfigParser, section: str, key: str, default: str) -> str:
    if not cp.has_option(section, key):
        return default
    return cp.get(section, key).strip()


def load_supply_config(path) -> HybridConfig:
    """Read a supply configuration, defaulting to the hybrid preset."""
    cp = _read(path)
    base = hybrid_config()

    mass = _getf(cp, "fuel_cell", "mass", base.stack.mass)
    specific_power = _getf(cp, "fuel_cell", "specific_power",
                           base.stack.specific_power)
    rated_default = mass * specific_power
    stack = FuelCellStackSpec(
        rated_power=_getf(cp, "fuel_cell", "rated_power", rated_default),
        mass=mass,
        cell_voltage=_getf(cp, "fuel_cell", "cell_voltage", base.stack.cell_voltage),
        ideal_voltage=_getf(cp, "fuel_cell", "ideal_voltage", base.stack.ideal_voltage),
        specific_power=specific_power,
    )
    b = base.battery
    battery = BatterySpec(
        chemistry=_gets(cp, "battery", "chemistry", b.chemistry),
        mass=_getf(cp, "battery", "mass", b.mass),
        specific_energy=_getf(cp, "battery", "specific_energy", b.specific_energy),
        specific_power=_getf(cp, "battery", "specific_power", b.specific_power),
        charge_efficiency=_getf(cp, "battery", "charge_efficiency",
                                b.charge_efficiency),
        discharge_efficiency=_getf(cp, "battery", "discharge_efficiency",
                                   b.discharge_efficiency),
        cycle_life=_getf(cp, "battery", "cycle_life", b.cycle_life),
        soc_min=_getf(cp, "battery", "soc_min", b.soc_min),
        soc_max=_getf(cp, "battery", "soc_max", b.soc_max),
    )
    tank = FuelTankSpec(
        fuel_mass=_getf(cp, "fuel_tank", "fuel_mass", base.tank.fuel_mass),
        specific_energy_electric=_getf(cp, "fuel_tank", "specific_energy_electric",
                                       base.tank.specific_energy_electric),
    )
    electronics = ElectronicsSpec(
        mass=_getf(cp, "electronics", "mass", base.electronics.mass),
        converter_efficiency=_getf(cp, "electronics", "converter_efficiency",
                                   base.electronics.converter_efficiency),
    )
    degradation = DegradationParams(
        ref_voltage=_getf(cp, "degradation", "ref_voltage",
                          base.degradation.ref_voltage),
        ref_life=_getf(cp, "degradation", "ref_life", base.degradation.ref_life),
        slope=_getf(cp, "degradation", "slope", base.degradation.slope),
        ripple_gain=_getf(cp, "degradation", "ripple_gain",
                          base.degradation.ripple_gain),
    )
    controller = ControllerParams(
        fc_setpoint=_getf(cp, "controller", "fc_setpoint_w",
                          base.controller.fc_setpoint),
        filter_time_constant=_getf(cp, "controller", "filter_time_constant_s",
                                   base.controller.filter_time_constant),
        trickle_headroom=_getf(cp, "controller", "trickle_headroom",
                               base.controller.trickle_headroom),
    )
    mode = _gets(cp, "system", "mode", base.mode)
    return HybridConfig(stack=stack, battery=battery, tank=tank,
                        electronics=electronics, controller=controller,
                        degradation=degradation, mode=mode)


def load_sizing_inputs(path=None, *, mass_budget: float | None = None,
                       steady_power: float | None = None,
                       peak_power: float | None = None) -> SizingInputs:
    """Sizing inputs from a [sizing] section, flag values taking priority."""
    defaults = SizingConstants()
    budget, steady, peak = 1.2, 45.0, 250.0
    constants = defaults
    if path is not None:
        cp = _read(path)
        budget = _getf(cp, "sizing", "mass_budget", budget)
        steady = _getf(cp, "sizing", "steady_power", steady)
        peak = _getf(cp, "sizing", "peak_power", peak)
        constants = replace(
            defaults,
            stack_specific_power=_getf(cp, "sizing", "stack_specific_power",
                                       defaults.stack_specific_power),
            battery_specific_power=_getf(cp, "sizing", "battery_specific_power",
                                         defaults.battery_specific_power),
            battery_specific_energy=_getf(cp, "sizing", "battery_specific_energy",
                                          defaults.battery_specific_energy),
            fuel_specific_energy=_getf(cp, "sizing", "fuel_specific_energy",
                                       defaults.fuel_specific_energy),
            electronics_mass=_getf(cp, "sizing", "electronics_mass",
                                   defaults.electronics_mass),
        )
    if mass_budget is not None:
        budget = mass_budget
    if steady_power is not None:
        steady = steady_power
    if peak_power is not None:
        peak = peak_power
    return SizingInputs(mass_budget=budget, steady_power=steady,
                        peak_power=peak, constants=constants)
