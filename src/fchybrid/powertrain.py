"""Component models: fuel cell stack, degradation law, battery, fuel tank.

Conventions used throughout:
  - power in W, mass in kg, energy in Wh, time arguments in seconds,
    lifetimes in hours
  - battery terminal power is signed, positive discharging
  - fuel energy is counted on the electrical side: a tank's
    specific_energy_electric already includes conversion losses, so fuel
    drawdown equals fuel-cell electrical output

The stack operates at a fixed cell voltage. Efficiency is the ratio of
operating to ideal voltage (0.8 V / 1.23 V gives the 65 percent point).
Life shortens exponentially with the effective voltage::

    life(V, r) = ref_life * exp(-slope * (V + ripple_gain * r - ref_voltage))

where r is relative ripple seen at the stack. With the defaults below the
law passes through 26280 h (3 years) at a steady 0.8 V and about 120 h
(5 days) at an effective 0.95 V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ValidationError, bounded, check_fields

IDEAL_CELL_VOLTAGE = 1.23  # V, reversible cell potential
STACK_SPECIFIC_POWER = 300.0  # W/kg, rated output per stack mass
FUEL_SPECIFIC_ENERGY = 4950.0  # Wh/kg of fuel, delivered as electricity


@dataclass(frozen=True)
class FuelCellStackSpec:
    rated_power: float = bounded(">= 0")  # W
    mass: float = bounded(">= 0")  # kg
    cell_voltage: float = 0.8  # V, every stack's regulated operating point
    ideal_voltage: float = IDEAL_CELL_VOLTAGE  # V
    specific_power: float = bounded("> 0", STACK_SPECIFIC_POWER)  # W/kg

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.cell_voltage <= self.ideal_voltage:
            raise ValidationError("cell_voltage must be in (0, ideal_voltage]")

    @classmethod
    def from_mass(cls, mass: float, **kwargs) -> "FuelCellStackSpec":
        sp = kwargs.pop("specific_power", STACK_SPECIFIC_POWER)
        return cls(rated_power=mass * sp, mass=mass, specific_power=sp, **kwargs)


@dataclass(frozen=True)
class DegradationParams:
    """Voltage-life law coefficients. slope is in 1/V.

    The default slope is calibrated so the two anchor points
    (0.8 V -> 26280 h, 0.95 V -> 120 h) both lie on the curve:
    ln(26280 / 120) / 0.15 = 35.93.
    """

    ref_voltage: float = bounded("> 0", 0.8)  # V
    ref_life: float = bounded("> 0", 26280.0)  # h at ref_voltage with zero ripple
    slope: float = bounded(">= 0", 35.93)  # 1/V
    ripple_gain: float = bounded(">= 0", 0.15)  # V of effective stress per unit relative ripple

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class BatterySpec:
    chemistry: str
    mass: float = bounded(">= 0")  # kg
    specific_energy: float = bounded(">= 0")  # Wh/kg
    specific_power: float = bounded(">= 0")  # W/kg, symmetric charge/discharge bound
    charge_efficiency: float = bounded("in (0, 1]", 0.95)
    discharge_efficiency: float = bounded("in (0, 1]", 0.95)
    cycle_life: float = bounded("> 0", 1000.0)  # full equivalent cycles
    soc_min: float = 0.1
    soc_max: float = 1.0
    # mass times specific energy and power, set by __post_init__: the step
    # functions read both on every call, and a stored attribute is the
    # cheapest read
    capacity_wh: float = field(init=False, repr=False, compare=False)  # Wh
    max_power_w: float = field(init=False, repr=False, compare=False)  # W

    def __post_init__(self):
        try:  # an int too large for a float overflows here; check_fields names it
            derived = self.mass * self.specific_energy, self.mass * self.specific_power
        except OverflowError:
            derived = math.nan, math.nan
        object.__setattr__(self, "capacity_wh", derived[0])
        object.__setattr__(self, "max_power_w", derived[1])
        check_fields(self)
        if not 0.0 <= self.soc_min < self.soc_max <= 1.0:
            raise ValidationError("need 0 <= soc_min < soc_max <= 1")

    def scaled(self, mass: float) -> "BatterySpec":
        """Same chemistry at a different pack mass."""
        return replace(self, mass=mass)


@dataclass(slots=True)
class BatteryState:
    """Coulomb-counting state. Throughputs are cumulative terminal Wh."""

    soc: float
    discharge_throughput: float = 0.0  # Wh
    charge_throughput: float = 0.0  # Wh

    @classmethod
    def fresh(cls, spec: BatterySpec, soc: float | None = None) -> "BatteryState":
        if soc is None:
            soc = spec.soc_max
        if not spec.soc_min <= soc <= spec.soc_max:
            raise ValidationError("initial soc outside [soc_min, soc_max]")
        return cls(soc=soc)


def fc_efficiency(cell_voltage: float, ideal_voltage: float = IDEAL_CELL_VOLTAGE) -> float:
    """Operating efficiency as the voltage ratio V / V_ideal."""
    if ideal_voltage <= 0:
        raise ValidationError("ideal_voltage must be > 0")
    if not 0.0 < cell_voltage <= ideal_voltage:
        raise ValidationError("cell_voltage must be in (0, ideal_voltage]")
    return cell_voltage / ideal_voltage


def fc_life(cell_voltage: float, relative_ripple: float = 0.0,
            params: DegradationParams = DegradationParams()) -> float:
    """Expected stack life in hours at a given operating point.

    relative_ripple is (max - min) / mean of the power seen by the stack;
    it adds ripple_gain volts of effective stress per unit.
    """
    if not cell_voltage > 0:
        raise ValidationError("cell_voltage must be > 0")
    if not relative_ripple >= 0:
        raise ValidationError("relative_ripple must be >= 0")
    v_eff = cell_voltage + params.ripple_gain * relative_ripple
    return params.ref_life * math.exp(-params.slope * (v_eff - params.ref_voltage))


# battery_step builds a new state on every simulated step. Calling the
# class runs its Python __init__ through type.__call__, 210-250 ns on
# CPython 3.11; object.__new__ and three slot stores take 150 ns. The
# class has no __post_init__, so both build the same record.
_new = object.__new__


def battery_step(spec: BatterySpec, state: BatteryState, terminal_power: float,
                 dt: float) -> tuple[BatteryState, float]:
    """Advance the battery by dt seconds at the requested terminal power.

    The request (positive discharge, negative charge) is clipped first to
    the pack power bound, then so the state of charge stays inside
    [soc_min, soc_max] over the step. Charge and discharge efficiencies
    apply between the terminals and the store. Returns the new state and
    the terminal power actually realized.
    """
    if dt <= 0.0:
        raise ValidationError("dt must be > 0")
    cap = spec.capacity_wh
    if cap <= 0.0:
        new = _new(BatteryState)
        new.soc = state.soc
        new.discharge_throughput = state.discharge_throughput
        new.charge_throughput = state.charge_throughput
        return new, 0.0
    dt_h = dt / 3600.0
    p_max = spec.max_power_w
    p = terminal_power
    if p > p_max:
        p = p_max
    elif p < -p_max:
        p = -p_max
    soc = state.soc
    discharge = state.discharge_throughput
    charge = state.charge_throughput
    if p > 0.0:
        available = (soc - spec.soc_min) * cap  # Wh stored above the floor
        limit = available * spec.discharge_efficiency / dt_h
        if p > limit:
            p = limit
        soc -= p * dt_h / spec.discharge_efficiency / cap
        discharge += p * dt_h
    elif p < 0.0:
        headroom = (spec.soc_max - soc) * cap  # Wh of room in the store
        limit = headroom / (dt_h * spec.charge_efficiency)
        if -p > limit:
            p = -limit
        soc += -p * dt_h * spec.charge_efficiency / cap
        charge += -p * dt_h
    # clamp float dust only; the limits above already target the bounds
    if soc < spec.soc_min:
        soc = spec.soc_min
    elif soc > spec.soc_max:
        soc = spec.soc_max
    new = _new(BatteryState)
    new.soc = soc
    new.discharge_throughput = discharge
    new.charge_throughput = charge
    return new, p


def battery_charge_acceptance(spec: BatterySpec, state: BatteryState, dt: float,
                              headroom_fraction: float = 1.0) -> float:
    """Terminal watts of charge the pack can absorb this step."""
    cap = spec.capacity_wh
    if cap <= 0.0 or dt <= 0.0:
        return 0.0
    dt_h = dt / 3600.0
    energy_limit = (spec.soc_max - state.soc) * cap / (dt_h * spec.charge_efficiency)
    # the lesser of the power and energy limits, floored at zero
    accepted = spec.max_power_w * headroom_fraction
    if energy_limit < accepted:
        accepted = energy_limit
    return accepted if accepted > 0.0 else 0.0


@dataclass(frozen=True)
class FuelTankSpec:
    fuel_mass: float = bounded(">= 0")  # kg
    specific_energy_electric: float = bounded(">= 0", FUEL_SPECIFIC_ENERGY)  # Wh/kg

    def __post_init__(self):
        check_fields(self)
        if not math.isfinite(energy := fuel_energy(self)):
            raise ValidationError("fuel_mass * specific_energy_electric must be "
                                  f"finite, got {energy}")


@dataclass(frozen=True)
class ElectronicsSpec:
    mass: float = bounded(">= 0", 0.0)  # kg
    converter_efficiency: float = bounded("in (0, 1]", 1.0)

    def __post_init__(self):
        check_fields(self)


def fuel_energy(tank: FuelTankSpec) -> float:
    """Deliverable electrical energy in the tank, Wh."""
    return tank.fuel_mass * tank.specific_energy_electric
