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

from .errors import ValidationError

IDEAL_CELL_VOLTAGE = 1.23  # V, reversible cell potential
STACK_SPECIFIC_POWER = 300.0  # W/kg, rated output per stack mass


@dataclass(frozen=True)
class FuelCellStackSpec:
    rated_power: float  # W
    mass: float  # kg
    cell_voltage: float = 0.8  # V, regulated operating point
    ideal_voltage: float = IDEAL_CELL_VOLTAGE  # V
    specific_power: float = STACK_SPECIFIC_POWER  # W/kg

    def __post_init__(self):
        if self.rated_power < 0:
            raise ValidationError("rated_power must be >= 0")
        if self.mass < 0:
            raise ValidationError("stack mass must be >= 0")
        if not 0.0 < self.cell_voltage <= self.ideal_voltage:
            raise ValidationError("cell_voltage must be in (0, ideal_voltage]")
        if self.specific_power <= 0:
            raise ValidationError("specific_power must be > 0")

    @classmethod
    def from_mass(cls, mass: float, **kwargs) -> "FuelCellStackSpec":
        sp = kwargs.pop("specific_power", STACK_SPECIFIC_POWER)
        return cls(rated_power=mass * sp, mass=mass, specific_power=sp, **kwargs)

    @classmethod
    def from_power(cls, rated_power: float, **kwargs) -> "FuelCellStackSpec":
        sp = kwargs.pop("specific_power", STACK_SPECIFIC_POWER)
        return cls(rated_power=rated_power, mass=rated_power / sp,
                   specific_power=sp, **kwargs)


@dataclass(frozen=True)
class DegradationParams:
    """Voltage-life law coefficients. slope is in 1/V.

    The default slope is calibrated so the two anchor points
    (0.8 V -> 26280 h, 0.95 V -> 120 h) both lie on the curve:
    ln(26280 / 120) / 0.15 = 35.93.
    """

    ref_voltage: float = 0.8  # V
    ref_life: float = 26280.0  # h at ref_voltage with zero ripple
    slope: float = 35.93  # 1/V
    ripple_gain: float = 0.15  # V of effective stress per unit relative ripple

    def __post_init__(self):
        if self.ref_voltage <= 0:
            raise ValidationError("ref_voltage must be > 0")
        if self.ref_life <= 0:
            raise ValidationError("ref_life must be > 0")
        if self.slope < 0:
            raise ValidationError("slope must be >= 0")
        if self.ripple_gain < 0:
            raise ValidationError("ripple_gain must be >= 0")


@dataclass(frozen=True)
class BatterySpec:
    chemistry: str
    mass: float  # kg
    specific_energy: float  # Wh/kg
    specific_power: float  # W/kg, symmetric charge/discharge bound
    charge_efficiency: float = 0.95
    discharge_efficiency: float = 0.95
    cycle_life: float = 1000.0  # full equivalent cycles
    soc_min: float = 0.1
    soc_max: float = 1.0
    # mass times specific energy and power, set by __post_init__: the step
    # functions read both on every call, and a stored attribute is the
    # cheapest read
    capacity_wh: float = field(init=False, repr=False, compare=False)  # Wh
    max_power_w: float = field(init=False, repr=False, compare=False)  # W

    def __post_init__(self):
        if self.mass < 0:
            raise ValidationError("battery mass must be >= 0")
        if self.specific_energy < 0:
            raise ValidationError("specific_energy must be >= 0")
        if self.specific_power < 0:
            raise ValidationError("specific_power must be >= 0")
        if not 0.0 < self.charge_efficiency <= 1.0:
            raise ValidationError("charge_efficiency must be in (0, 1]")
        if not 0.0 < self.discharge_efficiency <= 1.0:
            raise ValidationError("discharge_efficiency must be in (0, 1]")
        if self.cycle_life <= 0:
            raise ValidationError("cycle_life must be > 0")
        if not 0.0 <= self.soc_min < self.soc_max <= 1.0:
            raise ValidationError("need 0 <= soc_min < soc_max <= 1")
        object.__setattr__(self, "capacity_wh", self.mass * self.specific_energy)
        object.__setattr__(self, "max_power_w", self.mass * self.specific_power)

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
    if cell_voltage <= 0:
        raise ValidationError("cell_voltage must be > 0")
    if relative_ripple < 0:
        raise ValidationError("relative_ripple must be >= 0")
    v_eff = cell_voltage + params.ripple_gain * relative_ripple
    return params.ref_life * math.exp(-params.slope * (v_eff - params.ref_voltage))


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
        return BatteryState(state.soc, state.discharge_throughput,
                            state.charge_throughput), 0.0
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
    return BatteryState(soc, discharge, charge), p


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


def battery_cycle_damage(spec: BatterySpec, state: BatteryState) -> float:
    """Fraction of cycle life consumed: equivalent full cycles / cycle_life."""
    cap = spec.capacity_wh
    if cap <= 0.0:
        raise ValidationError("cycle damage is undefined for a zero-capacity pack")
    return (state.discharge_throughput / cap) / spec.cycle_life


@dataclass(frozen=True)
class FuelTankSpec:
    fuel_mass: float  # kg
    specific_energy_electric: float = 4950.0  # Wh/kg delivered as electricity

    def __post_init__(self):
        if self.fuel_mass < 0:
            raise ValidationError("fuel_mass must be >= 0")
        if self.specific_energy_electric < 0:
            raise ValidationError("specific_energy_electric must be >= 0")


@dataclass(frozen=True)
class ElectronicsSpec:
    mass: float = 0.0  # kg
    converter_efficiency: float = 1.0

    def __post_init__(self):
        if self.mass < 0:
            raise ValidationError("electronics mass must be >= 0")
        if not 0.0 < self.converter_efficiency <= 1.0:
            raise ValidationError("converter_efficiency must be in (0, 1]")


def fuel_energy(tank: FuelTankSpec) -> float:
    """Deliverable electrical energy in the tank, Wh."""
    return tank.fuel_mass * tank.specific_energy_electric
