"""Time-stepped runs of a supply configuration against a mission profile.

One configuration bundles the stack, battery, fuel tank, power
electronics, controller settings, and degradation law, plus an operating
mode:

  - ``hybrid``: fuel cell held near its setpoint behind the suppression
    filter, battery takes transients
  - ``direct_fc``: the stack alone follows the load, fully exposed to it
  - ``battery_only``: no fuel path at all

The integrator is explicit with a fixed dt, demand held constant within a
step. Runs are deterministic: identical inputs give bit-identical
results. Fuel is tracked on the electrical side so one watt of stack
output always costs one watt of tank drawdown.

Each step calls the public step functions, looked up by module name:
``battery_charge_acceptance`` (hybrid mode only), then ``dispatch_power``,
which calls ``powertrain.battery_step``. They are deliberately not inlined
into the loop. Each law then has one implementation, the one its tests
check, and wrapping the names observes every step; the benchmark's traced
run records the calls that way and replays them. Speed comes from keeping
those functions and the loop's own bookkeeping lean instead.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .controller import ControllerParams, EnergyFlow, dispatch_power
from .errors import ValidationError
from .powertrain import (
    BatterySpec,
    BatteryState,
    DegradationParams,
    ElectronicsSpec,
    FuelCellStackSpec,
    FuelTankSpec,
    battery_charge_acceptance,
    fc_life,
    fuel_energy,
)
from .profile import PowerProfile

MODE_HYBRID = "hybrid"
MODE_DIRECT = "direct_fc"
MODE_BATTERY = "battery_only"
MODES = (MODE_HYBRID, MODE_DIRECT, MODE_BATTERY)

FUEL_EXHAUSTED = "fuel_exhausted"
BATTERY_DEPLETED = "battery_depleted"
PROFILE_ENDED = "profile_ended"
UNMET_DEMAND = "unmet_demand"
TERMINATIONS = (FUEL_EXHAUSTED, BATTERY_DEPLETED, PROFILE_ENDED, UNMET_DEMAND)


@dataclass(frozen=True)
class HybridConfig:
    stack: FuelCellStackSpec
    battery: BatterySpec
    tank: FuelTankSpec
    electronics: ElectronicsSpec = ElectronicsSpec()
    controller: ControllerParams = ControllerParams(fc_setpoint=45.0)
    degradation: DegradationParams = DegradationParams()
    mode: str = MODE_HYBRID

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
        if self.mode == MODE_BATTERY:
            if self.tank.fuel_mass != 0.0 or self.stack.mass != 0.0:
                raise ValidationError(
                    "battery_only mode requires zero fuel and stack mass")
        if self.mode == MODE_DIRECT and self.battery.mass != 0.0:
            raise ValidationError("direct_fc mode requires zero battery mass")

    @property
    def total_mass(self) -> float:
        """Supply mass in kg: stack + battery + fuel + electronics."""
        return (self.stack.mass + self.battery.mass
                + self.tank.fuel_mass + self.electronics.mass)


@dataclass(slots=True)
class SimulationResult:
    """Outcome of one run. Energies in Wh, run_time in hours.

    energy_delivered and unmet_energy are measured at the load;
    curtailed_energy and the battery throughputs are measured at the
    source bus, before the output converter.
    """

    run_time: float
    termination: str
    fuel_consumed: float  # kg
    energy_delivered: float
    unmet_energy: float
    curtailed_energy: float
    battery_cycles: float
    fc_damage: float
    ripple: float
    battery_discharge: float
    battery_charge: float
    soc_initial: float
    soc_final: float
    soc_low: float
    soc_high: float
    steps: int
    dt: float
    flows: list[EnergyFlow] = field(default_factory=list)


class RunTimeEstimate(NamedTuple):
    """Closed-form endurance. sustainable is False when the load exceeds
    the steady deliverable power, making the horizon transient-only."""

    hours: float
    sustainable: bool


def default_dt(profile: PowerProfile) -> float:
    """1 s for slow profiles, 10 ms when sample spacing is sub-second."""
    spacing = float(np.diff(profile.times).min())
    return 1.0 if spacing >= 1.0 - 1e-9 else 0.01


def simulate(config: HybridConfig, profile: PowerProfile, dt: float | None = None,
             loop_profile: bool = False, *, initial_soc: float | None = None,
             record_flows: bool = False, flow_stride: int = 100,
             grace_s: float = 5.0, unmet_fraction: float = 0.01,
             max_hours: float | None = None) -> SimulationResult:
    """Step the configuration through the profile until it ends or dies.

    With loop_profile the profile repeats until the supply is exhausted.
    Termination is one of:

      - profile_ended: horizon reached (non-looped runs)
      - fuel_exhausted: tank below one step's need, battery at its floor
      - battery_depleted: no fuel path and the battery is at its floor
      - unmet_demand: shortfall above unmet_fraction of demand lasted
        grace_s seconds; run_time reports the start of that stretch

    Flows are recorded every flow_stride-th step when record_flows is
    set. Decimation keeps logs small without touching the integration.

    dt and max_hours must be finite and positive, grace_s finite and
    non-negative, unmet_fraction in [0, 1]; anything else (NaN included)
    raises ValidationError before the first step. A run that passes
    max_hours (default 1e6 for looped runs, no limit otherwise) raises
    RuntimeError.
    """
    if dt is None:
        dt = default_dt(profile)
    if not 0.0 < dt < math.inf:
        raise ValidationError("dt must be finite and > 0")
    if flow_stride < 1:
        raise ValidationError("flow_stride must be >= 1")
    if not 0.0 <= grace_s < math.inf:
        raise ValidationError("grace_s must be finite and >= 0")
    if not 0.0 <= unmet_fraction <= 1.0:
        raise ValidationError("unmet_fraction must be in [0, 1]")
    if max_hours is None:
        max_hours = 1e6 if loop_profile else math.inf
    elif not 0.0 < max_hours < math.inf:
        raise ValidationError("max_hours must be finite and > 0")
    limit_s = max_hours * 3600.0

    battery = config.battery
    tank = config.tank
    mode = config.mode
    is_hybrid = mode == MODE_HYBRID
    is_direct = mode == MODE_DIRECT
    has_fuel_path = not (mode == MODE_BATTERY)

    dt_h = dt / 3600.0
    duration_s = profile.duration
    end_s = duration_s - 1e-9
    eta_conv = config.electronics.converter_efficiency
    inv_eta = 1.0 / eta_conv
    cap_wh = battery.capacity_wh
    soc_floor = battery.soc_min
    rated = config.stack.rated_power
    setpoint = min(config.controller.fc_setpoint, rated)
    ceiling = setpoint if is_hybrid else rated
    headroom = config.controller.trickle_headroom
    tau = config.controller.filter_time_constant
    alpha = dt / (tau + dt)

    state = BatteryState.fresh(battery, initial_soc)
    soc_initial = state.soc
    soc_low = soc_high = state.soc
    fuel_wh = fuel_energy(tank)
    fuel_wh_initial = fuel_wh

    # bus-side demand of each held sample, and the time the next sample
    # starts, ending in an inf sentinel so the hold search needs no bound
    bus_l = (profile.power * inv_eta).tolist()
    next_l = profile.times[1:].tolist()
    next_l.append(math.inf)

    delivered_bus = 0.0  # Wh
    unmet_bus = 0.0
    curtailed = 0.0
    fc_on_h = 0.0
    fc_series = array("d")
    flows: list[EnergyFlow] = []
    next_flow = 0 if record_flows else -1  # step whose flow is recorded next
    filt: float | None = None
    streak_start = -1.0
    streak_s = 0.0

    termination = PROFILE_ENDED
    end_time_s: float | None = None
    n = 0
    wraps = 0
    idx = 0
    while True:
        t = n * dt
        if loop_profile:
            local = t - wraps * duration_s
            while local >= end_s:
                wraps += 1
                local -= duration_s
                idx = 0
        elif t >= end_s:
            termination = PROFILE_ENDED
            break
        else:
            local = t
        if t > limit_s:
            raise RuntimeError("simulation exceeded max_hours safety horizon")
        hold = local + 1e-12
        while next_l[idx] <= hold:
            idx += 1
        bus_demand = bus_l[idx]

        usable_wh = (state.soc - soc_floor) * cap_wh
        if usable_wh <= 1e-9:
            if has_fuel_path:
                need_wh = (bus_demand if bus_demand < ceiling else ceiling) * dt_h
                if fuel_wh < need_wh - 1e-12:
                    termination = FUEL_EXHAUSTED
                    break
            elif bus_demand > 1e-12:
                termination = BATTERY_DEPLETED
                break

        if is_hybrid:
            command = bus_demand + battery_charge_acceptance(battery, state, dt, headroom)
            if command > setpoint:
                command = setpoint
            if filt is None:
                filt = command
            else:
                filt += alpha * (command - filt)
            fc_cmd = filt
        elif is_direct:
            fc_cmd = bus_demand if bus_demand < rated else rated
        else:
            fc_cmd = 0.0

        flow, state = dispatch_power(bus_demand, fc_cmd, headroom, battery,
                                     state, fuel_wh, dt, t)
        fc_out = flow.fc_output
        if fc_out > 0.0:
            fuel_wh -= fc_out * dt_h
            if fuel_wh < 0.0:
                fuel_wh = 0.0
            fc_on_h += dt_h
        fc_series.append(fc_out)
        unmet = flow.unmet
        delivered_bus += (bus_demand - unmet) * dt_h
        unmet_bus += unmet * dt_h
        curtailed += flow.curtailed * dt_h
        soc = state.soc
        if soc < soc_low:
            soc_low = soc
        elif soc > soc_high:
            soc_high = soc

        # shortfall above both unmet_fraction of demand and 1e-9 W
        if unmet > 1e-9 and unmet > unmet_fraction * bus_demand:
            if streak_start < 0.0:
                streak_start = t
                streak_s = 0.0
            streak_s += dt
            if streak_s >= grace_s - 1e-9:
                termination = UNMET_DEMAND
                end_time_s = streak_start
                break
        else:
            streak_start = -1.0

        if n == next_flow:
            flows.append(flow)
            next_flow += flow_stride
        n += 1

    if end_time_s is None:
        end_time_s = n * dt if termination != PROFILE_ENDED else min(n * dt, duration_s)

    ripple = 0.0
    if fc_series:
        arr = np.frombuffer(fc_series)
        steady = arr[arr.size // 2:]
        mean = float(steady.mean())
        if mean > 0.0:
            ripple = float(steady.max() - steady.min()) / mean

    fc_damage = 0.0
    if has_fuel_path and fc_on_h > 0.0:
        fc_damage = fc_on_h / fc_life(config.stack.cell_voltage, ripple,
                                      config.degradation)

    consumed_wh = fuel_wh_initial - fuel_wh
    se = tank.specific_energy_electric
    return SimulationResult(
        run_time=end_time_s / 3600.0,
        termination=termination,
        fuel_consumed=consumed_wh / se if se > 0 else 0.0,
        energy_delivered=delivered_bus * eta_conv,
        unmet_energy=unmet_bus * eta_conv,
        curtailed_energy=curtailed,
        battery_cycles=(state.discharge_throughput / cap_wh) if cap_wh > 0 else 0.0,
        fc_damage=fc_damage,
        ripple=ripple,
        battery_discharge=state.discharge_throughput,
        battery_charge=state.charge_throughput,
        soc_initial=soc_initial,
        soc_final=state.soc,
        soc_low=soc_low,
        soc_high=soc_high,
        steps=n,
        dt=dt,
        flows=flows,
    )


def run_time_constant_load(config: HybridConfig, load: float,
                           initial_soc: float | None = None) -> RunTimeEstimate:
    """Analytic endurance at a constant load, in hours.

    Mirrors the simulator's policy closed-form: the fuel cell follows the
    load up to its ceiling, the battery bridges the rest until its floor,
    and the run ends when both are spent. Battery charging en route is
    not modeled, so start the pack where the simulation does (default
    full).
    """
    if load <= 0:
        raise ValidationError("load must be > 0")
    battery = config.battery
    bus = load / config.electronics.converter_efficiency
    if initial_soc is None:
        initial_soc = battery.soc_max
    usable = ((initial_soc - battery.soc_min) * battery.capacity_wh
              * battery.discharge_efficiency)  # terminal Wh
    p_batt = battery.max_power_w
    fuel = fuel_energy(config.tank)

    if config.mode == MODE_BATTERY:
        if bus > p_batt + 1e-12:
            return RunTimeEstimate(0.0, False)
        return RunTimeEstimate(usable / bus, True)

    ceiling = config.stack.rated_power
    if config.mode == MODE_HYBRID:
        ceiling = min(config.controller.fc_setpoint, ceiling)

    if bus <= ceiling + 1e-12:
        hours = fuel / bus
        if bus <= p_batt + 1e-12:
            hours += usable / bus
        return RunTimeEstimate(hours, True)
    deficit = bus - ceiling
    if deficit > p_batt + 1e-12:
        return RunTimeEstimate(0.0, False)
    t_batt = usable / deficit
    t_fuel = fuel / ceiling if ceiling > 0 else 0.0
    if t_batt <= t_fuel:
        return RunTimeEstimate(t_batt, False)
    remaining = usable - deficit * t_fuel
    hours = t_fuel
    if bus <= p_batt + 1e-12:
        hours += remaining / bus
    return RunTimeEstimate(hours, False)
