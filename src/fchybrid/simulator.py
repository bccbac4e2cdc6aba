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
those functions and the loop's own bookkeeping lean instead. The two
records a step returns, ``BatteryState`` and ``EnergyFlow``, are built
with ``object.__new__`` and slot stores, since calling the class runs its
Python ``__init__`` and cost 60-170 ns more per record on CPython 3.11.

Ripple goes through ``controller.ripple_of``, the body of
``controller.measure_ripple`` too. The suppression filter alone is
written out in the loop: calling ``controller.suppression_filter`` there
measured 5 % slower per step; the tests hold the two equal.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .controller import (
    ControllerParams,
    EnergyFlow,
    dispatch_power,
    ripple_of,
    window_stats,
)
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

# a run ends unmet_demand once the shortfall has stayed above UNMET_FRACTION
# of demand for GRACE_S seconds
GRACE_S = 5.0
UNMET_FRACTION = 0.01
# a looped run raises RuntimeError once it passes this many simulated hours
MAX_HOURS = 1e6
# dt must cut one pass of the profile into at most this many steps
MAX_PASS_STEPS = 10**8

# fewest stored steps of stack output a looped run folds into its running
# ripple statistics at once, so a short profile pays no numpy call per pass
FOLD_BLOCK = 2**14


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

    @property
    def effective_setpoint(self) -> float:
        """fc_setpoint capped at the stack's rated power (fc_setpoint on a tie), W."""
        return min(self.controller.fc_setpoint, self.stack.rated_power)

    @property
    def stack_ceiling(self) -> float:
        """Most the mode lets the stack deliver, W: the effective setpoint in
        hybrid mode, the rating in direct_fc mode, 0 W in battery_only mode
        whatever its stack is rated."""
        if self.mode == MODE_HYBRID:
            return self.effective_setpoint
        return self.stack.rated_power if self.mode == MODE_DIRECT else 0.0


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


def default_dt(profile: PowerProfile) -> float:
    """1 s for slow profiles, 10 ms when sample spacing is sub-second."""
    spacing = float(np.diff(profile.times).min())
    return 1.0 if spacing >= 1.0 - 1e-9 else 0.01


def checked_dt(profile: PowerProfile, dt: float | None) -> float:
    """The step a run of the profile takes: default_dt when dt is None. It
    must be finite and > 0 and cut one pass into at most MAX_PASS_STEPS
    steps, or ValidationError is raised."""
    if dt is None:
        dt = default_dt(profile)
    if not 0.0 < dt < math.inf:
        raise ValidationError("dt must be finite and > 0")
    if profile.duration / dt > MAX_PASS_STEPS:
        raise ValidationError(
            f"dt must be >= {profile.duration / MAX_PASS_STEPS:g} s: one pass "
            f"of the profile may take at most {MAX_PASS_STEPS:g} steps")
    return dt


def simulate(config: HybridConfig, profile: PowerProfile, dt: float | None = None,
             loop_profile: bool = False, *, initial_soc: float | None = None,
             record_flows: bool = False, flow_stride: int = 100) -> SimulationResult:
    """Step the configuration through the profile until it ends or dies.

    With loop_profile the profile repeats until the supply is exhausted.
    Termination is one of:

      - profile_ended: horizon reached (non-looped runs)
      - fuel_exhausted: tank below one step's need, battery at its floor
      - battery_depleted: no fuel path and the battery is at its floor
      - unmet_demand: shortfall above UNMET_FRACTION (1 %) of demand
        lasted GRACE_S (5 s); run_time reports the start of that stretch

    A run whose stores are spent while such a shortfall is open ends
    fuel_exhausted or battery_depleted, and its run_time also reports the
    start of that stretch, unless the stretch began on the last step only
    because the pack ran dry on it (the stack's output and the pack's
    power bound would have left at most UNMET_FRACTION of the demand
    unmet); that step counts in full.

    Flows are recorded every flow_stride-th step when record_flows is
    set; flow_stride must be a finite whole number >= 1. Decimation keeps logs small without touching the integration.

    ripple is (max - min) / mean of the stack output over a steady window,
    through ``controller.ripple_of``. A full step is one whose stack
    output is above 0 W and not cut by ``dispatch_power`` to the fuel
    left (fc_output == the command); a cut step burns fuel and counts as
    stack time, but its output enters the window as 0 W. Let L be the
    number of steps through the last full one (none: ripple 0.0), and P1
    the number of steps before the profile first wraps (the whole run if
    it never does). The window is steps [min(L // 2, P1), L): the steady
    half of the fuelled steps, never starting after the first pass. The
    stack-off tail of a run that ran dry stays out of it, the partial
    step on which the tank ran out included, and a looped run longer than
    two passes is measured over every pass after the first. Memory is set
    by the profile, not the run's length: steps that are not full are
    counted, and stored as 0 W only when a full step follows them; once
    the window's start is fixed at P1, the steps before it are dropped
    and each wrap folds the stored output, in blocks of at least
    FOLD_BLOCK steps, into a running (min, max, sum, count). When
    L <= 2 * P1, as in every run that is not looped past its second pass,
    ripple is exactly ``measure_ripple`` of that series cut at L, and
    nothing is ever folded; once something is, the sum of block sums may
    differ from one numpy sum of the window in the last bits.

    dt is read through checked_dt before the first step. A looped run past
    MAX_HOURS of simulated time raises RuntimeError; a run that is not
    looped has no horizon. A looped profile whose held samples (all but the
    last, which only closes the horizon) are all 0 W drains nothing, so no
    mode can end it: that raises the same RuntimeError before the first step.
    """
    dt = checked_dt(profile, dt)
    if not (1 <= flow_stride < math.inf and flow_stride % 1 == 0):
        raise ValidationError("flow_stride must be a whole number >= 1")
    limit_s = MAX_HOURS * 3600.0 if loop_profile else math.inf
    if loop_profile and not profile.power[:-1].any():
        raise RuntimeError(f"a looped 0 W profile never ends: it would pass the "
                           f"looped-run horizon MAX_HOURS ({MAX_HOURS:g} h)")

    battery = config.battery
    tank = config.tank
    mode = config.mode
    is_hybrid = mode == MODE_HYBRID
    has_fuel_path = not (mode == MODE_BATTERY)

    dt_h = dt / 3600.0
    duration_s = profile.duration
    end_s = duration_s - 1e-9
    eta_conv = config.electronics.converter_efficiency
    inv_eta = 1.0 / eta_conv
    cap_wh = battery.capacity_wh
    soc_floor = battery.soc_min
    ceiling = config.stack_ceiling
    headroom = config.controller.trickle_headroom
    tau = config.controller.filter_time_constant
    alpha = dt / (tau + dt)
    grace_s = GRACE_S
    unmet_fraction = UNMET_FRACTION

    state = BatteryState.fresh(battery, initial_soc)
    soc_initial = state.soc
    soc_low = soc_high = state.soc
    fuel_wh = fuel_energy(tank)

    # bus-side demand of each held sample, and the time the next sample
    # starts, ending in an inf sentinel so the hold search needs no bound;
    # lists, not array("d"), whose every read boxes a new float: looped
    # gait runs measured about 3 % slower per step with arrays
    bus_l = (profile.power * inv_eta).tolist()
    next_l = profile.times[1:].tolist()
    next_l.append(math.inf)

    delivered_bus = 0.0  # Wh, counted from the sources
    burned = 0.0
    unmet_bus = 0.0
    curtailed = 0.0
    fc_on_h = 0.0
    fc_series = array("d")  # stack output of steps stored_from.., ending full
    stored_from = 0
    off = 0  # steps that were not full since the last stored one
    first_pass = -1  # steps before the profile first wrapped
    folded = (math.inf, -math.inf, 0.0, 0)  # (min, max, sum, count) folded so far
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
            if local >= end_s:
                while local >= end_s:
                    wraps += 1
                    local -= duration_s
                idx = 0
                if first_pass < 0:
                    first_pass = n
                elif stored_from + len(fc_series) > 2 * first_pass:
                    # the window starts at first_pass for good: drop the
                    # steps before it, and fold the rest once it makes a block
                    if stored_from < first_pass:
                        del fc_series[:first_pass - stored_from]
                        stored_from = first_pass
                    if len(fc_series) >= FOLD_BLOCK:
                        folded = _fold(folded, fc_series, 0)
                        stored_from += len(fc_series)
                        fc_series = array("d")
        elif t >= end_s:
            termination = PROFILE_ENDED
            break
        else:
            local = t
        if t > limit_s:
            raise RuntimeError(
                f"simulation exceeded the looped-run horizon MAX_HOURS ({MAX_HOURS:g} h)")
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
            if command > ceiling:
                command = ceiling
            # controller.suppression_filter written out: a call per step measured 5 % slower
            if filt is None:
                filt = command
            else:
                filt += alpha * (command - filt)
            fc_cmd = filt
        else:
            fc_cmd = bus_demand if bus_demand < ceiling else ceiling

        flow, state = dispatch_power(bus_demand, fc_cmd, headroom, battery,
                                     state, fuel_wh, dt, t)
        fc_out = flow.fc_output
        if fc_out > 0.0:
            burned += fc_out * dt_h
            fuel_wh -= fc_out * dt_h
            if fuel_wh < 0.0:
                fuel_wh = 0.0
            fc_on_h += dt_h
            if fc_out < fc_cmd:  # cut to the fuel left: out of the window
                off += 1
            else:
                if off:
                    fc_series.extend(repeat(0.0, off))
                    off = 0
                fc_series.append(fc_out)
        else:
            off += 1
        unmet = flow.unmet
        curt = flow.curtailed
        delivered_bus += (fc_out + flow.battery_power - curt) * dt_h
        unmet_bus += unmet * dt_h
        curtailed += curt * dt_h
        soc = state.soc
        if soc < soc_low:
            soc_low = soc
        elif soc > soc_high:
            soc_high = soc

        if n == next_flow:
            flows.append(flow)
            next_flow += flow_stride
        n += 1

        # shortfall above both unmet_fraction of demand and 1e-9 W; the
        # step that completes the grace streak is dispatched, so it counts
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

    if termination == PROFILE_ENDED:
        end_time_s = min(n * dt, duration_s)
    elif end_time_s is None:
        # stores spent with a shortfall streak open: demand was last met
        # where it began, unless it began on the last step and only for
        # want of stored energy, as the pack runs dry; that step counts
        if streak_start >= 0.0 and (
                streak_start < (n - 1) * dt
                or flow.demand - flow.fc_output - battery.max_power_w
                > unmet_fraction * flow.demand):
            end_time_s = streak_start
        else:
            end_time_s = n * dt

    fuelled = stored_from + len(fc_series)  # L
    if first_pass < 0:
        first_pass = n
    if fuelled == 0:
        ripple = 0.0
    else:
        start = min(fuelled // 2, first_pass)
        ripple = ripple_of(*_fold(folded, fc_series, max(start - stored_from, 0)))

    fc_damage = 0.0
    if fc_on_h > 0.0:
        # a large enough ripple drives the life law's exponential to 0.0
        life = fc_life(config.stack.cell_voltage, ripple, config.degradation)
        fc_damage = fc_on_h / life if life > 0.0 else math.inf

    se = tank.specific_energy_electric
    return SimulationResult(
        run_time=end_time_s / 3600.0,
        termination=termination,
        fuel_consumed=burned / se if se > 0 else 0.0,
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


def _fold(stats, series, skip: int):
    """Running (min, max, sum, count) stats merged with those of
    series[skip:]."""
    window = np.asarray(series)[skip:]
    if window.size == 0:
        return stats
    low, high, total, count = window_stats(window)
    return min(stats[0], low), max(stats[1], high), stats[2] + total, stats[3] + count


def run_time_constant_load(config: HybridConfig, load: float,
                           initial_soc: float | None = None) -> float:
    """Analytic endurance at a constant load, in hours.

    Mirrors the simulator's policy closed-form: the fuel cell follows the
    load up to the configuration's stack_ceiling, the battery bridges the
    rest up to its power bound until its floor, and the run ends when both
    are spent or when what they leave unmet is more than UNMET_FRACTION of
    the demand; a smaller shortfall does not end a run (see simulate).
    Battery charging en route is not modeled, so start the pack where the
    simulation does (default full); simulate's ValidationError refuses an
    initial_soc outside [soc_min, soc_max] here too.
    """
    if not 0.0 < load < math.inf:
        raise ValidationError("load must be finite and > 0")
    battery = config.battery
    bus = load / config.electronics.converter_efficiency
    slack = UNMET_FRACTION * bus  # W of shortfall a run carries on with
    initial_soc = BatteryState.fresh(battery, initial_soc).soc
    usable = ((initial_soc - battery.soc_min) * battery.capacity_wh
              * battery.discharge_efficiency)  # terminal Wh
    p_batt = battery.max_power_w
    stack = min(bus, config.stack_ceiling)
    bridge = min(bus - stack, p_batt)  # the pack's share while both last
    if bus - stack - bridge > slack:
        return 0.0
    t_fuel = fuel_energy(config.tank) / stack if stack > 0 else 0.0
    t_batt = usable / bridge if bridge > 0 else math.inf
    if t_batt <= t_fuel:  # the stack alone, if it carries the load
        return t_fuel if bus - stack <= slack else t_batt
    hours = t_fuel
    if bus - p_batt <= slack:  # the pack alone
        hours += (usable - bridge * t_fuel) / min(bus, p_batt)
    return hours
