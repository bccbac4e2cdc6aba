"""Mass-budget allocation and setpoint optimization.

Closed-form sizing splits a total supply mass among stack, battery, fuel,
and electronics:

  - hybrid: stack for the steady draw, battery for the peak, the rest of
    the budget is fuel
  - direct fuel cell: an oversized stack (default twice the steady-power
    stack) with no battery or converter electronics, the rest is fuel
  - battery only: the whole budget is one pack

Run-times are fuel-basis horizons (fuel energy over the steady draw, or
pack energy over the average load). System life is the fuel-cell
degradation horizon for fuel modes and cycle life times run-time for
battery packs; a hybrid takes the minimum of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, ValidationError
from .powertrain import BatterySpec, DegradationParams, FuelCellStackSpec, \
    FuelTankSpec, ElectronicsSpec, fc_life
from .profile import PowerProfile
from .simulator import (
    HybridConfig,
    MODE_BATTERY,
    MODE_DIRECT,
    MODE_HYBRID,
    default_dt,
    simulate,
)
from .controller import ControllerParams

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _to_gram(mass_kg: float) -> float:
    # component allocations land on whole grams; fuel absorbs the remainder
    return round(mass_kg, 3)


@dataclass(frozen=True)
class SizingConstants:
    """Specific figures the allocator works from. SI masses, Wh energies."""

    stack_specific_power: float = 300.0  # W/kg
    battery_specific_power: float = 1850.0  # W/kg
    battery_specific_energy: float = 90.0  # Wh/kg
    fuel_specific_energy: float = 4950.0  # Wh/kg, electrical side
    electronics_mass: float = 0.115  # kg

    def __post_init__(self):
        if self.stack_specific_power <= 0:
            raise ValidationError("stack_specific_power must be > 0")
        if self.battery_specific_power <= 0:
            raise ValidationError("battery_specific_power must be > 0")
        if self.battery_specific_energy < 0:
            raise ValidationError("battery_specific_energy must be >= 0")
        if self.fuel_specific_energy <= 0:
            raise ValidationError("fuel_specific_energy must be > 0")
        if self.electronics_mass < 0:
            raise ValidationError("electronics_mass must be >= 0")


@dataclass(frozen=True)
class SizingInputs:
    mass_budget: float  # kg for the whole supply
    steady_power: float  # W the stack must sustain
    peak_power: float  # W the supply must survive
    constants: SizingConstants = SizingConstants()

    def __post_init__(self):
        if self.mass_budget <= 0:
            raise ValidationError("mass_budget must be > 0")
        if self.steady_power < 0:
            raise ValidationError("steady_power must be >= 0")
        if self.peak_power < self.steady_power:
            raise ValidationError("peak_power must be >= steady_power")


@dataclass(slots=True)
class SizingResult:
    """Mass split and the figures of merit it implies.

    energy_density is the fuel-basis Wh/kg convention used in supply
    comparisons; system_energy_density divides total stored energy by
    the whole supply mass.
    """

    mode: str
    stack_mass: float  # kg
    battery_mass: float  # kg
    fuel_mass: float  # kg
    electronics_mass: float  # kg
    run_time: float  # h
    system_life: float  # h
    energy_density: float  # Wh/kg
    system_energy_density: float  # Wh/kg
    load_basis: float  # W used for the run-time figure
    peak_capability: float  # W the supply can source
    feasible: bool
    label: str = ""
    warnings: list[str] = field(default_factory=list)

    @property
    def total_mass(self) -> float:
        return (self.stack_mass + self.battery_mass
                + self.fuel_mass + self.electronics_mass)


def default_battery_template(constants: SizingConstants = SizingConstants()) -> BatterySpec:
    """Nanophosphate-style pack used when sizing hybrids: sized for power,
    lossless accounting, full usable window."""
    return BatterySpec(
        chemistry="nanophosphate",
        mass=0.0,
        specific_energy=constants.battery_specific_energy,
        specific_power=constants.battery_specific_power,
        charge_efficiency=1.0,
        discharge_efficiency=1.0,
        cycle_life=1000.0,
        soc_min=0.0,
        soc_max=1.0,
    )


def _reservoir_need_wh(profile: PowerProfile, steady: float) -> float:
    """Worst sustained energy the battery must cover when demand runs
    above the steady supply, Wh."""
    dt = np.diff(profile.times) / 3600.0
    surplus = profile.power[:-1] - steady
    running = 0.0
    worst = 0.0
    for s, d in zip(surplus, dt):
        running = max(0.0, running + s * d)
        worst = max(worst, running)
    return worst


def size_hybrid(inputs: SizingInputs, *, cell_voltage: float = 0.8,
                degradation: DegradationParams = DegradationParams(),
                profile: PowerProfile | None = None,
                label: str = "") -> SizingResult:
    """Allocate stack to the steady draw, battery to the peak, fuel last."""
    c = inputs.constants
    stack_mass = _to_gram(inputs.steady_power / c.stack_specific_power)
    battery_mass = _to_gram(inputs.peak_power / c.battery_specific_power)
    fuel_mass = inputs.mass_budget - stack_mass - battery_mass - c.electronics_mass
    warnings: list[str] = []
    feasible = fuel_mass >= -1e-12
    if not feasible:
        warnings.append(
            f"stack, battery, and electronics need "
            f"{stack_mass + battery_mass + c.electronics_mass:.3f} kg, "
            f"over the {inputs.mass_budget:.3f} kg budget")
        fuel_mass = 0.0
    fuel_mass = max(fuel_mass, 0.0)
    fuel_wh = fuel_mass * c.fuel_specific_energy
    run_time = fuel_wh / inputs.steady_power if inputs.steady_power > 0 else math.inf
    if profile is not None:
        need = _reservoir_need_wh(profile, inputs.steady_power)
        usable = battery_mass * c.battery_specific_energy
        if need > usable:
            warnings.append(
                f"profile needs {need:.1f} Wh of battery buffering, "
                f"pack stores {usable:.1f} Wh")
    battery_wh = battery_mass * c.battery_specific_energy
    return SizingResult(
        mode=MODE_HYBRID,
        stack_mass=stack_mass,
        battery_mass=battery_mass,
        fuel_mass=fuel_mass,
        electronics_mass=c.electronics_mass,
        run_time=run_time,
        system_life=fc_life(cell_voltage, 0.0, degradation),
        energy_density=c.fuel_specific_energy,
        system_energy_density=(fuel_wh + battery_wh) / inputs.mass_budget,
        load_basis=inputs.steady_power,
        peak_capability=inputs.steady_power + battery_mass * c.battery_specific_power,
        feasible=feasible,
        label=label or "fuel cell hybrid",
        warnings=warnings,
    )


def size_direct_fc(inputs: SizingInputs, *, stack_factor: float = 2.0,
                   stress_voltage: float = 0.95,
                   degradation: DegradationParams = DegradationParams(),
                   label: str = "") -> SizingResult:
    """Stack-plus-tank supply with no battery buffer.

    The stack is oversized by stack_factor over the steady-power stack to
    ride load swings, and without the suppression stage it sees an
    effective stress voltage (default 0.95 V) that sets its life.
    """
    if stack_factor <= 0:
        raise ValidationError("stack_factor must be > 0")
    c = inputs.constants
    stack_mass = _to_gram(stack_factor * inputs.steady_power / c.stack_specific_power)
    rated = stack_mass * c.stack_specific_power
    fuel_mass = inputs.mass_budget - stack_mass
    warnings: list[str] = []
    feasible = fuel_mass >= -1e-12
    if not feasible:
        warnings.append(f"stack alone ({stack_mass:.3f} kg) exceeds the budget")
        fuel_mass = 0.0
    fuel_mass = max(fuel_mass, 0.0)
    if rated < inputs.peak_power:
        warnings.append(
            f"stack rated {rated:g} W cannot meet {inputs.peak_power:g} W peaks")
    fuel_wh = fuel_mass * c.fuel_specific_energy
    run_time = fuel_wh / inputs.steady_power if inputs.steady_power > 0 else math.inf
    return SizingResult(
        mode=MODE_DIRECT,
        stack_mass=stack_mass,
        battery_mass=0.0,
        fuel_mass=fuel_mass,
        electronics_mass=0.0,
        run_time=run_time,
        system_life=fc_life(stress_voltage, 0.0, degradation),
        energy_density=c.fuel_specific_energy,
        system_energy_density=fuel_wh / inputs.mass_budget,
        load_basis=inputs.steady_power,
        peak_capability=rated,
        feasible=feasible,
        label=label or "fuel cell",
        warnings=warnings,
    )


def size_battery_only(template: BatterySpec, mass_budget: float,
                      average_load: float, *, label: str = "") -> SizingResult:
    """The whole budget becomes one pack of the template's chemistry."""
    if mass_budget <= 0:
        raise ValidationError("mass_budget must be > 0")
    if average_load <= 0:
        raise ValidationError("average_load must be > 0")
    run_time = mass_budget * template.specific_energy / average_load
    return SizingResult(
        mode=MODE_BATTERY,
        stack_mass=0.0,
        battery_mass=mass_budget,
        fuel_mass=0.0,
        electronics_mass=0.0,
        run_time=run_time,
        system_life=template.cycle_life * run_time,
        energy_density=template.specific_energy,
        system_energy_density=template.specific_energy,
        load_basis=average_load,
        peak_capability=mass_budget * template.specific_power,
        feasible=True,
        label=label or f"{template.chemistry} battery",
    )


def system_life(subject, run_time: float | None = None, *,
                battery_cycles: float = 0.0, ripple: float = 0.0) -> float:
    """Service-life horizon in hours for a configuration or sizing result.

    Battery packs last cycle_life full cycles, so their horizon scales
    with run-time per cycle. Fuel-cell supplies are bound by the voltage
    degradation law. A hybrid takes the minimum of its stack life and the
    battery's cycle horizon (infinite when the run cycles it zero times,
    as a steady load does).
    """
    if isinstance(subject, SizingResult):
        if subject.mode == MODE_BATTERY and run_time is not None and subject.run_time > 0.0:
            # the result's own life over its run-time is the pack's cycle life
            return subject.system_life / subject.run_time * run_time
        return subject.system_life
    config: HybridConfig = subject
    if config.mode == MODE_BATTERY:
        if run_time is None:
            raise ValidationError("battery life needs the run_time per cycle")
        return config.battery.cycle_life * run_time
    stack_life = fc_life(config.stack.cell_voltage, ripple, config.degradation)
    if config.mode == MODE_DIRECT:
        return stack_life
    if battery_cycles > 0.0 and run_time:
        cycle_horizon = config.battery.cycle_life * run_time / battery_cycles
        return min(stack_life, cycle_horizon)
    return stack_life


def config_from_sizing(result: SizingResult, *,
                       constants: SizingConstants = SizingConstants(),
                       battery_template: BatterySpec | None = None,
                       cell_voltage: float = 0.8,
                       stress_voltage: float = 0.95,
                       controller: ControllerParams | None = None,
                       degradation: DegradationParams = DegradationParams()) -> HybridConfig:
    """Build a simulatable configuration realizing a sizing result."""
    if battery_template is None:
        battery_template = default_battery_template(constants)
    battery = battery_template.scaled(result.battery_mass)
    tank = FuelTankSpec(fuel_mass=result.fuel_mass,
                        specific_energy_electric=constants.fuel_specific_energy)
    if result.mode == MODE_HYBRID:
        stack = FuelCellStackSpec.from_mass(
            result.stack_mass, cell_voltage=cell_voltage,
            specific_power=constants.stack_specific_power)
        if controller is None:
            controller = ControllerParams(fc_setpoint=result.load_basis)
        electronics = ElectronicsSpec(mass=result.electronics_mass)
    elif result.mode == MODE_DIRECT:
        stack = FuelCellStackSpec.from_mass(
            result.stack_mass, cell_voltage=stress_voltage,
            specific_power=constants.stack_specific_power)
        if controller is None:
            controller = ControllerParams(fc_setpoint=stack.rated_power)
        electronics = ElectronicsSpec(mass=result.electronics_mass)
    else:
        stack = FuelCellStackSpec(rated_power=0.0, mass=0.0,
                                  cell_voltage=cell_voltage)
        if controller is None:
            controller = ControllerParams(fc_setpoint=0.0)
        electronics = ElectronicsSpec(mass=result.electronics_mass)
    return HybridConfig(stack=stack, battery=battery, tank=tank,
                        electronics=electronics, controller=controller,
                        degradation=degradation, mode=result.mode)


@dataclass(frozen=True)
class SetpointEvaluation:
    """One candidate setpoint, judged on a settled profile pass."""

    setpoint: float  # W
    run_time: float  # h, fuel-limited endurance estimate
    system_life: float  # h
    unmet_energy: float  # Wh within the judged pass
    net_drain_wh: float  # battery energy lost per steady pass, Wh stored
    feasible: bool  # meets demand and sustains the battery
    reason: str  # first failed constraint when infeasible
    sizing: SizingResult


def evaluate_setpoint(profile: PowerProfile, inputs: SizingInputs,
                      setpoint: float, *, dt: float | None = None,
                      battery_template: BatterySpec | None = None,
                      degradation: DegradationParams = DegradationParams()) -> SetpointEvaluation:
    """Size a hybrid for the given setpoint and judge one settled pass.

    The profile is treated as periodic. A first pass absorbs the filter
    and charge transients of starting from a full pack; the second pass,
    started from the settled state, must meet demand with zero unmet
    energy and must not net-drain the battery, otherwise the loop cannot
    be sustained. The endurance estimate is the fuel horizon at that
    pass's average burn rate.
    """
    if setpoint < 0:
        raise ValidationError("setpoint must be >= 0")
    sized = size_hybrid(
        SizingInputs(inputs.mass_budget, setpoint, inputs.peak_power,
                     inputs.constants),
        degradation=degradation)
    if not sized.feasible:
        return SetpointEvaluation(setpoint, 0.0, 0.0, 0.0, 0.0, False,
                                  "mass_budget", sized)
    config = config_from_sizing(sized, constants=inputs.constants,
                                battery_template=battery_template,
                                degradation=degradation)
    settle = simulate(config, profile, dt=dt)
    res = simulate(config, profile, dt=dt, initial_soc=settle.soc_final)
    pass_h = res.run_time
    cap = config.battery.capacity_wh
    net_drain = (res.soc_initial - res.soc_final) * cap
    fuel_wh = sized.fuel_mass * inputs.constants.fuel_specific_energy
    burn_rate = (res.fuel_consumed * inputs.constants.fuel_specific_energy
                 / pass_h) if pass_h > 0 else 0.0
    run_time = fuel_wh / burn_rate if burn_rate > 0 else math.inf
    life = system_life(config, run_time=pass_h, battery_cycles=res.battery_cycles,
                       ripple=res.ripple)
    # the settled orbit can straddle the pass boundary by a few ppm of
    # capacity; anything larger is a genuine sustained drain
    drain_tol = max(1e-6 * cap, 1e-9)
    if res.unmet_energy > 1e-9:
        feasible, reason = False, "unmet_demand"
    elif net_drain > drain_tol:
        feasible, reason = False, "battery_drain"
    else:
        feasible, reason = True, ""
    return SetpointEvaluation(setpoint, run_time, life, res.unmet_energy,
                              net_drain, feasible, reason, sized)


def optimize_setpoint(profile: PowerProfile, inputs: SizingInputs,
                      life_floor: float = 0.0, *, tolerance: float = 0.1,
                      dt: float | None = None, grid_step: float = 0.5,
                      battery_template: BatterySpec | None = None,
                      degradation: DegradationParams = DegradationParams()
                      ) -> tuple[float, SizingResult]:
    """Pick the fuel-cell setpoint that maximizes endurance on the profile.

    Golden-section search over [0, peak_power] on the endurance estimate,
    infeasible candidates scored minus infinity; falls back to an
    exhaustive grid sweep if the bracket stops behaving unimodally.
    Deterministic. Raises InfeasibleError naming the binding constraint
    when no setpoint satisfies demand, battery sustainability, and the
    life floor.
    """
    if tolerance <= 0:
        raise ValidationError("tolerance must be > 0")
    cache: dict[float, SetpointEvaluation] = {}
    reasons: set[str] = set()

    def judge(x: float) -> tuple[float, SetpointEvaluation]:
        ev = cache.get(x)
        if ev is None:
            ev = evaluate_setpoint(profile, inputs, x, dt=dt,
                                   battery_template=battery_template,
                                   degradation=degradation)
            cache[x] = ev
        if not ev.feasible:
            reasons.add(ev.reason)
            return -math.inf, ev
        if ev.system_life < life_floor:
            reasons.add("system_life")
            return -math.inf, ev
        return ev.run_time, ev

    lo, hi = 0.0, inputs.peak_power
    best_x, best_f = None, -math.inf

    def consider(x: float) -> float:
        nonlocal best_x, best_f
        f, _ = judge(x)
        if f > best_f or (f == best_f and f > -math.inf
                          and best_x is not None and x < best_x):
            best_x, best_f = x, f
        return f

    need_fallback = False
    x1 = hi - INV_PHI * (hi - lo)
    x2 = lo + INV_PHI * (hi - lo)
    f1, f2 = consider(x1), consider(x2)
    while hi - lo > tolerance:
        if f1 == -math.inf and f2 == -math.inf:
            need_fallback = True
            break
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INV_PHI * (hi - lo)
            f1 = consider(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INV_PHI * (hi - lo)
            f2 = consider(x2)

    if need_fallback or best_x is None:
        for x in np.arange(0.0, inputs.peak_power + grid_step / 2, grid_step):
            consider(float(x))

    if best_x is None:
        # a candidate failing only the life floor was otherwise feasible,
        # so that constraint is the binding one to report
        if "system_life" in reasons:
            binding = "system_life"
        elif reasons & {"unmet_demand", "battery_drain"}:
            binding = "unmet_demand"
        else:
            binding = "mass_budget"
        raise InfeasibleError(
            f"no setpoint in [0, {inputs.peak_power:g}] W satisfies the "
            f"constraints (binding: {binding})", binding_constraint=binding)

    # equal endurance prefers the lowest setpoint, so walk the optimum down
    # to the left edge of its plateau / feasibility boundary
    edge_lo = 0.0
    for x in list(cache):
        if edge_lo < x < best_x and judge(x)[0] < best_f:
            edge_lo = x
    refine = min(tolerance, grid_step) * 1e-3
    while best_x - edge_lo > refine:
        mid = 0.5 * (edge_lo + best_x)
        f, _ = judge(mid)
        if f >= best_f:
            best_f, best_x = f, mid
        else:
            edge_lo = mid
    incumbent = cache[best_x]
    assert incumbent.feasible and incumbent.system_life >= life_floor
    return best_x, incumbent.sizing
