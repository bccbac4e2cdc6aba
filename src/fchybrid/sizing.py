"""Mass-budget allocation and setpoint optimization.

Closed-form sizing splits a total supply mass among stack, battery, fuel,
and electronics:

  - hybrid: stack for the steady draw, battery for the peak, the rest of
    the budget is fuel
  - direct fuel cell: an oversized stack (twice the steady-power stack)
    with no battery or converter electronics, the rest is fuel
  - battery only: the whole budget is one pack

One rule, rate, rates every supply for `size` and `compare` alike: a
pack runs from full at its load, a fuel supply on its fuel alone at the
most its stack sustains, and run time, life and peak capability are read
from the supply's parts through the closed-form endurance, system_life
and the stack ceiling simulate uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import InfeasibleError, ValidationError, bounded, check_fields
from .powertrain import FUEL_SPECIFIC_ENERGY, STACK_SPECIFIC_POWER, BatterySpec, \
    FuelCellStackSpec, FuelTankSpec, ElectronicsSpec, fc_life, fuel_energy
from .profile import PowerProfile, profile_stats
from .simulator import (
    HybridConfig,
    MODE_BATTERY,
    MODE_DIRECT,
    MODE_HYBRID,
    checked_dt,
    run_time_constant_load,
    simulate,
)
from .controller import ControllerParams


_STACK_FACTOR = 2.0  # a direct stack over the steady-power stack
_UNBUFFERED_RIPPLE = 1.0  # the ripple the closed form assumes with no battery
_TOLERANCE = 0.1  # W, the setpoint search's first step


def _to_gram(mass_kg: float) -> float:
    # component allocations land on whole grams; fuel absorbs the remainder
    return round(mass_kg, 3)


@dataclass(frozen=True)
class SizingInputs:
    """The mission a supply is sized for and the specific figures the
    allocator works from. SI masses, Wh energies."""

    mass_budget: float = bounded("> 0")  # kg for the whole supply
    steady_power: float = bounded(">= 0")  # W the stack must sustain
    peak_power: float  # W the supply must survive
    stack_specific_power: float = bounded("> 0", STACK_SPECIFIC_POWER)  # W/kg
    battery_specific_power: float = bounded("> 0", 1850.0)  # W/kg
    battery_specific_energy: float = bounded(">= 0", 90.0)  # Wh/kg
    fuel_specific_energy: float = bounded("> 0", FUEL_SPECIFIC_ENERGY)  # Wh/kg, electrical side
    electronics_mass: float = bounded(">= 0", 0.115)  # kg

    def __post_init__(self):
        check_fields(self)
        if self.peak_power < self.steady_power:
            raise ValidationError("peak_power must be >= steady_power")


@dataclass(slots=True)
class SizingResult:
    """Mass split, the supply it builds, and the figures of merit it implies.

    config is that supply, ready to simulate, and rate reads every figure
    from its parts. energy_density is the fuel-basis Wh/kg convention used
    in supply comparisons; system_energy_density divides total stored
    energy by the whole supply mass.
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
    config: HybridConfig
    label: str = ""
    warnings: list[str] = field(default_factory=list)


def default_battery_template(inputs: SizingInputs) -> BatterySpec:
    """Nanophosphate-style pack used when sizing hybrids: sized for power,
    lossless accounting, full usable window."""
    return BatterySpec(
        chemistry="nanophosphate",
        mass=0.0,
        specific_energy=inputs.battery_specific_energy,
        specific_power=inputs.battery_specific_power,
        charge_efficiency=1.0,
        discharge_efficiency=1.0,
        cycle_life=1000.0,
        soc_min=0.0,
        soc_max=1.0,
    )


def supply_label(mode: str, chemistry: str = "") -> str:
    """Table 1's name for a supply: 'fuel cell', 'fuel cell hybrid' or
    '<chemistry> battery'."""
    if mode == MODE_BATTERY:
        return f"{chemistry} battery"
    return "fuel cell hybrid" if mode == MODE_HYBRID else "fuel cell"


def _stack(power: float, inputs: SizingInputs) -> FuelCellStackSpec:
    """The stack of whole grams sized for the given power, at least 1 g for
    a power above 0 W."""
    mass = max(_to_gram(power / inputs.stack_specific_power), 0.001 if power > 0 else 0.0)
    return FuelCellStackSpec.from_mass(mass, specific_power=inputs.stack_specific_power)


def rate(config: HybridConfig, pack_load: float) -> SizingResult:
    """The sizing of any supply, every figure read from its parts.

    A pack runs from full at pack_load. A fuel supply runs on its fuel
    alone, its pack at the floor, at its effective setpoint times the
    converter efficiency: the most its stack sustains at the load. The
    run time is run_time_constant_load at that load basis (endless at
    0 W) and the life system_life's over it. The peak capability is the
    stack_ceiling simulate caps the stack at plus the pack's power bound,
    and a sum that overflows a float raises ValidationError.
    system_energy_density divides the stored energy by the supply's total
    mass, and is 0 for a supply of no mass. The result is feasible and has
    no warnings; an allocator that finds otherwise sets both.
    """
    battery, tank = config.battery, config.tank
    if config.mode == MODE_BATTERY:
        load, density, initial_soc = pack_load, battery.specific_energy, None
    else:
        load = config.effective_setpoint * config.electronics.converter_efficiency
        density, initial_soc = tank.specific_energy_electric, battery.soc_min
    run_time = (run_time_constant_load(config, load, initial_soc=initial_soc)
                if load > 0 else math.inf)
    mass = config.total_mass
    stored = fuel_energy(tank) + battery.capacity_wh
    if not math.isfinite(peak := config.stack_ceiling + battery.max_power_w):
        raise ValidationError(f"peak_capability must be finite, got {peak}")
    return SizingResult(
        mode=config.mode,
        stack_mass=config.stack.mass,
        battery_mass=battery.mass,
        fuel_mass=tank.fuel_mass,
        electronics_mass=config.electronics.mass,
        run_time=run_time,
        system_life=system_life(config, run_time),
        energy_density=density,
        system_energy_density=stored / mass if mass > 0 else 0.0,
        load_basis=load,
        peak_capability=peak,
        feasible=True,
        config=config,
        label=supply_label(config.mode, battery.chemistry),
    )


def _fuel_supply(inputs: SizingInputs, mode: str, stack: FuelCellStackSpec,
                 battery_mass: float, electronics_mass: float,
                 over_budget: str) -> SizingResult:
    """A fuel supply whose fuel takes what its parts leave of the budget,
    rated by rate with the stack's setpoint the steady draw capped at its
    rating.

    Parts over the budget leave no fuel and an infeasible result, whose
    first warning is over_budget. A supply whose peak capability falls
    short of the peak is warned of that last.
    """
    fuel_mass = inputs.mass_budget - stack.mass - battery_mass - electronics_mass
    config = HybridConfig(
        stack=stack, battery=default_battery_template(inputs).scaled(battery_mass),
        tank=FuelTankSpec(max(fuel_mass, 0.0), inputs.fuel_specific_energy),
        electronics=ElectronicsSpec(electronics_mass),
        controller=ControllerParams(fc_setpoint=min(inputs.steady_power,
                                                    stack.rated_power)),
        mode=mode)
    sized = rate(config, 0.0)  # a fuel supply has no pack load
    sized.feasible = fuel_mass >= -1e-12
    if not sized.feasible:
        sized.warnings.append(over_budget)
    if sized.peak_capability < inputs.peak_power:
        parts = "stack and pack" if mode == MODE_HYBRID else "stack"
        sized.warnings.append(f"{parts} rated {sized.peak_capability:g} W "
                              f"cannot meet {inputs.peak_power:g} W peaks")
    return sized


def size_hybrid(inputs: SizingInputs) -> SizingResult:
    """Allocate stack to the steady draw, battery to the peak, fuel last."""
    stack = _stack(inputs.steady_power, inputs)
    battery_mass = _to_gram(inputs.peak_power / inputs.battery_specific_power)
    parts = stack.mass + battery_mass + inputs.electronics_mass
    return _fuel_supply(
        inputs, MODE_HYBRID, stack, battery_mass, inputs.electronics_mass,
        f"stack, battery, and electronics need {parts:.3f} kg, "
        f"over the {inputs.mass_budget:.3f} kg budget")


def size_direct_fc(inputs: SizingInputs) -> SizingResult:
    """Stack-plus-tank supply with no battery buffer.

    The stack is twice the steady-power stack to ride load swings. Like
    every stack it runs at 0.8 V; unbuffered, it is assumed to see a
    relative ripple of 1, which sets its life (about 120 h).
    """
    stack = _stack(_STACK_FACTOR * inputs.steady_power, inputs)
    return _fuel_supply(
        inputs, MODE_DIRECT, stack, 0.0, 0.0,
        f"stack alone ({stack.mass:.3f} kg) exceeds the budget")


def size_battery_only(template: BatterySpec, mass_budget: float,
                      average_load: float) -> SizingResult:
    """The whole budget becomes one pack of the template's chemistry,
    rated at the average load."""
    if not 0.0 < mass_budget < math.inf:
        raise ValidationError("mass_budget must be finite and > 0")
    if not 0.0 < average_load < math.inf:
        raise ValidationError("average_load must be finite and > 0")
    config = HybridConfig(
        stack=FuelCellStackSpec.from_mass(0.0), battery=template.scaled(mass_budget),
        tank=FuelTankSpec(0.0), controller=ControllerParams(fc_setpoint=0.0),
        mode=MODE_BATTERY)
    return rate(config, average_load)


def system_life(config: HybridConfig, run_time: float | None = None, *,
                battery_cycles: float = 0.0, ripple: float | None = None) -> float:
    """Service-life horizon of a configuration in hours.

    Battery packs last cycle_life full cycles, so their horizon scales
    with run-time per cycle. A stack's life is the degradation law at its
    cell voltage and relative ripple: the measured ripple when given, else
    the closed form's assumption, 1 for an unbuffered direct_fc stack and
    0 behind a battery. A hybrid takes the minimum of its stack life and
    the battery's cycle horizon (infinite when the run cycles it zero
    times, as a steady load does).
    """
    if config.mode == MODE_BATTERY:
        if run_time is None:
            raise ValidationError("battery life needs the run_time per cycle")
        return config.battery.cycle_life * run_time
    if ripple is None:
        ripple = _UNBUFFERED_RIPPLE if config.mode == MODE_DIRECT else 0.0
    stack_life = fc_life(config.stack.cell_voltage, ripple, config.degradation)
    if config.mode == MODE_DIRECT:
        return stack_life
    if battery_cycles > 0.0 and run_time:
        cycle_horizon = config.battery.cycle_life * run_time / battery_cycles
        return min(stack_life, cycle_horizon)
    return stack_life


@dataclass(frozen=True)
class SetpointEvaluation:
    """One candidate setpoint, judged on a settled profile pass."""

    setpoint: float  # W
    run_time: float  # h, fuel-limited endurance estimate
    system_life: float  # h
    unmet_energy: float  # Wh within the judged pass
    net_drain_wh: float  # battery energy lost per steady pass, Wh stored
    reason: str  # first failed constraint when infeasible
    sizing: SizingResult

    @property
    def feasible(self) -> bool:
        """Meets demand and sustains the battery."""
        return not self.reason


def _supply(inputs: SizingInputs, setpoint: float) -> SizingResult:
    """The hybrid sized for a setpoint."""
    return size_hybrid(replace(inputs, steady_power=setpoint))


def _drain_tolerance(config: HybridConfig) -> float:
    """Net drain per judged pass, in stored Wh, that still counts as
    sustained: the settled orbit can straddle the pass boundary by a few
    ppm of capacity; a larger drain is genuine unless the pass filled the
    pack."""
    return max(1e-6 * config.battery.capacity_wh, 1e-9)


def evaluate_setpoint(profile: PowerProfile, inputs: SizingInputs,
                      setpoint: float, *, dt: float | None = None
                      ) -> SetpointEvaluation:
    """Size a hybrid for the given setpoint and judge one settled pass.

    The reason names the setpoint's kind: too low ("unmet_demand" or
    "battery_drain"), feasible ("") or over budget ("mass_budget"). From
    0 W up the three kinds read in that order.

    The profile is treated as periodic. A first pass absorbs the filter
    and charge transients of starting from a full pack; the second pass,
    started from the settled state, must meet demand with zero unmet
    energy and must not net-drain the battery, unless it filled the pack
    to soc_max: from there on the pass no longer depends on where it
    began, so the orbit is anchored at the top. The endurance estimate is
    the fuel horizon at that pass's average burn rate.

    A supply over the mass budget fails on mass_budget before any
    simulation, and so does one whose tank holds less than one stepped
    pass (the profile's duration plus at most one step) at its effective
    setpoint: there the budget, not the setpoint, runs short. The stack
    and that fuel grow with the setpoint. The fuel rule is a conservative
    bound: a stack above the load throttles to it, so some supplies it
    fails would carry the pass on the fuel they have.

    The setpoint is read only through the supply it builds, so two
    setpoints that build one supply get evaluations equal but for setpoint.
    """
    if not setpoint >= 0:
        raise ValidationError("setpoint must be >= 0")
    dt = checked_dt(profile, dt)
    sized = _supply(inputs, setpoint)
    config = sized.config
    fuel_wh = fuel_energy(config.tank)
    if (not sized.feasible
            or fuel_wh < config.effective_setpoint * (profile.duration + dt) / 3600.0):
        return SetpointEvaluation(setpoint, 0.0, 0.0, 0.0, 0.0,
                                  "mass_budget", sized)
    settle = simulate(config, profile, dt=dt)
    res = simulate(config, profile, dt=dt, initial_soc=settle.soc_final)
    pass_h = res.run_time
    net_drain = (res.soc_initial - res.soc_final) * config.battery.capacity_wh
    burn_rate = (res.fuel_consumed * config.tank.specific_energy_electric
                 / pass_h) if pass_h > 0 else 0.0
    run_time = fuel_wh / burn_rate if burn_rate > 0 else math.inf
    life = system_life(config, run_time=pass_h, battery_cycles=res.battery_cycles,
                       ripple=res.ripple)
    if res.unmet_energy > 1e-9:
        reason = "unmet_demand"
    elif (net_drain > _drain_tolerance(config)
          and res.soc_high < config.battery.soc_max):
        reason = "battery_drain"
    else:
        reason = ""
    return SetpointEvaluation(setpoint, run_time, life, res.unmet_energy,
                              net_drain, reason, sized)


def optimize_setpoint(profile: PowerProfile, inputs: SizingInputs, *,
                      dt: float | None = None) -> tuple[float, SizingResult]:
    """Pick the fuel-cell setpoint that maximizes endurance on the profile.

    From 0 W up, setpoints are too low (L), feasible (o), then over budget
    (H), in that order (see evaluate_setpoint). The optimum is the lowest
    feasible one: a sustained pass burns the load whatever the setpoint,
    while every 1/stack_specific_power kg of stack a higher setpoint needs
    is fuel the budget loses.

    From the profile's average power, clamped to [0, peak_power], the
    search steps down while the setpoint is not too low and up while it
    is, the first step 0.1 W and each later one twice the last, until it
    brackets the edge of L; it then bisects the bracket to 1e-4 W and
    returns its upper end if that is feasible. So it finds any feasible
    band wider than 1e-4 W, however close the budget pins it to the edge.

    The bisection asks whether each midpoint is too low, and answers from
    the L*o*H* order where it can: a midpoint at or below a setpoint judged
    too low is too low, one at or above a judged setpoint that is not too
    low is not, counting only setpoints inside the current bracket. Where
    the order cannot answer, the search predicts the edge from the highest
    judged setpoint that drained the pack: the sized pack and converter
    are lossless, so the drain falls by duration / 3600 Wh per watt of
    effective setpoint. It runs the rest of the bisection on paper against
    that edge, on effective setpoints from the closed-form sizing, and
    judges only the two ends of the bracket that run ends in. If they
    straddle the edge, the order answers every remaining midpoint; if not,
    they still narrow the bracket, and the midpoint is judged itself. So
    every midpoint gets the answer its own judgement would give, and the
    answer is plain bisection's, from about 4 judged setpoints on a 60 s
    gait where plain bisection judges about 12. A setpoint whose supply
    was judged takes that judgement (see evaluate_setpoint), so each
    supply is evaluated once per search.
    Deterministic. If no feasible setpoint is found, raises InfeasibleError
    naming the binding constraint: unmet_demand when every setpoint up to
    peak_power is too low, otherwise mass_budget.
    """
    cache: dict[float, SetpointEvaluation] = {}

    def judge(x: float) -> SetpointEvaluation:
        if x not in cache:
            config = _supply(inputs, x).config
            same = next((ev for ev in cache.values()
                         if ev.sizing.config == config), None)
            cache[x] = (replace(same, setpoint=x) if same is not None
                        else evaluate_setpoint(profile, inputs, x, dt=dt))
        return cache[x]

    def too_low(x: float) -> bool:
        return judge(x).reason in ("unmet_demand", "battery_drain")

    peak = inputs.peak_power
    x = min(max(profile_stats(profile).average_power, 0.0), peak)
    lo, hi = (x, None) if too_low(x) else (None, x)
    step = _TOLERANCE
    while (lo is None and hi > 0.0) or (hi is None and lo < peak):
        x = max(hi - step, 0.0) if lo is None else min(lo + step, peak)
        lo, hi = (x, hi) if too_low(x) else (lo, x)
        step *= 2.0

    refine = _TOLERANCE * 1e-3

    def bisect(lo: float, hi: float, low) -> tuple[float, float]:
        while hi - lo > refine:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if low(mid, lo, hi) else (lo, mid)
        return lo, hi

    def by_order(mid: float, lo: float, hi: float) -> bool | None:
        # a too-low point at or above mid is checked first, so the bracket
        # keeps a judged too-low point even if the order ever failed
        judged = [(x, too_low(x)) for x in cache if lo <= x <= hi]
        if any(low and x >= mid for x, low in judged):
            return True
        if any(not low and x <= mid for x, low in judged):
            return False
        return None

    def predicted_edge(lo: float, hi: float) -> float | None:
        y = max((x for x in cache if lo <= x <= hi and too_low(x)), default=None)
        if y is None or cache[y].reason != "battery_drain":
            return None
        config = cache[y].sizing.config
        return config.effective_setpoint + (
            (cache[y].net_drain_wh - _drain_tolerance(config))
            * 3600.0 / profile.duration)

    def answer(mid: float, lo: float, hi: float) -> bool:
        known = by_order(mid, lo, hi)
        if known is None and (edge := predicted_edge(lo, hi)) is not None:
            for end in bisect(lo, hi, lambda q, *_: (
                    _supply(inputs, q).config.effective_setpoint < edge)):
                judge(end)
            known = by_order(mid, lo, hi)
        return too_low(mid) if known is None else known

    if lo is not None and hi is not None:
        lo, hi = bisect(lo, hi, answer)
    if hi is None or not judge(hi).feasible:
        binding = "unmet_demand" if hi is None else "mass_budget"
        raise InfeasibleError(
            f"no setpoint in [0, {peak:g}] W satisfies the "
            f"constraints (binding: {binding})", binding_constraint=binding)
    return hi, cache[hi].sizing
