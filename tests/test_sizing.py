import math
import re
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fchybrid import presets, sizing
from fchybrid.errors import InfeasibleError, ValidationError
from fchybrid.powertrain import fc_life
from fchybrid.profile import (
    GaitParams,
    PowerProfile,
    profile_stats,
    synthesize_walk_profile,
)
from fchybrid.report import compare
from fchybrid.simulator import (
    MODE_BATTERY,
    MODE_DIRECT,
    MODE_HYBRID,
    default_dt,
    run_time_constant_load,
    simulate,
)
from fchybrid.sizing import (
    SizingConstants,
    SizingInputs,
    default_battery_template,
    evaluate_setpoint,
    optimize_setpoint,
    size_battery_only,
    size_direct_fc,
    size_hybrid,
    supply_label,
    system_life,
)

INPUTS = SizingInputs(mass_budget=1.2, steady_power=45.0, peak_power=250.0)
WALK = GaitParams(base_load=40.0, gait_period=1.0, stride_duty=0.5,
                  mech_peak=5.0, duration=60.0)
REFINE = 0.1 * 1e-3  # the search's bisection width, 1e-4 W
# a pack of each chemistry the tests size: the two presets and a buffer pack
PACKS = [presets.NIMH_TEMPLATE, presets.LIION_TEMPLATE,
         replace(default_battery_template(), chemistry="LiFePO4")]


def flat_profile(power=45.0, duration=600.0):
    return PowerProfile(times=np.array([0.0, duration]),
                        power=np.array([power, power]))


@pytest.fixture
def evaluations(monkeypatch):
    """Every evaluation optimize_setpoint makes, in call order."""
    seen = []
    evaluate = sizing.evaluate_setpoint

    def counted(*args, **kwargs):
        ev = evaluate(*args, **kwargs)
        seen.append(ev)
        return ev

    monkeypatch.setattr(sizing, "evaluate_setpoint", counted)
    return seen


@pytest.fixture
def simulations(monkeypatch):
    """How many times the sizing module has called simulate."""
    seen = []
    simulate = sizing.simulate

    def counted(*args, **kwargs):
        seen.append(None)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(sizing, "simulate", counted)
    return seen


def lowest_servable_setpoint(load: float, peak: float = 250.0) -> float:
    """Closed form of the flat-load optimum: the stack delivers the lesser
    of its setpoint and its rating, and its mass lands on whole grams, so
    the lowest setpoint x with min(x, 300 * round(x / 300, 3)) >= load."""
    def serves(x):
        return min(x, 300.0 * round(x / 300.0, 3)) >= load
    lo, hi = 0.0, peak
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if serves(mid) else (mid, hi)
    return hi


def assert_row_reads_the_sizing(row, sized, peak):
    """compare's row of a sizing's config gives the sizing's figures."""
    fuel = sized.mode != MODE_BATTERY
    assert row.label == sized.label
    assert row.stack_mass == (sized.stack_mass if fuel else None)
    assert row.fuel_mass == (sized.fuel_mass if fuel else None)
    assert row.energy_density == sized.energy_density
    assert row.run_time == sized.run_time
    assert row.load_basis == sized.load_basis
    assert row.system_life == sized.system_life
    assert row.feasible_at_peak == (sized.peak_capability >= peak)


class TestInputsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"stack_specific_power": 0.0},
        {"battery_specific_power": -1.0},
        {"battery_specific_energy": -1.0},
        {"fuel_specific_energy": 0.0},
        {"electronics_mass": -0.1},
    ])
    def test_constants(self, kwargs):
        with pytest.raises(ValidationError):
            SizingConstants(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"mass_budget": 0.0, "steady_power": 45.0, "peak_power": 250.0},
        {"mass_budget": 1.2, "steady_power": -1.0, "peak_power": 250.0},
        {"mass_budget": 1.2, "steady_power": 45.0, "peak_power": 40.0},
    ])
    def test_inputs(self, kwargs):
        with pytest.raises(ValidationError):
            SizingInputs(**kwargs)


class TestSizeHybrid:
    def test_reference_allocation(self):
        r = size_hybrid(INPUTS)
        assert r.mode == MODE_HYBRID
        assert r.stack_mass == 0.15
        assert r.battery_mass == 0.135
        assert r.electronics_mass == 0.115
        assert r.fuel_mass == 0.8
        assert r.config.total_mass == 1.2
        assert r.run_time == 88.0
        assert r.system_life == 26280.0
        assert r.energy_density == 4950.0
        assert math.isclose(r.peak_capability, 294.75)
        assert r.load_basis == 45.0
        assert r.feasible
        assert r.warnings == []
        assert r.label == "fuel cell hybrid"

    def test_system_energy_density_counts_both_stores(self):
        r = size_hybrid(INPUTS)
        expected = (0.8 * 4950.0 + 0.135 * 90.0) / 1.2
        assert math.isclose(r.system_energy_density, expected)

    def test_zero_peak_zero_battery(self):
        r = size_hybrid(SizingInputs(1.2, 0.0, 0.0))
        assert r.battery_mass == 0.0
        assert r.stack_mass == 0.0
        assert r.run_time == math.inf

    def test_budget_overrun_flagged(self):
        r = size_hybrid(SizingInputs(0.3, 45.0, 250.0))
        assert not r.feasible
        assert r.fuel_mass == 0.0
        assert len(r.warnings) == 1
        assert "budget" in r.warnings[0]

    @pytest.mark.parametrize("steady, capability, warned", [
        (0.0, 249.75, True), (0.2, 249.95, True), (0.5, 250.25, False)])
    def test_pack_rounded_below_the_peak_is_warned(self, steady, capability,
                                                   warned):
        # 250 W rounds to a 0.135 kg pack, which sources 249.75 W
        r = size_hybrid(SizingInputs(1.2, steady, 250.0))
        assert math.isclose(r.peak_capability, capability)
        assert r.feasible
        assert r.warnings == ([f"stack and pack rated {capability:g} W "
                               "cannot meet 250 W peaks"] if warned else [])

    def test_part_too_heavy_for_a_float_is_rejected(self):
        # 1e10 W at 1e-300 W/kg is a stack of more than the largest float
        c = SizingConstants(stack_specific_power=1e-300)
        with pytest.raises(ValidationError, match="finite"):
            size_hybrid(SizingInputs(1.2, 1e10, 1e10, c))

    def test_fuel_grows_with_budget(self):
        rng = np.random.default_rng(11)
        budgets = np.sort(rng.uniform(0.5, 3.0, 20))
        results = [size_hybrid(SizingInputs(float(b), 45.0, 250.0))
                   for b in budgets]
        for tight, roomy in zip(results, results[1:]):
            assert roomy.fuel_mass >= tight.fuel_mass
            assert roomy.run_time >= tight.run_time


class TestSizeDirectFc:
    def test_reference_allocation(self):
        r = size_direct_fc(INPUTS)
        assert r.mode == MODE_DIRECT
        assert r.stack_mass == 0.3
        assert r.battery_mass == 0.0
        assert r.electronics_mass == 0.0
        # 1.2 - 0.3 carries an ulp of dust; the energy product still lands
        # exactly on 4455 Wh and 99 h
        assert math.isclose(r.fuel_mass, 0.9)
        assert r.run_time == 99.0
        assert r.peak_capability == 90.0
        assert r.system_life == fc_life(0.8, 1.0)
        assert r.feasible
        assert r.warnings == ["stack rated 90 W cannot meet 250 W peaks"]
        assert r.label == "fuel cell"

    def test_peak_within_rating_no_warning(self):
        r = size_direct_fc(SizingInputs(1.2, 45.0, 90.0))
        assert r.warnings == []

    @pytest.mark.parametrize("allocate, steady", [(size_direct_fc, 0.07),
                                                  (size_hybrid, 0.1)])
    def test_a_draw_gets_at_least_a_gram_of_stack(self, allocate, steady):
        # the draw needs under half a gram of stack, which rounds to 0 g; a
        # 0 g stack sources none of the draw yet was rated to run forever
        r = allocate(SizingInputs(1.2, steady, 250.0))
        assert r.stack_mass == 0.001
        assert r.config.stack.rated_power == 0.3
        assert r.load_basis == steady
        assert r.run_time < math.inf
        assert r.feasible

    def test_stack_alone_can_bust_budget(self):
        r = size_direct_fc(SizingInputs(0.25, 45.0, 250.0))
        assert not r.feasible
        assert r.fuel_mass == 0.0
        assert any("budget" in w for w in r.warnings)


class TestSizeBatteryOnly:
    def test_nimh_pack(self):
        r = size_battery_only(presets.NIMH_TEMPLATE, 1.2, 16.0)
        assert r.mode == MODE_BATTERY
        assert r.battery_mass == 1.2
        assert r.stack_mass == 0.0
        assert r.fuel_mass == 0.0
        assert r.run_time == 3.0
        assert r.system_life == 3000.0
        assert r.energy_density == 40.0
        assert r.label == "NiMH battery"

    def test_liion_pack(self):
        r = size_battery_only(presets.LIION_TEMPLATE, 1.2, 16.0)
        assert r.run_time == 9.0
        assert r.system_life == 9000.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            size_battery_only(presets.NIMH_TEMPLATE, 0.0, 16.0)
        with pytest.raises(ValidationError):
            size_battery_only(presets.NIMH_TEMPLATE, 1.2, 0.0)

    @pytest.mark.parametrize("budget, load", [
        (1.2, math.nan), (1.2, math.inf), (math.nan, 16.0), (math.inf, 16.0)])
    def test_non_finite_inputs_rejected(self, budget, load):
        with pytest.raises(ValidationError, match="finite and > 0"):
            size_battery_only(presets.NIMH_TEMPLATE, budget, load)


class TestSupplyLabel:
    """One rule names a supply, for the allocators and the comparison rows."""

    @pytest.mark.parametrize("mode, chemistry, label", [
        (MODE_HYBRID, "", "fuel cell hybrid"),
        (MODE_DIRECT, "", "fuel cell"),
        (MODE_HYBRID, "NiMH", "fuel cell hybrid"),  # the buffer does not name it
        (MODE_BATTERY, "NiMH", "NiMH battery"),
    ])
    def test_rule(self, mode, chemistry, label):
        assert supply_label(mode, chemistry) == label

    @pytest.mark.parametrize("chemistry", ["NiMH", "Li-ion", "LiFePO4"])
    def test_pack_row_names_its_chemistry(self, chemistry):
        template = replace(presets.NIMH_TEMPLATE, chemistry=chemistry)
        sized = size_battery_only(template, 1.2, 16.0)
        row = compare([sized.config])[0]
        assert sized.label == row.label == f"{chemistry} battery"

    @pytest.mark.parametrize("allocate", [size_hybrid, size_direct_fc])
    def test_fuel_row_ignores_the_buffer_chemistry(self, allocate):
        template = replace(default_battery_template(), chemistry="LiFePO4")
        sized = allocate(INPUTS)
        row = compare([replace(sized.config,
                               battery=template.scaled(sized.battery_mass))])[0]
        assert row.label == sized.label == supply_label(sized.mode)


class TestInternalConsistency:
    def test_sizing_run_times_match_constant_load_estimates(self):
        """Each preset sizing's run-time figure must be reproduced exactly
        by the closed-form endurance of the configuration realizing it.
        Fuel-basis figures ignore the pack, so those start at the floor."""
        for r, cfg in zip(presets.comparison_sizings(), presets.comparison_configs(),
                          strict=True):
            if r.mode == MODE_BATTERY:
                hours = run_time_constant_load(cfg, r.load_basis)
            else:
                hours = run_time_constant_load(cfg, r.load_basis,
                                               initial_soc=cfg.battery.soc_min)
            assert hours == r.run_time, r.label

    @pytest.mark.parametrize("allocate", [size_hybrid, size_direct_fc])
    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(budget=st.floats(min_value=0.01, max_value=2.5),
           steady=st.floats(min_value=0.0, max_value=300.0),
           extra_peak=st.floats(min_value=0.0, max_value=2000.0),
           electronics=st.floats(min_value=0.0, max_value=0.3))
    # hybrid parts exactly the budget; direct stack exactly the budget
    @example(budget=0.4, steady=45.0, extra_peak=205.0, electronics=0.115)
    @example(budget=0.3, steady=45.0, extra_peak=205.0, electronics=0.115)
    @example(budget=0.29, steady=45.0, extra_peak=0.0, electronics=0.115)
    @example(budget=1.2, steady=0.0, extra_peak=250.0, electronics=0.115)
    @example(budget=1.2, steady=0.0, extra_peak=0.0, electronics=0.115)
    # a hybrid stack rounded to 0.150 kg, rated 45.0 W below the draw
    @example(budget=1.2, steady=45.1, extra_peak=204.9, electronics=0.115)
    # a direct stack under half a gram for a draw, rounded up to 1 g
    @example(budget=1.2, steady=0.07, extra_peak=249.93, electronics=0.115)
    def test_fuel_takes_what_the_parts_leave(self, allocate, budget, steady,
                                             extra_peak, electronics):
        c = SizingConstants(electronics_mass=electronics)
        peak = steady + extra_peak
        r = allocate(SizingInputs(budget, steady, peak, c))
        parts = r.stack_mass + r.battery_mass + r.electronics_mass
        event(f"{r.mode} feasible={r.feasible}")
        if r.feasible:
            assert abs(parts + r.fuel_mass - budget) <= 1e-12
        else:
            assert parts > budget
            assert r.fuel_mass == 0.0
            assert "budget" in r.warnings[0]
        peak_warnings = [w for w in r.warnings if "peak" in w]
        assert bool(peak_warnings) == (r.peak_capability < peak)
        if peak_warnings:
            assert peak_warnings == r.warnings[-1:]
        assert len(r.warnings) == (not r.feasible) + len(peak_warnings)
        # every figure is the rating of the supply the sizing built
        cfg = r.config
        assert (r.stack_mass, r.battery_mass, r.fuel_mass, r.electronics_mass) == (
            cfg.stack.mass, cfg.battery.mass, cfg.tank.fuel_mass, cfg.electronics.mass)
        assert cfg.mode == r.mode
        assert (cfg.stack.mass > 0) == (steady > 0)
        assert cfg.effective_setpoint == min(steady, cfg.stack.rated_power)
        assert r.load_basis == cfg.effective_setpoint
        if r.load_basis > 0:
            assert r.run_time == run_time_constant_load(
                cfg, r.load_basis, initial_soc=cfg.battery.soc_min)
        else:
            assert r.run_time == math.inf
        assert r.system_life == system_life(cfg, r.run_time)
        assert r.peak_capability == cfg.stack_ceiling + cfg.battery.max_power_w
        # and compare, wherever it accepts the supply, rates it the same
        if r.load_basis == 0:
            with pytest.raises(ValidationError, match="load basis"):
                compare([cfg])
        elif peak > 0:
            assert_row_reads_the_sizing(compare([cfg], peak_power=peak)[0], r, peak)

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(template=st.sampled_from(PACKS),
           budget=st.floats(min_value=0.001, max_value=3.0),
           load=st.floats(min_value=0.1, max_value=300.0),
           peak=st.floats(min_value=0.1, max_value=1000.0))
    # a 25 W NiMH pack at 30 W runs 0 h
    @example(template=presets.NIMH_TEMPLATE, budget=0.1, load=30.0, peak=25.0)
    def test_pack_figures_read_the_pack(self, template, budget, load, peak):
        r = size_battery_only(template, budget, load)
        cfg = r.config
        # the pack and the chemistry that sized it cannot be paired apart
        assert cfg.battery == template.scaled(budget)
        assert r.load_basis == load
        assert r.run_time == run_time_constant_load(cfg, load)
        assert r.system_life == system_life(cfg, r.run_time)
        assert r.peak_capability == cfg.battery.max_power_w
        event(f"over the pack's bound={load > r.peak_capability}")
        row = compare([cfg], peak_power=peak, battery_load=load)[0]
        assert_row_reads_the_sizing(row, r, peak)


class TestSystemLife:
    def test_battery_config_needs_run_time(self):
        cfg = presets.nimh_config()
        with pytest.raises(ValidationError):
            system_life(cfg)
        assert system_life(cfg, 3.0) == 3000.0

    def test_direct_config_is_stack_bound(self):
        # the closed form assumes an unbuffered stack sees ripple 1
        cfg = presets.direct_fc_config()
        assert system_life(cfg) == fc_life(0.8, 1.0)

    def test_measured_ripple_replaces_the_assumed_one(self):
        cfg = presets.direct_fc_config()
        assert system_life(cfg, ripple=0.0) == 26280.0
        assert system_life(cfg, ripple=0.385) == fc_life(0.8, 0.385)

    def test_hybrid_takes_minimum_of_stack_and_cycle_horizon(self):
        cfg = presets.hybrid_config()
        assert system_life(cfg) == 26280.0
        assert system_life(cfg, run_time=1.0, battery_cycles=2000.0) == 0.5

    def test_ripple_shortens_stack_life(self):
        cfg = presets.hybrid_config()
        assert system_life(cfg, ripple=0.5) < system_life(cfg)


class TestSizedConfig:
    """Each sizing carries the supply it sized."""

    def test_hybrid_realization(self):
        cfg = size_hybrid(INPUTS).config
        assert cfg.mode == MODE_HYBRID
        assert cfg.stack.rated_power == 45.0
        assert cfg.stack.cell_voltage == 0.8
        assert cfg.controller.fc_setpoint == 45.0
        assert cfg.battery.mass == 0.135
        assert math.isclose(cfg.battery.capacity_wh, 12.15)
        assert cfg.tank.fuel_mass == 0.8
        assert cfg.electronics.mass == 0.115
        assert math.isclose(cfg.total_mass, 1.2)

    def test_direct_realization(self):
        cfg = size_direct_fc(INPUTS).config
        assert cfg.mode == MODE_DIRECT
        assert cfg.stack.cell_voltage == 0.8
        assert cfg.stack.rated_power == 90.0
        assert cfg.controller.fc_setpoint == 45.0
        assert cfg.battery.mass == 0.0

    def test_battery_realization(self):
        cfg = size_battery_only(presets.NIMH_TEMPLATE, 1.2, 16.0).config
        assert cfg.mode == MODE_BATTERY
        assert cfg.stack.rated_power == 0.0
        assert cfg.stack.mass == 0.0
        assert cfg.tank.fuel_mass == 0.0
        assert cfg.battery.capacity_wh == 48.0


class TestEvaluateSetpoint:
    def test_matched_setpoint_is_sustainable(self):
        ev = evaluate_setpoint(flat_profile(45.0), INPUTS, 45.0, dt=1.0)
        assert ev.feasible
        assert ev.reason == ""
        assert math.isclose(ev.run_time, 88.0, rel_tol=1e-9)
        assert abs(ev.net_drain_wh) <= 1e-9

    def test_starved_setpoint_drains_the_pack(self):
        ev = evaluate_setpoint(flat_profile(45.0), INPUTS, 44.0, dt=1.0)
        assert not ev.feasible
        assert ev.reason == "battery_drain"
        assert ev.net_drain_wh > 0.0

    def test_budget_bust_reported(self):
        ev = evaluate_setpoint(flat_profile(45.0),
                               SizingInputs(0.3, 45.0, 250.0), 45.0, dt=1.0)
        assert not ev.feasible
        assert ev.reason == "mass_budget"

    def test_tank_short_of_one_pass_is_over_budget(self, simulations):
        # one pass is 600 s plus a 1 s step at 45 W, 7.51 Wh: 1 g of fuel
        # (4.95 Wh) falls short of it, 2 g (9.9 Wh) carries it
        short = evaluate_setpoint(flat_profile(45.0),
                                  SizingInputs(0.401, 45.0, 250.0), 45.0, dt=1.0)
        assert (short.feasible, short.reason) == (False, "mass_budget")
        assert simulations == []
        enough = evaluate_setpoint(flat_profile(45.0),
                                   SizingInputs(0.402, 45.0, 250.0), 45.0, dt=1.0)
        assert enough.feasible
        assert len(simulations) == 2

    def test_fuel_rule_is_a_conservative_bound(self, simulations):
        # at 90 W on a 45 W load the stack throttles to the load and one
        # pass burns 7.5 Wh, which 2 g of fuel (9.9 Wh) carries; the rule
        # counts 90 W over 601 s, 15.0 Wh, and calls the supply over budget
        inputs = SizingInputs(0.552, 45.0, 250.0)
        ev = evaluate_setpoint(flat_profile(45.0), inputs, 90.0, dt=1.0)
        assert (ev.feasible, ev.reason) == (False, "mass_budget")
        assert simulations == []
        config = ev.sizing.config
        settle = simulate(config, flat_profile(45.0), dt=1.0)
        judged = simulate(config, flat_profile(45.0), dt=1.0,
                          initial_soc=settle.soc_final)
        assert judged.unmet_energy == 0.0
        assert judged.soc_final == judged.soc_initial
        assert judged.fuel_consumed < ev.sizing.fuel_mass

    @pytest.mark.parametrize("budget", [0.3, 1.2])
    def test_dt_too_fine_for_one_pass(self, budget, simulations):
        # simulate's dt rule holds before the budget is judged: a supply
        # over budget must not turn a refused step into an evaluation
        inputs = SizingInputs(budget, 45.0, 250.0)
        with pytest.raises(ValidationError, match=r"^dt must be >= 6e-06 s: "):
            evaluate_setpoint(flat_profile(45.0), inputs, 45.0, dt=1e-300)
        assert simulations == []

    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1.0])
    def test_step_must_be_finite_and_positive(self, dt, simulations):
        # an infinite step must not read as a tank short of one pass
        with pytest.raises(ValidationError, match="dt must be finite and > 0"):
            evaluate_setpoint(flat_profile(45.0), INPUTS, 45.0, dt=dt)
        assert simulations == []

    def test_dt_left_out_is_the_default_dt(self):
        profile = flat_profile(45.0, duration=60.0)
        assert default_dt(profile) == 1.0
        assert (evaluate_setpoint(profile, INPUTS, 45.0)
                == evaluate_setpoint(profile, INPUTS, 45.0, dt=1.0))

    def test_negative_setpoint_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_setpoint(flat_profile(45.0), INPUTS, -1.0)

    def test_oversized_setpoint_costs_fuel_mass(self):
        at_load = evaluate_setpoint(flat_profile(45.0), INPUTS, 45.0, dt=1.0)
        above = evaluate_setpoint(flat_profile(45.0), INPUTS, 60.0, dt=1.0)
        assert above.feasible
        assert above.run_time < at_load.run_time


def plain_bisection(profile, inputs, *, dt):
    """optimize_setpoint as plain bisection, judging every setpoint it asks
    about: the walk to a bracket of the edge of the too-low setpoints, then
    a bisection of that bracket to 1e-4 W."""
    cache, memo = {}, {}

    def judge(x):
        if x not in cache:
            cache[x] = evaluate_setpoint(profile, inputs, x, dt=dt, memo=memo)
        return cache[x]

    def too_low(x):
        return judge(x).reason in ("unmet_demand", "battery_drain")

    peak = inputs.peak_power
    x = min(max(profile_stats(profile).average_power, 0.0), peak)
    lo, hi = (x, None) if too_low(x) else (None, x)
    step = 0.1
    while (lo is None and hi > 0.0) or (hi is None and lo < peak):
        x = max(hi - step, 0.0) if lo is None else min(lo + step, peak)
        lo, hi = (x, hi) if too_low(x) else (lo, x)
        step *= 2.0
    while lo is not None and hi is not None and hi - lo > REFINE:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if too_low(mid) else (lo, mid)
    if hi is None or not judge(hi).feasible:
        raise InfeasibleError("no feasible setpoint", binding_constraint=(
            "unmet_demand" if hi is None else "mass_budget"))
    return hi, cache[hi].sizing


class TestOptimizeSetpoint:
    def test_flat_load_optimum_sits_at_the_load(self):
        best, sized = optimize_setpoint(flat_profile(45.0), INPUTS, dt=1.0)
        assert abs(best - 45.0) <= 0.1
        # the drain tolerance admits a few ppm of battery subsidy, so the
        # refined edge may sit a hair under the load but no further
        assert best >= 45.0 - 1e-3
        assert sized.stack_mass == 0.15
        assert sized.fuel_mass == 0.8
        assert sized.feasible

    def test_walk_profile_optimum_near_average(self):
        walk = synthesize_walk_profile(WALK)
        best, sized = optimize_setpoint(walk, INPUTS, dt=0.02)
        assert abs(best - 45.0) <= 0.5
        assert sized.feasible

    def test_deterministic(self):
        walk = synthesize_walk_profile(WALK)
        a = optimize_setpoint(walk, INPUTS, dt=0.02)
        b = optimize_setpoint(walk, INPUTS, dt=0.02)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_unservable_peak(self, evaluations):
        spikes = PowerProfile(times=np.array([0.0, 10.0, 30.0]),
                              power=np.array([45.0, 400.0, 400.0]))
        with pytest.raises(InfeasibleError) as err:
            optimize_setpoint(spikes, INPUTS, dt=1.0)
        assert err.value.binding_constraint == "unmet_demand"
        assert len(evaluations) <= 16

    def test_impossible_budget(self, evaluations):
        with pytest.raises(InfeasibleError) as err:
            optimize_setpoint(flat_profile(45.0),
                              SizingInputs(0.2, 45.0, 250.0), dt=1.0)
        assert err.value.binding_constraint == "mass_budget"
        # 45 W is over budget, and so is every setpoint below it: the walk
        # steps down to 0 W without finding one too low
        assert [ev.setpoint for ev in evaluations] == pytest.approx(
            [45.0, 44.9, 44.7, 44.3, 43.5, 41.9, 38.7, 32.3, 19.5, 0.0])
        assert {ev.reason for ev in evaluations} == {"mass_budget"}

    def test_budget_short_of_the_demanded_stack(self):
        # 0.3 kg leaves 0.05 kg of stack, rated 15 W, for a 45 W load: the
        # setpoints below 15 W drain the pack, but the budget is what binds
        with pytest.raises(InfeasibleError) as err:
            optimize_setpoint(flat_profile(45.0),
                              SizingInputs(0.3, 45.0, 250.0), dt=1.0)
        assert err.value.binding_constraint == "mass_budget"

    @pytest.mark.parametrize("profile, dt", [
        (synthesize_walk_profile(WALK), 0.02),
        (flat_profile(199.9), 1.0),
    ], ids=["walk", "flat-199.9"])
    def test_evaluation_count(self, profile, dt, evaluations):
        optimize_setpoint(profile, INPUTS, dt=dt)
        assert len(evaluations) <= 16

    @pytest.mark.parametrize("profile, dt", [
        (synthesize_walk_profile(WALK), 0.02),
        (flat_profile(37.0), 1.0),
        (flat_profile(199.9), 1.0),
    ], ids=["walk", "flat-37", "flat-199.9"])
    def test_answer_sits_on_the_feasibility_edge(self, profile, dt, evaluations):
        best, _ = optimize_setpoint(profile, INPUTS, dt=dt)
        assert best > 0.0
        by_setpoint = {ev.setpoint: ev for ev in evaluations}
        assert by_setpoint[best].feasible
        assert any(best - REFINE <= x < best and not ev.feasible
                   for x, ev in by_setpoint.items())

    def test_infinite_step_rejected_before_any_evaluation(self, evaluations):
        with pytest.raises(ValidationError, match="dt must be finite and > 0"):
            optimize_setpoint(flat_profile(45.0), INPUTS, dt=math.inf)
        assert evaluations == []

    def test_zero_load_optimum_is_zero(self, evaluations):
        best, sized = optimize_setpoint(flat_profile(0.0), INPUTS, dt=1.0)
        assert best == 0.0
        assert sized.stack_mass == 0.0
        assert len(evaluations) == 1

    @settings(derandomize=True, deadline=None, database=None, max_examples=50)
    @given(st.floats(min_value=1.0, max_value=200.0))
    @example(37.0)
    @example(12.34)
    @example(199.9)
    @example(45.0)
    def test_flat_load_matches_closed_form(self, load):
        best, sized = optimize_setpoint(flat_profile(load), INPUTS, dt=1.0)
        assert sized.feasible
        assert abs(best - lowest_servable_setpoint(load)) <= 1e-3

    def test_flickering_gait_is_one_interval(self, evaluations):
        # near balance the judged pass's net drain flickers around the
        # 2.25e-6 Wh tolerance: 46.9 W drains 4e-5 Wh and 47.08 W 9e-6 Wh.
        # Both passes fill the pack, so they are sustained, and every
        # setpoint from the edge up is feasible
        gait = synthesize_walk_profile(GaitParams(
            base_load=36.00043732041543, mech_peak=9.581236722501389,
            stride_duty=0.5577856925722637, gait_period=1.9291490221079899,
            duration=60.0))
        inputs = SizingInputs(0.994, 0.0, 47.08528828634107)
        best, sized = optimize_setpoint(gait, inputs, dt=0.1)
        assert best == 46.76331563009107
        assert sized.feasible
        assert len(evaluations) <= 16
        for x in (46.77, 46.9, 47.0, 47.08):
            assert evaluate_setpoint(gait, inputs, x, dt=0.1).feasible
        below = evaluate_setpoint(gait, inputs, best - REFINE, dt=0.1)
        assert below.reason == "battery_drain"
        # the orbit is anchored at the top: from the pass judged at 46.9 W
        # each further pass refills the pack and meets demand
        config = evaluate_setpoint(gait, inputs, 46.9, dt=0.1).sizing.config
        settle = simulate(config, gait, dt=0.1)
        judged = simulate(config, gait, dt=0.1, initial_soc=settle.soc_final)
        assert judged.soc_initial - judged.soc_final > 0.0
        soc = judged.soc_final
        for _ in range(5):
            run = simulate(config, gait, dt=0.1, initial_soc=soc)
            assert run.soc_high == config.battery.soc_max
            assert run.unmet_energy == 0.0
            soc = run.soc_final

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(base=st.floats(min_value=10.0, max_value=55.0),
           mech_peak=st.floats(min_value=0.0, max_value=25.0),
           duty=st.floats(min_value=0.3, max_value=0.8),
           period=st.floats(min_value=0.5, max_value=3.0),
           grams=st.integers(min_value=-2, max_value=6),
           peak=st.sampled_from([60.0, 100.0, 250.0]))
    # the gaits of test_budgets_across_the_mass_edge
    @example(base=11.275636443490285, mech_peak=20.894127597996743,
             duty=0.5163835339525267, period=2.405700206144855, grams=0,
             peak=100.0)
    @example(base=30.660927935980077, mech_peak=6.731986936035531,
             duty=0.5739981547331244, period=2.8927907036505673, grams=1,
             peak=100.0)
    # the gait of test_flickering_gait_is_one_interval, 20 s long
    @example(base=36.00043732041543, mech_peak=9.581236722501389,
             duty=0.5577856925722637, period=1.9291490221079899, grams=1,
             peak=47.08528828634107)
    def test_answer_is_plain_bisections(self, base, mech_peak, duty, period,
                                        grams, peak):
        """Answered by the L*o*H* order and by predicted probes, every
        midpoint gets the verdict its own evaluation would give: the
        answer, or the binding constraint, is plain bisection's, from no
        more simulations. The budgets lie a few grams of stack either side
        of the mass edge, where a stack rated at the average power leaves
        no fuel."""
        gait = synthesize_walk_profile(GaitParams(
            base_load=base, mech_peak=mech_peak, stride_duty=duty,
            gait_period=period, duration=20.0))
        fixed = size_hybrid(SizingInputs(1.0, 0.0, peak))
        stack_g = round(profile_stats(gait).average_power / 0.3) + grams
        inputs = SizingInputs(stack_g / 1000.0 + fixed.battery_mass
                              + fixed.electronics_mass, 0.0, peak)

        def outcome(search):
            with mock.patch.object(sizing, "simulate", wraps=sizing.simulate) as sim:
                try:
                    best, sized = search(gait, inputs, dt=0.1)
                except InfeasibleError as err:
                    return err.binding_constraint, sim.call_count
            return repr((best, astuple(sized))), sim.call_count

        plain, plain_simulations = outcome(plain_bisection)
        answer, simulations = outcome(optimize_setpoint)
        event(plain if plain in ("unmet_demand", "mass_budget") else "answered")
        assert answer == plain
        assert simulations <= plain_simulations

    # two gaits from 112 g and 130 g of stack up: the first walks down from
    # an over-budget average, the second walks up over a band of 0.3 W
    @pytest.mark.parametrize("base, mech_peak, duty, period, stack_g", [
        (11.275636443490285, 20.894127597996743, 0.5163835339525267,
         2.405700206144855, range(108, 116)),
        (30.660927935980077, 6.731986936035531, 0.5739981547331244,
         2.8927907036505673, range(126, 134)),
    ], ids=["from-over-budget", "over-a-narrow-band"])
    def test_budgets_across_the_mass_edge(self, base, mech_peak, duty, period,
                                          stack_g):
        """A gram at a time across the mass edge, every budget that leaves
        a feasible setpoint gets an answer, however close the setpoints
        over budget sit above the ones too low."""
        gait = synthesize_walk_profile(GaitParams(
            base_load=base, mech_peak=mech_peak, stride_duty=duty,
            gait_period=period, duration=20.0))
        fixed = size_hybrid(SizingInputs(1.0, 0.0, 100.0))
        average = profile_stats(gait).average_power
        answered = []
        for grams in stack_g:
            inputs = SizingInputs(grams / 1000.0 + fixed.battery_mass
                                  + fixed.electronics_mass, 0.0, 100.0)
            memo = {}
            feasible = [x for x in (average + 0.05 * k for k in range(-20, 31))
                        if evaluate_setpoint(gait, inputs, x, dt=0.1,
                                             memo=memo).feasible]
            try:
                best, _ = optimize_setpoint(gait, inputs, dt=0.1)
            except InfeasibleError as err:
                assert err.binding_constraint == "mass_budget"
                assert not feasible
                continue
            assert evaluate_setpoint(gait, inputs, best, dt=0.1).feasible
            assert not feasible or best <= feasible[0]
            answered.append(grams)
        # the sweep straddles the edge
        assert stack_g[0] not in answered and stack_g[-1] in answered

    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(base=st.floats(min_value=10.0, max_value=60.0),
           mech_peak=st.floats(min_value=0.0, max_value=30.0),
           duty=st.floats(min_value=0.1, max_value=1.0),
           period=st.floats(min_value=0.5, max_value=3.0),
           stack_g=st.integers(min_value=30, max_value=400),
           fuel_g=st.integers(min_value=0, max_value=30),
           peak=st.sampled_from([100.0, 150.0, 250.0]))
    # a budget whose largest stack, rated 60 W, leaves no fuel: the
    # setpoints that build it would drain the pack if simulated
    @example(base=40.0, mech_peak=10.0, duty=0.6, period=1.0, stack_g=200,
             fuel_g=0, peak=250.0)
    # the gait of test_flickering_gait_is_one_interval, 20 s long
    @example(base=36.00043732041543, mech_peak=9.581236722501389,
             duty=0.5577856925722637, period=1.9291490221079899, stack_g=824,
             fuel_g=30, peak=47.08528828634107)
    def test_over_budget_setpoints_lie_above_the_rest(
            self, base, mech_peak, duty, period, stack_g, fuel_g, peak):
        """From 0 W up, setpoints read too low (L), feasible (o), then
        over budget (H): once a setpoint is over budget so is every higher
        one, which lets the walk stop at the first."""
        gait = synthesize_walk_profile(GaitParams(
            base_load=base, mech_peak=mech_peak, stride_duty=duty,
            gait_period=period, duration=20.0))
        fixed = size_hybrid(SizingInputs(1.0, 0.0, peak))
        inputs = SizingInputs((stack_g + fuel_g) / 1000.0 + fixed.battery_mass
                              + fixed.electronics_mass, 0.0, peak)
        rated = stack_g / 1000.0 * inputs.constants.stack_specific_power
        average = profile_stats(gait).average_power
        setpoints = sorted({*np.linspace(0.0, peak, 16).tolist(),
                            *(min(max(rated + 0.05 * k, 0.0), peak)
                              for k in range(-7, 7)),
                            *(min(max(average + 0.05 * k, 0.0), peak)
                              for k in range(-10, 31))})
        memo = {}
        kinds = ""
        for x in setpoints:
            ev = evaluate_setpoint(gait, inputs, x, dt=0.1, memo=memo)
            kinds += "o" if ev.feasible else "H" if ev.reason == "mass_budget" else "L"
        assert re.fullmatch("L*o*H*", kinds), kinds


GAIT_10 = synthesize_walk_profile(GaitParams(mech_peak=10.0, duration=60.0))
# the setpoints a search without a memo judges on GAIT_10, taken from such
# a search: the walk's two, then the two ends of the predicted bracket
GAIT_10_SETPOINTS = [
    52.000000000000014, 52.100000000000016, 52.04990234375001, 52.05000000000001,
]
# GAIT_10 and the flat 37 W load revisit supplies, WALK never does; on the
# flat load every setpoint from 36.9 W up to the rounding edge at 37.05 W
# builds the one 0.123 kg, 36.9 W supply
SEARCHES = pytest.mark.parametrize("profile, dt, shares", [
    (GAIT_10, 0.02, True),
    (flat_profile(37.0), 1.0, True),
    (synthesize_walk_profile(WALK), 0.02, False),
], ids=["gait-10", "flat-37", "walk"])


class TestSettledPassMemo:
    @SEARCHES
    def test_answer_is_that_of_a_search_without_it(self, profile, dt, shares,
                                                   monkeypatch):
        shared = optimize_setpoint(profile, INPUTS, dt=dt)
        evaluate = sizing.evaluate_setpoint

        def unshared(*args, memo=None, **kwargs):
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(sizing, "evaluate_setpoint", unshared)
        alone = optimize_setpoint(profile, INPUTS, dt=dt)
        assert repr((shared[0], astuple(shared[1]))) == \
            repr((alone[0], astuple(alone[1])))

    @SEARCHES
    def test_repeated_supplies_are_simulated_once(self, profile, dt, shares,
                                                  evaluations, simulations):
        optimize_setpoint(profile, INPUTS, dt=dt)
        if shares:
            assert len(simulations) < 2 * len(evaluations)
        else:
            assert len(simulations) == 2 * len(evaluations)

    def test_setpoint_sequence_is_unchanged(self, evaluations, monkeypatch):
        # sharing settled passes must not move a judged setpoint
        optimize_setpoint(GAIT_10, INPUTS, dt=0.02)
        shared = [ev.setpoint for ev in evaluations]
        evaluations.clear()
        evaluate = sizing.evaluate_setpoint

        def unshared(*args, memo=None, **kwargs):
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(sizing, "evaluate_setpoint", unshared)
        optimize_setpoint(GAIT_10, INPUTS, dt=0.02)
        assert shared == [ev.setpoint for ev in evaluations] == GAIT_10_SETPOINTS

    def test_setpoints_above_rated_power_share_a_supply(self, simulations):
        # 0.15 kg of stack is rated 45 W: 45.1 W builds the 45 W supply,
        # while 44.9 W caps the same stack lower and is a supply of its own
        walk = synthesize_walk_profile(WALK)
        memo = {}
        for x, total in ((45.0, 2), (45.1, 2), (44.9, 4)):
            ev = evaluate_setpoint(walk, INPUTS, x, dt=0.02, memo=memo)
            assert ev.sizing.stack_mass == 0.15
            assert len(simulations) == total
            assert ev == evaluate_setpoint(walk, INPUTS, x, dt=0.02)
            del simulations[total:]
        assert len(memo) == 2


class TestBatteryTemplate:
    def test_default_template_shape(self):
        t = default_battery_template()
        assert t.chemistry == "nanophosphate"
        assert t.specific_energy == 90.0
        assert t.specific_power == 1850.0
        assert t.soc_min == 0.0 and t.soc_max == 1.0
        assert t.charge_efficiency == 1.0 and t.discharge_efficiency == 1.0

    def test_scaled_pack_tracks_mass(self):
        pack = default_battery_template().scaled(0.135)
        assert pack.mass == 0.135
        assert math.isclose(pack.capacity_wh, 12.15)
        assert math.isclose(pack.max_power_w, 249.75)
