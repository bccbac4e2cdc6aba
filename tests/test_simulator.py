import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fchybrid import controller, presets, simulator
from fchybrid.controller import (
    ControllerParams,
    measure_ripple,
    ripple_of,
    suppression_filter,
    window_stats,
)
from fchybrid.errors import ValidationError
from fchybrid.powertrain import (
    STACK_SPECIFIC_POWER,
    BatterySpec,
    DegradationParams,
    ElectronicsSpec,
    FuelCellStackSpec,
    FuelTankSpec,
)
from fchybrid.profile import GaitParams, PowerProfile, synthesize_walk_profile
from fchybrid.simulator import (
    BATTERY_DEPLETED,
    FUEL_EXHAUSTED,
    GRACE_S,
    MODE_BATTERY,
    MODE_DIRECT,
    MODE_HYBRID,
    PROFILE_ENDED,
    UNMET_DEMAND,
    UNMET_FRACTION,
    HybridConfig,
    default_dt,
    run_time_constant_load,
    simulate,
)


def flat(power, duration=3600.0):
    return PowerProfile(times=np.array([0.0, duration]),
                        power=np.array([power, power]))


def steps(times, powers):
    return PowerProfile(times=np.asarray(times, dtype=float),
                        power=np.asarray(powers, dtype=float))


def small_battery(capacity_wh, power_w, soc_min=0.1):
    return BatterySpec(chemistry="test", mass=1.0, specific_energy=capacity_wh,
                       specific_power=power_w, charge_efficiency=1.0,
                       discharge_efficiency=1.0, soc_min=soc_min, soc_max=1.0)


def stack(rated):
    return FuelCellStackSpec(rated_power=rated, mass=rated / STACK_SPECIFIC_POWER)


NO_BATTERY = BatterySpec(chemistry="none", mass=0.0, specific_energy=90.0,
                         specific_power=250.0)


def tiny_hybrid(fuel_wh=45.0, capacity_wh=5.0, power_w=250.0, setpoint=45.0,
                rated=90.0, headroom=1.0):
    """Hybrid with round-number energy stores for closed-form cross-checks."""
    return HybridConfig(
        stack=stack(rated),
        battery=small_battery(capacity_wh, power_w),
        tank=FuelTankSpec(fuel_mass=0.5, specific_energy_electric=fuel_wh / 0.5),
        controller=ControllerParams(fc_setpoint=setpoint, trickle_headroom=headroom),
    )


class TestDefaultDt:
    def test_second_spacing(self):
        assert default_dt(flat(45.0)) == 1.0

    def test_subsecond_spacing(self):
        p = steps([0.0, 0.5, 1.0], [40.0, 60.0, 40.0])
        assert default_dt(p) == 0.01


class TestHybridConfig:
    def test_battery_only_rejects_fuel(self):
        with pytest.raises(ValidationError):
            HybridConfig(stack=stack(45.0),
                         battery=small_battery(48.0, 300.0),
                         tank=FuelTankSpec(fuel_mass=0.0),
                         mode=MODE_BATTERY)

    def test_battery_only_rejects_stack_mass(self):
        with pytest.raises(ValidationError):
            HybridConfig(stack=FuelCellStackSpec.from_mass(0.1),
                         battery=small_battery(48.0, 300.0),
                         tank=FuelTankSpec(fuel_mass=0.0),
                         mode=MODE_BATTERY)

    def test_direct_rejects_battery_mass(self):
        with pytest.raises(ValidationError):
            HybridConfig(stack=stack(90.0),
                         battery=small_battery(48.0, 300.0),
                         tank=FuelTankSpec(fuel_mass=0.9),
                         mode=MODE_DIRECT)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            HybridConfig(stack=stack(45.0),
                         battery=NO_BATTERY,
                         tank=FuelTankSpec(fuel_mass=0.8),
                         mode="solar")

    @pytest.mark.parametrize("setpoint, rated, expected", [
        (30.0, 90.0, 30.0), (120.0, 90.0, 90.0), (-0.0, 0.0, -0.0), (0.0, -0.0, 0.0)])
    def test_effective_setpoint(self, setpoint, rated, expected):
        cfg = HybridConfig(stack=FuelCellStackSpec(rated_power=rated, mass=0.3),
                           battery=NO_BATTERY, tank=FuelTankSpec(fuel_mass=0.1),
                           controller=ControllerParams(fc_setpoint=setpoint))
        # a hybrid's stack ceiling is its effective setpoint
        for got in (cfg.effective_setpoint, cfg.stack_ceiling):
            assert got == expected
            assert math.copysign(1.0, got) == math.copysign(1.0, expected)

    def test_direct_stack_ceiling_is_the_rating(self):
        cfg = HybridConfig(stack=stack(90.0), battery=NO_BATTERY,
                           tank=FuelTankSpec(fuel_mass=0.1),
                           controller=ControllerParams(fc_setpoint=30.0),
                           mode=MODE_DIRECT)
        assert cfg.stack_ceiling == 90.0

    def test_pack_stack_ceiling_is_zero_whatever_its_rating(self):
        cfg = HybridConfig(stack=FuelCellStackSpec(rated_power=90.0, mass=0.0),
                           battery=small_battery(48.0, 300.0),
                           tank=FuelTankSpec(fuel_mass=0.0), mode=MODE_BATTERY)
        assert cfg.stack_ceiling == 0.0
        assert math.copysign(1.0, cfg.stack_ceiling) == 1.0

    def test_total_mass(self):
        cfg = presets.hybrid_config()
        total = (cfg.stack.mass + cfg.battery.mass + cfg.tank.fuel_mass
                 + cfg.electronics.mass)
        assert cfg.total_mass == total
        assert math.isclose(cfg.total_mass, 1.2)


class TestSimulateOracles:
    def test_fuel_then_battery_bridge(self):
        # 45 Wh of fuel at a 45 W load is one hour; the 4.5 usable Wh
        # bridge another 0.1 h
        cfg = tiny_hybrid()
        hours = run_time_constant_load(cfg, 45.0)
        assert math.isclose(hours, 1.1)
        res = simulate(cfg, flat(45.0), dt=1.0, loop_profile=True)
        assert res.termination == FUEL_EXHAUSTED
        assert abs(res.run_time - hours) * 3600.0 <= 1.0 + 1e-6
        assert res.soc_final <= cfg.battery.soc_min + 1e-9

    def test_battery_pack_runs_three_hours(self):
        cfg = presets.nimh_config()
        assert run_time_constant_load(cfg, 16.0) == 3.0
        res = simulate(cfg, flat(16.0), dt=1.0, loop_profile=True)
        assert res.termination == BATTERY_DEPLETED
        assert abs(res.run_time - 3.0) * 3600.0 <= 1.0 + 1e-6

    def test_direct_stack_overload_fails_fast(self):
        cfg = presets.direct_fc_config()
        assert run_time_constant_load(cfg, 100.0) == 0.0
        res = simulate(cfg, flat(100.0), dt=1.0, loop_profile=True)
        assert res.termination == UNMET_DEMAND
        assert res.run_time == 0.0
        assert res.unmet_energy > 0.0

    def test_hybrid_preset_walk_average(self):
        cfg = presets.hybrid_config()
        hours = run_time_constant_load(cfg, 45.0)
        res = simulate(cfg, flat(45.0), dt=5.0, loop_profile=True)
        assert abs(res.run_time - hours) * 3600.0 <= 5.0 + 1e-6

    def test_empty_pack_runs_on_fuel_alone(self):
        # starting at the floor isolates the fuel term of the estimate
        cfg = presets.hybrid_config()
        assert run_time_constant_load(cfg, 45.0,
                                      initial_soc=cfg.battery.soc_min) == 88.0
        res = simulate(cfg, flat(45.0), dt=5.0, loop_profile=True,
                       initial_soc=cfg.battery.soc_min)
        assert res.termination == FUEL_EXHAUSTED
        assert abs(res.run_time - 88.0) * 3600.0 <= 5.0 + 1e-6


class TestTerminations:
    def test_profile_ended_caps_run_time(self):
        res = simulate(presets.hybrid_config(), flat(45.0), dt=1.0)
        assert res.termination == PROFILE_ENDED
        assert res.run_time == 1.0

    def test_zero_demand_battery_only(self):
        cfg = presets.nimh_config()
        res = simulate(cfg, flat(0.0, duration=600.0), dt=1.0)
        assert res.termination == PROFILE_ENDED
        assert res.energy_delivered == 0.0
        assert res.soc_final == res.soc_initial

    def test_short_spike_survives_grace(self):
        cfg = tiny_hybrid(capacity_wh=0.0, power_w=0.0, setpoint=90.0)
        p = steps([0.0, 10.0, 12.0, 60.0], [45.0, 400.0, 45.0, 45.0])
        res = simulate(cfg, p, dt=1.0)
        assert res.termination == PROFILE_ENDED
        assert res.unmet_energy > 0.0

    def test_sustained_shortfall_reports_streak_start(self):
        cfg = tiny_hybrid(capacity_wh=0.0, power_w=0.0, setpoint=90.0)
        p = steps([0.0, 10.0, 30.0], [45.0, 400.0, 400.0])
        res = simulate(cfg, p, dt=1.0)
        assert res.termination == UNMET_DEMAND
        assert math.isclose(res.run_time, 10.0 / 3600.0)

    @pytest.mark.parametrize("spike_s, ending", [
        (GRACE_S - 1.0, PROFILE_ENDED), (GRACE_S, UNMET_DEMAND),
        (GRACE_S + 1.0, UNMET_DEMAND)])
    def test_grace_window(self, spike_s, ending):
        # the stack covers 90 W of a 400 W spike and there is no pack
        cfg = tiny_hybrid(capacity_wh=0.0, power_w=0.0, setpoint=90.0)
        p = steps([0.0, 10.0, 10.0 + spike_s, 60.0], [45.0, 400.0, 45.0, 45.0])
        res = simulate(cfg, p, dt=1.0)
        assert res.termination == ending
        assert res.unmet_energy > 0.0
        if ending == UNMET_DEMAND:
            assert math.isclose(res.run_time, 10.0 / 3600.0)
            assert res.steps == 10 + GRACE_S

    @pytest.mark.parametrize("share, ending", [
        (0.5, PROFILE_ENDED), (0.9, PROFILE_ENDED),
        (1.1, UNMET_DEMAND), (2.0, UNMET_DEMAND)])
    def test_unmet_fraction_threshold(self, share, ending):
        # a lossless 90 W direct stack leaves share * UNMET_FRACTION of
        # this demand unmet on every step
        demand = 90.0 / (1.0 - share * UNMET_FRACTION)
        res = simulate(presets.direct_fc_config(), flat(demand, duration=60.0),
                       dt=1.0)
        assert res.termination == ending
        assert res.steps == (GRACE_S if ending == UNMET_DEMAND else 60)

    def test_stores_spent_within_the_grace_report_streak_start(self):
        # a 46 W pack under a 47 W load leaves 2 % unmet from the first
        # step and runs dry on the fourth, before the 5 s grace ends: the
        # demand was last met when the streak began
        cfg = presets.nimh_config()
        cfg = replace(cfg, battery=replace(cfg.battery, mass=1.0,
                                           specific_energy=46.0 / 3600.0 * 3.5,
                                           specific_power=46.0))
        res = simulate(cfg, flat(47.0), dt=1.0)
        assert res.termination == BATTERY_DEPLETED
        assert res.steps == 4
        assert res.run_time == 0.0

    def test_last_partial_step_counts_as_run(self):
        # the step on which the pack runs dry leaves most of the load unmet
        # and opens a streak; it began on the last step, so the run ends
        # when that step does
        cfg = presets.nimh_config()
        cfg = replace(cfg, battery=replace(cfg.battery, mass=1.0,
                                           specific_energy=47.0 / 3600.0 * 3.5))
        res = simulate(cfg, flat(47.0), dt=1.0)
        assert res.termination == BATTERY_DEPLETED
        assert res.run_time == 4.0 / 3600.0

    def test_max_hours_guard(self, monkeypatch):
        # 1 W would take the preset's 0.8 kg of fuel about 4,000 h; the
        # horizon, lowered to 3.6 s, stops it on its fifth step
        monkeypatch.setattr(simulator, "MAX_HOURS", 0.001)
        with pytest.raises(RuntimeError, match="MAX_HOURS"):
            simulate(presets.hybrid_config(), flat(1.0, duration=60.0), dt=1.0,
                     loop_profile=True)

    @pytest.mark.parametrize("make_config", [
        presets.hybrid_config, presets.direct_fc_config, presets.nimh_config],
        ids=[MODE_HYBRID, MODE_DIRECT, MODE_BATTERY])
    @pytest.mark.parametrize("profile", [
        flat(0.0, duration=60.0),
        steps([0.0, 20.0, 40.0, 60.0], [-0.0, 0.0, -0.0, 5.0])],  # the last sample is never held
        ids=["zero", "signed-zeros"])
    def test_looped_run_that_draws_nothing_raises_before_stepping(
            self, monkeypatch, make_config, profile):
        calls = []
        dispatch_power = simulator.dispatch_power

        def counting_dispatch(*args, **kwargs):
            calls.append(args[0])
            return dispatch_power(*args, **kwargs)

        monkeypatch.setattr(simulator, "dispatch_power", counting_dispatch)
        with pytest.raises(RuntimeError, match="MAX_HOURS"):
            simulate(make_config(), profile, dt=1.0, loop_profile=True)
        assert calls == []

    def test_zero_profile_run_once_ends_normally(self):
        res = simulate(presets.hybrid_config(), flat(0.0, duration=60.0), dt=1.0)
        assert res.termination == PROFILE_ENDED
        assert res.steps == 60


class TestSimulationInvariants:
    def test_determinism(self):
        cfg = presets.hybrid_config()
        profile = synthesize_walk_profile(
            GaitParams(mech_peak=10.0, duration=120.0))
        a = simulate(cfg, profile, dt=0.5, record_flows=True, flow_stride=7)
        b = simulate(cfg, profile, dt=0.5, record_flows=True, flow_stride=7)
        assert a.run_time == b.run_time
        assert a.termination == b.termination
        assert a.energy_delivered == b.energy_delivered
        assert a.fc_damage == b.fc_damage
        assert a.soc_final == b.soc_final
        assert a.flows == b.flows

    def test_soc_stays_inside_window(self):
        rng = np.random.default_rng(17)
        cfg = presets.hybrid_config()
        for _ in range(5):
            params = GaitParams(
                base_load=float(rng.uniform(20.0, 60.0)),
                gait_period=float(rng.uniform(0.5, 2.0)),
                stride_duty=float(rng.uniform(0.3, 0.9)),
                mech_peak=float(rng.uniform(0.0, 30.0)),
                servo_efficiency=float(rng.uniform(0.4, 0.9)),
                duration=60.0,
            )
            res = simulate(cfg, synthesize_walk_profile(params), dt=0.02)
            lo, hi = cfg.battery.soc_min, cfg.battery.soc_max
            assert lo - 1e-12 <= res.soc_low <= res.soc_high <= hi + 1e-12

    def test_energy_closure_with_unit_efficiencies(self):
        cfg = presets.hybrid_config()
        profile = synthesize_walk_profile(
            GaitParams(mech_peak=20.0, duration=600.0))
        res = simulate(cfg, profile, dt=0.1)
        fuel_wh = res.fuel_consumed * cfg.tank.specific_energy_electric
        sources = fuel_wh + res.battery_discharge - res.battery_charge
        sinks = res.energy_delivered + res.curtailed_energy
        assert math.isclose(sources, sinks, rel_tol=1e-9)

    def test_run_time_converges_as_dt_halves(self):
        cfg = tiny_hybrid()
        coarse = simulate(cfg, flat(45.0), dt=2.0, loop_profile=True)
        fine = simulate(cfg, flat(45.0), dt=1.0, loop_profile=True)
        assert abs(coarse.run_time - fine.run_time) * 3600.0 <= 2.0 + 1e-6

    def test_higher_setpoint_never_increases_unmet(self):
        profile = synthesize_walk_profile(
            GaitParams(base_load=20.0, gait_period=2.0, stride_duty=0.5,
                       mech_peak=40.0, duration=60.0))
        totals = []
        for setpoint in (30.0, 40.0, 50.0, 60.0):
            cfg = HybridConfig(
                stack=stack(90.0),
                battery=small_battery(2.0, 30.0, soc_min=0.0),
                tank=FuelTankSpec(fuel_mass=1.0),
                controller=ControllerParams(fc_setpoint=setpoint),
            )
            totals.append(simulate(cfg, profile, dt=0.1).unmet_energy)
        for worse, better in zip(totals, totals[1:]):
            assert better <= worse + 1e-12


class TestDegradationAccounting:
    def test_damage_grows_with_run_length(self):
        cfg = presets.hybrid_config()
        short = simulate(cfg, flat(45.0, duration=600.0), dt=1.0)
        long = simulate(cfg, flat(45.0, duration=1200.0), dt=1.0)
        assert 0.0 < short.fc_damage < long.fc_damage

    def test_damage_ignores_segment_order(self):
        # setpoint below both load levels keeps the stack flat either way
        cfg = tiny_hybrid(fuel_wh=100.0, capacity_wh=10.0, setpoint=30.0)
        forward = steps([0.0, 300.0, 600.0], [40.0, 60.0, 60.0])
        reverse = steps([0.0, 300.0, 600.0], [60.0, 40.0, 40.0])
        a = simulate(cfg, forward, dt=1.0)
        b = simulate(cfg, reverse, dt=1.0)
        assert a.termination == b.termination == PROFILE_ENDED
        assert a.fc_damage == b.fc_damage
        assert a.ripple == b.ripple == 0.0

    def test_hybrid_suppresses_ripple_against_direct(self):
        profile = synthesize_walk_profile(GaitParams(mech_peak=10.0,
                                                     duration=600.0))
        hybrid = simulate(presets.hybrid_config(), profile, dt=0.02)
        direct = simulate(presets.direct_fc_config(), profile, dt=0.02)
        assert hybrid.ripple < direct.ripple
        assert direct.ripple > 0.2

    def test_flat_load_has_zero_ripple(self):
        res = simulate(presets.hybrid_config(), flat(45.0), dt=1.0)
        assert res.ripple == 0.0


class TestFlowRecording:
    def test_no_flows_by_default(self):
        res = simulate(presets.hybrid_config(), flat(45.0, duration=100.0),
                       dt=1.0)
        assert res.flows == []

    def test_stride_decimation(self):
        for stride in (10, 10.0):
            res = simulate(presets.hybrid_config(), flat(45.0, duration=100.0),
                           dt=1.0, record_flows=True, flow_stride=stride)
            assert res.steps == 100
            assert len(res.flows) == 10
            assert [f.time for f in res.flows] == [10.0 * k for k in range(10)]

    def test_stride_validation(self):
        with pytest.raises(ValidationError):
            simulate(presets.hybrid_config(), flat(45.0), flow_stride=0)
        # a stride that is not a finite whole number would record step 0
        # and then never meet the step counter again
        for stride in (2.5, math.nan, math.inf):
            with pytest.raises(ValidationError, match="flow_stride"):
                simulate(presets.hybrid_config(), flat(45.0), record_flows=True,
                         flow_stride=stride)


class TestStackLifeUnderflow:
    def test_zero_life_is_infinite_damage(self):
        # 0 W for almost the whole profile, then 2.12 W: the second half of
        # the stack output swings hundreds of times its mean
        profile = steps([0.0, 9.99, 10.0], [0.0, 2.12, 2.12])
        res = simulate(presets.hybrid_config(), profile, dt=0.01)
        assert res.termination == PROFILE_ENDED
        assert res.ripple > 400.0
        assert res.fc_damage == math.inf


class TestInputValidation:
    """Non-finite or out-of-range run settings are rejected before the
    first step; a NaN dt would otherwise loop forever."""

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_dt(self, dt):
        with pytest.raises(ValidationError, match="dt"):
            simulate(presets.hybrid_config(), flat(45.0), dt=dt)

    @pytest.mark.parametrize("loop", [False, True])
    @pytest.mark.parametrize("dt", [1e-300, 5e-324, 1e-8])
    def test_pass_of_too_many_steps(self, dt, loop):
        # a 10 s pass at 1e-300 s would take 1e301 steps; more than
        # MAX_PASS_STEPS (1e8) is refused before the first one
        with pytest.raises(ValidationError, match="dt"):
            simulate(presets.hybrid_config(), flat(45.0, duration=10.0), dt=dt,
                     loop_profile=loop)

    def test_pass_steps_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_PASS_STEPS", 10)
        profile = flat(45.0, duration=10.0)
        assert simulate(presets.hybrid_config(), profile, dt=1.0).steps == 10
        with pytest.raises(ValidationError, match="dt"):
            simulate(presets.hybrid_config(), profile, dt=10.0 / 11.0)

    def test_range_ends_accepted(self):
        res = simulate(presets.hybrid_config(), flat(45.0, duration=10.0), dt=1.0)
        assert res.termination == PROFILE_ENDED
        assert res.steps == 10


class TestStepPathContract:
    """simulate steps through the public step functions, looked up by
    module name, exactly once per step: the laws have one implementation,
    and the benchmark's traced run replays the calls it records here."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"dispatched": [], "acceptance": 0, "battery_step": 0}
        dispatch_power = simulator.dispatch_power
        acceptance = simulator.battery_charge_acceptance
        battery_step = controller.battery_step

        def counting_dispatch(*args, **kwargs):
            flow, state = dispatch_power(*args, **kwargs)
            seen["dispatched"].append(flow)
            return flow, state

        def counting_acceptance(*args, **kwargs):
            seen["acceptance"] += 1
            return acceptance(*args, **kwargs)

        def counting_step(*args, **kwargs):
            seen["battery_step"] += 1
            return battery_step(*args, **kwargs)

        monkeypatch.setattr(simulator, "dispatch_power", counting_dispatch)
        monkeypatch.setattr(simulator, "battery_charge_acceptance", counting_acceptance)
        monkeypatch.setattr(controller, "battery_step", counting_step)
        return seen

    def check(self, calls, mode, res):
        assert len(calls["dispatched"]) == res.steps
        assert calls["battery_step"] == res.steps
        assert calls["acceptance"] == (res.steps if mode == MODE_HYBRID else 0)

    @pytest.mark.parametrize("make_config", [presets.hybrid_config,
                                             presets.direct_fc_config,
                                             presets.nimh_config])
    def test_once_per_step_with_every_flow_recorded(self, calls, make_config):
        cfg = make_config()
        profile = synthesize_walk_profile(GaitParams(mech_peak=10.0, duration=30.0))
        res = simulate(cfg, profile, dt=0.05, record_flows=True, flow_stride=1)
        assert res.termination == PROFILE_ENDED
        self.check(calls, cfg.mode, res)
        assert res.flows == calls["dispatched"]

    @pytest.mark.parametrize("make_config, ending", [
        (lambda: tiny_hybrid(fuel_wh=0.5, capacity_wh=0.2), FUEL_EXHAUSTED),
        (lambda: HybridConfig(stack=stack(90.0), battery=NO_BATTERY,
                              tank=FuelTankSpec(fuel_mass=0.0001),
                              mode=MODE_DIRECT), FUEL_EXHAUSTED),
        (lambda: HybridConfig(stack=FuelCellStackSpec(rated_power=0.0, mass=0.0),
                              battery=small_battery(0.5, 100.0),
                              tank=FuelTankSpec(fuel_mass=0.0),
                              mode=MODE_BATTERY), BATTERY_DEPLETED),
    ], ids=[MODE_HYBRID, MODE_DIRECT, MODE_BATTERY])
    def test_looped_run_until_the_supply_dies(self, calls, make_config, ending):
        cfg = make_config()
        profile = synthesize_walk_profile(GaitParams(mech_peak=10.0, duration=20.0))
        res = simulate(cfg, profile, dt=0.1, loop_profile=True, record_flows=True,
                       flow_stride=1)
        assert res.termination == ending
        assert res.run_time * 3600.0 > profile.duration  # the profile wrapped
        self.check(calls, cfg.mode, res)
        assert res.flows == calls["dispatched"]

    @pytest.mark.parametrize("stride", [1, 2])
    def test_unmet_demand_counts_the_step_that_ends_it(self, calls, stride):
        # 100 W against a 90 W stack: the 5 s grace streak ends on step 5
        cfg = presets.direct_fc_config()
        res = simulate(cfg, flat(100.0, duration=60.0), dt=1.0, record_flows=True,
                       flow_stride=stride)
        assert res.termination == UNMET_DEMAND
        assert res.steps == 5
        self.check(calls, cfg.mode, res)
        assert res.flows == calls["dispatched"][::stride]

    @pytest.mark.parametrize("make_config", [presets.direct_fc_config,
                                             presets.nimh_config],
                             ids=[MODE_DIRECT, MODE_BATTERY])
    def test_stack_command_is_the_demand_up_to_the_ceiling(self, monkeypatch,
                                                           make_config):
        # a gait with a 200 W spike above the direct stack's 90 W rating,
        # and stretches of -0.0 W and 0 W; the pack's 0 kg stack commands 0 W
        cfg = make_config()
        walk = gait(20.0)
        power = walk.power.copy()
        for start, level in ((4.0, 200.0), (10.0, -0.0), (12.0, 0.0)):
            power[(walk.times >= start) & (walk.times < start + 0.5)] = level
        profile = PowerProfile(times=walk.times, power=power)
        dispatched = []
        dispatch_power = simulator.dispatch_power

        def recording_dispatch(demand, fc_command, *args):
            dispatched.append((demand, fc_command))
            return dispatch_power(demand, fc_command, *args)

        monkeypatch.setattr(simulator, "dispatch_power", recording_dispatch)
        res = simulate(cfg, profile, dt=0.05)
        assert res.termination == PROFILE_ENDED
        assert len(dispatched) == res.steps
        demands = [demand for demand, _ in dispatched]
        assert max(demands) > 90.0
        assert {math.copysign(1.0, d) for d in demands if d == 0.0} == {-1.0, 1.0}
        for demand, command in dispatched:
            expected = min(demand, 90.0) if cfg.mode == MODE_DIRECT else 0.0
            assert command == expected
            assert math.copysign(1.0, command) == math.copysign(1.0, expected)


def lossy_hybrid():
    """Converter and charge losses, partial trickle headroom, a fast filter."""
    return HybridConfig(
        stack=stack(90.0),
        battery=BatterySpec(chemistry="test", mass=1.0, specific_energy=0.5,
                            specific_power=60.0, charge_efficiency=0.9,
                            discharge_efficiency=0.92, soc_min=0.2, soc_max=0.95),
        tank=FuelTankSpec(fuel_mass=0.5, specific_energy_electric=1.0),
        electronics=ElectronicsSpec(converter_efficiency=0.88),
        controller=ControllerParams(fc_setpoint=60.0, filter_time_constant=0.3,
                                    trickle_headroom=0.1),
    )


def gait(duration=20.0):
    return synthesize_walk_profile(GaitParams(mech_peak=10.0, duration=duration))


class TestInlineFilter:
    """simulate writes the suppression filter out in its step loop. Every
    stack command it dispatches equals controller.suppression_filter folded
    over min(demand + charge acceptance, effective setpoint), bit for bit.
    In each case the command moves with the load and only sometimes
    reaches the setpoint, so the filter has work to do."""

    @pytest.mark.parametrize("loop", [False, True], ids=["once", "looped"])
    @pytest.mark.parametrize("make_config, make_profile", [
        (lambda: tiny_hybrid(fuel_wh=0.5, capacity_wh=0.2, setpoint=55.0,
                             headroom=0.02), gait),
        (lambda: tiny_hybrid(fuel_wh=0.5, capacity_wh=0.2),
         lambda: steps([0.0, 4.0, 4.5, 10.0], [40.0, 200.0, 40.0, 40.0])),
        (lossy_hybrid, gait),
    ], ids=["gait", "spike", "lossy"])
    def test_commands_follow_the_reference_filter(self, monkeypatch, make_config,
                                                  make_profile, loop):
        accepted, dispatched = [], []
        acceptance = simulator.battery_charge_acceptance
        dispatch_power = simulator.dispatch_power

        def recording_acceptance(*args, **kwargs):
            accepted.append(acceptance(*args, **kwargs))
            return accepted[-1]

        def recording_dispatch(demand, fc_command, *args, **kwargs):
            dispatched.append((demand, fc_command))
            return dispatch_power(demand, fc_command, *args, **kwargs)

        monkeypatch.setattr(simulator, "battery_charge_acceptance", recording_acceptance)
        monkeypatch.setattr(simulator, "dispatch_power", recording_dispatch)
        cfg, profile, dt = make_config(), make_profile(), 0.05
        res = simulate(cfg, profile, dt=dt, loop_profile=loop)
        assert len(accepted) == len(dispatched) == res.steps > 0
        if loop:
            assert res.run_time * 3600.0 > profile.duration  # the profile wrapped
        tau = cfg.controller.filter_time_constant
        filt = None
        capped = 0
        for acc, (demand, command) in zip(accepted, dispatched):
            commanded = min(demand + acc, cfg.effective_setpoint)
            capped += commanded == cfg.effective_setpoint
            filt = commanded if filt is None else suppression_filter(filt, commanded, dt, tau)
            assert command == filt
        assert 0 < capped < res.steps


class TestHoldRule:
    """demand(t) = power[i] for times[i] <= t < times[i+1], read off the
    stride-1 flows of simulate."""

    PROFILE = steps([0.0, 1.0, 3.0], [10.0, 20.0, 30.0])
    ONE_PASS = [10.0, 10.0, 20.0, 20.0, 20.0, 20.0]

    def test_sample_boundary_belongs_to_the_new_level(self):
        res = simulate(presets.hybrid_config(), self.PROFILE, dt=0.5,
                       record_flows=True, flow_stride=1)
        assert [f.time for f in res.flows] == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
        assert [f.demand for f in res.flows] == self.ONE_PASS

    def test_looped_run_restarts_at_sample_zero(self):
        res = simulate(tiny_hybrid(fuel_wh=0.05, capacity_wh=0.05), self.PROFILE,
                       dt=0.5, loop_profile=True, record_flows=True, flow_stride=1)
        assert res.termination == FUEL_EXHAUSTED
        assert res.steps > 3 * len(self.ONE_PASS)
        assert [f.demand for f in res.flows] == [
            self.ONE_PASS[n % len(self.ONE_PASS)] for n in range(res.steps)]


class TestRippleContract:
    """simulate reports measure_ripple of the stack output it dispatched,
    every step the fuel cap cut below its command counted as 0 W."""

    @pytest.fixture
    def commands(self, monkeypatch):
        """The stack command of every step simulate dispatches."""
        seen = []
        dispatch_power = simulator.dispatch_power

        def recording_dispatch(demand, fc_command, *args):
            seen.append(fc_command)
            return dispatch_power(demand, fc_command, *args)

        monkeypatch.setattr(simulator, "dispatch_power", recording_dispatch)
        return seen

    @pytest.mark.parametrize("make_config", [
        lambda: tiny_hybrid(fuel_wh=5.0, capacity_wh=0.2, setpoint=55.0, headroom=0.02),
        presets.direct_fc_config], ids=[MODE_HYBRID, MODE_DIRECT])
    def test_ripple_of_the_stride1_stack_output(self, make_config):
        res = simulate(make_config(), gait(60.0), dt=0.05, record_flows=True,
                       flow_stride=1)
        assert res.termination == PROFILE_ENDED
        series = [f.fc_output for f in res.flows]
        assert len(series) == res.steps
        assert res.ripple == measure_ripple(series) > 0.0

    def test_stack_off_over_the_steady_half_is_no_ripple(self):
        # 0.01 Wh of fuel lasts one step; the battery carries the rest
        res = simulate(tiny_hybrid(fuel_wh=0.01, capacity_wh=1.0), flat(45.0),
                       dt=1.0, record_flows=True, flow_stride=1)
        assert res.termination == FUEL_EXHAUSTED
        series = [f.fc_output for f in res.flows]
        assert set(series[res.steps // 2:]) == {0.0}
        assert res.ripple == measure_ripple(series) == 0.0

    @staticmethod
    def full(flows, commands):
        """(stride-1 stack output with every step the fuel cap cut zeroed,
        steps through its last nonzero step)"""
        series = np.array([f.fc_output for f in flows])
        series[series < np.array(commands)] = 0.0
        return series, int(np.flatnonzero(series)[-1]) + 1

    def test_stack_off_tail_of_a_looped_run_stays_out(self, commands):
        # the tank runs dry in the second pass and the battery carries on
        # for hundreds of steps with the stack off
        profile = gait(20.0)
        res = simulate(tiny_hybrid(fuel_wh=0.4, capacity_wh=0.5), profile, dt=0.05,
                       loop_profile=True, record_flows=True, flow_stride=1)
        assert res.termination == FUEL_EXHAUSTED
        series, last = self.full(res.flows, commands)
        assert res.steps - last > 100
        assert last <= 2 * 400  # 400 steps a pass: the window is the steady half
        assert res.ripple == measure_ripple(series[:last]) != measure_ripple(series)

    def test_long_looped_run_folds_every_pass_after_the_first(self, monkeypatch,
                                                              commands):
        folds = []
        fold = simulator._fold

        def counting_fold(stats, series, skip):
            folds.append(len(series) - skip)
            return fold(stats, series, skip)

        monkeypatch.setattr(simulator, "_fold", counting_fold)
        res = simulate(tiny_hybrid(fuel_wh=25.0, capacity_wh=0.2), gait(2.0), dt=0.05,
                       loop_profile=True, record_flows=True, flow_stride=1)
        series, last = self.full(res.flows, commands)
        assert last > 2 * 40 + 2 * simulator.FOLD_BLOCK
        assert len(folds) >= 3  # two wraps, and the stored rest at the end
        assert min(folds[:-1]) >= simulator.FOLD_BLOCK
        assert sum(folds) == last - 40  # every pass after the 40-step first
        assert math.isclose(res.ripple, ripple_of(*window_stats(series[40:last])),
                            rel_tol=1e-12)

    def test_empty_final_window_keeps_the_folded_stats(self, monkeypatch):
        # 20,000 steps a pass and fuel for three passes plus half a step:
        # the third wrap folds passes two and three, then the tank is short
        # of the next step, so the last fold sees an empty window
        cfg = presets.direct_fc_config()
        profile, dt = gait(200.0), 0.01
        once = simulate(cfg, profile, dt=dt)
        pass_wh = once.energy_delivered / cfg.electronics.converter_efficiency
        fuel_wh = 3 * pass_wh + 0.5 * profile.power[0] * dt / 3600.0
        cfg = replace(cfg, tank=replace(
            cfg.tank, fuel_mass=fuel_wh / cfg.tank.specific_energy_electric))
        folds = []
        fold = simulator._fold

        def counting_fold(stats, series, skip):
            folds.append(len(series) - skip)
            return fold(stats, series, skip)

        monkeypatch.setattr(simulator, "_fold", counting_fold)
        res = simulate(cfg, profile, dt=dt, loop_profile=True, record_flows=True,
                       flow_stride=1)
        first = once.steps  # P1
        assert res.termination == FUEL_EXHAUSTED
        assert first == 20_000 and res.steps == 3 * first
        assert folds == [2 * first, 0]
        series = np.array([f.fc_output for f in res.flows])
        assert series.min() > 0.0  # every step full: L is the whole run
        assert math.isclose(res.ripple, ripple_of(*window_stats(series[first:])),
                            rel_tol=1e-12)
        # (max - min) / mean of a 60 W stride over a 40 W base at 0.6 duty
        assert math.isclose(res.ripple, (60.0 - 40.0) / 52.0, rel_tol=1e-12)


class TestLoopedRunMemory:
    """A looped run stores its stack output only until it folds it, so its
    memory is set by the profile, not by the run's length."""

    def test_peak_does_not_grow_with_the_run(self):
        # 200 steps a pass; runs of about 4k and 70k steps
        profile = synthesize_walk_profile(GaitParams(mech_peak=10.0, duration=2.0))
        base = presets.hybrid_config()
        steps, peaks = [], []
        for fuel_wh in (0.5, 8.75):
            tank = replace(base.tank, fuel_mass=fuel_wh / base.tank.specific_energy_electric)
            tracemalloc.start()
            try:
                res = simulate(replace(base, tank=tank), profile, dt=0.01,
                               loop_profile=True, initial_soc=base.battery.soc_min)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.termination == FUEL_EXHAUSTED
            steps.append(res.steps)
        assert steps[1] - steps[0] >= 64 * 1024
        assert abs(peaks[1] - peaks[0]) < 8 * simulator.FOLD_BLOCK  # one block of doubles


class TestRunTimeConstantLoad:
    def test_battery_mode_halves_with_double_load(self):
        cfg = presets.nimh_config()
        assert run_time_constant_load(cfg, 16.0) == 3.0
        assert run_time_constant_load(cfg, 32.0) == 1.5

    def test_battery_mode_power_limit(self):
        # past the pack's 300 W bound the run goes on at that bound while
        # the shortfall is at most UNMET_FRACTION of the load, as simulate's
        cfg = presets.nimh_config()
        p_max = cfg.battery.max_power_w
        assert run_time_constant_load(cfg, p_max + 1.0) == 48.0 / p_max
        assert run_time_constant_load(cfg, p_max * 1.02) == 0.0
        for load, ending in ((p_max + 1.0, BATTERY_DEPLETED),
                             (p_max * 1.02, UNMET_DEMAND)):
            res = simulate(cfg, flat(load), dt=1.0, loop_profile=True)
            assert res.termination == ending
            assert abs(res.run_time - run_time_constant_load(cfg, load)) \
                * 3600.0 <= 1.0

    @pytest.mark.parametrize("rated", [0.0, 90.0, 200.0])
    @pytest.mark.parametrize("share", [None, 1.0, 1.01], ids=["16W", "bound", "1pct_over"])
    def test_pack_horizon_ignores_its_stack(self, rated, share):
        # a battery_only pack has no fuel path, so a 0 kg stack's rating
        # carries nothing: 48 usable Wh at the load or the pack's 300 W bound
        cfg = presets.nimh_config()
        cfg = replace(cfg, stack=replace(cfg.stack, rated_power=rated))
        p_max = cfg.battery.max_power_w
        load = 16.0 if share is None else p_max * share
        assert run_time_constant_load(cfg, load) == 48.0 / min(load, p_max)

    def test_hybrid_below_ceiling_sums_both_stores(self):
        assert math.isclose(run_time_constant_load(presets.hybrid_config(), 45.0),
                            88.27)

    def test_battery_limited_bridge(self):
        # deficit of 45 W drains the 12.15 usable Wh in 0.27 h, well
        # before the fuel runs down
        assert math.isclose(run_time_constant_load(presets.hybrid_config(), 90.0),
                            0.27)

    def test_fuel_limited_bridge_then_battery(self):
        cfg = tiny_hybrid(fuel_wh=45.0, capacity_wh=100.0, power_w=300.0,
                          setpoint=45.0, rated=45.0)
        cfg = HybridConfig(stack=cfg.stack,
                           battery=small_battery(100.0, 300.0, soc_min=0.0),
                           tank=cfg.tank, controller=cfg.controller)
        # one hour of fuel at the 45 W ceiling, then 95 Wh left at 50 W
        assert math.isclose(run_time_constant_load(cfg, 50.0), 1.0 + 95.0 / 50.0)

    def test_nonpositive_load_rejected(self):
        with pytest.raises(ValidationError):
            run_time_constant_load(presets.hybrid_config(), 0.0)

    @pytest.mark.parametrize("load", [-1.0, math.nan, math.inf])
    def test_load_outside_finite_positive_rejected(self, load):
        with pytest.raises(ValidationError, match="finite and > 0"):
            run_time_constant_load(presets.hybrid_config(), load)

    @pytest.mark.parametrize("soc", [1.5, math.nan, -1.0])
    def test_refuses_the_initial_soc_simulate_refuses(self, soc):
        cfg = presets.hybrid_config()
        for rate in (lambda: run_time_constant_load(cfg, 45.0, initial_soc=soc),
                     lambda: simulate(cfg, flat(45.0), dt=1.0, initial_soc=soc)):
            with pytest.raises(ValidationError, match="initial soc outside"):
                rate()
