import math

import numpy as np
import pytest

from fchybrid import controller, presets, simulator
from fchybrid.controller import ControllerParams
from fchybrid.errors import ValidationError
from fchybrid.powertrain import (
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
    MODE_BATTERY,
    MODE_DIRECT,
    MODE_HYBRID,
    PROFILE_ENDED,
    UNMET_DEMAND,
    HybridConfig,
    default_dt,
    run_time_constant_load,
    simulate,
)


def flat(power, duration=3600.0, name="flat"):
    return PowerProfile(times=np.array([0.0, duration]),
                        power=np.array([power, power]), name=name)


def steps(times, powers, name="steps"):
    return PowerProfile(times=np.asarray(times, dtype=float),
                        power=np.asarray(powers, dtype=float), name=name)


def small_battery(capacity_wh, power_w, soc_min=0.1):
    return BatterySpec(chemistry="test", mass=1.0, specific_energy=capacity_wh,
                       specific_power=power_w, charge_efficiency=1.0,
                       discharge_efficiency=1.0, soc_min=soc_min, soc_max=1.0)


NO_BATTERY = BatterySpec(chemistry="none", mass=0.0, specific_energy=90.0,
                         specific_power=250.0)


def tiny_hybrid(fuel_wh=45.0, capacity_wh=5.0, power_w=250.0, setpoint=45.0,
                rated=90.0):
    """Hybrid with round-number energy stores for closed-form cross-checks."""
    return HybridConfig(
        stack=FuelCellStackSpec.from_power(rated),
        battery=small_battery(capacity_wh, power_w),
        tank=FuelTankSpec(fuel_mass=0.5, specific_energy_electric=fuel_wh / 0.5),
        controller=ControllerParams(fc_setpoint=setpoint),
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
            HybridConfig(stack=FuelCellStackSpec.from_power(45.0),
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
            HybridConfig(stack=FuelCellStackSpec.from_power(90.0),
                         battery=small_battery(48.0, 300.0),
                         tank=FuelTankSpec(fuel_mass=0.9),
                         mode=MODE_DIRECT)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            HybridConfig(stack=FuelCellStackSpec.from_power(45.0),
                         battery=NO_BATTERY,
                         tank=FuelTankSpec(fuel_mass=0.8),
                         mode="solar")

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
        est = run_time_constant_load(cfg, 45.0)
        assert math.isclose(est.hours, 1.1)
        assert est.sustainable
        res = simulate(cfg, flat(45.0), dt=1.0, loop_profile=True)
        assert res.termination == FUEL_EXHAUSTED
        assert abs(res.run_time - est.hours) * 3600.0 <= 1.0 + 1e-6
        assert res.soc_final <= cfg.battery.soc_min + 1e-9

    def test_battery_pack_runs_three_hours(self):
        cfg = presets.nimh_config()
        est = run_time_constant_load(cfg, 16.0)
        assert est.hours == 3.0
        res = simulate(cfg, flat(16.0), dt=1.0, loop_profile=True)
        assert res.termination == BATTERY_DEPLETED
        assert abs(res.run_time - 3.0) * 3600.0 <= 1.0 + 1e-6

    def test_direct_stack_overload_fails_fast(self):
        cfg = presets.direct_fc_config()
        est = run_time_constant_load(cfg, 100.0)
        assert est == (0.0, False)
        res = simulate(cfg, flat(100.0), dt=1.0, loop_profile=True)
        assert res.termination == UNMET_DEMAND
        assert res.run_time == 0.0
        assert res.unmet_energy > 0.0

    def test_hybrid_preset_walk_average(self):
        cfg = presets.hybrid_config()
        est = run_time_constant_load(cfg, 45.0)
        res = simulate(cfg, flat(45.0), dt=5.0, loop_profile=True)
        assert abs(res.run_time - est.hours) * 3600.0 <= 5.0 + 1e-6

    def test_empty_pack_runs_on_fuel_alone(self):
        # starting at the floor isolates the fuel term of the estimate
        cfg = presets.hybrid_config()
        est = run_time_constant_load(cfg, 45.0,
                                     initial_soc=cfg.battery.soc_min)
        assert est.hours == 88.0
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

    def test_max_hours_guard(self):
        cfg = presets.hybrid_config()
        with pytest.raises(RuntimeError):
            simulate(cfg, flat(0.0, duration=60.0), dt=1.0,
                     loop_profile=True, max_hours=0.001)


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
                stack=FuelCellStackSpec.from_power(90.0),
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
        res = simulate(presets.hybrid_config(), flat(45.0, duration=100.0),
                       dt=1.0, record_flows=True, flow_stride=10)
        assert res.steps == 100
        assert len(res.flows) == 10
        assert [f.time for f in res.flows] == [10.0 * k for k in range(10)]

    def test_stride_validation(self):
        with pytest.raises(ValidationError):
            simulate(presets.hybrid_config(), flat(45.0), flow_stride=0)


class TestInputValidation:
    """Non-finite or out-of-range run settings are rejected before the
    first step; a NaN dt or guard would otherwise loop forever or switch
    a termination off."""

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_dt(self, dt):
        with pytest.raises(ValidationError, match="dt"):
            simulate(presets.hybrid_config(), flat(45.0), dt=dt)

    @pytest.mark.parametrize("grace_s", [math.nan, math.inf, -1.0])
    def test_grace_s(self, grace_s):
        with pytest.raises(ValidationError, match="grace_s"):
            simulate(presets.hybrid_config(), flat(45.0), dt=1.0, grace_s=grace_s)

    @pytest.mark.parametrize("fraction", [math.nan, math.inf, -0.01, 1.5])
    def test_unmet_fraction(self, fraction):
        with pytest.raises(ValidationError, match="unmet_fraction"):
            simulate(presets.hybrid_config(), flat(45.0), dt=1.0,
                     unmet_fraction=fraction)

    @pytest.mark.parametrize("loop", [False, True])
    @pytest.mark.parametrize("max_hours", [math.nan, math.inf, 0.0, -1.0])
    def test_max_hours(self, max_hours, loop):
        with pytest.raises(ValidationError, match="max_hours"):
            simulate(presets.hybrid_config(), flat(45.0), dt=1.0,
                     loop_profile=loop, max_hours=max_hours)

    def test_range_ends_accepted(self):
        res = simulate(presets.hybrid_config(), flat(45.0, duration=10.0), dt=1.0,
                       grace_s=0.0, unmet_fraction=1.0, max_hours=1.0)
        assert res.termination == PROFILE_ENDED
        res = simulate(presets.hybrid_config(), flat(45.0, duration=10.0), dt=1.0,
                       unmet_fraction=0.0)
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
        (lambda: HybridConfig(stack=FuelCellStackSpec.from_power(90.0), battery=NO_BATTERY,
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


class TestRunTimeConstantLoad:
    def test_battery_mode_halves_with_double_load(self):
        cfg = presets.nimh_config()
        assert run_time_constant_load(cfg, 16.0).hours == 3.0
        assert run_time_constant_load(cfg, 32.0).hours == 1.5

    def test_battery_mode_power_limit(self):
        cfg = presets.nimh_config()
        p_max = cfg.battery.max_power_w
        assert run_time_constant_load(cfg, p_max).sustainable
        assert run_time_constant_load(cfg, p_max + 1.0) == (0.0, False)

    def test_hybrid_below_ceiling_sums_both_stores(self):
        est = run_time_constant_load(presets.hybrid_config(), 45.0)
        assert math.isclose(est.hours, 88.27)
        assert est.sustainable

    def test_battery_limited_bridge(self):
        # deficit of 45 W drains the 12.15 usable Wh in 0.27 h, well
        # before the fuel runs down
        est = run_time_constant_load(presets.hybrid_config(), 90.0)
        assert math.isclose(est.hours, 0.27)
        assert not est.sustainable

    def test_fuel_limited_bridge_then_battery(self):
        cfg = tiny_hybrid(fuel_wh=45.0, capacity_wh=100.0, power_w=300.0,
                          setpoint=45.0, rated=45.0)
        cfg = HybridConfig(stack=cfg.stack,
                           battery=small_battery(100.0, 300.0, soc_min=0.0),
                           tank=cfg.tank, controller=cfg.controller)
        est = run_time_constant_load(cfg, 50.0)
        # one hour of fuel at the 45 W ceiling, then 95 Wh left at 50 W
        assert math.isclose(est.hours, 1.0 + 95.0 / 50.0)
        assert not est.sustainable

    def test_nonpositive_load_rejected(self):
        with pytest.raises(ValidationError):
            run_time_constant_load(presets.hybrid_config(), 0.0)
