import math
from dataclasses import replace

import numpy as np
import pytest

from fchybrid import presets
from fchybrid.errors import InfeasibleError, ValidationError
from fchybrid.powertrain import fc_life
from fchybrid.profile import GaitParams, PowerProfile, synthesize_walk_profile
from fchybrid.simulator import (
    MODE_BATTERY,
    MODE_DIRECT,
    MODE_HYBRID,
    run_time_constant_load,
)
from fchybrid.sizing import (
    SizingConstants,
    SizingInputs,
    config_from_sizing,
    default_battery_template,
    evaluate_setpoint,
    optimize_setpoint,
    size_battery_only,
    size_direct_fc,
    size_hybrid,
    system_life,
)

INPUTS = SizingInputs(mass_budget=1.2, steady_power=45.0, peak_power=250.0)


def flat_profile(power=45.0, duration=600.0):
    return PowerProfile(times=np.array([0.0, duration]),
                        power=np.array([power, power]), name="flat")


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
        assert r.total_mass == 1.2
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

    def test_fuel_grows_with_budget(self):
        rng = np.random.default_rng(11)
        budgets = np.sort(rng.uniform(0.5, 3.0, 20))
        results = [size_hybrid(SizingInputs(float(b), 45.0, 250.0))
                   for b in budgets]
        for tight, roomy in zip(results, results[1:]):
            assert roomy.fuel_mass >= tight.fuel_mass
            assert roomy.run_time >= tight.run_time

    def test_surge_beyond_pack_capacity_warns(self):
        surge = flat_profile(power=250.0, duration=600.0)
        r = size_hybrid(INPUTS, profile=surge)
        assert r.feasible
        assert any("buffering" in w for w in r.warnings)

    def test_brief_surges_pass_quietly(self):
        walk = synthesize_walk_profile(GaitParams(mech_peak=10.0, duration=60.0))
        r = size_hybrid(INPUTS, profile=walk)
        assert r.warnings == []


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
        assert math.isclose(r.system_life, fc_life(0.95))
        assert r.feasible
        assert r.warnings == ["stack rated 90 W cannot meet 250 W peaks"]
        assert r.label == "fuel cell"

    def test_peak_within_rating_no_warning(self):
        r = size_direct_fc(SizingInputs(1.2, 45.0, 90.0))
        assert r.warnings == []

    def test_stack_factor_validation(self):
        with pytest.raises(ValidationError):
            size_direct_fc(INPUTS, stack_factor=0.0)

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


class TestInternalConsistency:
    def test_sizing_run_times_match_constant_load_estimates(self):
        """Each preset sizing's run-time figure must be reproduced exactly
        by the closed-form endurance of the configuration realizing it.
        Fuel-basis figures ignore the pack, so those start at the floor."""
        for r in presets.comparison_sizings():
            cfg = presets.preset_config(r)
            if r.mode == MODE_BATTERY:
                est = run_time_constant_load(cfg, r.load_basis)
            else:
                est = run_time_constant_load(cfg, r.load_basis,
                                             initial_soc=cfg.battery.soc_min)
            assert est.hours == r.run_time, r.label


class TestSystemLife:
    def test_sizing_result_passthrough(self):
        hybrid = size_hybrid(INPUTS)
        assert system_life(hybrid) == hybrid.system_life

    def test_battery_sizing_rescales_with_run_time(self):
        pack = size_battery_only(presets.NIMH_TEMPLATE, 1.2, 16.0)
        assert system_life(pack) == 3000.0
        assert system_life(pack, 5.0) == 5000.0

    def test_battery_sizing_keeps_the_pack_cycle_life(self):
        template = replace(presets.NIMH_TEMPLATE, cycle_life=500.0)
        pack = size_battery_only(template, 1.2, 4.8)
        assert pack.run_time == 10.0
        assert pack.system_life == 5000.0
        assert system_life(pack) == 5000.0
        assert system_life(pack, 4.0) == 2000.0

    def test_battery_config_needs_run_time(self):
        cfg = presets.nimh_config()
        with pytest.raises(ValidationError):
            system_life(cfg)
        assert system_life(cfg, 3.0) == 3000.0

    def test_direct_config_is_stack_bound(self):
        cfg = presets.direct_fc_config()
        assert system_life(cfg) == fc_life(0.95)

    def test_hybrid_takes_minimum_of_stack_and_cycle_horizon(self):
        cfg = presets.hybrid_config()
        assert system_life(cfg) == 26280.0
        assert system_life(cfg, run_time=1.0, battery_cycles=2000.0) == 0.5

    def test_ripple_shortens_stack_life(self):
        cfg = presets.hybrid_config()
        assert system_life(cfg, ripple=0.5) < system_life(cfg)


class TestConfigFromSizing:
    def test_hybrid_realization(self):
        cfg = config_from_sizing(size_hybrid(INPUTS))
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
        cfg = config_from_sizing(size_direct_fc(INPUTS))
        assert cfg.mode == MODE_DIRECT
        assert cfg.stack.cell_voltage == 0.95
        assert cfg.stack.rated_power == 90.0
        assert cfg.controller.fc_setpoint == 90.0
        assert cfg.battery.mass == 0.0

    def test_battery_realization(self):
        sized = size_battery_only(presets.NIMH_TEMPLATE, 1.2, 16.0)
        cfg = config_from_sizing(sized, battery_template=presets.NIMH_TEMPLATE)
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

    def test_negative_setpoint_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_setpoint(flat_profile(45.0), INPUTS, -1.0)

    def test_oversized_setpoint_costs_fuel_mass(self):
        at_load = evaluate_setpoint(flat_profile(45.0), INPUTS, 45.0, dt=1.0)
        above = evaluate_setpoint(flat_profile(45.0), INPUTS, 60.0, dt=1.0)
        assert above.feasible
        assert above.run_time < at_load.run_time


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
        walk = synthesize_walk_profile(
            GaitParams(base_load=40.0, gait_period=1.0, stride_duty=0.5,
                       mech_peak=5.0, duration=60.0))
        best, sized = optimize_setpoint(walk, INPUTS, dt=0.02)
        assert abs(best - 45.0) <= 0.5
        assert sized.feasible

    def test_deterministic(self):
        walk = synthesize_walk_profile(
            GaitParams(base_load=40.0, gait_period=1.0, stride_duty=0.5,
                       mech_peak=5.0, duration=60.0))
        a = optimize_setpoint(walk, INPUTS, dt=0.02)
        b = optimize_setpoint(walk, INPUTS, dt=0.02)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_unreachable_life_floor(self):
        with pytest.raises(InfeasibleError) as err:
            optimize_setpoint(flat_profile(45.0), INPUTS,
                              life_floor=math.inf, dt=1.0)
        assert err.value.binding_constraint == "system_life"

    def test_unservable_peak(self):
        spikes = PowerProfile(times=np.array([0.0, 10.0, 30.0]),
                              power=np.array([45.0, 400.0, 400.0]),
                              name="spikes")
        with pytest.raises(InfeasibleError) as err:
            optimize_setpoint(spikes, INPUTS, dt=1.0)
        assert err.value.binding_constraint == "unmet_demand"

    def test_impossible_budget(self):
        with pytest.raises(InfeasibleError) as err:
            optimize_setpoint(flat_profile(45.0),
                              SizingInputs(0.2, 45.0, 250.0), dt=1.0)
        assert err.value.binding_constraint == "mass_budget"

    def test_tolerance_validation(self):
        with pytest.raises(ValidationError):
            optimize_setpoint(flat_profile(45.0), INPUTS, tolerance=0.0)


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
