import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fchybrid import presets
from fchybrid.errors import ValidationError
from fchybrid.powertrain import (
    IDEAL_CELL_VOLTAGE,
    BatterySpec,
    BatteryState,
    DegradationParams,
    ElectronicsSpec,
    FuelCellStackSpec,
    FuelTankSpec,
    battery_charge_acceptance,
    battery_step,
    fc_efficiency,
    fc_life,
    fuel_energy,
)
from fchybrid.profile import GaitParams


def pack(capacity_wh=10.0, power_w=1000.0, eta_c=1.0, eta_d=1.0,
         soc_min=0.0, soc_max=1.0):
    """One-kilogram pack, so capacity and power equal the specific figures."""
    return BatterySpec(chemistry="test", mass=1.0, specific_energy=capacity_wh,
                       specific_power=power_w, charge_efficiency=eta_c,
                       discharge_efficiency=eta_d, soc_min=soc_min,
                       soc_max=soc_max)


class TestFcEfficiency:
    def test_operating_point(self):
        assert fc_efficiency(0.8) == 0.8 / IDEAL_CELL_VOLTAGE
        assert math.isclose(fc_efficiency(0.8), 0.6504, abs_tol=5e-5)

    def test_unity_at_ideal(self):
        assert fc_efficiency(IDEAL_CELL_VOLTAGE) == 1.0

    def test_custom_ideal(self):
        assert fc_efficiency(0.5, ideal_voltage=1.0) == 0.5

    @pytest.mark.parametrize("v", [0.0, -0.1, 1.3])
    def test_voltage_bounds(self, v):
        with pytest.raises(ValidationError):
            fc_efficiency(v)

    def test_bad_ideal(self):
        with pytest.raises(ValidationError):
            fc_efficiency(0.8, ideal_voltage=0.0)


class TestFcLife:
    def test_reference_point(self):
        assert fc_life(0.8) == 26280.0

    def test_stress_point(self):
        assert math.isclose(fc_life(0.95), 120.0, rel_tol=1e-2)

    def test_slope_calibration(self):
        # the default slope puts both anchors on one exponential
        want = math.log(26280.0 / 120.0) / 0.15
        assert math.isclose(DegradationParams().slope, want, abs_tol=5e-3)

    def test_ripple_is_effective_voltage(self):
        p = DegradationParams()
        for r in (0.0, 0.1, 0.5, 2.0):
            assert fc_life(0.8, r) == fc_life(0.8 + p.ripple_gain * r, 0.0)

    def test_log_linear(self):
        rng = np.random.default_rng(7)
        p = DegradationParams()
        for _ in range(5):
            v1, v2 = rng.uniform(0.5, 1.1, 2)
            lhs = math.log(fc_life(v1) / fc_life(v2))
            assert math.isclose(lhs, p.slope * (v2 - v1), rel_tol=1e-9,
                                abs_tol=1e-12)

    def test_monotone_decreasing_in_voltage(self):
        lives = [fc_life(v) for v in (0.7, 0.8, 0.9, 1.0)]
        assert lives == sorted(lives, reverse=True)

    def test_validation(self):
        with pytest.raises(ValidationError):
            fc_life(0.0)
        with pytest.raises(ValidationError):
            fc_life(0.8, -0.1)
        with pytest.raises(ValidationError):
            DegradationParams(ref_life=0.0)
        with pytest.raises(ValidationError):
            DegradationParams(slope=-1.0)


class TestStackSpec:
    def test_from_mass(self):
        s = FuelCellStackSpec.from_mass(0.15)
        assert s.rated_power == 45.0
        assert s.mass == 0.15

    def test_voltage_window(self):
        with pytest.raises(ValidationError):
            FuelCellStackSpec(rated_power=45.0, mass=0.15, cell_voltage=1.5)
        with pytest.raises(ValidationError):
            FuelCellStackSpec(rated_power=45.0, mass=0.15, cell_voltage=0.0)

    def test_negative_power(self):
        with pytest.raises(ValidationError):
            FuelCellStackSpec(rated_power=-1.0, mass=0.1)


class TestBatterySpec:
    def test_capacity_and_power(self):
        b = BatterySpec(chemistry="NiMH", mass=1.2, specific_energy=40.0,
                        specific_power=250.0)
        assert b.capacity_wh == 48.0
        assert b.max_power_w == 300.0

    def test_paper_pack_power_clip_level(self):
        b = BatterySpec(chemistry="nano", mass=0.135, specific_energy=90.0,
                        specific_power=1850.0)
        assert math.isclose(b.max_power_w, 249.75)

    def test_scaled(self):
        b = pack().scaled(0.5)
        assert b.mass == 0.5
        assert b.chemistry == "test"
        assert b.capacity_wh == 5.0

    @pytest.mark.parametrize("kwargs", [
        {"mass": -1.0},
        {"charge_efficiency": 0.0},
        {"charge_efficiency": 1.2},
        {"discharge_efficiency": 0.0},
        {"cycle_life": 0.0},
        {"soc_min": 0.5, "soc_max": 0.5},
        {"soc_min": -0.1},
        {"soc_max": 1.1},
    ])
    def test_validation(self, kwargs):
        base = dict(chemistry="x", mass=1.0, specific_energy=10.0,
                    specific_power=100.0)
        base.update(kwargs)
        with pytest.raises(ValidationError):
            BatterySpec(**base)

    def test_fresh_state_defaults_full(self):
        spec = pack(soc_min=0.1, soc_max=0.9)
        assert BatteryState.fresh(spec).soc == 0.9
        assert BatteryState.fresh(spec, 0.5).soc == 0.5
        with pytest.raises(ValidationError):
            BatteryState.fresh(spec, 0.05)


class TestBatteryStep:
    def test_full_drain_unit_efficiency(self):
        spec = pack(capacity_wh=10.0)
        state, actual = battery_step(spec, BatteryState(soc=1.0), 10.0, 3600.0)
        assert actual == 10.0
        assert state.soc == 0.0
        assert state.discharge_throughput == 10.0

    def test_drain_limited_by_discharge_efficiency(self):
        spec = pack(capacity_wh=10.0, eta_d=0.95)
        state, actual = battery_step(spec, BatteryState(soc=1.0), 10.0, 3600.0)
        # only capacity * eta_d reaches the terminals in one hour
        assert math.isclose(actual, 9.5)
        assert math.isclose(state.soc, 0.0, abs_tol=1e-12)

    def test_sustainable_drain_time_fine_steps(self):
        # closed form: t = capacity * eta_d / P hours at full terminal power
        spec = pack(capacity_wh=10.0, eta_d=0.95)
        state = BatteryState(soc=1.0)
        dt = 1.0
        seconds = 0.0
        delivered = 0.0
        while True:
            state, actual = battery_step(spec, state, 10.0, dt)
            delivered += actual * dt / 3600.0
            seconds += dt
            if actual < 10.0 - 1e-9:
                break
        assert math.isclose(seconds / 3600.0, 0.95, abs_tol=2 * dt / 3600.0)
        assert math.isclose(delivered, 9.5, rel_tol=1e-6)

    def test_power_clip(self):
        spec = BatterySpec(chemistry="nano", mass=0.135, specific_energy=90.0,
                           specific_power=1850.0, charge_efficiency=1.0,
                           discharge_efficiency=1.0, soc_min=0.0)
        state, actual = battery_step(spec, BatteryState(soc=1.0), 300.0, 1.0)
        assert actual == spec.max_power_w
        assert math.isclose(actual, 249.75)

    def test_charge_clip_symmetric(self):
        spec = pack(capacity_wh=100.0, power_w=50.0)
        _, actual = battery_step(spec, BatteryState(soc=0.5), -200.0, 1.0)
        assert actual == -50.0

    def test_charge_with_efficiency(self):
        spec = pack(capacity_wh=10.0, eta_c=0.9)
        state, actual = battery_step(spec, BatteryState(soc=0.0), -5.0, 3600.0)
        assert actual == -5.0
        # 5 Wh at the terminals stores 4.5 Wh
        assert math.isclose(state.soc, 0.45)
        assert state.charge_throughput == 5.0

    def test_charge_stops_at_ceiling(self):
        spec = pack(capacity_wh=10.0, soc_max=0.8)
        state, actual = battery_step(spec, BatteryState(soc=0.75), -100.0, 3600.0)
        assert math.isclose(actual, -0.5)
        assert math.isclose(state.soc, 0.8)
        state2, actual2 = battery_step(spec, state, -100.0, 3600.0)
        assert actual2 == 0.0
        assert state2.soc == state.soc

    def test_discharge_stops_at_floor(self):
        spec = pack(capacity_wh=10.0, soc_min=0.2)
        state, actual = battery_step(spec, BatteryState(soc=0.3), 100.0, 3600.0)
        assert math.isclose(actual, 1.0)
        assert math.isclose(state.soc, 0.2)

    def test_zero_capacity_is_inert(self):
        spec = pack().scaled(0.0)
        state0 = BatteryState(soc=0.5, discharge_throughput=1.0)
        state, actual = battery_step(spec, state0, 10.0, 1.0)
        assert actual == 0.0
        assert state.soc == 0.5
        assert state.discharge_throughput == 1.0
        assert state is not state0

    def test_zero_power_request(self):
        spec = pack()
        state, actual = battery_step(spec, BatteryState(soc=0.5), 0.0, 1.0)
        assert actual == 0.0
        assert state.soc == 0.5

    def test_input_state_not_mutated(self):
        spec = pack()
        state0 = BatteryState(soc=0.5)
        battery_step(spec, state0, 5.0, 60.0)
        assert state0.soc == 0.5
        assert state0.discharge_throughput == 0.0

    def test_dt_validation(self):
        with pytest.raises(ValidationError):
            battery_step(pack(), BatteryState(soc=0.5), 1.0, 0.0)

    def test_round_trip_efficiency(self):
        # charge E in, discharge back to the starting soc: the terminals
        # see E * eta_c * eta_d back
        spec = pack(capacity_wh=50.0, eta_c=0.9, eta_d=0.85)
        state = BatteryState(soc=0.2)
        e_in = 0.0
        for _ in range(600):  # 10 W for 600 s
            state, actual = battery_step(spec, state, -10.0, 1.0)
            e_in += -actual / 3600.0
        e_out = 0.0
        while state.soc > 0.2 + 1e-12:
            room = (state.soc - 0.2) * spec.capacity_wh * spec.discharge_efficiency
            p = min(10.0, room * 3600.0)
            state, actual = battery_step(spec, state, p, 1.0)
            if actual <= 0.0:
                break
            e_out += actual / 3600.0
        assert math.isclose(e_out, e_in * 0.9 * 0.85, rel_tol=1e-6)

    def test_soc_never_leaves_window(self):
        rng = np.random.default_rng(23)
        spec = pack(capacity_wh=5.0, power_w=80.0, eta_c=0.93, eta_d=0.9,
                    soc_min=0.1, soc_max=0.95)
        state = BatteryState(soc=0.5)
        for _ in range(3000):
            p = float(rng.uniform(-120.0, 120.0))
            dt = float(rng.choice([0.1, 1.0, 30.0]))
            state, actual = battery_step(spec, state, p, dt)
            assert 0.1 - 1e-12 <= state.soc <= 0.95 + 1e-12
            assert abs(actual) <= spec.max_power_w + 1e-12


class TestChargeAcceptance:
    def test_full_pack_accepts_nothing(self):
        spec = pack()
        assert battery_charge_acceptance(spec, BatteryState(soc=1.0), 1.0) == 0.0

    def test_power_bound(self):
        spec = pack(capacity_wh=1000.0, power_w=50.0)
        assert battery_charge_acceptance(spec, BatteryState(soc=0.0), 1.0) == 50.0

    def test_headroom_fraction_scales_bound(self):
        spec = pack(capacity_wh=1000.0, power_w=50.0)
        got = battery_charge_acceptance(spec, BatteryState(soc=0.0), 1.0, 0.2)
        assert got == 10.0

    def test_energy_bound_near_ceiling(self):
        spec = pack(capacity_wh=10.0, eta_c=0.5)
        got = battery_charge_acceptance(spec, BatteryState(soc=0.9), 3600.0)
        # 1 Wh of room at 50% charge efficiency needs 2 Wh at the terminals
        assert math.isclose(got, 2.0)

    def test_zero_capacity(self):
        assert battery_charge_acceptance(pack().scaled(0.0),
                                         BatteryState(soc=0.0), 1.0) == 0.0


class TestTankAndElectronics:
    def test_fuel_energy(self):
        assert fuel_energy(FuelTankSpec(fuel_mass=0.8)) == 3960.0
        assert fuel_energy(FuelTankSpec(fuel_mass=0.9)) == 4455.0

    def test_tank_validation(self):
        with pytest.raises(ValidationError):
            FuelTankSpec(fuel_mass=-0.1)
        with pytest.raises(ValidationError):
            FuelTankSpec(fuel_mass=0.1, specific_energy_electric=-1.0)

    def test_electronics_validation(self):
        assert ElectronicsSpec().converter_efficiency == 1.0
        with pytest.raises(ValidationError):
            ElectronicsSpec(mass=-0.1)
        with pytest.raises(ValidationError):
            ElectronicsSpec(converter_efficiency=0.0)
        with pytest.raises(ValidationError):
            ElectronicsSpec(converter_efficiency=1.1)


def spec_fields():
    """(spec, field) for every float init field of every validated spec."""
    cfg = presets.hybrid_config()
    specs = [cfg.stack, cfg.battery, cfg.tank, cfg.electronics, cfg.controller,
             cfg.degradation, presets.CONSTANTS, presets.SIZING_INPUTS, GaitParams()]
    return [pytest.param(spec, f.name, id=f"{type(spec).__name__}.{f.name}")
            for spec in specs for f in fields(spec)
            if f.init and isinstance(getattr(spec, f.name), float)]


class TestNonFiniteFields:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("spec, name", spec_fields())
    def test_rejected_naming_the_field(self, spec, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            replace(spec, **{name: value})

    def test_every_spec_is_covered(self):
        assert {p.values[0].__class__.__name__ for p in spec_fields()} == {
            "FuelCellStackSpec", "BatterySpec", "FuelTankSpec", "ElectronicsSpec",
            "ControllerParams", "DegradationParams", "SizingConstants", "SizingInputs",
            "GaitParams"}

    def test_named_before_a_field_out_of_its_range(self):
        # mass breaks its range first, but NaN in a later field is named
        with pytest.raises(ValidationError, match="^specific_energy must be finite"):
            BatterySpec("test", -1.0, math.nan, 1.0)


# float init fields checked against other fields, so they declare no range
CROSS_CHECKED = {"FuelCellStackSpec.cell_voltage", "FuelCellStackSpec.ideal_voltage",
                 "BatterySpec.soc_min", "BatterySpec.soc_max", "SizingInputs.peak_power"}
# the values at each declared range's edges: (accepted, rejected)
EDGES = {">= 0": ([0.0], [-1e-12]),
         "> 0": ([math.ulp(0.0)], [0.0]),
         "in (0, 1]": ([1.0], [0.0, math.nextafter(1.0, 2.0)])}


def declared_range(spec, name):
    return next(f for f in fields(spec) if f.name == name).metadata.get("range")


class TestDeclaredRanges:
    def test_every_field_declares_one_but_the_cross_checked(self):
        undeclared = {p.id for p in spec_fields() if declared_range(*p.values) is None}
        assert undeclared == CROSS_CHECKED

    @pytest.mark.parametrize("spec, name", [p for p in spec_fields()
                                            if p.id not in CROSS_CHECKED])
    def test_edges(self, spec, name):
        allowed = declared_range(spec, name)
        accepted, rejected = EDGES[allowed]
        for value in accepted:
            assert getattr(replace(spec, **{name: value}), name) == value
        for value in rejected:
            with pytest.raises(ValidationError) as info:
                replace(spec, **{name: value})
            assert str(info.value) == f"{name} must be {allowed}"
