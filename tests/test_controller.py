import math
from dataclasses import fields

import numpy as np
import pytest

from fchybrid.controller import (
    ControllerParams,
    EnergyFlow,
    dispatch_power,
    measure_ripple,
    ripple_of,
    suppression_filter,
    window_stats,
)
from fchybrid.errors import ValidationError
from fchybrid.powertrain import BatterySpec, BatteryState, battery_step


def pack(capacity_wh=100.0, power_w=250.0, soc_min=0.0, soc_max=1.0,
         eta=1.0, mass=1.0):
    return BatterySpec(chemistry="test", mass=mass,
                       specific_energy=capacity_wh / mass,
                       specific_power=power_w / mass, charge_efficiency=eta,
                       discharge_efficiency=eta, soc_min=soc_min,
                       soc_max=soc_max)


class TestControllerParams:
    def test_defaults(self):
        p = ControllerParams(fc_setpoint=45.0)
        assert p.filter_time_constant == 1.0
        assert p.trickle_headroom == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"fc_setpoint": -1.0},
        {"fc_setpoint": 45.0, "filter_time_constant": 0.0},
        {"fc_setpoint": 45.0, "trickle_headroom": 0.0},
        {"fc_setpoint": 45.0, "trickle_headroom": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            ControllerParams(**kwargs)


class TestSuppressionFilter:
    def test_fixed_point(self):
        assert suppression_filter(45.0, 45.0, 0.1, 1.0) == 45.0

    def test_half_step_when_dt_equals_tau(self):
        assert suppression_filter(0.0, 45.0, 1.0, 1.0) == 22.5

    def test_output_between_previous_and_command(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            prev, cmd = rng.uniform(0.0, 100.0, 2)
            dt = float(rng.uniform(0.001, 10.0))
            tau = float(rng.uniform(0.001, 10.0))
            out = suppression_filter(prev, cmd, dt, tau)
            lo, hi = min(prev, cmd), max(prev, cmd)
            assert lo - 1e-12 <= out <= hi + 1e-12

    def test_monotone_convergence(self):
        y = 0.0
        prev_gap = 45.0
        for _ in range(100):
            y = suppression_filter(y, 45.0, 0.1, 1.0)
            gap = 45.0 - y
            assert 0.0 <= gap < prev_gap
            prev_gap = gap
        assert math.isclose(y, 45.0, abs_tol=0.01)

    def test_square_wave_ripple_bound(self):
        # period far below tau: residual amplitude <= period/(2 tau) * input amplitude
        period, tau, dt = 1.0, 10.0, 0.01
        amp = 20.0
        y = 45.0
        seen = []
        for n in range(int(60 * period / dt)):
            phase = (n * dt) % period
            u = 45.0 + (amp if phase < period / 2 else -amp)
            y = suppression_filter(y, u, dt, tau)
            seen.append(y)
        steady = np.asarray(seen[len(seen) // 2:])
        residual_amp = float(steady.max() - steady.min()) / 2.0
        assert residual_amp <= period / (2.0 * tau) * amp

    def test_validation(self):
        with pytest.raises(ValidationError):
            suppression_filter(0.0, 45.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            suppression_filter(0.0, 45.0, 0.1, 0.0)

    @pytest.mark.parametrize("dt, tau, name", [(math.nan, 1.0, "dt"), (1.0, math.nan, "tau")])
    def test_nan_step_or_time_constant_rejected(self, dt, tau, name):
        # each returned nan
        with pytest.raises(ValidationError, match=f"^{name} must be > 0$"):
            suppression_filter(1.0, 2.0, dt, tau)


class TestMeasureRipple:
    def test_constant_series(self):
        assert measure_ripple([45.0] * 100) == 0.0

    def test_alternating_series(self):
        series = [44.0, 46.0] * 50
        assert math.isclose(measure_ripple(series), 2.0 / 45.0)

    def test_startup_transient_ignored(self):
        series = [0.0] * 50 + [45.0] * 50
        assert measure_ripple(series) == 0.0

    def test_filter_cuts_ripple_tenfold(self):
        period, dt = 1.0, 0.01
        tau = 10.0 * period
        raw, filtered = [], []
        y = 45.0
        for n in range(int(40 * period / dt)):
            phase = (n * dt) % period
            u = 45.0 + (10.0 if phase < period / 2 else -10.0)
            y = suppression_filter(y, u, dt, tau)
            raw.append(u)
            filtered.append(y)
        assert measure_ripple(filtered) < measure_ripple(raw) / 10.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            measure_ripple([])

    def test_zero_mean_is_no_ripple(self):
        assert measure_ripple([0.0] * 10) == 0.0
        assert measure_ripple([-0.0] * 10) == 0.0
        assert measure_ripple([45.0] * 10 + [0.0] * 10) == 0.0  # stack off

    def test_negative_mean_rejected(self):
        with pytest.raises(ValidationError):
            measure_ripple([45.0] * 10 + [-1.0] * 10)

    def test_steady_half_through_the_one_formula(self):
        series = np.random.default_rng(5).uniform(30.0, 60.0, 1001)
        assert window_stats(series[500:]) == (series[500:].min(), series[500:].max(),
                                              series[500:].sum(), 501)
        assert measure_ripple(series) == ripple_of(*window_stats(series[500:]))


class TestRippleOf:
    def test_relative_span(self):
        assert ripple_of(40.0, 50.0, 450.0, 10) == 10.0 / 45.0

    def test_zero_mean_is_no_ripple(self):
        assert ripple_of(0.0, 0.0, 0.0, 4) == 0.0
        assert ripple_of(-0.0, 0.0, -0.0, 4) == 0.0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValidationError):
            ripple_of(-1.0, 45.0, -1.0, 2)


class TestDispatch:
    def test_exact_match(self):
        flow, state = dispatch_power(45.0, 45.0, 1.0, pack(), BatteryState(soc=0.5),
                                     fuel_remaining_wh=100.0, dt=1.0)
        assert flow.fc_output == 45.0
        assert flow.battery_power == 0.0
        assert flow.unmet == 0.0
        assert flow.curtailed == 0.0
        assert state.soc == 0.5

    def test_peak_draws_battery(self):
        flow, _ = dispatch_power(250.0, 45.0, 1.0, pack(), BatteryState(soc=1.0),
                                 fuel_remaining_wh=100.0, dt=1.0)
        assert flow.fc_output == 45.0
        assert flow.battery_power == 205.0
        assert flow.unmet == 0.0

    def test_full_battery_curtails_surplus(self):
        flow, _ = dispatch_power(40.0, 45.0, 1.0, pack(), BatteryState(soc=1.0),
                                 fuel_remaining_wh=100.0, dt=1.0)
        assert flow.fc_output == 45.0
        assert flow.battery_power == 0.0
        assert flow.curtailed == 5.0
        assert flow.unmet == 0.0

    def test_idle_surplus_trickle_charges(self):
        flow, state = dispatch_power(40.0, 45.0, 1.0, pack(), BatteryState(soc=0.5),
                                     fuel_remaining_wh=100.0, dt=1.0)
        assert flow.battery_power == -5.0
        assert flow.curtailed == 0.0
        assert state.soc > 0.5

    def test_trickle_headroom_caps_charge(self):
        spec = pack(power_w=250.0)
        flow, _ = dispatch_power(10.0, 45.0, 0.01, spec, BatteryState(soc=0.2),
                                 fuel_remaining_wh=100.0, dt=1.0)
        assert -flow.battery_power <= 0.01 * spec.max_power_w + 1e-12
        assert flow.curtailed > 0.0

    def test_fuel_limits_output(self):
        # 0.01 Wh sustains 36 W for one second
        flow, _ = dispatch_power(45.0, 45.0, 1.0, pack(), BatteryState(soc=1.0),
                                 fuel_remaining_wh=0.01, dt=1.0)
        assert math.isclose(flow.fc_output, 36.0)
        assert math.isclose(flow.battery_power, 9.0)

    def test_no_fuel_no_output(self):
        flow, _ = dispatch_power(45.0, 45.0, 1.0, pack(), BatteryState(soc=1.0),
                                 fuel_remaining_wh=0.0, dt=1.0)
        assert flow.fc_output == 0.0
        assert flow.battery_power == 45.0

    def test_dead_supply_reports_unmet(self):
        flow, _ = dispatch_power(45.0, 45.0, 1.0, pack(soc_min=0.0), BatteryState(soc=0.0),
                                 fuel_remaining_wh=0.0, dt=1.0)
        assert flow.unmet == 45.0
        assert flow.fc_output == 0.0
        assert flow.battery_power == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            dispatch_power(-1.0, 45.0, 1.0, pack(), BatteryState(soc=0.5), 100.0, 1.0)
        with pytest.raises(ValidationError):
            dispatch_power(45.0, 45.0, 1.0, pack(), BatteryState(soc=0.5), 100.0, 0.0)


def assert_like_constructed(record, cls):
    """record is a complete cls, equal to and printed as the one the class
    call builds from its values; an unset slot raises AttributeError."""
    assert type(record) is cls
    built = cls(**{f.name: getattr(record, f.name) for f in fields(cls)})
    assert record == built
    assert repr(record) == repr(built)


class TestStepRecords:
    """The step functions build their records slot by slot, not through
    the class call; each must be the record the class call would build."""

    @pytest.mark.parametrize("spec, soc, power, dt", [
        (pack(eta=0.9), 0.5, 50.0, 1.0),
        (pack(eta=0.9), 0.5, -50.0, 1.0),
        (pack(), 0.5, 1000.0, 1.0),
        (pack(), 0.5, -1000.0, 1.0),
        (pack(soc_min=0.2), 0.21, 250.0, 3600.0),
        (pack(soc_max=0.9), 0.89, -250.0, 3600.0),
        (pack(), 0.5, 0.0, 1.0),
        (pack(capacity_wh=0.0), 0.5, 50.0, 1.0),
    ], ids=["discharge", "charge", "discharge-clamp", "charge-clamp", "soc-floor",
            "soc-ceiling", "idle", "zero-capacity"])
    def test_battery_state(self, spec, soc, power, dt):
        state0 = BatteryState(soc, 1.0, 2.0)
        state, _ = battery_step(spec, state0, power, dt)
        assert_like_constructed(state, BatteryState)
        assert state is not state0

    @pytest.mark.parametrize("demand, command, spec, soc, fuel_wh", [
        (45.0, 45.0, pack(), 0.5, 100.0),
        (250.0, 45.0, pack(), 1.0, 100.0),
        (40.0, 45.0, pack(), 0.5, 100.0),
        (40.0, 45.0, pack(), 1.0, 100.0),
        (45.0, 45.0, pack(), 1.0, 0.01),
        (45.0, 45.0, pack(), 0.0, 0.0),
        (45.0, 45.0, pack(capacity_wh=0.0), 0.5, 100.0),
        (10.0, 45.0, pack(capacity_wh=0.0), 0.5, 100.0),
    ], ids=["exact", "discharge", "charge", "curtailed", "fuel-cut", "unmet",
            "zero-capacity", "zero-capacity-curtailed"])
    def test_flow_and_state(self, demand, command, spec, soc, fuel_wh):
        flow, state = dispatch_power(demand, command, 1.0, spec, BatteryState(soc),
                                     fuel_wh, 1.0, time=7.0)
        assert_like_constructed(flow, EnergyFlow)
        assert_like_constructed(state, BatteryState)
        assert flow.time == 7.0
        assert flow.soc == state.soc


class TestDispatchProperties:
    def test_power_balance_exact_and_unmet_caused(self):
        """Random stress: the balance identity is exact and every unmet or
        curtailed watt traces to a binding battery limit."""
        rng = np.random.default_rng(91)
        spec = pack(capacity_wh=2.0, power_w=60.0, soc_min=0.1, soc_max=0.95,
                    eta=0.95)
        state = BatteryState(soc=0.5)
        for _ in range(10_000):
            demand = float(rng.uniform(0.0, 200.0))
            command = float(rng.uniform(0.0, 100.0))
            fuel = float(rng.choice([0.0, 0.001, 0.1, 50.0]))
            dt = float(rng.choice([0.01, 0.1, 1.0]))
            pre = state
            flow, state = dispatch_power(demand, command, 1.0, spec, pre,
                                         fuel, dt)
            balance = flow.fc_output + flow.battery_power - flow.demand
            assert balance == flow.curtailed - flow.unmet
            assert flow.unmet >= 0.0 and flow.curtailed >= 0.0
            assert min(flow.unmet, flow.curtailed) == 0.0
            assert spec.soc_min - 1e-12 <= state.soc <= spec.soc_max + 1e-12
            if flow.unmet > 1e-9:  # below that it is residual-split float dust
                request = flow.demand - flow.fc_output
                power_clip = request >= spec.max_power_w - 1e-9
                floor_hit = state.soc <= spec.soc_min + 1e-9
                assert power_clip or floor_hit

    def test_setpoint_raises_never_hurt_coverage(self):
        spec = pack(capacity_wh=1.0, power_w=30.0, soc_min=0.0)
        demands = [80.0, 20.0, 60.0, 100.0, 10.0] * 20
        unmet_by_setpoint = []
        for setpoint in (20.0, 40.0, 60.0):
            state = BatteryState(soc=1.0)
            total = 0.0
            for demand in demands:
                flow, state = dispatch_power(demand, setpoint, 1.0, spec,
                                             state, 1e9, 1.0)
                total += flow.unmet
            unmet_by_setpoint.append(total)
        assert unmet_by_setpoint[0] >= unmet_by_setpoint[1] >= unmet_by_setpoint[2]
