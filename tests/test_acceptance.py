"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the real stdout so the verdicts
survive pytest's capture, then asserts. Tolerances are stated inline.
"""

import math
import time

import numpy as np

from fchybrid import presets
from fchybrid.cli import main
from fchybrid.controller import dispatch_power
from fchybrid.powertrain import BatterySpec, BatteryState, fc_efficiency, fc_life
from fchybrid.profile import GaitParams, PowerProfile, synthesize_walk_profile
from fchybrid.report import compare
from fchybrid.simulator import run_time_constant_load, simulate
from fchybrid.sizing import SizingInputs, evaluate_setpoint, optimize_setpoint


def _report(capsys, number: int, name: str, ok: bool) -> bool:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {verdict}", flush=True)
    return ok


def test_acceptance_1_comparison_table(capsys):
    started = time.perf_counter()
    exit_code = main(["compare", "--table1", "--format", "csv"])
    elapsed = time.perf_counter() - started
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ok = exit_code == 0 and len(rows) == 4
    if ok:
        by_label = {r[0]: r for r in rows}
        hybrid = by_label["fuel cell hybrid"]
        direct = by_label["fuel cell"]
        ok &= float(hybrid[1]) == 0.15 and float(hybrid[2]) == 0.8
        ok &= float(direct[1]) == 0.3 and float(direct[2]) == 0.9
        run_times = [float(r[5]) for r in rows]
        for got, want in zip(run_times, (3.0, 9.0, 99.0, 88.0)):
            ok &= math.isclose(got, want, rel_tol=0.01)
        lives = [float(r[4]) for r in rows]
        for got, want in zip(lives, (2628.0, 8760.0, 120.0, 26280.0)):
            ok &= math.isclose(got, want, rel_tol=0.15)
        ok &= [r[7] for r in rows] == ["true", "true", "false", "true"]
        ok &= elapsed < 5.0
    assert _report(capsys, 1, "comparison table reproduction", ok)


def test_acceptance_2_efficiency_anchor(capsys):
    ok = abs(fc_efficiency(0.8) - 0.650) <= 0.001
    assert _report(capsys, 2, "cell efficiency anchor", ok)


def test_acceptance_3_degradation_anchors(capsys):
    ok = math.isclose(fc_life(0.8), 26280.0, rel_tol=0.01)
    ok &= math.isclose(fc_life(0.95), 120.0, rel_tol=0.01)
    rng = np.random.default_rng(5)
    slope = 35.93
    for _ in range(5):
        v1, v2 = rng.uniform(0.6, 1.05, 2)
        gap = math.log(fc_life(v1)) - math.log(fc_life(v2))
        ok &= math.isclose(gap, -slope * (v1 - v2), rel_tol=1e-9, abs_tol=1e-12)
    assert _report(capsys, 3, "degradation law anchors", ok)


def test_acceptance_4_oracle_equivalence(capsys):
    started = time.perf_counter()
    configs = presets.comparison_configs()
    loads = (10.0, 16.0, 30.0, 45.0, 60.0)
    dt = 5.0
    ok = True
    for cfg in configs:
        for load in loads:
            hours = run_time_constant_load(cfg, load)
            profile = PowerProfile(times=np.array([0.0, 3600.0]),
                                   power=np.array([load, load]))
            res = simulate(cfg, profile, dt=dt, loop_profile=True)
            ok &= abs(res.run_time - hours) * 3600.0 <= dt + 1e-6
    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    assert _report(capsys, 4, "closed-form oracle equivalence", ok)


def test_acceptance_5_energy_closure(capsys):
    rng = np.random.default_rng(42)
    cfg = presets.hybrid_config()
    ok = True
    for _ in range(100):
        params = GaitParams(
            base_load=float(rng.uniform(20.0, 60.0)),
            gait_period=float(rng.uniform(0.5, 2.0)),
            stride_duty=float(rng.uniform(0.3, 0.9)),
            mech_peak=float(rng.uniform(0.0, 30.0)),
            servo_efficiency=float(rng.uniform(0.4, 0.9)),
            duration=3600.0,
        )
        res = simulate(cfg, synthesize_walk_profile(params), dt=0.01)
        fuel_wh = res.fuel_consumed * cfg.tank.specific_energy_electric
        sources = fuel_wh + res.battery_discharge - res.battery_charge
        sinks = res.energy_delivered + res.curtailed_energy
        scale = max(sinks, 1.0)
        ok &= abs(sources - sinks) <= 1e-6 * scale
        lo, hi = cfg.battery.soc_min, cfg.battery.soc_max
        ok &= lo - 1e-12 <= res.soc_low <= res.soc_high <= hi + 1e-12
    assert _report(capsys, 5, "gait run energy closure", ok)


def test_acceptance_6_dispatch_properties(capsys):
    rng = np.random.default_rng(7)
    spec = BatterySpec(chemistry="test", mass=1.0, specific_energy=2.0,
                       specific_power=60.0, charge_efficiency=0.95,
                       discharge_efficiency=0.95, soc_min=0.1, soc_max=0.95)
    state = BatteryState(soc=0.5)
    ok = True
    for _ in range(100_000):
        demand = float(rng.uniform(0.0, 200.0))
        command = float(rng.uniform(0.0, 100.0))
        fuel = float(rng.choice([0.0, 0.001, 0.1, 50.0]))
        flow, state = dispatch_power(demand, command, 1.0, spec, state,
                                     fuel, 1.0)
        balance = flow.fc_output + flow.battery_power - flow.demand
        ok &= balance == flow.curtailed - flow.unmet
        ok &= min(flow.unmet, flow.curtailed) == 0.0
        ok &= spec.soc_min - 1e-12 <= state.soc <= spec.soc_max + 1e-12
        if flow.unmet > 1e-9:
            request = flow.demand - flow.fc_output
            ok &= (request >= spec.max_power_w - 1e-9
                   or state.soc <= spec.soc_min + 1e-9)
    assert _report(capsys, 6, "dispatch balance properties", ok)


def test_acceptance_7_peak_infeasibility(capsys):
    row = compare([presets.direct_fc_config()])[0]
    spike = PowerProfile(times=np.array([0.0, 10.0, 12.0, 60.0]),
                         power=np.array([40.0, 250.0, 40.0, 40.0]))
    res = simulate(presets.direct_fc_config(), spike, dt=0.1)
    ok = row.feasible_at_peak is False and res.unmet_energy > 0.0
    assert _report(capsys, 7, "direct supply peak infeasibility", ok)


def test_acceptance_8_setpoint_optimizer(capsys):
    inputs = SizingInputs(mass_budget=1.2, steady_power=45.0, peak_power=250.0)
    flat = PowerProfile(times=np.array([0.0, 600.0]),
                        power=np.array([45.0, 45.0]))
    best, sized = optimize_setpoint(flat, inputs, dt=1.0)
    ok = abs(best - 45.0) <= 0.1 and sized.feasible

    rng = np.random.default_rng(13)
    for _ in range(3):
        params = GaitParams(
            base_load=float(rng.uniform(30.0, 50.0)),
            gait_period=float(rng.uniform(0.5, 1.5)),
            stride_duty=float(rng.uniform(0.4, 0.7)),
            mech_peak=float(rng.uniform(0.0, 15.0)),
            servo_efficiency=float(rng.uniform(0.5, 0.9)),
            duration=60.0,
        )
        profile = synthesize_walk_profile(params)
        found, _ = optimize_setpoint(profile, inputs, dt=0.02)
        grid_best, grid_endurance = None, -math.inf
        for x in np.arange(0.0, inputs.peak_power + 0.25, 0.5):
            ev = evaluate_setpoint(profile, inputs, float(x), dt=0.02)
            if ev.feasible and ev.run_time > grid_endurance:
                grid_best, grid_endurance = float(x), ev.run_time
        found_endurance = evaluate_setpoint(profile, inputs, found,
                                            dt=0.02).run_time
        ok &= grid_best is not None
        ok &= abs(found - grid_best) <= 0.5
        ok &= found_endurance >= grid_endurance - 1e-6
    assert _report(capsys, 8, "setpoint optimizer", ok)
