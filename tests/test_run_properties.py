"""Invariants of generated runs: energy closes, every flow balances
exactly, SOC stays in its window, each counted step is one dispatch, the
reported ripple is the steady window formula of ``simulate``'s docstring
over the stride-1 stack output, and fc_damage is the stack hours over the
life at the stack's cell voltage and that ripple, one stress term; on a
flat load, a looped run ends within one step of ``run_time_constant_load``.

Supplies are tiny (packs and tanks of a few Wh at most), profiles are a few
seconds long with 0 W stretches and -0.0 samples, dt reaches the profile's
length, and runs go once or looped, some long enough that ``simulate``
folds its stack output into running statistics."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fchybrid import presets, simulator
from fchybrid.controller import ControllerParams, ripple_of, window_stats
from fchybrid.powertrain import (
    BatterySpec,
    ElectronicsSpec,
    FuelCellStackSpec,
    FuelTankSpec,
    fc_life,
    fuel_energy,
)
from fchybrid.profile import GaitParams, PowerProfile, synthesize_walk_profile
from fchybrid.simulator import (
    FOLD_BLOCK,
    MODE_BATTERY,
    MODE_DIRECT,
    MODE_HYBRID,
    MODES,
    HybridConfig,
    run_time_constant_load,
    simulate,
)

RUN = settings(derandomize=True, deadline=None, database=None, max_examples=100)
# a looped run still going after this many steps passes the looped-run
# horizon simulator.MAX_HOURS, which each example lowers to match
MAX_STEPS = 50_000
FUEL_WH_PER_KG = 4950.0


def supply(mode, fuel_wh, capacity_wh, power_w, rated, setpoint, tau=1.0,
           headroom=1.0, eta=1.0, battery_eta=1.0, soc_min=0.1, soc_max=1.0):
    fuel = mode != MODE_BATTERY
    pack = mode != MODE_DIRECT
    return HybridConfig(
        stack=FuelCellStackSpec(rated_power=rated if fuel else 0.0,
                                mass=rated / 150.0 if fuel else 0.0),
        battery=BatterySpec(chemistry="test", mass=1.0 if pack else 0.0,
                            specific_energy=capacity_wh, specific_power=power_w,
                            charge_efficiency=battery_eta,
                            discharge_efficiency=battery_eta,
                            soc_min=soc_min, soc_max=soc_max),
        tank=FuelTankSpec(fuel_mass=fuel_wh / FUEL_WH_PER_KG if fuel else 0.0,
                          specific_energy_electric=FUEL_WH_PER_KG),
        electronics=ElectronicsSpec(converter_efficiency=eta),
        controller=ControllerParams(fc_setpoint=setpoint, filter_time_constant=tau,
                                    trickle_headroom=headroom),
        mode=mode,
    )


def profile_of(times, power):
    return PowerProfile(times=np.array(times, dtype=float),
                        power=np.array(power, dtype=float))


@st.composite
def runs(draw):
    """(config, profile, dt, looped, initial_soc)"""
    mode = draw(st.sampled_from(MODES))
    n = draw(st.integers(min_value=2, max_value=6))
    gaps = draw(st.lists(st.floats(min_value=0.05, max_value=3.0),
                         min_size=n - 1, max_size=n - 1))
    level = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(min_value=0.0, max_value=120.0))
    profile = profile_of(np.concatenate([[0.0], np.cumsum(gaps)]),
                         draw(st.lists(level, min_size=n, max_size=n)))
    duration = profile.duration
    dt = draw(st.one_of(st.sampled_from([0.01, 0.05]),
                        st.floats(min_value=0.01, max_value=duration)))
    kind = draw(st.sampled_from(["once", "looped", "long"]))
    looped = kind != "once"
    # stores sized in steps of the profile's average draw: up to a few
    # hundred, or for long runs enough to pass two passes and one fold
    # block, with a stack that carries the peak
    average = max(float(np.dot(profile.power[:-1], np.diff(profile.times))) / duration, 1.0)
    passes = 2 * duration / dt + FOLD_BLOCK
    if kind == "long":
        steps = draw(st.floats(min_value=1.5 * passes, max_value=2.0 * passes))
        share = st.floats(min_value=1.0, max_value=1.5)
        least = float(profile.power.max())
    else:
        steps = draw(st.floats(min_value=1.0, max_value=500.0))
        share = st.floats(min_value=0.0, max_value=1.0)
        least = 0.0
    store_wh = average * dt / 3600.0 * steps
    stack_w = st.floats(min_value=least, max_value=max(least, 150.0))
    soc_min = draw(st.floats(min_value=0.0, max_value=0.4))
    soc_max = draw(st.floats(min_value=soc_min + 0.05, max_value=1.0))
    config = supply(
        mode,
        fuel_wh=store_wh * draw(share),
        capacity_wh=store_wh * draw(share),
        power_w=draw(st.floats(min_value=1.0, max_value=200.0)),
        rated=draw(stack_w),
        setpoint=draw(stack_w),
        tau=draw(st.floats(min_value=0.05, max_value=5.0)),
        headroom=draw(st.floats(min_value=0.01, max_value=1.0)),
        eta=draw(st.floats(min_value=0.8, max_value=1.0)),
        battery_eta=draw(st.floats(min_value=0.8, max_value=1.0)),
        soc_min=soc_min, soc_max=soc_max)
    initial_soc = draw(st.none() | st.floats(min_value=soc_min, max_value=soc_max))
    return config, profile, dt, looped, initial_soc


def window_ripple(flows, commands, duration):
    """(ripple, L, P1) of the steady window [min(L // 2, P1), L) over the
    stride-1 stack output of a run, each step the fuel cap cut below its
    command counted as 0 W."""
    series = np.array([f.fc_output for f in flows])
    series[series < np.array(commands)] = 0.0
    fuelled = np.flatnonzero(series > 0.0)
    wrapped = np.flatnonzero(np.array([f.time for f in flows]) >= duration - 1e-9)
    first = int(wrapped[0]) if wrapped.size else len(flows)
    if fuelled.size == 0:
        return 0.0, 0, first
    last = int(fuelled[-1]) + 1
    return ripple_of(*window_stats(series[:last][min(last // 2, first):])), last, first


GAIT = profile_of([0.0, 0.3, 0.5, 0.8, 1.0], [52.0, 31.0, -0.0, 44.0, 44.0])
HYBRID = presets.hybrid_config()


@RUN
@given(runs())
# looped hybrid and direct runs that fold, the hybrid ending on its stack-off tail
@example((supply(MODE_HYBRID, 2.2, 0.2, 100.0, 90.0, 45.0), GAIT, 0.01, True, None))
@example((supply(MODE_DIRECT, 2.2, 0.0, 0.0, 90.0, 45.0), GAIT, 0.01, True, None))
# a looped pack with no stack, and one step per pass
@example((supply(MODE_BATTERY, 0.0, 2.5, 100.0, 0.0, 0.0), GAIT, 0.01, True, None))
@example((supply(MODE_HYBRID, 0.5, 0.2, 100.0, 90.0, 45.0), GAIT, 1.0, True, None))
# 0 W everywhere: no step when looped, a stack that never starts when not
@example((supply(MODE_HYBRID, 0.5, 0.2, 100.0, 90.0, 45.0),
          profile_of([0.0, 1.0, 2.0], [0.0, -0.0, 30.0]), 0.1, True, None))
@example((supply(MODE_DIRECT, 0.5, 0.0, 0.0, 90.0, 45.0),
          profile_of([0.0, 1.0, 2.0], [0.0, -0.0, 30.0]), 0.1, False, None))
# a stack of 9e-57 W on a 1 W load, whose output is below the last bit of the demand
@example((supply(MODE_DIRECT, 7.7e-148, 0.0, 1.0, 9.3e-57, 0.0, soc_min=0.0),
          profile_of([0.0, 1.0], [1.0, 0.0]), 0.01, False, None))
# 1.6e-198 W drawn from a 2.8e-6 Wh tank, below the last bit of the tank
@example((supply(MODE_HYBRID, 2.78e-6, 0.0, 1.0, 1.0, 1.0, soc_min=0.0),
          profile_of([0.0, 1.0], [1.6e-198, 0.0]), 0.01, False, None))
# the hybrid preset's 6 Wh tank runs out on a step that delivers about 1 µW
@example((replace(HYBRID, tank=replace(HYBRID.tank, fuel_mass=6.0 / FUEL_WH_PER_KG)),
          synthesize_walk_profile(GaitParams(mech_peak=10.0, duration=5.0)), 0.01,
          True, HYBRID.battery.soc_min))
# a 2.2e-313 W demand: every energy of the run, and its fuel mass, is subnormal
@example((supply(MODE_DIRECT, 2.7778e-6, 0.0, 1.0, 1.0, 0.0, soc_min=0.0),
          profile_of([0.0, 1.0], [2.22507386e-313, 0.0]), 0.01, False, None))
# the direct preset's 0.8 V stack, stressed only by the ripple of a short gait
@example((presets.direct_fc_config(),
          synthesize_walk_profile(GaitParams(mech_peak=10.0, duration=5.0)), 0.01,
          False, None))
def test_run_invariants(run):
    config, profile, dt, looped, initial_soc = run
    calls = []  # the stack command of each dispatch
    dispatch_power = simulator.dispatch_power

    def counting_dispatch(demand, fc_command, *args):
        calls.append(fc_command)
        return dispatch_power(demand, fc_command, *args)

    # hypothesis rejects function-scoped fixtures such as monkeypatch
    try:
        with mock.patch.object(simulator, "dispatch_power", counting_dispatch), \
                mock.patch.object(simulator, "MAX_HOURS", MAX_STEPS * dt / 3600.0):
            res = simulate(config, profile, dt=dt, loop_profile=looped,
                           initial_soc=initial_soc, record_flows=True, flow_stride=1)
    except RuntimeError as exc:  # a looped run that nothing ends
        event("passes MAX_HOURS" if calls else "raises before the first step")
        assert looped and "MAX_HOURS" in str(exc)
        assert calls == [] or len(calls) >= MAX_STEPS
        return

    assert res.steps == len(calls) == len(res.flows)
    for f in res.flows:
        assert f.fc_output + f.battery_power - f.demand == f.curtailed - f.unmet
        assert min(f.unmet, f.curtailed) == 0.0

    # bus-side closure, relative to the energy the run's own flows carry,
    # so a flow below the last bit of the demand or of the tank counts too;
    # checked on the fuel mass as reported, in kg: a subnormal mass (a
    # 2e-313 W demand burns 1e-320 kg) holds too few bits to scale to Wh
    eta = config.electronics.converter_efficiency
    sinks = res.energy_delivered / eta + res.curtailed_energy
    burned_kg = (sinks - res.battery_discharge + res.battery_charge) / FUEL_WH_PER_KG
    flowed = math.fsum(f.fc_output + abs(f.battery_power) + f.curtailed
                       for f in res.flows) * dt / 3600.0
    assert abs(res.fuel_consumed - burned_kg) <= 1e-9 * flowed / FUEL_WH_PER_KG
    # and relative to the largest energy the run accounts for, stores included
    sources = res.fuel_consumed * FUEL_WH_PER_KG + res.battery_discharge - res.battery_charge
    demanded = (res.energy_delivered + res.unmet_energy) / eta
    scale = max(fuel_energy(config.tank), config.battery.capacity_wh,
                res.battery_discharge, res.battery_charge, sinks, demanded)
    assert abs(sources - sinks) <= 1e-9 * scale

    battery = config.battery
    assert battery.soc_min - 1e-12 <= res.soc_low <= res.soc_high <= battery.soc_max + 1e-12
    assert res.soc_low <= res.soc_final <= res.soc_high

    ripple, last, first = window_ripple(res.flows, calls, profile.duration)
    folds = last > 2 * first and last - first >= FOLD_BLOCK
    event(f"{res.termination}, {'looped' if looped else 'once'}{', folds' if folds else ''}")
    if folds:  # some output may be folded
        assert math.isclose(res.ripple, ripple, rel_tol=1e-12)
    else:
        assert res.ripple == ripple

    stack_h = sum(f.fc_output > 0.0 for f in res.flows) * dt / 3600.0
    life = fc_life(config.stack.cell_voltage, res.ripple, config.degradation)
    if config.mode != MODE_BATTERY and stack_h > 0.0 and life > 0.0:
        assert math.isclose(res.fc_damage, stack_h / life, rel_tol=1e-9)


@RUN
@given(mode=st.sampled_from(MODES), load=st.floats(min_value=1.0, max_value=150.0),
       fuel_wh=st.floats(min_value=0.0, max_value=5.0),
       capacity_wh=st.floats(min_value=0.0, max_value=5.0),
       power_w=st.floats(min_value=0.0, max_value=120.0),
       rated=st.floats(min_value=0.0, max_value=120.0),
       setpoint=st.floats(min_value=0.0, max_value=120.0),
       tau=st.floats(min_value=0.05, max_value=5.0),
       headroom=st.floats(min_value=0.01, max_value=1.0),
       eta=st.floats(min_value=0.8, max_value=1.0),
       battery_eta=st.floats(min_value=0.8, max_value=1.0),
       soc_min=st.floats(min_value=0.0, max_value=0.4),
       soc_max=st.floats(min_value=0.45, max_value=1.0),
       dt=st.floats(min_value=1.0, max_value=5.0))
# a shortfall of 0.8 % of the load, which does not end a run
@example(mode=MODE_HYBRID, load=1.0, fuel_wh=1.0, capacity_wh=0.0, power_w=0.0,
         rated=1.0, setpoint=1.0, tau=1.0, headroom=1.0, eta=0.9921875,
         battery_eta=1.0, soc_min=0.0, soc_max=1.0, dt=1.0)
# a shortfall of 2 %, and a pack spent before it has lasted the grace
@example(mode=MODE_BATTERY, load=47.0, fuel_wh=0.0, capacity_wh=0.125, power_w=46.0,
         rated=0.0, setpoint=0.0, tau=1.0, headroom=1.0, eta=1.0,
         battery_eta=0.8125, soc_min=0.0, soc_max=0.5, dt=1.0)
# the fuel runs out a step before the pack, which cannot carry the load alone
@example(mode=MODE_HYBRID, load=102.0, fuel_wh=1.9375, capacity_wh=2.6875,
         power_w=57.0, rated=53.25, setpoint=54.0, tau=1.0, headroom=1.0, eta=1.0,
         battery_eta=0.96875, soc_min=0.125, soc_max=0.8125, dt=1.0)
def test_flat_load_run_time_is_the_closed_forms(
        mode, load, fuel_wh, capacity_wh, power_w, rated, setpoint, tau, headroom,
        eta, battery_eta, soc_min, soc_max, dt):
    config = supply(mode, fuel_wh, capacity_wh, power_w, rated, setpoint, tau=tau,
                    headroom=headroom, eta=eta, battery_eta=battery_eta,
                    soc_min=soc_min, soc_max=soc_max)
    hours = run_time_constant_load(config, load)
    res = simulate(config, profile_of([0.0, 3600.0], [load, load]), dt=dt,
                   loop_profile=True)
    event(res.termination)
    assert abs(res.run_time - hours) * 3600.0 <= dt + 1e-6
