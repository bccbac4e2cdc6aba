"""The three benchmark workloads, one per question the toolkit answers.

Each workload builds its inputs from a seed in its constructor (the set-up
that ``setup_s`` times), then repeats one timed pass. A pass returns an
``Outcome``; ``check`` lists what is wrong with it, outside the timed
section. A workload drives one copy of the package, ``fchybrid`` from
``src/`` or the seed commit's frozen ``fchybrid_seed``, only through its
public module functions, looked up on the module at call time so that the
traced run can wrap them. ``seed_counts`` names the counts a pass must
share with the same pass on ``fchybrid_seed``; the worker checks them.

Gait parameters are drawn from the ranges of the acceptance tests. For the
two runs of the hybrid preset, draws whose average load exceeds its 45 W
setpoint are redrawn: the battery would drain and the run would end on
unmet demand, which is a correct answer but not the question asked.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SETPOINT_W = 45.0  # the hybrid preset's stack setpoint

# (low, high) ranges of tests/test_acceptance.py: criterion 5 for the 1 h
# mission, criterion 8 for the 60 s gaits
MISSION_RANGES = {"base_load": (20.0, 60.0), "stride_duty": (0.3, 0.9),
                  "mech_peak": (0.0, 30.0), "servo_efficiency": (0.4, 0.9)}
SHORT_RANGES = {"base_load": (30.0, 50.0), "gait_period": (0.5, 1.5),
                "stride_duty": (0.4, 0.7), "mech_peak": (0.0, 15.0),
                "servo_efficiency": (0.5, 0.9)}


def package(name: str) -> SimpleNamespace:
    """The modules of one copy of the package that the workloads call."""
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in (
        "config", "presets", "profile", "report", "simulator", "sizing")})


def draw_gait(pkg, rng: np.random.Generator, ranges: dict, duration: float,
              max_average: float = math.inf, **fixed):
    """Draw gait parameters, redrawing until the average load fits."""
    while True:
        drawn = {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in ranges.items()}
        params = pkg.profile.GaitParams(duration=duration, **drawn, **fixed)
        if params.average_power <= max_average:
            return params


def supply_ini(cfg) -> str:
    """Render a configuration in the INI layout config.load_supply_config reads."""
    sections = {
        "system": {"mode": cfg.mode},
        "fuel_cell": {f: getattr(cfg.stack, f) for f in (
            "rated_power", "mass", "cell_voltage", "ideal_voltage", "specific_power")},
        "battery": {f: getattr(cfg.battery, f) for f in (
            "chemistry", "mass", "specific_energy", "specific_power",
            "charge_efficiency", "discharge_efficiency", "cycle_life",
            "soc_min", "soc_max")},
        "fuel_tank": {"fuel_mass": cfg.tank.fuel_mass,
                      "specific_energy_electric": cfg.tank.specific_energy_electric},
        "electronics": {"mass": cfg.electronics.mass,
                        "converter_efficiency": cfg.electronics.converter_efficiency},
        "controller": {"fc_setpoint_w": cfg.controller.fc_setpoint,
                       "filter_time_constant_s": cfg.controller.filter_time_constant,
                       "trickle_headroom": cfg.controller.trickle_headroom},
        "degradation": {f: getattr(cfg.degradation, f) for f in (
            "ref_voltage", "ref_life", "slope", "ripple_gain")},
    }
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                     for k, v in items.items())
        lines.append("")
    return "\n".join(lines)


def energy_errors(cfg, res) -> list[str]:
    """Energy closure within 1e-6 relative and SOC inside its window, as
    acceptance criterion 5 checks them."""
    errors = []
    fuel_wh = res.fuel_consumed * cfg.tank.specific_energy_electric
    sources = fuel_wh + res.battery_discharge - res.battery_charge
    sinks = res.energy_delivered + res.curtailed_energy
    if abs(sources - sinks) > 1e-6 * max(sinks, 1.0):
        errors.append(f"energy closure: sources {sources!r} Wh, sinks {sinks!r} Wh")
    lo, hi = cfg.battery.soc_min, cfg.battery.soc_max
    if not lo - 1e-12 <= res.soc_low <= res.soc_high <= hi + 1e-12:
        errors.append(f"soc [{res.soc_low!r}, {res.soc_high!r}] outside [{lo}, {hi}]")
    return errors


@dataclass
class Outcome:
    """What one pass produced: the reports, and the counts that must repeat."""

    reports: list[str]
    counts: dict
    results: list = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.reports:
            h.update(text.encode())
        return h.hexdigest()


class GaitMission:
    """``fchybrid simulate --config c.ini --profile p.csv --flows 10``, then
    the report as JSON and as CSV."""

    name = "gait_mission"
    seed_counts = ("simulator.steps",)
    dt = 0.01
    stride = 10
    steps = 360_000  # 1 h at dt

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        rng = np.random.default_rng(seed)
        self.gait = draw_gait(pkg, rng, MISSION_RANGES, 3600.0, SETPOINT_W, gait_period=1.0)
        self.config = pkg.presets.hybrid_config()
        self.ini_path = workdir / f"{self.name}-{seed}-{pkg.config.__package__}.ini"
        self.ini_path.write_text(supply_ini(self.config), encoding="utf-8")
        walk = pkg.profile.synthesize_walk_profile(self.gait)
        self.csv = pkg.profile.emit_profile(walk).encode()
        self.rows = len(walk)
        self.sizes = {"profile_rows": self.rows, "steps": self.steps,
                      "flow_rows": self.steps // self.stride, "simulated_h": 1.0}

    def run(self) -> Outcome:
        pkg = self.pkg
        cfg = pkg.config.load_supply_config(self.ini_path)
        prof = pkg.profile.load_profile(self.csv)
        res = pkg.simulator.simulate(cfg, prof, dt=self.dt, record_flows=True,
                                     flow_stride=self.stride)
        js = pkg.report.emit(res, "json")
        cs = pkg.report.emit(res, "csv")
        return Outcome([js, cs], {"simulator.steps": res.steps, "report.flow_rows": len(res.flows),
                                  "report.json_bytes": len(js.encode())},
                       [cfg, prof, res])

    def check(self, out: Outcome) -> list[str]:
        cfg, prof, res = out.results
        errors = energy_errors(self.config, res)
        if cfg != self.config:
            errors.append("loaded config differs from the preset written")
        if len(prof) != self.rows:
            errors.append(f"profile has {len(prof)} rows, wrote {self.rows}")
        if res.termination != "profile_ended" or res.steps != self.steps:
            errors.append(f"ended {res.termination} after {res.steps} steps, "
                          f"expected profile_ended after {self.steps}")
        payload = json.loads(out.reports[0])
        flows = self.steps // self.stride
        if payload["steps"] != res.steps or len(payload["flows"]) != flows:
            errors.append("JSON report disagrees with the result")
        if out.reports[1].count("\n") != flows + 1:
            errors.append("CSV report does not hold one line per recorded flow")
        return errors


class LoopEndurance:
    """A 60 s gait looped until the fuel runs out; JSON summary only.

    The tank holds the gait's average load for 1.2 h less what the full
    battery adds, so every seed runs about 420k steps at dt = 0.01 and the
    work per pass does not swing with the drawn load. The step count must
    be the one ``fchybrid_seed`` gives for the same seed.
    """

    name = "loop_endurance"
    seed_counts = ("simulator.steps",)
    dt = 0.01
    hours = 1.2

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        rng = np.random.default_rng(seed)
        self.gait = draw_gait(pkg, rng, SHORT_RANGES, 60.0, SETPOINT_W)
        base = pkg.presets.hybrid_config()
        battery_wh = (base.battery.soc_max - base.battery.soc_min) * base.battery.capacity_wh
        fuel_wh = self.gait.average_power * self.hours - battery_wh
        tank = replace(base.tank, fuel_mass=fuel_wh / base.tank.specific_energy_electric)
        self.config = replace(base, tank=tank)
        self.profile = pkg.profile.synthesize_walk_profile(self.gait)
        self.sizes = {"profile_rows": len(self.profile),
                      "fuel_g": round(tank.fuel_mass * 1000.0, 3),
                      "target_h": self.hours, "flow_rows": 0}

    def run(self) -> Outcome:
        res = self.pkg.simulator.simulate(self.config, self.profile, dt=self.dt,
                                          loop_profile=True)
        js = self.pkg.report.emit(res, "json")
        return Outcome([js], {"simulator.steps": res.steps, "report.flow_rows": len(res.flows),
                              "report.json_bytes": len(js.encode())}, [res])

    def check(self, out: Outcome) -> list[str]:
        (res,) = out.results
        errors = energy_errors(self.config, res)
        if res.termination != "fuel_exhausted":
            errors.append(f"ended {res.termination}, expected fuel_exhausted")
        if json.loads(out.reports[0])["steps"] != res.steps:
            errors.append("JSON summary disagrees with the result")
        return errors


class OptimizeGait:
    """optimize_setpoint on three seeded 60 s gaits, each answer emitted as
    JSON. Three searches per pass average out how many evaluations one
    gait's search happens to need (27 to 30). Counters around the names
    the optimizer calls count its evaluations and steps; they cost a few
    microseconds a pass, the same on both copies of the package."""

    name = "optimize_gait"
    seed_counts = ()  # a better search may evaluate fewer setpoints
    dt = 0.02
    gaits = 3

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.inputs = pkg.sizing.SizingInputs(mass_budget=1.2, steady_power=45.0,
                                              peak_power=250.0)
        rng = np.random.default_rng(seed)
        self.profiles = [pkg.profile.synthesize_walk_profile(
            draw_gait(pkg, rng, SHORT_RANGES, 60.0)) for _ in range(self.gaits)]
        self.sizes = {"profile_rows": sum(len(p) for p in self.profiles),
                      "gaits": self.gaits, "steps_per_simulate": round(60.0 / self.dt),
                      "flow_rows": 0}

    def run(self) -> Outcome:
        sizing = self.pkg.sizing
        evaluate, simulate = sizing.evaluate_setpoint, sizing.simulate
        counts = {"simulator.steps": 0, "sizing.evaluate_calls": 0}

        def counted_evaluate(*args, **kwargs):
            counts["sizing.evaluate_calls"] += 1
            return evaluate(*args, **kwargs)

        def counted_simulate(*args, **kwargs):
            res = simulate(*args, **kwargs)
            counts["simulator.steps"] += res.steps
            return res

        answers, texts = [], []
        sizing.evaluate_setpoint, sizing.simulate = counted_evaluate, counted_simulate
        try:
            for prof in self.profiles:
                best, sized = sizing.optimize_setpoint(prof, self.inputs, dt=self.dt)
                answers.append((best, sized))
                texts.append(self.pkg.report.emit(sized, "json"))
        finally:
            sizing.evaluate_setpoint, sizing.simulate = evaluate, simulate
        counts["report.json_bytes"] = sum(len(t.encode()) for t in texts)
        return Outcome(texts, counts, answers)

    def check(self, out: Outcome) -> list[str]:
        errors = []
        evaluate = self.pkg.sizing.evaluate_setpoint
        for i, (prof, (best, sized)) in enumerate(zip(self.profiles, out.results)):
            if not sized.feasible:
                errors.append(f"gait {i}: returned sizing is infeasible")
                continue
            found = evaluate(prof, self.inputs, best, dt=self.dt)
            for x in (best - 0.5, best + 0.5):
                ev = evaluate(prof, self.inputs, x, dt=self.dt)
                if ev.feasible and found.run_time < ev.run_time - 1e-6:
                    errors.append(f"gait {i}: {x:.4f} W runs {ev.run_time!r} h, "
                                  f"longer than {found.run_time!r} h at {best:.4f} W")
        return errors


WORKLOADS = {w.name: w for w in (GaitMission, LoopEndurance, OptimizeGait)}
