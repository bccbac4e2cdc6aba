"""Spans around the package's layers, and replay timing of the step kernel.

The traced run replaces module attributes with wrappers that record a span
(name, start, end, parent, pass) per call. Wrapping ``fchybrid.sizing``'s
own ``simulate`` and ``evaluate_setpoint`` names catches the optimizer's
internal calls; the other names are the ones the workloads call. Spans stay
in memory until the run ends.

Per-step functions run hundreds of thousands of times a pass, too often to
wrap in a timed run. ``capture`` records once the arguments the simulator
passes them, and ``replay`` times each function alone over that stream.

``simulate`` low-pass filters the stack command and measures ripple inline;
it calls neither ``controller.suppression_filter`` nor
``controller.measure_ripple``, so their figures move no end-to-end metric.
The filter's stream is rebuilt from the simulator's own arithmetic (command
= min(demand + acceptance, setpoint)), not captured from calls, and has to
follow that code if it changes; the ripple replay runs over the captured
stack output series.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from array import array

from fchybrid import config as fcconfig
from fchybrid import controller
from fchybrid import powertrain
from fchybrid import profile as fcprofile
from fchybrid import report
from fchybrid import simulator
from fchybrid import sizing

# (module, attribute, span name, what to keep from the result)
WRAPPED = [
    (fcprofile, "synthesize_walk_profile", "profile.synthesize_walk_profile", None),
    (fcprofile, "emit_profile", "profile.emit_profile", None),
    (fcprofile, "load_profile", "profile.load_profile", len),
    (fcconfig, "load_supply_config", "config.load_supply_config", None),
    (simulator, "simulate", "simulator.simulate", lambda r: r.steps),
    (sizing, "simulate", "simulator.simulate", lambda r: r.steps),
    (sizing, "evaluate_setpoint", "sizing.evaluate_setpoint", lambda r: r.feasible),
    (sizing, "optimize_setpoint", "sizing.optimize_setpoint", None),
    (report, "emit", "report.emit", lambda text: len(text.encode())),
]

NAME, START, END, PARENT, PASS, KEPT = range(6)


class Tracer:
    """Records spans while installed; ``pass_id`` tags spans of one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = 0
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, keep):
        def traced(*args, **kwargs):
            span_name = name
            if name == "report.emit":
                span_name += "_" + kwargs.get("fmt", args[1] if len(args) > 1 else "json")
            index = len(self.spans)
            span = [span_name, 0.0, 0.0, self._open[-1] if self._open else -1,
                    self.pass_id, None]
            self.spans.append(span)
            self._open.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._open.pop()
            if keep is not None:
                span[KEPT] = keep(result)
            return result
        return traced

    def install(self):
        for module, attr, name, keep in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, keep))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration less the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "pass", "kept")
        return [dict(zip(keys, s)) for s in self.spans]


def per_pass(tracer: Tracer, passes: list[int]) -> dict[str, float]:
    """Per-layer metrics from the spans: median over passes of each
    pass's total, so one metric describes one pass like wall_s does."""
    own = tracer.self_times()
    totals = {p: {} for p in passes}

    def add(p, key, value):
        totals[p][key] = totals[p].get(key, 0.0) + value

    for s, self_s in zip(tracer.spans, own):
        p = s[PASS]
        if p not in totals:
            continue
        name, dur = s[NAME], s[END] - s[START]
        add(p, name + ".calls", 1)
        add(p, name + ".s", dur)
        add(p, name + ".self_s", self_s)
        if s[KEPT] is not None:
            add(p, name + ".kept", float(s[KEPT]))
        if s[PARENT] >= 0 and tracer.spans[s[PARENT]][NAME] == "sizing.evaluate_setpoint":
            add(p, "sizing.simulate_calls", 1)

    def med(key):
        return statistics.median(t.get(key, 0.0) for t in totals.values())

    m = {
        "profile.load_s": med("profile.load_profile.s"),
        "profile.rows": med("profile.load_profile.kept"),
        "config.load_s": med("config.load_supply_config.s"),
        "simulator.calls": med("simulator.simulate.calls"),
        "simulator.steps": med("simulator.simulate.kept"),
        "simulator.simulate_s": med("simulator.simulate.s"),
        "sizing.evaluate_calls": med("sizing.evaluate_setpoint.calls"),
        "sizing.simulate_calls": med("sizing.simulate_calls"),
        "sizing.evaluate_self_s": med("sizing.evaluate_setpoint.self_s"),
        "sizing.search_self_s": med("sizing.optimize_setpoint.self_s"),
        "report.emit_json_s": med("report.emit_json.s"),
        "report.emit_csv_s": med("report.emit_csv.s"),
        "report.json_bytes": med("report.emit_json.kept"),
        "report.csv_bytes": med("report.emit_csv.kept"),
    }
    evals = m["sizing.evaluate_calls"]
    m["sizing.feasible_fraction"] = (med("sizing.evaluate_setpoint.kept") / evals
                                     if evals else 0.0)
    m["profile.load_rows_per_s"] = _rate(m["profile.rows"], m["profile.load_s"])
    m["simulator.steps_per_s"] = _rate(m["simulator.steps"], m["simulator.simulate_s"])
    m["simulator.ns_per_step"] = _rate(m["simulator.simulate_s"] * 1e9, m["simulator.steps"])
    return m


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


class Capture:
    """The argument stream the simulator sends to the per-step functions.

    Floats go to typed arrays so a 430k-step pass costs tens of MB, not
    hundreds; battery specs are few and kept by reference.
    """

    def __init__(self):
        self.acceptance = {k: array("d") for k in ("soc", "dt", "headroom")}
        self.acceptance_spec: list = []
        self.dispatch = {k: array("d") for k in (
            "demand", "command", "headroom", "soc", "discharge", "charge",
            "fuel", "dt", "time")}
        self.dispatch_spec: list = []
        self.step = {k: array("d") for k in ("soc", "discharge", "charge", "power", "dt")}
        self.step_spec: list = []
        self.fc_series: list[list[float]] = []  # one per simulate call
        self.filter = {k: array("d") for k in ("previous", "commanded", "dt", "tau")}


def capture(run_pass) -> Capture:
    """Run one pass with recorders on the simulator's per-step calls."""
    cap = Capture()
    acc_fn = simulator.battery_charge_acceptance
    disp_fn = simulator.dispatch_power
    step_fn = controller.battery_step
    sim_fn = simulator.simulate
    a, d, b, f = cap.acceptance, cap.dispatch, cap.step, cap.filter
    last = {}  # per simulate call: previous filter output and acceptance

    def acceptance(spec, state, dt, headroom_fraction=1.0):
        a["soc"].append(state.soc)
        a["dt"].append(dt)
        a["headroom"].append(headroom_fraction)
        cap.acceptance_spec.append(spec)
        last["acc"] = value = acc_fn(spec, state, dt, headroom_fraction)
        return value

    def dispatch(demand, fc_command, headroom, spec, state, fuel, dt, time=0.0):
        for key, v in zip(("demand", "command", "headroom", "soc", "discharge",
                           "charge", "fuel", "dt", "time"),
                          (demand, fc_command, headroom, state.soc,
                           state.discharge_throughput, state.charge_throughput,
                           fuel, dt, time)):
            d[key].append(v)
        cap.dispatch_spec.append(spec)
        if "acc" in last:
            # the simulator filters min(demand + acceptance, setpoint) into
            # fc_command; rebuild that filter call from the stream
            cfg = last["config"]
            commanded = min(demand + last.pop("acc"),
                            min(cfg.controller.fc_setpoint, cfg.stack.rated_power))
            f["previous"].append(last.get("filt", commanded))
            f["commanded"].append(commanded)
            f["dt"].append(dt)
            f["tau"].append(cfg.controller.filter_time_constant)
            last["filt"] = fc_command
        flow, new_state = disp_fn(demand, fc_command, headroom, spec, state, fuel, dt, time)
        cap.fc_series[-1].append(flow.fc_output)
        return flow, new_state

    def battery_step(spec, state, power, dt):
        for key, v in zip(("soc", "discharge", "charge", "power", "dt"),
                          (state.soc, state.discharge_throughput,
                           state.charge_throughput, power, dt)):
            b[key].append(v)
        cap.step_spec.append(spec)
        return step_fn(spec, state, power, dt)

    def simulate(config, *args, **kwargs):
        last.clear()
        last["config"] = config
        cap.fc_series.append([])
        return sim_fn(config, *args, **kwargs)

    patches = [(simulator, "battery_charge_acceptance", acceptance),
               (simulator, "dispatch_power", dispatch),
               (controller, "battery_step", battery_step),
               (simulator, "simulate", simulate),
               (sizing, "simulate", simulate)]
    saved = [(m, n, getattr(m, n)) for m, n, _ in patches]
    for m, n, fn in patches:
        setattr(m, n, fn)
    try:
        run_pass()
    finally:
        for m, n, fn in saved:
            setattr(m, n, fn)
    return cap


CHUNK = 4096


def _time_calls(fn, build_args, n: int) -> float:
    """Seconds spent calling fn over argument tuples built chunk by chunk;
    building a chunk is outside the clock, the loop itself is inside."""
    total = 0.0
    for lo in range(0, n, CHUNK):
        chunk = build_args(lo, min(lo + CHUNK, n))
        t0 = time.perf_counter()
        for args in chunk:
            fn(*args)
        total += time.perf_counter() - t0
    return total


def replay(cap: Capture) -> dict[str, float]:
    """ns per call of each per-step function over the captured stream."""
    State = powertrain.BatteryState
    a, d, b, f = cap.acceptance, cap.dispatch, cap.step, cap.filter

    def acc_args(lo, hi):
        return [(cap.acceptance_spec[i], State(a["soc"][i]), a["dt"][i], a["headroom"][i])
                for i in range(lo, hi)]

    def disp_args(lo, hi):
        return [(d["demand"][i], d["command"][i], d["headroom"][i], cap.dispatch_spec[i],
                 State(d["soc"][i], d["discharge"][i], d["charge"][i]),
                 d["fuel"][i], d["dt"][i], d["time"][i]) for i in range(lo, hi)]

    def step_args(lo, hi):
        return [(cap.step_spec[i], State(b["soc"][i], b["discharge"][i], b["charge"][i]),
                 b["power"][i], b["dt"][i]) for i in range(lo, hi)]

    def filter_args(lo, hi):
        return [(f["previous"][i], f["commanded"][i], f["dt"][i], f["tau"][i])
                for i in range(lo, hi)]

    out = {}
    for key, fn, build, n in (
            ("powertrain.charge_acceptance_ns", powertrain.battery_charge_acceptance,
             acc_args, len(a["soc"])),
            ("controller.dispatch_power_ns", controller.dispatch_power, disp_args, len(d["demand"])),
            ("powertrain.battery_step_ns", powertrain.battery_step, step_args, len(b["soc"])),
            ("controller.suppression_filter_ns", controller.suppression_filter,
             filter_args, len(f["previous"]))):
        out[key] = _time_calls(fn, build, n) / n * 1e9 if n else 0.0
    ripple = []
    for _ in range(5):
        t0 = time.perf_counter()
        for series in cap.fc_series:
            if series:
                controller.measure_ripple(series)
        ripple.append(time.perf_counter() - t0)
    out["controller.measure_ripple_s"] = statistics.median(ripple)
    out["controller.replayed_calls"] = float(len(d["demand"]))
    return out


def simulate_alloc_peak(run_pass) -> float:
    """tracemalloc peak of the first simulate call in a pass, MB.

    Tracing slows the step loop about 25 times, so it covers one call
    only, and only while that call runs. The optimizer's calls all step
    the same 60 s gait, so its first call stands for the rest.
    """
    peaks = []
    sim_fns = {m: getattr(m, "simulate") for m in (simulator, sizing)}

    def measured(fn):
        def simulate(*args, **kwargs):
            if peaks:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return simulate

    for m, fn in sim_fns.items():
        setattr(m, "simulate", measured(fn))
    try:
        run_pass()
    finally:
        for m, fn in sim_fns.items():
            setattr(m, "simulate", fn)
    return peaks[0] / 2**20
