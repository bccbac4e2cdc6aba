"""Energy management: setpoint dispatch, ripple suppression, ripple metric.

The policy keeps the fuel cell at a commanded power and lets the battery
absorb everything transient: surplus trickle-charges it, deficits draw it
down. Whatever the battery cannot take is curtailed; whatever it cannot
supply goes unmet. Every dispatch satisfies the exact balance

    fc_output + battery_power - demand = curtailed - unmet

with battery_power signed positive on discharge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, bounded, check_fields
from .powertrain import BatterySpec, BatteryState, battery_step


@dataclass(frozen=True)
class ControllerParams:
    fc_setpoint: float = bounded(">= 0")  # W commanded from the stack
    filter_time_constant: float = bounded("> 0", 1.0)  # s, first-order suppression filter
    trickle_headroom: float = bounded("in (0, 1]", 1.0)  # charge power cap, fraction of pack max

    def __post_init__(self):
        check_fields(self)


@dataclass(slots=True)
class EnergyFlow:
    """One dispatch step. Power in W, battery_power positive discharging."""

    time: float
    demand: float
    fc_output: float
    battery_power: float
    unmet: float
    curtailed: float
    soc: float = 0.0  # battery state of charge after the step


def suppression_filter(previous: float, commanded: float, dt: float, tau: float) -> float:
    """One step of the first-order low-pass between command and stack.

    y' = y + (dt / (tau + dt)) * (u - y). Unconditionally stable for any
    positive dt, fixed point at y = u.
    """
    if not dt > 0:
        raise ValidationError("dt must be > 0")
    if not tau > 0:
        raise ValidationError("tau must be > 0")
    return previous + (dt / (tau + dt)) * (commanded - previous)


# dispatch_power builds one flow per simulated step. Calling the class
# with seven fields runs its Python __init__ through type.__call__,
# 280-330 ns on CPython 3.11; object.__new__ and seven slot stores take
# 160 ns. The class has no __post_init__, so both build the same record.
_new = object.__new__


def dispatch_power(demand: float, fc_command: float, trickle_headroom: float,
                   spec: BatterySpec, state: BatteryState,
                   fuel_remaining_wh: float, dt: float,
                   time: float = 0.0) -> tuple[EnergyFlow, BatteryState]:
    """Split one step of demand between a commanded stack and the battery.

    The stack delivers fc_command, cut to what fuel_remaining_wh can
    sustain over dt. The battery takes the signed residual through
    ``battery_step``, charge requests capped at trickle_headroom of its
    power bound; what it cannot take is curtailed, what it cannot supply
    is unmet. Returns the step's flow, stamped with time, and the new
    battery state.

    ``simulate`` calls this once per step, so it does nothing beyond the
    balance: one ``battery_step`` call and one flow, built slot by slot.
    """
    if dt <= 0.0:
        raise ValidationError("dt must be > 0")
    if demand < 0.0:
        raise ValidationError("demand must be >= 0")
    fc_output = fc_command
    deliverable = fuel_remaining_wh * 3600.0 / dt
    if fc_output > deliverable:
        fc_output = deliverable if deliverable > 0.0 else 0.0
    request = demand - fc_output  # positive: discharge needed
    if request < 0.0:
        cap = -trickle_headroom * spec.max_power_w
        if request < cap:
            request = cap
    state, actual = battery_step(spec, state, request, dt)
    residual = fc_output + actual - demand
    flow = _new(EnergyFlow)
    flow.time = time
    flow.demand = demand
    flow.fc_output = fc_output
    flow.battery_power = actual
    flow.soc = state.soc
    if residual >= 0.0:
        flow.unmet = 0.0
        flow.curtailed = residual
    else:
        flow.unmet = -residual
        flow.curtailed = 0.0
    return flow, state


def ripple_of(low: float, high: float, total: float, count: int) -> float:
    """Relative ripple (high - low) / mean of a window, mean = total / count.

    The one body of the ripple law: ``measure_ripple`` and the running
    statistics ``simulate`` folds a looped run into both end here. A mean
    of exactly 0 (a stack that is off) gives 0.0; a negative mean raises
    ValidationError.
    """
    mean = total / count
    if mean < 0.0:
        raise ValidationError("ripple needs a non-negative-mean steady window")
    if mean == 0.0:
        return 0.0
    return (high - low) / mean


def window_stats(window) -> tuple[float, float, float, int]:
    """(min, max, sum, count) of a non-empty window, as ``ripple_of`` takes
    them. An array("d") is not copied."""
    arr = np.asarray(window, dtype=float)
    return float(arr.min()), float(arr.max()), float(arr.sum()), arr.size


def measure_ripple(series) -> float:
    """Relative ripple (max - min) / mean over the steady half of a series.

    The first half is discarded as startup transient. A steady mean of
    exactly 0 (a stack that is off) gives 0.0; an empty series or a
    negative mean raises ValidationError. An array("d") is not copied.
    """
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise ValidationError("ripple needs a non-empty series")
    return ripple_of(*window_stats(arr[arr.size // 2:]))
