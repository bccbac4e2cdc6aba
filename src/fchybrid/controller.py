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

from .errors import ValidationError
from .powertrain import BatterySpec, BatteryState, battery_step


@dataclass(frozen=True)
class ControllerParams:
    fc_setpoint: float  # W commanded from the stack
    filter_time_constant: float = 1.0  # s, first-order suppression filter
    trickle_headroom: float = 1.0  # charge power cap as fraction of pack max

    def __post_init__(self):
        if self.fc_setpoint < 0:
            raise ValidationError("fc_setpoint must be >= 0")
        if self.filter_time_constant <= 0:
            raise ValidationError("filter_time_constant must be > 0")
        if not 0.0 < self.trickle_headroom <= 1.0:
            raise ValidationError("trickle_headroom must be in (0, 1]")


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
    if dt <= 0:
        raise ValidationError("dt must be > 0")
    if tau <= 0:
        raise ValidationError("tau must be > 0")
    return previous + (dt / (tau + dt)) * (commanded - previous)


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
    balance: one ``battery_step`` call and one positionally built flow.
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
    if residual >= 0.0:
        return EnergyFlow(time, demand, fc_output, actual, 0.0, residual, state.soc), state
    return EnergyFlow(time, demand, fc_output, actual, -residual, 0.0, state.soc), state


def dispatch(demand: float, params: ControllerParams, spec: BatterySpec,
             state: BatteryState, fuel_remaining_wh: float, dt: float,
             time: float = 0.0) -> tuple[EnergyFlow, BatteryState]:
    """Split one step of demand between fuel cell and battery.

    The stack delivers min(fc_setpoint, what the remaining fuel can
    sustain over dt). The battery then takes the signed residual, charge
    requests capped at trickle_headroom of its power bound.
    """
    return dispatch_power(demand, params.fc_setpoint, params.trickle_headroom,
                          spec, state, fuel_remaining_wh, dt, time)


def measure_ripple(series) -> float:
    """Relative ripple (max - min) / mean over the steady half of a series.

    The first half is discarded as startup transient. The steady window
    must have a positive mean.
    """
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise ValidationError("ripple needs a non-empty series")
    steady = arr[arr.size // 2:]
    mean = float(steady.mean())
    if mean <= 0.0:
        raise ValidationError("ripple needs a positive-mean steady window")
    return float(steady.max() - steady.min()) / mean
