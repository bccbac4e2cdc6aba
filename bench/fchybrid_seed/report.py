"""Comparison tables and deterministic result emission.

All numbers are emitted at 6 significant digits, fields in fixed order,
so re-running a report on the same inputs gives byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ValidationError
from .profile import ProfileStats
from .simulator import (
    HybridConfig,
    MODE_BATTERY,
    SimulationResult,
    run_time_constant_load,
)
from .sizing import SizingResult, system_life

COMPARISON_CSV_HEADER = ("label,stack_mass_kg,fuel_mass_kg,"
                         "energy_density_wh_per_kg,system_life_h,run_time_h,"
                         "load_basis_w,feasible_at_peak")


@dataclass(slots=True)
class ComparisonRow:
    """One supply option. Mass fields are None where the part is absent."""

    label: str
    stack_mass: float | None  # kg
    fuel_mass: float | None  # kg
    energy_density: float  # Wh/kg
    system_life: float  # h
    run_time: float  # h
    load_basis: float  # W
    feasible_at_peak: bool


def _row_from_sizing(result: SizingResult, peak_power: float) -> ComparisonRow:
    battery_mode = result.mode == MODE_BATTERY
    return ComparisonRow(
        label=result.label or result.mode,
        stack_mass=None if battery_mode else result.stack_mass,
        fuel_mass=None if battery_mode else result.fuel_mass,
        energy_density=result.energy_density,
        system_life=result.system_life,
        run_time=result.run_time,
        load_basis=result.load_basis,
        feasible_at_peak=result.peak_capability >= peak_power,
    )


def _row_from_config(config: HybridConfig, peak_power: float,
                     battery_load: float) -> ComparisonRow:
    battery_mode = config.mode == MODE_BATTERY
    if battery_mode:
        load = battery_load
        density = config.battery.specific_energy
        capability = config.battery.max_power_w
        label = f"{config.battery.chemistry} battery"
    else:
        load = min(config.controller.fc_setpoint, config.stack.rated_power)
        density = config.tank.specific_energy_electric
        capability = config.stack.rated_power
        if config.mode != MODE_BATTERY and config.battery.mass > 0:
            capability += config.battery.max_power_w
        label = config.mode.replace("_", " ")
    if load <= 0:
        raise ValidationError("comparison needs a positive load basis")
    estimate = run_time_constant_load(config, load)
    life = system_life(config, run_time=estimate.hours)
    return ComparisonRow(
        label=label,
        stack_mass=None if battery_mode else config.stack.mass,
        fuel_mass=None if battery_mode else config.tank.fuel_mass,
        energy_density=density,
        system_life=life,
        run_time=estimate.hours,
        load_basis=load,
        feasible_at_peak=capability >= peak_power,
    )


def compare(entries, peak_power: float = 250.0,
            battery_load: float = 16.0) -> list[ComparisonRow]:
    """Build comparison rows from sizing results or configurations.

    peak_power is the demand spike every option is judged against;
    battery_load is the draw used to rate battery-only configurations
    that carry no load basis of their own.
    """
    rows = []
    for entry in entries:
        if isinstance(entry, SizingResult):
            rows.append(_row_from_sizing(entry, peak_power))
        elif isinstance(entry, HybridConfig):
            rows.append(_row_from_config(entry, peak_power, battery_load))
        else:
            raise ValidationError(
                f"cannot compare a {type(entry).__name__}")
    return rows


def _q6(x: float) -> float:
    """Quantize to the 6-significant-digit emission precision."""
    return float(f"{x:.6g}")


def _f6(x: float | None) -> str:
    return "" if x is None else f"{x:.6g}"


def _sim_payload(result: SimulationResult) -> dict:
    payload = {
        "run_time_h": _q6(result.run_time),
        "termination": result.termination,
        "fuel_consumed_kg": _q6(result.fuel_consumed),
        "energy_delivered_wh": _q6(result.energy_delivered),
        "unmet_energy_wh": _q6(result.unmet_energy),
        "curtailed_energy_wh": _q6(result.curtailed_energy),
        "battery_cycles": _q6(result.battery_cycles),
        "fc_damage": _q6(result.fc_damage),
        "ripple": _q6(result.ripple),
        "battery_discharge_wh": _q6(result.battery_discharge),
        "battery_charge_wh": _q6(result.battery_charge),
        "soc_initial": _q6(result.soc_initial),
        "soc_final": _q6(result.soc_final),
        "steps": result.steps,
        "dt_s": _q6(result.dt),
    }
    if result.flows:
        payload["flows"] = [
            {
                "time_s": _q6(f.time),
                "demand_w": _q6(f.demand),
                "fc_output_w": _q6(f.fc_output),
                "battery_power_w": _q6(f.battery_power),
                "unmet_w": _q6(f.unmet),
                "curtailed_w": _q6(f.curtailed),
                "soc": _q6(f.soc),
            }
            for f in result.flows
        ]
    return payload


def _sizing_payload(result: SizingResult) -> dict:
    return {
        "label": result.label,
        "mode": result.mode,
        "stack_mass_kg": _q6(result.stack_mass),
        "battery_mass_kg": _q6(result.battery_mass),
        "fuel_mass_kg": _q6(result.fuel_mass),
        "electronics_mass_kg": _q6(result.electronics_mass),
        "run_time_h": _q6(result.run_time),
        "system_life_h": _q6(result.system_life),
        "energy_density_wh_per_kg": _q6(result.energy_density),
        "system_energy_density_wh_per_kg": _q6(result.system_energy_density),
        "load_basis_w": _q6(result.load_basis),
        "peak_capability_w": _q6(result.peak_capability),
        "feasible": result.feasible,
        "warnings": list(result.warnings),
    }


def _stats_payload(stats: ProfileStats) -> dict:
    return {
        "average_power_w": _q6(stats.average_power),
        "peak_power_w": _q6(stats.peak_power),
        "idle_fraction": _q6(stats.idle_fraction),
        "duration_s": _q6(stats.duration),
        "energy_wh": _q6(stats.energy),
    }


def _row_payload(row: ComparisonRow) -> dict:
    return {
        "label": row.label,
        "stack_mass_kg": None if row.stack_mass is None else _q6(row.stack_mass),
        "fuel_mass_kg": None if row.fuel_mass is None else _q6(row.fuel_mass),
        "energy_density_wh_per_kg": _q6(row.energy_density),
        "system_life_h": _q6(row.system_life),
        "run_time_h": _q6(row.run_time),
        "load_basis_w": _q6(row.load_basis),
        "feasible_at_peak": row.feasible_at_peak,
    }


def _rows_csv(rows: list[ComparisonRow]) -> str:
    lines = [COMPARISON_CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.label,
            _f6(r.stack_mass),
            _f6(r.fuel_mass),
            _f6(r.energy_density),
            _f6(r.system_life),
            _f6(r.run_time),
            _f6(r.load_basis),
            "true" if r.feasible_at_peak else "false",
        ]))
    return "\n".join(lines) + "\n"


def _kv_csv(payload: dict) -> str:
    lines = ["key,value"]
    for k, v in payload.items():
        if isinstance(v, list):
            continue
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{k},{v}")
    return "\n".join(lines) + "\n"


def _flows_csv(result: SimulationResult) -> str:
    lines = ["time_s,demand_w,fc_output_w,battery_power_w,unmet_w,curtailed_w,soc"]
    for f in result.flows:
        lines.append(",".join(f"{v:.6g}" for v in (
            f.time, f.demand, f.fc_output, f.battery_power,
            f.unmet, f.curtailed, f.soc)))
    return "\n".join(lines) + "\n"


def emit(obj, fmt: str = "json") -> str:
    """Serialize a result object to JSON or CSV text.

    CSV gives the comparison table for rows, the recorded flow series
    for a simulation that logged one, and key,value lines otherwise.
    Empty flow logs are omitted from JSON entirely.
    """
    if fmt not in ("json", "csv"):
        raise ValidationError("format must be 'json' or 'csv'")
    if isinstance(obj, list) and all(isinstance(r, ComparisonRow) for r in obj):
        if fmt == "csv":
            return _rows_csv(obj)
        return json.dumps([_row_payload(r) for r in obj], indent=2) + "\n"
    if isinstance(obj, SimulationResult):
        if fmt == "csv":
            return _flows_csv(obj) if obj.flows else _kv_csv(_sim_payload(obj))
        return json.dumps(_sim_payload(obj), indent=2) + "\n"
    if isinstance(obj, SizingResult):
        payload = _sizing_payload(obj)
        return _kv_csv(payload) if fmt == "csv" else json.dumps(payload, indent=2) + "\n"
    if isinstance(obj, ProfileStats):
        payload = _stats_payload(obj)
        return _kv_csv(payload) if fmt == "csv" else json.dumps(payload, indent=2) + "\n"
    if isinstance(obj, list) and all(isinstance(r, SizingResult) for r in obj):
        payloads = [_sizing_payload(r) for r in obj]
        if fmt == "csv":
            return "".join(_kv_csv(p) for p in payloads)
        return json.dumps(payloads, indent=2) + "\n"
    raise ValidationError(f"cannot emit a {type(obj).__name__}")
