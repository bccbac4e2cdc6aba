"""Comparison tables and deterministic result emission.

All numbers are emitted at 6 significant digits, fields in fixed order,
so re-running a report on the same inputs gives byte-identical output.
Flow series, the bulk of a long run's report, are formatted once per row
with the ``%.6g`` template the CSV uses, ``_CHUNK`` rows at a time, and the
report is joined once from the finished chunks, so emission needs about
twice the report's size; JSON turns each cell into the token
``json.dumps`` writes for the cell's value (see ``_json_token``).
RFC 8259 JSON has no Infinity or NaN: non-finite values are written
``null`` in JSON and ``inf``/``nan`` in CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter

from .controller import EnergyFlow
from .errors import ValidationError
from .presets import PACK_COMPARISON_LOAD_W, PEAK_POWER_W
from .profile import ProfileStats
from .simulator import HybridConfig, MODE_BATTERY, SimulationResult
from .sizing import SizingResult, rate


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


def _row_from_config(config: HybridConfig, peak_power: float,
                     battery_load: float) -> ComparisonRow:
    rated = rate(config, battery_load)
    if not 0.0 < rated.load_basis < math.inf:
        raise ValidationError("comparison load basis must be finite and > 0")
    fuel = config.mode != MODE_BATTERY
    return ComparisonRow(
        label=rated.label,
        stack_mass=rated.stack_mass if fuel else None,
        fuel_mass=rated.fuel_mass if fuel else None,
        energy_density=rated.energy_density,
        system_life=rated.system_life,
        run_time=rated.run_time,
        load_basis=rated.load_basis,
        feasible_at_peak=rated.peak_capability >= peak_power,
    )


def compare(entries, peak_power: float = PEAK_POWER_W,
            battery_load: float = PACK_COMPARISON_LOAD_W) -> list[ComparisonRow]:
    """Rate each configuration as one comparison row, labelled by mode.

    Each row is the configuration's rating by sizing.rate, the rule that
    `size` reports too: a fuel supply runs on its fuel alone (pack at its
    floor) at the most its stack sustains, effective_setpoint times the
    converter efficiency; a battery pack runs from full at battery_load.
    A row is feasible at peak_power, the demand spike every option is
    judged against, when the rating's peak capability (the stack ceiling
    plus the pack's power bound) reaches it. Both loads must be finite
    and > 0, and so must a fuel supply's load basis.
    """
    if not 0.0 < peak_power < math.inf:
        raise ValidationError("peak_power must be finite and > 0")
    if not 0.0 < battery_load < math.inf:
        raise ValidationError("battery_load must be finite and > 0")
    rows = []
    for entry in entries:
        if not isinstance(entry, HybridConfig):
            raise ValidationError(
                f"cannot compare a {type(entry).__name__}")
        rows.append(_row_from_config(entry, peak_power, battery_load))
    return rows


def _table(cls, *pairs: tuple[str, str]) -> tuple:
    """A record's emitted layout: its keys in order, an attrgetter of the
    matching attributes, and whether each is quantized, which the field
    decides by being annotated a float."""
    types = {f.name: f.type for f in fields(cls)}
    attrs = [attr for _, attr in pairs]
    return (tuple(key for key, _ in pairs), attrgetter(*attrs),
            tuple(types[attr].startswith("float") for attr in attrs))


_SIMULATION = _table(
    SimulationResult,
    ("run_time_h", "run_time"), ("termination", "termination"),
    ("fuel_consumed_kg", "fuel_consumed"), ("energy_delivered_wh", "energy_delivered"),
    ("unmet_energy_wh", "unmet_energy"), ("curtailed_energy_wh", "curtailed_energy"),
    ("battery_cycles", "battery_cycles"), ("fc_damage", "fc_damage"), ("ripple", "ripple"),
    ("battery_discharge_wh", "battery_discharge"), ("battery_charge_wh", "battery_charge"),
    ("soc_initial", "soc_initial"), ("soc_final", "soc_final"), ("steps", "steps"),
    ("dt_s", "dt"))
_FLOW = _table(
    EnergyFlow,
    ("time_s", "time"), ("demand_w", "demand"), ("fc_output_w", "fc_output"),
    ("battery_power_w", "battery_power"), ("unmet_w", "unmet"),
    ("curtailed_w", "curtailed"), ("soc", "soc"))
_SIZING = _table(
    SizingResult,
    ("label", "label"), ("mode", "mode"), ("stack_mass_kg", "stack_mass"),
    ("battery_mass_kg", "battery_mass"), ("fuel_mass_kg", "fuel_mass"),
    ("electronics_mass_kg", "electronics_mass"), ("run_time_h", "run_time"),
    ("system_life_h", "system_life"), ("energy_density_wh_per_kg", "energy_density"),
    ("system_energy_density_wh_per_kg", "system_energy_density"),
    ("load_basis_w", "load_basis"), ("peak_capability_w", "peak_capability"),
    ("feasible", "feasible"), ("warnings", "warnings"))
_STATS = _table(
    ProfileStats,
    ("average_power_w", "average_power"), ("peak_power_w", "peak_power"),
    ("idle_fraction", "idle_fraction"), ("duration_s", "duration"), ("energy_wh", "energy"))
_ROW = _table(
    ComparisonRow,
    ("label", "label"), ("stack_mass_kg", "stack_mass"), ("fuel_mass_kg", "fuel_mass"),
    ("energy_density_wh_per_kg", "energy_density"), ("system_life_h", "system_life"),
    ("run_time_h", "run_time"), ("load_basis_w", "load_basis"),
    ("feasible_at_peak", "feasible_at_peak"))

COMPARISON_CSV_HEADER = ",".join(_ROW[0])


def _q6(x: float) -> float:
    """Quantize to the 6-significant-digit emission precision."""
    return float(f"{x:.6g}")


def _payload(obj, table) -> dict:
    keys, get, quantized = table
    return {key: _q6(v) if q and v is not None else v
            for key, q, v in zip(keys, quantized, get(obj))}


def _json_payload(obj, table) -> dict:
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in _payload(obj, table).items()}


def _quoted(text: str) -> str:
    return '"{}"'.format(text.replace('"', '""'))


def _text(v) -> str:
    """A CSV cell; text holding a comma, a quote or a line break is quoted
    per RFC 4180."""
    if isinstance(v, bool):
        return "true" if v else "false"
    text = str(v)
    return _quoted(text) if any(c in text for c in ',"\n\r') else text


def _kv_csv(payload: dict) -> str:
    lines = ["key,value"]
    for k, v in payload.items():
        if isinstance(v, list):  # one quoted line per item, under the singular key
            lines.extend(f"{k.removesuffix('s')},{_quoted(item)}" for item in v)
        else:
            lines.append(f"{k},{_text(v)}")
    return "\n".join(lines) + "\n"


def _rows_csv(rows: list[ComparisonRow]) -> str:
    _, get, quantized = _ROW
    lines = [COMPARISON_CSV_HEADER]
    for r in rows:
        lines.append(",".join(("" if v is None else f"{v:.6g}") if q else _text(v)
                              for q, v in zip(quantized, get(r))))
    return "\n".join(lines) + "\n"


_FLOW_ROW = ",".join(["%.6g"] * len(_FLOW[0]))  # every flow field is a float
# one flow as json.dumps(indent=2) lays it out inside the result's "flows" list
_FLOW_JSON = ("    {\n" + ",\n".join(f"      {json.dumps(k)}: %s" for k in _FLOW[0])
              + "\n    }")
# flows formatted per pass: emission holds one chunk's rows and cells at a
# time, besides the finished chunks and the report joined from them
_CHUNK = 1024


def _flow_chunks(flows: list[EnergyFlow]):
    """Each chunk of flows as its list of ``_FLOW_ROW`` text rows."""
    get = _FLOW[1]
    for i in range(0, len(flows), _CHUNK):
        yield [_FLOW_ROW % get(f) for f in flows[i:i + _CHUNK]]


def _flows_csv(flows: list[EnergyFlow]) -> str:
    chunks = map("\n".join, _flow_chunks(flows))
    return "\n".join([",".join(_FLOW[0]), *chunks, ""])


def _json_token(cell: str) -> str:
    """The JSON token for a ``%.6g`` cell: what ``json.dumps(float(cell))``
    writes for a finite value, ``null`` for ``inf``/``nan``.

    Fixed-notation cells are the shortest repr of their value already,
    bare integers only lack the ``.0``. So are ``e-05`` to ``e-99`` cells:
    six digits identify a normal double. ``e+`` cells (repr writes 1e6 as
    ``1000000.0``) and three-digit negative exponents (subnormals lose
    digits) go through ``json.dumps``.
    """
    if "e" not in cell:
        if "n" in cell:
            return "null"
        return cell if "." in cell else cell + ".0"
    if "e-" in cell and len(cell) - cell.index("e") == 4:
        return cell
    return json.dumps(float(cell))


def _flows_json(flows: list[EnergyFlow]):
    """Each chunk of flows as its indent-2 JSON objects, comma-separated."""
    for rows in _flow_chunks(flows):
        cells = ",".join(rows).split(",")
        yield ",\n".join([_FLOW_JSON] * len(rows)) % tuple(map(_json_token, cells))


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _simulation_json(res: SimulationResult) -> str:
    """The summary through json.dumps, the flows spliced in as text rows."""
    text = json.dumps(_json_payload(res, _SIMULATION), indent=2)
    if not res.flows:
        return text + "\n"
    # reopen the summary's closing "\n}" to append the flows as its last key;
    # each chunk is followed by its separator, the last one by the closing text
    parts = [f'{text[:-2]},\n  "flows": [\n']
    for chunk in _flows_json(res.flows):
        parts += (chunk, ",\n")
    parts[-1] = "\n  ]\n}\n"
    return "".join(parts)


def emit(obj, fmt: str = "json") -> str:
    """Serialize a result object to JSON or CSV text.

    CSV gives the comparison table for rows, the recorded flow series
    for a simulation that logged one, and key,value lines otherwise.
    Empty flow logs are omitted from JSON entirely.
    """
    if fmt not in ("json", "csv"):
        raise ValidationError("format must be 'json' or 'csv'")
    if isinstance(obj, list) and all(isinstance(r, ComparisonRow) for r in obj):
        return _rows_csv(obj) if fmt == "csv" else _json([_json_payload(r, _ROW) for r in obj])
    if isinstance(obj, list) and all(isinstance(r, SizingResult) for r in obj):
        if fmt == "csv":
            return "".join(_kv_csv(_payload(r, _SIZING)) for r in obj)
        return _json([_json_payload(r, _SIZING) for r in obj])
    if isinstance(obj, SimulationResult):
        if fmt == "json":
            return _simulation_json(obj)
        if obj.flows:
            return _flows_csv(obj.flows)
        table = _SIMULATION
    elif isinstance(obj, SizingResult):
        table = _SIZING
    elif isinstance(obj, ProfileStats):
        table = _STATS
    else:
        raise ValidationError(f"cannot emit a {type(obj).__name__}")
    return _kv_csv(_payload(obj, table)) if fmt == "csv" else _json(_json_payload(obj, table))
