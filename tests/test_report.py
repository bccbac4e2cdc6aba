import csv
import io
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fchybrid import presets
from fchybrid.controller import EnergyFlow
from fchybrid.errors import ValidationError
from fchybrid.profile import GaitParams, PowerProfile, profile_stats, synthesize_walk_profile
from fchybrid.report import (
    _CHUNK,
    _FLOW,
    _FLOW_ROW,
    _SIMULATION,
    COMPARISON_CSV_HEADER,
    ComparisonRow,
    _payload,
    _q6,
    compare,
    emit,
)
from fchybrid.simulator import simulate
from fchybrid.sizing import size_hybrid, SizingInputs
from test_golden import lossy_hybrid_config
from test_sizing import assert_row_reads_the_sizing

TABLE_CSV = """\
label,stack_mass_kg,fuel_mass_kg,energy_density_wh_per_kg,system_life_h,run_time_h,load_basis_w,feasible_at_peak
NiMH battery,,,40,3000,3,16,true
Li-ion battery,,,120,9000,9,16,true
fuel cell,0.3,0.9,4950,119.949,99,45,false
fuel cell hybrid,0.15,0.8,4950,26280,88,45,true
"""


def strict_json(text):
    """Parse as RFC 8259 JSON: the bare Infinity and NaN tokens are errors."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def flat(power=45.0, duration=100.0):
    return PowerProfile(times=np.array([0.0, duration]),
                        power=np.array([power, power]))


class TestCompare:
    def test_reference_table_rows(self):
        rows = compare(presets.comparison_configs())
        assert [r.label for r in rows] == [
            "NiMH battery", "Li-ion battery", "fuel cell", "fuel cell hybrid"]
        assert [r.stack_mass for r in rows][:2] == [None, None]
        assert [r.fuel_mass for r in rows][:2] == [None, None]
        assert [r.feasible_at_peak for r in rows] == [True, True, False, True]
        assert [r.load_basis for r in rows] == [16.0, 16.0, 45.0, 45.0]
        assert [r.run_time for r in rows] == [3.0, 9.0, 99.0, 88.0]

    def test_config_entries(self):
        rows = compare([presets.hybrid_config()])
        row = rows[0]
        assert row.label == "fuel cell hybrid"
        assert row.stack_mass == 0.15
        assert row.fuel_mass == 0.8
        assert row.run_time == 88.0
        assert row.feasible_at_peak

    def test_lossy_supply_rated_at_a_load_it_sustains(self):
        # the converter passes 93 % of the stack's 45 W ceiling to the load
        row = compare([lossy_hybrid_config()])[0]
        assert math.isclose(row.load_basis, 45.0 * 0.93)
        assert math.isclose(row.run_time, 88.0)

    @pytest.mark.parametrize("peak", [250.0, 90.0])
    def test_rows_reproduce_the_sizings(self, peak):
        rows = compare(presets.comparison_configs(), peak_power=peak)
        for row, sized in zip(rows, presets.comparison_sizings(), strict=True):
            assert_row_reads_the_sizing(row, sized, peak)

    def test_hybrid_peak_reads_the_stack_ceiling(self):
        # a 30 W setpoint caps the 45 W stack at 30 W: with the 249.75 W
        # pack it sources 279.75 W, short of 290 W, and the run agrees
        base = presets.hybrid_config()
        cfg = replace(base, controller=replace(base.controller, fc_setpoint=30.0))
        assert not compare([cfg], peak_power=290.0)[0].feasible_at_peak
        flat = PowerProfile(times=np.array([0.0, 60.0]), power=np.array([290.0, 290.0]))
        assert simulate(cfg, flat).termination == "unmet_demand"

    def test_battery_config_entry(self):
        row = compare([presets.nimh_config()], battery_load=16.0)[0]
        assert row.label == "NiMH battery"
        assert row.stack_mass is None
        assert row.fuel_mass is None
        assert row.run_time == 3.0

    def test_empty_pack_rates_no_time(self):
        # a 0 kg pack is a supply of no mass: its row still rates it
        cfg = replace(presets.nimh_config(), battery=presets.NIMH_TEMPLATE.scaled(0.0))
        row = compare([cfg])[0]
        assert row.run_time == row.system_life == 0.0
        assert not row.feasible_at_peak

    def test_duplicate_entries_give_identical_rows(self):
        a, b = compare([presets.hybrid_config(), presets.hybrid_config()])
        assert a == b

    def test_custom_peak_changes_verdict(self):
        rows = compare(presets.comparison_configs(), peak_power=90.0)
        # the bare stack rates exactly 90 W, so it passes at that peak
        assert [r.feasible_at_peak for r in rows] == [True, True, True, True]

    def test_unknown_entry_rejected(self):
        for entry in ("not a config", presets.hybrid_sizing()):
            with pytest.raises(ValidationError):
                compare([entry])

    @pytest.mark.parametrize("peak", [math.nan, math.inf, 0.0, -5.0])
    def test_peak_outside_finite_positive_rejected(self, peak):
        with pytest.raises(ValidationError, match="peak_power must be finite and > 0"):
            compare(presets.comparison_configs(), peak_power=peak)

    @pytest.mark.parametrize("load", [math.nan, math.inf, 0.0, -16.0])
    def test_battery_load_outside_finite_positive_rejected(self, load):
        with pytest.raises(ValidationError, match="finite and > 0"):
            compare([presets.nimh_config()], battery_load=load)

    def test_fuel_supply_at_a_zero_setpoint_rejected(self):
        # a fuel supply is rated at its effective setpoint, here 0 W
        cfg = presets.hybrid_config()
        cfg = replace(cfg, controller=replace(cfg.controller, fc_setpoint=0.0))
        with pytest.raises(ValidationError,
                           match="comparison load basis must be finite and > 0"):
            compare([cfg])


class TestEmitComparison:
    def test_reference_table_csv(self):
        text = emit(compare(presets.comparison_configs()), "csv")
        assert text == TABLE_CSV
        assert text.splitlines()[0] == COMPARISON_CSV_HEADER

    def test_emission_is_stable(self):
        a = emit(compare(presets.comparison_configs()), "csv")
        b = emit(compare(presets.comparison_configs()), "csv")
        assert a == b

    def test_json_round_trip(self):
        rows = compare(presets.comparison_configs())
        payload = json.loads(emit(rows, "json"))
        assert len(payload) == 4
        assert payload[0]["stack_mass_kg"] is None
        assert payload[3]["label"] == "fuel cell hybrid"
        assert payload[3]["run_time_h"] == 88.0
        assert payload[2]["feasible_at_peak"] is False
        again = json.loads(emit(rows, "json"))
        assert payload == again


class TestEmitSimulation:
    def test_kv_csv_without_flows(self):
        res = simulate(presets.hybrid_config(), flat(), dt=1.0)
        text = emit(res, "csv")
        lines = text.splitlines()
        assert lines[0] == "key,value"
        keys = [ln.split(",")[0] for ln in lines[1:]]
        assert "run_time_h" in keys
        assert "termination" in keys
        assert "flows" not in keys

    def test_flow_csv_when_recorded(self):
        res = simulate(presets.hybrid_config(), flat(), dt=1.0,
                       record_flows=True, flow_stride=10)
        text = emit(res, "csv")
        lines = text.splitlines()
        assert lines[0] == ("time_s,demand_w,fc_output_w,battery_power_w,"
                            "unmet_w,curtailed_w,soc")
        assert len(lines) == 1 + len(res.flows)
        assert lines[1].startswith("0,45,")

    def test_json_omits_empty_flows(self):
        res = simulate(presets.hybrid_config(), flat(), dt=1.0)
        payload = json.loads(emit(res, "json"))
        assert "flows" not in payload
        assert payload["termination"] == "profile_ended"
        assert payload["steps"] == res.steps

    def test_json_keeps_recorded_flows(self):
        res = simulate(presets.hybrid_config(), flat(), dt=1.0,
                       record_flows=True, flow_stride=25)
        payload = json.loads(emit(res, "json"))
        assert len(payload["flows"]) == len(res.flows)
        assert payload["flows"][0]["demand_w"] == 45.0

    def test_six_digit_quantization(self):
        res = simulate(presets.hybrid_config(),
                       flat(power=1.0, duration=88.26944 * 3600), dt=3600.0)
        payload = json.loads(emit(res, "json"))
        assert payload["run_time_h"] == 88.2694


class TestEmitOthers:
    def test_sizing_payloads(self):
        sized = size_hybrid(SizingInputs(1.2, 45.0, 250.0))
        payload = json.loads(emit(sized, "json"))
        assert payload["stack_mass_kg"] == 0.15
        assert payload["fuel_mass_kg"] == 0.8
        assert payload["run_time_h"] == 88.0
        assert payload["feasible"] is True
        assert payload["warnings"] == []
        csv_text = emit(sized, "csv")
        assert "stack_mass_kg,0.15" in csv_text
        assert "feasible,true" in csv_text

    def test_sizing_list(self):
        results = presets.comparison_sizings()
        payload = json.loads(emit(results, "json"))
        assert [p["label"] for p in payload] == [r.label for r in results]
        csv_text = emit(results, "csv")
        assert csv_text.count("key,value") == len(results)

    def test_stats_payload(self):
        stats = profile_stats(flat(45.0, duration=3600.0))
        payload = json.loads(emit(stats, "json"))
        assert payload["average_power_w"] == 45.0
        assert payload["duration_s"] == 3600.0
        assert payload["energy_wh"] == 45.0

    def test_unknown_object_rejected(self):
        with pytest.raises(ValidationError):
            emit({"not": "supported"})

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            emit(compare(presets.comparison_configs()), "yaml")

    def test_handmade_row_with_none_masses(self):
        row = ComparisonRow(label="pack", stack_mass=None, fuel_mass=None,
                            energy_density=40.0, system_life=3000.0,
                            run_time=3.0, load_basis=16.0,
                            feasible_at_peak=False)
        assert emit([row], "csv").splitlines()[1] == "pack,,,40,3000,3,16,false"


class TestNonFiniteJson:
    """JSON has no Infinity or NaN: they are written null; CSV keeps inf/nan."""

    def test_summary_values(self):
        res = replace(simulate(presets.hybrid_config(), flat(), dt=1.0),
                      fc_damage=math.inf, ripple=math.nan, run_time=-math.inf)
        payload = strict_json(emit(res, "json"))
        assert (payload["fc_damage"], payload["ripple"], payload["run_time_h"]) == (
            None, None, None)
        lines = emit(res, "csv").splitlines()
        assert {"fc_damage,inf", "ripple,nan", "run_time_h,-inf"} <= set(lines)

    def test_flow_values(self):
        res = simulate(presets.hybrid_config(), flat(), dt=1.0,
                       record_flows=True, flow_stride=50)
        res.flows[1] = replace(res.flows[1], soc=math.nan, unmet=math.inf)
        flow = strict_json(emit(res, "json"))["flows"][1]
        assert (flow["soc"], flow["unmet_w"]) == (None, None)
        assert emit(res, "csv").splitlines()[2].endswith(",inf,0,nan")

    def test_sizing_and_rows(self):
        sized = size_hybrid(SizingInputs(1.2, 0.0, 250.0))
        assert sized.run_time == math.inf
        assert strict_json(emit(sized, "json"))["run_time_h"] is None
        assert strict_json(emit([sized], "json"))[0]["run_time_h"] is None
        row = replace(compare([presets.hybrid_config()])[0], system_life=math.inf)
        assert strict_json(emit([row], "json"))[0]["system_life_h"] is None
        assert "run_time_h,inf" in emit(sized, "csv").splitlines()


class TestCsvTextCells:
    """Text cells holding a comma, a quote or a line break are quoted per
    RFC 4180; every other cell is written as it is."""

    LABELS = ['NiMH, 7-cell', 'the "big" pack', "two\nlines", "cr\rlf"]

    @pytest.mark.parametrize("label", LABELS)
    def test_comparison_row(self, label):
        row = replace(compare(presets.comparison_configs())[0], label=label)
        text = emit([row], "csv")
        header, cells = csv.reader(io.StringIO(text, newline=""))
        assert header == COMPARISON_CSV_HEADER.split(",")
        assert cells == [label, "", "", "40", "3000", "3", "16", "true"]

    @pytest.mark.parametrize("label", LABELS)
    def test_key_value(self, label):
        sized = replace(presets.nimh_sizing(), label=label)
        rows = list(csv.reader(io.StringIO(emit(sized, "csv"), newline="")))
        assert all(len(r) == 2 for r in rows)
        assert ["label", label] in rows

    def test_quotes_doubled_inside_quotes(self):
        row = replace(compare(presets.comparison_configs())[0], label='the "big" pack')
        assert emit([row], "csv").splitlines()[1] == '"the ""big"" pack",,,40,3000,3,16,true'
        sized = replace(presets.nimh_sizing(), label='the "big" pack')
        assert emit(sized, "csv").splitlines()[1] == 'label,"the ""big"" pack"'

    def test_plain_text_unquoted(self):
        assert emit(presets.nimh_sizing(), "csv").splitlines()[1] == "label,NiMH battery"


EDGE_CELLS = [-0.0, 1e6, 3e-5, 5e-324]


def random_flows(n):
    """n flows of seeded random cells over many decades, with the cells
    whose JSON token needs a rule of its own sprinkled in and placed on
    both sides of every chunk edge."""
    rng = np.random.default_rng(n)
    shape = (n, len(_FLOW[0]))
    cells = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 9, shape)
    edge = rng.random(shape) < 0.1
    cells[edge] = rng.choice(EDGE_CELLS, size=int(edge.sum()))
    for row in range(_CHUNK - 1, n, _CHUNK):
        cells[row, :len(EDGE_CELLS)] = EDGE_CELLS
        cells[min(row + 1, n - 1), -len(EDGE_CELLS):] = EDGE_CELLS
    return [EnergyFlow(*row) for row in cells.tolist()]


class TestFlowChunks:
    """Flow reports are formatted _CHUNK rows at a time; the text shows no
    trace of where one chunk ends and the next begins."""

    SIZES = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]

    @staticmethod
    def result(n):
        return replace(simulate(presets.hybrid_config(), flat(), dt=1.0),
                       flows=random_flows(n))

    @pytest.mark.parametrize("n", SIZES)
    def test_json_is_the_indent_2_encoding(self, n):
        res = self.result(n)
        payload = _payload(res, _SIMULATION)
        payload["flows"] = [dict(zip(_FLOW[0], map(_q6, _FLOW[1](f)))) for f in res.flows]
        assert emit(res, "json") == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("n", SIZES)
    def test_csv_is_the_one_shot_join(self, n):
        res = self.result(n)
        keys, get, _ = _FLOW
        rows = [_FLOW_ROW % get(f) for f in res.flows]
        assert emit(res, "csv") == "\n".join([",".join(keys), *rows]) + "\n"


class TestEmissionMemory:
    """Emission streams the flows in chunks, so its peak follows the
    report's size: the text itself, the chunks it is joined from and one
    chunk's working set."""

    @pytest.fixture(scope="class")
    def long_run(self):
        gait = synthesize_walk_profile(GaitParams(mech_peak=10.0, duration=1000.0))
        res = simulate(presets.hybrid_config(), gait, dt=0.05,
                       record_flows=True, flow_stride=1)
        assert len(res.flows) == 20_000
        return res

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_peak_is_bounded_by_the_report(self, long_run, fmt):
        tracemalloc.start()
        try:
            text = emit(long_run, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text) + 2**20
