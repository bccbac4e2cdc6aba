"""Properties of emission: flow rows written as text match what the JSON
encoder writes for the same quantized values, for every finite float;
non-finite values are written null; and every report parses back."""

import csv
import io
import json
import math
from dataclasses import fields, replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fchybrid import presets
from fchybrid.controller import EnergyFlow
from fchybrid.profile import PowerProfile, ProfileStats
from fchybrid.report import (
    _FLOW,
    _SIMULATION,
    ComparisonRow,
    _json_token,
    _payload,
    _q6,
    emit,
)
from fchybrid.simulator import MODES, TERMINATIONS, SimulationResult, simulate
from fchybrid.sizing import SizingResult
from test_cli import reject_constant

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=400)

# the edges of the %.6g and repr notations, and of the double format
EDGES = st.one_of(
    st.floats(),
    st.floats(min_value=5e-5, max_value=2e-4),
    st.floats(min_value=9e5, max_value=2e6),
    st.floats(min_value=9e15, max_value=2e16),
    st.floats(min_value=0.0, max_value=3e-308),  # subnormals
    st.integers(min_value=-10**7, max_value=10**7).map(float),
).flatmap(lambda x: st.sampled_from([x, -x]))


@PROPERTY
@given(EDGES)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1e-4)
@example(9.999995e-5)
@example(9.999994999e-5)
@example(999999.5)
@example(999999.4)
@example(1e6)
@example(1e16)
@example(9.9999995e15)
@example(float("inf"))
@example(float("-inf"))
@example(float("nan"))
def test_token_is_what_json_dumps_writes(x):
    cell = f"{x:.6g}"
    expected = json.dumps(float(cell)) if math.isfinite(x) else "null"
    assert _json_token(cell) == expected


def _base_result():
    profile = PowerProfile(times=np.array([0.0, 10.0]), power=np.array([45.0, 45.0]))
    return simulate(presets.hybrid_config(), profile, dt=1.0)


BASE = _base_result()
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOWS = st.lists(st.tuples(*[FINITE] * len(_FLOW[0])), min_size=1, max_size=12)


@PROPERTY
@given(FLOWS)
@example([(0.0, -0.0, 1e6, 3e-5, 5e-324, 1e16, 1.0)])
def test_flow_report_matches_the_quantized_payload(rows):
    res = replace(BASE, flows=[EnergyFlow(*row) for row in rows])
    text = emit(res, "json")
    keys = _FLOW[0]
    quantized = [dict(zip(keys, map(_q6, row))) for row in rows]
    assert json.loads(text)["flows"] == quantized
    # byte for byte what the indent-2 encoder writes for the same payload
    payload = _payload(res, _SIMULATION)
    payload["flows"] = quantized
    assert text == json.dumps(payload, indent=2) + "\n"


def _records(cls, **special):
    """Instances of a result dataclass: every float field any float, the
    fields named in special drawn from their own strategies."""
    return st.builds(cls, **{f.name: special.get(f.name, st.floats())
                             for f in fields(cls)})


# text cells hold commas, quotes, line breaks and any other character
TEXT = st.text(max_size=12) | st.sampled_from(['a,b', '"', '"q"', 'x\ny', 'x\r\ny', '\r'])
SIZINGS = _records(SizingResult, mode=st.sampled_from(MODES), label=TEXT,
                   feasible=st.booleans(), warnings=st.lists(TEXT, max_size=3),
                   config=st.sampled_from(presets.comparison_configs()))
ROWS = _records(ComparisonRow, label=TEXT, feasible_at_peak=st.booleans(),
                stack_mass=st.none() | st.floats(), fuel_mass=st.none() | st.floats())
SIMULATIONS = _records(
    SimulationResult, termination=st.sampled_from(TERMINATIONS),
    steps=st.integers(min_value=0, max_value=10**9),
    flows=st.lists(st.builds(EnergyFlow, *[st.floats()] * len(_FLOW[0])), max_size=6))
REPORTS = st.one_of(SIZINGS, st.lists(SIZINGS, max_size=3), st.lists(ROWS, max_size=4),
                    _records(ProfileStats), SIMULATIONS)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(REPORTS)
@example(SizingResult("hybrid", 0.15, 0.135, 0.8, 0.115, math.inf, math.nan, 4950.0,
                      3300.0, 45.0, 295.0, True, presets.hybrid_config(),
                      label='a "b", c', warnings=["x,\ny", ""]))
@example([ComparisonRow("NiMH, 7-cell battery", None, None, 40.0, -math.inf, 3.0,
                        16.0, False)])
@example([])
def test_every_report_parses_back(report):
    """JSON loads under a parser that refuses Infinity and NaN; every CSV
    record, read with the csv module, is as wide as its header."""
    json.loads(emit(report, "json"), parse_constant=reject_constant)
    records = list(csv.reader(io.StringIO(emit(report, "csv"), newline="")))
    width = len(records[0])
    assert all(len(record) == width for record in records), records
