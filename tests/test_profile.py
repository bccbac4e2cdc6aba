import math

import numpy as np
import pytest

from fchybrid import profile as profile_module
from fchybrid.errors import ProfileParseError, ValidationError
from fchybrid.profile import (
    _CHUNK,
    CSV_HEADER,
    GaitParams,
    PowerProfile,
    emit_profile,
    load_profile,
    profile_stats,
    synthesize_walk_profile,
)


def make(times, power):
    return PowerProfile(times=np.asarray(times, dtype=float),
                        power=np.asarray(power, dtype=float))


class TestPowerProfile:
    def test_minimal(self):
        p = make([0.0, 1.0], [10.0, 10.0])
        assert len(p) == 2
        assert p.duration == 1.0

    def test_requires_two_samples(self):
        with pytest.raises(ValidationError):
            make([0.0], [1.0])

    def test_first_sample_at_zero(self):
        with pytest.raises(ValidationError):
            make([1.0, 2.0], [1.0, 1.0])

    def test_strictly_increasing_times(self):
        with pytest.raises(ValidationError):
            make([0.0, 1.0, 1.0], [1.0, 1.0, 1.0])

    def test_rejects_negative_power(self):
        with pytest.raises(ValidationError):
            make([0.0, 1.0], [-1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            make([0.0, 1.0], [math.nan, 1.0])
        with pytest.raises(ValidationError):
            make([0.0, math.inf], [1.0, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            make([0.0, 1.0, 2.0], [1.0, 1.0])

    def test_arrays_are_frozen(self):
        p = make([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            p.times[0] = 5.0
        with pytest.raises(ValueError):
            p.power[0] = 5.0

    def test_equality(self):
        a = make([0.0, 1.0], [1.0, 2.0])
        assert a == make([0.0, 1.0], [1.0, 2.0])
        assert a != make([0.0, 1.0], [1.0, 3.0])
        assert a != make([0.0, 2.0], [1.0, 2.0])
        assert a.__eq__(3) is NotImplemented
        assert (a == "x") is False


class TestGaitParams:
    def test_stride_power_includes_servo_losses(self):
        g = GaitParams(base_load=40.0, mech_peak=10.0, servo_efficiency=0.5)
        assert g.stride_power == 60.0

    def test_average_is_duty_weighted(self):
        g = GaitParams(base_load=40.0, stride_duty=0.6, mech_peak=10.0,
                       servo_efficiency=0.5)
        assert math.isclose(g.average_power, 52.0)

    def test_zero_mech_is_flat(self):
        g = GaitParams(base_load=40.0, mech_peak=0.0)
        assert g.stride_power == 40.0
        assert g.average_power == 40.0

    @pytest.mark.parametrize("field,value", [
        ("base_load", -1.0),
        ("gait_period", 0.0),
        ("stride_duty", 0.0),
        ("stride_duty", 1.5),
        ("mech_peak", -2.0),
        ("servo_efficiency", 0.0),
        ("servo_efficiency", 1.1),
        ("duration", 0.0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValidationError):
            GaitParams(**{field: value})


class TestSynthesize:
    def test_two_level_wave(self):
        g = GaitParams(base_load=40.0, gait_period=1.0, stride_duty=0.6,
                       mech_peak=10.0, servo_efficiency=0.5, duration=10.0)
        p = synthesize_walk_profile(g)
        assert set(np.unique(p.power)) == {40.0, 60.0}
        assert p.times[-1] == 10.0
        assert p.power[0] == 60.0  # cycle starts in the stride phase

    def test_duty_split_on_aligned_grid(self):
        g = GaitParams(base_load=40.0, gait_period=1.0, stride_duty=0.6,
                       mech_peak=10.0, duration=1.0)
        p = synthesize_walk_profile(g)  # step = 0.02, boundary on-grid
        held = p.power[:-1]
        assert np.count_nonzero(held == g.stride_power) == 30
        assert np.count_nonzero(held == g.base_load) == 20

    def test_average_matches_params_on_aligned_grid(self):
        g = GaitParams(base_load=40.0, gait_period=1.0, stride_duty=0.6,
                       mech_peak=10.0, duration=60.0)
        stats = profile_stats(synthesize_walk_profile(g))
        assert math.isclose(stats.average_power, g.average_power, rel_tol=1e-12)

    def test_boundary_sample_starts_idle_phase(self):
        g = GaitParams(base_load=40.0, gait_period=1.0, stride_duty=0.6,
                       mech_peak=10.0, duration=2.0)
        p = synthesize_walk_profile(g, step=0.2)
        # the grid point on the duty boundary belongs to the idle side
        assert p.power[3] == 40.0  # t = 0.6
        assert p.power[2] == 60.0  # t = 0.4

    def test_full_duty_never_idles(self):
        g = GaitParams(base_load=40.0, stride_duty=1.0, mech_peak=10.0,
                       duration=5.0)
        p = synthesize_walk_profile(g)
        assert (p.power == 60.0).all()

    def test_endpoint_appended_for_off_grid_duration(self):
        g = GaitParams(duration=1.05)
        p = synthesize_walk_profile(g, step=0.5)
        assert p.times[-1] == 1.05
        assert (np.diff(p.times) > 0).all()

    def test_step_past_the_horizon_holds_one_sample(self):
        # no grid step falls inside the 1 s gait, so the endpoint is appended
        g = GaitParams(mech_peak=10.0, duration=1.0)
        p = synthesize_walk_profile(g, step=1e10)
        assert p.times.tolist() == [0.0, 1.0]
        assert p.power[0] == g.stride_power

    def test_step_validation(self):
        # NaN fell through to numpy's ValueError, inf to a 1-sample profile
        for step in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="step must be finite and > 0"):
                synthesize_walk_profile(GaitParams(), step=step)

    @pytest.mark.parametrize("step", [1e-300, 5e-324,
                                      3600.0 / (profile_module.MAX_SYNTH_STEPS + 1)],
                             ids=["1e-300", "subnormal", "just-past-the-cap"])
    def test_step_too_fine(self, step):
        # raised before any array is made: 1e-300 made numpy raise ValueError
        with pytest.raises(ValidationError, match="duration / step gives more than"):
            synthesize_walk_profile(GaitParams(duration=3600.0), step=step)

    def test_step_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(profile_module, "MAX_SYNTH_STEPS", 100)
        g = GaitParams(duration=10.0)
        assert len(synthesize_walk_profile(g, step=0.1).times) == 101
        with pytest.raises(ValidationError, match="more than 100 steps; raise --step"):
            synthesize_walk_profile(g, step=10.0 / 101)


class TestProfileStats:
    def test_flat_profile(self):
        p = make([0.0, 3600.0], [45.0, 45.0])
        s = profile_stats(p)
        assert s.average_power == 45.0
        assert s.peak_power == 45.0
        assert s.energy == 45.0
        assert s.duration == 3600.0
        assert s.idle_fraction == 1.0  # everything sits at the minimum level

    def test_two_level_weighting(self):
        p = make([0.0, 600.0, 3600.0], [60.0, 40.0, 40.0])
        s = profile_stats(p)
        # 10 min at 60, 50 min at 40
        assert math.isclose(s.average_power, (600 * 60 + 3000 * 40) / 3600)
        assert s.peak_power == 60.0
        assert math.isclose(s.idle_fraction, 3000 / 3600)

    def test_energy_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 5.0, n))])
            power = rng.uniform(0.0, 200.0, n + 1)
            s = profile_stats(make(times, power))
            assert s.average_power <= s.peak_power + 1e-12
            assert math.isclose(s.energy, s.average_power * s.duration / 3600.0,
                                rel_tol=1e-9)

    def test_custom_idle_threshold(self):
        p = make([0.0, 600.0, 3600.0], [60.0, 40.0, 40.0])
        assert profile_stats(p, idle_threshold=10.0).idle_fraction == 0.0
        assert profile_stats(p, idle_threshold=70.0).idle_fraction == 1.0

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_idle_threshold_rejected(self, threshold):
        p = make([0.0, 600.0, 3600.0], [60.0, 40.0, 40.0])
        with pytest.raises(ValidationError, match="idle_threshold must be finite"):
            profile_stats(p, idle_threshold=threshold)


class TestEmitLoad:
    def test_emit_format(self):
        p = make([0.0, 1.0, 2.0], [40.0, 60.0, 40.0])
        text = emit_profile(p)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0,40"
        assert lines[2] == "1,60"
        assert text.endswith("\n")

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_chunk_edges_leave_no_trace(self, n):
        rng = np.random.default_rng(n)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 10.0, n - 1))])
        power = rng.uniform(0.0, 1e7, n) * 10.0 ** rng.integers(-9, 1, n)
        power[::7] = -0.0
        p = make(times, power)
        rows = [f"{t:.6g},{w:.6g}" for t, w in zip(times, power)]
        assert emit_profile(p) == "\n".join([CSV_HEADER, *rows]) + "\n"

    def test_round_trip_exact_on_clean_grid(self):
        # quarter-second steps are binary-exact and 6 digits wide at most,
        # so the text round trip is bit-exact
        g = GaitParams(base_load=40.0, gait_period=1.0, stride_duty=0.5,
                       mech_peak=10.0, duration=1800.0)
        p = synthesize_walk_profile(g, step=0.5)
        q = load_profile(emit_profile(p).encode())
        assert q == p

    def test_emit_is_a_fixed_point(self):
        # awkward step: values quantize at 6 digits, then stay put
        g = GaitParams(duration=60.0, mech_peak=7.3, gait_period=0.9)
        p = synthesize_walk_profile(g, step=0.02)
        once = emit_profile(load_profile(emit_profile(p).encode()))
        twice = emit_profile(load_profile(once.encode()))
        assert once == twice

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "walk.csv"
        path.write_text(emit_profile(make([0.0, 1.0], [5.0, 5.0])))
        p = load_profile(path)
        assert p == make([0.0, 1.0], [5.0, 5.0])
        assert load_profile(str(path)) == p

    def test_load_accepts_bom(self):
        text = f"﻿{CSV_HEADER}\n0,5\n1,6\n"
        p = load_profile(text.encode("utf-8"))
        assert p.times[-1] == 1.0

    def test_blank_lines_skipped(self):
        text = f"{CSV_HEADER}\n0,5\n\n1,6\n\n"
        assert len(load_profile(text.encode())) == 2

    def test_bad_header(self):
        with pytest.raises(ProfileParseError) as err:
            load_profile(b"time,power\n0,5\n1,6\n")
        assert err.value.line == 1
        assert "line 1" in str(err.value)

    def test_wrong_field_count(self):
        with pytest.raises(ProfileParseError) as err:
            load_profile(f"{CSV_HEADER}\n0,5\n1,6,7\n".encode())
        assert err.value.line == 3

    def test_non_numeric_field(self):
        with pytest.raises(ProfileParseError) as err:
            load_profile(f"{CSV_HEADER}\n0,five\n".encode())
        assert err.value.line == 2

    def test_empty_file(self):
        with pytest.raises(ProfileParseError):
            load_profile(b"")

    def test_header_after_leading_blank_lines(self):
        p = load_profile(f"\n  \n{CSV_HEADER}\n0,5\n1,6\n".encode())
        assert list(p.power) == [5.0, 6.0]

    def test_bad_header_after_a_blank_line_names_its_line(self):
        with pytest.raises(ProfileParseError) as err:
            load_profile(b"\ntime,power\n0,5\n1,6\n")
        assert err.value.line == 2
        assert "expected header" in str(err.value)

    def test_blank_lines_only_is_an_empty_file(self):
        with pytest.raises(ProfileParseError, match="empty profile file"):
            load_profile(b"\n \n\n")

    def test_header_only_is_too_short(self):
        with pytest.raises(ValidationError):
            load_profile(f"{CSV_HEADER}\n".encode())

    def test_loaded_profile_is_validated(self):
        with pytest.raises(ValidationError):
            load_profile(f"{CSV_HEADER}\n0,5\n1,-6\n".encode())
