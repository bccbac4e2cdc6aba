"""Mission power profiles: load, synthesize, summarize, emit.

A profile is a sequence of (time, demand) samples interpreted with
piecewise-constant hold: demand(t) = power[i] for times[i] <= t < times[i+1].
The final sample closes the horizon; its value only matters for peak
statistics and hold extension past the end.

Units: time in seconds, power in watts, energy in watt-hours.

CSV interchange format: UTF-8 text, header exactly ``time_s,power_w``
on the first non-blank line, one sample per row, blank lines skipped,
numbers emitted at 6 significant digits.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ProfileParseError, ValidationError, bounded, check_fields

CSV_HEADER = "time_s,power_w"


@dataclass(frozen=True, eq=False)
class PowerProfile:
    """Demand time series with hold interpolation.

    times must start at 0 and be strictly increasing; power must be
    finite and non-negative; at least two samples are required.
    """

    times: np.ndarray  # s
    power: np.ndarray  # W

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        power = np.asarray(self.power, dtype=float)
        if times.ndim != 1 or power.ndim != 1 or times.size != power.size:
            raise ValidationError("times and power must be 1-d arrays of equal length")
        if times.size < 2:
            raise ValidationError("a profile needs at least 2 samples")
        if not np.isfinite(times).all() or not np.isfinite(power).all():
            raise ValidationError("profile samples must be finite")
        if times[0] != 0.0:
            raise ValidationError("first sample must be at time 0")
        if not (np.diff(times) > 0).all():
            raise ValidationError("time values must be strictly increasing")
        if (power < 0).any():
            raise ValidationError("power demand must be non-negative")
        times.flags.writeable = False
        power.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "power", power)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerProfile):
            return NotImplemented
        return (np.array_equal(self.times, other.times)
                and np.array_equal(self.power, other.power))

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def duration(self) -> float:
        """Horizon in seconds (time of the last sample)."""
        return float(self.times[-1])


@dataclass(frozen=True)
class ProfileStats:
    average_power: float  # W, time-weighted
    peak_power: float  # W
    idle_fraction: float  # share of time at or below the idle threshold
    duration: float  # s
    energy: float  # Wh


@dataclass(frozen=True)
class GaitParams:
    """Rectangular walking-load shape.

    Each gait period spends stride_duty of its length at
    base_load + mech_peak / servo_efficiency and the rest at base_load.
    """

    base_load: float = bounded(">= 0", 40.0)  # W, computer plus sensors
    gait_period: float = bounded("> 0", 1.0)  # s
    stride_duty: float = bounded("in (0, 1]", 0.6)  # fraction of the period under stride load
    mech_peak: float = bounded(">= 0", 0.0)  # W mechanical at the joints
    servo_efficiency: float = bounded("in (0, 1]", 0.5)  # electrical to mechanical
    duration: float = bounded("> 0", 3600.0)  # s

    def __post_init__(self):
        check_fields(self)

    @property
    def stride_power(self) -> float:
        """Electrical demand during the stride phase, W."""
        return self.base_load + self.mech_peak / self.servo_efficiency

    @property
    def average_power(self) -> float:
        """Duty-weighted mean of the rectangular wave, W."""
        return self.base_load + self.stride_duty * (self.stride_power - self.base_load)


# grid steps a synthesized profile may have, checked before any array is
# made: 55 times the 180,000 of a 1 h gait at the default step
MAX_SYNTH_STEPS = 10_000_000


def synthesize_walk_profile(params: GaitParams, step: float | None = None) -> PowerProfile:
    """Sample the rectangular gait wave on a fixed grid.

    step defaults to gait_period / 50, which keeps per-cycle energy error
    under 2 percent for any duty and is exact when the duty aligns with
    the grid. A given step must be finite and > 0. Whatever sets the step,
    the duration may hold at most MAX_SYNTH_STEPS of them.
    """
    if step is None:
        step = params.gait_period / 50.0
    if not 0.0 < step < math.inf:
        raise ValidationError("step must be finite and > 0")
    steps = params.duration / step - 1e-9
    if steps > MAX_SYNTH_STEPS:
        raise ValidationError(f"duration / step gives more than {MAX_SYNTH_STEPS} "
                              f"steps; raise --step or shorten --duration")
    n = int(math.ceil(steps))
    times = np.arange(n + 1) * step
    if times[-1] < params.duration - 1e-9 * params.duration:
        times = np.append(times, params.duration)
    else:
        times[-1] = params.duration
    # phase test with a snap tolerance so grid points that should land
    # exactly on a cycle boundary do not fall on the wrong side
    frac = times / params.gait_period
    cycle = np.floor(frac + 1e-9)
    local = frac - cycle
    power = np.where(local < params.stride_duty - 1e-9,
                     params.stride_power, params.base_load)
    return PowerProfile(times=times, power=power)


def profile_stats(profile: PowerProfile, idle_threshold: float | None = None) -> ProfileStats:
    """Time-weighted summary under hold interpolation.

    idle_threshold defaults to the profile minimum plus 1 W, treating the
    lowest sustained level as the compute-only idle load. A given
    threshold must be finite.
    """
    dt = np.diff(profile.times)
    held = profile.power[:-1]
    energy_ws = float(np.dot(held, dt))
    duration = profile.duration
    average = energy_ws / duration
    if idle_threshold is None:
        idle_threshold = float(profile.power.min()) + 1.0
    elif not math.isfinite(idle_threshold):
        raise ValidationError("idle_threshold must be finite")
    idle = float(dt[held <= idle_threshold].sum()) / duration
    return ProfileStats(
        average_power=average,
        peak_power=float(profile.power.max()),
        idle_fraction=idle,
        duration=duration,
        energy=energy_ws / 3600.0,
    )


# samples formatted per pass of emit_profile
_CHUNK = 1024


def emit_profile(profile: PowerProfile) -> str:
    """Render to CSV text at 6 significant digits.

    Rows are formatted from Python floats a chunk at a time, so emission
    holds the text and one chunk's rows, not a string per sample.
    """
    parts = [CSV_HEADER]
    for i in range(0, len(profile), _CHUNK):
        pairs = zip(profile.times[i:i + _CHUNK].tolist(),
                    profile.power[i:i + _CHUNK].tolist())
        parts.append("\n".join(["%.6g,%.6g" % pair for pair in pairs]))
    parts.append("")
    return "\n".join(parts)


def _read_header(stream) -> int:
    """Read through the header line and return its line number."""
    lineno = 0
    for raw in iter(stream.readline, ""):
        lineno += 1
        line = raw.strip()
        if not line:
            continue
        if line != CSV_HEADER:
            raise ProfileParseError(
                f"expected header '{CSV_HEADER}', got '{line}'", line=lineno)
        return lineno
    raise ProfileParseError("empty profile file", line=1)


def _bulk_rows(stream) -> tuple[np.ndarray, np.ndarray]:
    """Parse every row after the header in one pass of np.loadtxt.

    Raises ValueError for anything loadtxt rejects, including forms that
    float() accepts (space-only lines, digit separators, non-ASCII digits),
    so the caller can fall back to _scan_rows for those.
    """
    with warnings.catch_warnings():
        # a header-only file is reported by PowerProfile as too short
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(stream, delimiter=",", comments=None, ndmin=2)
    if table.shape[0] == 0:
        return np.empty(0), np.empty(0)
    if table.shape[1] != 2:
        raise ValueError(f"expected 2 fields, got {table.shape[1]}")
    # views of the one table: copying the columns out and freeing it
    # measured a higher process peak on a 1 h gait mission than keeping it
    return table[:, 0], table[:, 1]


def _scan_rows(stream, header_line: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse the rows after the header line by line; blank lines skipped."""
    times: list[float] = []
    power: list[float] = []
    for lineno, raw in enumerate(stream, start=header_line + 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ProfileParseError(
                f"expected 2 fields, got {len(parts)}", line=lineno)
        try:
            t = float(parts[0])
            p = float(parts[1])
        except ValueError as exc:
            raise ProfileParseError(str(exc), line=lineno) from None
        times.append(t)
        power.append(p)
    return np.array(times), np.array(power)


def load_profile(source: str | Path | bytes) -> PowerProfile:
    """Parse profile CSV from a path or from bytes.

    Blank lines are skipped; the first other line must be the header.
    The rows go through np.loadtxt in one pass; only if it rejects them is
    the text read again line by line, which accepts what float() accepts
    and names the first bad line. Raises ProfileParseError (with line
    number) for malformed rows or text that is not UTF-8, and
    ValidationError for ordering or sign violations.
    """
    if isinstance(source, bytes):
        stream = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8-sig")
    else:
        stream = open(source, "r", encoding="utf-8-sig", newline="")
    with stream:
        try:
            header_line = _read_header(stream)
            start = stream.tell()
            try:
                times, power = _bulk_rows(stream)
            except UnicodeDecodeError:
                raise
            except ValueError:
                stream.seek(start)
                times, power = _scan_rows(stream, header_line)
        except UnicodeDecodeError as exc:
            what = "profile" if isinstance(source, bytes) else source
            raise ProfileParseError(f"{what} is not UTF-8 text ({exc.reason})") from None
    return PowerProfile(times=times, power=power)
