"""Command line front end.

Subcommands: profile synth, profile stats, simulate, size, compare.
Exit codes: 0 success, 1 usage error, 2 validation error, 3 infeasible
(including a looped simulation that passes the looped-run horizon
MAX_HOURS, 1e+06 h).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .config import load_sizing_inputs, load_supply_config
from .errors import InfeasibleError, ValidationError
from .presets import (
    LIION_TEMPLATE,
    NANO_TEMPLATE,
    NIMH_TEMPLATE,
    PACK_COMPARISON_LOAD_W,
    PEAK_POWER_W,
    comparison_configs,
    comparison_sizings,
    hybrid_config,
)
from .profile import (
    GaitParams,
    emit_profile,
    load_profile,
    profile_stats,
    synthesize_walk_profile,
)
from .report import compare, emit
from .simulator import MODES, simulate
from .sizing import size_battery_only, size_direct_fc, size_hybrid

_TEMPLATES = {
    "nimh": NIMH_TEMPLATE,
    "liion": LIION_TEMPLATE,
    "nanophosphate": NANO_TEMPLATE,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -1 and -1.5 for negative numbers; -1e-3, -inf
        # and -nan are values too, left for the option's type to parse
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_profile_synth(args) -> int:
    params = GaitParams(
        base_load=args.base,
        gait_period=args.period,
        stride_duty=args.duty,
        mech_peak=args.mech_peak,
        servo_efficiency=args.efficiency,
        duration=args.duration,
    )
    profile = synthesize_walk_profile(params, step=args.step)
    _write(emit_profile(profile), args.out)
    return 0


def _cmd_profile_stats(args) -> int:
    profile = load_profile(args.profile)
    stats = profile_stats(profile, idle_threshold=args.idle_threshold)
    _write(emit(stats, args.format), args.out)
    return 0


def _cmd_simulate(args) -> int:
    if args.flows < 0:
        raise ValidationError("--flows must be >= 0")
    if args.config:
        config = load_supply_config(args.config)
    else:
        config = hybrid_config()
    profile = load_profile(args.profile)
    try:
        result = simulate(
            config, profile, dt=args.dt, loop_profile=args.loop,
            initial_soc=args.initial_soc,
            record_flows=args.flows > 0,
            flow_stride=args.flows if args.flows > 0 else 100,
        )
    except RuntimeError as exc:  # a looped run that nothing drains
        raise InfeasibleError(str(exc)) from None
    _write(emit(result, args.format), args.out)
    return 0


def _cmd_size(args) -> int:
    if args.table1:
        _write(emit(comparison_sizings(), args.format), args.out)
        return 0
    inputs = load_sizing_inputs(args.config, mass_budget=args.budget,
                                steady_power=args.steady, peak_power=args.peak)
    if args.mode == "hybrid":
        result = size_hybrid(inputs)
    elif args.mode == "direct_fc":
        result = size_direct_fc(inputs)
    else:
        template = _TEMPLATES[args.chemistry]
        result = size_battery_only(template, inputs.mass_budget, args.load)
    _write(emit(result, args.format), args.out)
    return 0 if result.feasible else 3


def _cmd_compare(args) -> int:
    if args.table1:
        entries = comparison_configs()
    elif args.config:
        entries = [load_supply_config(path) for path in args.config]
    else:
        raise _UsageError("compare: provide --table1 or at least one --config")
    rows = compare(entries, peak_power=args.peak, battery_load=args.battery_load)
    _write(emit(rows, args.format), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fchybrid",
                     description="Fuel-cell/battery hybrid supply toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    prof = sub.add_parser("profile", help="mission profile tools")
    prof_sub = prof.add_subparsers(dest="subcommand", required=True)

    synth = prof_sub.add_parser("synth", help="generate a walking profile")
    synth.add_argument("--base", type=float, default=GaitParams.base_load,
                       help="computer and sensor load, W")
    synth.add_argument("--period", type=float, default=GaitParams.gait_period,
                       help="gait period, s")
    synth.add_argument("--duty", type=float, default=GaitParams.stride_duty,
                       help="stride fraction of each period")
    synth.add_argument("--mech-peak", type=float, default=GaitParams.mech_peak,
                       help="mechanical power during the stride, W")
    synth.add_argument("--efficiency", type=float, default=GaitParams.servo_efficiency,
                       help="servo electrical-to-mechanical efficiency")
    synth.add_argument("--duration", type=float, default=GaitParams.duration,
                       help="profile length, s")
    synth.add_argument("--step", type=float, default=None,
                       help="sample spacing, s (default period/50)")
    synth.add_argument("--out", default=None, help="output path (default stdout)")
    synth.set_defaults(func=_cmd_profile_synth)

    stats = prof_sub.add_parser("stats", help="summarize a profile CSV")
    stats.add_argument("--profile", required=True, help="profile CSV path")
    stats.add_argument("--idle-threshold", type=float, default=None,
                       help="idle cutoff, W (default min demand + 1)")
    stats.add_argument("--format", choices=("json", "csv"), default="json")
    stats.add_argument("--out", default=None)
    stats.set_defaults(func=_cmd_profile_stats)

    sim = sub.add_parser("simulate", help="run a supply against a profile")
    sim.add_argument("--config", default=None,
                     help="supply config INI (default: built-in hybrid)")
    sim.add_argument("--profile", required=True, help="profile CSV path")
    sim.add_argument("--dt", type=float, default=None, help="time step, s")
    sim.add_argument("--loop", action="store_true",
                     help="repeat the profile until the supply dies")
    sim.add_argument("--initial-soc", type=float, default=None,
                     help="battery state of charge at start (default full)")
    sim.add_argument("--flows", type=int, default=0, metavar="N",
                     help="record every Nth step's power flows (0: none)")
    sim.add_argument("--format", choices=("json", "csv"), default="json")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=_cmd_simulate)

    size = sub.add_parser("size", help="allocate a supply mass budget")
    size.add_argument("--mode", choices=MODES, default="hybrid")
    size.add_argument("--budget", type=float, default=None, help="supply mass, kg")
    size.add_argument("--steady", type=float, default=None, help="steady draw, W")
    size.add_argument("--peak", type=float, default=None, help="peak demand, W")
    size.add_argument("--load", type=float, default=PACK_COMPARISON_LOAD_W,
                      help="average load for battery_only sizing, W")
    size.add_argument("--chemistry", choices=sorted(_TEMPLATES), default="nimh",
                      help="battery_only pack chemistry")
    size.add_argument("--config", default=None, help="INI with a [sizing] section")
    size.add_argument("--table1", action="store_true",
                      help="emit all four built-in supply sizings")
    size.add_argument("--format", choices=("json", "csv"), default="json")
    size.add_argument("--out", default=None)
    size.set_defaults(func=_cmd_size)

    comp = sub.add_parser("compare", help="side-by-side supply comparison")
    comp.add_argument("--table1", action="store_true",
                      help="compare the four built-in presets")
    comp.add_argument("--config", action="append", default=[],
                      help="supply config INI (repeatable)")
    comp.add_argument("--peak", type=float, default=PEAK_POWER_W,
                      help="peak demand every option is judged against, W")
    comp.add_argument("--battery-load", type=float, default=PACK_COMPARISON_LOAD_W,
                      help="load basis for battery-only entries, W")
    comp.add_argument("--format", choices=("json", "csv"), default="json")
    comp.add_argument("--out", default=None)
    comp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
