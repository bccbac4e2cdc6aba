import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fchybrid
from fchybrid import presets
from fchybrid.cli import build_parser, main
from fchybrid.profile import GaitParams
from test_config import supply_text

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TABLE_CSV = """\
label,stack_mass_kg,fuel_mass_kg,energy_density_wh_per_kg,system_life_h,run_time_h,load_basis_w,feasible_at_peak
NiMH battery,,,40,3000,3,16,true
Li-ion battery,,,120,9000,9,16,true
fuel cell,0.3,0.9,4950,119.949,99,45,false
fuel cell hybrid,0.15,0.8,4950,26280,88,45,true
"""


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def subparser(parser, command):
    """The parser that handles one subcommand of parser."""
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices[command]


def flat_profile_file(tmp_path, power=45.0, duration=600.0):
    path = tmp_path / "load.csv"
    path.write_text(f"time_s,power_w\n0,{power:g}\n{duration:g},{power:g}\n")
    return path


class TestProfileCommands:
    def test_synth_to_stats_round_trip(self, tmp_path, capsys):
        out = tmp_path / "walk.csv"
        assert main(["profile", "synth", "--mech-peak", "10",
                     "--duration", "60", "--out", str(out)]) == 0
        assert out.read_text().startswith("time_s,power_w\n")
        assert main(["profile", "stats", "--profile", str(out)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["average_power_w"] == 52.0
        assert stats["peak_power_w"] == 60.0
        assert stats["duration_s"] == 60.0

    def test_synth_writes_stdout_by_default(self, capsys):
        assert main(["profile", "synth", "--duration", "2"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("time_s,power_w\n")
        assert text.endswith("\n")

    # a valid value for each profile synth flag that differs from the one
    # SYNTH_BASE gives it; a flag that no value changes the output of is dead
    SYNTH_BASE = ["profile", "synth", "--duration", "2", "--mech-peak", "10"]
    SYNTH_VALUES = {"--base": "30", "--period": "0.5", "--duty": "0.3",
                    "--mech-peak": "20", "--efficiency": "0.8", "--duration": "3",
                    "--step": "0.05"}

    def test_every_synth_flag_changes_the_profile(self, capsys):
        parser = build_parser()
        synth = subparser(subparser(parser, "profile"), "synth")
        flags = {action.option_strings[-1] for action in synth._actions
                 if action.option_strings and action.dest not in ("help", "out")}
        assert flags == set(self.SYNTH_VALUES)
        assert main(self.SYNTH_BASE) == 0
        base = capsys.readouterr().out
        for flag, value in self.SYNTH_VALUES.items():
            assert main([*self.SYNTH_BASE, flag, value]) == 0
            assert capsys.readouterr().out != base, flag

    def test_synth_defaults_are_the_gait_defaults(self):
        args = build_parser().parse_args(["profile", "synth"])
        assert GaitParams(base_load=args.base, gait_period=args.period,
                          stride_duty=args.duty, mech_peak=args.mech_peak,
                          servo_efficiency=args.efficiency,
                          duration=args.duration) == GaitParams()

    def test_stats_csv_format(self, tmp_path, capsys):
        profile = flat_profile_file(tmp_path)
        assert main(["profile", "stats", "--profile", str(profile),
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value"
        assert "average_power_w,45.0" in lines
        assert "energy_wh,7.5" in lines


class TestSimulateCommand:
    def test_default_config_json(self, tmp_path, capsys):
        profile = flat_profile_file(tmp_path)
        assert main(["simulate", "--profile", str(profile), "--dt", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["termination"] == "profile_ended"
        assert payload["run_time_h"] == 0.166667
        assert "flows" not in payload

    def test_flows_csv_to_file(self, tmp_path, capsys):
        profile = flat_profile_file(tmp_path)
        out = tmp_path / "flows.csv"
        assert main(["simulate", "--profile", str(profile), "--dt", "1",
                     "--flows", "100", "--format", "csv",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert lines[0].startswith("time_s,demand_w,fc_output_w")
        assert len(lines) == 1 + 6  # steps 0,100,...,500

    def test_config_file_and_loop(self, tmp_path, capsys):
        ini = tmp_path / "supply.ini"
        ini.write_text("[fuel_tank]\nfuel_mass = 0.001\n")
        profile = flat_profile_file(tmp_path)
        assert main(["simulate", "--config", str(ini), "--profile",
                     str(profile), "--dt", "1", "--loop"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["termination"] in ("fuel_exhausted", "unmet_demand")

    def test_initial_soc_flag(self, tmp_path, capsys):
        profile = flat_profile_file(tmp_path)
        assert main(["simulate", "--profile", str(profile), "--dt", "1",
                     "--initial-soc", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["soc_initial"] == 0.5

    def test_ripple_that_exhausts_the_stack_life(self, tmp_path, capsys):
        profile = tmp_path / "ramp.csv"
        profile.write_text("time_s,power_w\n0,0\n9.99,2.12\n10,2.12\n")
        assert main(["simulate", "--profile", str(profile), "--dt", "0.01"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert payload["fc_damage"] is None  # infinite damage; JSON has no Infinity


class TestSizeCommand:
    def test_zero_steady_draw_runs_forever(self, capsys):
        assert main(["size", "--steady", "0"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert payload["run_time_h"] is None
        assert main(["size", "--steady", "0", "--format", "csv"]) == 0
        assert "run_time_h,inf" in capsys.readouterr().out.splitlines()

    def test_hybrid_default(self, capsys):
        assert main(["size"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stack_mass_kg"] == 0.15
        assert payload["fuel_mass_kg"] == 0.8
        assert payload["run_time_h"] == 88.0

    def test_infeasible_budget_exits_3(self, capsys):
        assert main(["size", "--budget", "0.3"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert payload["warnings"]

    def test_battery_chemistries(self, capsys):
        assert main(["size", "--mode", "battery_only", "--chemistry", "liion",
                     "--load", "16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_time_h"] == 9.0

    def test_direct_mode_carries_peak_warning(self, capsys):
        assert main(["size", "--mode", "direct_fc"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any("peak" in w for w in payload["warnings"])

    def test_csv_keeps_warnings(self, capsys):
        assert main(["size", "--budget", "0.3", "--format", "csv"]) == 3
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert all(len(row) == 2 for row in rows)
        assert rows[-1] == ["warning", "stack, battery, and electronics need "
                                       "0.400 kg, over the 0.300 kg budget"]
        assert main(["size", "--mode", "direct_fc", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[-2:] == [["feasible", "true"],
                             ["warning", "stack rated 90 W cannot meet 250 W peaks"]]

    def test_table_emission(self, capsys):
        assert main(["size", "--table1", "--format", "csv"]) == 0
        text = capsys.readouterr().out
        assert text.count("key,value") == 4

    def test_sizing_config_file(self, tmp_path, capsys):
        ini = tmp_path / "sizing.ini"
        ini.write_text("[sizing]\nmass_budget = 2.4\n")
        assert main(["size", "--config", str(ini)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fuel_mass_kg"] == 2.0


class TestCompareCommand:
    def test_reference_table(self, capsys):
        assert main(["compare", "--table1", "--format", "csv"]) == 0
        assert capsys.readouterr().out == TABLE_CSV

    def test_json_matches_row_count(self, capsys):
        assert main(["compare", "--table1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4

    def test_config_entries(self, tmp_path, capsys):
        a = tmp_path / "a.ini"
        a.write_text("")
        b = tmp_path / "b.ini"
        b.write_text("[controller]\nfc_setpoint_w = 40\n")
        assert main(["compare", "--config", str(a), "--config", str(b)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["label"] for row in payload] == ["fuel cell hybrid"] * 2
        assert payload[0]["load_basis_w"] == 45.0
        assert payload[1]["load_basis_w"] == 40.0

    def test_preset_inis_give_the_reference_table(self, tmp_path, capsys):
        args = ["compare", "--format", "csv"]
        for i, cfg in enumerate(presets.comparison_configs()):
            ini = tmp_path / f"preset{i}.ini"
            ini.write_text(supply_text(cfg))
            args += ["--config", str(ini)]
        assert main(args) == 0
        assert capsys.readouterr().out == TABLE_CSV

    def test_direct_ini_without_cell_voltage_gives_the_table_row(self, tmp_path, capsys):
        # every stack runs at 0.8 V, so an INI that leaves cell_voltage to
        # its default describes the direct preset, and is rated as it is
        ini = tmp_path / "direct.ini"
        ini.write_text("[system]\nmode = direct_fc\n[fuel_cell]\nmass = 0.3\n"
                       "[battery]\nmass = 0\n[fuel_tank]\nfuel_mass = 0.9\n")
        assert main(["compare", "--config", str(ini), "--format", "csv"]) == 0
        header, _, _, direct, _ = TABLE_CSV.splitlines()
        assert capsys.readouterr().out.splitlines() == [header, direct]

    def test_fuel_supply_at_a_zero_setpoint_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "idle.ini"
        ini.write_text("[controller]\nfc_setpoint_w = 0\n")
        assert main(["compare", "--config", str(ini)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: comparison load basis must be finite and > 0\n"

    def test_value_outside_its_range_names_the_section(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[battery]\nmass = -1\n")
        assert main(["compare", "--config", str(ini)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [battery] mass must be >= 0\n"

    def test_label_with_a_comma_stays_one_cell(self, tmp_path, capsys):
        ini = tmp_path / "pack.ini"
        ini.write_text("[system]\nmode = battery_only\n[fuel_cell]\nmass = 0\n"
                       "[fuel_tank]\nfuel_mass = 0\n[battery]\nchemistry = NiMH, 7-cell\n")
        assert main(["compare", "--config", str(ini), "--format", "csv"]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert len(header) == len(row) == 8
        assert row[0] == "NiMH, 7-cell battery"

    def test_requires_an_input(self, capsys):
        assert main(["compare"]) == 1
        assert "--table1" in capsys.readouterr().err

    def test_stable_output(self, capsys):
        main(["compare", "--table1"])
        first = capsys.readouterr().out
        main(["compare", "--table1"])
        assert capsys.readouterr().out == first


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err != ""

    def test_invalid_format_choice(self, capsys):
        assert main(["compare", "--table1", "--format", "yaml"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["profile", "stats"]) == 1

    def test_synth_has_no_name_flag(self, capsys):
        # profiles carry no name, so there is none to set
        assert main(["profile", "synth", "--duration", "2", "--name", "walk"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --name walk" in captured.err

    def test_bad_profile_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,power_w\n0,45\nten,45\n")
        assert main(["simulate", "--profile", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, ini, error", [
        (["size", "--budget", "1e305", "--steady", "45", "--peak", "250"], "",
         "fuel_mass * specific_energy_electric must be finite, got inf"),
        (["size", "--mode", "battery_only", "--budget", "1e307", "--chemistry", "liion"],
         "", "capacity_wh must be finite, got inf"),
        (["compare"], "[fuel_tank]\nfuel_mass = 1e305\n",
         "[fuel_tank] fuel_mass * specific_energy_electric must be finite, got inf"),
        (["size", "--budget", "3.9e305", "--steady", "1e308", "--peak", "1e308",
          "--format", "csv"], "", "peak_capability must be finite, got inf"),
        (["compare"], "[fuel_cell]\nrated_power = 1e308\n[controller]\n"
                      "fc_setpoint_w = 1e308\n[battery]\nmass = 1e304\n"
                      "specific_power = 10000\n", "peak_capability must be finite, got inf"),
    ], ids=["hybrid-fuel", "pack", "ini-fuel", "peak", "ini-peak"])
    def test_store_that_overflows_a_float(self, tmp_path, capsys, argv, ini, error):
        # each exited 0 for a finite supply: with an endless run time, or
        # with an infinite peak capability where stack and pack sum past the
        # largest float
        if ini:
            path = tmp_path / "huge.ini"
            path.write_text(ini)
            argv = [*argv, "--config", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    @pytest.mark.parametrize("dt", ["nan", "inf", "0"])
    def test_bad_dt(self, tmp_path, capsys, dt):
        profile = flat_profile_file(tmp_path)
        assert main(["simulate", "--profile", str(profile), "--loop", "--dt", dt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: dt must be")

    @pytest.mark.parametrize("loop", [[], ["--loop"]])
    def test_dt_too_fine_for_one_pass(self, tmp_path, capsys, loop):
        # 10 s at 1e-300 s a step is 1e301 steps a pass: refused, not run
        profile = flat_profile_file(tmp_path, duration=10.0)
        argv = ["simulate", "--profile", str(profile), "--dt", "1e-300", *loop]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: dt must be")

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--dt", "-inf"], "error: dt must be finite and > 0"),
        (["simulate", "--dt", "-1e-3"], "error: dt must be finite and > 0"),
        (["simulate", "--dt", "-nan"], "error: dt must be finite and > 0"),
        (["simulate", "--dt", "-Infinity"], "error: dt must be finite and > 0"),
        (["simulate", "--initial-soc", "-1e-3"], "error: initial soc outside"),
        (["profile", "synth", "--base", "-1e3"], "error: base_load must be >= 0"),
    ], ids=["dt-inf", "dt-exponent", "dt-nan", "dt-infinity", "initial-soc-exponent",
            "synth-base-exponent"])
    def test_negative_value_as_its_own_argument(self, tmp_path, capsys, argv, message):
        # argparse alone takes only -1 and -1.5 for numbers; -1e-3, -inf and
        # -nan must reach the flag as its value, not be read as an option
        if argv[0] == "simulate":
            argv = [*argv, "--profile", str(flat_profile_file(tmp_path))]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    def test_negative_flow_stride(self, tmp_path, capsys):
        profile = flat_profile_file(tmp_path)
        assert main(["simulate", "--profile", str(profile), "--flows", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --flows")

    def test_looped_run_that_never_ends(self, tmp_path, capsys):
        # at 0 W nothing drains, so only the MAX_HOURS horizon ends the run
        profile = flat_profile_file(tmp_path, power=0.0)
        assert main(["simulate", "--profile", str(profile), "--loop",
                     "--dt", "100000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("infeasible:")
        assert "MAX_HOURS" in captured.err

    @pytest.mark.parametrize("make_config", [presets.hybrid_config,
                                             presets.direct_fc_config,
                                             presets.nimh_config])
    def test_looped_zero_profile_exits_at_once(self, tmp_path, capsys, make_config):
        # at the default dt of 1 s the 1e6 h horizon is 3.6e9 steps away
        profile = flat_profile_file(tmp_path, power=0.0, duration=60.0)
        config = tmp_path / "supply.ini"
        config.write_text(supply_text(make_config()))
        assert main(["simulate", "--profile", str(profile), "--config", str(config),
                     "--loop"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("infeasible:")
        assert "MAX_HOURS" in captured.err

    @pytest.mark.parametrize("argv", [
        ["compare", "--table1", "--battery-load", "nan"],
        ["compare", "--table1", "--battery-load", "-16"],
        ["compare", "--table1", "--peak", "nan"],
        ["compare", "--table1", "--peak", "-5"],
        ["size", "--mode", "battery_only", "--load", "nan"],
    ], ids=["battery-load-nan", "battery-load-negative", "peak-nan", "peak-negative",
            "battery-only-load-nan"])
    def test_load_or_peak_outside_finite_positive(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "finite and > 0" in captured.err

    def test_non_finite_idle_threshold(self, tmp_path, capsys):
        profile = flat_profile_file(tmp_path)
        assert main(["profile", "stats", "--profile", str(profile),
                     "--idle-threshold", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: idle_threshold must be finite")

    @pytest.mark.parametrize("argv", [
        ["profile", "synth", "--duration", "nan"],
        ["profile", "synth", "--mech-peak", "inf"],
        ["profile", "synth", "--step", "nan"],
        ["profile", "synth", "--step", "inf"],
        ["size", "--budget", "nan"],
        ["size", "--steady", "inf"],
    ], ids=["synth-duration", "synth-mech-peak", "synth-step-nan", "synth-step-inf",
            "size-budget", "size-steady"])
    def test_non_finite_flag(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--step", "1e-300"],
        ["--duration", "360000"],
        ["--period", "1e-5"],
    ], ids=["step", "duration-at-default-step", "period-at-default-step"])
    def test_synth_too_many_steps(self, capsys, argv):
        # --step 1e-300 (3.6e303 samples) made np.arange raise ValueError;
        # the default step of period/50 meets the same cap
        assert main(["profile", "synth"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: duration / step gives more than")
        assert "raise --step or shorten --duration" in captured.err

    @pytest.mark.parametrize("text, named", [
        ("[fuel_tank]\nfuel_mass = nan\n", "[fuel_tank] fuel_mass must be finite"),
        ("[fuel_tank]\nfuel_mas = 0.5\n", "[fuel_tank] unknown key 'fuel_mas'"),
        ("[bogus]\n", "unknown section [bogus]"),
    ], ids=["non-finite", "unknown-key", "unknown-section"])
    def test_bad_config_entry_on_a_looped_run(self, tmp_path, capsys, text, named):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        profile = flat_profile_file(tmp_path)
        assert main(["simulate", "--config", str(ini), "--profile", str(profile),
                     "--loop"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    @pytest.mark.parametrize("text", [
        b"time_s,power_w\xff\n0,45\n600,45\n",
        b"time_s,power_w\n0,45\n\xff,45\n600,45\n",
        b"time_s,power_w\n" + b"".join(b"%d,45\n" % i for i in range(2000))
        + b"2000,4\xff5\n",
    ], ids=["header", "first-rows", "past-the-first-read"])
    @pytest.mark.parametrize("command", [["profile", "stats"], ["simulate"]])
    def test_profile_that_is_not_utf8(self, tmp_path, capsys, text, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(text)
        assert main([*command, "--profile", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"{bad} is not UTF-8 text" in captured.err

    @pytest.mark.parametrize("command", [["simulate", "--profile", "load.csv"],
                                         ["size"], ["compare"]])
    def test_config_that_is_not_utf8(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        flat_profile_file(tmp_path)
        ini = tmp_path / "bad.ini"
        ini.write_bytes(b"[fuel_tank]\nfuel_mass = 0.5 # \xff\n")
        assert main([*command, "--config", str(ini)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"{ini} is not UTF-8 text" in captured.err

    def test_missing_profile_file(self, tmp_path, capsys):
        assert main(["simulate", "--profile", str(tmp_path / "nope.csv")]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        profile = flat_profile_file(tmp_path)
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--profile", str(profile)]) == 2

    def test_unwritable_out_path(self, tmp_path, capsys):
        assert main(["compare", "--table1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv, shows", [
        (["--help"], "compare"),
        (["-h"], "compare"),
        (["profile", "synth", "-h"], "--mech-peak"),
    ], ids=["long", "short", "nested-short"])
    def test_help_exits_zero(self, capsys, argv, shows):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        assert shows in capsys.readouterr().out


class TestInstalledScript:
    """Run the console script this checkout declares in pyproject.toml.

    The target is called the way the wrapper that ``pip install`` writes
    calls it, through the running interpreter, so no install step and no
    ``fchybrid`` on PATH is needed, and no other copy's script is picked up.
    """

    @staticmethod
    def run_script(*args):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "fchybrid" in scripts
        module, attr = scripts["fchybrid"].split(":")
        wrapper = (f"import importlib, sys; sys.argv = {['fchybrid', *args]!r}; "
                   f"sys.exit(getattr(importlib.import_module({module!r}), "
                   f"{attr!r})())")
        # The child imports the same fchybrid as this suite: from src/ or
        # from an installed package. -P keeps the working directory off
        # sys.path, as it is for the generated wrapper.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(fchybrid.__file__).parent.parent),
                          env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-P", "-c", wrapper],
                              capture_output=True, text=True, timeout=60,
                              env=env)

    def test_console_entry_point(self):
        proc = self.run_script("compare", "--table1", "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout == TABLE_CSV

    def test_bad_input_exit_code(self):
        proc = self.run_script("size", "--budget", "-1", "--steady", "45",
                               "--peak", "250")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
