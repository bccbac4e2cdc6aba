import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fchybrid
from fchybrid.cli import main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TABLE_CSV = """\
label,stack_mass_kg,fuel_mass_kg,energy_density_wh_per_kg,system_life_h,run_time_h,load_basis_w,feasible_at_peak
NiMH battery,,,40,3000,3,16,true
Li-ion battery,,,120,9000,9,16,true
fuel cell,0.3,0.9,4950,119.949,99,45,false
fuel cell hybrid,0.15,0.8,4950,26280,88,45,true
"""


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


class TestSizeCommand:
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
        assert [row["label"] for row in payload] == ["hybrid", "hybrid"]
        assert payload[0]["load_basis_w"] == 45.0
        assert payload[1]["load_basis_w"] == 40.0

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

    def test_bad_profile_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,power_w\n0,45\nten,45\n")
        assert main(["simulate", "--profile", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ["nan", "inf", "0"])
    def test_bad_dt(self, tmp_path, capsys, dt):
        profile = flat_profile_file(tmp_path)
        assert main(["simulate", "--profile", str(profile), "--loop", "--dt", dt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: dt must be")

    def test_missing_profile_file(self, tmp_path, capsys):
        assert main(["simulate", "--profile", str(tmp_path / "nope.csv")]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        profile = flat_profile_file(tmp_path)
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--profile", str(profile)]) == 2

    def test_unwritable_out_path(self, tmp_path, capsys):
        assert main(["compare", "--table1", "--out", str(tmp_path)]) == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert "compare" in capsys.readouterr().out


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
