import math
from dataclasses import fields

import pytest

from fchybrid import presets
from fchybrid.config import load_sizing_inputs, load_supply_config
from fchybrid.errors import ValidationError


def write(tmp_path, text, name="supply.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadSupplyConfig:
    def test_empty_file_is_the_hybrid_preset(self, tmp_path):
        cfg = load_supply_config(write(tmp_path, ""))
        base = presets.hybrid_config()
        assert cfg.mode == base.mode == "hybrid"
        assert cfg.stack == base.stack
        assert cfg.battery == base.battery
        assert cfg.tank == base.tank
        assert cfg.electronics == base.electronics
        assert cfg.controller == base.controller
        assert cfg.degradation == base.degradation

    def test_field_overrides(self, tmp_path):
        cfg = load_supply_config(write(tmp_path, """
[fuel_cell]
mass = 0.2
cell_voltage = 0.75

[battery]
chemistry = custom
mass = 0.25
specific_energy = 100

[fuel_tank]
fuel_mass = 0.5

[controller]
fc_setpoint_w = 50
filter_time_constant_s = 2.5
trickle_headroom = 0.2
"""))
        assert cfg.stack.mass == 0.2
        assert cfg.stack.cell_voltage == 0.75
        assert cfg.battery.chemistry == "custom"
        assert cfg.battery.mass == 0.25
        assert cfg.battery.capacity_wh == 25.0
        assert cfg.tank.fuel_mass == 0.5
        assert cfg.controller.fc_setpoint == 50.0
        assert cfg.controller.filter_time_constant == 2.5
        assert cfg.controller.trickle_headroom == 0.2

    def test_rated_power_tracks_overridden_mass(self, tmp_path):
        cfg = load_supply_config(write(tmp_path, "[fuel_cell]\nmass = 0.2\n"))
        assert math.isclose(cfg.stack.rated_power, 60.0)

    def test_explicit_rated_power_wins(self, tmp_path):
        cfg = load_supply_config(write(tmp_path,
                                       "[fuel_cell]\nmass = 0.2\nrated_power = 50\n"))
        assert cfg.stack.rated_power == 50.0

    def test_direct_mode_needs_zero_battery(self, tmp_path):
        with pytest.raises(ValidationError):
            load_supply_config(write(tmp_path, "[system]\nmode = direct_fc\n"))
        cfg = load_supply_config(write(tmp_path, """
[system]
mode = direct_fc

[battery]
mass = 0
"""))
        assert cfg.mode == "direct_fc"

    def test_battery_mode_needs_zero_fuel_path(self, tmp_path):
        cfg = load_supply_config(write(tmp_path, """
[system]
mode = battery_only

[fuel_cell]
mass = 0
rated_power = 0

[fuel_tank]
fuel_mass = 0
"""))
        assert cfg.mode == "battery_only"
        assert cfg.stack.mass == 0.0
        assert cfg.tank.fuel_mass == 0.0
        assert cfg.battery == presets.hybrid_config().battery

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            load_supply_config(tmp_path / "nope.ini")
        assert "not found" in str(err.value)

    def test_malformed_ini(self, tmp_path):
        with pytest.raises(ValidationError):
            load_supply_config(write(tmp_path, "no section header\n"))

    def test_bad_float_names_section_and_key(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            load_supply_config(write(tmp_path,
                                     "[fuel_tank]\nfuel_mass = lots\n"))
        msg = str(err.value)
        assert "[fuel_tank]" in msg and "fuel_mass" in msg

    def test_inline_comments_stripped(self, tmp_path):
        cfg = load_supply_config(write(tmp_path, """
[fuel_tank]
fuel_mass = 0.5  # half a kilo
specific_energy_electric = 4000 ; trimmed for the converter
"""))
        assert cfg.tank.fuel_mass == 0.5
        assert cfg.tank.specific_energy_electric == 4000.0

    def test_out_of_range_value_propagates_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            load_supply_config(write(tmp_path,
                                     "[controller]\ntrickle_headroom = 0\n"))


class TestLoadSizingInputs:
    def test_defaults_without_file(self):
        inp = load_sizing_inputs()
        assert inp.mass_budget == 1.2
        assert inp.steady_power == 45.0
        assert inp.peak_power == 250.0
        assert inp.fuel_specific_energy == 4950.0

    def test_file_overrides(self, tmp_path):
        inp = load_sizing_inputs(write(tmp_path, """
[sizing]
mass_budget = 2.0
steady_power = 60
peak_power = 300
fuel_specific_energy = 4000
electronics_mass = 0.2
"""))
        assert inp.mass_budget == 2.0
        assert inp.steady_power == 60.0
        assert inp.peak_power == 300.0
        assert inp.fuel_specific_energy == 4000.0
        assert inp.electronics_mass == 0.2
        assert inp.stack_specific_power == 300.0

    def test_flags_beat_file(self, tmp_path):
        path = write(tmp_path, "[sizing]\nmass_budget = 2.0\nsteady_power = 60\n")
        inp = load_sizing_inputs(path, mass_budget=1.5)
        assert inp.mass_budget == 1.5
        assert inp.steady_power == 60.0

    def test_flags_without_file(self):
        inp = load_sizing_inputs(steady_power=50.0, peak_power=260.0)
        assert inp.mass_budget == 1.2
        assert inp.steady_power == 50.0
        assert inp.peak_power == 260.0

    def test_invalid_combination_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_sizing_inputs(peak_power=10.0)  # below the steady default


# the INI key of each field whose key carries its unit
UNIT_KEYS = {"fc_setpoint": "fc_setpoint_w", "filter_time_constant": "filter_time_constant_s"}
SUPPLY_SECTIONS = {"fuel_cell": "stack", "battery": "battery", "fuel_tank": "tank",
                   "electronics": "electronics", "controller": "controller",
                   "degradation": "degradation"}


def supply_text(cfg):
    """Every field of a configuration, written out section by section."""
    lines = ["[system]", f"mode = {cfg.mode}"]
    for section, attr in SUPPLY_SECTIONS.items():
        part = getattr(cfg, attr)
        lines.append(f"[{section}]")
        lines.extend(f"{UNIT_KEYS.get(f.name, f.name)} = {getattr(part, f.name)}"
                     for f in fields(part) if f.init)
    return "\n".join(lines) + "\n"


class TestStrictKeys:
    @pytest.mark.parametrize("make", [presets.nimh_config, presets.liion_config,
                                      presets.direct_fc_config, presets.hybrid_config])
    def test_every_field_round_trips(self, tmp_path, make):
        cfg = make()
        assert load_supply_config(write(tmp_path, supply_text(cfg))) == cfg

    def test_unknown_key_names_section_and_key(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            load_supply_config(write(tmp_path, "[fuel_tank]\nfuel_mas = 3\n"))
        assert "[fuel_tank]" in str(err.value) and "'fuel_mas'" in str(err.value)
        with pytest.raises(ValidationError) as err:
            load_sizing_inputs(write(tmp_path, "[sizing]\nmass_budge = 2\n"))
        assert "[sizing]" in str(err.value) and "'mass_budge'" in str(err.value)

    def test_sizing_keys_are_one_record_in_field_order(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            load_sizing_inputs(write(tmp_path, "[sizing]\nmass_budge = 2\n"))
        assert str(err.value) == (
            "[sizing] unknown key 'mass_budge', expected one of mass_budget, "
            "steady_power, peak_power, stack_specific_power, battery_specific_power, "
            "battery_specific_energy, fuel_specific_energy, electronics_mass")

    def test_sizing_names_the_first_field_out_of_range(self, tmp_path):
        # a mission figure precedes the specific figures in field order
        with pytest.raises(ValidationError) as err:
            load_sizing_inputs(write(tmp_path, "[sizing]\nmass_budget = -1\n"
                                               "battery_specific_power = 0\n"))
        assert str(err.value) == "[sizing] mass_budget must be > 0"

    def test_field_name_is_not_a_unit_key(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            load_supply_config(write(tmp_path, "[controller]\nfc_setpoint = 40\n"))
        assert "fc_setpoint_w" in str(err.value)

    @pytest.mark.parametrize("text", ["[bogus]\n", "[DEFAULT]\n", "[DEFAULT]\nmass = 3\n"])
    @pytest.mark.parametrize("load", [load_supply_config, load_sizing_inputs])
    def test_unknown_section_rejected(self, tmp_path, text, load):
        with pytest.raises(ValidationError) as err:
            load(write(tmp_path, text))
        assert text.split("\n")[0] in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_section_and_key(self, tmp_path, value):
        with pytest.raises(ValidationError) as err:
            load_supply_config(write(tmp_path, f"[fuel_tank]\nfuel_mass = {value}\n"))
        assert "[fuel_tank] fuel_mass must be finite" in str(err.value)
        with pytest.raises(ValidationError) as err:
            load_sizing_inputs(write(tmp_path, f"[sizing]\nfuel_specific_energy = {value}\n"))
        assert "[sizing] fuel_specific_energy must be finite" in str(err.value)

    def test_one_file_holds_supply_and_sizing(self, tmp_path):
        path = write(tmp_path, "[sizing]\nmass_budget = 2.0\n\n[fuel_tank]\nfuel_mass = 0.5\n")
        assert load_supply_config(path).tank.fuel_mass == 0.5
        assert load_sizing_inputs(path).mass_budget == 2.0

    def test_percent_sign_is_plain_text(self, tmp_path):
        cfg = load_supply_config(write(tmp_path, "[battery]\nchemistry = LiFePO4 100%\n"))
        assert cfg.battery.chemistry == "LiFePO4 100%"
