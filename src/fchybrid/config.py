"""INI-style configuration files.

Each section maps to one dataclass and its keys are that dataclass's
init fields; unset values fall back to the built-in presets, so a file
only names what it changes. An unknown section or key, ``[DEFAULT]``
included, raises ValidationError naming it.
"""

from __future__ import annotations

import configparser
from dataclasses import fields, replace
from pathlib import Path

from .errors import ValidationError
from .presets import SIZING_INPUTS, hybrid_config
from .simulator import HybridConfig
from .sizing import SizingInputs

# [system] holds HybridConfig's mode; each other supply section one of its
# components. [sizing] holds the fields of SizingInputs.
_SUPPLY_SECTIONS = {"fuel_cell": "stack", "battery": "battery", "fuel_tank": "tank",
                    "electronics": "electronics", "controller": "controller",
                    "degradation": "degradation"}
_SECTIONS = ("system", *_SUPPLY_SECTIONS, "sizing")
# field -> its INI key, for the fields whose key names the unit
_UNIT_KEYS = {"fc_setpoint": "fc_setpoint_w", "filter_time_constant": "filter_time_constant_s"}


def _read(path) -> configparser.ConfigParser:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {p}")
    # with no default section, [DEFAULT] is an ordinary section and so an
    # unknown one, instead of lending its keys to every other section
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None, default_section="")
    try:
        cp.read_string(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{p} is not UTF-8 text ({exc.reason})") from None
    except configparser.Error as exc:
        raise ValidationError(f"bad config file {p}: {exc}") from None
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"{p}: unknown section [{section}], "
                                  f"expected one of {', '.join(_SECTIONS)}")
    return cp


def _changes(cp: configparser.ConfigParser, section: str, base) -> dict:
    """The init fields of the base dataclass that the section sets, parsed
    like their default: text for a string, a float for a number."""
    changes = {}
    table = {_UNIT_KEYS.get(f.name, f.name): (f.name, getattr(base, f.name))
             for f in fields(base)
             if f.init and isinstance(getattr(base, f.name), (str, int, float))}
    for key, text in cp.items(section) if cp.has_section(section) else ():
        if key not in table:
            raise ValidationError(f"[{section}] unknown key {key!r}, "
                                  f"expected one of {', '.join(table)}")
        name, default = table[key]
        try:
            changes[name] = text if isinstance(default, str) else float(text)
        except ValueError as exc:
            raise ValidationError(f"[{section}] {key}: {exc}") from None
    return changes


def _build(section: str, base, changes: dict):
    """base with changes applied; its validation errors name the section."""
    try:
        return replace(base, **changes)
    except ValidationError as exc:
        raise ValidationError(f"[{section}] {exc}") from None


def load_supply_config(path) -> HybridConfig:
    """Read a supply configuration, defaulting to the hybrid preset."""
    cp = _read(path)
    base = hybrid_config()
    parts = {}
    for section, attr in _SUPPLY_SECTIONS.items():
        component = getattr(base, attr)
        changes = _changes(cp, section, component)
        if attr == "stack" and "rated_power" not in changes:
            changes["rated_power"] = (changes.get("mass", component.mass)
                                      * changes.get("specific_power", component.specific_power))
        parts[attr] = _build(section, component, changes)
    return replace(base, **parts, **_changes(cp, "system", base))


def load_sizing_inputs(path=None, *, mass_budget: float | None = None,
                       steady_power: float | None = None,
                       peak_power: float | None = None) -> SizingInputs:
    """Sizing inputs from a [sizing] section, flag values taking priority."""
    changes = {} if path is None else _changes(_read(path), "sizing", SIZING_INPUTS)
    flags = {"mass_budget": mass_budget, "steady_power": steady_power,
             "peak_power": peak_power}
    changes.update((k, v) for k, v in flags.items() if v is not None)
    return _build("sizing", SIZING_INPUTS, changes)
