"""Fuel-cell/battery hybrid power supply simulation and sizing toolkit."""

from .controller import (
    ControllerParams,
    EnergyFlow,
    measure_ripple,
    suppression_filter,
)
from .errors import InfeasibleError, ProfileParseError, ValidationError
from .powertrain import (
    IDEAL_CELL_VOLTAGE,
    STACK_SPECIFIC_POWER,
    BatterySpec,
    BatteryState,
    DegradationParams,
    ElectronicsSpec,
    FuelCellStackSpec,
    FuelTankSpec,
    battery_charge_acceptance,
    battery_step,
    fc_efficiency,
    fc_life,
    fuel_energy,
)
from .profile import (
    GaitParams,
    PowerProfile,
    ProfileStats,
    emit_profile,
    load_profile,
    profile_stats,
    synthesize_walk_profile,
)
from .report import ComparisonRow, compare, emit
from .simulator import (
    HybridConfig,
    SimulationResult,
    run_time_constant_load,
    simulate,
)
from .sizing import (
    SizingInputs,
    SizingResult,
    optimize_setpoint,
    size_battery_only,
    size_direct_fc,
    size_hybrid,
    system_life,
)

__version__ = "0.1.0"

__all__ = [
    "BatterySpec",
    "BatteryState",
    "ComparisonRow",
    "ControllerParams",
    "DegradationParams",
    "ElectronicsSpec",
    "EnergyFlow",
    "FuelCellStackSpec",
    "FuelTankSpec",
    "GaitParams",
    "HybridConfig",
    "IDEAL_CELL_VOLTAGE",
    "InfeasibleError",
    "PowerProfile",
    "ProfileParseError",
    "ProfileStats",
    "STACK_SPECIFIC_POWER",
    "SimulationResult",
    "SizingInputs",
    "SizingResult",
    "ValidationError",
    "battery_charge_acceptance",
    "battery_step",
    "compare",
    "emit",
    "emit_profile",
    "fc_efficiency",
    "fc_life",
    "fuel_energy",
    "load_profile",
    "measure_ripple",
    "optimize_setpoint",
    "profile_stats",
    "run_time_constant_load",
    "simulate",
    "size_battery_only",
    "size_direct_fc",
    "size_hybrid",
    "suppression_filter",
    "synthesize_walk_profile",
    "system_life",
]
