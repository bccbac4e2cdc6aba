"""Golden report digests: emitted reports stay byte-identical.

Each scenario runs one supply against one profile, once or looped, and
hashes ``emit(res, "json") + emit(res, "csv")``. The digests were taken
before the step path was last reworked; a change that alters any emitted
byte of any scenario fails here and has to say why its reports change.

The scenarios cross the four presets (all three modes) and a lossy hybrid
(non-unit converter and battery efficiencies, a raised SOC floor, reduced
trickle headroom) with a gait, a flat and a spike profile, each run once
with flows recorded and looped until the supply dies. Looped runs start
the pack just above its floor and carry a 2 Wh tank, so every one ends
within a few thousand steps.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fchybrid import presets
from fchybrid.controller import ControllerParams
from fchybrid.powertrain import ElectronicsSpec
from fchybrid.profile import GaitParams, PowerProfile, synthesize_walk_profile
from fchybrid.report import emit
from fchybrid.simulator import simulate


def lossy_hybrid_config():
    base = presets.hybrid_config()
    battery = replace(base.battery, charge_efficiency=0.92,
                      discharge_efficiency=0.95, soc_min=0.2, soc_max=0.95)
    return replace(base, battery=battery,
                   electronics=ElectronicsSpec(mass=0.115, converter_efficiency=0.93),
                   controller=ControllerParams(fc_setpoint=47.5,
                                               filter_time_constant=0.7,
                                               trickle_headroom=0.4))


CONFIGS = {
    "hybrid": presets.hybrid_config,
    "direct": presets.direct_fc_config,
    "nimh": presets.nimh_config,
    "liion": presets.liion_config,
    "lossy": lossy_hybrid_config,
}


def gait_profile():
    return synthesize_walk_profile(GaitParams(base_load=38.0, gait_period=0.8,
                                              stride_duty=0.55, mech_peak=9.0,
                                              servo_efficiency=0.6, duration=60.0))


def flat_profile():
    return PowerProfile(times=np.array([0.0, 120.0]), power=np.array([45.0, 45.0]),
                        name="flat")


def spike_profile():
    # a 3 s spike inside the 5 s grace window, then an 8 s one beyond it
    return PowerProfile(times=np.array([0.0, 10.0, 13.0, 40.0, 48.0, 90.0]),
                        power=np.array([40.0, 200.0, 40.0, 210.0, 42.0, 42.0]),
                        name="spike")


PROFILES = {"gait": (gait_profile, 0.02), "flat": (flat_profile, 0.5),
            "spike": (spike_profile, 0.1)}


def run_scenario(config_name, profile_name, looped):
    cfg = CONFIGS[config_name]()
    make_profile, dt = PROFILES[profile_name]
    if not looped:
        return simulate(cfg, make_profile(), dt=dt, record_flows=True, flow_stride=7)
    battery = cfg.battery
    if cfg.tank.fuel_mass > 0.0:
        tank = cfg.tank
        cfg = replace(cfg, tank=replace(tank, fuel_mass=2.0 / tank.specific_energy_electric))
    soc = battery.soc_min + 0.05 * (battery.soc_max - battery.soc_min)
    return simulate(cfg, make_profile(), dt=dt, loop_profile=True, initial_soc=soc)


def report_digest(res):
    text = emit(res, "json") + emit(res, "csv")
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "hybrid-gait-once": "23f557e1a7ffefe3b182638887e9f120ac137712dda9cdfef02dcd959671e035",  # profile_ended after 3000 steps
    "hybrid-gait-looped": "bda7820b6570614d58bbfdd7651def73cddaea6b61a0979c1bd02f9121efefea",  # fuel_exhausted after 10064 steps
    "hybrid-flat-once": "c2ff3edcf172f60c914f3f0e1ecab12a8abf0b0a764846cd4fd4cddba4403ef9",  # profile_ended after 240 steps
    "hybrid-flat-looped": "491bfc7cad57e751ee811138970739dd51fae8d24415a93ddba49f1b48970bc5",  # fuel_exhausted after 418 steps
    "hybrid-spike-once": "03db71ee2e8a10c525c569e75930756f30c971c46f986fc3d3ac46309d9e17ba",  # profile_ended after 900 steps
    "hybrid-spike-looped": "d27b3e8fbc4bef717ae512bdcd07f2971ac88d4d9a067be634d422efaf59c570",  # unmet_demand after 1375 steps
    "direct-gait-once": "36db0fa63451d7d25bd02bb86faa876b4ad55cf299e17ae9bc30ced7bf4afa1a",  # profile_ended after 3000 steps
    "direct-gait-looped": "96d10108d3b4a3313e555facdb4222914e2d9f7209d1eeadfb3025f19dafc8e0",  # fuel_exhausted after 7721 steps
    "direct-flat-once": "2ee6e82e7f399c9c0c907e68350290028b7be762ea3d0f5776bc4d3414e13e7c",  # profile_ended after 240 steps
    "direct-flat-looped": "991b7810f97c934f1ef0346ee2b38c8ee35f11a5ee1bd874d6f8f03e289e36d1",  # fuel_exhausted after 320 steps
    "direct-spike-once": "ab91388746ab7dd551c85b4e56385203ab6fbb99f6ebed3edeec667027af6d8e",  # unmet_demand after 449 steps
    "direct-spike-looped": "ef842c0314d75ca3bbe29f11bbf175745279e33482a5001f4ca6456a84cb320d",  # unmet_demand after 449 steps
    "nimh-gait-once": "7c207cf3291c7488c6ed2c1a98401fa68c00030b7671cf98705c96357d0c0412",  # profile_ended after 3000 steps
    "nimh-gait-looped": "04338e5e1e00cef961f39a5d7c8949fed9c98a5fc3bfcaa1177b5d5185204f43",  # battery_depleted after 9263 steps
    "nimh-flat-once": "811a36b1bd7f8f6f596721ae965d7262c95733d050f16d305a414909c72a1215",  # profile_ended after 240 steps
    "nimh-flat-looped": "8c47adb2084a9b0a43fa4f2337fe9eaf95414950bee1db94fbfd13fdf82bd9dc",  # battery_depleted after 384 steps
    "nimh-spike-once": "77ef1ac3677afa75332a501f8c7a3a154e24eefb40048b3f15639cf4c1ca609f",  # profile_ended after 900 steps
    "nimh-spike-looped": "97432b4abb31bd296aff7ce0e6c47f9aa8b72c6112926ec1dec1aac17c496d2b",  # battery_depleted after 1350 steps
    "liion-gait-once": "a8bc465d5e53a5e2264c750cbe7fa2fe956f71c0c5b80e630791ad7b6c470246",  # profile_ended after 3000 steps
    "liion-gait-looped": "b2b30bf3bb4531e7a8f3eb68bf3480a1f43b95c47bdaa697f0c5cb3f27851b60",  # battery_depleted after 27796 steps
    "liion-flat-once": "eec72e422ad8408b47cc93eed8993d8b0339a068d1a641b6a11d73937a6659a2",  # profile_ended after 240 steps
    "liion-flat-looped": "5be6f5d6cd0cef2c1febfe31b16a2c7876f37f480f8353e0d42c4b093425ba6e",  # battery_depleted after 1152 steps
    "liion-spike-once": "88f41f0fc55c0dcf5c1f5bf0e9769c5306b78dffb366f52f35e2235cae336711",  # profile_ended after 900 steps
    "liion-spike-looped": "bf38bcded624c4aadccbc246534a73f0ce9619cdcf48713b5748f66480d0cd82",  # battery_depleted after 4096 steps
    "lossy-gait-once": "fddf38b553c57c71ce9fe7c76ebc5809d4d32446154304f28529f41134507dba",  # profile_ended after 3000 steps
    "lossy-gait-looped": "edf4816a0ca80a306c8fddd0d99ce70a6aafd2e04674fece4d59bfbfa935ad05",  # fuel_exhausted after 8698 steps
    "lossy-flat-once": "534a84641adab25429a275c451257ffb2b6049e86b614dfa159aade4148c2d62",  # profile_ended after 240 steps
    "lossy-flat-looped": "6bb6e17d24ce20e87d3338a50a86780e70a12c7e509737a6825242d26879ec82",  # fuel_exhausted after 363 steps
    "lossy-spike-once": "a2bf55ad69c677e9b61e4a42dd5b0c4e946bfe5be58edbbff347ad2c5a1628ba",  # profile_ended after 900 steps
    "lossy-spike-looped": "a6e3c7d0136f73b3a6df38d596bda54bf1f72ea7b58e25eca3b7a81ca1c085fd",  # unmet_demand after 1351 steps
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_report_digest(scenario):
    config_name, profile_name, run = scenario.split("-")
    res = run_scenario(config_name, profile_name, run == "looped")
    assert report_digest(res) == GOLDEN[scenario]


def test_scenarios_cover_every_combination():
    assert sorted(GOLDEN) == sorted(f"{c}-{p}-{r}" for c in CONFIGS for p in PROFILES
                                    for r in ("once", "looped"))
