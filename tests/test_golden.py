"""Golden report digests: emitted reports stay byte-identical.

Each scenario runs one supply against one profile, once or looped, and
hashes ``emit(res, "json") + emit(res, "csv")``. The digests were taken
before the step path was last reworked; a change that alters any emitted
byte of any scenario fails here and has to say why its reports change.
The four unmet_demand scenarios changed once since, when the step that
ends such a run began to count: their ``steps`` rose by one.
``REPORT_GOLDEN`` does the same for every other record ``emit`` writes:
sizings, comparison rows, profile statistics, the empty row list, and
results built from int inputs, which still emit quantized floats.
Three of them changed once since, when sizing CSV began to carry its
warnings: the direct fuel-cell sizing (alone and in the table of four)
and the infeasible one. ``sizing-infeasible`` has since been re-pointed
from a hybrid sizing, whose second warning came from a profile check
that no longer exists, to a direct fuel-cell sizing with two warnings. Two more pin the flow series at its edges: every
step of a gait recorded, and a looped run whose flows pass 1e6 s (so
``%.6g`` writes ``1e+06``) and hold a 3e-05 W demand (written ``3e-05``).
``compare-configs`` changed once, when every comparison row came to be
rated from a configuration: the direct fuel cell's row moved from
49.5 h at its 90 W rating to 99 h at the 45 W load basis of its sizing,
the hybrid's from 88.27 h with the pack to 88 h on fuel alone, and both
fuel rows took Table 1's labels. Since then it is the ``compare-table1``
table, the same four presets compared as ``compare --table1`` does.
Six looped runs changed once, when ripple came to be measured over the
steady window of the fuelled steps, never starting after the first pass:
the four hybrid and lossy gait and flat runs that end ``fuel_exhausted``
lost their stack-off tail (ripple 1.695, 1.883, 1.191 and 1.309 fell to
1e-9 or 2e-12), ``direct-gait-looped`` starts its window at the first
wrap instead of half way (0.3219 to 0.3217), and ``sim-looped-flows-1e6``
is measured over every pass after the first (1.931 to 1.852). Six
changed again when a step cut by the fuel cap, the partial step on which
a tank runs out, came to enter that window as 0 W: the hybrid and lossy
gait runs (1.0e-9) and the direct, hybrid and lossy flat runs (1.9e-12)
now read ripple 0, and ``sim-looped-flows-1e6`` reads 1.85188 (was
1.85186; fc_damage 354.99 to 355.026). The six ``direct-*`` runs changed
in ``fc_damage`` alone when the direct stack came to run at 0.8 V, not an
assumed 0.95 V, with its measured ripple the only stress: each fell by
fc_life(0.8) / fc_life(0.95), about 219 (``direct-gait-once`` 7.89308e-4
to 3.6026e-6), and ``direct-flat-once`` now emits what ``hybrid-flat-once``
does.
Two sizings were added when ``size`` and ``compare`` came to rate a supply
by one rule (sizing.rate), each pinning a figure that rule moved:
``sizing-hybrid-rounded-stack`` sizes a hybrid for 45.1 W, whose stack
rounds to 0.150 kg rated 45.0 W, and now reads 88 h, a 45 W basis and
294.75 W off that rating (it was 87.80 h, 45.1 W and 294.85 W), so it
emits what ``sizing-hybrid`` does: both build one supply.
``sizing-nimh-over-bound`` loads a 0.1 kg NiMH pack, which sources
25 W, at 30 W: it now runs, and lives, 0 h (it read 0.133 h).

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
from fchybrid.profile import profile_stats
from fchybrid.report import compare, emit
from fchybrid.simulator import simulate
from fchybrid.sizing import SizingInputs, size_battery_only, size_direct_fc, size_hybrid


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
    return PowerProfile(times=np.array([0.0, 120.0]), power=np.array([45.0, 45.0]))


def spike_profile():
    # a 3 s spike inside the 5 s grace window, then an 8 s one beyond it
    return PowerProfile(times=np.array([0.0, 10.0, 13.0, 40.0, 48.0, 90.0]),
                        power=np.array([40.0, 200.0, 40.0, 210.0, 42.0, 42.0]))


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


def report_digest(obj):
    text = emit(obj, "json") + emit(obj, "csv")
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "hybrid-gait-once": "23f557e1a7ffefe3b182638887e9f120ac137712dda9cdfef02dcd959671e035",  # profile_ended after 3000 steps
    "hybrid-gait-looped": "cd2343a6508715a50b529a92ef41b32023e4f188224420af5a0bb93bd1b268d7",  # fuel_exhausted after 10064 steps
    "hybrid-flat-once": "c2ff3edcf172f60c914f3f0e1ecab12a8abf0b0a764846cd4fd4cddba4403ef9",  # profile_ended after 240 steps
    "hybrid-flat-looped": "6bbe904faec2f3a1de6e81a64b31fff7f15e6e10b5c175f9654105a322cf0bfe",  # fuel_exhausted after 418 steps
    "hybrid-spike-once": "03db71ee2e8a10c525c569e75930756f30c971c46f986fc3d3ac46309d9e17ba",  # profile_ended after 900 steps
    "hybrid-spike-looped": "927c247b1a679cad0c7131346bb11b38ccd6854e04ff7c017894f109bfcddb1e",  # unmet_demand after 1376 steps
    "direct-gait-once": "319c6f46b009bb5d4ab73a1e040a133c982a0433e750efc0e8e206a4615876a0",  # profile_ended after 3000 steps
    "direct-gait-looped": "5ee19036d4401a8464c97e6865d4232f194e924a47a4f44592cdd9b294b06ea6",  # fuel_exhausted after 7721 steps
    "direct-flat-once": "c2ff3edcf172f60c914f3f0e1ecab12a8abf0b0a764846cd4fd4cddba4403ef9",  # profile_ended after 240 steps
    "direct-flat-looped": "9f36a25a41815408cd4ecb71220e876d67e24b8983f91151421c00c81f6b1842",  # fuel_exhausted after 320 steps
    "direct-spike-once": "2df7651328ff2dcd195222c18cfd186ec01c4fa3a2de2aa2e92cb5defc92470f",  # unmet_demand after 450 steps
    "direct-spike-looped": "8ec7be379094b9e2985eed94ef189d7136abb159af996701a028c9c8557251ec",  # unmet_demand after 450 steps
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
    "lossy-gait-looped": "29117d1f7efc888ff7a07ebf8a5f57d0622d949c0b5c97d4658ecc58a6754136",  # fuel_exhausted after 8698 steps
    "lossy-flat-once": "534a84641adab25429a275c451257ffb2b6049e86b614dfa159aade4148c2d62",  # profile_ended after 240 steps
    "lossy-flat-looped": "bd9e39b899b115b2f453f9cc01424742158e46d664f22b6d96ec4ebd73e1def9",  # fuel_exhausted after 363 steps
    "lossy-spike-once": "a2bf55ad69c677e9b61e4a42dd5b0c4e946bfe5be58edbbff347ad2c5a1628ba",  # profile_ended after 900 steps
    "lossy-spike-looped": "ee9454e510f272debe3489f03505142f1c6f1124df861bf8b53f4fb35d192f50",  # unmet_demand after 1352 steps
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_report_digest(scenario):
    config_name, profile_name, run = scenario.split("-")
    res = run_scenario(config_name, profile_name, run == "looped")
    assert report_digest(res) == GOLDEN[scenario]


def test_scenarios_cover_every_combination():
    assert sorted(GOLDEN) == sorted(f"{c}-{p}-{r}" for c in CONFIGS for p in PROFILES
                                    for r in ("once", "looped"))


def long_trickle_run():
    """Looped on a 2 kg tank at dt = 50 s: half of each 100 s period draws
    45 W, the other half 3e-05 W. Ends unmet_demand after 31133 steps (432 h)."""
    cfg = presets.hybrid_config()
    cfg = replace(cfg, tank=replace(cfg.tank, fuel_mass=2.0))
    profile = PowerProfile(times=np.array([0.0, 50.0, 100.0]),
                           power=np.array([45.0, 3e-5, 3e-5]))
    return simulate(cfg, profile, dt=50.0, loop_profile=True, record_flows=True,
                    flow_stride=333)


REPORTS = {
    "sizings-table1": presets.comparison_sizings,
    "sizing-nimh": presets.nimh_sizing,
    "sizing-liion": presets.liion_sizing,
    "sizing-direct": presets.direct_fc_sizing,
    "sizing-hybrid": presets.hybrid_sizing,
    # the stack alone is over budget and cannot meet the peak: two warnings
    "sizing-infeasible": lambda: size_direct_fc(SizingInputs(0.2, 100.0, 250.0)),
    "sizing-int-inputs": lambda: size_battery_only(presets.NIMH_TEMPLATE, 1, 16),
    # a 0.150 kg stack rated 45.0 W, below the 45.1 W draw
    "sizing-hybrid-rounded-stack": lambda: size_hybrid(SizingInputs(1.2, 45.1, 250.0)),
    # a 0.14 W and a 0.1 W draw: a stack under 0.5 g, rounded up to 1 g
    "sizing-direct-gram-floor": lambda: size_direct_fc(SizingInputs(1.2, 0.07, 250.0)),
    "sizing-hybrid-gram-floor": lambda: size_hybrid(SizingInputs(1.2, 0.1, 250.0)),
    # a 25 W pack at 30 W
    "sizing-nimh-over-bound": lambda: size_battery_only(presets.NIMH_TEMPLATE, 0.1, 30.0),
    "compare-table1": lambda: compare(presets.comparison_configs()),
    "compare-configs": lambda: compare(presets.comparison_configs()),
    "rows-empty": lambda: [],
    "stats-gait": lambda: profile_stats(gait_profile()),
    "stats-flat": lambda: profile_stats(flat_profile()),
    "stats-spike": lambda: profile_stats(spike_profile()),
    "sim-int-dt": lambda: simulate(presets.hybrid_config(), flat_profile(), dt=1),
    "sim-int-dt-flows": lambda: simulate(presets.hybrid_config(), flat_profile(), dt=1,
                                         record_flows=True, flow_stride=7),
    "sim-gait-flows-stride1": lambda: simulate(presets.hybrid_config(), gait_profile(),
                                               dt=0.02, record_flows=True, flow_stride=1),
    "sim-looped-flows-1e6": long_trickle_run,
}

REPORT_GOLDEN = {
    "sizings-table1": "6849abcbba8c004987dabbb191fd14f6dd1e2a8472432158a0a0512154cdd8fd",
    "sizing-nimh": "6332214b0b26a4133d0c55f4d18a13b25c70498b0888f8a97d2693f49565bd77",
    "sizing-liion": "0bc86bb98775f395fdbc4529d367b7a3f8f277ec4ba5b5dbbb86c160625de39f",
    "sizing-direct": "839d13fa18d8be860bd211ce69780ed00afda1391e22b509a3bc1241b185b62f",
    "sizing-hybrid": "bbfb8d4c3041de72fe8f6c4dfc01f018eb1d8667dc8b9c0458adb580ee01f5f7",
    "sizing-infeasible": "505541707bab7b5c2f5409e83098eeb5198947562327cf088062b1d7d95ddaf9",
    "sizing-int-inputs": "73c6ba17748b8e5987eba08d4be3e90db5b7d305fd07c7bf4408ba58f9888c0d",
    "sizing-hybrid-rounded-stack": "bbfb8d4c3041de72fe8f6c4dfc01f018eb1d8667dc8b9c0458adb580ee01f5f7",
    "sizing-direct-gram-floor": "7c2dee26d1e5357aa4bb64d9cc29c4aca8a66f7fb18e6afa6fbc5cd15b4d02ca",
    "sizing-hybrid-gram-floor": "25d39ee52ff850eb84ea3151df8472b99648a2d15ee768c302543cafa5438fb1",
    "sizing-nimh-over-bound": "ff1e99ab08c1139468de87fbfa4a0ec52d5e0ed8cabc5371cc2f3f53f6e76584",
    "compare-table1": "96c1656d05f26ae3f4e8d802995fd798424cdfbcc53ebe3b0494e51d4a827a95",
    "compare-configs": "96c1656d05f26ae3f4e8d802995fd798424cdfbcc53ebe3b0494e51d4a827a95",
    "rows-empty": "c17570ad2dc642b11f733cce8555c7d79fb562dedb2b032cd9ab366be0d26e14",
    "stats-gait": "f5351efc195bacd168f8071156ea8ec77bd488e5e5cd3ef0258557ab4534544c",
    "stats-flat": "1db315f29164a36dd5d1a72304b28919cc5a1bf22cd0c85766e7361671134ebd",
    "stats-spike": "b343cd8eecc58b8fbe0c83de6bf89eae03e5dee8486fc5cd3d6b56d959b72c3e",
    "sim-int-dt": "ebbdcc6c4685bd38677e102a720c04e259bb1e280d0716a4fef767289fe8abfa",
    "sim-int-dt-flows": "f36bf67189bcf916d6f5928f42fb75afe6f90d55a156adfb0abbe1d1d4368bf7",
    "sim-gait-flows-stride1": "fb26ef29f4bffb9bf10cefb01985ba97658d76880f527bf4318d5c0574893de9",
    "sim-looped-flows-1e6": "dd7549597abb3da20245c3073b06d6376b91c9152ed4741a96edb871445f9252",
}


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_other_report_digest(name):
    assert report_digest(REPORTS[name]()) == REPORT_GOLDEN[name]


def test_every_report_has_a_digest():
    assert sorted(REPORT_GOLDEN) == sorted(REPORTS)
