"""Repeat the benchmark over seeds, print each metric's spread, and
optionally write the result as a baseline.

    python3 bench/record.py --seeds 11-20 --seconds 30 [--out bench/baseline.json]

For each workload, every seed gets one untraced run; the spread of an
end-to-end metric is the distance between the first and third quartiles
of its values (``statistics.quantiles(values, n=4)``) over their median.
One traced run per workload, on the first seed, adds the per-layer
metrics. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, text=True,
                             capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    fingerprint = None
    book = {}
    for name in run.WORKLOADS:
        values, entry = {}, {"why": why[name], "seeds": args.seeds, "sizes": {},
                             "sha256": {}, "counts": {}, "attempted": 0, "failed": 0,
                             "raw_setup_s": {}}  # per seed: [package, frozen copy]
        for seed in args.seeds:
            res = run.measure(name, seed, args.seconds, 0)
            fingerprint = fingerprint or {
                "git_sha": git_sha(), "src_sha256": res["src_sha256"],
                "python": res["python"], "numpy": res["numpy"], "nproc": res["nproc"],
                "machine": res["machine"], "seconds": args.seconds}
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            entry["sizes"][seed] = res["sizes"]
            entry["sha256"][seed] = res["digest"]
            entry["counts"][seed] = res["counts"]
            entry["raw_setup_s"][seed] = [statistics.median(p[i] for p in res["setup_pairs"])
                                          for i in (0, 1)]
            entry["attempted"] += res["attempted"]
            entry["failed"] += res["failed"]
            for e in res["errors"]:
                print(f"{name} seed {seed}: ERROR {e}", file=sys.stderr)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in res["metrics"].items()), flush=True)
        entry["end_to_end"] = {k: spread(v) for k, v in values.items()}
        for k, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[k] / 3 else "  (over a third of the bound)"
            print(f"{name} {k}: median {s['median']:.4f}, spread {s['spread']:.4f}, "
                  f"bound {bounds[k]}{flag}", flush=True)
        traced_seed = args.seeds[0]
        res = run.measure(name, traced_seed, args.seconds, 1)
        entry["traced"] = {"seed": traced_seed,
                           "per_layer": {k: v["value"] for k, v in res["metrics"].items()},
                           "failed": res["failed"], "attempted": res["attempted"]}
        print(f"{name} traced seed {traced_seed}: {json.dumps(entry['traced'])}", flush=True)
        book[name] = entry

    if args.out:
        fingerprint["runs"] = sum(len(e["seeds"]) + 1 for e in book.values())
        baseline = {"fingerprint": fingerprint, "workloads": book,
                    "seed_setup_s": run.SEED_SETUP_S, "per_layer_moves": run.MOVES}
        args.out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
