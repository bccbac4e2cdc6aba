"""fchybrid benchmark: one workload, one seed, every metric with its unit.

    python3 bench/run.py --workload gait_mission --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/`` of
this checkout; nothing is installed. Each workload runs in its own
single-threaded process (closed loop, one caller). With ``--trace 0`` the
end-to-end metrics are measured:

  setup_s       launch of the workload's process until it is ready to time.
                Launches of the package under test alternate with launches
                that set the same workload up on the frozen copy; setup_s
                is the median ratio of adjacent pairs times the frozen
                copy's recorded set-up time (SEED_SETUP_S), so it reads in
                seconds but does not move with the machine's speed. The
                raw medians of both are printed beside it.
  wall_vs_seed  a pass's wall time over that of the same pass on the seed
                commit's frozen copy of the package run next to it, median
                of the pairs; the raw wall time is printed beside it
  peak_rss_mb   peak resident memory of the process after its first pass

With ``--trace 1`` a separate run wraps the package's layers in spans and
reports the per-layer metrics. The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts timed passes, ``failed`` the passes that raised or
failed an output check, so the error rate is failed / attempted. Exit code
0 means the run finished; a run that cannot run (no ``src/fchybrid`` here,
a worker that died or overran) exits 1 or 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("gait_mission", "loop_endurance", "optimize_gait")
# setup_s is the median over this many pairs of set-up launches, half
# before the timed launch and half after, so that it spans the run
SETUP_PAIRS = 8
# median set-up time of each workload on the frozen copy, in seconds, over
# 20 launches on a 2-vCPU x86_64 VM (Python 3.11.7, numpy 2.4.6, seed 3)
SEED_SETUP_S = {"gait_mission": 0.602, "loop_endurance": 0.219, "optimize_gait": 0.224}
RUN_LIMIT_S = 170.0  # the whole run, set-ups included, ends within this

# the end-to-end metric and workload each per-layer metric should move;
# names and units are those of BENCHMARK.json
MOVES = {
    "profile.load_s": "wall_vs_seed on gait_mission",
    "profile.rows": "wall_vs_seed on gait_mission",
    "profile.load_rows_per_s": "wall_vs_seed on gait_mission",
    "profile.synth_s": "setup_s",
    "profile.emit_s": "setup_s",
    "config.load_s": "wall_vs_seed on gait_mission",
    "simulator.calls": "wall_vs_seed on all three workloads",
    "simulator.steps": "wall_vs_seed on all three workloads",
    "simulator.simulate_s": "wall_vs_seed on all three workloads",
    "simulator.ns_per_step": "wall_vs_seed on all three workloads",
    "simulator.steps_per_s": "wall_vs_seed on all three workloads",
    "simulator.alloc_peak_mb": "peak_rss_mb on loop_endurance",
    "controller.dispatch_power_ns": "wall_vs_seed on gait_mission and loop_endurance",
    # simulate filters and measures ripple inline and calls neither of the
    # next two; their streams are rebuilt from its arithmetic (tracing.py)
    "controller.suppression_filter_ns": "none: simulate does not call suppression_filter",
    "powertrain.battery_step_ns": "wall_vs_seed on gait_mission and loop_endurance",
    "powertrain.charge_acceptance_ns": "wall_vs_seed on gait_mission and loop_endurance",
    "controller.measure_ripple_s": "none: simulate does not call measure_ripple",
    "sizing.evaluate_calls": "wall_vs_seed on optimize_gait",
    "sizing.simulate_calls": "wall_vs_seed on optimize_gait",
    "sizing.feasible_fraction": "wall_vs_seed on optimize_gait",
    "sizing.evaluate_self_s": "wall_vs_seed on optimize_gait",
    "sizing.search_self_s": "wall_vs_seed on optimize_gait",
    "report.emit_json_s": "wall_vs_seed on gait_mission",
    "report.emit_csv_s": "wall_vs_seed on gait_mission",
    "report.json_bytes": "wall_vs_seed on gait_mission",
    "report.csv_bytes": "wall_vs_seed on gait_mission",
    "report.flow_rows": "wall_vs_seed on gait_mission",
    "report.json_rows_per_s": "wall_vs_seed on gait_mission",
    "trace.overhead_s": "none: traced minus untraced median pass wall time",
}

# counts that must repeat exactly across runs of one source tree
STEADY = ("simulator.steps", "sizing.evaluate_calls", "report.json_bytes",
          "report.flow_rows", "report.sha256")


class RunError(Exception):
    pass


def src_digest() -> str:
    """sha256 over the package sources, standing in for the commit."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def launch(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return its set-up time (launch to ``ready``) and
    what it printed after that."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RunError(f"worker did not get ready (got {line!r})")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        raise RunError("worker overran the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return setup_s, out


def steady_errors(workload: str, seed: int, digest: str, counts: dict) -> list[str]:
    """Compare this run's exact counts with earlier runs of the same seed
    on the same sources, then record them for later runs."""
    path = WORKDIR / "counts.json"
    try:
        book = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        book = {}
    seen = book.setdefault(digest, {}).setdefault(workload, {}).setdefault(str(seed), {})
    errors = [f"{k} = {v!r}, an earlier run of this seed had {seen[k]!r}"
              for k, v in counts.items() if k in seen and seen[k] != v]
    seen.update(counts)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(book, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return errors


def high_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"none: {n} samples, a percentile needs 11"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(samples)[n - 11]:.4f} s"


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload and gather everything the report prints."""
    WORKDIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(WORKDIR)]
    pairs = []

    def setup_pairs(n):
        for _ in range(n):
            order = ("fchybrid", "fchybrid_seed")[::1 if len(pairs) % 2 else -1]
            t = {p: launch(cmd + ["--setup-only", "--package", p], deadline)[0]
                 for p in order}
            pairs.append((t["fchybrid"], t["fchybrid_seed"]))

    n = 0 if trace else SETUP_PAIRS
    setup_pairs(n // 2)
    _, out = launch(cmd, deadline)
    setup_pairs(n - n // 2)
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunError("worker printed no result") from None

    digest = src_digest()
    counts = dict(res["counts"], **{"report.sha256": res["digest"]})
    res["errors"] += steady_errors(workload, seed, digest,
                                   {k: counts[k] for k in STEADY if k in counts})
    res.update(setup_pairs=pairs, src_sha256=digest, nproc=os.cpu_count(),
               machine=platform.machine())
    if trace:
        values = res["per_layer"]
    else:
        values = {"setup_s": statistics.median(a / b for a, b in pairs)
                  * SEED_SETUP_S[workload],
                  "wall_vs_seed": statistics.median(res["wall_vs_seed"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    res["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                      for m in declared["per_layer" if trace else "end_to_end"]}
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # let launch() stop its worker when the run itself is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "fchybrid" / "__init__.py").is_file():
        print(f"no package sources at {SRC / 'fchybrid'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted, failed, walls = res["attempted"], res["failed"], res["wall_s"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds}")
    print(f"  fingerprint: python {res['python']}, numpy {res['numpy']}, "
          f"nproc {res['nproc']}, {res['machine']}, src sha256 {res['src_sha256'][:16]}")
    print(f"  sizes: {json.dumps(res['sizes'])}")
    print(f"  counts: {json.dumps(res['counts'])}")
    same = "same" if res["digest"] == res["seed_digest"] else "CHANGED"
    print(f"  report sha256 {res['digest']} (against the frozen copy's: {same})")
    print(f"  error_rate {failed / attempted:.4f} ({failed} of {attempted} passes)")
    for e in res["errors"]:
        print(f"  ERROR {e}")
    m = res["metrics"]
    if args.trace:
        print(f"  passes: {len(walls)} untraced, {attempted - len(walls)} traced; "
              f"spans in .bench_work/{res['spans_file']}")
        for k, v in m.items():
            print(f"  {k:34s} {v['value']:>14.6g} {v['unit']:6s} -> {MOVES[k]}")
    else:
        pairs = res["setup_pairs"]
        print(f"  setup_s     {m['setup_s']['value']:.4f} s (median ratio of "
              f"{len(pairs)} launch pairs x {SEED_SETUP_S[args.workload]} s; raw "
              f"{statistics.median(a for a, _ in pairs):.4f} s, frozen copy "
              f"{statistics.median(b for _, b in pairs):.4f} s)")
        print(f"  wall_s      {statistics.median(walls):.4f} s (median of {len(walls)} "
              f"passes; highest percentile: {high_percentile(walls)})")
        print(f"  wall_vs_seed {m['wall_vs_seed']['value']:.4f} (median of "
              f"{len(res['wall_vs_seed'])} pass pairs with the frozen seed copy)")
        print(f"  peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB")

    print(json.dumps({"correct": not res["errors"] and failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": m}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
