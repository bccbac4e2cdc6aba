"""One workload in one process: set up, say ``ready``, run timed passes.

Started by run.py, which times the set-up from process launch to the
``ready`` line. The last line written is a JSON object with the pass
times, the check results and, in the traced run, the per-layer metrics.

``fchybrid_seed`` is a frozen copy of the package as commit 1e33803 had
it. In the untraced run every pass of the package under test is paired
with the same pass on that copy, in alternating order. The machine's speed
drifts by tens of percent from minute to minute; two adjacent passes see
nearly the same speed, so their ratio holds still where either time alone
does not. The copy's passes also give the step counts the package under
test must reproduce and the report digest it is compared with.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
                            --workdir DIR [--setup-only] [--package P]

With ``--setup-only`` the worker sets the workload up on package P
(``fchybrid`` or ``fchybrid_seed``), says ``ready`` and exits.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, package

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP, CHECKS = -1, -2  # pass ids of spans outside the timed passes


def run_passes(workload, seconds: float, tracer=None, first_id: int = 0,
               reference=None) -> list[dict]:
    """Closed loop: each pass starts when the previous one and its checks
    have returned, until ``seconds`` have gone by (at least one pass).
    With a reference workload, each pass is paired with one of it."""
    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        ref_first = len(records) % 2 == 1
        rec = {"errors": []}
        start = time.perf_counter()
        try:
            if reference is not None and ref_first:
                rec["ref_s"], rec["ref"] = timed(reference.run)
            if tracer is not None:
                tracer.pass_id = first_id + len(records)
            rec["wall_s"], out = timed(workload.run)
            if reference is not None and not ref_first:
                rec["ref_s"], rec["ref"] = timed(reference.run)
            if tracer is not None:
                tracer.pass_id = CHECKS  # the checks' own calls are not the pass's
            rec["errors"] += workload.check(out)
            rec["digest"], rec["counts"] = out.digest(), out.counts
        except Exception:
            rec.setdefault("wall_s", time.perf_counter() - start)
            rec["errors"].append(traceback.format_exc(limit=3))
        if "ref" in rec:
            ref = rec.pop("ref")
            rec["ref_digest"], rec["ref_counts"] = ref.digest(), ref.counts
        records.append(rec)
        out = None
    return records


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def check_repeats(records: list[dict], workload) -> dict:
    """Every pass must emit the same reports and counts as the first, and
    the counts the workload names in ``seed_counts`` must equal those of
    the frozen copy's passes; returns all the counts seen."""
    done = [r for r in records if "digest" in r]
    seed = next((r["ref_counts"] for r in records if "ref_counts" in r), {})
    counts = {}
    for rec in done:
        first = {k: counts.setdefault(k, v) for k, v in rec["counts"].items()}
        if rec["digest"] != done[0]["digest"]:
            rec["errors"].append("report differs from the first pass's")
        if rec["counts"] != first:
            rec["errors"].append(f"counts {rec['counts']} differ from the first "
                                 f"pass's {first}")
        rec["errors"] += [f"{k} = {rec['counts'][k]!r}, the frozen copy had {seed[k]!r} "
                          f"for this seed" for k in workload.seed_counts
                          if k in seed and rec["counts"][k] != seed[k]]
    return counts


def traced_layers(workload, seconds: float, untraced: list[dict], tracer):
    """The traced half of a run, then the capture, replay and tracemalloc
    passes. Returns the per-layer metrics and the traced pass records."""
    import tracing

    tracer.install()
    try:
        records = run_passes(workload, seconds, tracer, first_id=len(untraced))
    finally:
        tracer.uninstall()
    layers = tracing.per_pass(tracer, range(len(untraced), len(untraced) + len(records)))

    def setup_s(name):
        return sum(s[tracing.END] - s[tracing.START] for s in tracer.spans
                   if s[tracing.PASS] == SETUP and s[tracing.NAME] == name)

    layers["profile.synth_s"] = setup_s("profile.synthesize_walk_profile")
    layers["profile.emit_s"] = setup_s("profile.emit_profile")
    flow_rows = statistics.median(r.get("counts", {}).get("report.flow_rows", 0) for r in records)
    layers["report.flow_rows"] = flow_rows
    layers["report.json_rows_per_s"] = (flow_rows / layers["report.emit_json_s"]
                                        if flow_rows and layers["report.emit_json_s"] else 0.0)
    layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in records)
                                  - statistics.median(r["wall_s"] for r in untraced))

    layers.update(tracing.replay(tracing.capture(workload.run)))
    replayed = layers.pop("controller.replayed_calls")
    if replayed != layers["simulator.steps"]:
        records[-1]["errors"].append(f"replayed {replayed} dispatch calls, the pass "
                                     f"stepped {layers['simulator.steps']}")
    layers["simulator.alloc_peak_mb"] = tracing.simulate_alloc_peak(workload.run)
    return layers, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--package", choices=("fchybrid", "fchybrid_seed"), default="fchybrid")
    args = ap.parse_args(argv)
    make = WORKLOADS[args.workload]

    if args.setup_only:
        make(package(args.package), args.seed, args.workdir)
        print("ready", flush=True)
        return 0

    import fchybrid
    import numpy

    if not Path(fchybrid.__file__).resolve().is_relative_to(SRC):
        print(f"fchybrid imported from {fchybrid.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.pass_id = SETUP
        tracer.install()
    try:
        workload = make(package("fchybrid"), args.seed, args.workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print("ready", flush=True)

    peak_rss_mb = None
    if tracer is None:
        # peak memory of the package under test alone, before the frozen
        # copy's inputs and passes share the process
        deadline = time.perf_counter() + args.seconds
        records = run_passes(workload, 0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reference = make(package("fchybrid_seed"), args.seed, args.workdir)
        records += run_passes(workload, deadline - time.perf_counter(), reference=reference)
    else:
        records = run_passes(workload, args.seconds / 2)
    result = {"sizes": workload.sizes, "wall_s": [r["wall_s"] for r in records],
              "wall_vs_seed": [r["wall_s"] / r["ref_s"] for r in records if "ref_s" in r]}
    if tracer is not None:
        result["per_layer"], traced = traced_layers(workload, args.seconds / 2, records, tracer)
        spans = args.workdir / f"trace-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        result["spans_file"] = spans.name
        records += traced
        # one pass of the frozen copy, after the timed ones, for its counts
        ref = make(package("fchybrid_seed"), args.seed, args.workdir).run()
        records[-1].update(ref_digest=ref.digest(), ref_counts=ref.counts)
    result.update({
        "counts": check_repeats(records, workload),
        "digest": next((r["digest"] for r in records if "digest" in r), None),
        "seed_digest": next((r["ref_digest"] for r in records if "ref_digest" in r), None),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["errors"]),
        "errors": [e for r in records for e in r["errors"]][:5],
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
