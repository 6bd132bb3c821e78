#!/usr/bin/env python3
"""The weylred benchmark: end-to-end medians, or a traced per-layer split.

    python3 weylbench/run.py --workload kreg3-direct --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the run solves problems of the workload in a closed loop
(one client) for ``--seconds`` seconds, tracing off, and reports medians of
set-up and telescoping time.  With ``--trace 1`` it solves a fixed set of
problems once untraced and twice traced, reports the per-layer metrics, the
tracing overhead, and fails if the two traced passes disagree on any
deterministic counter.  Every answer passes a correctness gate outside the
timed region.  The last line of standard output is the result as JSON; a
fuller result file with quartiles and provenance goes to ``weylbench/out``.
See README.md for the workloads and metrics.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# "fresh": one interpreter per problem; otherwise one long-lived process.
# "trace_problems": the fixed work of a traced pass.
WORKLOADS = {
    "kreg3-direct": {"kind": "kregular", "k": 3, "mode": "direct", "workers": None,
                     "fresh": True, "trace_problems": 1},
    # workers=1: with two threads the GIL hand-offs between the two vCPUs
    # made modular time swing by 45% whenever the host stole CPU time.
    "airy-family": {"kind": "airy", "mode": "both", "workers": 1,
                    "fresh": False, "trace_problems": 24},
    # Not in BENCHMARK.json; run them by hand.  A kreg4-direct run gets only
    # about 15 problems, and on a noisy 2-core host its medians spread by
    # more than the 0.25 bound.  One kreg5-modular solve takes 80-100 s,
    # longer than the 60 s a run may measure.
    "kreg4-direct": {"kind": "kregular", "k": 4, "mode": "direct", "workers": None,
                     "fresh": True, "trace_problems": 1},
    "kreg5-modular": {"kind": "kregular", "k": 5, "mode": "modular", "workers": 2,
                      "fresh": True, "trace_problems": 1},
}

# end-to-end metric -> (unit, better); the end_to_end list of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "telescope_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "problems_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

SERIES_TERMS = 12
CHILD_TIMEOUT_S = 600


class ChildError(Exception):
    pass


def child(spec):
    """Run worker.py on spec in a fresh interpreter; return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"worker timed out after {exc.timeout} s")
    if proc.returncode != 0:
        raise ChildError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildError(f"worker printed no report: {proc.stdout[-2000:]!r}")
    report["wall_s"] = time.perf_counter() - start
    return report


def child_spec(workload, seed, start, trace, problems=None, seconds=None, spans=None):
    return dict(workload, seed=seed, start=start, trace=trace,
                problems=problems, seconds=seconds, spans=spans)


# ---------------------------------------------------------------------------
# correctness gate


@functools.cache
def _expected():
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


@functools.cache
def _series_ok(k, coefficients):
    from weylred.kregular import model_polynomials, scalar_product_series, verify_ode_on_series
    from weylred.telescoping import Telescoper

    series = scalar_product_series(*model_polynomials(k), SERIES_TERMS)
    return verify_ode_on_series(Telescoper(coefficients), series, allow_partial=True)


def gate(workload, record):
    """None if the problem's answer is correct, else why it is not."""
    if "error" in record:
        return record["error"].strip().splitlines()[-1]
    answers = record["answers"]
    if workload["kind"] == "airy":
        if answers["direct"] != answers["modular"]:
            return "direct and modular telescoper documents differ"
        return None
    k = workload["k"]
    for mode, coefficients in answers.items():
        if coefficients != _expected()[f"k{k}"]:
            return f"{mode} telescoper differs from the recorded canonical one"
        if not _series_ok(k, tuple(tuple(c) for c in coefficients)):
            return f"{mode} telescoper fails the series check to t^{SERIES_TERMS}"
    return None


def check_all(workload, records):
    """Gate every record; return the list of failures."""
    failures = []
    for r in records:
        why = gate(workload, r)
        if why is not None:
            failures.append({"index": r["index"], "why": why})
    return failures


# ---------------------------------------------------------------------------
# statistics and the two kinds of run


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def timed_run(workload, seed, seconds):
    """Closed loop for `seconds`, tracing off.  Returns the result body."""
    reports = []
    t0 = time.perf_counter()
    if workload["fresh"]:
        index = 0
        while True:
            try:
                reports.append(child(child_spec(workload, seed, index, False, problems=1)))
            except ChildError as exc:
                reports.append({"records": [{"index": index, "error": str(exc)}]})
            index += 1
            if time.perf_counter() - t0 >= seconds:
                break
        loop_s = time.perf_counter() - t0
    else:
        try:
            reports.append(child(child_spec(workload, seed, 0, False, seconds=seconds)))
            loop_s = reports[0]["loop_s"]
        except ChildError as exc:
            reports.append({"records": [{"index": 0, "error": str(exc)}]})
            loop_s = time.perf_counter() - t0
    records = [r for rep in reports for r in rep["records"]]
    failures = check_all(workload, records)
    bad = {f["index"] for f in failures}
    good = [r for r in records if r["index"] not in bad]
    setup = [r["setup_s"] for r in good]
    tele = [r["telescope_s"] for r in good]
    solve = [a + b for a, b in zip(setup, tele)]
    metrics = {}
    if good:
        metrics = {
            "setup_s": summary(setup),
            "telescope_s": summary(tele),
            "solve_s": summary(solve),
            "problems_per_s": {"value": len(good) / loop_s, "n": len(good)},
            "peak_rss_mb": summary([rep["rss_mb"] for rep in reports if "rss_mb" in rep]),
        }
    extra = {"loop_s": loop_s}
    if len(solve) >= 100:  # the 90th percentile has ten samples beyond it
        extra["problem_p90_s"] = statistics.quantiles(solve, n=10)[-1]
    if workload["mode"] == "both":
        for mode in ("direct", "modular"):
            extra[f"{mode}_s"] = summary([r["modes"][mode] for r in good])
    return {"records": records, "failures": failures, "metrics": metrics,
            "extra": extra, "passes": [{"traced": False, "problems": len(records)}]}


def traced_run(workload, seed, spans_path):
    """One untraced and two traced passes over the same fixed problems."""
    n = workload["trace_problems"]
    ref = child(child_spec(workload, seed, 0, False, problems=n))
    traced = [child(child_spec(workload, seed, 0, True, problems=n,
                               spans=str(spans_path) if i == 0 else None))
              for i in range(2)]
    import tracer

    mismatched = [m for m in tracer.DETERMINISTIC
                  if traced[0]["layers"][m] != traced[1]["layers"][m]]
    if mismatched:
        print("DETERMINISM CHECK FAILED: traced passes with one seed differ on "
              + ", ".join(f"{m} ({traced[0]['layers'][m]} vs {traced[1]['layers'][m]})"
                          for m in mismatched), file=sys.stderr)
    layers = {m: traced[0]["layers"][m] if m in tracer.DETERMINISTIC
              else statistics.median(t["layers"][m] for t in traced) for m in tracer.PER_LAYER}
    records = ref["records"] + [r for t in traced for r in t["records"]]
    failures = check_all(workload, records)

    def solve_total(rep):
        return sum(r.get("setup_s", 0) + r.get("telescope_s", 0) for r in rep["records"])

    base = solve_total(ref)
    overhead = statistics.median(solve_total(t) for t in traced) / base - 1 if base else None
    return {"records": records, "failures": failures, "layers": layers,
            "deterministic": not mismatched, "mismatched": mismatched,
            "extra": {"trace_overhead": overhead},
            "passes": [{"traced": False, "problems": n}, {"traced": True, "problems": n},
                       {"traced": True, "problems": n}]}


# ---------------------------------------------------------------------------
# provenance and output


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "weylred").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, workload, load):
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workers": workload["workers"],
        "loadavg_start": load,
        "traced": bool(args.trace),
        "run_seconds": args.seconds,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, default=BENCH / "out",
                    help="directory for the result file (default weylbench/out)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not (SRC / "weylred" / "__init__.py").is_file():
        print(f"no weylred sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    load = os.getloadavg()
    out_dir = args.out / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{'traced' if args.trace else 'timed'}-{os.getpid()}"
    prov = provenance(args, workload, load)
    try:
        if args.trace:
            import tracer

            body = traced_run(workload, args.seed, out_dir / f"{stem}-spans.json")
            metrics = {m: {"value": v} for m, v in body["layers"].items()}
            table, file_only = tracer.PER_LAYER, tracer.FILE_ONLY
        else:
            body = timed_run(workload, args.seed, args.seconds)
            metrics = body["metrics"]
            table, file_only = END_TO_END, ()
    except ChildError as exc:
        print(f"traced pass failed: {exc}", file=sys.stderr)
        return 1
    for m, v in metrics.items():
        v["unit"] = table[m][0]

    attempted = len(body["records"])
    failed = len(body["failures"])
    correct = failed == 0 and body.get("deterministic", True) and bool(metrics)
    result = {"workload": args.workload, "provenance": prov, "correct": correct,
              "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
              "metrics": metrics, "extra": body["extra"], "passes": body["passes"],
              "failures": body["failures"][:20]}
    if args.trace:
        result["mismatched"] = body["mismatched"]
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for f in body["failures"][:5]:
        print(f"FAILED problem {f['index']}: {f['why']}", file=sys.stderr)
    for m, v in metrics.items():
        spread = f" [{v['q1']:.4g}, {v['q3']:.4g}] n={v['n']}" if "q1" in v else ""
        print(f"# {m} = {v['value']:.6g} {v['unit']}{spread}")
    for k, v in body["extra"].items():
        if v is not None:
            print(f"# {k} = {v['value'] if isinstance(v, dict) else v:.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": v["value"], "unit": v["unit"]}
                                  for m, v in metrics.items() if m not in file_only}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
