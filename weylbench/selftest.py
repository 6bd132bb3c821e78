#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs (a few seconds).

    python3 weylbench/selftest.py

Runs k = 2 (direct and modular) and two airy-family problems through the
same timed and traced paths as run.py, and checks that:

- the metric names, units and directions match BENCHMARK.json;
- every emitted metric is present, and every answer passes its gate;
- a wrong answer fails the gate;
- two traced passes with one seed give identical deterministic counters;
- the tracer's wrappers are all gone after a traced run;
- no span has a self time below zero or above its inclusive time;
- the compare verdicts come out right on made-up numbers.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import sys
import tempfile
from pathlib import Path

import compare
import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402  (needs weylred on sys.path)
import worker  # noqa: E402

TINY = {
    "k2-direct": dict(run.WORKLOADS["kreg3-direct"], k=2),
    "k2-modular": dict(run.WORKLOADS["kreg5-modular"], k=2),
    "airy-2": dict(run.WORKLOADS["airy-family"], trace_problems=2),
}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_names():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    check(e2e == run.END_TO_END, "end_to_end metrics match run.END_TO_END")
    listed = {m: v for m, v in tracer.PER_LAYER.items() if m not in tracer.FILE_ONLY}
    check(layers == listed, "per_layer metrics match tracer.PER_LAYER minus FILE_ONLY")
    check(all(w["name"] in run.WORKLOADS for w in bench["workloads"]),
          "every BENCHMARK.json workload is defined in run.WORKLOADS")


def check_runs():
    for name, spec in TINY.items():
        body = run.timed_run(spec, seed=3, seconds=0.01)
        check(set(body["metrics"]) == set(run.END_TO_END),
              f"{name}: timed run emits every end-to-end metric")
        check(not body["failures"], f"{name}: timed answers pass the gate")
        with tempfile.TemporaryDirectory() as tmp:
            spans_path = Path(tmp) / "spans.json"
            body = run.traced_run(spec, seed=3, spans_path=spans_path)
            with open(spans_path, encoding="utf-8") as fh:
                spans = [tracer.Span(*s) for s in json.load(fh)]
        check(set(body["layers"]) == set(tracer.PER_LAYER),
              f"{name}: traced run emits every per-layer metric")
        check(not body["failures"], f"{name}: traced answers pass the gate")
        check(body["deterministic"], f"{name}: traced passes agree on every counter")
        check_self_times(spans, f"{name}: span dump")


def check_self_times(spans, what):
    selfs = tracer.self_times(spans)
    bad = [s for s in spans if not -1e-9 <= selfs[s.id] <= s.end - s.start + 1e-9]
    check(bool(spans) and not bad, f"{what}: 0 <= self <= inclusive on {len(spans)} spans")


def check_gate():
    spec = TINY["k2-direct"]
    record = worker.solve_one(dict(spec, seed=0), 0, [])
    check(run.gate(spec, record) is None, "gate accepts the right k=2 telescoper")
    wrong = dict(record, answers={"direct": [[c + 1 for c in p] for p in
                                             record["answers"]["direct"]]})
    check(run.gate(spec, wrong) is not None, "gate rejects a wrong k=2 telescoper")
    airy = {"index": 0, "answers": {"direct": "vars t\n---\ndt\n",
                                    "modular": "vars t\n---\ndt + 1\n"}}
    check(run.gate(TINY["airy-2"], airy) is not None,
          "gate rejects differing direct and modular documents")


def check_unwrap():
    spec = dict(TINY["airy-2"], seed=0, start=0, problems=1, seconds=None)
    with tracer.Tracer() as tr:
        patched = list(tr.patches)
        installed = all(getattr(owner, attr) is not original
                        for owner, attr, original in patched)
        worker.run(spec, tr)
        worker.run(dict(TINY["k2-modular"], seed=0, start=0, problems=1, seconds=None), tr)
    check(installed and bool(patched),
          f"{len(patched)} wrappers are installed while tracing")
    check(all(getattr(owner, attr) is original for owner, attr, original in patched),
          "every wrapped name is restored after the traced run")
    check_self_times(tr.spans, "in-process trace")


def check_verdicts():
    base = [(s, 1.0 + 0.01 * (s % 3)) for s in range(10)]
    faster = [(s, v * 0.7) for s, v in base]
    slower = [(s, v * 1.3) for s, v in base]
    same = [(s, v * (1.001 if s % 2 else 0.999)) for s, v in base]
    noisy = [(s, v * (0.6 if s % 2 else 1.5)) for s, v in base]
    cases = [(faster, "lower", "improved"), (slower, "lower", "worse"),
             (same, "lower", "within bound"), (noisy, "lower", "unresolved"),
             (faster, "higher", "worse")]
    for change, better, want in cases:
        got = compare.verdict(base, change, 0.1, better)["verdict"]
        check(got == want, f"compare verdict {want!r} (got {got!r})")


def main():
    check_names()
    check_gate()
    check_unwrap()
    check_verdicts()
    check_runs()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
