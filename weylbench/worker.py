"""Benchmark child process: solve the problems of one workload and report.

Run by ``run.py`` as ``python3 worker.py '<spec JSON>'`` with ``src`` on
PYTHONPATH.  The spec names the workload kind, the seed, the first problem
index and either a problem count or a measuring time.  The child prints one
JSON object: per-problem timings and answers, the loop's wall time, its peak
resident memory and, when traced, the per-layer metrics.  Checking the
answers is left to the parent, outside the timed region.
"""

import json
import random
import resource
import sys
import time
import traceback

from weylred import cli, extension, groebner, kregular, reduction, telescoping, weyl

AIRY_TRIPLES = [(a, b, c) for a in range(1, 10) for b in range(1, 10) for c in range(1, 5)]


def airy_triples(seed):
    """The seed's order of the (a, b, c) triples, drawn without replacement."""
    triples = list(AIRY_TRIPLES)
    random.Random(f"airy-family/{seed}").shuffle(triples)
    return triples


def airy_document(a, b, c):
    """Integrand exp(q), q = (x^3 + c y^3)/3 - x(t + a z) - y(t + b z)."""
    return (
        "vars t x y z\n"
        "---\n"
        f"dx - x^2 + t + {a}*z\n"
        f"dy - {c}*y^2 + t + {b}*z\n"
        f"dz + {a}*x + {b}*y\n"
        "dt + x + y\n"
    )


def airy_presentation(text):
    """The CLI document path: parse, flatten d_t, Groebner basis, derivation."""
    doc = cli.parse_document(text)
    ext = extension.build_extension(
        extension.ParametricPresentation(doc.algebra, tuple(doc.generators), doc.order))
    order = weyl.grevlex(ext.algebra.n)
    ctx = reduction.ReductionContext(
        ext.algebra, order, groebner.buchberger(ext.s_generators, order))
    return telescoping.DerivedPresentation(ctx, ext.l_matrix, extension.embedded_unit(ext))


def solve_one(spec, index, triples):
    """Set up and solve problem `index`; time each phase."""
    t0 = time.perf_counter()
    if spec["kind"] == "kregular":
        pres = kregular.regular_presentation(spec["k"])[1]
    else:
        pres = airy_presentation(airy_document(*triples[index % len(triples)]))
    t1 = time.perf_counter()
    times, answers = {}, {}
    for mode in ("direct", "modular") if spec["mode"] == "both" else (spec["mode"],):
        start = time.perf_counter()
        if mode == "direct":
            tele = telescoping.telescope_direct(pres)
        else:
            cfg = telescoping.ModularConfig(seed=spec["seed"], workers=spec["workers"])
            tele = telescoping.telescope_modular(pres, config=cfg).telescoper
        times[mode] = time.perf_counter() - start
        answers[mode] = (cli.telescoper_document(tele) if spec["kind"] == "airy"
                         else [list(c) for c in tele.coefficients])
    return {"index": index, "setup_s": t1 - t0, "telescope_s": sum(times.values()),
            "modes": times, "answers": answers}


def run(spec, tracer=None):
    """Solve problems from spec["start"] on, for spec["problems"] problems or
    until spec["seconds"] have passed (closed loop, one client)."""
    triples = airy_triples(spec["seed"])
    records = []
    index = spec["start"]
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.trace_id = index
        try:
            records.append(solve_one(spec, index, triples))
        except Exception:  # a failed problem is counted, and the loop goes on
            records.append({"index": index, "error": traceback.format_exc(limit=3)})
        index += 1
        if spec["problems"] is not None and len(records) >= spec["problems"]:
            break
        if spec["seconds"] is not None and time.perf_counter() - t0 >= spec["seconds"]:
            break
    return records, time.perf_counter() - t0


def main():
    spec = json.loads(sys.argv[1])
    out = {}
    if spec["trace"]:
        import tracer as tracing

        with tracing.Tracer() as tr:
            records, loop_s = run(spec, tr)
        out["layers"] = tracing.layer_metrics(tr.spans)
        if spec.get("spans"):
            with open(spec["spans"], "w", encoding="utf-8") as fh:
                json.dump([list(s) for s in tr.spans], fh)
    else:
        records, loop_s = run(spec)
    out.update(records=records, loop_s=loop_s,
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
