"""Span recorder for the traced benchmark run.

The traced run wraps the public functions of each layer of ``weylred`` by
rebinding the name in the module that looks it up at call time (for
example ``weylred.telescoping.reduce_eta``), and the arithmetic methods of
``RationalFunctions`` on the class.  Every wrapped call records a span:
name, start, end, parent span and the id of the problem being solved.
Spans stay in memory; ``layer_metrics`` turns them into per-layer counts,
inclusive times and self times once the run is over.

Worker threads of the modular driver start with an empty span stack; their
spans take the innermost open span of the thread that installed the tracer
as parent, which is the ``telescope_modular`` call that owns the pool.
"""

import functools
import itertools
import re
import threading
import time
import weakref
from collections import defaultdict
from typing import NamedTuple

from weylred import arith, cli, extension, groebner, kregular, telescoping
from weylred.arith import RationalFunctions


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: int
    info: object  # per-name outcome: hit flag, shape tuple, ...


_MISSING = object()
_QT = "arith.qt"
_DRAW = "arith.adaptive_reconstruct.draw"


class Tracer:
    """Installs the layer wrappers and collects their spans."""

    def __init__(self):
        self.spans = []
        self.trace_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()
        self.patches = []  # (owner, attribute, original) while installed
        self._returned = {}  # id -> weakref of every eta-basis handed out

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, info=None):
        stack = self._stack()
        top = stack or self._main
        parent = top[-1][0] if top else None
        sid = next(self._ids)
        stack.append((sid, name))
        start = time.perf_counter()
        result = _MISSING
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            detail = info(result) if info and result is not _MISSING else None
            self.spans.append(Span(sid, name, start, end, parent, self.trace_id, detail))

    # -- installing and removing the wrappers ------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def _plain(self, owner, attr, name, info=None):
        def make(fn):
            return lambda *a, **k: self.call(name, fn, a, k, info)
        self._patch(owner, attr, make)

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, info in _PLAIN:
            self._plain(owner, attr, name, info)
        self._plain(telescoping, "compute_eta_basis",
                    "reduction.compute_eta_basis", self._eta_info)

        def make_reduce(fn):
            def wrapper(*a, **k):
                cert = k.get("certificate", a[3] if len(a) > 3 else False)
                name = "reduction.reduce_eta_cert" if cert else "reduction.reduce_eta"
                return self.call(name, fn, a, k)
            return wrapper
        self._patch(telescoping, "reduce_eta", make_reduce)

        def make_adaptive(fn):
            def wrapper(F, stream, *a, **k):
                return self.call("arith.adaptive_reconstruct", fn,
                                 (F, self._draws(stream)) + a, k)
            return wrapper
        self._patch(telescoping, "adaptive_reconstruct", make_adaptive)

        def make_qt(fn):
            def wrapper(*a, **k):
                stack = self._stack()
                if stack and stack[-1][1] == _QT:
                    return fn(*a, **k)  # count top-level Q(t) operations only
                return self.call(_QT, fn, a, k)
            return wrapper
        for attr in QT_METHODS:
            self._patch(RationalFunctions, attr, make_qt)

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _draws(self, stream):
        """Wrap a point stream so each item drawn is its own child span."""
        it = iter(stream)
        while True:
            item = self.call(_DRAW, next, (it, _MISSING), {})
            if item is _MISSING:
                return
            yield item

    def _eta_info(self, basis):
        ref = self._returned.get(id(basis))
        hit = ref is not None and ref() is basis
        self._returned[id(basis)] = weakref.ref(basis)
        return (hit, len(basis.rows))


QT_METHODS = ("add", "sub", "mul", "div", "derivative")


def _found(result):
    return result is not None


def _confine_info(conf):
    return (len(conf.B), conf.eta.degree())


def _telescoper_info(tele):
    return (tele.order, max(tele.degrees))


_POINTS_RE = re.compile(r"\bpoints=(\d+)")


def _modular_info(run):
    points = [int(m.group(1)) for line in run.transcript
              for m in [_POINTS_RE.search(line)] if m]
    return _telescoper_info(run.telescoper) + (
        len(run.primes_used), len(run.primes_discarded), tuple(points))


# (module, attribute looked up at call time, span name, outcome recorder)
_PLAIN = (
    (arith, "cauchy_interpolate", "arith.cauchy_interpolate", _found),
    (arith, "interpolate", "arith.interpolate", None),
    (arith, "pgcd", "arith.pgcd", None),
    (telescoping, "pgcd", "arith.pgcd", None),
    (telescoping, "crt_combine", "arith.crt_combine", None),
    (telescoping, "rational_reconstruct", "arith.rational_reconstruct", _found),
    (telescoping, "evaluate_and_reduce", "weyl.evaluate_and_reduce", None),
    (groebner, "buchberger", "groebner.buchberger", None),
    (kregular, "buchberger", "groebner.buchberger", None),
    (extension, "buchberger", "groebner.buchberger", None),
    (telescoping, "lrem", "groebner.lrem", None),
    (telescoping, "confine", "telescoping.confine", _confine_info),
    (telescoping, "telescope_direct", "telescoping.telescope_direct", _telescoper_info),
    (telescoping, "telescope_modular", "telescoping.telescope_modular", _modular_info),
    (extension, "build_extension", "extension.build_extension", None),
    (cli, "parse_document", "cli.parse_document", None),
    (kregular, "build_ideal", "kregular.build_ideal", None),
    (kregular, "derivation_L", "kregular.derivation_L", None),
)


# ---------------------------------------------------------------------------
# from spans to per-layer metrics


def self_times(spans):
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _outermost(spans):
    """Spans with no ancestor of the same name (so recursion counts once)."""
    by_id = {s.id: s for s in spans}
    keep = []
    for s in spans:
        p = by_id.get(s.parent)
        while p is not None and p.name != s.name:
            p = by_id.get(p.parent)
        if p is None:
            keep.append(s)
    return keep


def _per_problem(spans, names, field):
    """Sum over problems of the largest info[field] among their `names` spans."""
    groups = defaultdict(list)
    for s in spans:
        if s.name in names and s.info is not None:
            groups[s.trace].append(s.info[field])
    return sum(max(values) for values in groups.values())


# metric name -> (unit, better); the per_layer list of BENCHMARK.json
PER_LAYER = {
    "arith.cauchy_interpolate.calls": ("count", "lower"),
    "arith.cauchy_interpolate.s": ("s", "lower"),
    "arith.cauchy_interpolate.hit_ratio": ("ratio", "higher"),
    "arith.interpolate.s": ("s", "lower"),
    "arith.adaptive_reconstruct.calls": ("count", "lower"),
    "arith.adaptive_reconstruct.self_s": ("s", "lower"),
    "arith.adaptive_reconstruct.points": ("count", "lower"),
    "arith.crt_combine.calls": ("count", "lower"),
    "arith.rational_reconstruct.calls": ("count", "lower"),
    "arith.rational_reconstruct.hit_ratio": ("ratio", "higher"),
    "arith.qt.calls": ("count", "lower"),
    "arith.qt.s": ("s", "lower"),
    "arith.pgcd.calls": ("count", "lower"),
    "weyl.evaluate_and_reduce.calls": ("count", "lower"),
    "weyl.evaluate_and_reduce.s": ("s", "lower"),
    "groebner.buchberger.s": ("s", "lower"),
    "groebner.lrem.calls": ("count", "lower"),
    "groebner.lrem.s": ("s", "lower"),
    "reduction.reduce_eta.calls": ("count", "lower"),
    "reduction.reduce_eta.s": ("s", "lower"),
    "reduction.reduce_eta_cert.calls": ("count", "lower"),
    "reduction.reduce_eta_cert.s": ("s", "lower"),
    "reduction.compute_eta_basis.calls": ("count", "lower"),
    "reduction.compute_eta_basis.s": ("s", "lower"),
    "reduction.compute_eta_basis.hit_ratio": ("ratio", "higher"),
    "reduction.eta_rows": ("count", "lower"),
    "telescoping.confine.calls": ("count", "lower"),
    "telescoping.confine.s": ("s", "lower"),
    "telescoping.B": ("count", "lower"),
    "telescoping.eta_degree": ("count", "lower"),
    "telescoping.telescope_direct.self_s": ("s", "lower"),
    "telescoping.telescope_modular.self_s": ("s", "lower"),
    "telescoping.primes_kept": ("count", "lower"),
    "telescoping.primes_discarded": ("count", "lower"),
    "telescoping.points_per_prime": ("count", "lower"),
    "telescoping.order": ("count", "lower"),
    "telescoping.degree": ("count", "lower"),
    "extension.build_extension.s": ("s", "lower"),
    "cli.parse_document.s": ("s", "lower"),
    "kregular.build_ideal.s": ("s", "lower"),
    "kregular.derivation_L.s": ("s", "lower"),
}

# per-layer metrics that must repeat exactly between runs with one seed
DETERMINISTIC = tuple(m for m, (unit, _) in PER_LAYER.items() if unit != "s")

# Times of layers that do no work on one of the BENCHMARK.json workloads
# (modular reconstruction and the document path on kreg3-direct, the
# k-regular model on airy-family).  There they read exactly 0 on every run,
# so they stay out of BENCHMARK.json and the result line and are kept in the
# result file only.
FILE_ONLY = (
    "arith.cauchy_interpolate.s",
    "arith.interpolate.s",
    "arith.adaptive_reconstruct.self_s",
    "weyl.evaluate_and_reduce.s",
    "telescoping.telescope_modular.self_s",
    "extension.build_extension.s",
    "cli.parse_document.s",
    "kregular.build_ideal.s",
    "kregular.derivation_L.s",
)


def layer_metrics(spans):
    """Per-layer metric name -> value, over all spans of a traced pass."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)
    inclusive = defaultdict(float)
    for s in _outermost(spans):
        inclusive[s.name] += s.end - s.start

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(selfs[s.id] for s in by_name[name])

    def ratio(name, hit):
        n = calls(name)
        return sum(1 for s in by_name[name] if hit(s.info)) / n if n else 0.0

    modular = [s.info for s in by_name["telescoping.telescope_modular"] if s.info]
    points = [p for info in modular for p in info[4]]
    drivers = ("telescoping.telescope_direct", "telescoping.telescope_modular")

    out = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls(layer)
        elif stat == "s":
            out[metric] = inclusive[layer]
        elif stat == "self_s":
            out[metric] = self_s(layer)
        elif stat == "points":
            out[metric] = calls(_DRAW)
    out["arith.cauchy_interpolate.hit_ratio"] = ratio("arith.cauchy_interpolate", bool)
    out["arith.rational_reconstruct.hit_ratio"] = ratio("arith.rational_reconstruct", bool)
    out["reduction.compute_eta_basis.hit_ratio"] = ratio(
        "reduction.compute_eta_basis", lambda info: info[0])
    out["reduction.eta_rows"] = sum(
        s.info[1] for s in by_name["reduction.compute_eta_basis"] if not s.info[0])
    out["telescoping.B"] = _per_problem(spans, ("telescoping.confine",), 0)
    out["telescoping.eta_degree"] = _per_problem(spans, ("telescoping.confine",), 1)
    out["telescoping.primes_kept"] = sum(info[2] for info in modular)
    out["telescoping.primes_discarded"] = sum(info[3] for info in modular)
    out["telescoping.points_per_prime"] = sum(points) / len(points) if points else 0.0
    out["telescoping.order"] = _per_problem(spans, drivers, 0)
    out["telescoping.degree"] = _per_problem(spans, drivers, 1)
    return out
