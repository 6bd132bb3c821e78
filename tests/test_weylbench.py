"""The benchmark harness still runs against the current sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from _helpers import NoTape
from weylred import groebner, telescoping

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    """weylbench/selftest.py runs the timed and traced paths on tiny inputs;
    the tracer rebinds names in weylred modules, so a renamed or bypassed
    function fails here."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "weylbench" / "selftest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_splits_direct_k3(k3, monkeypatch):
    """A traced k = 3 set-up check and telescope_direct still read their
    stages: the stability check makes one telescoping.lrem call per basis
    element (three), confine is called once through the module global,
    |B| = 2 comes from its result, and the witnessed reductions go through
    telescoping.reduce_eta, so the per-layer split cannot silently read 0
    after a refactor."""
    monkeypatch.syspath_prepend(str(ROOT / "weylbench"))
    import tracer

    pres = k3.pres
    with tracer.Tracer() as tr:
        pres = telescoping.DerivedPresentation(pres.ctx, pres.L, pres.f)
        telescoping.telescope_direct(pres)
    metrics = tracer.layer_metrics(tr.spans)
    assert len(pres.ctx.basis) == 3
    assert metrics["groebner.lrem.calls"] == 3
    assert metrics["telescoping.confine.calls"] == 1
    assert metrics["telescoping.B"] == 2
    assert metrics["reduction.reduce_eta_cert.calls"] > 0
    assert metrics["telescoping.order"] == 2


def test_tracer_splits_modular_airy_family(monkeypatch):
    """A traced airy-family modular solve reads nonzero counts for the
    vote's confine, the eta-bases it builds and the point evaluations, so
    moving their call sites cannot silently unbind the benchmark's
    wrappers."""
    monkeypatch.syspath_prepend(str(ROOT / "weylbench"))
    import tracer
    import worker

    pres = worker.airy_presentation(worker.airy_document(*worker.airy_triples(1)[0]))
    with tracer.Tracer() as tr:
        run = telescoping.telescope_modular(
            pres, config=telescoping.ModularConfig(seed=0))
    metrics = tracer.layer_metrics(tr.spans)
    assert run.replays["tapes_recorded"] == 1
    assert metrics["telescoping.confine.calls"] > 0
    assert metrics["reduction.compute_eta_basis.calls"] > 0
    assert metrics["weyl.evaluate_and_reduce.calls"] > 0


@pytest.mark.parametrize("replays", [True, False], ids=["replayed", "generic"])
def test_tracer_counts_full_evaluations_off_the_tape(monkeypatch, replays):
    """A traced airy-family modular solve with no discarded point evaluates
    every input operator once per recording and once per vote or point that
    did not replay the tape, and nowhere else:
    weyl.evaluate_and_reduce.calls = (tapes_recorded + votes_generic +
    points_generic) x len(_inputs(pres)).  A tape that binds at no prime
    sends every vote and point down the generic path."""
    monkeypatch.syspath_prepend(str(ROOT / "weylbench"))
    import tracer
    import worker

    if not replays:
        monkeypatch.setattr(telescoping._Tape, "bind", NoTape.bind)
    pres = worker.airy_presentation(worker.airy_document(*worker.airy_triples(1)[0]))
    with tracer.Tracer() as tr:
        run = telescoping.telescope_modular(
            pres, config=telescoping.ModularConfig(seed=0))
    metrics = tracer.layer_metrics(tr.spans)
    assert not any("discard" in line for line in run.transcript)
    counts = run.replays
    full = counts["tapes_recorded"] + counts["votes_generic"] + counts["points_generic"]
    assert (full == 1) == replays
    assert metrics["weyl.evaluate_and_reduce.calls"] == \
        full * len(telescoping._inputs(pres))


def test_airy_setup_divides_nothing_for_the_flat_basis(monkeypatch):
    """worker.airy_presentation hands build_extension's ell = 0 basis to its
    flat groebner.buchberger call, which makes no groebner.lrem call, and
    the context basis is what a full recomputation gives."""
    monkeypatch.syspath_prepend(str(ROOT / "weylbench"))
    import worker

    real_lrem, real_buchberger = groebner.lrem, groebner.buchberger
    lrem_calls, flat_calls = [], []

    def lrem(*args, **kwargs):
        lrem_calls.append(args[0])
        return real_lrem(*args, **kwargs)

    def buchberger(gens, order):
        before = len(lrem_calls)
        basis = real_buchberger(gens, order)
        flat_calls.append(len(lrem_calls) - before)
        return basis

    monkeypatch.setattr(groebner, "lrem", lrem)
    monkeypatch.setattr(groebner, "buchberger", buchberger)
    pres = worker.airy_presentation(worker.airy_document(*worker.airy_triples(1)[0]))
    assert flat_calls == [0]
    assert lrem_calls  # build_extension's own basis still runs the algorithm
    basis = pres.ctx.basis
    full = real_buchberger(tuple(basis), pres.ctx.order)
    assert list(basis) == list(full)
    assert [list(g.terms) for g in basis] == [list(g.terms) for g in full]
