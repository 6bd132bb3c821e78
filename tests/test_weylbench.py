"""The benchmark harness still runs against the current sources."""

import os
import subprocess
import sys
from pathlib import Path

from weylred import telescoping

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
