"""Document parsing, printing, subcommands, and exit codes."""

import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import weylred
from weylred.arith import QQ_T
from weylred.cli import (
    OperatorDocument,
    ParseError,
    main,
    parse_document,
    parse_operator,
    print_operator,
    run_telescope,
)
from weylred.kregular import build_ideal, derivation_L, from_model
from weylred.telescoping import ModularConfig
from weylred.weyl import Algebra, grevlex

T = QQ_T.from_poly((Fraction(0), Fraction(1)))

AIRY_DOC = """# cubic exponential annihilator over QQ(t)
vars x y z
order block
---
dx - x^2 + t + 2*z
dy - y^2 + t + z
dz + 2*x + y
"""

AIRY_PARAM_DOC = """vars t x y z
---
dx - x^2 + t + 2*z
dy - y^2 + t + z
dz + 2*x + y
dt + x + y
"""


# ---------------------------------------------------------------------------
# operator grammar


@pytest.fixture(scope="module")
def doc1():
    return parse_document("vars x1\n---\n")


def test_parse_normalizes_products(doc1):
    op = parse_operator("dx1*x1", doc1)
    assert op.terms == {
        doc1.algebra.monomial((1,), (1,)): QQ_T.one,
        doc1.algebra.unit_monomial(): QQ_T.one,
    }
    assert print_operator(op, doc1) == "x1*dx1 + 1"
    assert parse_operator("x1*dx1", doc1).terms == {
        doc1.algebra.monomial((1,), (1,)): QQ_T.one
    }
    assert print_operator(parse_operator("x1 + 1 - t^2", doc1), doc1) == "x1 - t^2 + 1"


def test_parse_rational_function_coefficients(doc1):
    op = parse_operator("(t-1)*x1 - t*dx1", doc1)
    assert op.terms == {
        doc1.algebra.monomial((1,), (0,)): QQ_T.from_poly((Fraction(-1), Fraction(1))),
        doc1.algebra.monomial((0,), (1,)): QQ_T.neg(T),
    }
    sc = doc1.algebra.scalar(QQ_T.from_poly((Fraction(0), Fraction(4, 7))))
    assert print_operator(sc, doc1) == "4/7*t"
    assert parse_operator("4/7*t", doc1) == sc


def test_parse_zero(doc1):
    assert parse_operator("0", doc1).is_zero()
    assert print_operator(doc1.algebra.zero(), doc1) == "0"


@pytest.mark.parametrize(
    "bad", ["x2", "x1 +", "dx1^", "(x1", "x1/x1", "e2", "x1 @ 2", "1/0"]
)
def test_parse_errors(doc1, bad):
    with pytest.raises(ParseError):
        parse_operator(bad, doc1)


def test_round_trip_200():
    rng = random.Random(42)
    doc = parse_document("vars x y z\norder block\n---\n")
    A = doc.algebra
    for trial in range(200):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            alpha = tuple(rng.randint(0, 3) for _ in range(3))
            beta = tuple(rng.randint(0, 3) for _ in range(3))
            num = tuple(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 3)))
            den = tuple(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 2)))
            num = num if any(num) else (Fraction(1),)
            den = den if any(den) else (Fraction(1),)
            terms[A.monomial(alpha, beta)] = QQ_T.div(
                QQ_T.from_poly(num), QQ_T.from_poly(den)
            )
        op = A.operator(terms)
        assert parse_operator(print_operator(op, doc), doc) == op, trial


def test_round_trip_rank2():
    rng = random.Random(7)
    doc = parse_document("vars x1\nrank 2\n---\n")
    A = doc.algebra
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = A.monomial((rng.randint(0, 2),), (rng.randint(0, 2),), rng.randint(1, 2))
            terms[m] = QQ_T.from_int(rng.randint(1, 5))
        op = A.operator(terms)
        assert parse_operator(print_operator(op, doc), doc) == op
    with pytest.raises(ParseError):
        parse_operator("x1 + 1", doc)  # missing component marker
    with pytest.raises(ParseError):
        parse_operator("e1*e2", doc)


def test_parametric_document():
    doc = parse_document("vars t x\n---\ndt^2 - t\ndx\n")
    assert doc.parametric and doc.algebra.dt and doc.algebra.n == 2
    assert doc.generators[0].terms == {
        doc.algebra.monomial((0, 0), (2, 0)): QQ_T.one,
        doc.algebra.unit_monomial(): QQ_T.neg(T),
    }


# ---------------------------------------------------------------------------
# subcommands (via main, exercising files and exit codes)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def airy_path(workdir):
    path = workdir / "airy.op"
    path.write_text(AIRY_DOC)
    return path


@pytest.fixture(scope="module")
def airy_module_path(workdir, airy_path):
    """Module document: the reduced basis plus the derivation and integrand."""
    out = workdir / "airy.gb"
    assert main(["gb", str(airy_path), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    body = lines[lines.index("---") + 1 :]
    text = "\n".join(
        ["vars x y z", "order block", "---"] + body + ["L (dz - y)/2", "f 1"]
    )
    path = workdir / "airy_mod.op"
    path.write_text(text + "\n")
    return path


def test_gb_subcommand(workdir, airy_path):
    out = workdir / "airy2.gb"
    assert main(["gb", str(airy_path), "-o", str(out)]) == 0
    gb_doc = parse_document(out.read_text())
    assert len(gb_doc.generators) == 5


@pytest.mark.parametrize(
    "order", ["grevlex", "block", "lex", "lex:1,0,3,2", "dtelim", "weightlex:1,2,1,1"]
)
def test_gb_round_trip_every_order(tmp_path, order):
    src = tmp_path / "two.op"
    src.write_text(f"vars x y\norder {order}\n---\ndx - x^2 + y\ndy - y^2 + x\n")
    out, again = tmp_path / "two.gb", tmp_path / "two2.gb"
    assert main(["gb", str(src), "-o", str(out)]) == 0
    text = out.read_text()
    assert f"\norder {order}\n" in text
    assert parse_document(text).order == parse_document(src.read_text()).order
    assert main(["gb", str(out), "-o", str(again)]) == 0
    assert again.read_text() == text


@pytest.mark.parametrize("order", ["lex:0,1,2", "lex:0,0,1,2", "lex:0,1,2,x",
                                   "weightlex:1,1", "weightlex:-1,1,1,1", "ordinal",
                                   "grevlex:1", "dtelim:0"])
def test_bad_order_exit_code(tmp_path, order):
    src = tmp_path / "bad_order.op"
    src.write_text(f"vars x y\norder {order}\n---\ndx - x^2\n")
    assert main(["gb", str(src)]) == 2


def test_reduce_subcommand(workdir, airy_path):
    out = workdir / "red.txt"
    rc = main(["reduce", str(airy_path), "--target", "y^2", "--eta", "x^2",
               "-o", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "reduced: z + t" in text
    assert "reduced_eta: 4/7*t" in text


def test_reduce_to_stdout(airy_path, capsys):
    assert main(["reduce", str(airy_path), "--target", "y^2"]) == 0
    assert "reduced: z + t" in capsys.readouterr().out


def test_eta_basis_subcommand(workdir, airy_path):
    out = workdir / "eta.txt"
    assert main(["eta-basis", str(airy_path), "--eta", "x^2", "-o", str(out)]) == 0
    text = out.read_text()
    assert "rows: 1" in text and "z + 3/7*t" in text


def test_confine_subcommand(workdir, airy_module_path):
    out = workdir / "conf.txt"
    assert main(["confine", str(airy_module_path), "-o", str(out)]) == 0
    text = out.read_text()
    assert "eta: x^2" in text
    assert "basis: 1" in text and "basis: y" in text


def test_telescope_parametric(workdir):
    src = workdir / "airy_param.op"
    src.write_text(AIRY_PARAM_DOC)
    out = workdir / "airy.tele"
    metrics = workdir / "airy.json"
    rc = main(["telescope", str(src), "-o", str(out), "--metrics", str(metrics)])
    assert rc == 0
    assert out.read_text().splitlines()[-1] == "7*dt^2 - t"
    met = json.loads(metrics.read_text())
    assert met["order"] == 2 and met["degree"] == 1
    assert met["coefficients"] == [["0", "-1"], [], ["7"]]
    assert "gb_seconds" in met and "telescope_seconds" in met


def test_telescope_module_document(workdir, airy_module_path):
    out = workdir / "mod.tele"
    assert main(["telescope", str(airy_module_path), "-o", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "7*dt^2 - t"
    # a larger starting margin gives the same certified telescoper
    out5 = workdir / "mod5.tele"
    assert main(["telescope", str(airy_module_path), "--rho", "5", "-o", str(out5)]) == 0
    assert out5.read_text() == out.read_text()


def test_modular_worker_independence(workdir, airy_module_path):
    outs = []
    for workers in (1, 8):
        tele = workdir / f"w{workers}.tele"
        transcript = workdir / f"w{workers}.transcript"
        rc = main(["telescope", str(airy_module_path), "--mode", "modular",
                   "--seed", "5", "--workers", str(workers),
                   "-o", str(tele), "--transcript", str(transcript)])
        assert rc == 0
        outs.append((tele.read_text(), transcript.read_text()))
    assert outs[0] == outs[1]
    assert outs[0][0].splitlines()[-1] == "7*dt^2 - t"


def test_seed_env_override(workdir, airy_module_path, monkeypatch):
    results = []
    for env_seed in ("11", "11", "12"):
        monkeypatch.setenv("WEYLRED_SEED", env_seed)
        tele = workdir / f"env{env_seed}.tele"
        transcript = workdir / f"env{env_seed}.transcript"
        rc = main(["telescope", str(airy_module_path), "--mode", "modular",
                   "-o", str(tele), "--transcript", str(transcript)])
        assert rc == 0
        results.append((tele.read_text(), transcript.read_text()))
    assert results[0] == results[1]  # same seed, same bytes
    assert results[0][1] != results[2][1]  # different seed, different primes
    assert results[2][0].splitlines()[-1] == "7*dt^2 - t"


def test_seed_env_not_an_integer(workdir, airy_path, airy_module_path, monkeypatch,
                                 capsys):
    """A bad WEYLRED_SEED is a usage error for the subcommands with --seed,
    unless --seed is given, and the others ignore it."""
    monkeypatch.setenv("WEYLRED_SEED", "abc")
    for argv in (["telescope", str(airy_module_path), "--mode", "modular"],
                 ["kregular", "--k", "2"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: WEYLRED_SEED must be an integer, got 'abc'\n")
    assert main(["telescope", str(airy_module_path), "--mode", "modular",
                 "--seed", "5", "-o", str(workdir / "seeded.tele")]) == 0
    assert main(["gb", str(airy_path), "-o", str(workdir / "env.gb")]) == 0
    monkeypatch.delenv("WEYLRED_SEED")
    assert main(["gb", str(airy_path), "-o", str(workdir / "plain.gb")]) == 0
    assert (workdir / "env.gb").read_text() == (workdir / "plain.gb").read_text()


# ---------------------------------------------------------------------------
# kregular subcommand


def test_kregular_k2(workdir):
    out = workdir / "k2.out"
    metrics = workdir / "k2.json"
    rc = main(["kregular", "--k", "2", "--series-check", "10", "--count-check", "6",
               "-o", str(out), "--metrics", str(metrics)])
    assert rc == 0
    text = out.read_text()
    assert "(2*t - 2)*dt + t^2" in text
    assert "series-check" in text and "ok" in text
    assert "count-check n=6: series 70 vs count 70: ok" in text
    met = json.loads(metrics.read_text())
    assert met["order"] == 1 and met["degree"] == 2


def test_kregular_k3_modular(workdir):
    out = workdir / "k3.out"
    assert main(["kregular", "--k", "3", "--modular", "-o", str(out)]) == 0
    assert "dt^2" in out.read_text()


def test_kregular_user_fg(workdir):
    fg = workdir / "fg2.txt"
    fg.write_text("f p1^2/2 - p2/2 - p2^2/4\ng p2/2 + p1^2/2\n")
    out = workdir / "k2fg.out"
    assert main(["kregular", "--k", "2", "--fg", str(fg), "-o", str(out)]) == 0
    assert "(2*t - 2)*dt + t^2" in out.read_text()


# ---------------------------------------------------------------------------
# verify-series subcommand


def test_verify_series(workdir):
    ode = workdir / "airy.ode"
    ode.write_text("vars t\n---\n7*dt^2 - t\n")
    a = [Fraction(1), Fraction(0), Fraction(0)]
    for m in range(10):
        a.append(a[m] / (7 * (m + 3) * (m + 2)))
    series = workdir / "airy.series"
    series.write_text("\n".join(str(v) for v in a))
    assert main(["verify-series", str(ode), str(series)]) == 0
    bad = workdir / "bad.series"
    bad.write_text("\n".join(str(v) for v in a[:-1]) + "\n99999")
    assert main(["verify-series", str(ode), str(bad)]) == 1


# ---------------------------------------------------------------------------
# exit codes and the library entry point


@pytest.fixture(scope="module")
def k3_module_path(workdir):
    inp = from_model(3)
    doc = OperatorDocument(Algebra(3, 1, QQ_T), grevlex(3), ("p1", "p2", "p3"))
    lines = ["vars p1 p2 p3", "order grevlex", "---"]
    lines += [print_operator(g, doc) for g in build_ideal(inp)]
    lines += ["L " + print_operator(derivation_L(inp), doc), "f 1"]
    path = workdir / "k3.op"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_exit_code_missing_file(workdir):
    assert main(["gb", str(workdir / "nope.op")]) == 2
    ode = workdir / "present.ode"
    ode.write_text("vars t\n---\n7*dt^2 - t\n")
    assert main(["verify-series", str(ode), str(workdir / "nope.series")]) == 2


def test_exit_code_parse_error(workdir):
    bad = workdir / "bad.op"
    bad.write_text("vars x1\n---\nx1 + unknown\n")
    assert main(["gb", str(bad)]) == 2


def test_exit_code_non_square_l(workdir, capsys):
    """A module document whose L is not r x r exits 2 from every subcommand
    that builds its presentation, with the presentation's own message."""
    bad = workdir / "wide_l.op"
    bad.write_text("vars x\n---\ndx - x\nL 1 | x\nf 1\n")
    for argv in (["telescope", str(bad)], ["confine", str(bad)]):
        assert main(argv) == 2
        assert "L must be a 1x1 matrix" in capsys.readouterr().err


def test_exit_code_budget_exhausted(k3_module_path):
    rc = main(["telescope", str(k3_module_path), "--mode", "modular",
               "--point-budget", "1"])
    assert rc == 3


@pytest.mark.parametrize("argv", [
    ["telescope", "{module}", "--workers", "0"],
    ["telescope", "{module}", "--mode", "modular", "--workers", "0"],
    ["telescope", "{module}", "--point-budget", "0"],
    ["telescope", "{module}", "--rho", "-1"],
    ["telescope", "{module}", "--mode", "modular", "--rho", "-1"],
    ["telescope", "{module}", "--degree-ceiling", "0"],
    ["kregular", "--k", "2", "--workers", "0"],
    ["kregular", "--k", "2", "--point-budget", "0"],
    ["kregular", "--k", "2", "--rho", "-1"],
    ["confine", "{module}", "--rho", "-1"],
    ["kregular", "--k", "2", "--direct"],
    ["kregular", "--k", "3", "--model", "la,me"],
    ["kregular", "--k", "1", "--fg", "{fg_constant}", "--series-check", "4"],
    ["kregular", "--k", "1", "--fg", "{fg_zero}", "--series-check", "4"],
    ["telescope", "{no_generators}"],
    ["telescope", "{module}", "--mode", "modular", "--transcript", "{missing}/x"],
    ["kregular", "--k", "2", "--metrics", "{missing}/m.json"],
    ["telescope", "{module}", "--metrics", "{directory}"],
], ids=lambda argv: " ".join(a for a in argv if a != "{module}"))
def test_exit_code_bad_run_value(airy_module_path, tmp_path, argv):
    inputs = {"module": airy_module_path, "missing": tmp_path / "missing",
              "directory": tmp_path}
    for name, text in (("fg_constant", "f 1 + p1^2/2\ng p1\n"),
                       ("fg_zero", "f 0\ng 0\n"),
                       ("no_generators", "vars t x\n---\n")):
        inputs[name] = tmp_path / name
        inputs[name].write_text(text)
    try:
        code = main([a.format(**inputs) for a in argv])
    except SystemExit as exc:  # argparse exits by itself on an unknown flag
        code = exc.code
    assert code == 2


def test_validation_survives_optimize(tmp_path):
    """Run-value and shape checks raise ValueError under python -O too, and
    forced failures of the certificate path raise InconsistencyError."""
    doc = tmp_path / "airy.op"
    doc.write_text(AIRY_DOC)
    script = tmp_path / "checks.py"
    script.write_text(textwrap.dedent("""
        import contextlib
        import io
        import sys
        from unittest import mock

        from weylred import extension
        from weylred.arith import (
            QQ, QQ_T, T_GEN, InconsistencyError, ModularImage, PrimeField,
            RationalFunctions, interpolate, rational_reconstruct)
        from weylred.cli import main, solve_presentation
        from weylred.extension import (
            ParametricPresentation, build_extension, dt_degree, embedded_unit,
            flatten_operator)
        from weylred.groebner import DivisionCertificate, lrem, rrem
        from weylred.kregular import (
            count_regular_graphs, model_polynomials, regular_presentation,
            scalar_product_input, scalar_product_series, verify_ode_on_series)
        from weylred.reduction import ReductionContext
        from weylred.telescoping import (
            DerivedPresentation, ModularConfig, Telescoper, apply_linear, confine,
            relation_search, telescoper_from_field_relation)
        from weylred.weyl import (
            Algebra, MonomialOrder, dtelim_order, evaluate_and_reduce, grevlex,
            lex_order, op_add, op_sub, weightlex_order)

        _, pres = regular_presentation(2)
        lam = pres.L[0][0]
        B = Algebra(2, 1, QQ_T, dt=True)
        param = ParametricPresentation(  # level 1: d_t^2 = t, d_x = 0
            B, (B.dvar(0) * B.dvar(0) - B.scalar(T_GEN), B.dvar(1)),
            dtelim_order(2))
        ext = build_extension(param)
        f2, g2 = model_polynomials(2)
        checks = [
            lambda: ModularConfig(workers=0),
            lambda: ModularConfig(max_points=0),
            lambda: DerivedPresentation(pres.ctx, ((lam, lam),), pres.f),
            lambda: confine(pres.ctx, pres.L, pres.f, rho=-1),
            lambda: solve_presentation(pres, "bogus", ModularConfig()),
            lambda: PrimeField(4),
            lambda: ModularImage(PrimeField(2), 1),
            lambda: ModularImage(PrimeField(7), 9),
            lambda: Telescoper(()),
            lambda: ParametricPresentation(
                Algebra(2, field=QQ_T), (Algebra(2, field=QQ_T).dvar(0),),
                dtelim_order(2)),
            lambda: Algebra(2, 1, QQ_T, dt=True).monomial((1, 0), (0, 0)),
            lambda: DerivedPresentation(
                ReductionContext(Algebra(1), grevlex(1), ()),
                ((Algebra(1).one(),),), Algebra(1).one()),
            lambda: evaluate_and_reduce(B.one(), ModularImage(PrimeField(7), 2)),
            lambda: evaluate_and_reduce(
                Algebra(1, field=PrimeField(7)).one(),
                ModularImage(PrimeField(7), 2)),
            lambda: evaluate_and_reduce(
                Algebra(1, field=RationalFunctions(PrimeField(7))).one(),
                ModularImage(PrimeField(7), 2)),
            lambda: flatten_operator(B.dvar(0), 0, Algebra(1, 1, QQ_T)),
            lambda: ReductionContext(Algebra(2), grevlex(3), (Algebra(2).dvar(0),)),
            lambda: apply_linear(((lam,),), Algebra(2, 2, QQ_T).one()),
            lambda: rrem(B.dvar(1)),
            lambda: op_add(Algebra(2).one(), Algebra(2, field=QQ_T).one()),
            lambda: op_sub(Algebra(2).one(), Algebra(3).one()),
            lambda: MonomialOrder("bogus", 2),
            lambda: lex_order(2, (0, 0, 1, 2)),
            lambda: weightlex_order(2, (1, 1)),
            lambda: weightlex_order(2, (-1, 1, 1, 1)),
            lambda: ParametricPresentation(B, param.generators, dtelim_order(3)),
            lambda: interpolate(QQ, [(1, 2), (1, 3)]),
            lambda: rational_reconstruct(7, 7),
            lambda: embedded_unit(ext, h=ext.ell + 1),
            lambda: embedded_unit(ext, i=0),
            lambda: verify_ode_on_series(Telescoper(((1,),), modulus=7), (1,) * 9),
            lambda: count_regular_graphs(2, -1),
            lambda: scalar_product_input(f2, g2, 0),
            lambda: ParametricPresentation(B, (), dtelim_order(2)),
            lambda: build_extension(  # no d_t relation: never stabilizes
                ParametricPresentation(B, (B.dvar(1),), dtelim_order(2))),
            lambda: scalar_product_series({(0,): 1, (2,): 1}, {(1,): 1}, 4),
            lambda: scalar_product_series({}, {}, 4),
            lambda: scalar_product_series({(1,): 1}, {(1, 0): 1}, 4),
            lambda: dt_degree(Algebra(2, field=QQ_T).dvar(0)),
            lambda: Algebra(2, 1, QQ_T, dt=True).xvar(0),
            lambda: telescoper_from_field_relation(QQ, ((1,), (1,))),
            lambda: relation_search(PrimeField(7), [(1, 0), (2, 0, 5), (0, 1, 3)]),
        ]
        for i, check in enumerate(checks):
            try:
                check()
            except ValueError:
                continue
            raise SystemExit(f"check {i} raised no ValueError")

        failed_witness = mock.patch.object(
            DivisionCertificate, "verifies", return_value=False)

        def raised_first_form(a, G, order):
            # d_t e_1 "reduces" to d_t^3 e_1 under a witness that passes, so
            # the level-0 form outgrows the level found (1)
            if a == B.dvar(0):
                return a * a * a, mock.Mock(verifies=lambda _: True)
            return lrem(a, G, order)

        forced = [
            (failed_witness, "division certificate failed"),
            (mock.patch.object(extension, "lrem", raised_first_form),
             "normal form escaped the level bound"),
            (mock.patch.object(extension, "mul", lambda a, b: b),
             "d_t shift changed the d_t degree"),
        ]
        for i, (patch, message) in enumerate(forced):
            with patch:
                try:
                    build_extension(param)
                except InconsistencyError as e:
                    if str(e) == message:
                        continue
            raise SystemExit(f"forced failure {i} did not raise {message!r}")
        with failed_witness, contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["reduce", sys.argv[1], "--target", "y^2"])
        if code != 4 or "modular" in err.getvalue():
            raise SystemExit(f"reduce on a failed witness: {code} {err.getvalue()!r}")
    """))
    src = Path(weylred.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", str(script), str(doc)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_degree_ceiling_two_suffices_for_k3(workdir, k3_module_path):
    out = workdir / "k3b.tele"
    rc = main(["telescope", str(k3_module_path), "--degree-ceiling", "2",
               "-o", str(out)])
    assert rc == 0


def test_run_config_validation(airy_module_path):
    with pytest.raises(ValueError):
        ModularConfig(max_points=0)
    doc = parse_document(airy_module_path.read_text())
    with pytest.raises(ValueError):
        run_telescope(doc, "bogus", ModularConfig())
    run_telescope(doc, "direct", ModularConfig(), rho=0)  # zero margin is allowed


def test_run_telescope_api(airy_module_path):
    doc = parse_document(airy_module_path.read_text())
    report = run_telescope(doc, "modular", ModularConfig(seed=9))
    assert report["telescoper"].coefficients == ((0, -1), (), (7,))
    assert report["transcript"] is not None
    assert report["metrics"]["mode"] == "modular"
