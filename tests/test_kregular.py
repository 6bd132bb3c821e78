"""Scalar products, graph counting oracles, and the k-regular pipeline."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import T
from _oracles import contains_pk_minus_t
from weylred.arith import QQ_T
from weylred.groebner import buchberger
from weylred.kregular import (
    build_ideal,
    count_regular_graphs,
    derivation_L,
    from_model,
    model_polynomials,
    mp_add,
    mp_diff,
    mp_mul,
    mp_scale,
    mp_weight,
    scalar_product_input,
    scalar_product_presentation,
    scalar_product_series,
    verify_ode_on_series,
)
from weylred.telescoping import (
    ModularConfig, Telescoper, telescope_direct, telescope_modular)
from weylred.weyl import grevlex, mul

K3_TELESCOPER = tuple(
    tuple(Fraction(v) for v in c)
    for c in (
        (0, 0, 0, -4, 0, 8, 0, 0, 0, -4, 0, -1),
        (24, 0, -78, 0, -18, 0, 9, 0, 18, 0, 3),
        (0, 0, 0, -18, 0, 18, 0, 9),
    )
)


# ---------------------------------------------------------------------------
# weighted polynomial helpers


def test_mp_basics():
    assert mp_weight((2, 0, 1)) == 5  # 2*1 + 1*3
    a = {(1, 0): Fraction(2), (0, 1): Fraction(1)}
    b = {(1, 0): Fraction(-2)}
    assert mp_add(a, b) == {(0, 1): Fraction(1)}
    assert mp_scale(a, 0) == {}
    assert mp_diff({(2, 1): Fraction(3)}, 0) == {(1, 1): Fraction(6)}
    assert mp_diff({(0, 1): Fraction(3)}, 0) == {}


def test_mp_mul_weight_cap():
    a = {(1, 0): Fraction(1), (0, 1): Fraction(1)}  # p1 + p2
    full = mp_mul(a, a)
    assert full == {
        (2, 0): Fraction(1),
        (1, 1): Fraction(2),
        (0, 2): Fraction(1),
    }
    assert mp_mul(a, a, weight_cap=3) == {
        (2, 0): Fraction(1),
        (1, 1): Fraction(2),
    }


mp_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
    max_size=3,
)


@given(mp_polys, mp_polys)
def test_mp_diff_product_rule(a, b):
    lhs = mp_diff(mp_mul(a, b), 0)
    rhs = mp_add(mp_mul(mp_diff(a, 0), b), mp_mul(a, mp_diff(b, 0)))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# model polynomials


def test_model_polynomials_golden():
    f3, g3 = model_polynomials(3)
    assert f3 == {
        (2, 0, 0): Fraction(1, 2),
        (0, 1, 0): Fraction(-1, 2),
        (0, 2, 0): Fraction(-1, 4),
        (0, 0, 2): Fraction(1, 6),
    }
    assert g3 == {
        (0, 0, 1): Fraction(1, 3),
        (1, 1, 0): Fraction(1, 2),
        (3, 0, 0): Fraction(1, 6),
    }
    f2, g2 = model_polynomials(2)
    assert f2 == {(2, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2), (0, 2): Fraction(-1, 4)}
    assert g2 == {(0, 1): Fraction(1, 2), (2, 0): Fraction(1, 2)}
    with pytest.raises(ValueError):
        model_polynomials(1)


@pytest.mark.parametrize("k", range(2, 8))
def test_u_operators_commute(k):
    inp = from_model(k)
    for i in range(k):
        for j in range(k):
            assert mul(inp.u[i], inp.u[j]) == mul(inp.u[j], inp.u[i]), (i, j)


@st.composite
def _rational_f(draw):
    """(k, f) for k in {2, 3} and f a polynomial in p1..pk with rational
    coefficients, exponents up to 3 per variable."""
    k = draw(st.sampled_from([2, 3]))
    f = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * k),
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
        max_size=5))
    return k, f


@settings(max_examples=30)
@given(_rational_f())
def test_u_operators_commute_for_any_f(kf):
    """u_j = df/dp_j - d_j commute for every f, not only the model one, so
    scalar_product_input (the --fg path) needs no check."""
    k, f = kf
    u = scalar_product_input(f, {(0,) * k: 1}, k).u
    for i in range(k):
        for j in range(i + 1, k):
            assert mul(u[i], u[j]) == mul(u[j], u[i]), (i, j)


# ---------------------------------------------------------------------------
# ideal generators and the derivation


def test_ideal_generators_k3():
    inp = from_model(3)
    gens = build_ideal(inp)
    A = inp.algebra
    # p2 - t p1 + t d1
    assert gens[1] == A.xvar(1) - A.operator(
        {A.monomial((1, 0, 0), (0, 0, 0)): T}
    ) + A.operator({A.monomial((0, 0, 0), (1, 0, 0)): T})
    assert gens[2] == A.xvar(2) - A.scalar(T)  # p3 - t


def test_ideal_generators_k2():
    inp = from_model(2)
    gens = build_ideal(inp)
    A = inp.algebra
    one_minus_t = QQ_T.from_poly((Fraction(1), Fraction(-1)))
    assert gens[0].terms == {
        A.monomial((1, 0), (0, 0)): one_minus_t,
        A.monomial((0, 0), (1, 0)): T,
    }
    assert gens[1] == A.xvar(1) - A.scalar(T)


def test_ideal_generators_zero_g():
    f3, _ = model_polynomials(3)
    inp = scalar_product_input(f3, {}, 3)
    for i, g in enumerate(build_ideal(inp)):
        ((m, c),) = g.terms.items()
        assert m.alpha[i] == 1 and sum(m.alpha) == 1 and not any(m.beta)


def test_derivation_golden_k3():
    inp = from_model(3)
    lam = derivation_L(inp)
    expected = {
        ((3, 0, 0), (0, 0, 0)): Fraction(1, 6),
        ((1, 1, 0), (0, 0, 0)): Fraction(-1, 2),
        ((0, 0, 1), (0, 0, 0)): Fraction(1, 3),
        ((2, 0, 0), (1, 0, 0)): Fraction(-1, 2),
        ((0, 1, 0), (1, 0, 0)): Fraction(1, 2),
        ((1, 0, 0), (0, 1, 0)): Fraction(-1),
        ((1, 0, 0), (2, 0, 0)): Fraction(1, 2),
        ((0, 0, 0), (1, 1, 0)): Fraction(1),
        ((0, 0, 0), (3, 0, 0)): Fraction(-1, 6),
        ((1, 0, 0), (0, 0, 0)): Fraction(-1),
        ((0, 0, 0), (1, 0, 0)): Fraction(1),
        ((0, 0, 0), (0, 0, 1)): Fraction(-1),
    }
    got = {(m.alpha, m.beta): c for m, c in lam.terms.items()}
    assert got == {key: QQ_T.from_poly((v,)) for key, v in expected.items()}


def test_derivation_edge_cases():
    f3, _ = model_polynomials(3)
    inp_pk = scalar_product_input(f3, {(0, 0, 1): Fraction(1, 3)}, 3)
    assert derivation_L(inp_pk) == inp_pk.u[2]  # g = p_k/k gives u_k
    inp_one = scalar_product_input(f3, {(0, 0, 0): Fraction(1)}, 3)
    assert derivation_L(inp_one) == inp_one.algebra.one()


# ---------------------------------------------------------------------------
# the two independent n-counting oracles


def test_series_golden():
    f3, g3 = model_polynomials(3)
    s3 = scalar_product_series(f3, g3, 10)
    assert s3[0] == 1 and s3[4] == Fraction(1, 24) and s3[6] == Fraction(70, 720)
    assert s3[8] == Fraction(19355, 40320) and s3[10] == Fraction(11180820, 3628800)
    assert all(s3[i] == 0 for i in (1, 2, 3, 5, 7, 9))
    f2, g2 = model_polynomials(2)
    assert scalar_product_series(f2, g2, 6) == (
        1, 0, 0, Fraction(1, 6), Fraction(3, 24), Fraction(12, 120), Fraction(70, 720),
    )
    assert scalar_product_series(f3, {}, 4) == (1, 0, 0, 0, 0)


def test_count_golden():
    assert count_regular_graphs(2, 3) == 1
    assert count_regular_graphs(2, 4) == 3
    assert count_regular_graphs(2, 5) == 12
    assert count_regular_graphs(3, 4) == 1
    assert count_regular_graphs(3, 6) == 70
    assert count_regular_graphs(3, 8) == 19355
    assert count_regular_graphs(3, 10) == 11180820
    assert count_regular_graphs(3, 5) == 0  # odd k*n
    assert count_regular_graphs(4, 3) == 0  # k > n-1
    assert count_regular_graphs(2, 0) == 1
    with pytest.raises(ValueError):
        count_regular_graphs(4, 30)  # enumeration budget refused


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", range(11))
def test_series_matches_counts(k, n):
    f, g = model_polynomials(k)
    s = scalar_product_series(f, g, n)
    assert s[n] * factorial(n) == count_regular_graphs(k, n)


def test_complement_symmetry():
    # complementing edges maps k-regular graphs on n vertices to (n-1-k)-regular
    for n in range(2, 9):
        for k in range(n):
            assert count_regular_graphs(k, n) == count_regular_graphs(n - 1 - k, n), (k, n)


# ---------------------------------------------------------------------------
# telescopers for small k


def test_telescoper_k2(k2):
    tel = telescope_direct(k2.pres)
    assert tel.coefficients == ((0, 0, 1), (-2, 2))


def test_telescoper_k3(k3):
    tel = telescope_direct(k3.pres)
    assert tel.coefficients == K3_TELESCOPER
    assert (tel.order, tel.degrees) == (2, (11, 10, 7))


_SMALL_COEFFS = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]),
                          st.integers(1, 3))


def _assert_drivers_agree(f, g):
    """Both drivers give one telescoper for the pairing of f and g, and it
    annihilates the pairing's series."""
    pres = scalar_product_presentation(scalar_product_input(f, g, 2))
    tel = telescope_direct(pres)
    run = telescope_modular(pres, config=ModularConfig(seed=0))
    assert run.telescoper == tel
    series = scalar_product_series(f, g, tel.order + max(tel.degrees) + 2)
    assert verify_ode_on_series(tel, series)


@given(st.dictionaries(st.sampled_from([(1, 0), (2, 0), (0, 1), (0, 2)]),
                       _SMALL_COEFFS),
       st.dictionaries(st.sampled_from([(1, 0), (2, 0), (0, 1), (1, 1)]),
                       _SMALL_COEFFS, min_size=1))
@settings(max_examples=24)
def test_modular_equals_direct_on_random_presentations(f, g):
    """Random small k = 2 pairs (f, g), not only the graph model."""
    _assert_drivers_agree(f, g)


@pytest.mark.slow
@given(st.dictionaries(st.sampled_from([(1, 0), (2, 0), (3, 0), (0, 1), (0, 2)]),
                       _SMALL_COEFFS),
       st.dictionaries(st.sampled_from([(1, 0), (2, 0), (3, 0), (0, 1), (1, 1)]),
                       _SMALL_COEFFS, min_size=1))
@settings(max_examples=6, deadline=None)
def test_modular_equals_direct_at_higher_orders(f, g):
    """As above with p1^3 in both monomial sets: higher orders and degrees,
    confine over several rounds, and coefficients that can need more than
    two primes."""
    _assert_drivers_agree(f, g)


def test_premature_reconstruction_takes_more_primes():
    """At seed 0, two primes reconstruct a wrong candidate for the pairing of
    f = 2 p1^3 - 3 p1^2 + p2^2 and g = 3 p1 p2, whose telescoper has
    coefficients near 2^35; the consistency prime disagrees, joins the
    others, and three primes give the telescoper of direct mode."""
    f = {(3, 0): Fraction(2), (2, 0): Fraction(-3), (0, 2): Fraction(1)}
    g = {(1, 1): Fraction(3)}
    pres = scalar_product_presentation(scalar_product_input(f, g, 2))
    run = telescope_modular(pres, config=ModularConfig(seed=0))
    assert run.telescoper == telescope_direct(pres)
    assert "  disagrees with the reconstruction from 2 primes: kept" in run.transcript
    assert len(run.primes_used) == 3
    assert run.transcript[-1].startswith("consistency prime ")


def test_modular_k3_agrees(k3):
    run = telescope_modular(k3.pres)
    assert run.telescoper.coefficients == K3_TELESCOPER


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_pk_minus_t_in_ideal(k):
    inp = from_model(k)
    order = grevlex(k)
    basis = buchberger(build_ideal(inp), order)
    assert contains_pk_minus_t(inp, basis, order)


# ---------------------------------------------------------------------------
# ODE-versus-series checks


def test_verify_ode_on_series(k2, k3):
    f3, g3 = model_polynomials(3)
    s3 = scalar_product_series(f3, g3, 16)
    tel3 = telescope_direct(k3.pres)
    assert verify_ode_on_series(tel3, s3)
    f2, g2 = model_polynomials(2)
    assert verify_ode_on_series(telescope_direct(k2.pres), scalar_product_series(f2, g2, 8))
    assert not verify_ode_on_series(Telescoper(((), (1,))), s3)  # d_t alone fails
    with pytest.raises(ValueError):
        verify_ode_on_series(tel3, s3[:11])  # too short to be conclusive


def test_verify_ode_partial_window(k3):
    f3, g3 = model_polynomials(3)
    s3 = scalar_product_series(f3, g3, 12)
    tel3 = telescope_direct(k3.pres)
    with pytest.raises(ValueError):
        verify_ode_on_series(tel3, s3)  # 12 terms < order + maxdeg + 1
    assert verify_ode_on_series(tel3, s3, allow_partial=True)


def test_airy_recurrence_series():
    # a_{m+3} = a_m / (7 (m+3) (m+2)) solves 7 y'' = t y, for both seeds
    for seed in ((1, 0), (0, 1)):
        a = [Fraction(seed[0]), Fraction(seed[1]), Fraction(0)]
        for m in range(10):
            a.append(a[m] / (7 * (m + 3) * (m + 2)))
        assert verify_ode_on_series(Telescoper(((0, -1), (), (7,))), tuple(a))


def test_kregular_table_script():
    """scripts/kregular_table.py tabulates k = 2 directly and k = 3
    modularly, checks both against the series and lists the points that
    each prime of the modular row used."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "kregular_table.py"), "--max-k", "3",
         "--modular-from", "3", "--series-terms", "8"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line.split() for line in lines if re.match(r" *\d+  ", line)]
    assert [(row[0], row[1].split("[")[0], row[-1]) for row in rows] == [
        ("2", "direct", "ok"), ("3", "modular", "ok")]
    points = re.fullmatch(r" +points per prime: (.*)", lines[-1])
    assert points and len(re.findall(r"\d+: \d+", points.group(1))) == 3
