"""Reduced forms, eta-bases, their tracers, and the irreducibility oracle."""

import warnings
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _helpers import T, operators, qqt_elements
from _oracles import compare, gd_irreducibility_oracle
from test_extension import _cubic_exponential_presentation
from weylred.arith import QQ, QQ_T
from weylred import reduction
from weylred.extension import build_extension
from weylred.groebner import DivisionCertificate, buchberger, lrem
from weylred.reduction import (
    ReductionContext,
    _enumerate_candidates,
    compute_eta_basis,
    largest_monomial_of_degree,
    reduce_eta,
    reduced_form,
)
from weylred.weyl import (
    Algebra,
    Monomial,
    WeylOperator,
    block_order,
    dtelim_order,
    grevlex,
    leading_data,
    lex_order,
    mul,
    op_scale,
    order_from_spec,
    weightlex_order,
)


def qt(num):
    return QQ_T.from_poly(tuple(Fraction(c) for c in num))


# ---------------------------------------------------------------------------
# goldens on the cubic-exponential basis over Q(t)


def test_reduced_form_golden(airy):
    A = airy.algebra
    y, z = A.xvar(1), A.xvar(2)
    red, cert = reduced_form(mul(y, y), airy.ctx)
    assert red == z + A.scalar(T)
    assert cert.verifies(mul(y, y) - red)


def test_eta_basis_golden(airy):
    A = airy.algebra
    eta = largest_monomial_of_degree(A, airy.order, 2)
    assert A.decode(eta) == Monomial((2, 0, 0), (0, 0, 0), 1)
    B = compute_eta_basis(airy.ctx, eta)
    assert len(B.rows) == 1 and B.tracer == frozenset()
    row = B.rows[0]
    assert A.decode(row.lm) == Monomial((0, 0, 1), (0, 0, 0), 1)
    assert row.op == A.xvar(2) + A.scalar(qt([0, Fraction(3, 7)]))
    assert row.cert.verifies(row.op)


def test_reduce_eta_golden(airy):
    A = airy.algebra
    y = A.xvar(1)
    B = compute_eta_basis(airy.ctx, largest_monomial_of_degree(A, airy.order, 2))
    red, cert = reduce_eta(mul(y, y), airy.ctx, B, certificate=True)
    assert red == A.scalar(qt([0, Fraction(4, 7)]))
    assert cert.verifies(mul(y, y) - red)


def test_eta_basis_recomputes_identically(airy):
    """Each call builds the basis afresh; two calls give the same rows."""
    eta = largest_monomial_of_degree(airy.algebra, airy.order, 2)
    first, again = compute_eta_basis(airy.ctx, eta), compute_eta_basis(airy.ctx, eta)
    assert first is not again
    assert [(r.candidate, r.lm, r.op) for r in first.rows] == \
        [(r.candidate, r.lm, r.op) for r in again.rows]
    assert first.tracer == again.tracer


def test_eta_rows_stay_below_threshold(airy):
    for s in (2, 3, 4):
        eta = largest_monomial_of_degree(airy.algebra, airy.order, s)
        B = compute_eta_basis(airy.ctx, eta)
        for row in B.rows:
            assert airy.order.key(row.lm) <= airy.order.key(eta)
            assert airy.ctx.is_irreducible(row.op)
            assert row.cert.verifies(row.op)  # row lies in S + dW^r


# ---------------------------------------------------------------------------
# the univariate worst case: S = W d1 under lex with x1 > d1


@pytest.fixture(scope="module")
def poly_ctx():
    A = Algebra(1, field=QQ)
    order = lex_order(1, sequence=(0, 1))
    G = buchberger((A.dvar(0),), order)
    return ReductionContext(A, order, G)


def test_polynomial_eta_rows(poly_ctx):
    eta = largest_monomial_of_degree(poly_ctx.algebra, poly_ctx.order, 4)
    B = compute_eta_basis(poly_ctx, eta)
    A = poly_ctx.algebra
    assert [A.decode(r.lm) for r in B.rows] == [
        Monomial((0,), (0,), 1),
        Monomial((1,), (0,), 1),
        Monomial((2,), (0,), 1),
    ]
    assert B.tracer == frozenset({A.monomial((0,), (1,))})
    x = poly_ctx.algebra.xvar(0)
    red, cert = reduce_eta(mul(x, x), poly_ctx, B)
    assert red.is_zero() and cert is None


def test_tracer_is_vanished_set(poly_ctx, airy):
    """The tracer holds exactly the candidates that gave no row: d1's
    reduces to zero here, while every airy candidate below x^2 contributes."""
    eta = largest_monomial_of_degree(poly_ctx.algebra, poly_ctx.order, 4)
    B = compute_eta_basis(poly_ctx, eta)
    candidates = set(_enumerate_candidates(poly_ctx, eta))
    assert B.tracer == candidates - {r.candidate for r in B.rows}
    assert B.tracer == frozenset({poly_ctx.algebra.monomial((0,), (1,))})
    eta = largest_monomial_of_degree(airy.algebra, airy.order, 2)
    B = compute_eta_basis(airy.ctx, eta)
    assert B.tracer == frozenset()
    assert {r.candidate for r in B.rows} == set(_enumerate_candidates(airy.ctx, eta))


def test_eta_basis_back_substitutes_into_earlier_rows():
    """A new row's leading monomial can lie below an earlier row's lm and in
    its support.  For S = W (x1 x2 d2^2 + 2) under block order at eta = x1^3
    it does, and compute_eta_basis eliminates it from that row (the
    _eliminate call on a single new row): the rows come out in Gauss-Jordan
    form, ascending, each monic at its leading monomial, no row's lm in
    another row, each witnessed in S + dW^r."""
    A = Algebra(2)
    order = block_order(2)
    g = A.operator({A.monomial((1, 1), (0, 2)): Fraction(1),
                    A.unit_monomial(): Fraction(2)})
    ctx = ReductionContext(A, order, buchberger((g,), order))
    spy = mock.patch.object(reduction, "_eliminate", side_effect=reduction._eliminate)
    with spy as elim:
        B = compute_eta_basis(ctx, A.monomial((3, 0), (0, 0)))
    assert any(isinstance(call.args[1], tuple) for call in elim.call_args_list)
    keys = [order.key(row.lm) for row in B.rows]
    assert len(keys) > 1 and keys == sorted(keys)
    for row in B.rows:
        assert leading_data(row.op, order) == (row.lm, Fraction(1))
        assert not any(other.lm in row.op.terms for other in B.rows if other is not row)
        assert row.cert.verifies(row.op)


def test_empty_eta_basis_when_no_lm_has_derivatives():
    # shape of the 2-regular system: every leading monomial is derivative-free
    A = Algebra(2, field=QQ_T)
    x1, x2, d1 = A.xvar(0), A.xvar(1), A.dvar(0)
    g1 = op_scale(x1, QQ_T.sub(T, QQ_T.one)) - op_scale(d1, T)
    g2 = x2 - A.scalar(T)
    order = grevlex(2)
    ctx = ReductionContext(A, order, buchberger((g1, g2), order))
    B = compute_eta_basis(ctx, largest_monomial_of_degree(A, order, 3))
    assert B.rows == () and B.tracer == frozenset()


def test_context_rejects_nonfinite_order():
    A = Algebra(2, field=QQ)
    with pytest.raises(ValueError):
        ReductionContext(A, lex_order(2, (0, 1, 2, 3)), (A.dvar(0),))


# ---------------------------------------------------------------------------
# linearity and soundness


@given(operators(Algebra(3, field=QQ_T), coeffs=qqt_elements(max_deg=1),
                 max_terms=2, max_exp=2),
       operators(Algebra(3, field=QQ_T), coeffs=qqt_elements(max_deg=1),
                 max_terms=2, max_exp=2),
       qqt_elements(max_deg=1), qqt_elements(max_deg=1))
def test_reduction_linear(airy, u, v, a, b):
    combo = op_scale(u, a) + op_scale(v, b)
    ru, _ = reduced_form(u, airy.ctx, certificate=False)
    rv, _ = reduced_form(v, airy.ctx, certificate=False)
    rc, _ = reduced_form(combo, airy.ctx, certificate=False)
    assert rc == op_scale(ru, a) + op_scale(rv, b)


@given(operators(Algebra(3, field=QQ_T), coeffs=qqt_elements(max_deg=1),
                 max_terms=2, max_exp=2),
       operators(Algebra(3, field=QQ_T), coeffs=qqt_elements(max_deg=1),
                 max_terms=2, max_exp=2),
       qqt_elements(max_deg=1), qqt_elements(max_deg=1))
def test_reduce_eta_linear(airy, u, v, a, b):
    B = compute_eta_basis(
        airy.ctx, largest_monomial_of_degree(airy.algebra, airy.order, 2)
    )
    combo = op_scale(u, a) + op_scale(v, b)
    ru, _ = reduce_eta(u, airy.ctx, B)
    rv, _ = reduce_eta(v, airy.ctx, B)
    assert reduce_eta(combo, airy.ctx, B)[0] == op_scale(ru, a) + op_scale(rv, b)


@given(operators(Algebra(3, field=QQ_T), coeffs=qqt_elements(max_deg=1),
                 max_terms=3, max_exp=2))
def test_reduction_sound_and_idempotent(airy, u):
    red, cert = reduced_form(u, airy.ctx)
    assert cert.verifies(u - red)
    assert airy.ctx.is_irreducible(red)
    again, _ = reduced_form(red, airy.ctx, certificate=False)
    assert again == red


_AIRY_OPS = operators(Algebra(3, field=QQ_T), coeffs=qqt_elements(max_deg=1),
                      max_terms=2, max_exp=2)
_WITNESS_ROUTES = st.sampled_from(("lrem", "reduced_form"))


@given(_AIRY_OPS, _AIRY_OPS, qqt_elements(max_deg=1), qqt_elements(max_deg=1),
       _WITNESS_ROUTES, _WITNESS_ROUTES)
def test_witnesses_combine_linearly(airy, u, v, a, b, route_u, route_v):
    """Witnesses of u - [u] and v - [v] combine into one of their combination."""
    def witness(x, route):
        if route == "lrem":
            return lrem(x, airy.gb, airy.order)
        return reduced_form(x, airy.ctx)

    ru, cu = witness(u, route_u)
    rv, cv = witness(v, route_v)
    combo = op_scale(u - ru, a) + op_scale(v - rv, b)
    assert (cu.scale(a) + cv.scale(b)).verifies(combo)


def _assert_rejects_tampering(x, cert):
    """cert verifies x, and no longer does once one quotient is dropped, one
    dw entry is perturbed (or an empty one filled) or 1 is added to one
    coefficient of x."""
    A = x.algebra
    F = A.field
    assert cert.verifies(x)
    quotients = [i for i, q in cert.quotients.items() if not q.is_zero()]
    assert quotients
    for i in quotients:
        kept = {k: q for k, q in cert.quotients.items() if k != i}
        assert not DivisionCertificate(cert.basis, kept, cert.dw).verifies(x)
    for j, w in enumerate(cert.dw):
        dw = list(cert.dw)
        dw[j] = A.one() if w is None else w + A.one()
        assert not DivisionCertificate(cert.basis, cert.quotients, tuple(dw)).verifies(x)
    for m, c in x.terms.items():
        bumped = dict(x.terms)
        bumped[m] = F.add(c, F.one)
        assert not cert.verifies(WeylOperator(A, bumped))


def test_witness_rejects_tampering(airy, k3):
    """The check refuses a tampered witness: of y^2 - [y^2] on Airy, of
    x1^2 - [x1^2] at k = 3, whose coefficients have t-power denominators,
    and of a division in the t-extended algebra of build_extension, where a
    quotient with d_t twists the t-dependent coefficients of its element."""
    A = airy.algebra
    y2 = mul(A.xvar(1), A.xvar(1))
    red, cert = reduced_form(y2, airy.ctx)
    assert any(w is not None and not w.is_zero() for w in cert.dw)
    _assert_rejects_tampering(y2 - red, cert)

    B = k3.pres.ctx.algebra
    x2 = mul(B.xvar(0), B.xvar(0))
    red, cert = reduced_form(x2, k3.pres.ctx)
    assert any(len(c[1]) > 2 for c in red.terms.values())  # a den t^2
    _assert_rejects_tampering(x2 - red, cert)

    pres = _cubic_exponential_presentation()
    ext = build_extension(pres)
    C = pres.algebra
    u = mul(C.dvar(0), mul(C.xvar(1), C.xvar(1)))  # d_t x^2
    rem, cert = lrem(u, ext.gb, pres.order)
    assert any(C.decode(m).beta[0] and any(len(n) > 1 or len(d) > 1 for n, d in
                                 ext.gb[i].terms.values())
               for i, q in cert.quotients.items() for m in q.terms)
    _assert_rejects_tampering(u - rem, cert)


# ---------------------------------------------------------------------------
# eta-escalation: members of S + dW^r vanish once the threshold is high enough


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-4, 4).filter(bool)),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 4), st.integers(-4, 4).filter(bool)),
                max_size=2))
def test_eta_escalation_vanishes(poly_ctx, wterms, qterms):
    """[u]_eta = 0 for u in S + dW once eta clears u's degree (flag, not fail)."""
    A = poly_ctx.algebra
    d = A.dvar(0)
    w = A.operator({A.monomial((e,), (0,)): Fraction(c) for e, c in dict(wterms).items()})
    q = A.operator({A.monomial((e,), (0,)): Fraction(c) for e, c in dict(qterms).items()})
    u = mul(d, w) + mul(q, d)  # d.w  +  q.d  in  dW + S
    if u.is_zero():
        return
    cap = u.degree() + 6
    for s in range(1, cap + 1):
        B = compute_eta_basis(poly_ctx, largest_monomial_of_degree(A, poly_ctx.order, s))
        if reduce_eta(u, poly_ctx, B)[0].is_zero():
            return
    warnings.warn(f"[u]_eta did not vanish below degree {cap}: {u.terms}")


def test_eta_escalation_airy_member(airy):
    A = airy.algebra
    u = mul(A.dvar(0), A.xvar(0)) + mul(A.xvar(1), airy.gb[0])
    red, _ = reduced_form(u, airy.ctx, certificate=False)
    for s in range(1, 9):
        B = compute_eta_basis(airy.ctx, largest_monomial_of_degree(A, airy.order, s))
        if reduce_eta(u, airy.ctx, B)[0].is_zero():
            return
    raise AssertionError(f"member of S + dW^r never vanished; [u] = {red.terms}")


# ---------------------------------------------------------------------------
# the largest monomial of a fixed degree


ORDER_CASES = [
    (grevlex(2), Algebra(2)),
    (block_order(2), Algebra(2)),
    (lex_order(2, (0, 1, 2, 3)), Algebra(2)),
    (lex_order(2, (2, 3, 0, 1)), Algebra(2)),
    (weightlex_order(2, (1, 1, 1, 1)), Algebra(2)),
    (weightlex_order(2, (1, 2, 2, 3)), Algebra(2)),
    (dtelim_order(2), Algebra(2)),
    pytest.param(grevlex(2), Algebra(2, 2), id="grevlex-r2"),
    pytest.param(lex_order(2, (1, 0, 3, 2)), Algebra(2, 3), id="lex-r3"),
    pytest.param(dtelim_order(2), Algebra(2, 3), id="dtelim-r3"),
    pytest.param(grevlex(3), Algebra(3), id="grevlex-n3"),
    pytest.param(block_order(3), Algebra(3, 2), id="block-n3-r2"),
    pytest.param(lex_order(3, (5, 0, 3, 1, 4, 2)), Algebra(3), id="lex-n3-d3-first"),
    pytest.param(weightlex_order(3, (2, 0, 1, 1, 3, 0)), Algebra(3), id="weightlex-n3"),
    pytest.param(weightlex_order(2, (0, 1, 1, 1)), Algebra(2, 2), id="weightlex-zero-r2"),
    pytest.param(lex_order(2, (3, 1, 2, 0)), Algebra(2), id="lex-d2-first"),
]


@pytest.mark.parametrize("order,algebra", ORDER_CASES, ids=lambda v: getattr(v, "kind", ""))
@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_largest_monomial_is_maximal(order, algebra, s):
    got = largest_monomial_of_degree(algebra, order, s)
    assert algebra.layout.degree(got) == s
    n = algebra.n
    best = None
    for exps in product(range(s + 1), repeat=2 * n):
        if sum(exps) != s:
            continue
        for comp in range(1, algebra.r + 1):
            m = Monomial(exps[:n], exps[n:], comp)
            if best is None or compare(m, best, order) > 0:
                best = m
    assert algebra.decode(got) == best


@pytest.mark.parametrize("order,algebra", ORDER_CASES, ids=lambda v: getattr(v, "kind", ""))
def test_order_spec_round_trip(order, algebra):
    assert order_from_spec(order.spec, order.n) == order


def test_largest_monomial_dt_slot():
    A = Algebra(3, field=QQ_T, dt=True)
    m = largest_monomial_of_degree(A, block_order(3), 2)
    assert A.decode(m) == Monomial((0, 2, 0), (0, 0, 0), 1)  # slot 0 carries no x power


# ---------------------------------------------------------------------------
# Griffiths-Dwork correspondence for f = x1^3 + x2^3


@pytest.fixture(scope="module")
def gd_ctx():
    A = Algebra(2, field=QQ)
    x1, x2 = A.xvar(0), A.xvar(1)
    three = A.scalar(Fraction(3))
    gens = (A.dvar(0) - mul(three, mul(x1, x1)), A.dvar(1) - mul(three, mul(x2, x2)))
    order = block_order(2)
    return ReductionContext(A, order, buchberger(gens, order))


def test_gd_oracle_goldens():
    std, gb = gd_irreducibility_oracle(2, {(3, 0): 1, (0, 3): 1}, 2)
    assert std == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert gd_irreducibility_oracle(1, {(2,): 1}, 3)[0] == {(0,)}
    assert gd_irreducibility_oracle(2, {(1, 1): 1}, 3)[0] == {(0, 0)}
    with pytest.raises(ValueError):
        gd_irreducibility_oracle(2, {(1, 0): 1, (2, 0): 1}, 2)  # inhomogeneous
    with pytest.raises(ValueError):
        gd_irreducibility_oracle(2, {}, 2)


@given(st.tuples(st.integers(0, 4), st.integers(0, 4)),
       st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_gd_correspondence(gd_ctx, alpha, beta):
    """x^a is [.]-irreducible iff a is standard for the Jacobian ideal."""
    std, _ = gd_irreducibility_oracle(2, {(3, 0): 1, (0, 3): 1}, 8)
    m = gd_ctx.algebra.monomial(alpha, beta)
    expected = (not any(beta)) and alpha in std
    assert gd_ctx.is_irreducible_monomial(m) == expected
