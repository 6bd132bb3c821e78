"""Operators, the commutation product, and monomial orders."""

from fractions import Fraction

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from _helpers import T, monomials, nonzero_fractions, operators, qqt_elements
from _oracles import apply_to_polynomial, compare, mul_by_variables, shadow_product
from weylred.arith import QQ, QQ_T, ModularImage, PrimeField, UnluckyEvaluationError
from weylred.weyl import (
    Algebra,
    Monomial,
    block_order,
    coefficientwise_dt,
    commutator,
    dtelim_order,
    evaluate_and_reduce,
    grevlex,
    leading_data,
    leading_monomial,
    lex_order,
    mul,
    mul_monomial,
    op_add,
    op_scale,
    op_sub,
    shadow_divides,
    shadow_quotient,
    sorted_terms,
    weightlex_order,
)

A2 = Algebra(2)  # x1, x2 over Q
A3 = Algebra(3)


# ---------------------------------------------------------------------------
# monomial shadow arithmetic


def test_shadow_ops():
    m1 = Monomial((1, 0), (0, 1), 1)
    m2 = Monomial((2, 1), (1, 1), 1)
    assert shadow_divides(m1, m2)
    assert not shadow_divides(m2, m1)
    assert shadow_quotient(m2, m1) == Monomial((1, 1), (1, 0), 1)
    assert shadow_product(m1, Monomial((0, 1), (1, 0), 1)) == Monomial(
        (1, 1), (1, 1), 1
    )
    assert m2.degree() == 5


def test_component_blocks_divisibility():
    m1 = Monomial((1,), (0,), 1)
    m2 = Monomial((2,), (0,), 2)
    assert not shadow_divides(m1, m2)


# ---------------------------------------------------------------------------
# the commutation product


def test_commutation_golden():
    x, d = A2.xvar(0), A2.dvar(0)
    assert mul(d, x) == mul(x, d) + A2.one()  # d1 x1 = x1 d1 + 1
    assert mul(d, A2.xvar(1)) == mul(A2.xvar(1), d)  # cross slots commute
    # d^2 x^2 = x^2 d^2 + 4 x d + 2
    lhs = mul(mul(d, d), mul(x, x))
    four = A2.scalar(Fraction(4))
    two = A2.scalar(Fraction(2))
    assert lhs == mul(x, mul(x, mul(d, d))) + mul(four, mul(x, d)) + two


def test_rank_mixing_rules():
    R = Algebra(1, 2)
    e1, e2 = R.one(1), R.one(2)
    scalar = Algebra(1, 1)
    assert mul(scalar.xvar(0), e2).terms == {Monomial((1,), (0,), 2): Fraction(1)}
    with pytest.raises(ValueError):
        mul(e1, e2)  # neither side is a rank-1 scalar


def test_mul_monomial():
    g = A2.xvar(0) + A2.dvar(1)
    m = Monomial((1, 0), (0, 0), 1)
    assert mul_monomial(m, Fraction(2), g) == op_scale(mul(A2.xvar(0), g), Fraction(2))


F101 = PrimeField(101)
_COEFFS = {
    "QQ": nonzero_fractions(),
    "QQ(t)": qqt_elements(),
    "GF(101)": st.integers(1, 100),
}


@pytest.mark.parametrize("shape, field", [
    ("plain", "QQ"), ("plain", "QQ(t)"), ("plain", "GF(101)"),
    ("rank 2", "QQ"), ("rank 2", "QQ(t)"), ("rank 2", "GF(101)"),
    ("t-extended", "QQ(t)"),
])
def test_mul_monomial_matches_variable_by_variable_oracle(shape, field):
    """mul_monomial agrees with the product built from the three Weyl rules
    (x_i shifts, d_i x_i = x_i d_i + 1, d_t c = c d_t + c'), on pairs whose
    terms all commute (the shift path) and on pairs with some that do not."""
    K = {"QQ": QQ, "QQ(t)": QQ_T, "GF(101)": F101}[field]
    A = {"plain": Algebra(2, 1, K), "rank 2": Algebra(2, 2, K),
         "t-extended": Algebra(2, 1, K, dt=True)}[shape]
    coeffs = _COEFFS[field]
    seen = set()

    @given(monomials(2, 1, max_exp=2, dt=A.dt), coeffs,
           operators(A, coeffs, max_terms=4, max_exp=2, min_terms=1))
    def check(m, c, P):
        commuting = not (A.dt and m.beta[0]) and not any(
            m.beta[i] and mq.alpha[i] for mq in P.terms for i in range(A.dt, A.n))
        event("all pairs commute" if commuting else "some pair does not commute")
        seen.add(commuting)
        assert mul_monomial(m, c, P) == mul_by_variables(m, c, P)

    check()
    assert seen == {True, False}


@pytest.mark.parametrize("shape, field", [
    ("plain", "QQ"), ("plain", "QQ(t)"), ("plain", "GF(101)"),
    ("t-extended", "QQ(t)"),
])
def test_commutator_matches_products(shape, field):
    """commutator(P, Q) is PQ - QP, on pairs of operators whose term pairs
    all commute (nothing is multiplied) and on pairs with some that do not
    (a d_i of either side meets an x_i of the other, or a d_t twists)."""
    K = {"QQ": QQ, "QQ(t)": QQ_T, "GF(101)": F101}[field]
    A = Algebra(2, 1, K, dt=shape == "t-extended")
    ops = operators(A, _COEFFS[field], max_terms=3, max_exp=2, min_terms=1)
    seen = set()

    def meets(mp, mq):
        return (A.dt and (mp.beta[0] or mq.beta[0])) or any(
            mp.beta[i] and mq.alpha[i] or mq.beta[i] and mp.alpha[i]
            for i in range(A.dt, A.n))

    @given(ops, ops)
    def check(P, Q):
        commuting = not any(meets(mp, mq) for mp in P.terms for mq in Q.terms)
        event("all pairs commute" if commuting else "some pair does not commute")
        seen.add(commuting)
        assert commutator(P, Q) == op_sub(mul(P, Q), mul(Q, P))

    check()
    assert seen == {True, False}
    with pytest.raises(ValueError):
        commutator(A.with_rank(2).one(), A.with_rank(2).one())
    with pytest.raises(ValueError):
        commutator(A.one(), Algebra(3, 1, K, A.dt).one())


@given(operators(A2, max_terms=3, max_exp=2), operators(A2, max_terms=3, max_exp=2),
       operators(A2, max_terms=2, max_exp=2))
def test_mul_associative(P, Q, R):
    assert mul(mul(P, Q), R) == mul(P, mul(Q, R))


@given(operators(A3, max_terms=2, max_exp=2), operators(A3, max_terms=2, max_exp=2))
def test_mul_left_right_distributive(P, Q):
    R = A3.xvar(0) + A3.dvar(2)
    assert mul(op_add(P, Q), R) == op_add(mul(P, R), mul(Q, R))
    assert mul(R, op_add(P, Q)) == op_add(mul(R, P), mul(R, Q))


polys2 = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    nonzero_fractions(),
    max_size=3,
)


@given(operators(A2, max_terms=3, max_exp=2), operators(A2, max_terms=3, max_exp=2),
       polys2)
def test_action_homomorphism(P, Q, poly):
    via_product = apply_to_polynomial(mul(P, Q), poly)
    via_composition = apply_to_polynomial(P, apply_to_polynomial(Q, poly))
    assert via_product == via_composition


@given(operators(A2, min_terms=1, max_terms=3, max_exp=2),
       operators(A2, min_terms=1, max_terms=3, max_exp=2))
def test_degree_additivity(P, Q):
    assert mul(P, Q).degree() == P.degree() + Q.degree()


# ---------------------------------------------------------------------------
# monomial orders


ORDERS2 = [
    grevlex(2),
    block_order(2),
    lex_order(2, (0, 1, 2, 3)),
    weightlex_order(2, (1, 2, 1, 3)),
]


@pytest.mark.parametrize("order", ORDERS2, ids=lambda o: o.kind)
@given(m1=monomials(2), m2=monomials(2), m3=monomials(2))
def test_compare_total_order(order, m1, m2, m3):
    # trichotomy
    assert (compare(m1, m2, order) == 0) == (m1 == m2)
    assert compare(m1, m2, order) == -compare(m2, m1, order)
    # transitivity
    if compare(m1, m2, order) <= 0 and compare(m2, m3, order) <= 0:
        assert compare(m1, m3, order) <= 0
    # 1 is the minimum monomial; multiplicativity by a shadow product
    unit = Monomial((0, 0), (0, 0), 1)
    if m1.comp == 1:
        assert compare(unit, m1, order) <= 0
    if m1.comp == m2.comp == m3.comp:
        if compare(m1, m2, order) < 0:
            assert compare(shadow_product(m1, m3), shadow_product(m2, m3), order) < 0


@pytest.mark.parametrize("order", ORDERS2 + [dtelim_order(2)], ids=lambda o: o.kind)
@given(q=monomials(2), g=operators(A2, min_terms=1, max_terms=4, max_exp=2))
def test_leading_monomial_law(order, q, g):
    """lm(q g) = lm(lm(q) lm(g)) for monomial q, under every shipped kind."""
    qop = A2.operator({q: Fraction(1)})
    lm_g, lc_g = leading_data(g, order)
    product = mul(qop, g)
    expected = mul(qop, A2.operator({lm_g: lc_g}))
    assert leading_monomial(product, order) == leading_monomial(expected, order)


def test_hypothesis_finiteness_flags():
    assert grevlex(2).hypothesis_finiteness
    assert block_order(3).hypothesis_finiteness
    assert weightlex_order(2, (1, 1, 2, 2)).hypothesis_finiteness
    # lex with x1 > x2 > d1 > d2 admits infinitely many x^a below d1 x1
    assert not lex_order(2, (0, 1, 2, 3)).hypothesis_finiteness
    assert lex_order(1, (0, 1)).hypothesis_finiteness


def test_block_order_golden():
    # block: compare x-part grevlex first, then d-part
    order = block_order(3)
    y2 = Monomial((0, 2, 0), (0, 0, 0), 1)
    yz = Monomial((0, 1, 1), (0, 0, 0), 1)
    dz3 = Monomial((0, 0, 0), (0, 0, 3), 1)
    assert compare(y2, yz, order) > 0  # grevlex ties broken on last exponent
    assert compare(dz3, yz, order) < 0  # any x beats any pure-d monomial


def test_dtelim_order_golden():
    order = dtelim_order(2)
    dt = Monomial((0, 0), (1, 0), 1)
    big = Monomial((0, 3), (0, 3), 1)
    assert compare(dt, big, order) > 0  # d_t exponent dominates everything


@given(operators(A2, min_terms=1, max_terms=5))
def test_sorted_terms_descending_and_cached(P):
    order = grevlex(2)
    ts = sorted_terms(P, order)
    keys = [order.key(m) for m, _ in ts]
    assert keys == sorted(keys, reverse=True)
    assert sorted_terms(P, order) is ts  # cached per order


# ---------------------------------------------------------------------------
# the t-extended regime and coefficient maps


def test_dt_regime_constraints():
    A = Algebra(2, 1, QQ_T, dt=True)
    with pytest.raises(ValueError):
        A.monomial((1, 0), (0, 0))  # slot 0 carries no polynomial t
    dt = A.dvar(0)
    # d_t t = t d_t + 1 (the derivation twist lives in the coefficients)
    got = mul(dt, A.scalar(T))
    assert got == A.operator({A.monomial((0, 0), (1, 0)): T}) + A.one()


def test_coefficientwise_dt():
    A = Algebra(1, field=QQ_T)
    P = A.operator({A.monomial((1,), (0,)): T, A.unit_monomial(): QQ_T.one})
    assert coefficientwise_dt(P) == A.xvar(0)
    with pytest.raises(ValueError):
        coefficientwise_dt(Algebra(1).xvar(0))


def test_evaluate_and_reduce():
    A = Algebra(1, field=QQ_T)
    half_t = QQ_T.div(T, QQ_T.from_int(2))
    P = A.operator({A.monomial((1,), (0,)): half_t})
    F7 = PrimeField(7)
    img = ModularImage(F7, 3)
    got = evaluate_and_reduce(P, img)
    assert got.algebra.field is F7
    assert got.terms == {A.monomial((1,), (0,)): 3 * pow(2, -1, 7) % 7}
    # denominator vanishing at the point is an unlucky signal
    bad = A.scalar(QQ_T.div(QQ_T.one, QQ_T.sub(T, QQ_T.from_int(3))))
    with pytest.raises(UnluckyEvaluationError):
        evaluate_and_reduce(bad, img)


def test_evaluate_and_reduce_prime_level():
    A = Algebra(1, field=QQ_T)
    P = A.scalar(QQ_T.from_poly((Fraction(1, 7),)))
    try:
        evaluate_and_reduce(P, ModularImage(PrimeField(7), 3))
        raise AssertionError("expected a prime-level unlucky signal")
    except UnluckyEvaluationError as e:
        assert e.prime_level



@pytest.mark.parametrize("c,message,prime_level", [
    (QQ_T.inv(QQ_T.from_poly((Fraction(1, 7), 1))), "denominator 7 divisible by 7", True),
    (QQ_T.from_poly((Fraction(1, 7), Fraction(1, 7))), "denominator 7 divisible by 7", True),
    (QQ_T.from_poly((Fraction(3, 14), Fraction(1, 7), Fraction(5, 49))),
     "denominator 49 divisible by 7", True),
    (QQ_T.inv(QQ_T.from_poly((-3, 1))), "coefficient denominator vanishes at t=3 (mod 7)",
     False),
], ids=["1/(t+1/7)", "(t+1)/7", "top-coefficient-first", "1/(t-3)"])
def test_evaluate_and_reduce_prime_level_qt(c, message, prime_level):
    """Over Q(t), p = 7 dividing a coefficient's denominator discards the
    prime whatever the point; a denominator vanishing at t = 3 only the point."""
    with pytest.raises(UnluckyEvaluationError) as e:
        evaluate_and_reduce(Algebra(1, field=QQ_T).scalar(c),
                            ModularImage(PrimeField(7), 3))
    assert e.value.prime_level is prime_level
    assert str(e.value) == message
