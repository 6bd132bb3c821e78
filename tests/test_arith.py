"""Coefficient arithmetic: fields, dense t-polynomials, reconstruction."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    newton_interpolate,
    qpoly_clear_denominators,
    ref_padd,
    ref_pderiv,
    ref_pdivmod,
    ref_peval,
    ref_pgcd,
    ref_pmul,
    ref_psub,
    zz_heu_gcd_oracle,
)
from weylred import arith
from weylred.arith import (
    QQ,
    QQ_T,
    ZZ,
    AbscissaTable,
    BudgetExhaustedError,
    ModularImage,
    PrimeField,
    RationalFunctions,
    adaptive_reconstruct,
    cauchy_interpolate,
    collective_primitive,
    crt_combine,
    interpolate,
    is_prime,
    padd,
    pdeg,
    pderiv,
    pdivmod,
    peval,
    pexquo,
    pgcd,
    plcm,
    pmonic,
    pmul,
    pnorm,
    psub,
    random_prime_field,
    rational_reconstruct,
)
from weylred.telescoping import Confinement, ModularConfig, Telescoper, _SamplePool, _Tape
from weylred.weyl import Algebra, Monomial, MonomialOrder, grevlex, sorted_terms

FP = PrimeField(1000003)
FPT = RationalFunctions(FP)


def qq_t(num_ints, den_ints=(1,)):
    num = QQ_T.from_poly(tuple(Fraction(c) for c in num_ints))
    den = QQ_T.from_poly(tuple(Fraction(c) for c in den_ints))
    return QQ_T.div(num, den)


# ---------------------------------------------------------------------------
# prime field basics


def test_prime_field_canonical_representatives():
    F = PrimeField(7)
    assert F.from_int(-1) == 6
    assert F.add(5, 4) == 2
    assert F.neg(0) == 0
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.div(3, 0)


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(91)


@given(st.integers(1, 1000002), st.integers(0, 1000002))
def test_prime_field_inverse_and_sub(a, b):
    assert FP.mul(a, FP.inv(a)) == 1
    assert FP.add(FP.sub(b, a), a) == b % FP.p


# ---------------------------------------------------------------------------
# rational functions: normalization and field axioms


def test_rational_function_normalization_golden():
    # (2t^2 - 2) / (4t + 4) -> (t - 1) / 2, as integer polynomials
    a = qq_t((-2, 0, 2), (4, 4))
    num, den = a
    assert num == (-1, 1) and den == (2,)
    assert all(type(c) is int for c in num + den)
    # 1 / (t + 1/7) -> 7 / (7t + 1); -3t / 12t^2 -> -1 / (4t)
    assert QQ_T.inv(QQ_T.from_poly((Fraction(1, 7), Fraction(1)))) == ((7,), (1, 7))
    assert qq_t((0, -3), (0, 0, 12)) == ((-1,), (0, 4))


def test_field_protocol_is_narrow():
    """Fields implement only what generic code calls.  Payloads are
    canonical, so no field (and no tape) defines eq; only Q(t) and F_p(t)
    define derivative; zero and one are shared class attributes; and ZZ is a
    tag that the polynomial kernels recognise, with no arithmetic."""
    for F in (QQ, FP, QQ_T, FPT, _Tape(FP)):
        assert not hasattr(F, "eq"), F
        assert hasattr(F, "derivative") == isinstance(F, RationalFunctions), F
    for F in (QQ, FP, QQ_T):
        assert F.zero is F.zero is type(F).zero and F.one is type(F).one, F
    assert QQ_T.zero == FPT.zero == ((), (1,)) and QQ_T.one == FPT.one == ((1,), (1,))
    assert not any(hasattr(ZZ, name) for name in ("from_int", "add", "mul", "neg"))


def test_zero_payloads_normalize():
    assert QQ_T.is_zero(QQ_T.from_poly((Fraction(0),)))
    assert QQ_T.is_zero(QQ_T.from_poly(()))
    assert QQ_T.from_poly((Fraction(0), Fraction(0))) == QQ_T.zero


rf_qq = st.builds(
    qq_t,
    st.lists(st.integers(-9, 9), min_size=1, max_size=3),
    st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(lambda c: any(c)),
)


@given(rf_qq, rf_qq, rf_qq)
def test_rational_function_field_axioms(a, b, c):
    F = QQ_T
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    if not F.is_zero(a):
        assert F.mul(a, F.inv(a)) == F.one


@given(rf_qq)
def test_rational_function_invariants(a):
    assert_canonical(QQ_T, a)
    num, den = a
    assert all(type(c) is int for c in num + den)
    # normalization is idempotent
    assert QQ_T.normalize(num, den) == a


@given(rf_qq, rf_qq)
def test_derivative_product_rule(a, b):
    F = QQ_T
    lhs = F.derivative(F.mul(a, b))
    rhs = F.add(F.mul(F.derivative(a), b), F.mul(a, F.derivative(b)))
    assert lhs == rhs


_SHAPES = ("zero", "const", "rational", "poly", "frac", "monomial_den", "shared_num",
           "shared_den")


@st.composite
def rf_pairs(draw, F):
    """Canonical pairs (a, b) over F covering every shortcut of add, sub and
    mul: zero, integer and rational constants, unit or constant
    denominators, denominators c t^m (c negative on some draws), equal
    denominators that a + b or a - b cancels in full or in part, exactly one
    constant denominator, and a factor h shared across the two operands."""
    K = F.ring
    lift = (lambda c: c) if K is ZZ else K.from_int
    poly = st.lists(st.integers(-4, 4), max_size=3).map(
        lambda cs: pnorm(tuple(map(lift, cs))))
    nonzero = poly.filter(bool)
    h = draw(nonzero)

    def operand(shape):
        num, den = draw(poly), draw(nonzero)
        if shape == "zero":
            return F.zero
        if shape == "const":
            return F.from_int(draw(st.integers(-4, 4)))
        if shape == "rational":
            n, d = draw(st.integers(-6, 6)), draw(st.sampled_from((-4, -3, 2, 3, 6)))
            return F.normalize((lift(n),), (lift(d),))
        if shape == "monomial_den":
            c = draw(st.sampled_from((-6, -1, 1, 2, 4)))
            return F.normalize(num, (0,) * draw(st.integers(1, 3)) + (lift(c),))
        if shape == "poly":
            return F.from_poly(num)
        if shape == "shared_num":
            return F.normalize(pmul(K, num, h), den)
        if shape == "shared_den":
            return F.normalize(num, pmul(K, den, h))
        return F.normalize(num, den)

    a = operand(draw(st.sampled_from(_SHAPES)))
    if draw(st.booleans()):
        # (q*ad + r) / ad keeps a's denominator when r is coprime to ad;
        # r = -an and r = h - an make a + b cancel all or part of it, r = an
        # and r = an - h make a - b do so
        q = draw(poly)
        r = draw(st.sampled_from(((K.one,), psub(K, (), a[0]), psub(K, h, a[0]), a[0],
                                  psub(K, a[0], h))))
        b = F.normalize(padd(K, pmul(K, q, a[1]), r), a[1])
    else:
        b = operand(draw(st.sampled_from(_SHAPES)))
    return a, b


def assert_canonical(F, x):
    """den is monic over F_p; over Q, num and den are int polynomials with
    lc(den) > 0 and coprime in Z[t], content included; checked with the
    Euclidean gcd over the field."""
    num, den = x
    K = F.ring
    if K is ZZ:
        assert den and den[-1] > 0, "lc(den) must be positive"
        assert math.gcd(*num, *den) == 1, "num and den must share no content"
        num, den = (tuple(Fraction(c) for c in p) for p in (num, den))
        K = QQ
    else:
        assert den and den[-1] == K.one, "denominator must be monic"
    if num:
        assert pdeg(pgcd(K, num, den)[0]) == 0, "numerator and denominator must be coprime"
    else:
        assert x == F.zero


@pytest.mark.parametrize("F", [QQ_T, FPT], ids=["QQ(t)", "GF(1000003)(t)"])
@settings(max_examples=60)
@given(data=st.data())
def test_rational_function_ops_match_schoolbook(F, data):
    """Every operation gives the canonical payload of the textbook formula
    num/den: checked by cross-multiplying, got_num * den = num * got_den, and
    with assert_canonical, not with normalize(), which runs the same
    closed-form cancellations as the operations."""
    K = F.ring
    p = K.characteristic
    a, b = data.draw(rf_pairs(F))
    for x in (a, b):
        assert_canonical(F, x)
    (an, ad), (bn, bd) = a, b
    n = data.draw(st.integers(-3, 3).map(FP.p.__mul__) | st.integers(-2**70, 2**70),
                  label="n")
    expected = {
        "neg": (F.neg(a), (psub(K, (), an), ad)),
        "from_int": (F.from_int(n), (pnorm((n % p if p else n,)), (K.one,))),
        "add": (F.add(a, b), (padd(K, pmul(K, an, bd), pmul(K, bn, ad)), pmul(K, ad, bd))),
        "sub": (F.sub(a, b), (psub(K, pmul(K, an, bd), pmul(K, bn, ad)), pmul(K, ad, bd))),
        "mul": (F.mul(a, b), (pmul(K, an, bn), pmul(K, ad, bd))),
        "derivative": (F.derivative(a), (
            psub(K, pmul(K, pderiv(K, an), ad), pmul(K, an, pderiv(K, ad))),
            pmul(K, ad, ad))),
    }
    if bn:
        expected["div"] = (F.div(a, b), (pmul(K, an, bd), pmul(K, ad, bn)))
        expected["inv"] = (F.inv(b), (bd, bn))
    else:
        with pytest.raises(ZeroDivisionError):
            F.div(a, b)
        with pytest.raises(ZeroDivisionError):
            F.inv(b)
    for op, ((got_num, got_den), (num, den)) in expected.items():
        assert pmul(K, got_num, den) == pmul(K, num, got_den), op
        assert_canonical(F, (got_num, got_den))


_CONSTANTS = sorted({Fraction(n, d) for n in (-6, -1, 0, 1, 4, 9) for d in (1, 2, 3, -4)})


def _payload(x):
    """The Q(t) payload of the Fraction x."""
    return ((x.numerator,), (x.denominator,)) if x else QQ_T.zero


def test_constant_ops_are_fraction_ops():
    """On constants of Q(t) every operation is the Fraction operation, and
    none runs a polynomial gcd or product."""
    F = QQ_T
    with mock.patch.object(arith, "pgcd", side_effect=AssertionError("pgcd")), \
            mock.patch.object(arith, "pmul", side_effect=AssertionError("pmul")):
        for x in _CONSTANTS:
            a = _payload(x)
            assert F.neg(a) == _payload(-x)
            assert F.derivative(a) == F.zero
            if x:
                assert F.inv(a) == _payload(1 / x)
            for y in _CONSTANTS:
                b = _payload(y)
                assert F.add(a, b) == _payload(x + y)
                assert F.sub(a, b) == _payload(x - y)
                assert F.mul(a, b) == _payload(x * y)
                if y:
                    assert F.div(a, b) == _payload(x / y)


@settings(max_examples=200)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=5).filter(any),
       st.integers(0, 3), st.integers(1, 4), st.integers(-12, 12).filter(bool))
def test_monomial_denominators_cancel_in_closed_form(coeffs, v, m, c):
    """A den c t^m cancels with num as the Z[t] gcd does, without running it:
    normalize(num, c t^m) gives the cofactors of pgcd, with lc(den) > 0."""
    num, den = pnorm((0,) * v + tuple(coeffs)), (0,) * m + (c,)
    g, qn, qd = pgcd(ZZ, num, den)
    want = (qn, qd) if qd[-1] > 0 else (psub(ZZ, (), qn), psub(ZZ, (), qd))
    with mock.patch.object(arith, "pgcd", side_effect=AssertionError("pgcd")):
        got = QQ_T.normalize(num, den)
    assert got == want
    assert_canonical(QQ_T, got)


# ---------------------------------------------------------------------------
# dense polynomial helpers


poly_qq = st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                   min_size=0, max_size=5).map(lambda cs: pnorm(tuple(cs)))


@given(poly_qq, poly_qq)
def test_pdivmod_round_trip(a, b):
    if not b:
        with pytest.raises(ZeroDivisionError):
            pdivmod(QQ, a, b)
        return
    q, r = pdivmod(QQ, a, b)
    assert pnorm(tuple(x + y for x, y in
                       zip(pmul(QQ, q, b) + (Fraction(0),) * 9,
                           r + (Fraction(0),) * 9))[:9]) == a
    assert pdeg(r) < pdeg(b) or not r


@given(poly_qq, poly_qq)
def test_pgcd_divides_both(a, b):
    g, ca, cb = pgcd(QQ, a, b)
    if not g:
        assert not a and not b
        return
    assert g[-1] == 1  # monic
    for p, cp in ((a, ca), (b, cb)):
        if p:
            assert not pdivmod(QQ, p, g)[1]
        assert pmul(QQ, cp, g) == p  # the cofactors
    m = plcm(QQ, a, b)
    if a and b:
        assert pdeg(m) == pdeg(a) + pdeg(b) - pdeg(g)


zpoly = st.lists(st.integers(-60, 60), max_size=6).map(lambda cs: pnorm(tuple(cs)))


def _fractions(p):
    return tuple(Fraction(c) for c in p)


def _primitive(p):
    c = math.gcd(*p)
    return tuple(x // c for x in p)


@settings(max_examples=200)
@given(zpoly, zpoly, zpoly)
def test_zz_gcd_matches_euclid_over_q(a, b, h):
    """The Z[t] gcd, on random inputs and on inputs with a planted common
    factor h, is the monic Euclidean gcd over Q up to a positive content
    that is the gcd of the contents; the GCDHEU route agrees with sympy's,
    and the primitive Euclid it falls back to agrees as well, called
    directly and through pgcd with GCDHEU switched off."""
    for x, y in ((a, b), (pmul(ZZ, a, h), pmul(ZZ, b, h))):
        g, cx, cy = pgcd(ZZ, x, y)
        assert pmonic(QQ, _fractions(g)) == pgcd(QQ, _fractions(x), _fractions(y))[0]
        assert g == zz_heu_gcd_oracle(x, y)
        if not g:
            assert not x and not y
            continue
        assert g[-1] > 0 and math.gcd(*g) == math.gcd(*x, *y)
        for p, cp in ((x, cx), (y, cy)):
            assert pmul(ZZ, cp, g) == p and pexquo(ZZ, p, g) == cp
        if len(x) > 1 and len(y) > 1:
            assert arith._zz_euclid_gcd(_primitive(x), _primitive(y)) == _primitive(g)
        with mock.patch.object(arith, "_HEU_TRIES", 0):
            assert pgcd(ZZ, x, y) == (g, cx, cy)


def _planted(ring, coeffs, v):
    """t^v times the polynomial of coeffs over ring (ZZ or FP)."""
    if ring is FP:
        coeffs = [c % FP.p for c in coeffs]
    return pnorm((0,) * v + tuple(coeffs)) if any(coeffs) else ()


@settings(max_examples=200)
@given(st.sampled_from([ZZ, FP]), st.lists(st.integers(-60, 60), max_size=4),
       st.lists(st.integers(-60, 60), max_size=4), st.lists(st.integers(-9, 9), max_size=3),
       st.integers(0, 4), st.integers(0, 4))
def test_pgcd_splits_off_powers_of_t(ring, a, b, h, i, j):
    """With t^i and t^j planted on the operands (and a common factor h on
    some draws), the gcd and cofactors equal Euclid's over the field: over
    GF(p) exactly, over ZZ up to the positive content gcd(cont x, cont y).
    Constant and monomial operands, c t^m, are among the draws."""
    x, y = _planted(ring, a, i), _planted(ring, b, j)
    if h:
        x, y = pmul(ring, x, _planted(ring, h, 0)), pmul(ring, y, _planted(ring, h, 0))
    g, cx, cy = pgcd(ring, x, y)
    if ring is FP:
        assert (g, cx, cy) == ref_pgcd(FP, x, y)
    else:
        fx, fy = _fractions(x), _fractions(y)
        assert pmonic(QQ, _fractions(g)) == ref_pgcd(QQ, fx, fy)[0]
        if g:
            assert g[-1] > 0 and math.gcd(*g) == math.gcd(*x, *y)
    ref = QQ if ring is ZZ else ring  # ZZ is a tag without field methods
    for p, cp in ((x, cx), (y, cy)):
        assert ref_pmul(ref, cp, g) == p


def _fp_poly(data, length):
    """A polynomial over FP of exactly length coefficients, some of the low
    ones zero."""
    if not length:
        return ()
    coeffs = data.draw(st.lists(st.integers(0, FP.p - 1), min_size=length, max_size=length))
    low = data.draw(st.integers(0, min(3, length - 1)))
    return tuple([0] * low + coeffs[low:-1] + [coeffs[-1] or 1])


@pytest.mark.parametrize("ring", [FP, ZZ], ids=["GF(1000003)", "ZZ"])
@settings(max_examples=40)
@given(data=st.data())
def test_poly_kernels_match_field_methods(ring, data):
    """pmul, pdivmod, padd, psub, pderiv, peval and pmonic on plain ints
    equal the field-method loops, on both sides of the Kronecker cutoff of
    pmul (63 and 64 coefficients)."""
    lengths = st.sampled_from([0, 1, 2, 3, 7, 63, 64, 66])
    a = _fp_poly(data, data.draw(lengths, label="len a"))
    b = _fp_poly(data, data.draw(lengths, label="len b"))
    if ring is ZZ:  # signed coefficients
        a, b = (tuple(c - FP.p // 2 if c else 0 for c in p[:-1]) + p[-1:] for p in (a, b))
    x = data.draw(st.integers(0, FP.p - 1), label="x")
    ref = QQ if ring is ZZ else ring  # ZZ is a tag without field methods
    assert pmul(ring, a, b) == ref_pmul(ref, a, b)
    assert padd(ring, a, b) == ref_padd(ref, a, b)
    assert psub(ring, a, b) == ref_psub(ref, a, b)
    assert psub(ring, a, a) == ()
    assert pderiv(ring, a) == ref_pderiv(ref, a)
    assert peval(ring, a, x) == ref_peval(ref, a, x)
    if ring is FP and b:
        assert pdivmod(FP, a, b) == ref_pdivmod(FP, a, b)
        assert pmonic(FP, b) == ref_pgcd(FP, b, ())[0]


def test_pderiv_and_peval():
    p = (Fraction(1), Fraction(2), Fraction(3))  # 1 + 2t + 3t^2
    assert pderiv(QQ, p) == (Fraction(2), Fraction(6))
    assert peval(QQ, p, Fraction(2)) == 17
    assert pmonic(QQ, (Fraction(2), Fraction(4))) == (Fraction(1, 2), Fraction(1))


def test_interpolate_golden():
    pts = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(3)),
           (Fraction(2), Fraction(7))]
    assert interpolate(QQ, pts) == (Fraction(1), Fraction(1), Fraction(1))


# The fields a Lagrange table is tested over, with the map from ints into each.
_TABLE_FIELDS = {"Fp": (FP, lambda n: n % FP.p), "QQ": (QQ, Fraction)}


@pytest.mark.parametrize("field", sorted(_TABLE_FIELDS))
@given(st.lists(st.lists(st.integers(-40, 40), unique=True, max_size=9),
                min_size=1, max_size=3),
       st.lists(st.lists(st.integers(-99, 99), min_size=9, max_size=9),
                min_size=1, max_size=3))
def test_interpolate_shared_table_equals_newton(field, abscissa_lists, value_lists):
    """interpolate through every prefix of several lists of abscissae, for
    several value lists, all on one AbscissaTable, gives the Newton form's
    polynomial: the table keeps the basis of each tuple of abscissae apart."""
    F, lift = _TABLE_FIELDS[field]
    table = AbscissaTable(F)
    for values in value_lists:
        for xs in abscissa_lists:
            xs = [lift(x) for x in xs]
            for n in range(len(xs) + 1):
                pts = list(zip(xs[:n], map(lift, values)))
                assert interpolate(F, pts, table) == newton_interpolate(F, pts)


@pytest.mark.parametrize("field", sorted(_TABLE_FIELDS))
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=5), st.integers(-40, 40),
       st.integers(-9, 9))
def test_repeated_abscissae_raise_with_a_table(field, values, x, y):
    """An abscissa that repeats raises ValueError, whether the table is
    shared, fresh, or already holds the basis of the distinct prefix."""
    F, lift = _TABLE_FIELDS[field]
    pts = [(lift(x + i), lift(v)) for i, v in enumerate(values)]
    table = AbscissaTable(F)
    interpolate(F, pts, table)
    repeated = pts + [(pts[0][0], lift(y))]
    for shared in (table, None):
        with pytest.raises(ValueError, match="repeated abscissae"):
            interpolate(F, repeated, shared)
        with pytest.raises(ValueError, match="repeated abscissae"):
            cauchy_interpolate(F, repeated, (1, 1), shared)


@pytest.mark.parametrize("field", sorted(_TABLE_FIELDS))
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-9, 9), max_size=4),
                          st.lists(st.integers(-9, 9), min_size=1, max_size=3)),
                min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_streams_sharing_a_table_match_own_tables(field, fractions, seed):
    """Streams over one sample pool of several rational functions, fitted
    with one shared AbscissaTable, give the same fits and draw the same
    number of points as when each stream builds its own table; each fit
    is the function sampled."""
    F, lift = _TABLE_FIELDS[field]
    funcs = []
    for num, den in fractions:
        num, den = pnorm(tuple(map(lift, num))), pnorm(tuple(map(lift, den)))
        funcs.append((num, den or (F.one,)))

    def reconstruct(shared):
        rng = random.Random(seed)
        used = set()

        def draw():
            while True:
                a = lift(rng.randrange(-200, 200))
                dens = [peval(F, den, a) for _, den in funcs]
                if a not in used and not any(F.is_zero(d) for d in dens):
                    used.add(a)
                    return a, [F.div(peval(F, num, a), d)
                               for (num, _), d in zip(funcs, dens)]

        pool = _SamplePool(draw)
        fits, drawn = [], []
        for j in range(len(funcs)):
            stream = pool.stream(lambda sample, j=j: sample[j])
            taken = []
            fits.append(adaptive_reconstruct(
                F, (taken.append(s) or s for s in stream), max_points=32,
                table=shared))
            drawn.append(len(taken))
        return fits, drawn, pool.samples

    shared = reconstruct(AbscissaTable(F))
    assert shared == reconstruct(None)
    for (num, den), (fit_num, fit_den) in zip(funcs, shared[0]):
        assert pmul(F, num, fit_den) == pmul(F, fit_num, den)


def test_qpoly_clear_denominators():
    ints, den = qpoly_clear_denominators((Fraction(1, 2), Fraction(3, 4)))
    assert ints == (2, 3) and den == 4
    polys = collective_primitive([(Fraction(2), Fraction(4)), (Fraction(6),)])
    assert polys == [(1, 2), (3,)]


# ---------------------------------------------------------------------------
# primality


@pytest.mark.parametrize(
    "n,expected",
    [
        (2, True), (3, True), (4, False), (561, False), (1105, False),
        (2047, False), (1000003, True), ((1 << 31) - 1, True),
        (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
        (1, False), (0, False),
        (7, True), (61, True),  # primes that are also Miller-Rabin bases
        (4759123141, False),  # 48781 * 97561, strong pseudoprime to 2, 7, 61
    ],
)
def test_is_prime(n, expected):
    assert is_prime(n) is expected


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**4) if is_prime(n)] == \
        [n for n in range(10**4) if trial(n)]


def test_random_prime_31_in_range():
    rng = random.Random(11)
    for _ in range(20):
        p = random_prime_field(rng).p
        assert (1 << 30) <= p < (1 << 31) and is_prime(p)


# ---------------------------------------------------------------------------
# reconstruction primitives


def test_modular_image_validation():
    ModularImage(FP, 5)
    with pytest.raises(TypeError):
        ModularImage(FP)  # the point is required
    for field, point in ((PrimeField(2), 1),  # even prime
                         (PrimeField(2147483659), 5),  # prime above 2^31
                         (FP, FP.p),  # point outside [0, p)
                         (FP, -1),
                         (1000003, 5)):  # a bare int is not a field
        with pytest.raises(ValueError):
            ModularImage(field, point)


def test_crt_golden():
    assert crt_combine([(2, 3), (3, 5)]) == (8, 15)
    with pytest.raises(ValueError):
        crt_combine([(1, 3), (2, 3)])
    with pytest.raises(ValueError):
        crt_combine([])


@given(st.integers(-(1 << 15) + 1, (1 << 15) - 1), st.integers(1, (1 << 15) - 1),
       st.integers(0, 2**32 - 1))
def test_crt_rational_reconstruction_round_trip(p, q, seed):
    """p/q with |p|, q < 2^15 comes back through three 31-bit primes."""
    rng = random.Random(seed)
    frac = Fraction(p, q)
    primes = []
    while len(primes) < 3:
        c = random_prime_field(rng).p
        if c not in primes and frac.denominator % c:
            primes.append(c)
    residues = [(frac.numerator * pow(frac.denominator, -1, pj) % pj, pj)
                for pj in primes]
    u, modulus = crt_combine(residues)
    assert rational_reconstruct(u, modulus) == frac


def test_rational_reconstruct_failure_is_none():
    # residues with no representation p/q, |p|, q <= sqrt(N/2)
    assert rational_reconstruct(441001, 1000003) is None
    assert rational_reconstruct(536110, 1000003) is None


@given(
    st.lists(st.integers(0, FP.p - 1), min_size=1, max_size=6),
    st.lists(st.integers(0, FP.p - 1), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_cauchy_interpolation_round_trip(num_ints, den_ints, seed):
    """Degree <= 5/5 rational functions over F_p come back from 12+ points."""
    rng = random.Random(seed)
    num = pnorm(tuple(num_ints))
    den = pnorm(tuple(den_ints))
    if not den:
        den = (1,)
    num, den = FPT.normalize(num, den)
    if not den or pdeg(den) > 5:
        den = (1,)
    pts = []
    seen = set()
    while len(pts) < 14:
        a = rng.randrange(FP.p)
        if a in seen:
            continue
        seen.add(a)
        dv = peval(FP, den, a)
        if dv == 0:
            continue
        pts.append((a, FP.mul(peval(FP, num, a), FP.inv(dv))))
    got = cauchy_interpolate(FP, pts, (5, 5))
    assert got == (num, den)


def test_cauchy_interpolate_rejects_out_of_bounds():
    # values of t^3 cannot fit numerator degree <= 2 with denominator degree 0
    pts = [(a, FP.mul(a, FP.mul(a, a))) for a in range(6)]
    assert cauchy_interpolate(FP, pts, (2, 0)) is None
    with pytest.raises(ValueError):
        cauchy_interpolate(FP, pts[:2], (2, 0))
    with pytest.raises(ValueError):
        cauchy_interpolate(FP, [(1, 1), (1, 1), (2, 2), (3, 3)], (1, 1))


def eval_stream(num, den, rng):
    while True:
        a = rng.randrange(FP.p)
        dv = peval(FP, den, a)
        if dv:
            yield a, FP.mul(peval(FP, num, a), FP.inv(dv))


def test_adaptive_reconstruct_recovers():
    rng = random.Random(3)
    num, den = FPT.normalize((3, 0, 1), (5, 1, 0, 2))  # (3+t^2)/(5+t+2t^3)
    got = adaptive_reconstruct(FP, eval_stream(num, den, rng))
    assert got == (num, den)


def test_adaptive_reconstruct_rejects_corrupted_evaluation():
    """One lying sample can never be confirmed; the budget error reports it."""
    rng = random.Random(4)
    num, den = FPT.normalize((3, 0, 1), (5, 1, 0, 2))
    honest = eval_stream(num, den, rng)

    def corrupted():
        for i, (a, v) in enumerate(honest):
            yield (a, (v + 1) % FP.p) if i == 2 else (a, v)

    with pytest.raises(BudgetExhaustedError):
        adaptive_reconstruct(FP, corrupted(), max_points=64)


def test_adaptive_reconstruct_budget():
    rng = random.Random(5)
    with pytest.raises(BudgetExhaustedError):
        adaptive_reconstruct(FP, eval_stream((1,), (1, 1), rng), max_points=2)


# ---------------------------------------------------------------------------
# value classes


def test_value_classes_compare_and_hash_by_fields():
    """Votes count Confinements, sorted_terms caches by order and a
    ReducedBasis is kept per order: all rely on equality and hash by the
    fields, within one class only."""
    m = Monomial((0, 1), (1, 0), 1)
    cases = [  # (a, an equal copy, one with another field value)
        (Algebra(2), Algebra(2, 1, QQ, False), Algebra(2, r=2)),
        (MonomialOrder("grevlex", 2), grevlex(2), MonomialOrder("block", 2)),
        (PrimeField(7), PrimeField(7, verified=True), PrimeField(11)),
        (RationalFunctions(FP), FPT, QQ_T),
        (Confinement(m, (m,), (m,), frozenset()), Confinement(m, (m,), (m,), frozenset()),
         Confinement(m, (), (m,), frozenset())),
        (Telescoper(((1,),)), Telescoper(((1,),)), Telescoper(((0, 1),))),
    ]
    for a, b, c in cases:
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != c and len({a, b, c}) == 2
    assert hash(Algebra(2)) == hash((2, 1, QQ, False))
    assert hash(PrimeField(7)) == hash((7,))
    assert repr(Algebra(2)) == "Algebra(n=2, r=1, field=QQ, dt=False)"
    # no equality across classes, even where the fields agree
    assert QQ != ZZ and PrimeField(7) != (7,) and Telescoper(((1,),)) != ((1,),)
    P = Algebra(2).dvar(0) + Algebra(2).xvar(1)
    assert sorted_terms(P, grevlex(2)) is sorted_terms(P, grevlex(2))


def test_modular_config_defaults_on_the_class():
    """The CLI and scripts read the --point-budget default off the class.  A
    workers keyword is accepted and ignored."""
    assert ModularConfig._fields == ("seed", "max_points")
    assert (ModularConfig.seed, ModularConfig.max_points) == (0, 2048)
    assert ModularConfig() == ModularConfig(0, 2048) != ModularConfig(seed=1)
    ignored = [ModularConfig(seed=3, workers=w) for w in (0, 1, 2)]
    assert ignored == [ModularConfig(seed=3)] * 3
    assert repr(ignored[2]) == "ModularConfig(seed=3, max_points=2048)"
    with pytest.raises(TypeError):
        hash(ModularConfig())
