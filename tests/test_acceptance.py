"""End-to-end acceptance gate: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Golden values come from independent oracles: closed-form
series recurrences, commutative Groebner bases via sympy, backtracking
graph enumeration, and hand-checked small reductions.
"""

import hashlib
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from _helpers import discarded_prime, outvoted_tracer_vote
from _oracles import apply_to_polynomial, gd_irreducibility_oracle
from weylred.arith import (
    QQ,
    QQ_T,
    BudgetExhaustedError,
    PrimeField,
    adaptive_reconstruct,
    cauchy_interpolate,
    crt_combine,
    peval,
    random_prime_field,
    rational_reconstruct,
)
from weylred.cli import telescoper_document
from weylred.groebner import buchberger, lrem, rrem
from weylred.kregular import (
    build_ideal,
    count_regular_graphs,
    from_model,
    model_polynomials,
    regular_presentation,
    scalar_product_series,
    verify_ode_on_series,
)
from weylred.reduction import (
    ReductionContext,
    compute_eta_basis,
    largest_monomial_of_degree,
    reduce_eta,
    reduced_form,
)
from weylred.telescoping import (
    ModularConfig,
    _reduced_images,
    apply_linear,
    confine,
    telescope_direct,
    telescope_modular,
)
from weylred.weyl import (
    Algebra,
    Monomial,
    WeylOperator,
    block_order,
    lex_order,
    mul,
    op_scale,
)

T = QQ_T.from_poly((Fraction(0), Fraction(1)))


def qt(*coeffs):
    return QQ_T.from_poly(tuple(Fraction(c) for c in coeffs))


# ---------------------------------------------------------------------------


def test_criterion_01_groebner_basis_golden(airy):
    """The reduced basis of the cubic-exponential ideal, element for element."""
    t0 = time.monotonic()
    G = buchberger(airy.generators, airy.order)
    elapsed = time.monotonic() - t0

    A = airy.algebra
    o = (0, 0, 0)

    def op(terms, scale=1):
        built = A.operator(
            {A.monomial(a, b): QQ_T.from_poly(tuple(Fraction(v) for v in c))
             for (a, b), c in terms.items()}
        )
        return op_scale(built, qt(Fraction(1, scale)))

    e1 = op({
        ((0, 2, 0), o): (1,), ((0, 0, 1), o): (-1,),
        (o, (0, 1, 0)): (-1,), (o, o): (0, -1),
    })
    e2 = op({
        ((0, 1, 1), o): (14,), ((0, 1, 0), (1, 0, 0)): (8,),
        ((0, 1, 0), (0, 1, 0)): (-2,), ((0, 1, 0), o): (0, 6),
        ((0, 0, 1), (0, 0, 1)): (-11,), (o, (0, 0, 3)): (1,),
        (o, (1, 0, 1)): (-4,), (o, (0, 1, 1)): (-3,),
        (o, (0, 0, 1)): (0, -7), (o, o): (-11,),
    }, 14)
    e3 = op({
        ((0, 0, 2), o): (49,), ((0, 1, 0), o): (14,),
        ((0, 0, 1), (0, 0, 2)): (-18,), ((0, 0, 1), (1, 0, 0)): (56,),
        ((0, 0, 1), (0, 1, 0)): (-14,), ((0, 0, 1), o): (0, 42),
        (o, (0, 0, 4)): (1,), (o, (1, 0, 2)): (-8,),
        (o, (0, 1, 2)): (-2,), (o, (2, 0, 0)): (16,),
        (o, (1, 1, 0)): (-8,), (o, (0, 2, 0)): (1,),
        (o, (0, 0, 2)): (0, -10), (o, (1, 0, 0)): (0, 24),
        (o, (0, 1, 0)): (0, -6), (o, (0, 0, 1)): (-20,),
        (o, o): (0, 0, 9),
    }, 49)
    e4 = op({((1, 0, 0), o): (2,), ((0, 1, 0), o): (1,), (o, (0, 0, 1)): (1,)}, 2)
    e5 = op({
        ((0, 1, 0), (0, 0, 1)): (2,), ((0, 0, 1), o): (-7,),
        (o, (0, 0, 2)): (1,), (o, (1, 0, 0)): (-4,),
        (o, (0, 1, 0)): (1,), (o, o): (0, -3),
    }, 2)

    assert set(G) == {e1, e2, e3, e4, e5}
    assert elapsed < 5.0, f"basis took {elapsed:.2f}s"


def test_criterion_02_reduction_goldens(airy):
    """LRem, [.], the degree-2 echelon row, and [.]_eta on y^2."""
    t0 = time.monotonic()
    A = airy.algebra
    y, z = A.xvar(1), A.xvar(2)
    y2 = mul(y, y)

    rem, cert = lrem(y2, airy.gb, airy.order)
    assert rem == z + A.operator({A.monomial((0, 0, 0), (0, 1, 0)): QQ_T.one}) + A.scalar(T)
    assert cert.verifies(y2 - rem)

    red, _ = reduced_form(y2, airy.ctx)
    assert red == z + A.scalar(T)

    eta = largest_monomial_of_degree(A, airy.order, 2)
    B = compute_eta_basis(airy.ctx, eta)
    assert len(B.rows) == 1
    # the row spans 7z + 3t (stored monic)
    assert op_scale(B.rows[0].op, qt(7)) == op_scale(z, qt(7)) + A.scalar(qt(0, 3))

    assert reduce_eta(y2, airy.ctx, B) == A.scalar(qt(0, Fraction(4, 7)))
    assert time.monotonic() - t0 < 1.0


def test_criterion_03_confinement_golden(airy):
    """confine(rho=1) lands on (x^2, {1, y}) after one threshold escalation."""
    t0 = time.monotonic()
    conf = confine(airy.ctx, airy.pres.L, airy.pres.f, rho=1)
    assert conf.eta == Monomial((2, 0, 0), (0, 0, 0), 1)
    assert conf.B == (
        Monomial((0, 0, 0), (0, 0, 0), 1),
        Monomial((0, 1, 0), (0, 0, 0), 1),
    )
    # the search started at s = rho = 1 and restarted once: final degree 2
    assert conf.eta.degree() == 2
    assert time.monotonic() - t0 < 1.0


def test_criterion_04_airy_telescoper(airy):
    """Both drivers produce 7 d_t^2 - t; series recurrence confirms, two seeds."""
    t0 = time.monotonic()
    tel = telescope_direct(airy.pres, rho=1)
    assert tel.coefficients == ((0, -1), (), (7,))
    run = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7, workers=2))
    assert run.telescoper == tel
    # independent oracle: a_{m+3} = a_m / (7 (m+3) (m+2))
    for seed in ((1, 0), (0, 1)):
        a = [Fraction(seed[0]), Fraction(seed[1]), Fraction(0)]
        for m in range(10):
            a.append(a[m] / (7 * (m + 3) * (m + 2)))
        assert verify_ode_on_series(tel, tuple(a))
    assert time.monotonic() - t0 < 10.0


def test_criterion_05_two_regular(k2):
    """k=2: ideal basis, order-1 degree-2 telescoper, triple-checked counts."""
    t0 = time.monotonic()
    A = k2.inp.algebra
    gens = build_ideal(k2.inp)
    assert gens[0].terms == {
        A.monomial((1, 0), (0, 0)): qt(1, -1),  # (1-t) p1
        A.monomial((0, 0), (1, 0)): T,          # + t d1
    }
    assert gens[1] == A.xvar(1) - A.scalar(T)

    tel = telescope_direct(k2.pres)
    assert tel.coefficients == ((0, 0, 1), (-2, 2))
    assert tel.order == 1 and max(tel.degrees) == 2

    f2, g2 = model_polynomials(2)
    series = scalar_product_series(f2, g2, 10)
    assert verify_ode_on_series(tel, series)
    for n, expected in ((3, 1), (4, 3), (5, 12), (6, 70)):
        assert series[n] * factorial(n) == expected
        assert count_regular_graphs(2, n) == expected
    assert time.monotonic() - t0 < 10.0


def test_criterion_06_three_regular(k3):
    """k=3: the exact order-2, degree-11 operator and the published counts."""
    t0 = time.monotonic()
    tel = telescope_direct(k3.pres)
    assert tel.coefficients == (
        (0, 0, 0, -4, 0, 8, 0, 0, 0, -4, 0, -1),
        (24, 0, -78, 0, -18, 0, 9, 0, 18, 0, 3),
        (0, 0, 0, -18, 0, 18, 0, 9),
    )
    assert tel.order == 2 and max(tel.degrees) == 11

    f3, g3 = model_polynomials(3)
    series = scalar_product_series(f3, g3, 10)
    for n, expected in ((0, 1), (4, 1), (6, 70), (8, 19355), (10, 11180820)):
        assert series[n] * factorial(n) == expected
    assert verify_ode_on_series(tel, series, allow_partial=True)
    assert time.monotonic() - t0 < 60.0


@pytest.mark.slow
def test_criterion_07_four_and_five_regular():
    """k=4 gives (2, 14); k=5 gives (6, 125); both ODEs hold to t^12."""
    t0 = time.monotonic()
    _, pres4 = regular_presentation(4)
    tel4 = telescope_direct(pres4)
    assert (tel4.order, max(tel4.degrees)) == (2, 14)
    f4, g4 = model_polynomials(4)
    assert verify_ode_on_series(tel4, scalar_product_series(f4, g4, 12),
                                allow_partial=True)

    _, pres5 = regular_presentation(5)
    run5 = telescope_modular(pres5, config=ModularConfig(seed=0, workers=4))
    tel5 = run5.telescoper
    assert (tel5.order, max(tel5.degrees)) == (6, 125)
    assert telescoper_document(telescope_direct(pres5)) == telescoper_document(tel5)
    # N = 6 and |B| = 6, the largest per-prime relation search in the suite:
    # SHA-256 of the telescoper document followed by the joined transcript
    text = telescoper_document(tel5) + "\n".join(run5.transcript)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "059539f3a3d12e1bfcb87babd61d17e73688c67e1df935ddb78b387572d57e67")
    f5, g5 = model_polynomials(5)
    assert verify_ode_on_series(tel5, scalar_product_series(f5, g5, 12),
                                allow_partial=True)
    assert time.monotonic() - t0 < 900.0


def test_criterion_08_modular_direct_equality(airy, k3):
    """Modular output is byte-identical to direct, independent of worker count."""
    for pres in (airy.pres, k3.pres):
        direct_doc = telescoper_document(telescope_direct(pres))
        runs = [
            telescope_modular(pres, config=ModularConfig(seed=5, workers=w))
            for w in (1, 8)
        ]
        docs = [telescoper_document(r.telescoper) for r in runs]
        assert docs[0] == docs[1] == direct_doc
        assert runs[0].transcript == runs[1].transcript


def test_criterion_09_property_sweeps(airy, k2):
    """Randomized invariant families, at least 100 cases each."""
    rng = random.Random(99)

    # -- Weyl arithmetic: associativity, module action, degree additivity
    A2 = Algebra(2)

    def rand_op(max_terms=3, max_exp=2):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            alpha = tuple(rng.randint(0, max_exp) for _ in range(2))
            beta = tuple(rng.randint(0, max_exp) for _ in range(2))
            terms[A2.monomial(alpha, beta)] = Fraction(rng.randint(-9, 9) or 1)
        return A2.operator(terms)

    for _ in range(100):
        P, Q, R = rand_op(), rand_op(), rand_op()
        assert mul(mul(P, Q), R) == mul(P, mul(Q, R))
        poly = {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(1, 9))}
        assert apply_to_polynomial(mul(P, Q), poly) == apply_to_polynomial(
            P, apply_to_polynomial(Q, poly)
        )
        assert mul(P, Q).degree() == P.degree() + Q.degree()

    # -- random ideal members reduce to zero against the basis
    A = airy.algebra
    small = [
        A.monomial(a, b)
        for a in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0))
        for b in ((0, 0, 0), (1, 0, 0), (0, 0, 1))
    ]
    for _ in range(100):
        combo = A.zero()
        for g in airy.gb:
            if rng.random() < 0.5:
                m = small[rng.randrange(len(small))]
                combo = combo + mul(
                    A.operator({m: QQ_T.from_int(rng.randint(-3, 3) or 1)}), g
                )
        rem, _ = lrem(combo, airy.gb, airy.order, certificate=False)
        assert rem.is_zero()

    # -- certificates re-expand on every reduction path
    eta = largest_monomial_of_degree(A, airy.order, 2)
    B_eta = compute_eta_basis(airy.ctx, eta)
    for i in range(100):
        u = A.operator(
            {small[rng.randrange(len(small))]: QQ_T.from_poly(
                (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-2, 2)))
            ) for _ in range(rng.randint(1, 2))}
        )
        path = i % 4
        if path == 0:
            rem, cert = lrem(u, airy.gb, airy.order)
        elif path == 1:
            rem, cert = rrem(u)
        elif path == 2:
            rem, cert = reduced_form(u, airy.ctx)
        else:
            rem, cert = reduce_eta(u, airy.ctx, B_eta, certificate=True)
        assert cert.verifies(u - rem)

    # -- K-linearity of [.] and [.]_eta
    for i in range(100):
        u = A.operator({small[rng.randrange(len(small))]: QQ_T.from_int(rng.randint(1, 5))})
        v = A.operator({small[rng.randrange(len(small))]: QQ_T.from_int(rng.randint(1, 5))})
        a, b = qt(rng.randint(-3, 3), 1), qt(rng.randint(1, 3))
        combo = op_scale(u, a) + op_scale(v, b)
        if i % 2:
            f = lambda w: reduced_form(w, airy.ctx, certificate=False)[0]
        else:
            f = lambda w: reduce_eta(w, airy.ctx, B_eta)
        assert f(combo) == op_scale(f(u), a) + op_scale(f(v), b)

    # -- effective confinement on every confine output
    checked = 0
    for trial in range(60):
        f = A.operator(
            {small[rng.randrange(len(small))]: QQ_T.from_int(rng.randint(-4, 4) or 1)
             for _ in range(rng.randint(1, 2))}
        )
        conf = confine(airy.ctx, airy.pres.L, f, rho=1)
        basis_e = compute_eta_basis(airy.ctx, conf.eta, certificate=False)
        _, matrix = _reduced_images(conf, airy.ctx, airy.pres.L, f)
        index = {m: k for k, m in enumerate(conf.B)}
        for m in conf.B:
            img = reduce_eta(
                apply_linear(airy.pres.L, WeylOperator(A, {m: QQ_T.one})),
                airy.ctx, basis_e,
            )
            assert set(img.support()) <= set(conf.B)
            vec = [QQ_T.zero] * len(conf.B)
            for mm, c in img.terms.items():
                vec[index[mm]] = c
            assert tuple(vec) == matrix[index[m]]
            checked += 1
        g0 = reduce_eta(f, airy.ctx, basis_e)
        assert set(g0.support()) <= set(conf.B)
        checked += 1
    assert checked >= 100, checked

    # -- vanishing under eta-escalation for members of S + dW
    A1 = Algebra(1, field=QQ)
    ord1 = lex_order(1, sequence=(0, 1))
    ctx1 = ReductionContext(A1, ord1, buchberger((A1.dvar(0),), ord1))
    d1 = A1.dvar(0)
    flagged = 0
    for _ in range(100):
        w = A1.operator(
            {A1.monomial((rng.randint(0, 5),), (0,)): Fraction(rng.randint(-4, 4) or 1)
             for _ in range(rng.randint(1, 3))}
        )
        q = A1.operator(
            {A1.monomial((rng.randint(0, 4),), (0,)): Fraction(rng.randint(-4, 4) or 1)}
        )
        u = mul(d1, w) + mul(q, d1)
        if u.is_zero():
            continue
        for s in range(1, u.degree() + 7):
            Bs = compute_eta_basis(ctx1, largest_monomial_of_degree(A1, ord1, s))
            if reduce_eta(u, ctx1, Bs).is_zero():
                break
        else:
            flagged += 1  # flag, don't fail: record the non-vanishing witness
    assert flagged == 0, f"{flagged} members failed to vanish below the ceiling"

    # -- Griffiths-Dwork correspondence for x1^3 + x2^3 up to degree 8
    std, _ = gd_irreducibility_oracle(2, {(3, 0): 1, (0, 3): 1}, 8)
    Agd = Algebra(2, field=QQ)
    x1, x2 = Agd.xvar(0), Agd.xvar(1)
    three = Agd.scalar(Fraction(3))
    ogd = block_order(2)
    ctx_gd = ReductionContext(
        Agd, ogd,
        buchberger((Agd.dvar(0) - mul(three, mul(x1, x1)),
                    Agd.dvar(1) - mul(three, mul(x2, x2))), ogd),
    )
    cases = 0
    for a1 in range(9):
        for a2 in range(9 - a1):
            m = Monomial((a1, a2), (0, 0), 1)
            assert ctx_gd.is_irreducible_monomial(m) == ((a1, a2) in std)
            cases += 1
    for _ in range(100 - cases if cases < 100 else 55):
        m = Monomial((rng.randint(0, 4), rng.randint(0, 4)),
                     (rng.randint(0, 2), rng.randint(1, 2)), 1)
        assert not ctx_gd.is_irreducible_monomial(m)  # derivatives always reduce
        cases += 1
    assert cases >= 100

    # -- the u operators commute for every model up to k = 6
    pairs = 0
    for k in range(2, 7):
        inp = from_model(k)
        for i in range(k):
            for j in range(k):
                assert mul(inp.u[i], inp.u[j]) == mul(inp.u[j], inp.u[i])
                pairs += 1
    inp5 = from_model(5)
    for _ in range(10):
        i, j, l = rng.randrange(5), rng.randrange(5), rng.randrange(5)
        assert mul(mul(inp5.u[i], inp5.u[j]), inp5.u[l]) == mul(
            inp5.u[i], mul(inp5.u[j], inp5.u[l])
        )
        pairs += 1
    assert pairs >= 100

    # -- CRT + rational reconstruction + Cauchy interpolation round trips
    for trial in range(100):
        p_num = rng.randint(-(2**15) + 1, 2**15 - 1)
        q_den = rng.randint(1, 2**15 - 1)
        target = Fraction(p_num, q_den)
        primes = set()
        while len(primes) < 3:
            primes.add(random_prime_field(rng).p)
        residues = [
            ((target.numerator * pow(target.denominator, -1, p)) % p, p)
            for p in sorted(primes)
        ]
        value, modulus = crt_combine(residues)
        assert rational_reconstruct(value, modulus) == target

        if trial % 2:
            Fp = PrimeField(1000003)
            num = tuple(rng.randint(0, Fp.p - 1) for _ in range(3)) + (1,)
            den = tuple(rng.randint(0, Fp.p - 1) for _ in range(3)) + (1,)
            points = []
            seen = set()
            while len(points) < 12:
                a = rng.randrange(Fp.p)
                if a in seen:
                    continue
                seen.add(a)
                dv = peval(Fp, den, a)
                if Fp.is_zero(dv):
                    continue
                points.append((a, Fp.div(peval(Fp, num, a), dv)))
            rec = cauchy_interpolate(Fp, points, (3, 3))
            assert rec is not None
            rnum, rden = rec
            a0, v0 = points[0]
            assert Fp.eq(Fp.div(peval(Fp, rnum, a0), peval(Fp, rden, a0)), v0)


def test_criterion_10_fault_injection(airy):
    """Corrupted data is detected and never changes the final answer."""
    # corrupted evaluation: one lying point makes confirmation impossible
    target_num = (Fraction(3), Fraction(0), Fraction(1))
    target_den = (Fraction(5), Fraction(1))

    def stream():
        for idx in range(10**6):
            a = Fraction(idx)
            den = peval(QQ, target_den, a)
            if QQ.is_zero(den):
                continue
            val = QQ.div(peval(QQ, target_num, a), den)
            if idx == 2:
                val = QQ.add(val, QQ.one)  # the lie
            yield (a, val)

    with pytest.raises(BudgetExhaustedError):
        adaptive_reconstruct(QQ, stream(), max_points=64)

    clean = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7, workers=2))

    # corrupted tracer vote: outvoted two-to-one, result unchanged
    with outvoted_tracer_vote():
        voted = telescope_modular(
            airy.pres, rho=1, config=ModularConfig(seed=7, workers=2))
    assert voted.telescoper == clean.telescoper
    assert any("majority kept" in line for line in voted.transcript)

    # corrupted per-prime relation: that prime is discarded, result unchanged
    with discarded_prime():
        pruned = telescope_modular(
            airy.pres, rho=1, config=ModularConfig(seed=7, workers=2))
    assert pruned.telescoper == clean.telescoper
