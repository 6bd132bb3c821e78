"""Test oracles: independent or after-the-fact checks that the package itself
never needs.  Each one states a property the engine must satisfy, computed
by a route of its own (commutative sympy Groebner bases, the polynomial
action of the Weyl algebra) or from data the engine exposes (certificates).
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from weylred.arith import T_GEN
from weylred.extension import dt_degree, flatten_operator
from weylred.groebner import lrem
from weylred.telescoping import apply_linear
from weylred.weyl import (
    Monomial, MonomialOrder, WeylOperator, coefficientwise_dt, mul, op_sub)


# ---------------------------------------------------------------------------
# arith


def qpoly_clear_denominators(coeffs):
    """Fraction tuple -> (int tuple, common denominator)."""
    den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    return tuple(int(c * den) for c in coeffs), den


def zz_heu_gcd_oracle(a, b):
    """gcd in Z[t] of int tuples (lowest degree first), by sympy's GCDHEU."""
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_zz_heu_gcd

    g = dup_zz_heu_gcd(list(reversed(a)), list(reversed(b)), ZZ)[0]
    return tuple(int(c) for c in reversed(g)) if any(g) else ()


# ---------------------------------------------------------------------------
# weyl


def shadow_product(m1: Monomial, m2: Monomial, comp=None):
    return Monomial(
        tuple(a + b for a, b in zip(m1.alpha, m2.alpha)),
        tuple(a + b for a, b in zip(m1.beta, m2.beta)),
        comp if comp is not None else max(m1.comp, m2.comp),
    )


def compare(m1: Monomial, m2: Monomial, order: MonomialOrder):
    """-1, 0, or 1 as m1 <, =, > m2 under the order."""
    k1, k2 = order.key(m1), order.key(m2)
    return -1 if k1 < k2 else (0 if k1 == k2 else 1)


def apply_to_polynomial(P: WeylOperator, poly: dict):
    """Act on a commutative polynomial {exponent tuple: coefficient}.

    x_i acts by multiplication and d_i by d/dx_i.  Test oracle for ``mul``:
    the action is an algebra homomorphism.
    """
    A = P.algebra
    assert A.r == 1 and not A.dt
    F = A.field
    out = {}
    for m, c in P.terms.items():
        for e, d in poly.items():
            if any(ei < bi for ei, bi in zip(e, m.beta)):
                continue
            factor = 1
            for ei, bi in zip(e, m.beta):
                factor *= factorial(ei) // factorial(ei - bi)
            new = tuple(ei - bi + ai for ei, bi, ai in zip(e, m.beta, m.alpha))
            v = F.mul(F.mul(c, d), F.from_int(factor))
            out[new] = F.add(out.get(new, F.zero), v)
    return {e: c for e, c in out.items() if not F.is_zero(c)}


def mul_by_variables(m: Monomial, c, P: WeylOperator):
    """(c * x^alpha d^beta) * P, built one variable at a time from the right.

    Test oracle for ``mul_monomial``, from three rules only: x_i shifts the
    exponent; d_i x^a = x^a d_i + a_i x^(a - e_i); and, for the d_t slot of a
    t-extended algebra, d_t c(t) = c(t) d_t + c'(t).  The scalar c stands
    leftmost, so it only scales the coefficients at the end.
    """
    A = P.algebra
    F = A.field
    terms = dict(P.terms)

    def add(out, mono, v):
        out[mono] = F.add(out.get(mono, F.zero), v)

    def bump(e, i, by):
        return e[:i] + (e[i] + by,) + e[i + 1:]

    def d_times(i, terms):
        out = {}
        for mq, cq in terms.items():
            add(out, Monomial(mq.alpha, bump(mq.beta, i, 1), mq.comp), cq)
            if A.dt and i == 0:
                add(out, mq, F.derivative(cq))
            elif mq.alpha[i]:
                lower = Monomial(bump(mq.alpha, i, -1), mq.beta, mq.comp)
                add(out, lower, F.mul(F.from_int(mq.alpha[i]), cq))
        return out

    def x_times(i, terms):
        return {Monomial(bump(mq.alpha, i, 1), mq.beta, mq.comp): cq
                for mq, cq in terms.items()}

    for i in reversed(range(A.n)):
        for _ in range(m.beta[i]):
            terms = d_times(i, terms)
    for i in reversed(range(A.n)):
        for _ in range(m.alpha[i]):
            terms = x_times(i, terms)
    return WeylOperator(A, {mq: F.mul(c, cq) for mq, cq in terms.items()})


# ---------------------------------------------------------------------------
# groebner


def certificate_identity_holds(witnessed, cert):
    """Exact re-expansion check: witnessed == sum q g + sum d w, where a
    division's witnessed element is its input minus its remainder."""
    return cert.verifies(witnessed)


def ideal_membership(a, basis, order):
    """Whether a lies in the left submodule generated by a Groebner basis."""
    if a.is_zero():
        return True
    rem, _ = lrem(a, basis, order, certificate=False)
    return rem.is_zero()


# ---------------------------------------------------------------------------
# extension


def division_respects_dt_degree(a, basis, order):
    """Check that dividing `a` by `basis` only ever uses multiples whose
    d_t degree stays within dt_degree(a).

    With an elimination order this should always hold; the certificate
    quotients make the property observable after the fact.
    """
    bound = dt_degree(a)
    rem, cert = lrem(a, basis, order)
    assert cert.verifies(a - rem)
    if dt_degree(rem) > bound:
        return False
    for i, q in cert.quotients.items():
        if dt_degree(mul(q, basis[i])) > bound:
            return False
    return True


def flatten_member(ext, a):
    """Map an operator of the source presentation into the flat module.

    The input is first rewritten to its normal form modulo the elimination
    basis, so any d_t powers are pushed below the level bound.
    """
    rem, cert = lrem(a, ext.gb, ext.source.order)
    assert cert.verifies(a - rem)
    assert dt_degree(rem) <= ext.ell
    return flatten_operator(rem, ext.ell, ext.algebra)


# ---------------------------------------------------------------------------
# telescoping


def first_unstable_element(ctx, L):
    """The first Groebner basis element g with D(g) = dg/dt + L(g) outside
    S, reducing D(g) itself for every rank, or None when S is stable."""
    for g in ctx.basis:
        img = coefficientwise_dt(g) + apply_linear(L, g)
        if not lrem(img, ctx.basis, ctx.order, certificate=False)[0].is_zero():
            return g
    return None


# ---------------------------------------------------------------------------
# kregular


def contains_pk_minus_t(inp, basis, order):
    """Check p_k - t ∈ S (the degenerate-localization sanity property)."""
    target = op_sub(inp.algebra.xvar(inp.k - 1), inp.algebra.scalar(T_GEN))
    return ideal_membership(target, basis, order)


# ---------------------------------------------------------------------------
# reduction: Griffiths-Dwork irreducibility (independent commutative route)


def gd_irreducibility_oracle(n, f_terms, degree_cap):
    """Standard monomials of the Jacobian ideal of a homogeneous polynomial.

    f_terms maps exponent tuples (length n) to rational coefficients.
    Returns (standard, gb) where standard is the set of exponent tuples of
    degree <= degree_cap outside the leading-term ideal, and gb is the
    commutative grevlex Groebner basis as a list of {exponents: Fraction}.
    The commutative side is computed by sympy, keeping this check
    independent of the operator engine.
    """
    import sympy

    if not f_terms:
        raise ValueError("zero polynomial")
    degs = {sum(e) for e in f_terms}
    if len(degs) != 1:
        raise ValueError("polynomial is not homogeneous")

    xs = sympy.symbols(f"x1:{n + 1}")
    f = sympy.Integer(0)
    for e, c in f_terms.items():
        term = sympy.Rational(c)
        for xi, ei in zip(xs, e):
            term *= xi**ei
        f += term
    jac = [sympy.expand(sympy.diff(f, xi)) for xi in xs]
    gb = sympy.groebner([g for g in jac if g != 0], *xs, order="grevlex")

    gb_polys = []
    lead_exps = []
    for poly in gb.polys:
        d = {}
        for exps, coef in poly.terms():
            d[tuple(int(e) for e in exps)] = Fraction(*sympy.fraction(sympy.Rational(coef)))
        gb_polys.append(d)
        lead_exps.append(tuple(int(e) for e in poly.LM(order="grevlex").exponents))

    standard = set()
    for d in range(degree_cap + 1):
        for split in combinations_with_replacement(range(n), d):
            vec = [0] * n
            for i in split:
                vec[i] += 1
            e = tuple(vec)
            if not any(all(a >= b for a, b in zip(e, le)) for le in lead_exps):
                standard.add(e)
    return standard, gb_polys
