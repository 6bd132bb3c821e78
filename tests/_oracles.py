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
from weylred.groebner import ideal_membership, lrem
from weylred.weyl import Monomial, WeylOperator, mul, op_sub


# ---------------------------------------------------------------------------
# arith


def qpoly_clear_denominators(coeffs):
    """Fraction tuple -> (int tuple, common denominator)."""
    den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    return tuple(int(c * den) for c in coeffs), den


# ---------------------------------------------------------------------------
# weyl


def shadow_product(m1: Monomial, m2: Monomial, comp=None):
    return Monomial(
        tuple(a + b for a, b in zip(m1.alpha, m2.alpha)),
        tuple(a + b for a, b in zip(m1.beta, m2.beta)),
        comp if comp is not None else max(m1.comp, m2.comp),
    )


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


# ---------------------------------------------------------------------------
# groebner


def certificate_identity_holds(original, cert):
    """Exact re-expansion check: original == remainder + sum q g + sum d w."""
    return cert.verifies(original)


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
    assert cert.verifies(a)
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
    assert cert.verifies(a)
    assert dt_degree(rem) <= ext.ell
    return flatten_operator(rem, ext.ell, ext.algebra)


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
