"""Sparse non-commutative operator arithmetic in Weyl algebras.

An operator lives in W^r, the free rank-r module over the Weyl algebra in n
pairs (x_i, d_i) subject to d_i x_i = x_i d_i + 1, with coefficients in one of
the fields from :mod:`weylred.arith`.  Monomials are ``x^alpha d^beta e_comp``
with ``comp`` in 1..r.  Terms are kept in a dict keyed by monomial; sorted
views under a given order are cached on first use, so repeated leading-term
queries under the active order are O(1).

Two regimes share this representation:

* the plain algebra over K or K(t), where t (if any) lives in the field; and
* the t-extended algebra (``Algebra.dt = True``), where slot 0 of the beta
  vector holds the d_t exponent and multiplication twists coefficients by
  d_t c(t) = c(t) d_t + c'(t).  Slot 0 of alpha is unused there (t itself
  stays in the coefficient field).

Products are built term pair by term pair.  Most pairs commute (no d_i of
the left factor meets an x_i of the right one, and no d_t twists the
right coefficient); their product is one monomial, the exponent sum, so
only the other pairs go through the normal-ordering expansion.  In a
commutator PQ - QP the two products of a commuting pair cancel, so
``commutator`` multiplies only the pairs that do not commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, factorial, gcd
from operator import add, mul as imul, neg
from typing import NamedTuple

from .arith import QQ, QQ_T, UnluckyEvaluationError


class Monomial(NamedTuple):
    alpha: tuple
    beta: tuple
    comp: int

    def degree(self):
        return sum(self.alpha) + sum(self.beta)

    def shadow(self):
        """The commutative image: just the concatenated exponent vector."""
        return self.alpha + self.beta


def shadow_divides(m1: Monomial, m2: Monomial):
    """True when m2 = m1 * (something) componentwise, same module component."""
    if m1.comp != m2.comp:
        return False
    return all(a <= b for a, b in zip(m1.alpha, m2.alpha)) and all(
        a <= b for a, b in zip(m1.beta, m2.beta)
    )


def shadow_quotient(m2: Monomial, m1: Monomial):
    """Exponent difference m2 - m1 as a component-1 monomial (the cofactor)."""
    return Monomial(
        tuple(b - a for a, b in zip(m1.alpha, m2.alpha)),
        tuple(b - a for a, b in zip(m1.beta, m2.beta)),
        1,
    )


def _mono_str(m: Monomial):
    """Slot-indexed text of a monomial, e.g. x2^1*d3^1@e2 (transcripts, errors)."""
    parts = [f"x{i + 1}^{e}" for i, e in enumerate(m.alpha) if e]
    parts += [f"d{i + 1}^{e}" for i, e in enumerate(m.beta) if e]
    body = "*".join(parts) if parts else "1"
    return body if m.comp == 1 else f"{body}@e{m.comp}"


@dataclass(frozen=True)
class Algebra:
    """Shape tag for operators: arity, rank, coefficient field, t-extension."""

    n: int
    r: int = 1
    field: object = QQ
    dt: bool = False

    def monomial(self, alpha, beta, comp=1):
        alpha, beta = tuple(alpha), tuple(beta)
        if not len(alpha) == len(beta) == self.n:
            raise ValueError(f"exponent vectors must have length {self.n}")
        if not 1 <= comp <= self.r:
            raise ValueError(f"component {comp} outside 1..{self.r}")
        if self.dt and alpha[0]:
            raise ValueError("slot 0 is reserved for d_t; t lives in the field")
        return Monomial(alpha, beta, comp)

    def unit_monomial(self, comp=1):
        return self.monomial((0,) * self.n, (0,) * self.n, comp)

    def operator(self, terms):
        return WeylOperator(self, terms)

    def zero(self):
        return WeylOperator(self, {})

    def one(self, comp=1):
        return WeylOperator(self, {self.unit_monomial(comp): self.field.one})

    def xvar(self, i, comp=1):
        """The operator x_{i+1} (slot index i, 0-based)."""
        alpha = [0] * self.n
        alpha[i] = 1
        return WeylOperator(
            self, {self.monomial(alpha, (0,) * self.n, comp): self.field.one}
        )

    def dvar(self, i, comp=1):
        """The operator d_{i+1} (slot index i, 0-based)."""
        beta = [0] * self.n
        beta[i] = 1
        return WeylOperator(
            self, {self.monomial((0,) * self.n, beta, comp): self.field.one}
        )

    def scalar(self, c):
        if self.field.is_zero(c):
            return self.zero()
        return WeylOperator(self, {self.unit_monomial(1): c})

    def with_rank(self, r):
        return Algebra(self.n, r, self.field, self.dt)


class WeylOperator:
    """Immutable sparse operator: dict of monomial -> nonzero coefficient."""

    __slots__ = ("algebra", "terms", "_sorted")

    def __init__(self, algebra, terms):
        object.__setattr__(self, "algebra", algebra)
        F = algebra.field
        object.__setattr__(
            self, "terms", {m: c for m, c in terms.items() if not F.is_zero(c)}
        )
        object.__setattr__(self, "_sorted", {})

    def is_zero(self):
        return not self.terms

    def support(self):
        return set(self.terms)

    def degree(self):
        assert self.terms, "degree of the zero operator"
        return max(m.degree() for m in self.terms)

    def coefficient(self, m):
        return self.terms.get(m, self.algebra.field.zero)

    def __eq__(self, other):
        return (
            isinstance(other, WeylOperator)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    def __add__(self, other):
        return op_add(self, other)

    def __sub__(self, other):
        return op_sub(self, other)

    def __neg__(self):
        return op_neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = [f"({c})*{_mono_str(m)}" for m, c in list(self.terms.items())[:8]]
        more = "" if len(self.terms) <= 8 else f" +{len(self.terms) - 8} terms"
        return f"<{' + '.join(bits)}{more}>"


def op_add(P, Q):
    if P.algebra is not Q.algebra and P.algebra != Q.algebra:
        raise ValueError("operands live in different algebras")
    F = P.algebra.field
    terms = dict(P.terms)
    for m, c in Q.terms.items():
        terms[m] = F.add(terms.get(m, F.zero), c)
    return WeylOperator(P.algebra, terms)


def op_sub(P, Q):
    if P.algebra is not Q.algebra and P.algebra != Q.algebra:
        raise ValueError("operands live in different algebras")
    F = P.algebra.field
    terms = dict(P.terms)
    for m, c in Q.terms.items():
        terms[m] = F.sub(terms.get(m, F.zero), c)
    return WeylOperator(P.algebra, terms)


def op_neg(P):
    F = P.algebra.field
    return WeylOperator(P.algebra, {m: F.neg(c) for m, c in P.terms.items()})


def op_scale(P, c):
    F = P.algebra.field
    if F.is_zero(c):
        return P.algebra.zero()
    return WeylOperator(P.algebra, {m: F.mul(c, v) for m, v in P.terms.items()})


def components(a: WeylOperator):
    """Split a rank-r operator into {comp: scalar operator}, nonzero ones only."""
    scalar = a.algebra.with_rank(1)
    out = {}
    for m, c in a.terms.items():
        out.setdefault(m.comp, {})[Monomial(m.alpha, m.beta, 1)] = c
    return {j: WeylOperator(scalar, d) for j, d in out.items()}


# ---------------------------------------------------------------------------
# multiplication


def _term_product(F, algebra, out, cp, mp, cq, mq, comp):
    """Accumulate (cp x^ap d^bp) * (cq x^aq d^bq) e_comp into ``out``.

    The pair commutes when no d_i of the left factor meets an x_i of the
    right one and no d_t twists cq.  The expansion below then has one term,
    k = 0 in every slot: cp*cq x^(ap+aq) d^(bp+bq), stored or added directly.
    """
    n = algebra.n
    ap, bp = mp.alpha, mp.beta
    aq, bq = mq.alpha, mq.beta
    if not (algebra.dt and bp[0]) and not any(map(imul, bp, aq)):
        m = Monomial(tuple(map(add, ap, aq)), tuple(map(add, bp, bq)), comp)
        c = F.mul(cp, cq)
        old = out.get(m)
        out[m] = c if old is None else F.add(old, c)
        return

    # coefficient twist for the d_t slot: d_t^b cq = sum_j C(b, j) cq^(j) d_t^(b-j)
    b0 = bp[0] if algebra.dt else 0
    pairs, der = [(F.mul(cp, cq), 0)], cq
    for j in range(1, b0 + 1):
        der = F.derivative(der)
        pairs.append((F.mul(cp, F.mul(F.from_int(comb(b0, j)), der)), j))

    # per-slot commutation options (skip the d_t slot: no x there)
    lo = 1 if algebra.dt else 0
    slots = []
    for i in range(lo, n):
        kmax = min(bp[i], aq[i])
        if kmax:
            slots.append(
                (
                    i,
                    [
                        (k, comb(bp[i], k) * comb(aq[i], k) * factorial(k))
                        for k in range(kmax + 1)
                    ],
                )
            )

    for coeff0, j0 in pairs:
        for choice in product(*(opts for _, opts in slots)):
            factor = 1
            for k, f in choice:
                factor *= f
            c = coeff0 if factor == 1 else F.mul(coeff0, F.from_int(factor))
            alpha = list(ap)
            beta = list(bp)
            for i in range(n):
                alpha[i] += aq[i]
                beta[i] += bq[i]
            beta[0] -= j0
            for (i, _), (k, _) in zip(slots, choice):
                alpha[i] -= k
                beta[i] -= k
            m = Monomial(tuple(alpha), tuple(beta), comp)
            out[m] = F.add(out.get(m, F.zero), c)


def mul(P, Q):
    """Product in the Weyl algebra; one side must be scalar (rank 1) if ranks differ."""
    A, B = P.algebra, Q.algebra
    if A.n != B.n or A.field != B.field or A.dt != B.dt:
        raise ValueError("operator shapes are incompatible")
    if A.r > 1 and B.r > 1:
        raise ValueError("at most one factor may have rank > 1")
    out_r = B.r if A.r == 1 else A.r
    algebra = A if A.r == out_r else Algebra(A.n, out_r, A.field, A.dt)
    F = A.field
    out = {}
    for mp, cp in P.terms.items():
        for mq, cq in Q.terms.items():
            comp = mq.comp if A.r == 1 else mp.comp
            _term_product(F, algebra, out, cp, mp, cq, mq, comp)
    return WeylOperator(algebra, out)


def commutator(P, Q):
    """[P, Q] = PQ - QP for two scalar (rank 1) operators.

    A term pair commutes when neither side's d_i meets an x_i of the other
    and neither carries d_t (which would twist the other's coefficient); its
    two products are then the same monomial with the same coefficient, and
    cancel.  Only the other pairs are multiplied, in both orders.
    """
    A = P.algebra
    if A is not Q.algebra and A != Q.algebra:
        raise ValueError("operator shapes are incompatible")
    if A.r > 1:
        raise ValueError("commutator of scalar operators only")
    F = A.field
    dt = A.dt
    out = {}
    for mp, cp in P.terms.items():
        ap, bp = mp.alpha, mp.beta
        for mq, cq in Q.terms.items():
            if (dt and (bp[0] or mq.beta[0]) or any(map(imul, bp, mq.alpha))
                    or any(map(imul, mq.beta, ap))):
                _term_product(F, A, out, cp, mp, cq, mq, 1)
                _term_product(F, A, out, F.neg(cq), mq, cp, mp, 1)
    return WeylOperator(A, out)


def mul_monomial(m: Monomial, c, P):
    """(c * x^alpha d^beta) * P for a single left monomial factor.

    When m commutes with every term of P (see ``_term_product``), the
    product is P with every exponent shifted by m and every coefficient
    times c.  A shift is injective, so no two terms meet and the dict is
    built in one pass.
    """
    A = P.algebra
    F = A.field
    alpha, beta = m.alpha, m.beta
    meets = any(any(map(imul, beta, mq.alpha)) for mq in P.terms)
    if not (A.dt and beta[0] or meets):
        return WeylOperator(A, {
            Monomial(tuple(map(add, alpha, mq.alpha)), tuple(map(add, beta, mq.beta)),
                     mq.comp): F.mul(c, cq)
            for mq, cq in P.terms.items()
        })
    out = {}
    for mq, cq in P.terms.items():
        _term_product(F, A, out, c, m, cq, mq, mq.comp)
    return WeylOperator(A, out)


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """A multiplicative well-order on monomials of W^r.

    kind: 'grevlex' (over all 2n exponents), 'lex' (stated variable sequence),
    'block' (grevlex on x, ties by grevlex on d), 'weightlex' (weighted degree
    then lex on x_1..x_n, d_1..d_n), or 'dtelim' (d_t exponent first, then
    grevlex on the rest).  Only lex takes a ``sequence`` of slot codes (0..n-1
    for x_i, n..2n-1 for d_i) and only weightlex ``weights``, one non-negative
    weight per slot so that 1 stays the smallest monomial.  Components break
    ties, e_1 largest.  ``spec`` is the text form, such as ``grevlex``,
    ``lex:1,0,3,2`` or ``weightlex:1,2,1,1``; ``order_from_spec`` reads it.

    Multiplicative means u <= v implies u*m <= v*m, so a product of s
    variables is at most v^s for the largest variable v.
    """

    kind: str
    n: int
    sequence: tuple = ()
    weights: tuple = ()

    def __post_init__(self):
        kind, n = self.kind, self.n
        if kind not in ("grevlex", "lex", "block", "weightlex", "dtelim"):
            raise ValueError(f"unknown order {kind!r}")
        if self.sequence and kind != "lex" or self.weights and kind != "weightlex":
            raise ValueError(f"order {kind} takes no arguments")
        if kind == "lex" and sorted(self.sequence) != list(range(2 * n)):
            raise ValueError(f"lex needs each slot code 0..{2 * n - 1} once")
        if kind == "weightlex" and len(self.weights) != 2 * n:
            raise ValueError(f"weightlex needs {2 * n} weights, got {len(self.weights)}")
        if any(w < 0 for w in self.weights):
            raise ValueError("weightlex weights must be non-negative")

    @property
    def spec(self):
        """The text form that ``order_from_spec`` reads back."""
        if self.kind == "weightlex":
            return "weightlex:" + ",".join(map(str, self.weights))
        if self.kind == "lex" and self.sequence != tuple(range(2 * self.n)):
            return "lex:" + ",".join(map(str, self.sequence))
        return self.kind

    def _shadow_key(self, alpha, beta):
        vec = alpha + beta
        if self.kind == "grevlex":
            return (sum(vec), tuple(map(neg, reversed(vec))))
        if self.kind == "lex":
            return tuple(vec[s] for s in self.sequence)
        if self.kind == "block":
            return (
                sum(alpha),
                tuple(map(neg, reversed(alpha))),
                sum(beta),
                tuple(map(neg, reversed(beta))),
            )
        if self.kind == "weightlex":
            return (sum(wi * v for wi, v in zip(self.weights, vec)),) + vec
        # dtelim: beta[0] dominates, then graded on everything else
        rest = alpha + beta[1:]
        return (beta[0], sum(rest), tuple(map(neg, reversed(rest))))

    def key(self, m: Monomial):
        """Sort key: ascending tuple order agrees with the monomial order."""
        return self._shadow_key(m.alpha, m.beta) + (-m.comp,)

    @property
    def hypothesis_finiteness(self):
        """Whether {alpha : x^alpha g <= eta} is finite for all g, eta.

        Graded kinds and block orders with the x-group first qualify; plain
        lex only in the n=1 case with x_1 ahead of d_1 (conservative).
        """
        if self.kind in ("grevlex", "block"):
            return True
        if self.kind == "weightlex":
            return all(w > 0 for w in self.weights)
        if self.kind == "lex":
            return self.n == 1 and self.sequence[0] == 0
        return False


def order_from_spec(spec, n):
    """The order on n variable pairs that a ``MonomialOrder.spec`` names
    (plain ``lex`` is x_1..x_n, d_1..d_n); ValueError if it names none."""
    kind, _, arg = spec.partition(":")
    try:
        values = tuple(int(v) for v in arg.split(",")) if arg else ()
    except ValueError:
        raise ValueError(f"bad order arguments {arg!r}") from None
    if kind == "weightlex":
        return MonomialOrder(kind, n, weights=values)
    if kind == "lex" and not values:
        values = tuple(range(2 * n))
    return MonomialOrder(kind, n, sequence=values)


def grevlex(n):
    return MonomialOrder("grevlex", n)


def block_order(n):
    return MonomialOrder("block", n)


def lex_order(n, sequence):
    return MonomialOrder("lex", n, sequence=tuple(sequence))


def weightlex_order(n, weights):
    return MonomialOrder("weightlex", n, weights=tuple(weights))


def dtelim_order(n):
    return MonomialOrder("dtelim", n)


def sorted_terms(P: WeylOperator, order: MonomialOrder):
    """Terms of P sorted descending under the order; cached per order."""
    cached = P._sorted.get(order)
    if cached is None:
        cached = tuple(
            sorted(P.terms.items(), key=lambda mc: order.key(mc[0]), reverse=True)
        )
        P._sorted[order] = cached
    return cached


def leading_data(P: WeylOperator, order: MonomialOrder):
    """(lm, lc) of a nonzero operator."""
    if P.is_zero():
        raise ValueError("leading data of the zero operator")
    return sorted_terms(P, order)[0]


def leading_monomial(P, order):
    return leading_data(P, order)[0]


# ---------------------------------------------------------------------------
# actions and coefficient maps


def coefficientwise_dt(P: WeylOperator):
    """Differentiate every coefficient with respect to t; monomials unchanged."""
    F = P.algebra.field
    if not F.has_t:
        raise ValueError("coefficient field carries no t")
    return WeylOperator(
        P.algebra, {m: F.derivative(c) for m, c in P.terms.items()}
    )


def evaluate_and_reduce(P: WeylOperator, img):
    """Reduce a Q(t)-operator mod img.field.p, evaluating at t = img.point.

    The image lands in an algebra over img.field, the PrimeField the caller
    built when it drew the prime; no field is built or verified here.

    Raises UnluckyEvaluationError when a denominator vanishes: prime-level if
    a rational coefficient's denominator is divisible by p, point-level if a
    t-denominator vanishes at the chosen point.  A Q(t) payload num/den has
    coprime contents, so a coefficient of num/lc(den) or den/lc(den) has a
    denominator divisible by p exactly when p divides lc(den).
    """
    A = P.algebra
    if A.dt:
        raise ValueError("cannot evaluate t in a t-extended algebra")
    p, a = img.field.p, img.point
    if A.field != QQ_T:
        raise ValueError("expected Q(t) coefficients")
    target = Algebra(A.n, A.r, img.field, False)
    out = {}
    for m, (num, den) in P.terms.items():
        lc = den[-1]
        if lc % p == 0:
            # name the first such denominator, from the top of num down
            dens = (lc // gcd(c, lc) for c in num[::-1] + den[::-1])
            raise UnluckyEvaluationError(
                f"denominator {next(d for d in dens if d % p == 0)} divisible by {p}",
                prime_level=True,
            )
        dv = _poly_mod_eval(den, p, a)
        if dv == 0:
            raise UnluckyEvaluationError(
                f"coefficient denominator vanishes at t={a} (mod {p})"
            )
        out[m] = _poly_mod_eval(num, p, a) * pow(dv, -1, p) % p
    return WeylOperator(target, out)


def _poly_mod_eval(coeffs, p, a):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * a + c) % p
    return acc
