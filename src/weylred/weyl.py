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

Every monomial the kernels compute with is one packed int (Monagan and
Pearce, CASC 2007), laid out by :class:`Layout`, which depends on n alone:
2n + 2 fields of ``_W`` = 16 bits hold, least significant first, comp - 1,
alpha_0 .. alpha_{n-1}, beta_0 .. beta_{n-1} and the degree |alpha| +
|beta|.  The top bit of each field is a guard bit: the degree, and so every
exponent, stays below 2^15, and ``Algebra.monomial`` and every product
raise ValueError (also under ``python -O``) rather than reach it.  So a
commuting product is m1 + m2 (a rank-1 cofactor has comp - 1 = 0); m1
divides m2 exactly when m2 - m1 has no guard bit and a zero component
field, and m2 - m1 is then the cofactor; the normal-ordering expansion
subtracts k (x_i + d_i) units; and the grevlex key is m ^ low, the degree on
top and the complement of the other fields below it as the reverse-lex
tie-break, e_1 first.  Monomials are decoded into :class:`Monomial` tuples
only where they are printed or exposed: transcripts and errors
(``_mono_str``), the CLI, ``telescoping.Confinement.eta`` and ``.B``, the
keys of the CLI-only orders lex, block and weightlex, and the tests.

Products are built term pair by term pair.  Most pairs commute (no d_i of
the left factor meets an x_i of the right one, and no d_t twists the
right coefficient); their product is one monomial, the exponent sum, so
only the other pairs go through the normal-ordering expansion.  The test
is an AND of nonzero-field masks, and each operator caches the mask of its
x-support.  In a commutator PQ - QP the two products of a commuting pair
cancel, so ``commutator`` multiplies only the pairs that do not commute.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from math import comb, factorial, gcd
from operator import mul as imul, or_
from typing import NamedTuple

from .arith import QQ, QQ_T, Record, UnluckyEvaluationError, peval

_W = 16  # bits per field of a packed monomial
_GUARD = 1 << (_W - 1)  # the guard bit of a field
_FIELD = (1 << _W) - 1


class Monomial(NamedTuple):
    """A decoded monomial x^alpha d^beta e_comp, as printed and exposed."""

    alpha: tuple
    beta: tuple
    comp: int

    def degree(self):
        return sum(self.alpha) + sum(self.beta)


class Layout:
    """The packing of the monomials over n variable pairs (module docstring).

    ``x[i]`` and ``d[i]`` are the units of x_i and d_i, degree included;
    ``shift`` moves the d fields onto the x fields; ``low`` covers every
    field below the degree, and a monomial is an int below ``limit``.
    """

    __slots__ = ("n", "x", "d", "shift", "deg_shift", "low", "limit", "ones",
                 "eguards", "xguards", "divmask", "xfields", "dfields")

    def __init__(self, n):
        deg = 1 << _W * (2 * n + 1)
        self.n = n
        self.x = tuple(1 << _W * (1 + i) | deg for i in range(n))
        self.d = tuple(1 << _W * (1 + n + i) | deg for i in range(n))
        self.shift = _W * n
        self.deg_shift = _W * (2 * n + 1)
        self.low = deg - 1
        self.limit = _GUARD * deg
        self.ones = sum(1 << _W * j for j in range(1, 2 * n + 1))  # 1 per exponent field
        self.eguards = self.ones << (_W - 1)
        self.xguards = sum(_GUARD << _W * (1 + i) for i in range(n))
        self.divmask = self.eguards | _FIELD
        self.xfields = sum(_FIELD << _W * (1 + i) for i in range(n))
        self.dfields = self.xfields << self.shift

    def pack(self, alpha, beta):
        """x^alpha d^beta in component 1."""
        if min(alpha + beta, default=0) < 0:
            raise ValueError("exponents must be non-negative")
        return self.check(sum(map(imul, alpha + beta, self.x + self.d)))

    def decode(self, m):
        n = self.n
        f = [m >> _W * j & _FIELD for j in range(2 * n + 1)]
        return Monomial(tuple(f[1:n + 1]), tuple(f[n + 1:]), f[0] + 1)

    def check(self, m):
        """m, once its degree is below the guard bit; else ValueError."""
        if m >= self.limit:
            raise ValueError(f"a monomial reached degree 2^{_W - 1}: exponents overflow")
        return m

    def degree(self, m):
        return m >> self.deg_shift

    def comp(self, m):
        return (m & _FIELD) + 1

    def exponent(self, m, slot):
        """The exponent of x_slot (slot < n) or of d_(slot - n) (slot >= n)."""
        return (m >> _W * (1 + slot)) & _FIELD

    def nonzero(self, m):
        """The guard bits of the exponent fields of m that are nonzero."""
        return ((m | self.eguards) - self.ones) & self.eguards

    def divides(self, m1, m2):
        """m2 = u m1 for a monomial u of component 1; u is then m2 - m1."""
        return not (m2 - m1) & self.divmask

    def with_degree(self, v):
        """The monomial whose exponent fields (and component field) are v's."""
        return v + ((v >> _W) % _FIELD << self.deg_shift)

    def lcm(self, m1, m2):
        """The exponentwise maximum, in the component of m1.

        Field by field, (e1 | guards) - e2 keeps the guard bit where e1 >=
        e2; the degree is the sum of the fields, which is below 2^16 - 1 and
        so their residue mod 2^16 - 1.
        """
        efields = self.xfields | self.dfields
        e1, e2 = m1 & efields, m2 & efields
        ge = ((e1 | self.eguards) - e2) & self.eguards
        keep = ge - (ge >> (_W - 1))
        return self.with_degree(e1 & keep | e2 & ~keep | m1 & _FIELD)

    def without_slot0(self, m):
        """m over n - 1 pairs: slot 0 dropped, its x_0 being 0, and its d_0
        taken out of the degree; the component field stays."""
        rest = m - self.exponent(m, self.n) * self.d[0]
        xfields = layout(self.n - 1).xfields
        return (rest & _FIELD | (rest >> _W) & xfields
                | (rest >> 2 * _W) & ~(xfields | _FIELD))

    def first_d(self, m):
        """The slot of the first nonzero d exponent of m (m must have one)."""
        v = m & self.dfields
        return ((v & -v).bit_length() - 1) // _W - 1 - self.n


layout = lru_cache(maxsize=None)(Layout)  # the one Layout over n pairs


def _mono_str(m: Monomial):
    """Slot-indexed text of a decoded monomial, e.g. x2^1*d3^1@e2 (transcripts,
    errors)."""
    parts = [f"x{i + 1}^{e}" for i, e in enumerate(m.alpha) if e]
    parts += [f"d{i + 1}^{e}" for i, e in enumerate(m.beta) if e]
    body = "*".join(parts) if parts else "1"
    return body if m.comp == 1 else f"{body}@e{m.comp}"


class Algebra(Record):
    """Shape tag for operators: arity, rank, coefficient field, t-extension.

    ``layout`` packs its monomials; ``twist`` is the x_0 guard bit in a
    t-extended algebra (where x_0 is unused), so that a d_t of a left
    factor meets every right term, whose coefficient it twists, and 0
    otherwise.
    """

    __slots__ = ("n", "r", "field", "dt", "_hash", "layout", "twist")
    _fields = ("n", "r", "field", "dt")

    def __init__(self, n, r=1, field=QQ, dt=False):
        if not 1 <= r <= _FIELD + 1:
            raise ValueError(f"rank {r} outside 1..{_FIELD + 1}")
        self.n, self.r, self.field, self.dt = n, r, field, dt
        self._hash = hash((n, r, field, dt))
        self.layout = layout(n)
        self.twist = _GUARD << _W if dt else 0

    def __hash__(self):
        return self._hash

    def monomial(self, alpha, beta, comp=1):
        """The packed monomial x^alpha d^beta e_comp."""
        alpha, beta = tuple(alpha), tuple(beta)
        if not len(alpha) == len(beta) == self.n:
            raise ValueError(f"exponent vectors must have length {self.n}")
        if self.dt and alpha[0]:
            raise ValueError("slot 0 is reserved for d_t; t lives in the field")
        return self.unit_monomial(comp) + self.layout.pack(alpha, beta)

    def decode(self, m):
        """The Monomial (alpha, beta, comp) of a packed monomial."""
        return self.layout.decode(m)

    def unit_monomial(self, comp=1):
        """The packed monomial e_comp, which is comp - 1."""
        if not 1 <= comp <= self.r:
            raise ValueError(f"component {comp} outside 1..{self.r}")
        return comp - 1

    def operator(self, terms):
        return WeylOperator(self, terms)

    def zero(self):
        return WeylOperator(self, {})

    def one(self, comp=1):
        return WeylOperator(self, {self.unit_monomial(comp): self.field.one})

    def xvar(self, i, comp=1):
        """The operator x_{i+1} (slot index i, 0-based)."""
        if self.dt and i == 0:
            raise ValueError("slot 0 is reserved for d_t; t lives in the field")
        m = self.layout.x[i] + self.unit_monomial(comp)
        return WeylOperator(self, {m: self.field.one})

    def dvar(self, i, comp=1):
        """The operator d_{i+1} (slot index i, 0-based)."""
        m = self.layout.d[i] + self.unit_monomial(comp)
        return WeylOperator(self, {m: self.field.one})

    def scalar(self, c):
        if self.field.is_zero(c):
            return self.zero()
        return WeylOperator(self, {self.unit_monomial(1): c})

    def with_rank(self, r):
        return self if r == self.r else Algebra(self.n, r, self.field, self.dt)


class WeylOperator:
    """Immutable sparse operator: dict of packed monomial -> nonzero coefficient."""

    __slots__ = ("algebra", "terms", "_sorted", "_xmask")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        F = algebra.field
        self.terms = {m: c for m, c in terms.items() if not F.is_zero(c)}
        self._sorted = {}
        self._xmask = None

    def is_zero(self):
        return not self.terms

    def support(self):
        return set(self.terms)

    def degree(self):
        if not self.terms:
            raise ValueError("degree of the zero operator")
        return self.algebra.layout.degree(max(self.terms))

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
        decode = self.algebra.decode
        bits = [f"({c})*{_mono_str(decode(m))}" for m, c in list(self.terms.items())[:8]]
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


def _nonzero_operator(algebra, terms):
    """The operator of terms whose coefficients are known to be nonzero,
    untested; WeylOperator tests each, as terms that may cancel need."""
    P = WeylOperator.__new__(WeylOperator)
    P.algebra, P.terms, P._sorted, P._xmask = algebra, terms, {}, None
    return P


def op_neg(P):
    F = P.algebra.field
    return _nonzero_operator(P.algebra, {m: F.neg(c) for m, c in P.terms.items()})


def op_scale(P, c):
    F = P.algebra.field
    if F.is_zero(c):
        return P.algebra.zero()
    return _nonzero_operator(P.algebra, {m: F.mul(c, v) for m, v in P.terms.items()})


def components(a: WeylOperator):
    """Split a rank-r operator into {comp: scalar operator}, nonzero ones only."""
    scalar = a.algebra.with_rank(1)
    out = {}
    for m, c in a.terms.items():
        comp = m & _FIELD
        out.setdefault(comp + 1, {})[m - comp] = c
    return {j: _nonzero_operator(scalar, d) for j, d in out.items()}


# ---------------------------------------------------------------------------
# multiplication


def _x_support(P):
    """The guard bits of the x fields that some term of P uses, with the
    algebra's twist bit: a left monomial whose d fields, moved onto the x
    fields, miss this mask commutes with every term of P.  Cached on P."""
    mask = P._xmask
    if mask is None:
        A = P.algebra
        L = A.layout
        mask = P._xmask = L.nonzero(reduce(or_, P.terms, 0)) & L.xguards | A.twist
    return mask


def _term_product(F, A, out, cp, mp, cq, mq, meet):
    """Accumulate (cp x^ap d^bp) * (cq x^aq d^bq) into ``out``.

    ``meet`` holds the guard bits of the x fields where a d_i of mp meets an
    x_i of mq, and the twist bit when mp carries a d_t, which twists cq.
    With meet = 0 the pair commutes and the expansion below has one term,
    k = 0 in every slot: cp*cq at mp + mq, stored or added directly.  One
    factor has rank 1, so mp + mq carries the other's component.
    """
    L = A.layout
    m = L.check(mp + mq)
    if not meet:
        c = F.mul(cp, cq)
        old = out.get(m)
        out[m] = c if old is None else F.add(old, c)
        return

    # coefficient twist for the d_t slot: d_t^b cq = sum_j C(b, j) cq^(j) d_t^(b-j)
    b0 = L.exponent(mp, L.n) if A.dt else 0
    pairs, der = [(F.mul(cp, cq), 0)], cq
    for j in range(1, b0 + 1):
        der = F.derivative(der)
        pairs.append((F.mul(cp, F.mul(F.from_int(comb(b0, j)), der)), j * L.d[0]))

    # per-slot commutation options, lowering x_i and d_i by k (skip the d_t
    # slot: no x there)
    slots = []
    for i in range(1 if A.dt else 0, L.n):
        if meet & _GUARD << _W * (1 + i):
            b, a = L.exponent(mp, L.n + i), L.exponent(mq, i)
            unit = L.x[i] + L.d[i]
            slots.append([(k * unit, comb(b, k) * comb(a, k) * factorial(k))
                          for k in range(min(a, b) + 1)])

    for coeff0, lower0 in pairs:
        for choice in product(*slots):
            factor, lower = 1, lower0
            for units, f in choice:
                factor *= f
                lower += units
            c = coeff0 if factor == 1 else F.mul(coeff0, F.from_int(factor))
            key = m - lower
            out[key] = F.add(out.get(key, F.zero), c)


def _accumulate(F, A, out, P, Q):
    """Add the product P Q, one of them of rank 1, into ``out`` term pair
    by term pair; A gives the layout and the t-extension of both."""
    L = A.layout
    guards, ones, shift, twist = L.eguards, L.ones, L.shift, A.twist
    right = [(mq, cq, ((mq | guards) - ones) & guards | twist)
             for mq, cq in Q.terms.items()]
    for mp, cp in P.terms.items():
        dp = (((mp | guards) - ones) & guards) >> shift
        for mq, cq, xq in right:
            _term_product(F, A, out, cp, mp, cq, mq, dp & xq)


def mul(P, Q):
    """Product in the Weyl algebra; one side must be scalar (rank 1) if ranks differ."""
    A, B = P.algebra, Q.algebra
    if A.n != B.n or A.field != B.field or A.dt != B.dt:
        raise ValueError("operator shapes are incompatible")
    if A.r > 1 and B.r > 1:
        raise ValueError("at most one factor may have rank > 1")
    algebra = A if A.r >= B.r else B
    out = {}
    _accumulate(A.field, algebra, out, P, Q)
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
    L = A.layout
    nonzero, shift, twist = L.nonzero, L.shift, A.twist
    right = [(mq, cq, nonzero(mq)) for mq, cq in Q.terms.items()]
    out = {}
    for mp, cp in P.terms.items():
        np_ = nonzero(mp)
        for mq, cq, nq in right:
            pq, qp = (np_ >> shift) & (nq | twist), (nq >> shift) & (np_ | twist)
            if pq or qp:
                _term_product(F, A, out, cp, mp, cq, mq, pq)
                _term_product(F, A, out, F.neg(cq), mq, cp, mp, qp)
    return WeylOperator(A, out)


def mul_monomial(m, c, P):
    """(c * x^alpha d^beta) * P for a single left monomial m of component 1,
    c nonzero.

    When m commutes with every term of P (see ``_term_product``), the
    product is P with every monomial shifted by m and every coefficient
    times c.  A shift is injective, so no two terms meet and the dict is
    built in one pass; c and every coefficient of P are nonzero, so no
    product is tested.
    """
    A = P.algebra
    F = A.field
    L = A.layout
    dm = L.nonzero(m) >> L.shift
    if not dm & _x_support(P):
        if P.terms:
            L.check(m + max(P.terms))
        return _nonzero_operator(A, {m + mq: F.mul(c, cq) for mq, cq in P.terms.items()})
    out = {}
    nonzero, twist = L.nonzero, A.twist
    for mq, cq in P.terms.items():
        _term_product(F, A, out, c, m, cq, mq, dm & (nonzero(mq) | twist))
    return WeylOperator(A, out)


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder(Record):
    """A multiplicative well-order on monomials of W^r.

    kind: 'grevlex' (over all 2n exponents), 'lex' (stated variable sequence),
    'block' (grevlex on x, ties by grevlex on d), 'weightlex' (weighted degree
    then lex on x_1..x_n, d_1..d_n), or 'dtelim' (d_t exponent first, then
    grevlex on the rest).  Only lex takes a ``sequence`` of slot codes (0..n-1
    for x_i, n..2n-1 for d_i) and only weightlex ``weights``, one non-negative
    weight per slot so that 1 stays the smallest monomial.  Components break
    ties, e_1 largest.  ``spec`` is the text form, such as ``grevlex``,
    ``lex:1,0,3,2`` or ``weightlex:1,2,1,1``; ``order_from_spec`` reads it.
    ``key(m)`` is an int that ascends with the order on packed monomials.

    Multiplicative means u <= v implies u*m <= v*m, so a product of s
    variables is at most v^s for the largest variable v.
    """

    __slots__ = ("kind", "n", "sequence", "weights", "_hash", "key")
    _fields = ("kind", "n", "sequence", "weights")

    def __init__(self, kind, n, sequence=(), weights=()):
        if kind not in ("grevlex", "lex", "block", "weightlex", "dtelim"):
            raise ValueError(f"unknown order {kind!r}")
        if sequence and kind != "lex" or weights and kind != "weightlex":
            raise ValueError(f"order {kind} takes no arguments")
        if kind == "lex" and sorted(sequence) != list(range(2 * n)):
            raise ValueError(f"lex needs each slot code 0..{2 * n - 1} once")
        if kind == "weightlex" and len(weights) != 2 * n:
            raise ValueError(f"weightlex needs {2 * n} weights, got {len(weights)}")
        if any(w < 0 for w in weights):
            raise ValueError("weightlex weights must be non-negative")
        self.kind, self.n, self.sequence, self.weights = kind, n, sequence, weights
        self._hash = hash((kind, n, sequence, weights))
        L = layout(n)
        if kind == "grevlex":
            self.key = L.low.__xor__
        elif kind == "dtelim":
            self.key = _dtelim_key(L)
        else:
            self.key = self._decoded_key

    def __hash__(self):
        return self._hash

    @property
    def spec(self):
        """The text form that ``order_from_spec`` reads back."""
        if self.kind == "weightlex":
            return "weightlex:" + ",".join(map(str, self.weights))
        if self.kind == "lex" and self.sequence != tuple(range(2 * self.n)):
            return "lex:" + ",".join(map(str, self.sequence))
        return self.kind

    def _decoded_key(self, m):
        """The key of lex, block and weightlex, from the decoded monomial: the
        digits base 2^16 of one int, a negated exponent as 2^16 - 1 minus it
        (the weighted degree of weightlex, the top digit, is unbounded)."""
        alpha, beta, comp = layout(self.n).decode(m)
        vec = alpha + beta
        if self.kind == "lex":
            digits = [vec[s] for s in self.sequence]
        elif self.kind == "block":
            digits = [sum(alpha), *(_FIELD - e for e in reversed(alpha)),
                      sum(beta), *(_FIELD - e for e in reversed(beta))]
        else:
            digits = [sum(w * v for w, v in zip(self.weights, vec)), *vec]
        key = 0
        for digit in digits + [_FIELD + 1 - comp]:
            key = (key << _W) + digit
        return key

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


def _dtelim_key(L):
    """dtelim's key: the d_t exponent b above the grevlex key of the rest,
    which is m without b, in its field and in the degree."""
    dt_shift, dt_unit, top, low = L.shift + _W, L.d[0], L.deg_shift + _W, L.low

    def key(m):
        b = (m >> dt_shift) & _FIELD
        return (b << top) | ((m - b * dt_unit) ^ low)
    return key


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
        terms = P.terms
        cached = P._sorted[order] = tuple(
            (m, terms[m]) for m in sorted(terms, key=order.key, reverse=True))
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


def evaluate_and_reduce(P: WeylOperator, img, target=None):
    """Reduce a Q(t)-operator mod img.field.p, evaluating at t = img.point.

    The image lands in ``target``, an algebra of P's shape over img.field,
    the PrimeField the caller built when it drew the prime (one is built
    when target is None); no field is built or verified here.

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
    target = target or Algebra(A.n, A.r, img.field, False)
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
        dv = peval(img.field, den, a)
        if dv == 0:
            raise UnluckyEvaluationError(
                f"coefficient denominator vanishes at t={a} (mod {p})"
            )
        out[m] = peval(img.field, num, a) * pow(dv, -1, p) % p
    return WeylOperator(target, out)
