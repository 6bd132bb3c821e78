"""Left Groebner bases of submodules of W^r, with certified division.

Division returns a remainder and a certificate witnessing that
``a - remainder`` lies in S + dW^r: ``sum_i q_i g_i`` for left division,
``sum_j d_j w_j`` for right division by the d's.  A certificate names an
element, so certificates add and scale like the elements they name, and each
can be re-expanded and checked exactly, which is how the test suite
establishes soundness of everything built on top.

S-pairs are driven by the commutative shadows of leading monomials (legal
because the product of two monomials always has the componentwise sum as its
leading monomial); on packed monomials (:mod:`.weyl`) divisibility, cofactors
and lcms are int arithmetic.  The classical coprimality skip is adjusted for
the Weyl relations: a pair is skipped only when the shadows are coprime *and*
the two leading monomials commute — coprime shadows alone are not enough, as
the pair (x1, d1) shows: their S-pair is d1 x1 - x1 d1 = 1.  Buchberger's chain
criterion, which holds in G-algebras such as W^r (Levandovskyy, thesis 2005),
skips a pair whose lcm some third leading monomial divides once both of that
element's pairs with the two are done (Gebauer and Moeller, JSC 1988).

A reduced basis is the fixed point of completion: ``buchberger`` returns a
:class:`ReducedBasis`, which carries its order, and hands such a basis back
unchanged when asked for it again under the same order.
"""

from __future__ import annotations

import heapq

from .arith import Record
from .weyl import WeylOperator, _accumulate, leading_data, mul_monomial, op_scale


class DivisionCertificate(Record):
    """A witness of membership in S + dW^r: the element sum q_i g_i + sum d_j w_j.

    ``basis`` is the tuple of generators quotients refer to (by index);
    ``dw`` has one operator (or None) per slot j, meaning sum_j d_j w_j.
    """

    _fields = ("basis", "quotients", "dw")
    __hash__ = None

    def __init__(self, basis, quotients, dw):
        self.basis, self.quotients, self.dw = basis, quotients, dw

    def __add__(self, other):
        if self.basis and other.basis and self.basis != other.basis:
            raise ValueError("certificates refer to different bases")
        quotients = dict(self.quotients)
        for i, q in other.quotients.items():
            quotients[i] = quotients[i] + q if i in quotients else q
        dw = tuple(
            w1 if w2 is None else w2 if w1 is None else w1 + w2
            for w1, w2 in zip(self.dw, other.dw)
        )
        return DivisionCertificate(self.basis or other.basis, quotients, dw)

    def scale(self, c):
        return DivisionCertificate(
            self.basis,
            {i: op_scale(q, c) for i, q in self.quotients.items()},
            tuple(None if w is None else op_scale(w, c) for w in self.dw),
        )

    def verifies(self, x):
        """Whether x == sum q_i g_i + sum d_j w_j exactly.

        Each product accumulates term pair by term pair into a dict, as
        ``mul`` does, and is added into one running total in place; the
        total is compared with x once.
        """
        A = x.algebra
        F = A.field
        pairs = [(q, self.basis[i]) for i, q in self.quotients.items()]
        pairs += [(A.with_rank(1).dvar(j), w) for j, w in enumerate(self.dw)
                  if w is not None]
        total = {}
        for left, right in pairs:
            if right.algebra != A:
                raise ValueError("operands live in different algebras")
            product = {}
            _accumulate(F, A, product, left, right)
            for m, c in product.items():
                total[m] = F.add(total[m], c) if m in total else c
        return {m: c for m, c in total.items() if not F.is_zero(c)} == x.terms


def lrem(a, basis, order, certificate=True):
    """Left division remainder of a by a list of nonzero operators.

    Repeatedly rewrites the largest monomial m (coefficient c) divisible by
    some leading monomial, first matching generator g wins, by subtracting
    (c/lc(g)) u g with u = m - lm(g).  The order is multiplicative, so that
    product is c m plus smaller terms (Kandri-Rody and Weispfenning, JSC
    1990): m is deleted and skipped in the product, not subtracted and
    tested.  Returns (remainder, cert), where cert witnesses a - remainder
    = sum q_i g_i; it is None when certificate=False.  When ``basis`` is a
    Groebner basis the remainder is the canonical normal form, and the map
    a -> remainder is K-linear.
    """
    A = a.algebra
    F = A.field
    key = order.key
    divmask = A.layout.divmask
    lead = [leading_data(g, order) + (g,) for g in basis]

    cert = None
    work = dict(a.terms)
    heap = [(-key(m), m) for m in work]
    heapq.heapify(heap)  # keys are unique per monomial: the pop order is fixed
    quotients = {} if certificate else None

    while heap:
        m = heapq.heappop(heap)[1]
        c = work.get(m)
        if c is None:
            continue
        for i, (lm, lc, g) in enumerate(lead):
            if not (m - lm) & divmask:  # lm divides m
                break
        else:
            continue
        cof = m - lm
        coeff = F.div(c, lc)
        if certificate:
            _cert_add_quotient_dict(quotients, i, cof, coeff, F)
        del work[m]
        for mm, cc in mul_monomial(cof, coeff, g).terms.items():
            if mm == m:
                continue  # its coefficient is c: cancelled by the deletion
            old = work.get(mm)
            new = F.sub(old, cc) if old is not None else F.neg(cc)
            if F.is_zero(new):
                work.pop(mm, None)
            else:
                if old is None:
                    heapq.heappush(heap, (-key(mm), mm))
                work[mm] = new

    remainder = WeylOperator(A, work)
    if certificate:
        cert = DivisionCertificate(
            tuple(basis),
            {
                i: WeylOperator(A.with_rank(1), terms)
                for i, terms in quotients.items()
            },
            (None,) * A.n,
        )
    return remainder, cert


def _cert_add_quotient_dict(quotients, i, mono, coeff, F):
    d = quotients.setdefault(i, {})
    old = d.get(mono)
    new = coeff if old is None else F.add(old, coeff)
    if F.is_zero(new):
        d.pop(mono, None)
    else:
        d[mono] = new


def rrem(a, certificate=True):
    """Right division by (d_1, ..., d_n): strip every d from every monomial.

    Uses x^al d^be e_j = d_i (x^al d^{be-e_i} e_j) - al_i x^{al-e_i} d^{be-e_i} e_j
    repeatedly (each step drops total degree by 2), so the remainder is free
    of d's and unique; the map is K-linear.  Returns (remainder, cert), where
    cert witnesses a - remainder = sum_j d_j w_j.
    """
    A = a.algebra
    if A.dt:
        raise ValueError("right reduction happens in the plain algebra")
    F = A.field
    L = A.layout
    work = dict(a.terms)
    dw = [dict() for _ in range(A.n)] if certificate else None

    pending = [m for m in work if m & L.dfields]
    while pending:
        m = pending.pop()
        c = work.pop(m, None)
        if c is None:
            continue
        i = L.first_d(m)
        m1 = m - L.d[i]
        if certificate:
            old = dw[i].get(m1)
            new = c if old is None else F.add(old, c)
            if F.is_zero(new):
                dw[i].pop(m1, None)
            else:
                dw[i][m1] = new
        ai = L.exponent(m, i)
        if ai:
            m2 = m1 - L.x[i]
            add = F.mul(c, F.from_int(-ai))
            old = work.get(m2)
            new = add if old is None else F.add(old, add)
            if F.is_zero(new):
                work.pop(m2, None)
            else:
                work[m2] = new
                if m2 & L.dfields:
                    pending.append(m2)

    remainder = WeylOperator(A, work)
    cert = None
    if certificate:
        cert = DivisionCertificate((), {}, tuple(WeylOperator(A, d) for d in dw))
    return remainder, cert


# ---------------------------------------------------------------------------
# Buchberger


class ReducedBasis(tuple):
    """A reduced monic left Groebner basis under ``order``, ascending by
    leading monomial: the unique one of its submodule under that order."""

    def __new__(cls, elements, order):
        basis = super().__new__(cls, elements)
        basis.order = order
        return basis


def buchberger(gens, order):
    """Reduced monic left Groebner basis of the submodule generated by gens.

    Returns a :class:`ReducedBasis`; one under ``order`` already is its own
    answer and comes back as is.  Pair selection is the normal strategy
    (smallest total degree of the shadow lcm) with FIFO tie-break.  A pair
    is skipped when the leading shadows are coprime and the leading
    monomials commute, or by the chain criterion.
    """
    if isinstance(gens, ReducedBasis) and gens.order == order:
        return gens
    F = None
    G = []
    for g in gens:
        if g.is_zero():
            continue
        F = g.algebra.field
        _, lc = leading_data(g, order)
        G.append(op_scale(g, F.inv(lc)))
    if not G:
        return ReducedBasis((), order)

    L = G[0].algebra.layout
    lms = [leading_data(g, order)[0] for g in G]
    pairs = []
    pending = set()  # the pairs (i, j), i < j, still on the heap
    seq = 0

    def push_pairs(j):
        nonlocal seq
        lmj = lms[j]
        nzj = L.nonzero(lmj)
        for i in range(j):
            lmi = lms[i]
            if L.comp(lmi) != L.comp(lmj):
                continue
            nzi = L.nonzero(lmi)
            # coprime shadows, and no d_i of either meets an x_i of the other
            if not (nzi & nzj or (nzi >> L.shift) & nzj or (nzj >> L.shift) & nzi):
                continue
            lcm = L.lcm(lmi, lmj)
            heapq.heappush(pairs, (L.degree(lcm), seq, i, j, lcm))
            pending.add((i, j))
            seq += 1

    def chained(i, j, lcm):
        """Buchberger's chain criterion: some lm(g_k) divides the lcm, and
        neither pair of k with i or j is still pending."""
        return any(
            k != i and k != j and L.divides(lm, lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, lm in enumerate(lms)
        )

    for j in range(len(G)):
        push_pairs(j)

    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        pending.discard((i, j))
        if chained(i, j, lcm):
            continue
        left = mul_monomial(lcm - lms[i], F.one, G[i])
        right = mul_monomial(lcm - lms[j], F.one, G[j])
        spair = left - right
        if spair.is_zero():
            continue
        rem, _ = lrem(spair, G, order, certificate=False)
        if rem.is_zero():
            continue
        lm, lc = leading_data(rem, order)
        G.append(op_scale(rem, F.inv(lc)))
        lms.append(lm)
        push_pairs(len(G) - 1)

    return _autoreduce(G, order)


def _autoreduce(G, order):
    """Minimalize a monic basis, then tail-reduce each element once.

    No kept leading monomial divides another, and every term that dividing
    g by the others meets is below lm(g): the remainder keeps g's monic
    leading term and has no term divisible by any leading monomial.  So one
    pass gives each element its final, unique reduced form.  An element
    none of whose terms another kept leading monomial divides is its own
    remainder, and no division runs for it.
    """
    divides = G[0].algebra.layout.divides
    by_lm = sorted(G, key=lambda g: order.key(leading_data(g, order)[0]))
    kept = []
    kept_lms = []
    for g in by_lm:
        lm = leading_data(g, order)[0]
        if any(divides(l, lm) for l in kept_lms):
            continue
        kept.append(g)
        kept_lms.append(lm)

    for idx, g in enumerate(kept):
        others = kept_lms[:idx] + kept_lms[idx + 1 :]
        if any(divides(l, m) for m in g.terms for l in others):
            kept[idx] = lrem(g, kept[:idx] + kept[idx + 1 :], order, certificate=False)[0]
    return ReducedBasis(kept, order)
