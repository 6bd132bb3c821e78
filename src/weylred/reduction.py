"""Normal forms modulo S + dW^r: the reduction map, eta-bases, and [.]_eta.

The plain reduced form alternates right division by (d_1..d_n) with left
division by a Groebner basis of S until no monomial is reducible by either
rule.  The result is K-linear and sound (input minus output lies in
S + dW^r, and a certificate witnesses it) but deliberately incomplete: some
elements of S + dW^r have nonzero reduced forms.

The eta-basis closes that gap below a monomial threshold eta: it echelonizes
the reduced forms of the defect elements  x^gamma g - lc(g) d^beta x^(alpha+gamma) e_j
over all products with leading monomial <= eta, giving a basis of the
irreducible elements of S + dW^r supported <= eta.  Subtracting matches
against these rows upgrades the reduced form to [.]_eta.  Each row carries a
certificate witnessing that the row itself lies in S + dW^r, so the witness
of a - [a]_eta is the witness of a - [a] plus the same multiples of the row
witnesses.

A tracer remembers which candidate monomials contributed nothing so that
modular replays of the same computation can skip them; replays verify the
surviving rows and raise UnluckyTracerError on any mismatch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .weyl import (
    Monomial,
    WeylOperator,
    leading_data,
    mul,
    mul_monomial,
    op_scale,
    shadow_divides,
)
from .groebner import DivisionCertificate, lrem, rrem


class UnluckyTracerError(Exception):
    """A replayed eta-basis disagrees with its reference tracer."""


class ReductionContext:
    """A submodule of W^r presented by a reduced Groebner basis plus an order.

    The order must satisfy the finiteness hypothesis (multiplying a fixed
    monomial by x^gamma exceeds any threshold for all but finitely many
    gamma); contexts reject orders that do not, since eta-basis enumeration
    would diverge.
    """

    __slots__ = ("algebra", "order", "basis", "lead")

    def __init__(self, algebra, order, basis):
        if not order.hypothesis_finiteness:
            raise ValueError("order does not guarantee finite eta-basis enumeration")
        if order.n != algebra.n:
            raise ValueError(f"order for n={order.n} in an algebra with n={algebra.n}")
        self.algebra = algebra
        self.order = order
        self.basis = tuple(basis)
        self.lead = tuple(leading_data(g, order) for g in self.basis)

    def is_irreducible_monomial(self, m: Monomial):
        if any(m.beta):
            return False
        return not any(shadow_divides(lm, m) for lm, _ in self.lead)

    def is_irreducible(self, a: WeylOperator):
        return all(self.is_irreducible_monomial(m) for m in a.terms)


def reduced_form(a, ctx, certificate=True):
    """The reduced form [a]: alternate right and left division to a fixpoint.

    Returns ([a], cert); cert witnesses a - [a] in S + dW^r and is None when
    certificate=False.
    """
    cert = DivisionCertificate((), {}, (None,) * a.algebra.n) if certificate else None
    r = a
    while not ctx.is_irreducible(r):
        r, c = rrem(r, certificate=certificate)
        if certificate:
            cert = cert + c
        if ctx.is_irreducible(r):
            break
        r, c = lrem(r, ctx.basis, ctx.order, certificate=certificate)
        if certificate:
            cert = cert + c
    return r, cert


# ---------------------------------------------------------------------------
# eta-bases


@dataclass(frozen=True)
class EtaRow:
    candidate: Monomial  # the H-monomial this row came from
    op: WeylOperator  # irreducible, monic at lm
    lm: Monomial
    cert: object  # witnesses op itself in S + dW^r (None without certificates)


@dataclass(frozen=True)
class EtaBasis:
    eta: Monomial
    rows: tuple
    tracer: frozenset  # candidates whose row vanished


def _enumerate_candidates(ctx, eta):
    """H = {lm(x^gamma g) <= eta : g in basis, lm(g) has a d} as {m: (gi, gamma)}.

    BFS on gamma with pruning: multiplying by any x_i moves up in the order,
    so the region below eta is downward closed.
    """
    order = ctx.order
    eta_key = order.key(eta)
    n = ctx.algebra.n
    found = {}
    for gi, (lm, _) in enumerate(ctx.lead):
        if not any(lm.beta):
            continue
        seen = {(0,) * n}
        queue = deque([(0,) * n])
        while queue:
            gamma = queue.popleft()
            m = Monomial(
                tuple(a + c for a, c in zip(lm.alpha, gamma)), lm.beta, lm.comp
            )
            if order.key(m) > eta_key:
                continue
            found.setdefault(m, (gi, gamma))
            lo = 1 if ctx.algebra.dt else 0
            for i in range(lo, n):
                child = tuple(c + (1 if j == i else 0) for j, c in enumerate(gamma))
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
    # exclusion: divisible by some lm(g) with a strictly larger d-part
    kept = {}
    for m, tag in found.items():
        excluded = False
        for lm, _ in ctx.lead:
            if shadow_divides(lm, m) and m.beta != lm.beta:
                excluded = True
                break
        if not excluded:
            kept[m] = tag
    return kept


def _defect_element(ctx, m, gi, gamma, certificate):
    """A_m = x^gamma g - lc(g) d^beta x^(alpha+gamma) e_j, plus its dW witness."""
    A = ctx.algebra
    F = A.field
    n = A.n
    g = ctx.basis[gi]
    lm, lc = ctx.lead[gi]
    xgamma = Monomial(gamma, (0,) * n, 1)
    left = mul_monomial(xgamma, F.one, g)

    # write d^beta X as d_i (d^(beta - e_i) X) to witness membership in dW^r
    i = next(j for j, b in enumerate(lm.beta) if b)
    beta_rest = tuple(b - (1 if j == i else 0) for j, b in enumerate(lm.beta))
    scalar_alg = A.with_rank(1)
    drest = WeylOperator(
        scalar_alg, {Monomial((0,) * n, beta_rest, 1): F.one}
    )
    xmono = WeylOperator(
        A,
        {
            Monomial(
                tuple(a + c for a, c in zip(lm.alpha, gamma)),
                (0,) * n,
                lm.comp,
            ): lc
        },
    )
    w = mul(drest, xmono)  # so that d_i w = lc * d^beta x^(alpha+gamma) e_j
    raw = left - mul(scalar_alg.dvar(i), w)

    cert = None
    if certificate:
        quot = {gi: WeylOperator(scalar_alg, {xgamma: F.one})}
        dw = [None] * n
        dw[i] = -w
        cert = DivisionCertificate(ctx.basis, quot, tuple(dw))
    return raw, cert


def compute_eta_basis(ctx, eta, tracer=None, certificate=True):
    """Echelonized basis of the irreducible elements of S + dW^r below eta.

    With ``tracer`` given, candidates recorded as non-contributing are
    skipped; a skipped-but-needed or contributing-but-vanishing mismatch
    raises UnluckyTracerError.
    """
    F = ctx.algebra.field
    minus_one = F.neg(F.one)
    order = ctx.order
    candidates = _enumerate_candidates(ctx, eta)
    rows = []  # list of EtaRow, ascending insertion, full Gauss-Jordan form
    vanished = set()

    for m in sorted(candidates, key=order.key):
        if tracer is not None and m in tracer:
            continue
        gi, gamma = candidates[m]
        raw, cert = _defect_element(ctx, m, gi, gamma, certificate)
        red, red_cert = reduced_form(raw, ctx, certificate=certificate)
        red, sub = _eliminate(red, rows, certificate)
        if red.is_zero():
            if tracer is not None:
                raise UnluckyTracerError(
                    f"candidate {m} contributed nothing on replay"
                )
            vanished.add(m)
            continue
        lm, lc = leading_data(red, order)
        inv = F.inv(lc)
        red = op_scale(red, inv)
        if certificate:
            # red = (raw - (raw - [raw]) - subtracted rows) / lc
            cert = cert.scale(inv) + (red_cert + sub).scale(F.neg(inv))
        new_row = EtaRow(m, red, lm, cert)
        # back-substitute into existing rows to keep the form canonical
        for k, row in enumerate(rows):
            if not F.is_zero(row.op.coefficient(lm)):
                op2, sub = _eliminate(row.op, (new_row,), certificate)
                cert2 = row.cert + sub.scale(minus_one) if certificate else None
                rows[k] = EtaRow(row.candidate, op2, row.lm, cert2)
        rows.append(new_row)

    rows.sort(key=lambda r: order.key(r.lm))
    return EtaBasis(eta, tuple(rows), frozenset(vanished))


def _eliminate(op, rows, certificate):
    """Subtract c * row.op for each row, c the coefficient of row.lm in op.

    One pass suffices: the rows are in Gauss-Jordan form, so no row's lm
    occurs in another row.  Returns (reduced op, witness of the subtracted
    part sum c * row.op); the witness is None when certificate=False.
    """
    F = op.algebra.field
    sub = DivisionCertificate((), {}, (None,) * op.algebra.n) if certificate else None
    for row in rows:
        c = op.coefficient(row.lm)
        if not F.is_zero(c):
            op = op - op_scale(row.op, c)
            if certificate:
                sub = sub + row.cert.scale(c)
    return op, sub


def reduce_eta(a, ctx, basis: EtaBasis, certificate=False):
    """The strengthened reduction [a]_eta = Eliminate([a], rows of the basis).

    Returns the operator, or (operator, cert) when certificate=True; cert
    witnesses a - [a]_eta in S + dW^r.
    """
    red, cert = reduced_form(a, ctx, certificate=certificate)
    red, sub = _eliminate(red, basis.rows, certificate)
    if certificate:
        return red, cert + sub
    return red


# ---------------------------------------------------------------------------
# the largest monomial of a given degree (threshold seed for confinement)


def largest_monomial_of_degree(algebra, order, s):
    """Max monomial of total degree s under the order, over all components.

    That is v^s e_1 for the largest single variable v (see MonomialOrder);
    slot 0 holds no x when the algebra is t-extended.
    """
    n = algebra.n

    def power(slot, e):
        vec = (0,) * slot + (e,) + (0,) * (2 * n - 1 - slot)
        return Monomial(vec[:n], vec[n:], 1)

    slots = range(1 if algebra.dt else 0, 2 * n)
    v = max(slots, key=lambda slot: order.key(power(slot, 1)))
    return power(v, s)
