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

Each eta-basis also keeps its tracer, the set of candidate monomials whose
row vanished.  It is part of the shape that modular votes compare
(telescoping.Confinement) and that the transcript and `weylred eta-basis`
report.
"""

from __future__ import annotations

from collections import deque

from .arith import Record
from .weyl import WeylOperator, leading_data, mul, mul_monomial, op_scale
from .groebner import DivisionCertificate, lrem, rrem


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

    def is_irreducible_monomial(self, m):
        L = self.algebra.layout
        if m & L.dfields:
            return False
        return not any(L.divides(lm, m) for lm, _ in self.lead)

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


class EtaRow(Record):
    _fields = ("candidate", "op", "lm", "cert")

    def __init__(self, candidate, op, lm, cert):
        self.candidate = candidate  # the H-monomial this row came from
        self.op = op  # irreducible, monic at lm
        self.lm = lm
        self.cert = cert  # witnesses op itself in S + dW^r (None without certificates)


class EtaBasis(Record):
    _fields = ("eta", "rows", "tracer")

    def __init__(self, eta, rows, tracer):
        self.eta = eta
        self.rows = rows
        self.tracer = tracer  # candidates whose row vanished


def _enumerate_candidates(ctx, eta):
    """H = {lm(x^gamma g) <= eta : g in basis, lm(g) has a d} as {m: (gi, gamma)}.

    BFS on gamma with pruning: multiplying by any x_i moves up in the order,
    so the region below eta is downward closed.
    """
    order = ctx.order
    eta_key = order.key(eta)
    L = ctx.algebra.layout
    found = {}
    for gi, (lm, _) in enumerate(ctx.lead):
        if not lm & L.dfields:
            continue
        seen = {0}
        queue = deque([0])  # gamma, a packed x^gamma
        while queue:
            gamma = queue.popleft()
            m = L.check(lm + gamma)
            if order.key(m) > eta_key:
                continue
            found.setdefault(m, (gi, gamma))
            lo = 1 if ctx.algebra.dt else 0
            for i in range(lo, L.n):
                child = gamma + L.x[i]
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
    # exclusion: divisible by some lm(g) with a strictly larger d-part
    kept = {}
    for m, tag in found.items():
        excluded = False
        for lm, _ in ctx.lead:
            if L.divides(lm, m) and m & L.dfields != lm & L.dfields:
                excluded = True
                break
        if not excluded:
            kept[m] = tag
    return kept


def _defect_element(ctx, m, gi, gamma, certificate):
    """A_m = x^gamma g - lc(g) d^beta x^(alpha+gamma) e_j, plus its dW witness."""
    A = ctx.algebra
    F = A.field
    L = A.layout
    g = ctx.basis[gi]
    lm, lc = ctx.lead[gi]
    left = mul_monomial(gamma, F.one, g)

    # write d^beta X as d_i (d^(beta - e_i) X) to witness membership in dW^r
    i = L.first_d(lm)
    d_part = L.with_degree(lm & L.dfields)
    scalar_alg = A.with_rank(1)
    drest = WeylOperator(scalar_alg, {d_part - L.d[i]: F.one})
    xmono = WeylOperator(A, {lm - d_part + gamma: lc})
    w = mul(drest, xmono)  # so that d_i w = lc * d^beta x^(alpha+gamma) e_j
    raw = left - mul(scalar_alg.dvar(i), w)

    cert = None
    if certificate:
        quot = {gi: WeylOperator(scalar_alg, {gamma: F.one})}
        dw = [None] * A.n
        dw[i] = -w
        cert = DivisionCertificate(ctx.basis, quot, tuple(dw))
    return raw, cert


def compute_eta_basis(ctx, eta, certificate=True):
    """Echelonized basis of the irreducible elements of S + dW^r below eta;
    its tracer holds the candidates whose row vanished."""
    F = ctx.algebra.field
    minus_one = F.neg(F.one)
    order = ctx.order
    candidates = _enumerate_candidates(ctx, eta)
    rows = []  # list of EtaRow, ascending insertion, full Gauss-Jordan form
    vanished = set()

    for m in sorted(candidates, key=order.key):
        gi, gamma = candidates[m]
        raw, cert = _defect_element(ctx, m, gi, gamma, certificate)
        red, red_cert = reduced_form(raw, ctx, certificate=certificate)
        red, sub = _eliminate(red, rows, certificate)
        if red.is_zero():
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

    Returns ([a]_eta, cert); cert witnesses a - [a]_eta in S + dW^r and is
    None when certificate=False.
    """
    red, cert = reduced_form(a, ctx, certificate=certificate)
    red, sub = _eliminate(red, basis.rows, certificate)
    return red, (cert + sub if certificate else None)


# ---------------------------------------------------------------------------
# the largest monomial of a given degree (threshold seed for confinement)


def largest_monomial_of_degree(algebra, order, s):
    """Max monomial of total degree s under the order, over all components.

    That is v^s e_1 for the largest single variable v (see MonomialOrder);
    slot 0 holds no x when the algebra is t-extended.
    """
    L = algebra.layout
    units = L.x + L.d  # slot codes 0..n-1 for x_i, n..2n-1 for d_i
    v = max(range(1 if algebra.dt else 0, 2 * L.n),
            key=lambda slot: order.key(units[slot]))
    return L.check(s * units[v])
