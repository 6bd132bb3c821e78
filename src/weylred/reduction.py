"""Normal forms modulo S + dW^r: the reduction map, eta-bases, and [.]_eta.

The plain reduced form alternates right division by (d_1..d_n) with left
division by a Groebner basis of S until no monomial is reducible by either
rule.  The result is K-linear and sound (input minus output lies in
S + dW^r, witnessed by a certificate) but deliberately incomplete: some
elements of S + dW^r have nonzero reduced forms.

The eta-basis closes that gap below a monomial threshold eta: it echelonizes
the reduced forms of the defect elements  x^gamma g - lc(g) d^beta x^(alpha+gamma) e_j
over all products with leading monomial <= eta, giving a basis of the
irreducible elements of S + dW^r supported <= eta.  Subtracting matches
against these rows upgrades the reduced form to [.]_eta.

A tracer remembers which candidate monomials contributed nothing so that
modular replays of the same computation can skip them; replays verify the
surviving rows and raise UnluckyTracerError on any mismatch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .weyl import (
    Monomial,
    WeylOperator,
    leading_data,
    mul,
    mul_monomial,
    op_scale,
    shadow_divides,
)
from .groebner import (
    DivisionCertificate,
    lrem,
    merge_certificates,
    rrem,
)


class UnluckyTracerError(Exception):
    """A replayed eta-basis disagrees with its reference tracer."""


class ReductionContext:
    """A submodule of W^r presented by a reduced Groebner basis plus an order.

    The order must satisfy the finiteness hypothesis (multiplying a fixed
    monomial by x^gamma exceeds any threshold for all but finitely many
    gamma); contexts reject orders that do not, since eta-basis enumeration
    would diverge.
    """

    __slots__ = ("algebra", "order", "basis", "lead", "_eta_cache")

    def __init__(self, algebra, order, basis):
        if not order.hypothesis_finiteness:
            raise ValueError("order does not guarantee finite eta-basis enumeration")
        assert order.n == algebra.n
        self.algebra = algebra
        self.order = order
        self.basis = tuple(basis)
        self.lead = tuple(leading_data(g, order) for g in self.basis)
        self._eta_cache = {}

    def is_irreducible_monomial(self, m: Monomial):
        if any(m.beta):
            return False
        return not any(shadow_divides(lm, m) for lm, _ in self.lead)

    def is_irreducible(self, a: WeylOperator):
        return all(self.is_irreducible_monomial(m) for m in a.terms)


def reduced_form(a, ctx, certificate=True):
    """The reduced form [a]: alternate right and left division to a fixpoint.

    Returns (result, cert); cert re-expands  a = [a] + sum q g + sum d w
    and is None when certificate=False.
    """
    n = a.algebra.n
    cert = (
        DivisionCertificate((), {}, tuple(None for _ in range(n)), a)
        if certificate
        else None
    )
    r = a
    while not ctx.is_irreducible(r):
        r2, c = rrem(r, certificate=certificate)
        if certificate:
            cert = merge_certificates(cert, c)
        r = r2
        if ctx.is_irreducible(r):
            break
        r2, c = lrem(r, ctx.basis, ctx.order, certificate=certificate)
        if certificate:
            cert = merge_certificates(cert, c)
        r = r2
    return r, cert


# ---------------------------------------------------------------------------
# certificate linear algebra (rows combine linearly, so do their witnesses)


def _cert_scale(cert, c, F):
    if cert is None:
        return None
    quot = {i: op_scale(q, c) for i, q in cert.quotients.items()}
    dw = tuple(None if w is None else op_scale(w, c) for w in cert.dw)
    return DivisionCertificate(cert.basis, quot, dw, op_scale(cert.remainder, c))


def _cert_sub(c1, c2):
    """Combine witnesses for row1 - row2 (remainders subtract too)."""
    if c1 is None or c2 is None:
        return None
    basis = c1.basis or c2.basis
    quot = dict(c1.quotients)
    for i, q in c2.quotients.items():
        quot[i] = (-q) if i not in quot else quot[i] - q
    dw = []
    for w1, w2 in zip(c1.dw, c2.dw):
        if w2 is None or w2.is_zero():
            dw.append(w1)
        elif w1 is None or w1.is_zero():
            dw.append(-w2)
        else:
            dw.append(w1 - w2)
    return DivisionCertificate(basis, quot, tuple(dw), c1.remainder - c2.remainder)


# ---------------------------------------------------------------------------
# eta-bases


@dataclass(frozen=True)
class EtaRow:
    candidate: Monomial  # the H-monomial this row came from
    op: WeylOperator  # irreducible, monic at lm
    lm: Monomial
    cert: object  # witness that op lies in S + dW^r (remainder slot unused)


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
        cert = DivisionCertificate(ctx.basis, quot, tuple(dw), A.with_rank(A.r).zero())
        # identity so far: raw = (sum q g + sum d w) + 0 ... by construction
    return raw, cert


def compute_eta_basis(ctx, eta, tracer=None, certificate=True):
    """Echelonized basis of the irreducible elements of S + dW^r below eta.

    With ``tracer`` given, candidates recorded as non-contributing are
    skipped; a skipped-but-needed or contributing-but-vanishing mismatch
    raises UnluckyTracerError.
    """
    cache_key = (eta, tracer, certificate)
    cached = ctx._eta_cache.get(cache_key)
    if cached is not None:
        return cached

    F = ctx.algebra.field
    order = ctx.order
    candidates = _enumerate_candidates(ctx, eta)
    rows = []  # list of EtaRow, ascending insertion, full Gauss-Jordan form
    vanished = set()

    for m in sorted(candidates, key=order.key):
        if tracer is not None and m in tracer:
            continue
        gi, gamma = candidates[m]
        raw, seed_cert = _defect_element(ctx, m, gi, gamma, certificate)
        red, red_cert = reduced_form(raw, ctx, certificate=certificate)
        cert = None
        if certificate:
            # raw = red + (div parts); raw itself = seed parts; so
            # red = seed parts - div parts, remainder slot zero.
            cert = _cert_sub(seed_cert, _strip_remainder(red_cert))
        red, cert = _eliminate(red, cert, rows, F, order)
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
        cert = _cert_scale(cert, inv, F)
        new_row = EtaRow(m, red, lm, cert)
        # back-substitute into existing rows to keep the form canonical
        for k, row in enumerate(rows):
            c = row.op.coefficient(lm)
            if not F.is_zero(c):
                op2 = row.op - op_scale(red, c)
                cert2 = (
                    _cert_sub(row.cert, _cert_scale(cert, c, F))
                    if certificate
                    else None
                )
                rows[k] = EtaRow(row.candidate, op2, row.lm, cert2)
        rows.append(new_row)

    rows.sort(key=lambda r: order.key(r.lm))
    result = EtaBasis(eta, tuple(rows), frozenset(vanished))
    ctx._eta_cache[cache_key] = result
    return result


def _strip_remainder(cert):
    if cert is None:
        return None
    return DivisionCertificate(
        cert.basis, cert.quotients, cert.dw, cert.remainder.algebra.zero()
    )


def _eliminate(op, cert, rows, F, order, cert_tracks_op=True):
    """Subtract row multiples until no monomial matches any row's lm.

    When cert re-expands to op itself (row building) the witness follows the
    subtraction; when it re-expands to input-minus-op (reduce_eta) the row's
    contribution moves to the other side and is added instead.
    """
    changed = True
    while changed and not op.is_zero():
        changed = False
        for row in rows:
            c = op.coefficient(row.lm)
            if not F.is_zero(c):
                op = op - op_scale(row.op, c)
                if cert is not None:
                    adj = c if cert_tracks_op else F.neg(c)
                    cert = _cert_sub(cert, _cert_scale(row.cert, adj, F))
                changed = True
    return op, cert


def reduce_eta(a, ctx, basis: EtaBasis, certificate=False):
    """The strengthened reduction [a]_eta = Eliminate([a], rows of the basis).

    Returns the operator, or (operator, cert) when certificate=True.
    """
    red, cert = reduced_form(a, ctx, certificate=certificate)
    F = ctx.algebra.field
    red, cert2 = _eliminate(red, _strip_remainder(cert) if certificate else None,
                            list(basis.rows), F, ctx.order, cert_tracks_op=False)
    if certificate:
        final = DivisionCertificate(cert2.basis, cert2.quotients, cert2.dw, red)
        return red, final
    return red


# ---------------------------------------------------------------------------
# the largest monomial of a given degree (threshold seed for confinement)


def largest_monomial_of_degree(algebra, order, s):
    """Max monomial of total degree s under the order, over all components."""
    n = algebra.n
    if order.kind in ("grevlex", "block"):
        alpha = tuple(s if i == (1 if algebra.dt else 0) else 0 for i in range(n))
        return Monomial(alpha, (0,) * n, 1)
    if order.kind == "lex":
        slot = order.sequence[0]
        alpha = [0] * n
        beta = [0] * n
        if slot < n:
            alpha[slot] = s
        else:
            beta[slot - n] = s
        return Monomial(tuple(alpha), tuple(beta), 1)
    if order.kind == "dtelim":
        beta = tuple(s if i == 0 else 0 for i in range(n))
        return Monomial((0,) * n, beta, 1)
    # generic scan (weightlex and friends)
    best = None
    best_key = None
    for split in combinations_with_replacement(range(2 * n), s):
        vec = [0] * (2 * n)
        for i in split:
            vec[i] += 1
        for comp in range(1, algebra.r + 1):
            m = Monomial(tuple(vec[:n]), tuple(vec[n:]), comp)
            k = order.key(m)
            if best_key is None or k > best_key:
                best, best_key = m, k
    return best
