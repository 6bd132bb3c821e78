"""Hypothesis strategy builders for monomials and operators, and the
faults the modular-driver tests inject."""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

from hypothesis import strategies as st

from weylred import reduction, telescoping
from weylred.arith import QQ_T
from weylred.weyl import Monomial

T = QQ_T.from_poly((Fraction(0), Fraction(1)))


def fractions(lo=-9, hi=9):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 9))


def nonzero_fractions(lo=-9, hi=9):
    return fractions(lo, hi).filter(bool)


def qqt_elements(max_deg=2, allow_zero=False):
    """Polynomial elements of Q(t) with small integer coefficients."""
    base = st.lists(st.integers(-9, 9), min_size=1, max_size=max_deg + 1).map(
        lambda cs: QQ_T.from_poly(tuple(Fraction(c) for c in cs))
    )
    if allow_zero:
        return base
    return base.filter(lambda c: not QQ_T.is_zero(c))


def monomials(n, r=1, max_exp=3, dt=False):
    """Decoded monomials (weyl.Monomial); Algebra.monomial(*m) packs one."""
    def build(alpha, beta, comp):
        if dt:
            alpha = (0,) + tuple(alpha[1:])
        return Monomial(tuple(alpha), tuple(beta), comp)

    exps = st.lists(st.integers(0, max_exp), min_size=n, max_size=n)
    return st.builds(build, exps, exps, st.integers(1, r))


def operators(algebra, coeffs=None, max_terms=4, max_exp=3, min_terms=0):
    """Random operators of the given algebra (zero allowed unless min_terms>0)."""
    if coeffs is None:
        coeffs = qqt_elements() if algebra.field is QQ_T else nonzero_fractions()
    return st.dictionaries(
        monomials(algebra.n, algebra.r, max_exp, dt=algebra.dt).map(
            lambda m: algebra.monomial(*m)),
        coeffs,
        min_size=min_terms,
        max_size=max_terms,
    ).map(algebra.operator)


def _skip_smallest_candidate(pres, conf):
    """conf with a tracer that also skips its smallest contributing
    candidate: a Confinement that no point confines to."""
    eta = pres.ctx.algebra.monomial(*conf.eta)
    candidates = reduction._enumerate_candidates(pres.ctx, eta)
    skipped = min(set(candidates) - conf.tracer, key=pres.ctx.order.key)
    return telescoping.Confinement(conf.eta, conf.B, conf.row_lms,
                                   conf.tracer | {skipped})


class NoTape:
    """A tape that binds at no prime, so every replay of it refuses."""

    def bind(self, Fp):
        return None


def vote_prime_document(p):
    """An airy-family document whose dx and dz relations carry the
    denominator p, so every evaluation mod p fails."""
    return ("vars t x y z\n"
            "---\n"
            f"dx - x^2 + t + z/{p}\n"
            "dy - 2*y^2 + t + 3*z\n"
            f"dz + x/{p} + 3*y\n"
            "dt + x + y\n")


@contextmanager
def outvoted_tracer_vote():
    """Within the block, the second tracer vote of telescope_modular (the
    first vote that goes through _solved and returns, whether it replayed
    the recorded computation or ran its own) returns a tracer that also
    skips its smallest contributing candidate, so the other two votes
    outvote it.  No point confines to that Confinement: a reference
    elected with it would discard every point."""
    real = telescoping._solved
    calls = 0

    def solved(pres, *args):
        nonlocal calls
        conf, system = real(pres, *args)
        if args[-1] == "votes":
            calls += 1
            if calls == 1:
                conf = _skip_smallest_candidate(pres, conf)
        return conf, system

    with mock.patch.object(telescoping, "_solved", solved):
        yield


@contextmanager
def outvoted_first_vote():
    """Within the block, the first vote of telescope_modular records the
    Confinement of outvoted_tracer_vote on a tape that binds at no prime:
    the other two votes run their own computation and outvote it, so the
    point of the elected vote records a second tape."""
    real = telescoping._record
    calls = 0

    def record(pres, *args):
        nonlocal calls
        tape, conf = real(pres, *args)
        calls += 1
        return (NoTape(), _skip_smallest_candidate(pres, conf)) if calls == 1 \
            else (tape, conf)

    with mock.patch.object(telescoping, "_record", record):
        yield


@contextmanager
def discarded_prime():
    """Within the block, prime[0] of telescope_modular reports a corrupted
    order-2 relation, whose shape no other prime shares."""
    real = telescoping._prime_relation

    def prime_relation(pres, rho, ref, recording, Fp, table, idx, cfg, counts):
        p, rel, log = real(pres, rho, ref, recording, Fp, table, idx, cfg, counts)
        if idx == 0 and len(rel) == 3:
            rel = (rel[0], (1, 1), rel[-1])
        return p, rel, log

    with mock.patch.object(telescoping, "_prime_relation", prime_relation):
        yield
