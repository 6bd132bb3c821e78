"""Telescopers for parametrized integrals by confinement and reduction.

A presentation couples a module W_x(t)^r/S (held as a ReductionContext)
with a derivation a -> da/dt + a.Lambda and an integrand representative f.
Confinement finds a monomial threshold eta and a finite monomial set B such
that the reduced derivative sequence g_0 = [f]_eta,
g_{i+1} = dg_i/dt + [L(g_i)]_eta stays inside Span_{K(t)}(B); the first
linear relation among the g_i is a telescoper for the integral.

Both drivers reduce f and L(m), m in B, at eta, take their coordinates over
B as g_0 and the matrix M of [L(.)]_eta (_reduced_system), and find the
first relation on the one vector chain g_{i+1} = dg_i/dt + g_i . M
(derivative_sequence).  The reduced form [a] does not depend on eta, so one
_ReducedForms table per solve computes [f] and each [L(m)] once, and every
confine round and then _reduced_system eliminate the stored forms against
their eta-basis.  telescope_direct does this over Q(t) on a certified table
and certifies its answer exactly: each of the 1 + |B| reductions is
witnessed by a checked division certificate, and the telescoper's
combination of the chain vectors must vanish.  The derivation maps S into S
and dW^r into dW^r, and S + dW^r is a K(t)-space, so the chain is congruent
to the iterated derivatives D^i f and the check proves
sum c_i D^i f in S + dW^r for any starting rho; a failure is an error, not
a reason to retry.
telescope_modular evaluates at t = a modulo word-size primes p, replays the
eta-basis construction with a majority-elected tracer, interpolates g_0
and the matrix of [L(.)]_eta back into F_p(t), and lifts the per-prime
relations to Q(t) by CRT and rational reconstruction, confirming with an
extra prime.  Rational reconstruction can succeed spuriously on too few
primes, so a confirming prime that disagrees joins the others and more
primes follow.  Each prime is verified once, where it is drawn:
telescope_modular builds its PrimeField there, and every vote, point image
and check at that prime shares it, down to evaluate_and_reduce, which
builds no field itself.

Each telescope_modular call records two computations once and replays
them everywhere else (Traverso's trace idea, ISSAC 1988, carried to the
numbers as in FiniteFlow).  The first usable vote runs confine over a
_Tape, and every later vote replays that tape (_vote).  After the
election, the eta-basis replay and the reductions of f and of L(m), m in
B, run over a second _Tape at the point of a vote that returned the
elected Confinement, from the inputs that vote evaluated, and every point
of every prime replays it.  A _Tape is a stand-in for the PrimeField
that splits the computation into a constant part (the constants of the
inputs, integer literals and what is computed from them alone) and a
point part (what depends on t), logs every operation of each, keeps every
is_zero outcome and every divisor as a guard, and refuses bool() and ==
on its values so that no branch goes unrecorded.  bind() runs the
constant part at a new prime and checks its guards; replay() runs the
point part over plain ints at one point of that prime, from the inputs
evaluated as before.  The guard rule: a replay is used only when every
input operator has the recorded support and every recorded is_zero
outcome comes out the same; otherwise the vote runs confine, or the point
goes through the generic _point_images, which decides whether it is
lucky.  Equal supports and outcomes make the code take the same path
through the same operations, so both ways give the same Confinements, the
same images, the same discarded points and the same transcript.  The
tapes live in one telescope_modular call; the threads of a wave only read
the point tape.

Both drivers confine with confine(ctx, L, f): the direct one on the
presentation's triple over Q(t), the modular vote on that triple evaluated
at a point, electing the reference Confinement.  Both find the relation
with relation_search (_RelationFinder) on derivative_sequence: over Q(t)
on the witnessed (g_0, M), and over F_p(t) per prime on the interpolated
one.

ModularConfig holds only what a caller sets: the seed, the threads per
wave and the point budget.  The prime budget, the vote sizes and the point
skips allowed are the constants _MIN_PRIMES .. _MAX_PRIMES below.
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .arith import (
    BudgetExhaustedError,
    InconsistencyError,
    ModularImage,
    PrimeField,
    QQ,
    RationalFunctions,
    UnluckyEvaluationError,
    collective_primitive,
    crt_combine,
    adaptive_reconstruct,
    pdeg,
    pdivmod,
    pexquo,
    pgcd,
    plcm,
    pmul,
    pnorm,
    random_prime_field,
    rational_reconstruct,
)
from .weyl import (
    Algebra,
    Monomial,
    WeylOperator,
    _mono_str,
    coefficientwise_dt,
    commutator,
    components,
    evaluate_and_reduce,
    leading_monomial,
    mul,
)
from .groebner import lrem
from .reduction import (
    ReductionContext,
    compute_eta_basis,
    largest_monomial_of_degree,
    reduce_eta,
    reduced_form,
    UnluckyTracerError,
)


# ---------------------------------------------------------------------------
# presentation of the integration problem


def _embed(a: WeylOperator, comp, rank):
    target = a.algebra.with_rank(rank)
    return WeylOperator(
        target, {Monomial(m.alpha, m.beta, comp): c for m, c in a.terms.items()}
    )


def apply_linear(L, a: WeylOperator):
    """a -> a . Lambda with row-vector convention: comp k gets sum_j a_j L[j][k]."""
    A = a.algebra
    r = A.r
    if len(L) != r or any(len(row) != r for row in L):
        raise ValueError(f"L must be a {r}x{r} matrix")
    out = A.zero()
    for j, aj in components(a).items():
        for k in range(r):
            entry = L[j - 1][k]
            if entry.is_zero():
                continue
            out = out + _embed(mul(aj, entry), k + 1, r)
    return out


class DerivedPresentation:
    """A module W_x(t)^r/S with the derivation a -> da/dt + a.Lambda and an f.

    L is an r x r matrix of scalar operators, and the coefficient field
    carries t.  On construction the stored Groebner basis G is checked for
    stability under the derivation, D(g) = dg/dt + L(g) in S for every
    basis element g, which is what makes the derivation well defined on
    the quotient.  When r = 1, L(g) = g.Lambda and S is a left ideal, so
    Lambda.g lies in S and D(g) lies in S exactly when
    D(g) - Lambda.g = dg/dt + [g, Lambda] does.  That operator is the one
    reduced: the commutator skips the term pairs of g and Lambda that
    commute, whose products cancel, so it is shorter than D(g) and cheaper
    to build.  G is a Groebner basis, so lrem(a, G) = 0 exactly when a lies
    in S: each g gets the same yes or no, and the same first failing
    element is named.  For r > 1, g.Lambda is no left multiple of g and
    lrem(dg/dt + L(g), G) = 0 is checked as it stands.
    """

    __slots__ = ("ctx", "L", "f")

    def __init__(self, ctx: ReductionContext, L, f: WeylOperator):
        if not ctx.algebra.field.has_t:
            raise ValueError(f"coefficient field {ctx.algebra.field!r} carries no t")
        r = ctx.algebra.r
        L = tuple(tuple(row) for row in L)
        if len(L) != r or any(len(row) != r for row in L):
            raise ValueError(f"L must be a {r}x{r} matrix")
        self.ctx = ctx
        self.L = L
        self.f = f
        for g in ctx.basis:
            if r == 1:
                img = coefficientwise_dt(g) + commutator(g, L[0][0])
            else:
                img = coefficientwise_dt(g) + apply_linear(L, g)
            rem, _ = lrem(img, ctx.basis, ctx.order, certificate=False)
            if not rem.is_zero():
                raise ValueError(
                    "module is not stable under the derivation: "
                    "basis element with lead "
                    f"{_mono_str(leading_monomial(g, ctx.order))} fails"
                )


# ---------------------------------------------------------------------------
# confinement (the eta/B search) and the derivative step over a field


@dataclass(frozen=True)
class Confinement:
    """(eta, B), and the shape of the eta-basis at eta that modular points
    replay; the modular vote elects one by equality of all four fields."""

    eta: Monomial
    B: tuple  # monomials, ascending under the ambient order
    row_lms: tuple  # lms of the eta-basis rows (replay reference)
    tracer: frozenset


def _monomial_op(ctx, m):
    return WeylOperator(ctx.algebra, {m: ctx.algebra.field.one})


class _ReducedForms:
    """The reduced forms of one solve: [f] and [L(m)] for each monomial m
    met, each computed on first use and kept until the solve ends.

    The reduced form [a] does not depend on eta; [a]_eta is [a] eliminated
    against the rows of an eta-basis, which is what reduce_eta does on an
    irreducible input.  So every confine round, and then the (g0, matrix)
    of _reduced_system, eliminate the same stored [a] instead of reducing a
    again.  A certified table also keeps the witness of a - [a].  Keys are
    None for f and m for L(m).
    """

    __slots__ = ("ctx", "L", "f", "certificate", "_forms")

    def __init__(self, ctx, L, f, certificate=False):
        self.ctx = ctx
        self.L = L
        self.f = f
        self.certificate = certificate
        self._forms = {}  # key -> (a, [a], witness of a - [a] or None)

    def _form(self, m):
        form = self._forms.get(m)
        if form is None:
            a = self.f if m is None else apply_linear(self.L, _monomial_op(self.ctx, m))
            red, cert = reduced_form(a, self.ctx, certificate=self.certificate)
            form = self._forms[m] = (a, red, cert)
        return form

    def at(self, m, basis_e):
        """[a]_eta against basis_e, for a = f (m None) or a = L(m)."""
        return reduce_eta(self._form(m)[1], self.ctx, basis_e)

    def witnessed(self, m, basis_e):
        """at(m, basis_e) for a certified table and eta-basis, once the
        witness of a - [a] plus that of the elimination verifies
        a - [a]_eta."""
        a, red, cert = self._form(m)
        red_eta, sub = reduce_eta(red, self.ctx, basis_e, certificate=True)
        if not (cert + sub).verifies(a - red_eta):
            raise InconsistencyError("reduced-form certificate failed")
        return red_eta


def confine(ctx, L, f, rho=1, degree_ceiling=40, forms=None):
    """Search for an effective confinement (eta, B) for f and L over ctx.

    The direct driver passes a DerivedPresentation's (ctx, L, f); the
    modular vote passes the same triple evaluated at a point, over F_p.
    The threshold degree starts at rho and may not pass degree_ceiling.
    Each round builds the eta-basis at its threshold and eliminates the
    reduced forms of f and of L(m), m met, against it; forms is the
    _ReducedForms table of (ctx, L, f) that keeps those forms across the
    rounds (an uncertified one when None).
    """
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    if degree_ceiling < 1:
        raise ValueError(f"degree ceiling must be positive, got {degree_ceiling}")
    if forms is None:
        forms = _ReducedForms(ctx, L, f)
    order = ctx.order
    s = rho
    while True:
        if s > degree_ceiling:
            raise BudgetExhaustedError(
                f"confinement degree ceiling {degree_ceiling} exceeded"
            )
        eta = largest_monomial_of_degree(ctx.algebra, order, s)
        basis_e = compute_eta_basis(ctx, eta, certificate=False)
        Q = set(forms.at(None, basis_e).support())
        B = set()
        while Q - B:
            m = min(Q - B, key=order.key)
            if m.degree() > s - rho:
                break  # no margin left below eta: raise the threshold
            Q |= set(forms.at(m, basis_e).support())
            B.add(m)
        else:
            return Confinement(
                eta=eta,
                B=tuple(sorted(B, key=order.key)),
                row_lms=tuple(r.lm for r in basis_e.rows),
                tracer=basis_e.tracer,
            )
        s += 1


def _reduced_system(forms, basis_e, B, error):
    """(g0, matrix) over the field of the _ReducedForms table forms: the
    coordinates over B of [f]_eta, then of [L(m)]_eta for each m in B in
    order, against basis_e; the system both drivers build.  A certified
    table witnesses each of these reductions.  A support outside B raises
    error: an unlucky point in modular mode, a fault in direct mode."""
    reduce = forms.witnessed if forms.certificate else forms.at
    index = {m: i for i, m in enumerate(B)}
    zero = forms.ctx.algebra.field.zero

    def coordinates(key):
        vec = [zero] * len(B)
        for m, c in reduce(key, basis_e).terms.items():
            pos = index.get(m)
            if pos is None:
                raise error(f"support escapes the confinement at {m}")
            vec[pos] = c
        return tuple(vec)

    return coordinates(None), tuple(map(coordinates, B))


def derivative_sequence_step(F, g, matrix):
    """One step g -> dg/dt + g . M over F, where M = [L(B_i)]_eta row by row."""
    if len(g) != len(matrix):
        raise ValueError(f"vector has length {len(g)}, matrix has {len(matrix)} rows")
    out = [F.derivative(c) for c in g]
    for c, row in zip(g, matrix):
        if F.is_zero(c):
            continue
        for j, rc in enumerate(row):
            out[j] = F.add(out[j], F.mul(c, rc))
    return tuple(out)


def derivative_sequence(F, g0, matrix):
    """g_0 and g_{i+1} = dg_i/dt + g_i . matrix, lazily, up to g_nb: with
    nb = len(g0), g_0..g_nb are always dependent."""
    g = g0
    for _ in range(len(g0) + 1):
        yield g
        g = derivative_sequence_step(F, g, matrix)


# ---------------------------------------------------------------------------
# linear relation search over a coefficient field


class _RelationFinder:
    """Incremental echelon form with transform tracking over a field F."""

    def __init__(self, F, dim):
        self.F = F
        self.dim = dim
        self.rows = []  # (vector list, combination list)
        self.count = 0

    def push(self, vec):
        """Insert the next vector; return relation coefficients if dependent."""
        F = self.F
        if len(vec) != self.dim:
            raise ValueError(f"vector has length {len(vec)}, expected {self.dim}")
        v = list(vec)
        comb = [F.zero] * self.count + [F.one]
        for pivot_col, row, rcomb in self.rows:
            c = v[pivot_col]
            if not F.is_zero(c):
                for j in range(self.dim):
                    v[j] = F.sub(v[j], F.mul(c, row[j]))
                for j in range(len(rcomb)):
                    comb[j] = F.sub(comb[j], F.mul(c, rcomb[j]))
        self.count += 1
        pivot = next((j for j in range(self.dim) if not F.is_zero(v[j])), None)
        if pivot is None:
            return tuple(comb)
        inv = F.inv(v[pivot])
        v = [F.mul(inv, c) for c in v]
        comb = [F.mul(inv, c) for c in comb]
        self.rows.append((pivot, v, comb))
        return None


def relation_search(F, vectors):
    """First linear dependency among the prefix of the vectors, or None.

    Returns coefficients (c_0 .. c_N) in F with c_N = 1 for the minimal N
    such that g_0..g_N are dependent; None when all vectors are independent.
    The vectors are consumed lazily: none after g_N is drawn.
    """
    finder = None
    for vec in vectors:
        finder = finder or _RelationFinder(F, len(vec))
        rel = finder.push(vec)
        if rel is not None:
            return rel
    return None


# ---------------------------------------------------------------------------
# telescopers and canonical normalization


@dataclass(frozen=True)
class Telescoper:
    """P = c_0 + c_1 d_t + ... + c_N d_t^N with dense polynomial coefficients.

    Over Q the coefficients are integer tuples, collectively primitive with
    the leading coefficient of c_N positive; over F_p (modulus set) they are
    residue tuples, content-free with c_N monic.
    """

    coefficients: tuple
    modulus: int = None

    def __post_init__(self):
        if not (self.coefficients and self.coefficients[-1]):
            raise ValueError("c_N must be nonzero")

    @property
    def order(self):
        return len(self.coefficients) - 1

    @property
    def degrees(self):
        return tuple(pdeg(c) for c in self.coefficients)


def _clear_denominators(R, fracs):
    """(num, den) payloads over R -> the numerators over the lcm of the dens."""
    den = (R.one,)
    for _, d in fracs:
        den = plcm(R, den, d)
    return [pmul(R, n, pexquo(R, den, d)) for n, d in fracs]


def _primitive_positive(polys):
    """Q[t] or Z[t] tuple -> collectively primitive Z[t] tuple with lc(c_N) > 0."""
    zpolys = collective_primitive(polys)
    if zpolys[-1][-1] < 0:
        zpolys = [tuple(-c for c in p) for p in zpolys]
    return tuple(tuple(p) for p in zpolys)


def _normalize_modp_relation(Fp, polys):
    """F_p[t] tuple -> content-free with c_N monic."""
    content = ()
    for p in polys:
        content = pgcd(Fp, content, p)[0] if content else pnorm(Fp, p)
    if pdeg(content) > 0:
        polys = [pdivmod(Fp, p, content)[0] for p in polys]
    if not polys[-1]:
        raise InconsistencyError("leading relation coefficient vanished")
    inv = Fp.inv(polys[-1][-1])
    return tuple(tuple(Fp.mul(c, inv) for c in p) for p in polys)


def telescoper_from_field_relation(F, rel):
    """Normalize a relation over Q(t) or F_p(t) into a canonical Telescoper."""
    if not isinstance(F, RationalFunctions):
        raise ValueError(f"relation must be over Q(t) or F_p(t), not {F!r}")
    polys = _clear_denominators(F.ring, rel)
    if isinstance(F.base, PrimeField):
        return Telescoper(_normalize_modp_relation(F.base, polys), modulus=F.base.p)
    return Telescoper(_primitive_positive(polys))


def telescoper_from_system(F, g0, matrix):
    """Canonical telescoper from the first F-linear relation on the
    derivative_sequence of (g0, matrix)."""
    return telescoper_from_field_relation(
        F, relation_search(F, derivative_sequence(F, g0, matrix)))


# ---------------------------------------------------------------------------
# direct driver over Q(t)


def telescope_direct(pres: DerivedPresentation, rho=1, degree_ceiling=40):
    """Telescoper over Q(t), computed without modular arithmetic.

    confine runs on a certified _ReducedForms table, which keeps each
    reduced form [f] and [L(m)] it computes with the witness of a - [a].
    After confine, builds the (g0, matrix) that each prime of
    telescope_modular builds, from that table and the certified eta-basis
    at eta: g0 holds the coordinates over B of [f]_eta and row i of matrix
    those of [L(B[i])]_eta, each the stored [a] eliminated against the
    rows.  The witness of a - [a]_eta (the stored one plus that of the
    elimination) of each of these 1 + |B| reductions is checked; no
    operator is reduced twice.  relation_search runs on the
    derivative_sequence g_{i+1} = dg_i/dt + g_i . matrix and stops at the
    first dependent g_N; sum c_i g_i must vanish on the vectors it consumed.

    Why the check is a proof: read a vector g as the operator
    G = sum_m g[m] m, and write L(a) = a.Lambda.  D(a) = da/dt + L(a) maps S
    into S (D(q g) = q'g + q D(g), and DerivedPresentation checks D(g) in S
    for each basis element g, checked as g' + [g, Lambda] when r = 1) and
    dW^r into dW^r (D(d_j w) = d_j D(w)).
    S + dW^r is closed under left multiplication by K(t), so
    L(G) - sum_m G[m] [L(m)]_eta = sum_m G[m] (L(m) - [L(m)]_eta) lies in
    S + dW^r by the witnesses, and G_{i+1} = dG_i/dt + sum_m G_i[m] [L(m)]_eta
    is congruent to D(G_i).  As G_0 = [f]_eta is congruent to f, G_i = D^i f
    mod S + dW^r by induction, and the check proves sum c_i D^i f in
    S + dW^r for any rho.  A failed witness, a support outside B or a
    nonzero sum raises InconsistencyError; nothing is retried.
    """
    ctx = pres.ctx
    F = ctx.algebra.field
    forms = _ReducedForms(ctx, pres.L, pres.f, certificate=True)
    conf = confine(ctx, pres.L, pres.f, rho=rho, degree_ceiling=degree_ceiling,
                   forms=forms)
    basis_e = compute_eta_basis(ctx, conf.eta, certificate=True)
    g0, matrix = _reduced_system(forms, basis_e, conf.B, InconsistencyError)
    chain = []

    def recorded():
        for g in derivative_sequence(F, g0, matrix):
            chain.append(g)
            yield g

    tel = telescoper_from_field_relation(F, relation_search(F, recorded()))
    total = [F.zero] * len(g0)
    for c, g in zip(map(F.from_poly, tel.coefficients), chain, strict=True):
        total = [F.add(s, F.mul(c, x)) for s, x in zip(total, g)]
    if not all(map(F.is_zero, total)):
        raise InconsistencyError("telescoper certificate failed")
    return tel


# ---------------------------------------------------------------------------
# modular driver


_MIN_PRIMES = 2  # primes in the first wave; CRT needs two of one shape
_TRACER_VOTES = 3  # (prime, point) pairs that vote on the reference
_VOTE_ROUNDS = 3  # vote rounds before the election is given up
_MAX_POINT_TRIES = 64  # skipped points before a prime or a vote is given up
_MAX_PRIMES = 16  # primes tried before giving up; the consistency check may add four


@dataclass
class ModularConfig:
    """Settings of one modular run.

    seed: seeds every random choice, so it fixes the transcript.
    workers: threads per wave of primes; the transcript does not depend on it.
    max_points: points one reconstructed entry may use per prime.
    """

    seed: int = 0
    workers: int = 4
    max_points: int = 2048

    def __post_init__(self):
        for name in ("workers", "max_points"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


# The tallies of ModularRun.replays.
_REPLAY_COUNTS = ("tapes_recorded", "votes_replayed", "votes_generic",
                  "points_replayed", "points_generic")


@dataclass(frozen=True)
class ModularRun:
    """The telescoper of telescope_modular and how it was found.  replays
    maps each name of _REPLAY_COUNTS to a count: the tapes recorded, the
    votes after the first and the prime points that replayed a tape or
    took the generic path.  Like the transcript it depends on the seed
    alone, but it stays out of the transcript."""

    telescoper: Telescoper
    transcript: tuple
    primes_used: tuple
    primes_discarded: tuple
    replays: dict


def _inputs(pres):
    """The operators of pres that a point evaluates: the basis, f, then L
    row by row."""
    return pres.ctx.basis + (pres.f,) + tuple(e for row in pres.L for e in row)


def _context(pres, field, ops):
    """(ctx, L, f) over field from the operators _inputs(pres) lists."""
    A = pres.ctx.algebra
    nbasis, r = len(pres.ctx.basis), len(pres.L)
    ctx = ReductionContext(Algebra(A.n, A.r, field, False), pres.ctx.order,
                           ops[:nbasis])
    L = tuple(ops[nbasis + 1 + i * r:nbasis + 1 + (i + 1) * r] for i in range(r))
    return ctx, L, ops[nbasis]


def _evaluate(pres, img):
    """The operators _inputs(pres) lists, evaluated at img."""
    return tuple(evaluate_and_reduce(op, img) for op in _inputs(pres))


def _reduced_images(ref, ctx, L, f):
    """Replay the eta-basis of the Confinement ref and return the
    _reduced_system over the field of ctx; any disagreement with the
    reference (row lms, supports outside B) is an unlucky-point signal."""
    try:
        basis_e = compute_eta_basis(ctx, ref.eta, tracer=ref.tracer,
                                    certificate=False)
    except UnluckyTracerError as e:
        raise UnluckyEvaluationError(str(e))
    if tuple(r.lm for r in basis_e.rows) != ref.row_lms:
        raise UnluckyEvaluationError("eta-basis row lms differ from reference")
    return _reduced_system(_ReducedForms(ctx, L, f), basis_e, ref.B,
                           UnluckyEvaluationError)


def _point_images(pres, ref, img):
    """Evaluate at (p, a) and reduce there: the numeric (g0, matrix).

    This is the generic path.  telescope_modular runs the same reduction
    once per call over a _Tape (_record_point) and replays that tape at
    every point of every prime; a point whose input supports or guard
    outcomes differ from the recording comes here instead, and this code
    decides whether it is lucky.
    """
    return _reduced_images(ref, *_context(pres, img.field, _evaluate(pres, img)))


# The operations of a tape entry (op, slot, a, b) on the slots a and b.
_ADD, _SUB, _MUL, _DIV = range(4)
_EXACT = (operator.add, operator.sub, operator.mul, operator.floordiv)


def _run(code, v, p):
    """Run straight-line code over the residues v mod p in place; False
    when a divisor vanishes.  The other guards can wait until the end."""
    for op, d, a, b in code:
        if op == _MUL:
            v[d] = v[a] * v[b] % p
        elif op == _SUB:
            v[d] = (v[a] - v[b]) % p
        elif op == _ADD:
            v[d] = (v[a] + v[b]) % p
        else:
            if not v[b]:
                return False
            v[d] = v[a] * pow(v[b], -1, p) % p
    return True


def _guards_hold(v, nonzero, zero):
    get = v.__getitem__
    return 0 not in map(get, nonzero) and not any(map(get, zero))


class _Recorded:
    """A value of a _Tape: its slot in the point part (point=True) or in the
    constant part, and its residue where it was recorded.  A branch on it
    would go unrecorded, so bool() and == raise; the reduction code tests
    values only through is_zero."""

    __slots__ = ("slot", "value", "point", "guarded")

    def __init__(self, slot, value, point):
        self.slot = slot
        self.value = value
        self.point = point
        self.guarded = False

    def __bool__(self):
        raise TypeError("a recorded value is tested only through is_zero")

    def __eq__(self, other):
        raise TypeError("a recorded value is compared only through is_zero")


class _Tape:
    """A stand-in for the PrimeField of one (p, a) that records the
    computation run over it as two straight-line programs, for any prime.

    Every value but the literals 0 and 1 is a _Recorded.  The constant part
    computes what depends only on the constants of the inputs and on
    integer literals (from_int); the point part computes what depends on
    t.  Each operation appends one entry (op, slot, a, b) to the part of
    its result, and each value that is_zero tests (divisors included)
    becomes a guard of its part: it must come out nonzero, or zero, as it
    did when recorded.  With equal input supports and equal guard outcomes
    the reduction code takes the same path through the same operations at
    any (p, a).  bind(Fp) runs the constant part at the prime of Fp and
    checks its guards; replay() runs the point part at one point of that
    prime and checks the rest.  Either returns None when something
    differs, and the caller then takes the generic path.  Once recorded, a
    tape is only read, so threads may share it.
    """

    zero = 0
    one = 1

    def __init__(self, Fp):
        self.p = Fp.p
        self.const_code = []
        self.const_slots = 0
        self.const_inputs = []  # (slot, num, den) per input constant num/den
        self.literals = {}  # integer -> its constant
        self.const_nonzero = []  # constant guards: slots that were nonzero
        self.const_zero = []  # ... and slots that were zero
        self.code = []
        self.slots = 0  # of the point part
        self.imports = []  # (point slot, constant slot) the point part reads
        self.inputs = []  # (monomials, point slots or None) per input operator
        self.outputs = ()  # point slots
        self.guard_nonzero = []
        self.guard_zero = []
        self._imported = {}  # constant slot -> point slot
        self._inverses = {}  # constant slot -> its inverse, a constant

    def _value(self, value, point):
        if point:
            self.slots += 1
            return _Recorded(self.slots - 1, value, True)
        self.const_slots += 1
        return _Recorded(self.const_slots - 1, value, False)

    def _constant(self, op, a, b, value):
        x = self._value(value, False)
        self.const_code.append((op, x.slot, a, b))
        return x

    def _literal(self, n):
        x = self.literals.get(n)
        if x is None:
            x = self.literals[n] = self._value(n % self.p, False)
        return x

    def _const_slot(self, x):
        return (x if isinstance(x, _Recorded) else self._literal(x)).slot

    def _point_slot(self, x):
        """The slot of x in the point part; a constant is imported once."""
        if not isinstance(x, _Recorded):
            x = self._literal(x)
        if x.point:
            return x.slot
        slot = self._imported.get(x.slot)
        if slot is None:
            slot = self._imported[x.slot] = self.slots
            self.slots += 1
            self.imports.append((slot, x.slot))
        return slot

    def _inverse(self, y):
        x = self._inverses.get(y.slot)
        if x is None:
            x = self._inverses[y.slot] = self._constant(
                _DIV, self._literal(1).slot, y.slot, pow(y.value, -1, self.p))
        return x

    def _apply(self, op, x, y):
        rx, ry = isinstance(x, _Recorded), isinstance(y, _Recorded)
        if not (rx or ry):  # literals stay exact integers
            n = _EXACT[op](x, y)
            return n if n in (0, 1) else self._literal(n)
        # a literal operand is 0 or 1, and div() never passes y = 0
        if not ry:
            if y == 0:
                return 0 if op == _MUL else x
            if op in (_MUL, _DIV):
                return x
        elif not rx:
            if x == 0 and op != _SUB:
                return y if op == _ADD else 0
            if x == 1 and op == _MUL:
                return y
        if op == _DIV and rx and x.point and not y.point:
            op, y = _MUL, self._inverse(y)
        p = self.p
        u, v = x.value if rx else x, y.value if ry else y
        if op == _DIV:
            value = u * pow(v, -1, p) % p
        else:
            value = _EXACT[op](u, v) % p
        if rx and x.point or ry and y.point:
            z = self._value(value, True)
            self.code.append((op, z.slot, self._point_slot(x), self._point_slot(y)))
            return z
        return self._constant(op, self._const_slot(x), self._const_slot(y), value)

    def from_int(self, n):
        return n if n in (0, 1) else self._literal(n)

    def add(self, x, y):
        return self._apply(_ADD, x, y)

    def sub(self, x, y):
        return self._apply(_SUB, x, y)

    def mul(self, x, y):
        return self._apply(_MUL, x, y)

    def neg(self, x):
        return self.sub(0, x)

    def inv(self, x):
        return self.div(1, x)

    def div(self, x, y):
        if self.is_zero(y):
            raise ZeroDivisionError("division by zero")
        return self._apply(_DIV, x, y)

    def is_zero(self, x):
        if not isinstance(x, _Recorded):
            return not x
        zero = not x.value
        if not x.guarded:
            x.guarded = True
            if x.point:
                (self.guard_zero if zero else self.guard_nonzero).append(x.slot)
            else:
                (self.const_zero if zero else self.const_nonzero).append(x.slot)
        return zero

    def eq(self, x, y):
        raise TypeError("a recorded value is compared only through is_zero")

    def derivative(self, x):
        raise ValueError(f"field GF({self.p}) carries no parameter t")

    def lift(self, source, image):
        """image, the evaluation of source at the recording point, as an
        operator over the tape: its t-dependent coefficients become point
        inputs, and its constant ones the constants num/den of source."""
        A = image.algebra
        terms, slots = {}, []
        for m, c in image.terms.items():
            num, den = source.terms[m]
            if len(num) > 1 or len(den) > 1:
                c = self._value(c, True)
                slots.append(c.slot)
            else:
                c = self._value(c, False)
                self.const_inputs.append((c.slot, num[0], den[0]))
                slots.append(None)
            terms[m] = c
        self.inputs.append((tuple(image.terms), tuple(slots)))
        return WeylOperator(Algebra(A.n, A.r, self, False), terms)

    def finish(self, outputs):
        """Fix the outputs of the point part."""
        self.outputs = tuple(map(self._point_slot, outputs))

    def bind(self, Fp):
        """The constant part run at the prime of Fp, as the start of
        replay() there, or None when a constant divisor or guard differs
        from the recording."""
        p = Fp.p
        c = [0] * self.const_slots
        for n, x in self.literals.items():
            c[x.slot] = n % p
        for slot, num, den in self.const_inputs:
            if not den % p:
                return None
            c[slot] = num * pow(den, -1, p) % p
        if not (_run(self.const_code, c, p)
                and _guards_hold(c, self.const_nonzero, self.const_zero)):
            return None
        start = [0] * self.slots
        for slot, const in self.imports:
            start[slot] = c[const]
        return p, start

    def replay(self, bound, images):
        """The outputs at the point of images, the inputs evaluated there,
        from bind()'s start at its prime; None when an input support or a
        guard differs from the recording."""
        p, start = bound
        v = list(start)
        for image, (monomials, slots) in zip(images, self.inputs):
            if tuple(image.terms) != monomials:
                return None
            for slot, c in zip(slots, image.terms.values()):
                if slot is not None:
                    v[slot] = c
        if not (_run(self.code, v, p)
                and _guards_hold(v, self.guard_nonzero, self.guard_zero)):
            return None
        return [v[s] for s in self.outputs]


def _unflatten(values, nb):
    """The flat outputs of a tape as (g0, matrix)."""
    return tuple(values[:nb]), tuple(
        tuple(values[nb * (i + 1):nb * (i + 2)]) for i in range(nb))


def _lifted_context(tape, pres, images):
    """(ctx, L, f) over tape, lifted from images, the inputs evaluated at
    the recording point."""
    return _context(pres, tape, tuple(map(tape.lift, _inputs(pres), images)))


def _record_point(pres, ref, Fp, images):
    """The tape of _point_images at the point of Fp where the inputs
    evaluate to images."""
    tape = _Tape(Fp)
    g0, rows = _reduced_images(ref, *_lifted_context(tape, pres, images))
    tape.finish(g0 + sum(rows, ()))
    return tape


class _SamplePool:
    """Lazily grown list of (point, sample) pairs shared by several streams."""

    def __init__(self, draw):
        self.draw = draw  # () -> the next (point, sample) pair
        self.samples = []

    def stream(self, pick):
        """Yield (point, pick(sample)) pairs, growing the pool on demand."""
        i = 0
        while True:
            if i == len(self.samples):
                self.samples.append(self.draw())
            point, sample = self.samples[i]
            yield point, pick(sample)
            i += 1


def _evaluation_draw(pres, ref, tape, Fp, rng, log, counts):
    """draw() for the evaluation pool of the prime of Fp: a fresh point a and
    the numeric (g0, matrix) there, replayed from tape (None: no tape) where
    it binds and replays, from _point_images elsewhere; counts tallies the
    two.  Repeated and unlucky points are skipped; after _MAX_POINT_TRIES
    skips the prime is given up."""
    prime = Fp.p
    used = set()
    skips = 0
    bound = None if tape is None else tape.bind(Fp)

    def images(img):
        if bound is not None:
            values = tape.replay(bound, _evaluate(pres, img))
            if values is not None:
                counts["points_replayed"] += 1
                return _unflatten(values, len(ref.B))
        counts["points_generic"] += 1
        return _point_images(pres, ref, img)

    def draw():
        nonlocal skips
        while True:
            if skips >= _MAX_POINT_TRIES:
                raise UnluckyEvaluationError(
                    f"no usable evaluation points mod {prime}",
                    prime_level=True,
                )
            a = rng.randrange(1, prime)
            if a not in used:
                used.add(a)
                try:
                    return a, images(ModularImage(Fp, a))
                except UnluckyEvaluationError as e:
                    if e.prime_level:
                        raise
                    log.append(f"  discard point {a}")
            skips += 1

    return draw


def _interpolated_system(points, Fp, nb, cfg):
    """Reconstruct g0 and the [L(.)]_eta matrix as F_p(t) entries."""
    g0 = []
    for j in range(nb):
        g0.append(
            adaptive_reconstruct(
                Fp, points.stream(lambda d, j=j: d[0][j]), max_points=cfg.max_points
            )
        )
    rows = []
    for i in range(nb):
        row = []
        for j in range(nb):
            row.append(
                adaptive_reconstruct(
                    Fp,
                    points.stream(lambda d, i=i, j=j: d[1][i][j]),
                    max_points=cfg.max_points,
                )
            )
        rows.append(row)
    return g0, rows


def _prime_relation(pres, ref, tape, Fp, idx, cfg, counts):
    """Canonical relation modulo the prime of Fp, with its local transcript;
    tape and counts as in _evaluation_draw."""
    prime = Fp.p
    log = [f"prime[{idx}] {prime}"]
    rng = random.Random(f"{cfg.seed}/prime/{idx}")
    nb = len(ref.B)
    points = _SamplePool(_evaluation_draw(pres, ref, tape, Fp, rng, log, counts))

    g0_rf, mat_rf = _interpolated_system(points, Fp, nb, cfg)
    rel = telescoper_from_system(RationalFunctions(Fp), g0_rf, mat_rf).coefficients
    log.append(f"  points={len(points.samples)} N={len(rel) - 1} "
               f"degs={tuple(pdeg(c) for c in rel)}")
    return {"idx": idx, "prime": prime, "rel": rel,
            "shape": (len(rel) - 1, tuple(pdeg(c) for c in rel)), "log": log}


def _vote(pres, Fp, images, rho, degree_ceiling, recorded, counts):
    """The Confinement of one vote of _elect_reference, at the point of Fp
    where the inputs evaluate to images.

    Every vote goes through here.  recorded is empty until the first usable
    vote, which runs confine over a _Tape and appends (tape, Confinement).
    Every later vote replays that tape at its point, and returns the
    recorded Confinement when every input support and guard matches: it
    holds only monomials, so the same branch path gives the same
    Confinement.  Otherwise the vote runs confine at its point.
    """
    if not recorded:
        tape = _Tape(Fp)
        conf = confine(*_lifted_context(tape, pres, images), rho=rho,
                       degree_ceiling=degree_ceiling)
        tape.finish(())
        recorded.append((tape, conf))
        counts["tapes_recorded"] += 1
        return conf
    tape, conf = recorded[0]
    bound = tape.bind(Fp)
    if bound is not None and tape.replay(bound, images) is not None:
        counts["votes_replayed"] += 1
        return conf
    counts["votes_generic"] += 1
    return confine(*_context(pres, Fp, images), rho=rho,
                   degree_ceiling=degree_ceiling)


def _elect_reference(pres, rho, cfg, fields, log, degree_ceiling, counts):
    """The Confinement that a majority of _TRACER_VOTES votes returns, each
    vote confining at a point of the next prime field drawn from fields,
    with the ModularImage of the first vote that returned it and the inputs
    evaluated there, which _record_point lifts.  The votes share one
    recorded confine (_vote); counts tallies them."""
    recorded = []
    for round_no in range(_VOTE_ROUNDS):
        votes = []
        for v in range(_TRACER_VOTES):
            vote_rng = random.Random(f"{cfg.seed}/vote/{round_no}/{v}")
            Fp = next(fields)
            prime = Fp.p
            for _ in range(_MAX_POINT_TRIES):
                img = ModularImage(Fp, vote_rng.randrange(1, prime))
                try:
                    images = _evaluate(pres, img)
                    conf = _vote(pres, Fp, images, rho, degree_ceiling, recorded,
                                 counts)
                except UnluckyEvaluationError:
                    continue
                break
            else:
                raise BudgetExhaustedError(f"no usable vote points mod {prime}")
            log.append(
                f"vote prime={prime} point={img.point} eta={_mono_str(conf.eta)} "
                f"|B|={len(conf.B)} |tracer|={len(conf.tracer)}"
            )
            votes.append((conf, img, images))
        confs = [vote[0] for vote in votes]
        for vote in votes:
            if confs.count(vote[0]) * 2 > len(confs):
                log.append("votes agree" if confs.count(vote[0]) == len(confs)
                           else "votes split, majority kept")
                return vote
        log.append("votes inconclusive, new round")
    raise InconsistencyError("tracer votes never reached a majority")


def _reduce_canonical_mod(coeffs, Fp):
    """Q-canonical integer relation -> the per-prime canonical form over Fp."""
    p = Fp.p
    polys = [pnorm(Fp, tuple(c % p for c in poly)) for poly in coeffs]
    if not polys[-1]:
        return None  # p divides the leading coefficient: unlucky
    return _normalize_modp_relation(Fp, polys)


def telescope_modular(pres: DerivedPresentation, rho=1, config: ModularConfig = None,
                      degree_ceiling=40):
    """Telescoper over Q by per-prime evaluation/interpolation and CRT lifting.

    Returns a ModularRun carrying the telescoper, a deterministic transcript
    (a fixed seed yields byte-identical transcripts regardless of worker
    count), and the primes kept/discarded.  The telescoper is returned only
    once an independent prime reproduces its canonical image.
    """
    cfg = config or ModularConfig()
    log = [f"seed {cfg.seed} rho {rho}"]

    prime_rng = random.Random(f"{cfg.seed}/primes")
    seen_primes = set()

    def prime_fields():
        """Distinct primes, each verified once into the PrimeField that all
        of its points share."""
        while True:
            Fp = random_prime_field(prime_rng)
            if Fp.p not in seen_primes:
                seen_primes.add(Fp.p)
                yield Fp

    fields = prime_fields()
    counts = Counter()

    def replays():
        return {name: counts[name] for name in _REPLAY_COUNTS}

    ref, vote_img, vote_images = _elect_reference(pres, rho, cfg, fields, log,
                                                  degree_ceiling, counts)
    if not ref.B:
        log.append("empty confinement: unit telescoper")
        return ModularRun(Telescoper(((1,),)), tuple(log), (), (), replays())
    # the vote point is lucky for ref: confine's own eta-basis there has
    # the rows that ref's tracer replays, and B is closed there
    try:
        tape = _record_point(pres, ref, vote_img.field, vote_images)
        counts["tapes_recorded"] += 1
    except UnluckyEvaluationError:  # that vote's Confinement was not confine's
        tape = None

    results = {}
    discarded = []
    next_idx = 0

    def run_wave(count):
        nonlocal next_idx
        wave = []
        for _ in range(count):
            wave.append((next_idx, next(fields)))
            next_idx += 1
        tallies = {i: Counter() for i, _ in wave}  # one per thread
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            futs = {
                i: pool.submit(_prime_relation, pres, ref, tape, Fp, i, cfg,
                               tallies[i])
                for i, Fp in wave
            }
        for i, Fp in wave:
            counts.update(tallies[i])
            try:
                results[i] = futs[i].result()
            except (UnluckyEvaluationError, BudgetExhaustedError) as e:
                discarded.append(Fp.p)
                results[i] = {"idx": i, "prime": Fp.p, "rel": None,
                              "log": [f"prime[{i}] {Fp.p}", f"  discarded: {e}"]}

    def merged_candidate():
        good = [r for r in sorted(results.values(), key=lambda r: r["idx"])
                if r["rel"] is not None]
        if len(good) < 2:
            return None
        shapes = {}
        for r in good:
            shapes.setdefault(r["shape"], []).append(r)
        best_shape = max(sorted(shapes, key=str), key=lambda s: len(shapes[s]))
        kept = shapes[best_shape]
        if len(kept) < 2:
            return None
        n_order, degs = best_shape
        coeffs = []
        for ci in range(n_order + 1):
            poly = []
            for d in range(degs[ci] + 1):
                residues = [(r["rel"][ci][d] if d < len(r["rel"][ci]) else 0,
                             r["prime"]) for r in kept]
                v, modulus = crt_combine(residues)
                fr = rational_reconstruct(v, modulus)
                if fr is None:
                    return None
                poly.append(fr)
            coeffs.append(pnorm(QQ, tuple(poly)))
        if not coeffs[-1]:
            return None
        return _primitive_positive(coeffs), [r["prime"] for r in kept], \
            [r for r in good if r["shape"] != best_shape]

    check_discards = []  # consistency primes that could not check a candidate

    def consistency_relation(coeffs):
        """The relation at the next prime that can check coeffs, and whether
        it is the canonical image of coeffs there."""
        nonlocal next_idx
        while True:
            check_idx, check_field = next_idx, next(fields)
            next_idx += 1
            if next_idx > _MAX_PRIMES + 4:
                raise BudgetExhaustedError("consistency check never completed")
            expected = _reduce_canonical_mod(coeffs, check_field)
            if expected is None:
                check_discards.append(check_field.p)
                continue
            try:
                got = _prime_relation(pres, ref, tape, check_field, check_idx, cfg,
                                      counts)
            except UnluckyEvaluationError:
                check_discards.append(check_field.p)
                continue
            return got, got["rel"] == expected

    # reconstruct, then confirm at an independent prime; a prime that
    # disagrees shows the reconstruction was premature (rational
    # reconstruction can succeed spuriously on too few primes), so its
    # relation joins the others and more primes follow
    run_wave(_MIN_PRIMES)
    while True:
        candidate = merged_candidate()
        if candidate is None:
            if next_idx >= _MAX_PRIMES:
                for r in sorted(results.values(), key=lambda r: r["idx"]):
                    log.extend(r["log"])
                raise BudgetExhaustedError(f"no reconstruction after {next_idx} primes")
            run_wave(min(2, _MAX_PRIMES - next_idx))
            continue
        got, agrees = consistency_relation(candidate[0])
        if agrees:
            break
        got["log"].append(f"  disagrees with the reconstruction from "
                          f"{len(candidate[1])} primes: kept")
        results[got["idx"]] = got

    coeffs, kept_primes, shape_rejects = candidate
    for r in sorted(results.values(), key=lambda r: r["idx"]):
        log.extend(r["log"])
    log.append(f"crt primes={len(kept_primes)} "
               f"degs={tuple(pdeg(c) for c in coeffs)}")
    for r in shape_rejects:
        discarded.append(r["prime"])
        log.append(f"shape reject prime {r['prime']}")
    discarded.extend(check_discards)
    log.extend(got["log"])
    log.append(f"consistency prime {got['prime']} ok")

    return ModularRun(
        Telescoper(coeffs),
        tuple(log),
        tuple(kept_primes),
        tuple(discarded),
        replays(),
    )
