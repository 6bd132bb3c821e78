"""Telescopers for parametrized integrals by confinement and reduction.

A presentation couples a module W_x(t)^r/S (held as a ReductionContext)
with a derivation a -> da/dt + a.Lambda and an integrand representative f.
Confinement finds a monomial threshold eta and a finite monomial set B such
that the reduced derivative sequence g_0 = [f]_eta,
g_{i+1} = dg_i/dt + [L(g_i)]_eta stays inside Span_{K(t)}(B); the first
linear relation among the g_i is a telescoper for the integral.

Two drivers are provided.  telescope_direct runs the whole computation over
Q(t) and certifies its answer exactly: it walks the reduced chain a second
time on operators, with every reduction witnessed by a checked division
certificate, and requires the telescoper's combination of it to vanish.
Because the derivation maps S into S and dW^r into dW^r, the witnessed
chain is congruent to the iterated derivatives D^i f, so the check proves
sum c_i D^i f in S + dW^r for any starting rho; a failure is an error, not
a reason to retry.  telescope_modular evaluates at t = a modulo word-size
primes p, replays the eta-basis construction with a majority-elected
tracer, interpolates g_0 and the matrix of [L(.)]_eta back into F_p(t),
and lifts the per-prime relations to Q(t) by CRT and rational
reconstruction, confirming with one extra prime.  Each prime is verified
once, where it is drawn: telescope_modular builds its PrimeField there, and
every vote, point image and check at that prime shares it, down to
evaluate_and_reduce, which builds no field itself.

Within a prime the point computation is recorded once and replayed.  At
the first usable point the eta-basis replay and the reductions of f and of
L(m), m in B, run over a _Tape: a stand-in for the PrimeField that logs
every operation on a point-dependent value, every is_zero outcome on one
and every divisor, and refuses bool() and == on such values so that no
branch goes unrecorded.  At each later point the inputs are evaluated as
before and the tape is replayed over plain ints.  The guard rule: the
replay is used only when every input operator has the recorded support and
every recorded is_zero outcome comes out the same; otherwise the point goes
through the generic _point_images, which decides whether it is lucky.
Equal supports and outcomes make the reduction take the same path through
the same operations, so the two paths give the same images, the same
discarded points and the same transcript.  A tape lives in one
_prime_relation call, so the threads of a wave share none.

Both drivers confine with confine(ctx, L, f): the direct one on the
presentation's triple over Q(t), the modular vote on that triple evaluated
at a point.  Both find the relation in telescoper_from_system, which walks
the derivative sequence through the same incremental echelon form
(_RelationFinder): over Q(t) for the direct driver and over F_p(t) for each
prime of the modular one.

ModularConfig holds only what a caller sets: the seed, the threads per
wave and the point budget.  The prime budget, the vote sizes and the point
skips allowed are the constants _MIN_PRIMES .. _MAX_PRIMES below.
"""

from __future__ import annotations

import operator
import random
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
    evaluate_and_reduce,
    leading_monomial,
    mul,
    op_scale,
)
from .groebner import lrem
from .reduction import (
    ReductionContext,
    compute_eta_basis,
    largest_monomial_of_degree,
    reduce_eta,
    UnluckyTracerError,
)


# ---------------------------------------------------------------------------
# presentation of the integration problem


def _components(a: WeylOperator):
    """Split a rank-r operator into {comp: scalar operator}."""
    A = a.algebra
    scalar = A.with_rank(1)
    out = {}
    for m, c in a.terms.items():
        out.setdefault(m.comp, {})[Monomial(m.alpha, m.beta, 1)] = c
    return {j: WeylOperator(scalar, d) for j, d in out.items()}


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
    for j, aj in _components(a).items():
        for k in range(r):
            entry = L[j - 1][k]
            if entry.is_zero():
                continue
            out = out + _embed(mul(aj, entry), k + 1, r)
    return out


class DerivedPresentation:
    """A module W_x(t)^r/S with the derivation a -> da/dt + a.Lambda and an f.

    L is an r x r matrix of scalar operators, and the coefficient field
    carries t.  On construction the stored Groebner basis is checked for
    stability under the derivation (lrem(dg/dt + L(g), G) = 0 for every
    basis element g), which is what makes the derivation well defined on
    the quotient.
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
            img = coefficientwise_dt(g) + apply_linear(L, g)
            rem, _ = lrem(img, ctx.basis, ctx.order, certificate=False)
            if not rem.is_zero():
                raise ValueError(
                    "module is not stable under the derivation: "
                    "basis element with lead "
                    f"{_mono_str(leading_monomial(g, ctx.order))} fails"
                )


# ---------------------------------------------------------------------------
# confinement (the eta/B search) and the memoized derivative step


@dataclass(frozen=True)
class Confinement:
    eta: Monomial
    B: tuple  # monomials, ascending under the ambient order
    reduced_L_images: dict  # m in B -> coefficient tuple over B
    rho: int
    f_vector: tuple  # [f]_eta over B
    field: object
    row_lms: tuple  # lms of the eta-basis rows (replay reference)
    tracer: frozenset

    @property
    def matrix(self):
        """Rows aligned with B: matrix[i] = [L(B[i])]_eta as a vector over B."""
        return tuple(self.reduced_L_images[m] for m in self.B)


def _vector_over(op: WeylOperator, index, nb):
    F = op.algebra.field
    vec = [F.zero] * nb
    for m, c in op.terms.items():
        pos = index.get(m)
        if pos is None:
            raise UnluckyEvaluationError(f"support escapes the confinement at {m}")
        vec[pos] = c
    return tuple(vec)


def _monomial_op(ctx, m):
    return WeylOperator(ctx.algebra, {m: ctx.algebra.field.one})


def confine(ctx, L, f, rho=1, degree_ceiling=40):
    """Search for an effective confinement (eta, B) for f and L over ctx.

    The direct driver passes a DerivedPresentation's (ctx, L, f); the
    modular vote passes the same triple evaluated at a point, over F_p.
    The threshold degree starts at rho and may not pass degree_ceiling.
    """
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    if degree_ceiling < 1:
        raise ValueError(f"degree ceiling must be positive, got {degree_ceiling}")
    order = ctx.order
    A = ctx.algebra
    F = A.field

    s = rho
    while True:
        if s > degree_ceiling:
            raise BudgetExhaustedError(
                f"confinement degree ceiling {degree_ceiling} exceeded"
            )
        eta = largest_monomial_of_degree(A, order, s)
        basis_e = compute_eta_basis(ctx, eta, certificate=False)
        g0 = reduce_eta(f, ctx, basis_e)
        Q = set(g0.support())
        B = []
        Bset = set()
        images = {}
        restart = False
        while Q - Bset:
            m = min(Q - Bset, key=order.key)
            if m.degree() > s - rho:
                s += 1
                restart = True
                break
            img = reduce_eta(apply_linear(L, _monomial_op(ctx, m)), ctx, basis_e)
            images[m] = img
            Q |= set(img.support())
            B.append(m)
            Bset.add(m)
        if restart:
            continue
        B = tuple(sorted(Bset, key=order.key))
        index = {m: i for i, m in enumerate(B)}
        nb = len(B)
        return Confinement(
            eta=eta,
            B=B,
            reduced_L_images={m: _vector_over(images[m], index, nb) for m in B},
            rho=rho,
            f_vector=_vector_over(g0, index, nb),
            field=F,
            row_lms=tuple(r.lm for r in basis_e.rows),
            tracer=basis_e.tracer,
        )


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
    assert polys[-1], "leading relation coefficient vanished"
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
    """Canonical telescoper from the first F-linear relation among g_0 and
    g_{i+1} = dg_i/dt + g_i . matrix; g_0..g_nb are always dependent."""

    def sequence():
        g = g0
        for _ in range(len(g0) + 1):
            yield g
            g = derivative_sequence_step(F, g, matrix)

    return telescoper_from_field_relation(F, relation_search(F, sequence()))


# ---------------------------------------------------------------------------
# direct driver over Q(t)


def telescope_direct(pres: DerivedPresentation, rho=1, degree_ceiling=40):
    """Telescoper over Q(t), computed without modular arithmetic.

    Confinement and the relation search run once; the relation is then
    certified exactly on the reduced derivative chain (_certify_telescoper).
    That check does not depend on rho, so a failed certificate raises
    InconsistencyError instead of retrying with a larger margin.
    """
    conf = confine(pres.ctx, pres.L, pres.f, rho=rho, degree_ceiling=degree_ceiling)
    tel = telescoper_from_system(conf.field, conf.f_vector, conf.matrix)
    _certify_telescoper(pres, conf.eta, tel)
    return tel


def _certify_telescoper(pres, eta, tel):
    """Prove sum c_i D^i f in S + dW^r, where D(a) = da/dt + a.Lambda.

    Walks g_0 = [f]_eta, g_{i+1} = dg_i/dt + [L(g_i)]_eta, where every
    reduction comes with a division certificate that is checked, and
    requires sum c_i g_i to be the zero operator.  D maps S into S
    (D(q g) = q'g + q D(g), and DerivedPresentation checks D(g) in S for
    each basis element g) and dW^r into dW^r (D(d_j w) = d_j D(w)), so
    a = b mod S + dW^r implies D(a) = D(b) and, by induction,
    g_i = D^i f mod S + dW^r.  Raises InconsistencyError on a failed
    witness or a nonzero sum.
    """
    ctx = pres.ctx
    F = ctx.algebra.field
    basis_e = compute_eta_basis(ctx, eta, certificate=True)

    def witnessed(a):
        red, cert = reduce_eta(a, ctx, basis_e, certificate=True)
        if not cert.verifies(a - red):
            raise InconsistencyError("reduced-form certificate failed")
        return red

    g = witnessed(pres.f)
    total = ctx.algebra.zero()
    for i, c in enumerate(tel.coefficients):
        if i > 0:
            g = coefficientwise_dt(g) + witnessed(apply_linear(pres.L, g))
        if c:
            total = total + op_scale(g, F.from_poly(c))
    if not total.is_zero():
        raise InconsistencyError("telescoper certificate failed")


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


@dataclass(frozen=True)
class ModularRun:
    telescoper: Telescoper
    transcript: tuple
    primes_used: tuple
    primes_discarded: tuple


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


def _evaluate_context(pres, img):
    return _context(pres, img.field, _evaluate(pres, img))


def _reduced_images(ref, ctx, L, f):
    """Replay the eta-basis, return (g0, matrix) over the field of ctx.

    Any disagreement with the reference (row lms, supports outside B) is an
    unlucky-point signal.
    """
    eta, B, tracer, row_lms = ref
    try:
        basis_e = compute_eta_basis(ctx, eta, tracer=tracer, certificate=False)
    except UnluckyTracerError as e:
        raise UnluckyEvaluationError(str(e))
    if tuple(r.lm for r in basis_e.rows) != row_lms:
        raise UnluckyEvaluationError("eta-basis row lms differ from reference")
    index = {m: i for i, m in enumerate(B)}
    nb = len(B)
    g0 = _vector_over(reduce_eta(f, ctx, basis_e), index, nb)
    rows = []
    for m in B:
        img_op = reduce_eta(apply_linear(L, _monomial_op(ctx, m)), ctx, basis_e)
        rows.append(_vector_over(img_op, index, nb))
    return g0, tuple(rows)


def _point_images(pres, ref, img):
    """Evaluate at (p, a) and reduce there: the numeric (g0, matrix).

    This is the generic path.  _evaluation_draw runs the same reduction
    once per prime over a _Tape (_record_point) and replays that tape at
    the prime's later points; a point whose input supports or guard
    outcomes differ from the recording comes here instead, and this code
    decides whether it is lucky.
    """
    return _reduced_images(ref, *_evaluate_context(pres, img))


# The operations of a tape entry.
_ADD, _SUB, _MUL, _DIV = range(4)


class _Recorded:
    """A point-dependent value of a _Tape: its slot and its residue at the
    recording point.  A branch on it would go unrecorded, so bool() and ==
    raise; the reduction code tests values only through is_zero."""

    __slots__ = ("slot", "value")

    def __init__(self, slot, value):
        self.slot = slot
        self.value = value

    def __bool__(self):
        raise TypeError("a recorded value is tested only through is_zero")

    def __eq__(self, other):
        raise TypeError("a recorded value is compared only through is_zero")


class _Tape:
    """The PrimeField of one prime, recording the point computation run over it.

    A value that depends on the point t = a is a _Recorded; a value that
    does not (a constant of the inputs, or a result of constants alone) is
    a plain residue.  Each operation on a _Recorded appends one entry
    (op, slot, a, b) over the slots of the operands, and each _Recorded
    that is_zero tests (divisors included) becomes a guard: its slot must
    come out nonzero, or zero, as it did at the recording point.  With
    equal input supports and equal guard outcomes the reduction code takes
    the same path through the same operations, so replay() recomputes it
    over plain ints and returns None when either differs.
    """

    zero = 0
    one = 1

    def __init__(self, Fp):
        self.p = Fp.p
        self.values = []  # residue per slot at the recording point
        self.code = []
        self.inputs = []  # (monomials, slots) per input operator
        self.outputs = ()
        self.guard_nonzero = []  # slots whose is_zero was False at recording
        self.guard_zero = []  # slots whose is_zero was True
        self._consts = {}
        self._guarded = set()

    def _new(self, value):
        x = _Recorded(len(self.values), value)
        self.values.append(value)
        return x

    def _slot(self, x):
        if isinstance(x, _Recorded):
            return x.slot
        slot = self._consts.get(x)
        if slot is None:
            slot = self._consts[x] = len(self.values)
            self.values.append(x)
        return slot

    def _apply(self, op, fn, x, y):
        rx, ry = isinstance(x, _Recorded), isinstance(y, _Recorded)
        value = fn(x.value if rx else x, y.value if ry else y) % self.p
        if not (rx or ry):
            return value
        z = self._new(value)
        self.code.append((op, z.slot, self._slot(x), self._slot(y)))
        return z

    def from_int(self, n):
        return n % self.p

    def add(self, x, y):
        return self._apply(_ADD, operator.add, x, y)

    def sub(self, x, y):
        return self._apply(_SUB, operator.sub, x, y)

    def mul(self, x, y):
        return self._apply(_MUL, operator.mul, x, y)

    def neg(self, x):
        return self.sub(0, x)

    def inv(self, x):
        return self.div(1, x)

    def div(self, x, y):
        if self.is_zero(y):
            raise ZeroDivisionError("division by zero")
        if not isinstance(y, _Recorded):
            return self.mul(x, pow(y, -1, self.p))
        return self._apply(_DIV, lambda u, v: u * pow(v, -1, self.p), x, y)

    def is_zero(self, x):
        if not isinstance(x, _Recorded):
            return not x
        zero = not x.value
        if x.slot not in self._guarded:
            self._guarded.add(x.slot)
            (self.guard_zero if zero else self.guard_nonzero).append(x.slot)
        return zero

    def eq(self, x, y):
        raise TypeError("a recorded value is compared only through is_zero")

    def derivative(self, x):
        raise ValueError(f"field GF({self.p}) carries no parameter t")

    def lift(self, source, image):
        """image, the evaluation of source at the recording point, as an
        operator over the tape: its t-dependent coefficients become inputs."""
        A = image.algebra
        terms, slots = {}, []
        for m, c in image.terms.items():
            num, den = source.terms[m]
            if len(num) > 1 or len(den) > 1:
                c = self._new(c)
                slots.append(c.slot)
            else:
                slots.append(None)
            terms[m] = c
        self.inputs.append((tuple(image.terms), tuple(slots)))
        return WeylOperator(Algebra(A.n, A.r, self, False), terms)

    def finish(self, outputs):
        """Fix the outputs; return their values at the recording point."""
        self.outputs = tuple(self._slot(x) for x in outputs)
        return [self.values[s] for s in self.outputs]

    def replay(self, images):
        """The outputs at another point from the inputs evaluated there, or
        None when an input support or a guard differs from the recording."""
        v = list(self.values)
        for image, (monomials, slots) in zip(images, self.inputs):
            if tuple(image.terms) != monomials:
                return None
            for slot, c in zip(slots, image.terms.values()):
                if slot is not None:
                    v[slot] = c
        p = self.p
        # straight-line code: the guards can wait until the end, except
        # that a divisor must not vanish
        for op, d, a, b in self.code:
            if op == _MUL:
                v[d] = v[a] * v[b] % p
            elif op == _SUB:
                v[d] = (v[a] - v[b]) % p
            elif op == _ADD:
                v[d] = (v[a] + v[b]) % p
            else:
                if not v[b]:
                    return None
                v[d] = v[a] * pow(v[b], -1, p) % p
        get = v.__getitem__
        if 0 in map(get, self.guard_nonzero) or any(map(get, self.guard_zero)):
            return None
        return [v[s] for s in self.outputs]


def _unflatten(values, nb):
    """The flat outputs of a tape as (g0, matrix)."""
    return tuple(values[:nb]), tuple(
        tuple(values[nb * (i + 1):nb * (i + 2)]) for i in range(nb))


def _record_point(pres, ref, img):
    """_point_images at img, computed over a _Tape: (tape, (g0, matrix))."""
    tape = _Tape(img.field)
    ops = tuple(map(tape.lift, _inputs(pres), _evaluate(pres, img)))
    g0, rows = _reduced_images(ref, *_context(pres, tape, ops))
    return tape, _unflatten(tape.finish(g0 + sum(rows, ())), len(g0))


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


def _evaluation_draw(pres, ref, Fp, rng, log):
    """draw() for the evaluation pool of the prime of Fp: a fresh point a and
    the numeric (g0, matrix) there.  Repeated and unlucky points are skipped;
    after _MAX_POINT_TRIES skips the prime is given up."""
    prime = Fp.p
    used = set()
    skips = 0
    tape = None

    def images(img):
        nonlocal tape
        if tape is None:
            tape, sample = _record_point(pres, ref, img)
            return sample
        values = tape.replay(_evaluate(pres, img))
        if values is None:
            return _point_images(pres, ref, img)
        return _unflatten(values, len(ref[1]))

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


def _prime_relation(pres, ref, Fp, idx, cfg):
    """Canonical relation modulo the prime of Fp, with its local transcript."""
    prime = Fp.p
    log = [f"prime[{idx}] {prime}"]
    rng = random.Random(f"{cfg.seed}/prime/{idx}")
    nb = len(ref[1])
    points = _SamplePool(_evaluation_draw(pres, ref, Fp, rng, log))

    g0_rf, mat_rf = _interpolated_system(points, Fp, nb, cfg)
    rel = telescoper_from_system(RationalFunctions(Fp), g0_rf, mat_rf).coefficients
    log.append(f"  points={len(points.samples)} N={len(rel) - 1} "
               f"degs={tuple(pdeg(c) for c in rel)}")
    return {"idx": idx, "prime": prime, "rel": rel,
            "shape": (len(rel) - 1, tuple(pdeg(c) for c in rel)), "log": log}


def _elect_reference(pres, rho, cfg, fields, log, degree_ceiling):
    """Majority vote on (eta, B, tracer, row_lms) over _TRACER_VOTES pairs,
    each at a point of the next prime field drawn from fields."""
    for round_no in range(_VOTE_ROUNDS):
        votes = []
        for v in range(_TRACER_VOTES):
            vote_rng = random.Random(f"{cfg.seed}/vote/{round_no}/{v}")
            Fp = next(fields)
            prime = Fp.p
            triple = None
            for _ in range(_MAX_POINT_TRIES):
                a = vote_rng.randrange(1, prime)
                try:
                    ctx, L_p, f_p = _evaluate_context(pres, ModularImage(Fp, a))
                    conf = confine(ctx, L_p, f_p, rho=rho,
                                   degree_ceiling=degree_ceiling)
                except UnluckyEvaluationError:
                    continue
                triple = (conf.eta, conf.B, conf.tracer, conf.row_lms)
                log.append(
                    f"vote prime={prime} point={a} eta={_mono_str(conf.eta)} "
                    f"|B|={len(conf.B)} |tracer|={len(conf.tracer)}"
                )
                break
            if triple is None:
                raise BudgetExhaustedError(f"no usable vote points mod {prime}")
            votes.append(triple)
        for t in votes:
            if sum(1 for u in votes if u == t) * 2 > len(votes):
                log.append("votes agree" if votes.count(t) == len(votes)
                           else "votes split, majority kept")
                return t
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
    count), and the primes kept/discarded.
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
    ref = _elect_reference(pres, rho, cfg, fields, log, degree_ceiling)
    if len(ref[1]) == 0:
        log.append("empty confinement: unit telescoper")
        return ModularRun(Telescoper(((1,),)), tuple(log), (), ())

    results = {}
    discarded = []
    next_idx = 0

    def run_wave(count):
        nonlocal next_idx
        wave = []
        for _ in range(count):
            wave.append((next_idx, next(fields)))
            next_idx += 1
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            futs = {
                i: pool.submit(_prime_relation, pres, ref, Fp, i, cfg)
                for i, Fp in wave
            }
        for i, Fp in wave:
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

    run_wave(_MIN_PRIMES)
    candidate = None
    while True:
        candidate = merged_candidate()
        if candidate is not None:
            break
        if next_idx >= _MAX_PRIMES:
            for r in sorted(results.values(), key=lambda r: r["idx"]):
                log.extend(r["log"])
            raise BudgetExhaustedError(f"no reconstruction after {next_idx} primes")
        run_wave(min(2, _MAX_PRIMES - next_idx))

    coeffs, kept_primes, shape_rejects = candidate
    for r in sorted(results.values(), key=lambda r: r["idx"]):
        log.extend(r["log"])
    log.append(f"crt primes={len(kept_primes)} "
               f"degs={tuple(pdeg(c) for c in coeffs)}")
    for r in shape_rejects:
        discarded.append(r["prime"])
        log.append(f"shape reject prime {r['prime']}")

    # consistency prime: an independent prime must reproduce the canonical image
    while True:
        check_idx, check_field = next_idx, next(fields)
        check_prime = check_field.p
        next_idx += 1
        if next_idx > _MAX_PRIMES + 4:
            raise BudgetExhaustedError("consistency check never completed")
        expected = _reduce_canonical_mod(coeffs, check_field)
        if expected is None:
            discarded.append(check_prime)
            continue
        try:
            got = _prime_relation(pres, ref, check_field, check_idx, cfg)
        except UnluckyEvaluationError:
            discarded.append(check_prime)
            continue
        log.extend(got["log"])
        if got["rel"] != expected:
            raise InconsistencyError(
                f"consistency prime {check_prime} disagrees with reconstruction"
            )
        log.append(f"consistency prime {check_prime} ok")
        break

    return ModularRun(
        Telescoper(coeffs),
        tuple(log),
        tuple(kept_primes),
        tuple(discarded),
    )
