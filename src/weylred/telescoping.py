"""Telescopers for parametrized integrals by confinement and reduction.

A presentation couples a module W_x(t)^r/S (held as a ReductionContext)
with a derivation a -> da/dt + a.Lambda and an integrand representative f.
Confinement finds a monomial threshold eta and a finite monomial set B such
that the reduced derivative sequence g_0 = [f]_eta,
g_{i+1} = dg_i/dt + [L(g_i)]_eta stays inside Span_{K(t)}(B); the first
linear relation among the g_i is a telescoper for the integral.

Both drivers confine with confine(ctx, L, f) on a _ReducedForms table,
which keeps the reduced forms [f] and [L(m)] (they do not depend on eta),
each eta-basis and each [a]_eta of one solve, so nothing is reduced or
built twice.  confine's final round at eta leaves [f]_eta and each
[L(m)]_eta, m in B, inside Span(B); _reduced_system reads their
coordinates over B off the table as g_0 and the matrix M, and
relation_search finds the first relation on the chain
g_{i+1} = dg_i/dt + g_i . M (derivative_sequence).
telescope_direct does this over Q(t) on a certified table and certifies
its answer exactly: each of the 1 + |B| reductions is witnessed by a
checked division certificate, and the telescoper's combination of the
chain vectors must vanish.  The derivation maps S into S and dW^r into
dW^r, and S + dW^r is a K(t)-space, so the chain is congruent to the
iterated derivatives D^i f and the check proves sum c_i D^i f in
S + dW^r for any starting rho; a failure is an error, not a reason to
retry.
telescope_modular runs the same computation (_solve_at: confine, then
_reduced_system) at points t = a modulo word-size primes p.  Votes elect
the reference Confinement; a point is usable only when it confines to
it, and the (g_0, M) of the usable points are interpolated into F_p(t),
every entry of a prime on one table of Lagrange bases (AbscissaTable).
The per-prime relations lift to Q(t) by CRT and rational
reconstruction, confirmed with an extra prime; as reconstruction can
succeed spuriously on too few primes, a confirming prime that disagrees
joins the others and more primes follow.  Each prime is verified once,
where it is drawn, into the PrimeField that every vote, point and check
at that prime shares, down to evaluate_and_reduce.

Each telescope_modular call records _solve_at once and replays it
everywhere else (Traverso's trace idea, ISSAC 1988, carried to the
numbers as in FiniteFlow).  The first usable vote runs it over a _Tape
(_record), whose outputs are g_0 and the rows of M; every later vote and
every point of every prime replays that tape, and only when the first
vote loses the election is a second one recorded, at the elected vote's
point.  A _Tape is a stand-in for the PrimeField that splits the
computation into a constant part (the constants of the inputs, integer
literals and what is computed from them alone) and a point part (what
depends on t) on one vector of slots, logs every operation of each, keeps
every is_zero outcome and every divisor as a guard, and refuses bool()
and == on its values so that no branch goes unrecorded.  bind() fills the
constant slots at a new prime and checks their guards; replay() copies
that vector, evaluates only the t-dependent input coefficients at one
point of that prime and runs the point part over plain ints.  A replay
is used only when no input denominator vanishes, every input coefficient
is zero or nonzero as it was where the tape was recorded, and every
recorded is_zero outcome comes out the same, so that the code would take
the same path through the same operations.  Every vote and point goes
through _solved, which replays where the tape allows it and otherwise
evaluates all the inputs and runs _solve_at itself; either way gives the
same Confinement and (g_0, M).  The tapes live in one telescope_modular
call, which solves its primes one after another on the calling thread.

ModularConfig holds only what a caller sets: the seed and the point
budget.  The prime budget, the vote sizes and the point skips allowed are
the constants _MIN_PRIMES .. _MAX_PRIMES below.
"""

from __future__ import annotations

import operator
import random

from .arith import (
    AbscissaTable,
    BudgetExhaustedError,
    InconsistencyError,
    ModularImage,
    QQ,
    QQ_T,
    RationalFunctions,
    Record,
    UnluckyEvaluationError,
    collective_primitive,
    crt_combine,
    adaptive_reconstruct,
    pdeg,
    pdivmod,
    pexquo,
    pgcd,
    plcm,
    peval,
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


class Confinement(Record):
    """(eta, B), and the shape of the eta-basis at eta; the modular vote
    elects one by equality of all four fields, and a point is usable only
    when it confines to the elected one."""

    _fields = ("eta", "B", "row_lms", "tracer")

    def __init__(self, eta, B, row_lms, tracer):
        self.eta = eta
        self.B = B  # monomials, ascending under the ambient order
        self.row_lms = row_lms  # lms of the eta-basis rows
        self.tracer = tracer  # candidates whose row vanished


def _monomial_op(ctx, m):
    return WeylOperator(ctx.algebra, {m: ctx.algebra.field.one})


class _ReducedForms:
    """The reductions of one solve, each computed on first use and kept
    until the solve ends: the reduced forms [f] and [L(m)] for each
    monomial m met, the eta-basis at each threshold eta, and each [a]_eta.

    The reduced form [a] does not depend on eta; [a]_eta is [a] eliminated
    against the rows of the eta-basis at eta, which is what reduce_eta does
    on an irreducible input.  So every confine round eliminates the stored
    [a] instead of reducing a again, and _reduced_system reads the final
    round's [a]_eta instead of building its eta-basis again.  A certified
    table builds certified eta-bases and keeps the witnesses of a - [a] and
    of each elimination.  Keys are None for f and m for L(m).
    """

    __slots__ = ("ctx", "L", "f", "certificate", "_forms", "_bases", "_at")

    def __init__(self, ctx, L, f, certificate=False):
        self.ctx = ctx
        self.L = L
        self.f = f
        self.certificate = certificate
        self._forms = {}  # key -> (a, [a], witness of a - [a] or None)
        self._bases = {}  # eta -> the eta-basis at eta
        self._at = {}  # (eta, key) -> ([a]_eta, witness of [a] - [a]_eta or None)

    def _form(self, m):
        form = self._forms.get(m)
        if form is None:
            a = self.f if m is None else apply_linear(self.L, _monomial_op(self.ctx, m))
            red, cert = reduced_form(a, self.ctx, certificate=self.certificate)
            form = self._forms[m] = (a, red, cert)
        return form

    def basis(self, eta):
        basis_e = self._bases.get(eta)
        if basis_e is None:
            basis_e = self._bases[eta] = compute_eta_basis(
                self.ctx, eta, certificate=self.certificate)
        return basis_e

    def at(self, eta, m):
        """[a]_eta, for a = f (m None) or a = L(m)."""
        got = self._at.get((eta, m))
        if got is None:
            got = self._at[eta, m] = reduce_eta(self._form(m)[1], self.ctx,
                                                self.basis(eta), self.certificate)
        return got[0]

    def witnessed(self, eta, m):
        """at(eta, m) for a certified table, once the witness of a - [a]
        plus that of the elimination verifies a - [a]_eta."""
        red_eta = self.at(eta, m)
        a, _, cert = self._form(m)
        if not (cert + self._at[eta, m][1]).verifies(a - red_eta):
            raise InconsistencyError("reduced-form certificate failed")
        return red_eta


def confine(ctx, L, f, rho=1, degree_ceiling=40, forms=None):
    """Search for an effective confinement (eta, B) for f and L over ctx.

    The direct driver passes a DerivedPresentation's (ctx, L, f); modular
    votes and points pass the same triple evaluated at a point, over F_p.
    The threshold degree starts at rho and may not pass degree_ceiling.
    Each round takes the eta-basis at its threshold and the [a]_eta of f
    and of L(m), m met, from forms, the _ReducedForms table of (ctx, L, f)
    (an uncertified one when None), which keeps them for _reduced_system.
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
        Q = set(forms.at(eta, None).support())
        B = set()
        while Q - B:
            m = min(Q - B, key=order.key)
            if m.degree() > s - rho:
                break  # no margin left below eta: raise the threshold
            Q |= set(forms.at(eta, m).support())
            B.add(m)
        else:
            basis_e = forms.basis(eta)
            return Confinement(
                eta=eta,
                B=tuple(sorted(B, key=order.key)),
                row_lms=tuple(r.lm for r in basis_e.rows),
                tracer=basis_e.tracer,
            )
        s += 1


def _reduced_system(forms, conf):
    """(g0, matrix) over the field of the _ReducedForms table forms: the
    coordinates over conf.B of [f]_eta, then of [L(m)]_eta for each m in B
    in order, as confine's final round left them in forms; the system both
    drivers build.  That round closed B, so a support outside B means conf
    is not what confine returned, a fault.  A certified table witnesses
    each of these reductions."""
    reduce = forms.witnessed if forms.certificate else forms.at
    index = {m: i for i, m in enumerate(conf.B)}
    zero = forms.ctx.algebra.field.zero

    def coordinates(key):
        vec = [zero] * len(index)
        for m, c in reduce(conf.eta, key).terms.items():
            pos = index.get(m)
            if pos is None:
                raise InconsistencyError(f"support escapes the confinement at {m}")
            vec[pos] = c
        return tuple(vec)

    return coordinates(None), tuple(map(coordinates, conf.B))


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


def relation_search(F, vectors):
    """First linear dependency among the prefix of the vectors, or None.

    Returns coefficients (c_0 .. c_N) in F with c_N = 1 for the minimal N
    such that g_0..g_N are dependent; None when all vectors are independent.
    The vectors are consumed lazily: none after g_N is drawn.  An
    incremental echelon form tracks how each row combines the vectors.
    """
    dim, rows = None, []  # rows: (pivot column, vector, combination)
    for n, vec in enumerate(vectors):
        dim = len(vec) if dim is None else dim
        if len(vec) != dim:
            raise ValueError(f"vector has length {len(vec)}, expected {dim}")
        v = list(vec)
        comb = [F.zero] * n + [F.one]
        for pivot_col, row, rcomb in rows:
            c = v[pivot_col]
            if not F.is_zero(c):
                for j in range(dim):
                    v[j] = F.sub(v[j], F.mul(c, row[j]))
                for j in range(len(rcomb)):
                    comb[j] = F.sub(comb[j], F.mul(c, rcomb[j]))
        pivot = next((j for j in range(dim) if not F.is_zero(v[j])), None)
        if pivot is None:
            return tuple(comb)
        inv = F.inv(v[pivot])
        rows.append((pivot, [F.mul(inv, c) for c in v], [F.mul(inv, c) for c in comb]))
    return None


# ---------------------------------------------------------------------------
# telescopers and canonical normalization


class Telescoper(Record):
    """P = c_0 + c_1 d_t + ... + c_N d_t^N over Q(t): the coefficients are
    dense integer polynomial tuples, collectively primitive with the leading
    coefficient of c_N positive.  A prime's relation in telescope_modular
    stays a tuple of residue tuples (_normalize_modp_relation).
    """

    _fields = ("coefficients",)

    def __init__(self, coefficients):
        if not (coefficients and coefficients[-1]):
            raise ValueError("c_N must be nonzero")
        self.coefficients = coefficients

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
        content = pgcd(Fp, content, p)[0] if content else pnorm(p)
    if pdeg(content) > 0:
        polys = [pdivmod(Fp, p, content)[0] for p in polys]
    if not polys[-1]:
        raise InconsistencyError("leading relation coefficient vanished")
    inv = Fp.inv(polys[-1][-1])
    return tuple(tuple(Fp.mul(c, inv) for c in p) for p in polys)


def telescoper_from_field_relation(F, rel):
    """Normalize a relation over Q(t) into a canonical Telescoper."""
    if F != QQ_T:
        raise ValueError(f"relation must be over Q(t), not {F!r}")
    return Telescoper(_primitive_positive(_clear_denominators(F.ring, rel)))


# ---------------------------------------------------------------------------
# direct driver over Q(t)


def telescope_direct(pres: DerivedPresentation, rho=1, degree_ceiling=40):
    """Telescoper over Q(t), computed without modular arithmetic.

    confine runs on a certified _ReducedForms table, which keeps each
    reduced form [f] and [L(m)], each eta-basis and each [a]_eta it
    computes, with their witnesses.  _reduced_system then reads off the
    table the (g0, matrix) that each prime of telescope_modular builds:
    g0 holds the coordinates over B of [f]_eta and row i of matrix those
    of [L(B[i])]_eta, as confine's final round computed them.  The witness
    of a - [a]_eta (that of a - [a] plus that of the elimination) of each
    of these 1 + |B| reductions is checked; no operator is reduced twice
    and no eta-basis is built twice.  relation_search runs on the
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
    g0, matrix = _reduced_system(forms, conf)
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


_MIN_PRIMES = 2  # primes solved before the first CRT; it needs two of one shape
_TRACER_VOTES = 3  # (prime, point) pairs that vote on the reference
_VOTE_ROUNDS = 3  # vote rounds before the election is given up
_MAX_POINT_TRIES = 64  # skipped points before a prime or a vote is given up
_MAX_PRIMES = 16  # primes tried before giving up; the consistency check may add four


class ModularConfig(Record):
    """Settings of one modular run.

    seed: seeds every random choice, so it fixes the transcript.
    max_points: points one reconstructed entry may use per prime.
    """

    _fields = ("seed", "max_points")
    __hash__ = None
    seed = 0
    max_points = 2048

    # workers is ignored; it is accepted only because weylbench/worker.py still passes it
    def __init__(self, seed=seed, max_points=max_points, *, workers=None):
        if max_points < 1:
            raise ValueError(f"max_points must be at least 1, got {max_points}")
        self.seed, self.max_points = seed, max_points


# The tallies of ModularRun.replays.
_REPLAY_COUNTS = ("tapes_recorded", "votes_replayed", "votes_generic",
                  "points_replayed", "points_generic")


class ModularRun(Record):
    """The telescoper of telescope_modular and how it was found.
    primes_discarded lists the vote primes given up (an input denominator
    that p divides), then the wave primes given up, the shape rejects and
    the consistency primes that could not check.  replays maps each name
    of _REPLAY_COUNTS to a count: the tapes recorded (1, or 2 when the
    first vote lost the election), and the votes after the first and the
    prime points that replayed the tape or ran _solve_at directly.  Like
    the transcript it depends on the seed alone, but it stays out of the
    transcript."""

    _fields = ("telescoper", "transcript", "primes_used", "primes_discarded", "replays")

    def __init__(self, telescoper, transcript, primes_used, primes_discarded, replays):
        self.telescoper, self.transcript = telescoper, transcript
        self.primes_used, self.primes_discarded = primes_used, primes_discarded
        self.replays = replays


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


def _solve_at(ctx, L, f, rho, degree_ceiling):
    """confine on (ctx, L, f), then the (g0, matrix) of its final round:
    what each modular vote and point computes, over F_p or over a _Tape."""
    forms = _ReducedForms(ctx, L, f)
    conf = confine(ctx, L, f, rho=rho, degree_ceiling=degree_ceiling, forms=forms)
    return conf, _reduced_system(forms, conf)


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
    """A value of a _Tape: its slot, whether the point part computes it
    (point=True) or the constant part, and its residue where it was
    recorded.  A branch on it would go unrecorded, so bool() and == raise;
    the reduction code tests values only through is_zero."""

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
    computation run over it as two straight-line programs on one vector of
    slots, for any prime.  It implements arith's field protocol and no
    more; a recorded value is never compared, only tested with is_zero.

    Every value but the literals 0 and 1 is a _Recorded with a slot of its
    own.  The constant part computes what depends only on the constants of
    the inputs and on integer literals (from_int); the point part computes
    what depends on t, reading the constant slots it needs directly.  Each
    operation appends one entry (op, slot, a, b) to the part of its result,
    and each value that is_zero tests (divisors included) becomes a guard
    of its part: it must come out nonzero, or zero, as it did when
    recorded.  lift() keeps the payload num/den of every input coefficient:
    a t-dependent one as a point input, a constant one as a constant input,
    and one that vanished at the recording point as absent.  When every
    input coefficient vanishes where it did and every guard comes out the
    same, the reduction code takes the same path through the same
    operations at any (p, a).  bind(Fp) returns the vector with the
    literals, the constant inputs and the constant part filled in at the
    prime of Fp, once its guards hold; replay() copies that vector, writes
    the t-dependent inputs at one point of that prime, runs the point part
    and checks the rest.  Either returns None when something differs, and
    the caller then takes the generic path.  Once recorded, a tape is only
    read.
    """

    zero = 0
    one = 1

    def __init__(self, Fp):
        self.p = Fp.p
        self.slots = 0
        self.const_code = []
        self.const_inputs = []  # (slot or None when absent, num, den) per constant
        self.point_inputs = []  # ... and per t-dependent input coefficient num/den
        self.leading_dens = set()  # lc(den) of every input coefficient
        self.literals = {}  # integer -> its constant
        self.const_nonzero = []  # constant guards: slots that were nonzero
        self.const_zero = []  # ... and slots that were zero
        self.code = []
        self.outputs = ()  # slots
        self.guard_nonzero = []
        self.guard_zero = []
        self._inverses = {}  # constant slot -> its inverse, a constant

    def _value(self, value, point):
        self.slots += 1
        return _Recorded(self.slots - 1, value, point)

    def _literal(self, n):
        x = self.literals.get(n)
        if x is None:
            x = self.literals[n] = self._value(n % self.p, False)
        return x

    def _slot(self, x):
        return (x if isinstance(x, _Recorded) else self._literal(x)).slot

    def _inverse(self, y):
        x = self._inverses.get(y.slot)
        if x is None:
            x = self._inverses[y.slot] = self._value(pow(y.value, -1, self.p), False)
            self.const_code.append((_DIV, x.slot, self._literal(1).slot, y.slot))
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
        z = self._value(value, rx and x.point or ry and y.point)
        (self.code if z.point else self.const_code).append(
            (op, z.slot, self._slot(x), self._slot(y)))
        return z

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

    def lift(self, source, image):
        """image, the evaluation of source at the recording point, as an
        operator over the tape.  Every coefficient num/den of source is
        kept: a t-dependent one as a point input, a constant one as a
        constant input, each with the slot of its value, and one that
        vanished at the recording point as absent (slot None)."""
        A = image.algebra
        terms = {}
        for m, (num, den) in source.terms.items():
            self.leading_dens.add(den[-1])
            point = len(num) > 1 or len(den) > 1
            c = image.terms.get(m)
            slot = None
            if c is not None:
                terms[m] = c = self._value(c, point)
                slot = c.slot
            if point:
                self.point_inputs.append((slot, num, den))
            else:
                self.const_inputs.append((slot, num[0], den[0]))
        return WeylOperator(Algebra(A.n, A.r, self, False), terms)

    def finish(self, outputs):
        """Fix the outputs: g0, then the matrix row by row."""
        self.outputs = tuple(map(self._slot, outputs))

    def bind(self, Fp):
        """The start of replay() at the prime of Fp: (Fp, the slot vector
        with the literals, the constant inputs and the constant part filled
        in, the t-dependent inputs num/den reduced mod p).  None when p
        divides the leading denominator of an input coefficient (its
        evaluation fails at every point), when a constant input vanishes
        mod p but did not at the recording or the other way round, or when
        a constant divisor or guard differs from the recording."""
        p = Fp.p
        if any(not d % p for d in self.leading_dens):
            return None
        inverse = {d: pow(d, -1, p) for d in self.leading_dens}
        start = [0] * self.slots
        for n, x in self.literals.items():
            start[x.slot] = n % p
        for slot, num, den in self.const_inputs:
            if (slot is None) != (not num % p):
                return None
            if slot is not None:
                start[slot] = num * inverse[den] % p
        if not (_run(self.const_code, start, p)
                and _guards_hold(start, self.const_nonzero, self.const_zero)):
            return None
        inputs = []
        for slot, num, den in self.point_inputs:
            if len(den) == 1:  # num/d as (num/d)/1, so replay inverts nothing
                num, den = [e * inverse[den[0]] for e in num], (1,)
            inputs.append((slot, [e % p for e in num], [e % p for e in den]))
        return Fp, start, inputs

    def replay(self, bound, a):
        """The outputs at t = a, on a copy of bind()'s slot vector at its
        prime: only the t-dependent inputs are evaluated there, by Horner on
        residues, before the point part runs.
        None when the denominator of one vanishes at a, when one vanishes
        at a but did not at the recording or the other way round, or when
        a guard differs from the recording."""
        Fp, start, inputs = bound
        p = Fp.p
        v = list(start)
        for slot, num, den in inputs:
            d = peval(Fp, den, a)
            n = peval(Fp, num, a)
            if not d or (slot is None) != (not n):
                return None
            if slot is not None:
                v[slot] = n if d == 1 else n * pow(d, -1, p) % p
        if not (_run(self.code, v, p)
                and _guards_hold(v, self.guard_nonzero, self.guard_zero)):
            return None
        return [v[s] for s in self.outputs]


def _unflatten(values, nb):
    """The flat outputs of a tape as (g0, matrix)."""
    return tuple(values[:nb]), tuple(
        tuple(values[nb * (i + 1):nb * (i + 2)]) for i in range(nb))


def _record(pres, Fp, a, rho, degree_ceiling, counts):
    """(tape, Confinement): _solve_at recorded over a _Tape on the inputs
    evaluated at t = a over Fp, the tape's outputs g0 and then the matrix
    row by row; counts tallies the tape."""
    images = _evaluate(pres, ModularImage(Fp, a))
    tape = _Tape(Fp)
    lifted = _context(pres, tape, tuple(map(tape.lift, _inputs(pres), images)))
    conf, (g0, rows) = _solve_at(*lifted, rho, degree_ceiling)
    tape.finish(g0 + sum(rows, ()))
    counts["tapes_recorded"] += 1
    return tape, conf


def _solved(pres, recording, bound, Fp, a, rho, degree_ceiling, counts, kind):
    """(Confinement, (g0, matrix)) of _solve_at at t = a over Fp, for a vote
    or a point: replayed from recording = (tape, Confinement) when bound =
    tape.bind(Fp) is not None and the replay does not refuse, else
    _solve_at run on the inputs evaluated at a.  counts tallies
    kind + "_replayed", or kind + "_generic" once the inputs evaluate."""
    tape, conf = recording
    values = None if bound is None else tape.replay(bound, a)
    if values is not None:
        counts[kind + "_replayed"] += 1
        return conf, _unflatten(values, len(conf.B))
    images = _evaluate(pres, ModularImage(Fp, a))
    counts[kind + "_generic"] += 1
    return _solve_at(*_context(pres, Fp, images), rho, degree_ceiling)


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


def _usable_points(pres, rho, ref, recording, Fp, rng, log, counts):
    """The usable points of the prime of Fp, as (a, (g0, matrix)) pairs:
    fresh points a and the numeric system there, from _solved.  A point is
    usable only when it confines to the elected Confinement ref, which its
    threshold may not pass.  Repeated and unlucky points are skipped; after
    _MAX_POINT_TRIES skips the prime is given up."""
    prime = Fp.p
    bound = recording[0].bind(Fp)
    used = set()
    skips = 0
    while True:
        if skips >= _MAX_POINT_TRIES:
            raise UnluckyEvaluationError(f"no usable evaluation points mod {prime}",
                                         prime_level=True)
        a = rng.randrange(1, prime)
        if a not in used:
            used.add(a)
            try:
                conf, system = _solved(pres, recording, bound, Fp, a, rho,
                                       max(1, ref.eta.degree()), counts, "points")
            except UnluckyEvaluationError as e:
                if e.prime_level:
                    raise
                conf = None
            except BudgetExhaustedError:  # no confinement up to ref's eta
                conf = None
            if conf == ref:
                yield a, system
                continue
            log.append(f"  discard point {a}")
        skips += 1


def _interpolated_system(points, Fp, nb, cfg):
    """Reconstruct g0 and the [L(.)]_eta matrix as F_p(t) entries.  Every
    entry fits on prefixes of the same pool of points, so they share one
    AbscissaTable."""
    table = AbscissaTable(Fp)

    def entry(pick):
        return adaptive_reconstruct(Fp, points.stream(pick), max_points=cfg.max_points,
                                    table=table)

    g0 = [entry(lambda d, j=j: d[0][j]) for j in range(nb)]
    rows = [[entry(lambda d, i=i, j=j: d[1][i][j]) for j in range(nb)]
            for i in range(nb)]
    return g0, rows


def _shape(rel):
    """The order and the coefficient degrees of a prime's relation."""
    return len(rel) - 1, tuple(pdeg(c) for c in rel)


def _prime_relation(pres, rho, ref, recording, Fp, idx, cfg, counts):
    """(p, relation, log) at the prime p of Fp: the first relation on the
    derivative_sequence of the (g0, matrix) interpolated over F_p(t),
    content-free with c_N monic, and the prime's transcript.  A prime that
    runs out of usable points or of point budget is given up: its relation
    is None and its log gives the reason.  rho, ref, recording and counts
    as in _usable_points."""
    prime = Fp.p
    log = [f"prime[{idx}] {prime}"]
    rng = random.Random(f"{cfg.seed}/prime/{idx}")
    points = _SamplePool(_usable_points(pres, rho, ref, recording, Fp, rng, log,
                                        counts).__next__)
    try:
        g0, matrix = _interpolated_system(points, Fp, len(ref.B), cfg)
    except (UnluckyEvaluationError, BudgetExhaustedError) as e:
        return prime, None, [log[0], f"  discarded: {e}"]
    F = RationalFunctions(Fp)
    rel = relation_search(F, derivative_sequence(F, g0, matrix))
    rel = _normalize_modp_relation(Fp, _clear_denominators(F.ring, rel))
    order, degs = _shape(rel)
    log.append(f"  points={len(points.samples)} N={order} degs={degs}")
    return prime, rel, log


def _elect_reference(pres, rho, cfg, fields, log, degree_ceiling, counts, discarded):
    """The Confinement that a majority of _TRACER_VOTES votes returns, each
    vote at a point of the next prime field drawn from fields, and the
    (tape, Confinement) that every prime point replays.

    The first usable vote records _solve_at at its point (_record).  Every
    later vote replays that tape at its point (_solved) and returns the
    recorded Confinement when every input coefficient and guard matches:
    it holds only monomials, so the same branch path gives the same
    Confinement.  Otherwise the vote runs _solve_at at its point.  When
    the first vote loses the election, a second tape is recorded at the
    point of the first vote that returned the elected Confinement.  A vote
    skips unlucky points; a prime that fails at every point (an input
    denominator that p divides) is logged, appended to discarded, and the
    vote draws the next prime.  counts tallies the votes and the tapes."""
    recording = None
    for round_no in range(_VOTE_ROUNDS):
        votes = []
        for v in range(_TRACER_VOTES):
            vote_rng = random.Random(f"{cfg.seed}/vote/{round_no}/{v}")
            conf = None
            while conf is None:
                Fp = next(fields)
                prime = Fp.p
                for _ in range(_MAX_POINT_TRIES):
                    a = vote_rng.randrange(1, prime)
                    try:
                        if recording is None:
                            recording = _record(pres, Fp, a, rho, degree_ceiling, counts)
                            conf = recording[1]
                        else:
                            conf = _solved(pres, recording, recording[0].bind(Fp), Fp, a,
                                           rho, degree_ceiling, counts, "votes")[0]
                    except UnluckyEvaluationError as e:
                        if not e.prime_level:
                            continue
                        log.append(f"vote prime={prime} discarded: {e}")
                        discarded.append(prime)
                    break
                else:
                    raise BudgetExhaustedError(f"no usable vote points mod {prime}")
            log.append(
                f"vote prime={prime} point={a} eta={_mono_str(conf.eta)} "
                f"|B|={len(conf.B)} |tracer|={len(conf.tracer)}"
            )
            votes.append((conf, Fp, a))
        confs = [vote[0] for vote in votes]
        for conf, Fp, a in votes:
            if confs.count(conf) * 2 > len(confs):
                log.append("votes agree" if confs.count(conf) == len(confs)
                           else "votes split, majority kept")
                if recording[1] != conf:  # the first vote lost
                    recording = _record(pres, Fp, a, rho, degree_ceiling, counts)
                return conf, recording
        log.append("votes inconclusive, new round")
    raise InconsistencyError("tracer votes never reached a majority")


def _reduce_canonical_mod(coeffs, Fp):
    """Q-canonical integer relation -> the per-prime canonical form over Fp."""
    p = Fp.p
    polys = [pnorm(tuple(c % p for c in poly)) for poly in coeffs]
    if not polys[-1]:
        return None  # p divides the leading coefficient: unlucky
    return _normalize_modp_relation(Fp, polys)


def _prime_fields(rng):
    """Distinct primes drawn from rng, each verified once into the
    PrimeField that all of its votes, points and checks share."""
    seen = set()
    while True:
        Fp = random_prime_field(rng)
        if Fp.p not in seen:
            seen.add(Fp.p)
            yield Fp


def _lift(results):
    """(coefficients, kept primes, shape rejects) from the (p, relation or
    None, log) triples of results: the relations of the most common
    _shape (on a tie, the first in str order) lifted coefficient by
    coefficient to Q by CRT and rational reconstruction and made
    primitive, their primes, and the primes whose relation has another
    shape, in results order.  None when fewer than two primes share that
    shape or a coefficient does not reconstruct."""
    shapes = {}
    for p, rel, _ in results:
        if rel is not None:
            shapes.setdefault(_shape(rel), []).append((p, rel))
    if not shapes:
        return None
    best = max(sorted(shapes, key=str), key=lambda s: len(shapes[s]))
    kept = shapes[best]
    if len(kept) < 2:
        return None
    coeffs = []
    for ci, deg in enumerate(best[1]):
        poly = []
        for d in range(deg + 1):
            fr = rational_reconstruct(*crt_combine([(rel[ci][d], p) for p, rel in kept]))
            if fr is None:
                return None
            poly.append(fr)
        coeffs.append(pnorm(tuple(poly)))
    rejects = [p for p, rel, _ in results if rel is not None and _shape(rel) != best]
    return _primitive_positive(coeffs), [p for p, _ in kept], rejects


def telescope_modular(pres: DerivedPresentation, rho=1, config: ModularConfig = None,
                      degree_ceiling=40):
    """Telescoper over Q by per-prime evaluation/interpolation and CRT lifting.

    Returns a ModularRun carrying the telescoper, a deterministic transcript
    (a fixed seed yields a byte-identical transcript), and the primes
    kept/discarded.  The primes are solved one at a time, in index order,
    on the calling thread: waves of two until their relations lift (_lift),
    then consistency primes, and the telescoper is returned only once an
    independent prime reproduces its canonical image.  A consistency prime
    that disagrees shows the reconstruction was premature (rational
    reconstruction can succeed spuriously on too few primes), so its
    relation joins the others, the lift is tried again and more waves
    follow while it fails.
    """
    cfg = config or ModularConfig()
    log = [f"seed {cfg.seed} rho {rho}"]
    fields = _prime_fields(random.Random(f"{cfg.seed}/primes"))
    counts = dict.fromkeys(_REPLAY_COUNTS, 0)
    discarded = []
    ref, recording = _elect_reference(pres, rho, cfg, fields, log, degree_ceiling,
                                      counts, discarded)
    if not ref.B:
        log.append("empty confinement: unit telescoper")
        return ModularRun(Telescoper(((1,),)), tuple(log), (), tuple(discarded), counts)

    results = []  # the wave primes and the disagreeing consistency primes
    unchecked = []  # the consistency primes that could not check the candidate
    candidate, wave = None, _MIN_PRIMES
    for idx, Fp in enumerate(fields):
        if candidate is None:  # a wave prime
            results.append(_prime_relation(pres, rho, ref, recording, Fp, idx, cfg,
                                           counts))
            wave -= 1
            if wave:
                continue
        else:  # a consistency prime
            if idx >= _MAX_PRIMES + 4:
                raise BudgetExhaustedError("consistency check never completed")
            expected = _reduce_canonical_mod(candidate[0], Fp)
            got = None if expected is None else _prime_relation(
                pres, rho, ref, recording, Fp, idx, cfg, counts)
            if got is None or got[1] is None:
                unchecked.append(Fp.p)
                continue
            if got[1] == expected:
                break
            got[2].append(f"  disagrees with the reconstruction from "
                          f"{len(candidate[1])} primes: kept")
            results.append(got)
        candidate = _lift(results)
        if candidate is None:
            if idx + 1 >= _MAX_PRIMES:
                raise BudgetExhaustedError(f"no reconstruction after {idx + 1} primes")
            wave = min(2, _MAX_PRIMES - idx - 1)

    coeffs, kept, rejects = candidate
    for _, _, prime_log in results:
        log.extend(prime_log)
    log.append(f"crt primes={len(kept)} degs={tuple(pdeg(c) for c in coeffs)}")
    log.extend(f"shape reject prime {p}" for p in rejects)
    log.extend(got[2])
    log.append(f"consistency prime {got[0]} ok")
    discarded += [p for p, rel, _ in results if rel is None] + rejects + unchecked
    return ModularRun(Telescoper(coeffs), tuple(log), tuple(kept), tuple(discarded),
                      counts)
