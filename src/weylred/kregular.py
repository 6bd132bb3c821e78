"""Generating functions of k-regular graphs via the scalar-product method.

The exponential generating function of labeled simple k-regular graphs can
be written as a scalar product of symmetric functions, ``<e^f, e^{t g}>``,
where f and g are explicit polynomials in the power sums ``p_1, .., p_k``.
That pairing turns differential operators in the p-variables into an ideal
``S`` of a rank-1 module over ``W_p(t)`` together with a derivation matrix
``L = (Lambda)``, the setup consumed by :mod:`.telescoping` — a telescoper
for it is a linear ODE for the generating function.

The module also carries two independent oracles used to validate the ODE:

* :func:`scalar_product_series` expands ``<e^f, e^{t g}>`` directly with
  exact rational arithmetic, truncated in total p-weight;
* :func:`count_regular_graphs` counts labeled k-regular graphs by
  completing the lowest-numbered unsaturated vertex first (lexicographic
  pair order) with residual-degree pruning, collapsing states that share
  a residual degree multiset.

Polynomials in ``p_1..p_k`` are plain dicts: exponent tuple -> Fraction.
"""

from fractions import Fraction
from math import comb, factorial

from .arith import QQ_T, T_GEN, Record
from .groebner import buchberger
from .reduction import ReductionContext
from .telescoping import DerivedPresentation
from .weyl import Algebra, WeylOperator, grevlex, mul, op_add, op_scale, op_sub


# ---------------------------------------------------------------------------
# sparse polynomials in the power sums


def mp_weight(expt):
    """Total p-weight of an exponent tuple: p_i carries weight i."""
    return sum((i + 1) * e for i, e in enumerate(expt))


def mp_add(a, b):
    out = dict(a)
    for r, c in b.items():
        s = out.get(r, Fraction(0)) + c
        if s:
            out[r] = s
        else:
            out.pop(r, None)
    return out


def mp_scale(a, c):
    c = Fraction(c)
    if not c:
        return {}
    return {r: v * c for r, v in a.items()}


def mp_mul(a, b, weight_cap=None):
    out = {}
    for r1, c1 in a.items():
        for r2, c2 in b.items():
            r = tuple(x + y for x, y in zip(r1, r2))
            if weight_cap is not None and mp_weight(r) > weight_cap:
                continue
            s = out.get(r, Fraction(0)) + c1 * c2
            if s:
                out[r] = s
            else:
                out.pop(r, None)
    return out


def mp_diff(a, j):
    """Partial derivative with respect to p_{j+1} (0-based slot j)."""
    out = {}
    for r, c in a.items():
        if r[j]:
            rr = r[:j] + (r[j] - 1,) + r[j + 1 :]
            out[rr] = out.get(rr, Fraction(0)) + c * r[j]
    return {r: c for r, c in out.items() if c}


def _partitions(k, largest=None):
    """Partitions of k as descending tuples of parts."""
    if largest is None:
        largest = k
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest), 0, -1):
        for rest in _partitions(k - part, part):
            yield (part,) + rest


def model_polynomials(k):
    """The pair (f, g) for simple loopless k-regular graphs.

    f collects the edge/parity corrections Σ_d (-1)^(d-1) (p_d^2 - p_{2d})/(2d)
    with p_m = 0 beyond p_k; g is the complete homogeneous symmetric
    function h_k written in power sums, Σ_{λ ⊢ k} p_λ / z_λ.
    """
    if k < 2:
        raise ValueError("the built-in model needs k >= 2")
    zero = (0,) * k
    f = {}
    for d in range(1, k + 1):
        c = Fraction((-1) ** (d - 1), 2 * d)
        sq = list(zero)
        sq[d - 1] = 2
        f = mp_add(f, {tuple(sq): c})
        if 2 * d <= k:
            lin = list(zero)
            lin[2 * d - 1] = 1
            f = mp_add(f, {tuple(lin): -c})
    g = {}
    for lam in _partitions(k):
        mult = {}
        for part in lam:
            mult[part] = mult.get(part, 0) + 1
        z = 1
        expt = list(zero)
        for part, m in mult.items():
            z *= factorial(m) * part**m
            expt[part - 1] = m
        g = mp_add(g, {tuple(expt): Fraction(1, z)})
    return f, g


# ---------------------------------------------------------------------------
# the operator data of the scalar-product pairing


class ScalarProductInput(Record):
    """Operator data distilled from a pair (f, g) of p-polynomials.

    `g_tilde` is g with p_i rescaled to i*X_i; `u` holds the commuting
    operators u_j = df/dp_j - d_j acting on the rank-1 module over W_p(t).
    """

    _fields = ("k", "f", "g", "g_tilde", "u", "algebra")

    def __init__(self, k, f, g, g_tilde, u, algebra):
        self.k, self.f, self.g, self.g_tilde = k, f, g, g_tilde
        self.u, self.algebra = u, algebra


def _operator_from_poly(algebra, poly):
    zero = (0,) * algebra.n
    terms = {}
    for r, c in poly.items():
        terms[algebra.monomial(r, zero)] = QQ_T.from_poly((Fraction(c),))
    return WeylOperator(algebra, terms)


def scalar_product_input(f, g, k):
    """Assemble the ScalarProductInput.  Its u_j = df/dp_j - d_j commute
    for every f: [u_i, u_j] = d_j d_i f - d_i d_j f = 0."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    algebra = Algebra(k, 1, QQ_T)
    g_tilde = {}
    for r, c in g.items():
        scale = 1
        for i, e in enumerate(r):
            scale *= (i + 1) ** e
        g_tilde[r] = Fraction(c) * scale
    u = tuple(
        op_sub(_operator_from_poly(algebra, mp_diff(f, j)), algebra.dvar(j))
        for j in range(k)
    )
    return ScalarProductInput(k, dict(f), dict(g), g_tilde, u, algebra)


def from_model(k):
    f, g = model_polynomials(k)
    return scalar_product_input(f, g, k)


def _eval_at_operators(poly, ops, algebra):
    """Evaluate a commutative polynomial at a tuple of commuting operators."""
    powers = [{0: algebra.one()} for _ in ops]

    def upow(j, e):
        cache = powers[j]
        while e not in cache:
            m = max(cache)
            cache[m + 1] = mul(cache[m], ops[j])
        return cache[e]

    out = algebra.zero()
    for r, c in poly.items():
        term = algebra.scalar(QQ_T.from_poly((Fraction(c),)))
        for j, e in enumerate(r):
            if e:
                term = mul(term, upow(j, e))
        out = op_add(out, term)
    return out


def build_ideal(inp):
    """Generators p_i - t * (dg~/dX_i)(u_1, .., u_k) of the module ideal."""
    gens = []
    for i in range(inp.k):
        partial = _eval_at_operators(mp_diff(inp.g_tilde, i), inp.u, inp.algebra)
        gens.append(op_sub(inp.algebra.xvar(i), op_scale(partial, T_GEN)))
    return gens


def derivation_L(inp):
    """The 1x1 derivation matrix entry: Lambda = g~(u_1, .., u_k)."""
    return _eval_at_operators(inp.g_tilde, inp.u, inp.algebra)


def scalar_product_presentation(inp):
    """Grevlex GB of the ideal plus derivation, packaged for the telescoping layer.

    pres.f is the class of 1 — the element whose telescoper is the ODE of
    the generating function <e^f, e^{t g}>.
    """
    order = grevlex(inp.k)
    basis = buchberger(build_ideal(inp), order)
    ctx = ReductionContext(inp.algebra, order, basis)
    return DerivedPresentation(ctx, ((derivation_L(inp),),), inp.algebra.one())


def regular_presentation(k):
    """(inp, pres) for the k-regular graph model; see scalar_product_presentation."""
    inp = from_model(k)
    return inp, scalar_product_presentation(inp)


# ---------------------------------------------------------------------------
# oracle 1: direct series expansion of the pairing


def _z_factor(r):
    z = 1
    for i, e in enumerate(r):
        z *= factorial(e) * (i + 1) ** e
    return z


def _exp_truncated(poly, weight_cap, nvars):
    unit = {(0,) * nvars: Fraction(1)}
    acc = dict(unit)
    term = dict(unit)
    m = 0
    while True:
        m += 1
        term = mp_mul(term, poly, weight_cap=weight_cap)
        if not term:
            break
        term = mp_scale(term, Fraction(1, m))
        acc = mp_add(acc, term)
    return acc


def scalar_product_series(f, g, N):
    """Coefficients of <e^f, e^{t g}> as a series in t, up to t^N.

    The pairing is diagonal on p-monomials, <p^r, p^s> = z_r δ_{rs} with
    z_r = Π r_i! i^{r_i}; both exponentials are truncated in total p-weight,
    which is sound because every pairing at t^n only touches weight n*wg.
    """
    keys = list(f) + list(g)
    if not keys:
        raise ValueError("need at least one nonzero polynomial")
    nvars = len(keys[0])
    if any(len(r) != nvars for r in keys):
        raise ValueError("f and g must use the same variables")
    if any(c and mp_weight(r) == 0 for r, c in f.items()):
        raise ValueError("f has a constant term; e^f is not a truncatable series")
    wg = max((mp_weight(r) for r in g), default=0)
    cap = wg * N
    E = _exp_truncated({r: Fraction(c) for r, c in f.items() if c}, cap, nvars)
    gn = {(0,) * nvars: Fraction(1)}
    out = []
    for n in range(N + 1):
        pair = Fraction(0)
        for r, c in gn.items():
            e = E.get(r)
            if e:
                pair += e * c * _z_factor(r)
        out.append(pair / factorial(n))
        if n < N:
            gn = mp_mul(gn, {r: Fraction(c) for r, c in g.items()}, weight_cap=cap)
    return tuple(out)


# ---------------------------------------------------------------------------
# oracle 2: backtracking count of labeled k-regular graphs


def count_regular_graphs(k, n):
    """Number of labeled simple loopless graphs on n vertices, all degrees k.

    Completes the lowest-numbered unsaturated vertex first, choosing its
    remaining partners in ascending order; states with equal residual
    degree multisets are merged, and branches die as soon as a residual
    exceeds the number of available partners.
    """
    if k < 0 or n < 0:
        raise ValueError(f"k and n must be non-negative, got {k} and {n}")
    if n == 0:
        return 1
    if (k * n) % 2 or k > n - 1:
        return 0
    if k * n // 2 > 40:
        raise ValueError("graph too large for exhaustive counting")

    memo = {}

    def count(residuals):
        # residuals: descending tuple of positive residual degrees
        if not residuals:
            return 1
        key = residuals
        hit = memo.get(key)
        if hit is not None:
            return hit
        d, rest = residuals[0], residuals[1:]
        if d > len(rest):
            memo[key] = 0
            return 0
        total = 0
        # group equal residuals and branch on how many partners come from
        # each group: identical values give identical child states
        groups = []
        for v in rest:
            if groups and groups[-1][0] == v:
                groups[-1][1] += 1
            else:
                groups.append([v, 1])

        def assign(gi, remaining, picked):
            nonlocal total
            if remaining == 0:
                full = picked + (0,) * (len(groups) - len(picked))
                child = []
                ways = 1
                for (v, size), c in zip(groups, full):
                    child.extend([v - 1] * c)
                    child.extend([v] * (size - c))
                    ways *= comb(size, c)
                child = tuple(sorted((x for x in child if x), reverse=True))
                total += ways * count(child)
                return
            if gi == len(groups):
                return
            size = groups[gi][1]
            room = sum(g[1] for g in groups[gi + 1 :])
            for c in range(min(size, remaining), -1, -1):
                if remaining - c > room:
                    break
                assign(gi + 1, remaining - c, picked + (c,))

        assign(0, d, ())
        memo[key] = total
        return total

    return count((k,) * n)


# ---------------------------------------------------------------------------
# gluing the two: check a telescoper against a truncated series


def verify_ode_on_series(tele, series, allow_partial=False):
    """True iff Σ c_i(t) (d/dt)^i annihilates the series up to truncation.

    `series` lists the coefficients of t^0..t^M.  Requires enough terms to
    make the zero check meaningful: M >= order + max coefficient degree + 1,
    otherwise ValueError (an inconclusive check is not `False`).
    With allow_partial=True only M >= order + 1 is required; the check
    then covers the t^0..t^(M-order) coefficients of the image, which are
    fully determined by the truncation, and nothing beyond.
    """
    coeffs = tele.coefficients
    N = len(coeffs) - 1
    maxdeg = max((len(c) - 1 for c in coeffs if c), default=0)
    M = len(series) - 1
    needed = N + 1 if allow_partial else N + maxdeg + 1
    if M < needed:
        raise ValueError(f"series to t^{M} too short: need at least t^{needed}")
    sev = [Fraction(v) for v in series]
    derivs = [sev]
    for _ in range(N):
        prev = derivs[-1]
        derivs.append([prev[j + 1] * (j + 1) for j in range(len(prev) - 1)])
    for j in range(M - N + 1):
        acc = Fraction(0)
        for i, c in enumerate(coeffs):
            for m, cm in enumerate(c):
                if cm and 0 <= j - m < len(derivs[i]):
                    acc += Fraction(cm) * derivs[i][j - m]
        if acc:
            return False
    return True
