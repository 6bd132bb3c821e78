"""Exact coefficient arithmetic.

Fields are lightweight frozen objects that operate on plain payloads:

* ``Rationals()`` works on :class:`fractions.Fraction`,
* ``PrimeField(p)`` works on ints canonicalized to ``[0, p)``,
* ``RationalFunctions(base)`` works on ``(num, den)`` pairs of dense
  univariate polynomials in ``t``: over F_p with coefficients in F_p and a
  monic den, over Q with int coefficients (the ring ``ZZ``), coprime in
  Z[t] content included, and lc(den) > 0.  Either way every element has
  exactly one payload.

Generic code calls only ``zero`` and ``one`` (attributes), ``from_int``,
``add``, ``sub``, ``mul``, ``neg``, ``inv``, ``div`` and ``is_zero``, and
compares the canonical payloads with ``==``; ``RationalFunctions`` adds
``derivative``, ``normalize`` and ``from_poly``.  ``ZZ`` is a tag, not a field.

A dense polynomial is a tuple of payloads, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Containers (operators,
matrices, telescopers) carry the field tag; individual payloads do not.  The
polynomial kernels compute with the payloads themselves and reduce mod p
once per coefficient over F_p.

Over Q most operands are Laurent polynomials, with a den of c t^m: their
sums, products and derivatives take closed forms on the int coefficients
and run no polynomial gcd (RationalFunctions).

Every gcd first splits off the power of t.  What is left of a Q[t] gcd runs
over Z[t] with the heuristic gcd GCDHEU (Char, Geddes and Gonnet, JSC 1989),
which falls back to a primitive Euclid; F_p[t] gcds run Euclid.

The module also provides the reconstruction primitives used by the modular
telescoping pipeline: Chinese remaindering, rational reconstruction, Cauchy
interpolation over a table of Lagrange bases that fits through the same
abscissae share (AbscissaTable), and the adaptive wrapper that doubles
degree bounds until a candidate survives a confirming evaluation.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction


class UnluckyEvaluationError(Exception):
    """A modular evaluation hit a vanishing denominator.

    ``prime_level`` is True when no choice of evaluation point can help
    (the prime divides a rational coefficient's denominator), so the caller
    should discard the prime rather than resample the point.
    """

    def __init__(self, message, prime_level=False):
        super().__init__(message)
        self.prime_level = prime_level


class BudgetExhaustedError(Exception):
    """An evaluation/point/prime budget ran out."""


class InconsistencyError(Exception):
    """A witness, a certificate or a cross-prime/cross-point check failed."""


# ---------------------------------------------------------------------------
# value classes


class Record:
    """Equality, hash and repr by the attributes that ``_fields`` names.

    A record equals only a record of its own class whose fields are equal,
    hashes as the tuple of its fields and prints as ``Name(field=value,
    ...)``, as a frozen dataclass does.  A record class whose fields may
    change after construction sets ``__hash__ = None``.
    """

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# fields


class Rationals(Record):
    """The field of arbitrary-precision rationals; payloads are Fractions."""

    __slots__ = ()
    has_t = False
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def div(self, a, b):
        return a / b

    def is_zero(self, a):
        return not a

    def __repr__(self):
        return "QQ"


class PrimeField(Record):
    """The field with p elements; payloads are ints in [0, p).

    Construction tests p with is_prime unless ``verified`` says the caller
    has just done so (random_prime_field).
    """

    __slots__ = ("p", "characteristic", "_hash")
    _fields = ("p",)
    has_t = False
    zero = 0
    one = 1

    def __init__(self, p, verified=False):
        if not (verified or is_prime(p)):
            raise ValueError(f"not a prime: {p}")
        self.p = self.characteristic = p
        self._hash = hash((p,))

    def __hash__(self):
        return self._hash

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a, b):
        d = a - b
        return d + self.p if d < 0 else d

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return self.p - a if a else 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        return a * pow(b, -1, self.p) % self.p

    def is_zero(self, a):
        return not a

    def __repr__(self):
        return f"GF({self.p})"


class Integers(Record):
    """The tag ``ZZ`` of the ring of Q(t)'s numerators and denominators:
    not a field and without arithmetic, since the polynomial kernels
    recognise the instance ``ZZ`` and compute on its int payloads."""

    __slots__ = ()
    zero = 0
    one = 1
    characteristic = 0

    def __repr__(self):
        return "ZZ"


ZZ = Integers()


class RationalFunctions(Record):
    """Rational functions in t over Q or F_p.

    Payloads are ``(num, den)`` pairs of dense polynomials over ``ring``, in
    lowest terms.  Over F_p, ``ring`` is the base field, gcd(num, den) = 1
    and den is monic.  Over Q, ``ring`` is ``ZZ``: num and den are int
    tuples with gcd(num, den) = 1 in Z[t], content included, and
    lc(den) > 0.  Zero is ``((), (1,))`` in both, so every element has
    exactly one payload, and a den of length 1 is ``(1,)`` over F_p and a
    positive integer over Q.

    The operations rely on this invariant of their operands to skip the gcd
    where the result is canonical without one (Henrici's rule; Knuth, TAOCP
    vol. 2, 4.5.1): a sum over a constant or a shared denominator needs no
    cross-multiplied gcd, only an integer content can cancel over a constant
    denominator, a product only cancels gcd(an, bd) and gcd(bn, ad), and an
    inverse only rescales the new denominator.

    Over Q, the shapes of most operands a solve makes take closed forms that
    return that same canonical payload.  Constants (num and den of length at
    most 1) add, subtract, multiply, divide, invert and negate as fractions
    of ints with one math.gcd, and differentiate to zero.  Laurent
    elements, with a den of c t^m (m >= 0), have gcd(content(num), c) = 1
    and num(0) != 0 when m > 0: their sums, products (which div and inv
    reach through mul) and derivatives shift and scale the numerators by
    ints, then cancel one content gcd and one power of t.  Every other
    shape runs the Z[t] kernels, where _cancel divides any num over c t^m
    by gcd(content(num), c) t^min(v(num), m).
    """

    __slots__ = ("base", "ring", "_hash")
    _fields = ("base",)
    has_t = True
    zero = ((), (1,))
    one = ((1,), (1,))

    def __init__(self, base):
        self.base = base
        self.ring = ZZ if isinstance(base, Rationals) else base
        self._hash = hash((base,))

    def __hash__(self):
        return self._hash

    def from_int(self, n):
        p = self.ring.characteristic
        if p:
            n %= p
        return ((n,) if n else (), (1,))

    def from_poly(self, poly):
        """The element of a polynomial in t: over Q its coefficients may be
        ints or Fractions, over F_p they are residues."""
        if self.ring is ZZ:
            d = math.lcm(*(c.denominator for c in poly))
            return self.normalize(
                tuple(c.numerator * (d // c.denominator) for c in poly), (d,))
        return self.normalize(poly, (self.ring.one,))

    def normalize(self, num, den):
        F = self.ring
        num, den = pnorm(num), pnorm(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return self.zero
        return self._unit_den(*_cancel(F, num, den))

    def _unit_den(self, num, den):
        """Scale num/den by a unit so that den is monic over F_p, or has a
        positive leading coefficient over Q."""
        F = self.ring
        lc = den[-1]
        if F is ZZ:
            return (num, den) if lc > 0 else (_pscale(num, -1), _pscale(den, -1))
        inv = F.inv(lc)
        return (_pscale(num, inv, F.p), _pscale(den, inv, F.p))

    def add(self, a, b):
        return self._sum(a, b, padd, 1)

    def sub(self, a, b):
        return self._sum(a, b, psub, -1)

    def _sum(self, a, b, combine, sign):
        """a + b (combine = padd, sign = 1) or a - b (psub, -1)."""
        F = self.ring
        (an, ad), (bn, bd) = a, b
        if not bn:
            return a
        if not an:
            return b if sign > 0 else self.neg(b)
        if F is ZZ and len(an) == 1 == len(bn) and len(ad) == 1 == len(bd):
            d, e = ad[0], bd[0]
            return _rational(an[0] * e + sign * bn[0] * d, d * e)
        if F is ZZ and ad.count(0) == len(ad) - 1 and bd.count(0) == len(bd) - 1:
            return _laurent_sum(an, ad, bn, bd, sign)  # dens c t^m and d t^n
        if ad == bd:
            num = combine(F, an, bn)
            return self.normalize(num, ad) if len(ad) > 1 else (num, ad)  # F_p here
        # A non-constant factor of bd divides an*bd +- bn*ad only if it divides
        # bn, so over a constant ad at most an integer content cancels.
        if len(ad) == 1:
            c = ad[0]
            num = combine(F, pmul(F, an, bd), _pscale(bn, c))
            return _content_free(F, num, _pscale(bd, c))
        if len(bd) == 1:
            c = bd[0]
            num = combine(F, _pscale(an, c), pmul(F, bn, ad))
            return _content_free(F, num, _pscale(ad, c))
        num = combine(F, pmul(F, an, bd), pmul(F, bn, ad))
        return self.normalize(num, pmul(F, ad, bd))

    def mul(self, a, b):
        F = self.ring
        (an, ad), (bn, bd) = a, b
        if not an or not bn:
            return self.zero
        if F is ZZ and len(an) == 1 == len(bn) and len(ad) == 1 == len(bd):
            return _rational(an[0] * bn[0], ad[0] * bd[0])
        if F is ZZ and ad.count(0) == len(ad) - 1 and bd.count(0) == len(bd) - 1:
            return _laurent_mul(an, ad, bn, bd)  # dens c t^m and d t^n
        # an/ad and bn/bd are in lowest terms, so only an, bd and bn, ad can
        # share a factor; the quotients keep den monic, or lc(den) > 0.
        one = (F.one,)
        if bd != one:
            an, bd = _cancel(F, an, bd)
        if ad != one:
            bn, ad = _cancel(F, bn, ad)
        den = bd if ad == one else ad if bd == one else pmul(F, ad, bd)
        return (pmul(F, an, bn), den)

    def neg(self, a):
        n, d = a
        if self.ring is ZZ and len(n) < 2:
            return ((-n[0],), d) if n else a
        return (_pscale(n, -1, self.ring.characteristic), d)

    def inv(self, a):
        n, d = a
        if not n:
            raise ZeroDivisionError("inverse of zero")
        if self.ring is ZZ and len(n) == 1 == len(d):
            return ((d[0],), n) if n[0] > 0 else ((-d[0],), (-n[0],))
        return self._unit_den(d, n)

    def div(self, a, b):
        (an, ad), (bn, bd) = a, b
        if self.ring is ZZ and len(an) < 2 and len(bn) == 1 and len(ad) == 1 == len(bd):
            return _rational(an[0] * bd[0] if an else 0, ad[0] * bn[0])
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return not a[0]

    def derivative(self, a):
        # (n/d)' = (n'd - nd') / d^2
        F = self.ring
        n, d = a
        if len(d) == 1:
            return self.zero if len(n) < 2 else _content_free(F, pderiv(F, n), d)
        if F is ZZ and d.count(0) == len(d) - 1:
            # (n / c t^m)' = (n't - mn) / c t^(m+1), where n(0) != 0 cancels no t
            num = _strip([(i - len(d) + 1) * x for i, x in enumerate(n)])
            g = math.gcd(d[-1], *num)
            return _quo_int(num, g), (0,) * len(d) + (d[-1] // g,)
        num = psub(F, pmul(F, pderiv(F, n), d), pmul(F, n, pderiv(F, d)))
        return self.normalize(num, pmul(F, d, d))

    def __repr__(self):
        return f"{self.base!r}(t)"


QQ = Rationals()
QQ_T = RationalFunctions(QQ)
T_GEN = ((0, 1), (1,))  # t in Q(t), as QQ_T.from_poly makes it


# ---------------------------------------------------------------------------
# dense univariate polynomials (tuples, lowest degree first, no trailing zeros)
#
# The kernels compute with the payloads themselves (ints over Z and F_p,
# Fractions over Q) and reduce mod p = F.characteristic once per output
# coefficient when p is nonzero.


def pnorm(coeffs):
    """coeffs as a polynomial, trailing zeros dropped; the zero payload of
    every ring is falsy."""
    return _strip(list(coeffs))


def pdeg(a):
    """Degree with the convention deg 0 = -1."""
    return len(a) - 1


def _strip(c):
    """The list c as a polynomial: a tuple with no trailing zeros."""
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def padd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    p = F.characteristic
    c = [(x + y) % p for x, y in zip(a, b)] if p else [x + y for x, y in zip(a, b)]
    c += a[len(b):]
    return _strip(c)


def psub(F, a, b):
    c = [x - y for x, y in zip(a, b)]
    c += a[len(b):] if len(a) > len(b) else [-y for y in b[len(a):]]
    p = F.characteristic
    return _strip([x % p for x in c] if p else c)


_KRONECKER_CUTOFF = 64


def pmul(F, a, b):
    if not a or not b:
        return ()
    p = F.characteristic
    if len(b) == 1:
        return _pscale(a, b[0], p)
    if len(a) == 1:
        return _pscale(b, a[0], p)
    if p and len(a) >= _KRONECKER_CUTOFF and len(b) >= _KRONECKER_CUTOFF:
        return _pmul_kronecker(p, a, b)
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple([c % p for c in out] if p else out)  # a domain: lc(a) lc(b) != 0


def _pmul_kronecker(p, a, b):
    # Pack coefficients into one big integer per operand so the product is a
    # single CPython bigint multiplication; stride wide enough that packed
    # sums of cross terms never overlap.
    stride = 2 * (p - 1).bit_length() + min(len(a), len(b)).bit_length() + 1
    pa = 0
    for c in reversed(a):
        pa = (pa << stride) | c
    pb = 0
    for c in reversed(b):
        pb = (pb << stride) | c
    prod = pa * pb
    mask = (1 << stride) - 1
    out = []
    for _ in range(len(a) + len(b) - 1):
        out.append((prod & mask) % p)
        prod >>= stride
    return tuple(out)


def pdivmod(F, a, b):
    """(quotient, remainder) of a by b over a field.  Over GF(p) an entry of
    the remainder is reduced only when it leads or is returned; the leading
    term of b cancels exactly and is never subtracted."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    p = F.characteristic
    db = len(b) - 1
    inv = pow(b[-1], -1, p) if p else F.inv(b[-1])
    rem = list(a)
    quo = [F.zero] * (len(a) - db)
    low = b[:db]
    for k in range(len(quo) - 1, -1, -1):
        q = rem[k + db] * inv % p if p else rem[k + db] * inv
        if q:
            quo[k] = q
            for i, c in enumerate(low, k):
                rem[i] -= q * c
    del rem[db:]
    return tuple(quo), _strip([c % p for c in rem] if p else rem)


def pmonic(F, a):
    if not a:
        return a
    p = F.characteristic
    return _pscale(a, pow(a[-1], -1, p) if p else F.inv(a[-1]), p)


def _tval(a):
    """The t-adic valuation of a nonzero polynomial."""
    v = 0
    while not a[v]:
        v += 1
    return v


def pgcd(F, a, b):
    """(g, a/g, b/g) for the gcd g of a and b: monic over a field; over ZZ
    the gcd in Z[t], content included, with lc(g) > 0.  gcd(0, 0) gives
    three zero polynomials.

    The power of t splits off first: for nonzero a, b of t-adic valuations
    v_a, v_b and v = min(v_a, v_b), gcd(a, b) = t^v gcd(a/t^v_a, b/t^v_b).
    What is left needs no gcd algorithm when a part is constant; otherwise
    it runs GCDHEU, then Euclid, over ZZ and Euclid over a field.
    """
    if not (a and b):
        return _gcd(F, a, b)
    va, vb = _tval(a), _tval(b)
    v = min(va, vb)
    g, qa, qb = _gcd(F, a[va:], b[vb:])
    z = (F.zero,)
    return z * v + g, z * (va - v) + qa, z * (vb - v) + qb


def _gcd(F, a, b):
    """pgcd without the split of the power of t."""
    if F is ZZ:
        return _zz_gcd(a, b)
    if len(a) == 1 or len(b) == 1:  # a unit, or zero beside a unit
        return (F.one,), a, b
    x, y = a, b
    while y:
        x, y = y, pdivmod(F, x, y)[1]
    g = pmonic(F, x)
    if not g or g == (F.one,):
        return g, a, b
    return g, pdivmod(F, a, g)[0], pdivmod(F, b, g)[0]


def pexquo(F, a, b):
    """The quotient a / b, for b dividing a."""
    if F is ZZ:
        q = _zz_divide(a, b)
        if q is None:
            raise ValueError(f"{b} does not divide {a} in Z[t]")
        return q
    return pdivmod(F, a, b)[0]


def _pscale(a, c, p=0):
    """a times the scalar c, reduced mod p when p is nonzero."""
    if c == 1:
        return a
    return tuple([x * c % p for x in a] if p else [x * c for x in a])


def _cancel(F, num, den):
    """num and den divided by their gcd.  No polynomial gcd runs over a
    constant den, where that gcd is at most an integer content, nor over ZZ
    for a den of c t^m, where it is gcd(content(num), c) t^min(v(num), m)."""
    if len(den) == 1:
        return _content_free(F, num, den)
    if F is ZZ and not any(den[:-1]):
        c, m = den[-1], len(den) - 1
        v = min(_tval(num), m)
        g = math.gcd(*num, c)
        return _quo_int(num[v:], g), (0,) * (m - v) + (c // g,)
    return pgcd(F, num, den)[1:]


def _laurent_sum(an, ad, bn, bd, sign):
    """an/ad + sign bn/bd over dens c t^m and d t^n: N / (lcm(c, d) t^k),
    k = max(m, n).  A prime of lcm(c, d) / gcd(c, d) divides just one term of
    N, so gcd(N, lcm t^k) = gcd(content(N), gcd(c, d)) t^min(v(N), k)."""
    c, d, m, n = ad[-1], bd[-1], len(ad) - 1, len(bd) - 1
    g = math.gcd(c, d)
    e, f, k = d // g, c // g * sign, max(m, n)
    num = [0] * max(len(an) + k - m, len(bn) + k - n)
    for i, x in enumerate(an, k - m):
        num[i] = x * e
    for i, x in enumerate(bn, k - n):
        num[i] += x * f
    num = _strip(num)
    if not num:
        return ((), (1,))
    v = min(_tval(num), k)
    h = math.gcd(g, *num) if g > 1 else 1
    return _quo_int(num[v:], h), (0,) * (k - v) + (c * e // h,)


def _laurent_mul(an, ad, bn, bd):
    """(an/ad) (bn/bd) over dens c t^m and d t^n, an and bn nonzero.  By
    Gauss's lemma only an and d t^n share a factor, gcd(content(an), d)
    t^min(v(an), n), and bn and c t^m its mirror."""
    c, d, m, n = ad[-1], bd[-1], len(ad) - 1, len(bd) - 1
    g, h = math.gcd(d, *an), math.gcd(c, *bn)
    u = min(_tval(an), n) if n else 0
    w = min(_tval(bn), m) if m else 0
    num = pmul(ZZ, _quo_int(an[u:], g), _quo_int(bn[w:], h))
    return num, (0,) * (m + n - u - w) + (c // h * (d // g),)


def _rational(n, d):
    """The Q(t) payload of the rational constant n/d, d != 0."""
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    return ((n // g,), (d // g,)) if n else ((), (1,))


def _content_free(F, num, den):
    """num/den over a constant or shared denominator, which may share only an
    integer content; zero comes out as ((), (1,)).  Over a field it is already
    in lowest terms."""
    if F is not ZZ:
        return (num, den)
    g = math.gcd(*num, *den)
    return (_quo_int(num, g), _quo_int(den, g))


def plcm(F, a, b):
    """lcm of a and b: monic over a field; over ZZ with lc > 0."""
    if not a or not b:
        return ()
    m = pmul(F, pgcd(F, a, b)[1], b)
    if F is ZZ:
        return m if m[-1] > 0 else _pscale(m, -1)
    return pmonic(F, m)


# ---------------------------------------------------------------------------
# gcds in Z[t]


_HEU_TRIES = 6  # values of xi GCDHEU tries before Euclid takes over


def _zz_gcd(a, b):
    if not a or not b:
        g = a or b
        u = -1 if g and g[-1] < 0 else 1  # the unit that makes lc(g) > 0
        return _pscale(g, u), (u,) if a else (), (u,) if b else ()
    ca, cb = math.gcd(*a), math.gcd(*b)
    c = math.gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return (c,), _quo_int(a, c), _quo_int(b, c)
    pa, pb = _quo_int(a, ca), _quo_int(b, cb)
    heu = _zz_heu_gcd(pa, pb)
    if heu is None:
        g = _zz_euclid_gcd(pa, pb)
        heu = g, _zz_divide(pa, g), _zz_divide(pb, g)
    g, qa, qb = heu
    return _pscale(g, c), _pscale(qa, ca // c), _pscale(qb, cb // c)


def _quo_int(a, c):
    return a if c == 1 else tuple([x // c for x in a])


def _zz_heu_gcd(a, b):
    """GCDHEU on primitive a, b of positive degree: (g, a/g, b/g) for their
    gcd g with lc(g) > 0, or None when every xi tried fails.

    h = gcd(a(xi), b(xi)) is written in symmetric xi-adic digits.  For
    xi >= 2 min(|a|, |b|) + 2 in the max norm, the primitive part of that
    candidate is the gcd as soon as it divides a and b (Char, Geddes and
    Gonnet, JSC 1989; Liao and Fateman, ISSAC 1995); the trial division
    gives the cofactors.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_TRIES):
        g = _xi_adic(math.gcd(peval(ZZ, a, xi), peval(ZZ, b, xi)), xi)
        if len(g) == 1:
            return (1,), a, b
        g = _quo_int(g, math.gcd(*g) if g[-1] > 0 else -math.gcd(*g))
        qa = _zz_divide(a, g)
        if qa is not None:
            qb = _zz_divide(b, g)
            if qb is not None:
                return g, qa, qb
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011  # about 2.73 xi^(5/4)
    return None


def _zz_euclid_gcd(a, b):
    """gcd with lc > 0 of primitive a, b in Z[t], by primitive pseudo-remainders."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _zz_prem(a, b)
        a, b = b, _quo_int(r, math.gcd(*r))
    return a if a[-1] > 0 else _pscale(a, -1)


def _zz_prem(a, b):
    """Pseudo-remainder of a by b: of lc(b)^k a by b, for some k >= 0."""
    r, db, lc = list(a), len(b) - 1, b[-1]
    while len(r) > db:
        c, shift = r[-1], len(r) - 1 - db
        r = [x * lc for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= c * y
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _xi_adic(h, xi):
    """The polynomial g with g(xi) = h and digits in (-xi/2, xi/2]."""
    digits, half = [], xi // 2
    while h:
        h, d = divmod(h, xi)
        if d > half:
            d -= xi
            h += 1
        digits.append(d)
    return tuple(digits)


def _zz_divide(a, b):
    """a / b in Z[t] when b divides a, else None."""
    db = len(b) - 1
    if len(a) <= db:
        return None if a else ()
    lc, r = b[-1], list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + db], lc)
        if m:
            return None
        if c:
            q[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    if any(r[:db]):
        return None
    return tuple(q)


def pderiv(F, a):
    c = [i * x for i, x in enumerate(a) if i]
    p = F.characteristic
    return _strip([x % p for x in c] if p else c)


def peval(F, a, x):
    p = F.characteristic
    acc = F.zero
    if p:
        for c in reversed(a):
            acc = (acc * x + c) % p
    else:
        for c in reversed(a):
            acc = acc * x + c
    return acc


class AbscissaTable:
    """The Lagrange basis of each tuple of abscissae over F that a fit asks
    for, built once.  For distinct x_0, ..., x_{n-1}, M = prod (t - x_i)
    and l_i = M / ((t - x_i) M'(x_i)), so sum y_i l_i is the polynomial of
    degree below n through the points (x_i, y_i).  The streams of one
    sample pool fit on prefixes of the same abscissae, so one table per
    pool serves every entry reconstructed from it.  A table keeps at most
    ``max_entries`` bases: once full, it serves those it keeps and builds
    any other without keeping it, so a table that outlives its pool (one
    per prime, shared by the solves of a process) stays bounded.  Bases
    are kept under a lock, so threads sharing a table hold it to its cap.
    """

    max_entries = 64

    def __init__(self, F):
        self.F = F
        self._bases = {}  # abscissae -> (M, columns of the basis)
        self._lock = threading.Lock()

    def basis(self, xs):
        """(M, columns) for the abscissae xs: M = prod (t - x_i), and
        columns[k] the t^k coefficients of l_0, ..., l_{n-1}.  Raises
        ValueError when an abscissa repeats."""
        xs = tuple(xs)
        got = self._bases.get(xs)
        if got is None:
            got = self._build(xs)
            with self._lock:
                if len(self._bases) < self.max_entries:
                    self._bases[xs] = got
        return got

    def _build(self, xs):
        F = self.F
        M = [F.one]
        for x in xs:  # M <- (t - x) M
            M.insert(0, F.zero)
            for k in range(len(M) - 1):
                M[k] = F.sub(M[k], F.mul(x, M[k + 1]))
        basis = []
        for x in xs:
            # M / (t - x) by synthetic division, and its value w at x, the
            # product of x - x_j over the other abscissae
            q = [F.one]
            for c in M[-2:0:-1]:
                q.append(F.add(c, F.mul(q[-1], x)))
            q.reverse()
            w = peval(F, q, x)
            if F.is_zero(w):
                raise ValueError("repeated abscissae")
            w = F.inv(w)
            basis.append([F.mul(c, w) for c in q])
        return tuple(M), tuple(zip(*basis))


def interpolate(F, points, table=None):
    """The polynomial of degree below len(points) through points with
    distinct abscissae, as sum y_i l_i over the Lagrange basis l_i that
    table keeps for the abscissae (a fresh AbscissaTable when None)."""
    if table is None:
        table = AbscissaTable(F)
    ys = [y for _, y in points]
    _, columns = table.basis(x for x, _ in points)
    p = F.characteristic
    sums = [sum(map(operator.mul, ys, col), F.zero) for col in columns]
    return _strip([c % p for c in sums] if p else sums)


# ---------------------------------------------------------------------------
# rationals over Q[t] utilities (used by telescoper normalization)


def collective_primitive(polys):
    """Scale a family of Fraction polynomials to integers with overall content 1."""
    den = 1
    for poly in polys:
        for c in poly:
            den = math.lcm(den, c.denominator)
    scaled = [tuple(int(c * den) for c in poly) for poly in polys]
    content = 0
    for poly in scaled:
        for c in poly:
            content = math.gcd(content, c)
    if content > 1:
        scaled = [tuple(c // content for c in poly) for poly in scaled]
    return scaled


# ---------------------------------------------------------------------------
# primes


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_JAESCHKE_BOUND = 4759123141  # least strong pseudoprime to bases 2, 7 and 61


def is_prime(n):
    """Miller-Rabin, deterministic for every n below 3.3e24.

    Below 4,759,123,141 the bases 2, 7 and 61 decide primality (Jaeschke,
    Math. Comp. 1993); from there on the first twelve primes do.  A base
    that n divides says nothing about n and is skipped.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 7, 61) if n < _JAESCHKE_BOUND else _SMALL_PRIMES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime_field(rng):
    """The PrimeField of a uniformly sampled odd prime in [2^30, 2^31),
    built without testing again the prime that is_prime has just accepted."""
    while True:
        c = rng.randrange(1 << 30, 1 << 31) | 1
        if is_prime(c):
            return PrimeField(c, verified=True)


# ---------------------------------------------------------------------------
# reconstruction primitives


class ModularImage(Record):
    """A value reduced mod field.p and evaluated at t = point.

    The field is built by whoever draws the prime, which verifies the prime
    once; every image at that prime shares it, so making an image checks
    only that p is odd and below 2^31 and that the point lies in [0, p).
    """

    _fields = ("field", "point")

    def __init__(self, field, point):
        if not isinstance(field, PrimeField):
            raise ValueError(f"PrimeField required, got {field!r}")
        p = field.p
        if p % 2 != 1 or p >= (1 << 31):
            raise ValueError(f"odd prime below 2^31 required, got {p}")
        if not 0 <= point < p:
            raise ValueError(f"point {point} outside [0, {p})")
        self.field = field
        self.point = point


def crt_combine(residues):
    """Combine (value, prime) pairs into (value, product of primes).

    Parameters
    ----------
    residues : iterable of (int, int)
        Pairs ``(value mod p, p)`` with pairwise distinct primes.

    Returns
    -------
    (int, int)
        The unique ``(v, N)`` with ``v`` in ``[0, N)`` congruent to every input.
    """
    residues = list(residues)
    if not residues:
        raise ValueError("no residues to combine")
    primes = [p for _, p in residues]
    if len(set(primes)) != len(primes):
        raise ValueError("duplicate primes in CRT input")
    v, m = residues[0][0] % residues[0][1], residues[0][1]
    for r, p in residues[1:]:
        delta = (r - v) * pow(m, -1, p) % p
        v += m * delta
        m *= p
    return v % m, m


def rational_reconstruct(u, modulus):
    """Recover p/q from u mod N with |p|, q <= sqrt(N/2), or None.

    Standard half-extended Euclid on (N, u); the failure outcome is expected
    (it is the signal that more primes are required).
    """
    if not 0 <= u < modulus:
        raise ValueError(f"residue {u} outside [0, {modulus})")
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, u
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    if math.gcd(r1, abs(t1)) != 1:
        return None
    if math.gcd(abs(t1), modulus) != 1:
        return None
    return Fraction(r1, t1)


def cauchy_interpolate(F, points, deg_bounds, table=None):
    """Fit a rational function through sample points over a field.

    Parameters
    ----------
    F : field
        Coefficient field of abscissae and values (typically a PrimeField).
    points : list of (a, v)
        Samples with pairwise distinct abscissae.
    deg_bounds : (int, int)
        ``(d_num, d_den)`` bounds on numerator and denominator degree.
    table : AbscissaTable or None
        Keeps the Lagrange basis of the fit's abscissae; a fresh one if None.

    Returns
    -------
    (num, den) or None
        A normalized rational function matching every sample whose
        denominator value is nonzero, or None when no such function exists
        within the bounds.  The fit uses the first ``d_num + d_den + 1``
        points; every remaining point acts as a consistency check.
    """
    d_num, d_den = deg_bounds
    need = d_num + d_den + 1
    if len(points) < need:
        raise ValueError(f"need at least {need} points, got {len(points)}")
    xs = [a for a, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("repeated abscissae")

    fit = points[:need]
    if table is None:
        table = AbscissaTable(F)
    modpoly, _ = table.basis(xs[:need])
    lagrange = interpolate(F, fit, table)

    r0, r1 = modpoly, lagrange
    v0, v1 = (), (F.one,)
    while pdeg(r1) > d_num:
        q, rem = pdivmod(F, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, psub(F, v0, pmul(F, q, v1))
    num, den = r1, v1
    if not den:
        return None
    g = pgcd(F, num, den)[0] if num else ()
    if num and pdeg(g) > 0:
        return None
    inv, p = F.inv(den[-1]), F.characteristic
    num, den = _pscale(num, inv, p), _pscale(den, inv, p)
    if pdeg(num) > d_num or pdeg(den) > d_den:
        return None
    for a, v in points:
        dv = peval(F, den, a)
        if F.is_zero(dv):
            continue
        if peval(F, num, a) != F.mul(v, dv):
            return None
    return (num, den)


def adaptive_reconstruct(F, stream, max_points=512, table=None):
    """Reconstruct a rational function from a stream of (point, value) pairs.

    Degree bounds start at (1, 1) and double on failure.  When the next
    doubling would need more than ``max_points`` samples, one last attempt is
    made at the largest bounds the budget affords before giving up.  A
    candidate is accepted only after it matches every consumed point plus
    one fresh one.  Raises BudgetExhaustedError when the stream or the
    ``max_points`` budget runs out.  Streams over one sample pool that
    pass one AbscissaTable build each Lagrange basis once.
    """
    it = iter(stream)
    pts = []
    d_num = d_den = 1

    def take(k):
        for _ in range(k):
            if len(pts) >= max_points:
                raise BudgetExhaustedError(f"evaluation budget {max_points} exhausted")
            try:
                pts.append(next(it))
            except StopIteration:
                raise BudgetExhaustedError("evaluation stream exhausted")

    while True:
        need = d_num + d_den + 2  # the fit plus the fresh confirming point
        final = need >= max_points
        if need > max_points:
            d_num = d_den = max(0, (max_points - 2) // 2)
            need = d_num + d_den + 2
        take(need - len(pts))
        cand = cauchy_interpolate(F, pts, (d_num, d_den), table)
        if cand is not None:
            num, den = cand
            a, v = pts[-1]
            dv = peval(F, den, a)
            if not F.is_zero(dv) and peval(F, num, a) == F.mul(v, dv):
                return cand
        if final:
            raise BudgetExhaustedError(f"evaluation budget {max_points} exhausted")
        d_num *= 2
        d_den *= 2
