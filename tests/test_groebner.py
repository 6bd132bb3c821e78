"""Left/right division with certificates and Buchberger completion."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _helpers import fractions, operators, qqt_elements
from _oracles import (
    autoreduce_to_fixpoint, certificate_identity_holds, ideal_membership, shadow_divides)
from weylred.arith import QQ_T
from weylred.cli import main, parse_document
from weylred.extension import ParametricPresentation, build_extension
from weylred.kregular import regular_presentation
from weylred import groebner
from weylred.groebner import (
    ReducedBasis,
    _autoreduce,
    buchberger,
    lrem,
    rrem,
)
from weylred.weyl import (
    Algebra,
    block_order,
    grevlex,
    leading_data,
    leading_monomial,
    mul,
    op_scale,
    sorted_terms,
)

A1 = Algebra(1)
X, D = A1.xvar(0), A1.dvar(0)
O1 = grevlex(1)


# ---------------------------------------------------------------------------
# goldens


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _basis_digest(basis, order):
    """SHA-256 of every element's terms, in basis order, each sorted by order,
    its monomials decoded (they print as Monomial(alpha=..., beta=..., comp=...))."""
    return _sha256(repr([tuple((g.algebra.decode(m), c)
                               for m, c in sorted_terms(g, order)) for g in basis]))


# `weylred gb` output of the two-generator document under every order
GB_PRINTED = {
    "grevlex": "868a627f17834b5e9d696a465bc8eabd5ded615b7957c99dee4fcd3d619c5574",
    "block": "0746c2d14d4d46b1e07579e72106d75efb3b55c3d3815cfd30f17d2bd2e6e291",
    "lex": "a6d5c3ca3dea1e8d4dcccad807f69c4b18d9bbbc721d19670f063641c0937180",
    "lex:1,0,3,2": "f6c8b8631257922c6d98ad3300655713c7e6dce7384d64816274ca0e695632f8",
    "dtelim": "f79bd6e988cabee03a60fa345ef329ffd2bc77a82e7ec8b856e5e832ccc0fc1a",
    "weightlex:1,2,1,1": "9193eca84c5664411f720c237572f740834d4b2a19f1e2290440f176132eb4b8",
}


@pytest.mark.parametrize("order", sorted(GB_PRINTED))
def test_printed_basis_golden(tmp_path, order):
    src, out = tmp_path / "two.op", tmp_path / "two.gb"
    src.write_text(f"vars x y\norder {order}\n---\ndx - x^2 + y\ndy - y^2 + x\n")
    assert main(["gb", str(src), "-o", str(out)]) == 0
    assert _sha256(out.read_text()) == GB_PRINTED[order]


# reduced flat basis of exp(q), q = (x^3 + c y^3)/3 - x(t + a z) - y(t + b z),
# after d_t is flattened away, keyed by (a, b, c)
FLAT_BASIS = {
    (1, 2, 3): "2b6e705bb891d06017bf83f0fcc54de6a5a2079dbce5f0a1f7a7bc9120c60dac",
    (2, 2, 1): "911ffa74d90c745ff5083c438e70d544e46d5519a88d0057b08f5d7480559ad8",
    (9, 4, 4): "50fdc037b348303f5815b06cf1f18922f410039c1564e3c4bc1556b67626d01f",
}


@pytest.mark.parametrize("abc", sorted(FLAT_BASIS))
def test_flat_basis_golden(abc):
    a, b, c = abc
    doc = parse_document(
        "vars t x y z\n---\n"
        f"dx - x^2 + t + {a}*z\ndy - {c}*y^2 + t + {b}*z\n"
        f"dz + {a}*x + {b}*y\ndt + x + y\n")
    ext = build_extension(ParametricPresentation(doc.algebra, tuple(doc.generators),
                                                 doc.order))
    order = grevlex(ext.algebra.n)
    assert _basis_digest(ext.s_generators, order) == FLAT_BASIS[abc]
    recomputed = buchberger(tuple(ext.s_generators), order)
    assert _basis_digest(recomputed, order) == FLAT_BASIS[abc]


def test_regular_basis_golden(k3):
    ctx = k3.pres.ctx
    assert _basis_digest(ctx.basis, ctx.order) == (
        "36bdb46380054db47779732a0c1f9eb0f25710eee8259a6076a6fe21c689ce35")



def _flat_airy_extension():
    doc = parse_document("vars t x y z\n---\ndx - x^2 + t + z\ndy - 3*y^2 + t + 2*z\n"
                         "dz + x + 2*y\ndt + x + y\n")
    return build_extension(ParametricPresentation(doc.algebra, tuple(doc.generators),
                                                  doc.order))


@pytest.mark.parametrize("build, reductions", [
    (lambda: regular_presentation(4), 4),
    (lambda: regular_presentation(5), 11),
    (_flat_airy_extension, 3),
], ids=["k=4", "k=5", "airy"])
def test_chain_criterion_skips_s_pairs(build, reductions, monkeypatch):
    """Buchberger's chain criterion skips the pair (i, j) when some lm(g_k)
    divides their lcm and neither pair of k with i or j is pending: the
    S-pair reductions (lrem calls before _autoreduce) go from 5 to 4 for
    regular_presentation(4) and from 15 to 11 at k = 5, and stay at 3 for
    an airy-family extension.  The reduced bases are the goldens'."""
    calls, reduced = [], []

    def counted_lrem(*args, **kwargs):
        calls.append(args[0])
        return lrem(*args, **kwargs)

    def counted_autoreduce(G, order):
        reduced.append(len(calls))
        return _autoreduce(G, order)

    monkeypatch.setattr(groebner, "lrem", counted_lrem)
    monkeypatch.setattr(groebner, "_autoreduce", counted_autoreduce)
    build()
    assert reduced == [reductions]


def test_autoreduce_skips_reduced_tails(monkeypatch):
    """_autoreduce divides an element by the others only when another kept
    leading monomial divides one of its terms.  On an airy-family extension
    the tail reductions go from 5 (one per element, 4 of them finding
    nothing) to 1, and the basis equals the fixpoint of dividing every
    element by the others."""
    tails, bases = [], []

    def counted_autoreduce(G, order):
        calls = []

        def counted_lrem(*args, **kwargs):
            calls.append(args[0])
            return lrem(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(groebner, "lrem", counted_lrem)
            got = _autoreduce(G, order)
        tails.append(len(calls))
        bases.append((got, autoreduce_to_fixpoint(G, order)))
        return got

    monkeypatch.setattr(groebner, "_autoreduce", counted_autoreduce)
    _flat_airy_extension()
    assert tails == [1]
    (got, want), = bases
    assert len(got) == 5 and got == want
    assert [list(g.terms) for g in got] == [list(g.terms) for g in want]


def test_lrem_golden():
    G = buchberger((D - X,), O1)
    assert G == (X - D,)  # monic under grevlex, where x1 > d1
    rem, cert = lrem(mul(X, X), G, O1)
    assert rem == mul(D, D) - A1.one()  # x^2 = (x+d)(x-d) + d^2 - 1
    assert cert.verifies(mul(X, X) - rem)
    assert cert.quotients[0] == X + D


def test_buchberger_collapses_to_unit():
    # [d, x] = 1, so the ideal generated by both is everything
    assert buchberger((X, D), O1) == (A1.one(),)


def test_rrem_golden():
    rem, cert = rrem(mul(X, D))
    assert rem == -A1.one()  # x d = d . x - 1
    assert cert.dw[0] == X
    assert cert.verifies(mul(X, D) - rem)
    rem2, _ = rrem(mul(D, X))  # = x d + 1
    assert rem2.is_zero()


def test_module_rank_basis():
    R = Algebra(1, 2)
    g1 = R.operator({R.monomial((0,), (1,), 1): Fraction(1)})  # d e1
    g2 = R.operator(
        {R.monomial((0,), (1,), 2): Fraction(1), R.monomial((0,), (0,), 1): Fraction(-1)}
    )  # d e2 - e1
    G = buchberger((g1, g2), O1)
    assert set(G) == {g1, g2 + g1 - g1}  # already reduced (up to order)
    a = R.operator({R.monomial((1,), (1,), 1): Fraction(1)})  # x d e1
    assert ideal_membership(a, G, O1)
    assert not ideal_membership(R.operator({R.monomial((1,), (0,), 1): Fraction(1)}), G, O1)


# ---------------------------------------------------------------------------
# invariants on the Airy basis (3 vars over Q(t))


def test_groebner_fixed_point(airy):
    """The full algorithm, run on a reduced basis, returns it."""
    assert buchberger(tuple(airy.gb), airy.order) == airy.gb


def test_reduced_basis_is_its_own_answer(airy):
    """A ReducedBasis comes back as the same object under its own order; under
    another order, or as a plain tuple, it is computed again."""
    gb = buchberger(airy.generators, grevlex(3))
    assert isinstance(gb, ReducedBasis) and gb.order == grevlex(3)
    assert buchberger(gb, grevlex(3)) is gb
    again = buchberger(tuple(gb), grevlex(3))
    assert again is not gb and again == gb and again.order == grevlex(3)
    in_block = buchberger(gb, block_order(3))
    assert in_block.order == block_order(3) and in_block == airy.gb != gb


_AUTOREDUCE_CASES = {
    "A1": (A1, O1),
    "A2": (Algebra(2), grevlex(2)),
    "airy": (Algebra(3, field=QQ_T), block_order(3)),
}


@pytest.mark.parametrize("case", sorted(_AUTOREDUCE_CASES))
@given(data=st.data())
def test_autoreduce_one_pass_is_the_fixpoint(case, data):
    """One pass of tail reduction gives what passes to a fixed point give,
    terms order included: a monic basis, ascending by leading monomial,
    with no term divisible by another element's leading monomial."""
    algebra, order = _AUTOREDUCE_CASES[case]
    F = algebra.field
    coeffs = qqt_elements(max_deg=1) if F is QQ_T else None
    gens = data.draw(st.lists(
        operators(algebra, coeffs=coeffs, max_terms=3, max_exp=2, min_terms=1),
        min_size=1, max_size=4))
    G = [op_scale(g, F.inv(leading_data(g, order)[1])) for g in gens]
    got = _autoreduce(G, order)
    want = autoreduce_to_fixpoint(G, order)
    assert got == want
    assert [list(g.terms) for g in got] == [list(g.terms) for g in want]
    leads = [leading_data(g, order) for g in got]
    assert all(lc == F.one for _, lc in leads)
    keys = [order.key(lm) for lm, _ in leads]
    assert keys == sorted(keys)
    decode = got[0].algebra.decode
    for i, g in enumerate(got):
        for m in g.terms:
            assert not any(shadow_divides(decode(lm), decode(m))
                           for j, (lm, _) in enumerate(leads) if j != i)


def test_random_combinations_reduce_to_zero(airy):
    """sum q_i g_i always lies in the submodule: 100 seeded trials."""
    rng = random.Random(20240817)
    A = airy.algebra
    monos = [
        A.monomial(alpha, beta)
        for alpha in _exponents(3, 3)
        for beta in _exponents(3, 3)
        if sum(alpha) + sum(beta) <= 3
    ]
    for _ in range(100):
        combo = A.zero()
        for g in airy.gb:
            terms = {}
            for m in rng.sample(monos, rng.randint(0, 2)):
                terms[m] = QQ_T.from_int(rng.randint(-4, 4))
            combo = combo + mul(A.operator(terms), g)
        rem, _ = lrem(combo, airy.gb, airy.order, certificate=False)
        assert rem.is_zero()


def _exponents(n, total):
    if n == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _exponents(n - 1, total - head):
            yield (head,) + tail


@given(operators(Algebra(3, field=QQ_T), coeffs=qqt_elements(max_deg=1),
                 max_terms=3, max_exp=2))
def test_lrem_certificate_identity(airy, a):
    rem, cert = lrem(a, airy.gb, airy.order)
    assert certificate_identity_holds(a - rem, cert)
    assert rem == lrem(a, airy.gb, airy.order, certificate=False)[0]


@given(operators(Algebra(3, field=QQ_T), coeffs=qqt_elements(max_deg=1),
                 max_terms=2, max_exp=2),
       st.integers(0, 2), st.sampled_from([0, 1, 2, 3, 4]))
def test_lrem_unchanged_by_submodule_shifts(airy, a, exp, idx):
    """The normal form only depends on the class mod the submodule."""
    A = airy.algebra
    q = A.operator({A.monomial((exp, 0, 0), (0, exp, 0)): QQ_T.from_int(3)})
    shifted = a + mul(q, airy.gb[idx % len(airy.gb)])
    r1, _ = lrem(a, airy.gb, airy.order, certificate=False)
    r2, _ = lrem(shifted, airy.gb, airy.order, certificate=False)
    assert r1 == r2


# ---------------------------------------------------------------------------
# right reduction properties


@given(operators(A1, max_terms=4, max_exp=3))
def test_rrem_strips_derivatives(P):
    rem, cert = rrem(P)
    assert all(not any(A1.decode(m).beta) for m in rem.terms)
    assert cert.verifies(P - rem)
    again, _ = rrem(rem)
    assert again == rem  # idempotent


@given(operators(A1, max_terms=3, max_exp=3), operators(A1, max_terms=3, max_exp=3),
       fractions(), fractions())
def test_rrem_linear(P, Q, a, b):
    lhs, _ = rrem(op_scale(P, a) + op_scale(Q, b))
    rp, _ = rrem(P)
    rq, _ = rrem(Q)
    assert lhs == op_scale(rp, a) + op_scale(rq, b)


def test_merge_certificates(airy):
    A = airy.algebra
    a = mul(A.xvar(1), A.xvar(1)) + A.dvar(0)
    r1, c1 = lrem(a, airy.gb, airy.order)
    r2, c2 = rrem(r1)
    assert (c1 + c2).verifies(a - r2)


# ---------------------------------------------------------------------------
# leading monomials of GB elements are pairwise non-divisible (reduced basis)


def test_reduced_basis_leading_monomials(airy, k3):
    for name, (G, order) in {
        "airy": (airy.gb, airy.order),
        "k3": (k3.pres.ctx.basis, k3.pres.ctx.order),
    }.items():
        lms = [g.algebra.decode(leading_monomial(g, order)) for g in G]
        for i, m1 in enumerate(lms):
            for j, m2 in enumerate(lms):
                assert i == j or not shadow_divides(m1, m2), name
