"""Flattening parametric ideals into free modules with a d_t action."""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _helpers import T, operators, qqt_elements
from _oracles import division_respects_dt_degree, first_unstable_element, flatten_member
from test_groebner import FLAT_BASIS
from weylred.arith import QQ_T
from weylred.cli import parse_document
from weylred.extension import (
    ParametricPresentation,
    build_extension,
    dt_degree,
    embedded_unit,
)
from weylred.groebner import ReducedBasis, buchberger, lrem
from weylred.reduction import ReductionContext
from weylred.telescoping import DerivedPresentation, apply_linear, telescope_direct
from weylred.weyl import Algebra, block_order, dtelim_order, grevlex, mul

TWO = QQ_T.from_int(2)
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def quad():
    """J = <d_t^2 - t, d_1> in the t-extended algebra with one x slot."""
    A = Algebra(2, 1, QQ_T, dt=True)
    order = dtelim_order(2)
    g1 = mul(A.dvar(0), A.dvar(0)) - A.scalar(T)
    pres = ParametricPresentation(A, (g1, A.dvar(1)), order)
    return pres, buchberger(pres.generators, order)


# ---------------------------------------------------------------------------
# presentation validation and degree probes


def test_presentation_validation():
    A = Algebra(2, 1, QQ_T, dt=True)
    with pytest.raises(ValueError):
        ParametricPresentation(A, (A.dvar(0),), grevlex(2))
    with pytest.raises(ValueError):
        ParametricPresentation(Algebra(2, field=QQ_T), (Algebra(2, field=QQ_T).dvar(0),),
                               dtelim_order(2))
    with pytest.raises(ValueError):  # a d_t-eliminating order of the wrong arity
        ParametricPresentation(A, (A.dvar(0) * A.dvar(0) - A.scalar(T), A.dvar(1)),
                               dtelim_order(3))


def test_dt_degree(quad):
    pres, gb = quad
    A = pres.algebra
    dt = A.dvar(0)
    assert dt_degree(mul(dt, dt) - A.scalar(T)) == 2
    assert dt_degree(A.dvar(1)) == 0
    assert dt_degree(A.zero()) == 0
    assert lrem(mul(dt, dt), gb, pres.order)[0] == A.scalar(T)  # d_t degree 0
    assert lrem(dt, gb, pres.order)[0] == dt  # irreducible: d_t degree 1
    # so level 0 fails (d_t e_1 has degree 1) and level 1 holds
    assert build_extension(pres).ell == 1


def _cubic_exponential_presentation():
    """exp(q), q = (x^3 + y^3)/3 - x(t + 2z) - y(t + z): ell = 0, r = 1."""
    B = Algebra(4, 1, QQ_T, dt=True)  # slots: d_t, x, y, z
    x, y, z = B.xvar(1), B.xvar(2), B.xvar(3)
    dt, dx, dy, dz = B.dvar(0), B.dvar(1), B.dvar(2), B.dvar(3)
    tw = B.scalar(T)
    two = B.scalar(TWO)
    gens = (
        dx - mul(x, x) + tw + mul(two, z),
        dy - mul(y, y) + tw + z,
        dz + mul(two, x) + y,
        dt + x + y,
    )
    return ParametricPresentation(B, gens, dtelim_order(4))


def test_ell_zero_relations_are_the_flat_reduced_basis(quad, monkeypatch):
    """Elimination: at ell = 0 the d_t-free elements of the dtelim basis are
    the reduced grevlex basis of the flat relations, element by element and
    terms order included; at ell = 1 the relations stay a plain tuple."""
    monkeypatch.syspath_prepend(str(ROOT / "weylbench"))
    import worker

    C = Algebra(1, 1, QQ_T, dt=True)  # d_t only: no relation survives
    presentations = [_cubic_exponential_presentation(),
                     ParametricPresentation(C, (C.dvar(0),), dtelim_order(1))]
    for abc in sorted(FLAT_BASIS) + worker.airy_triples(1)[:40]:
        doc = parse_document(worker.airy_document(*abc))
        presentations.append(
            ParametricPresentation(doc.algebra, tuple(doc.generators), doc.order))
    for pres in presentations:
        ext = build_extension(pres)
        assert ext.ell == 0
        order = grevlex(ext.algebra.n)
        handed = ext.s_generators
        assert isinstance(handed, ReducedBasis) and handed.order == order
        recomputed = buchberger(tuple(handed), order)
        assert list(handed) == list(recomputed)
        assert [list(g.terms) for g in handed] == [list(g.terms) for g in recomputed]
    assert type(build_extension(quad[0]).s_generators) is tuple


def test_build_extension_level_ceiling():
    A = Algebra(2, 1, QQ_T, dt=True)
    pres = ParametricPresentation(A, (A.dvar(1),), dtelim_order(2))  # no d_t relation
    with pytest.raises(ValueError, match="did not stabilize below level 20"):
        build_extension(pres)


@given(operators(Algebra(2, 1, QQ_T, dt=True), coeffs=qqt_elements(max_deg=1),
                 min_terms=1, max_terms=3, max_exp=3))
def test_normal_form_never_raises_dt_degree(quad, a):
    pres, gb = quad
    assert dt_degree(lrem(a, gb, pres.order, certificate=False)[0]) <= dt_degree(a)
    assert division_respects_dt_degree(a, gb, pres.order)


@given(operators(Algebra(2, 1, QQ_T, dt=True), coeffs=qqt_elements(max_deg=1),
                 max_terms=2, max_exp=2),
       operators(Algebra(2, 1, QQ_T, dt=True), coeffs=qqt_elements(max_deg=1),
                 max_terms=2, max_exp=1),
       st.integers(0, 1))
def test_flatten_member_constant_on_cosets(quad, a, q, idx):
    """Flattening depends only on the class of the operator mod J."""
    pres, gb = quad
    ext = build_extension(pres)
    shifted = a + mul(q, pres.generators[idx])
    assert flatten_member(ext, shifted) == flatten_member(ext, a)


# ---------------------------------------------------------------------------
# the quadratic case end to end


def test_quadratic_extension(quad):
    pres, gb = quad
    assert len(gb) == 2
    ext = build_extension(pres)
    assert ext.ell == 1 and ext.r == 2
    assert ext.algebra.n == 1 and ext.algebra.r == 2

    # S = <d1 e1, d1 e2>
    assert len(ext.s_generators) == 2
    lms = sorted(
        ext.algebra.decode(m) for g in ext.s_generators for m in g.terms
    )
    assert lms == [((0,), (1,), 1), ((0,), (1,), 2)]

    # L = [[0, 1], [t, 0]]
    L = ext.l_matrix
    assert L[0][0].is_zero() and L[1][1].is_zero()
    assert L[0][1] == ext.algebra.with_rank(1).one()
    assert L[1][0] == ext.algebra.with_rank(1).scalar(T)


def test_quadratic_dt_action_and_flatten(quad):
    pres, _ = quad
    ext = build_extension(pres)
    e1, e2 = embedded_unit(ext, 0, 1), embedded_unit(ext, 1, 1)
    assert apply_linear(ext.l_matrix, e1) == e2
    out = apply_linear(ext.l_matrix, e2)
    decode = ext.algebra.decode
    assert list(out.terms.values()) == [T] and decode(next(iter(out.terms))).comp == 1

    dt = pres.algebra.dvar(0)
    assert flatten_member(ext, dt) == e2
    fm2 = flatten_member(ext, mul(dt, dt))
    assert list(fm2.terms.values()) == [T] and decode(next(iter(fm2.terms))).comp == 1


def test_quadratic_round_trip(quad):
    pres, _ = quad
    ext = build_extension(pres)
    order = grevlex(1)
    ctx = ReductionContext(ext.algebra, order, buchberger(ext.s_generators, order))
    dp = DerivedPresentation(ctx, ext.l_matrix, embedded_unit(ext))
    tel = telescope_direct(dp)
    assert tel.coefficients == ((0, -1), (), (1,))  # d_t^2 - t


def test_unstable_rank_two_module_rejected(quad):
    """r > 1 keeps the check on D(g) itself: with L[0][0] = x_1,
    D(d_1 e_1) = (x_1 d_1 + 1) e_1 leaves S = <d_1 e_1, d_1 e_2>."""
    pres, _ = quad
    ext = build_extension(pres)
    order = grevlex(1)
    ctx = ReductionContext(ext.algebra, order, buchberger(ext.s_generators, order))
    (_, l01), l1 = ext.l_matrix
    bad_L = ((ext.algebra.with_rank(1).xvar(0), l01), l1)
    assert first_unstable_element(ctx, ext.l_matrix) is None
    assert first_unstable_element(ctx, bad_L) is not None
    with pytest.raises(ValueError, match="module is not stable under the derivation"):
        DerivedPresentation(ctx, bad_L, embedded_unit(ext))


# ---------------------------------------------------------------------------
# four-variable parametric input collapsing to the rank-1 cubic system


def test_parametric_cubic_exponential():
    pres = _cubic_exponential_presentation()
    ext = build_extension(pres)
    assert ext.ell == 0 and ext.r == 1
    assert ext.algebra.n == 3 and ext.algebra.r == 1

    # the flattened relations regenerate the known d_t-free annihilator
    order = block_order(3)
    gbS = buchberger(ext.s_generators, order)
    W = ext.algebra
    wx, wy, wz = W.xvar(0), W.xvar(1), W.xvar(2)
    ref = buchberger(
        (
            W.dvar(0) - mul(wx, wx) + W.scalar(T) + mul(W.scalar(TWO), wz),
            W.dvar(1) - mul(wy, wy) + W.scalar(T) + wz,
            W.dvar(2) + mul(W.scalar(TWO), wx) + wy,
        ),
        order,
    )
    assert gbS == ref

    # the induced d_t action is congruent to (d_z - y)/2 mod the relations
    lam = ext.l_matrix[0][0]
    half = QQ_T.div(QQ_T.one, TWO)
    target = W.operator(dict(lam.terms)) - (
        W.scalar(half) * W.dvar(2) - W.scalar(half) * wy
    )
    diff, _ = lrem(target, gbS, order, certificate=False)
    assert diff.is_zero()

    # and the telescoper round trip lands on 7 d_t^2 - t
    ctx = ReductionContext(W, order, gbS)
    dp = DerivedPresentation(ctx, ext.l_matrix, embedded_unit(ext))
    assert telescope_direct(dp).coefficients == ((0, -1), (), (7,))


# ---------------------------------------------------------------------------
# the degenerate no-x case


def test_trivial_parametric_system():
    C = Algebra(1, 1, QQ_T, dt=True)
    pres = ParametricPresentation(C, (C.dvar(0) - C.one(),), dtelim_order(1))
    ext = build_extension(pres)
    assert ext.ell == 0 and ext.r == 1
    assert ext.s_generators == ()
    assert ext.algebra.n == 0
    entry = ext.l_matrix[0][0]
    assert entry == ext.algebra.with_rank(1).one()
