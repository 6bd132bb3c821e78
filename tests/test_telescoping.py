"""Confinement, derivative sequences, and both telescoping drivers."""

import dataclasses
import hashlib
import random
import re
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    T, discarded_prime, operators, outvoted_tracer_vote, qqt_elements)
from _oracles import first_unstable_element
from weylred import telescoping
from weylred import arith
from weylred.arith import (
    QQ, QQ_T, InconsistencyError, ModularImage, PrimeField, RationalFunctions,
    UnluckyEvaluationError)
from weylred.cli import _module_presentation, parse_document, telescoper_document
from weylred.groebner import DivisionCertificate
from weylred.reduction import compute_eta_basis, reduce_eta
from weylred.telescoping import (
    DerivedPresentation,
    ModularConfig,
    Telescoper,
    _reduced_images,
    apply_linear,
    confine,
    derivative_sequence_step,
    relation_search,
    telescope_direct,
    telescope_modular,
    telescoper_from_field_relation,
)
from weylred.weyl import (
    Algebra, Monomial, WeylOperator, _mono_str, evaluate_and_reduce, leading_monomial)

HALF = QQ_T.div(QQ_T.one, QQ_T.from_int(2))


# ---------------------------------------------------------------------------
# confinement goldens


def test_confine_golden(airy):
    conf = confine(airy.ctx, airy.pres.L, airy.pres.f, rho=1)
    assert conf.eta == Monomial((2, 0, 0), (0, 0, 0), 1)
    assert conf.B == (
        Monomial((0, 0, 0), (0, 0, 0), 1),
        Monomial((0, 1, 0), (0, 0, 0), 1),
    )
    assert conf.tracer == frozenset()
    g0, _ = _reduced_images(conf, airy.ctx, airy.pres.L, airy.pres.f)
    assert g0 == (QQ_T.one, QQ_T.zero)


def test_derivative_sequence_golden(airy):
    conf = confine(airy.ctx, airy.pres.L, airy.pres.f, rho=1)
    g0, matrix = _reduced_images(conf, airy.ctx, airy.pres.L, airy.pres.f)
    g1 = derivative_sequence_step(QQ_T, g0, matrix)
    g2 = derivative_sequence_step(QQ_T, g1, matrix)
    assert g1 == (QQ_T.zero, QQ_T.neg(HALF))
    assert g2 == (QQ_T.div(T, QQ_T.from_int(7)), QQ_T.zero)
    with pytest.raises(ValueError):
        derivative_sequence_step(QQ_T, (QQ_T.one,), matrix)  # wrong length


def assert_effective(conf, ctx, L, f, rho):
    """Independent recomputation: the reduced derivative map really lands in
    B, and the (g0, matrix) that modular points replay agree with it."""
    A = ctx.algebra
    basis_e = compute_eta_basis(ctx, conf.eta, certificate=False)
    g0_vec, matrix = _reduced_images(conf, ctx, L, f)
    Bset = set(conf.B)
    index = {m: i for i, m in enumerate(conf.B)}
    margin = conf.eta.degree() - rho
    for i, m in enumerate(conf.B):
        assert m.degree() <= margin
        img = reduce_eta(apply_linear(L, WeylOperator(A, {m: A.field.one})), ctx, basis_e)
        assert set(img.support()) <= Bset
        vec = [A.field.zero] * len(conf.B)
        for mm, c in img.terms.items():
            vec[index[mm]] = c
        assert tuple(vec) == matrix[i]
    g0 = reduce_eta(f, ctx, basis_e)
    assert set(g0.support()) <= Bset
    vec = [A.field.zero] * len(conf.B)
    for mm, c in g0.terms.items():
        vec[index[mm]] = c
    assert tuple(vec) == g0_vec


def test_confinement_effective_on_presentations(airy, k2, k3):
    for pres in (airy.pres, k2.pres, k3.pres):
        conf = confine(pres.ctx, pres.L, pres.f, rho=1)
        assert_effective(conf, pres.ctx, pres.L, pres.f, rho=1)


@given(operators(Algebra(3, field=QQ_T), coeffs=qqt_elements(max_deg=1),
                 max_terms=2, max_exp=2))
@settings(max_examples=25)
def test_confinement_effective_random_f(airy, f):
    conf = confine(airy.ctx, airy.pres.L, f, rho=1)
    assert_effective(conf, airy.ctx, airy.pres.L, f, rho=1)


def test_matrix_rows_align_with_B(airy):
    """Row i of the matrix is [L(B[i])]_eta: L(1) = (d_z - y)/2 reduces to
    -y/2 and L(y) to -2t/7."""
    conf = confine(airy.ctx, airy.pres.L, airy.pres.f, rho=1)
    _, matrix = _reduced_images(conf, airy.ctx, airy.pres.L, airy.pres.f)
    assert conf.B[1] == Monomial((0, 1, 0), (0, 0, 0), 1)
    assert matrix == ((QQ_T.zero, QQ_T.neg(HALF)),
                      (QQ_T.div(QQ_T.mul(QQ_T.from_int(-2), T), QQ_T.from_int(7)),
                       QQ_T.zero))


# ---------------------------------------------------------------------------
# relation search


def test_relation_search_dependent_pair():
    v = (QQ.one, QQ.from_int(2))
    rel = relation_search(QQ, [v, tuple(QQ.mul(QQ.from_int(2), c) for c in v)])
    assert rel == (QQ.from_int(-2), QQ.one)
    # a generator is consumed only up to the dependent vector
    drawn = []

    def vectors():
        for k in range(1, 5):
            drawn.append(k)
            yield tuple(QQ.mul(QQ.from_int(k), c) for c in v)

    assert relation_search(QQ, vectors()) == (QQ.from_int(-2), QQ.one)
    assert drawn == [1, 2]


def test_relation_search_independent():
    assert relation_search(QQ, [(QQ.one, QQ.zero), (QQ.zero, QQ.one)]) is None
    assert relation_search(QQ, []) is None


def test_relation_search_rejects_ragged_vectors():
    # without the length check the ragged middle vector gives the false
    # relation (5, 1) mod 7
    with pytest.raises(ValueError):
        relation_search(PrimeField(7), [(1, 0), (2, 0, 5), (0, 1, 3)])


def test_relation_search_rational_functions():
    rel = relation_search(
        QQ_T, [(QQ_T.one, T), (T, QQ_T.mul(T, T)), (QQ_T.zero, QQ_T.one)]
    )
    assert rel is not None and len(rel) == 2
    assert QQ_T.eq(rel[0], QQ_T.neg(T)) and QQ_T.eq(rel[1], QQ_T.one)


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=4, max_size=5))
def test_relation_search_is_a_kernel_vector(rows):
    vecs = [tuple(Fraction(c) for c in row) for row in rows]
    rel = relation_search(QQ, vecs)
    if rel is None:
        return
    n = len(rel)
    assert rel[-1] == QQ.one  # so the telescoper's leading coefficient is nonzero
    for j in range(3):
        total = QQ.zero
        for i in range(n):
            total = QQ.add(total, QQ.mul(rel[i], vecs[i][j]))
        assert QQ.is_zero(total)
    # minimality: the strict prefix is independent
    assert relation_search(QQ, vecs[: n - 1]) is None


# ---------------------------------------------------------------------------
# telescoper container and normalization


def test_telescoper_validation():
    tel = Telescoper(((0, -1), (), (7,)))
    assert tel.order == 2 and tel.degrees == (1, -1, 0)
    with pytest.raises(ValueError):
        Telescoper(((1,), ()))  # zero leading coefficient
    with pytest.raises(ValueError):
        Telescoper(())


def test_normalize_rational_relation():
    rel = (QQ_T.div(T, QQ_T.from_int(2)), QQ_T.from_poly((Fraction(1, 3),)))
    tel = telescoper_from_field_relation(QQ_T, rel)
    assert tel.coefficients == ((0, 3), (2,)) and tel.modulus is None
    # sign fix: the leading coefficient of c_N ends positive
    rel2 = (T, QQ_T.from_int(-1))
    assert telescoper_from_field_relation(QQ_T, rel2).coefficients == ((0, -1), (1,))


def test_normalize_modp_relation():
    F7 = RationalFunctions(PrimeField(7))
    rel = (F7.from_poly((0, 3)), F7.from_poly((5,)))
    tel = telescoper_from_field_relation(F7, rel)
    assert tel.modulus == 7
    assert tel.coefficients == ((0, 2), (1,))  # scaled by 5^{-1} = 3


# ---------------------------------------------------------------------------
# the direct driver


def test_telescope_direct_golden(airy):
    tel = telescope_direct(airy.pres, rho=1)
    assert tel.coefficients == ((0, -1), (), (7,))
    assert tel.order == 2 and tel.degrees == (1, -1, 0)


def test_trivial_integrands(airy):
    A = airy.algebra
    pres0 = DerivedPresentation(airy.ctx, airy.pres.L, A.zero())
    assert confine(pres0.ctx, pres0.L, pres0.f, rho=1).B == ()
    assert telescope_direct(pres0, rho=1).coefficients == ((1,),)
    presS = DerivedPresentation(airy.ctx, airy.pres.L, airy.gb[0])
    assert telescope_direct(presS, rho=1).coefficients == ((1,),)


def test_unstable_module_rejected(airy):
    bad_L = ((airy.algebra.with_rank(1).xvar(0),),)
    with pytest.raises(ValueError, match=r"basis element with lead x2\^1\*d3\^1 fails"):
        DerivedPresentation(airy.ctx, bad_L, airy.pres.f)


@pytest.mark.parametrize("problem", ["airy", "k2", "k3", "a3b1c2"])
def test_stability_check_matches_unreduced_derivation(problem, request):
    """The r = 1 check reduces g' + [g, Lambda] instead of D(g); it rejects
    exactly when some D(g) lies outside S, naming the same element, for
    Lambda, Lambda + t (still stable) and Lambda plus each variable."""
    if problem == "a3b1c2":
        pres = _module_presentation(parse_document(airy_family_document(3, 1, 2)))
    else:
        pres = request.getfixturevalue(problem).pres
    ctx, lam = pres.ctx, pres.L[0][0]
    A = lam.algebra
    shifts = [A.scalar(T)] + [v(i) for i in range(A.n) for v in (A.xvar, A.dvar)]
    verdicts = []
    for new in [lam] + [lam + s for s in shifts]:
        bad = first_unstable_element(ctx, ((new,),))
        verdicts.append(bad is None)
        if bad is None:
            DerivedPresentation(ctx, ((new,),), pres.f)
            continue
        lead = _mono_str(leading_monomial(bad, ctx.order))
        with pytest.raises(ValueError, match="module is not stable under the "
                           rf"derivation: basis element with lead {re.escape(lead)} fails$"):
            DerivedPresentation(ctx, ((new,),), pres.f)
    assert verdicts[:2] == [True, True] and not all(verdicts)


def test_certificate_rejects_perturbed_telescoper(k3):
    telescope_direct(k3.pres)  # the unperturbed relation passes
    normalize = telescoping.telescoper_from_field_relation

    def perturbed(F, rel):
        tel = normalize(F, rel)
        c0 = tel.coefficients[0]
        return Telescoper(((c0[0] + 1,) + c0[1:],) + tel.coefficients[1:])

    with mock.patch.object(telescoping, "telescoper_from_field_relation", perturbed):
        with pytest.raises(InconsistencyError, match="telescoper certificate failed"):
            telescope_direct(k3.pres)


def test_certificate_rejects_corrupted_relation_search(k3):
    """A relation search that misreads the chain is caught on the chain
    vectors that it consumed, as recorded: this one drops the last
    coordinate of every g_i, so it stops at an earlier relation that the
    full vectors do not satisfy."""
    search = telescoping.relation_search

    def truncated(F, vectors):
        return search(F, (vec[:-1] for vec in vectors))

    with mock.patch.object(telescoping, "relation_search", truncated):
        with pytest.raises(InconsistencyError, match="telescoper certificate failed"):
            telescope_direct(k3.pres)


def test_direct_support_escape_is_a_fault(k3):
    """Over Q(t) no point is unlucky: a chain element outside B is an error."""
    real = telescoping.confine

    def short_B(*args, **kwargs):
        conf = real(*args, **kwargs)
        return dataclasses.replace(conf, B=conf.B[:1])

    with mock.patch.object(telescoping, "confine", short_B):
        with pytest.raises(InconsistencyError, match="support escapes the confinement"):
            telescope_direct(k3.pres)


def test_certificate_checks_every_witness(k3):
    with mock.patch.object(DivisionCertificate, "verifies", return_value=False):
        with pytest.raises(InconsistencyError, match="reduced-form certificate failed"):
            telescope_direct(k3.pres)


@pytest.mark.parametrize("name", ["airy", "k3"])
def test_direct_witnesses_f_then_each_image_of_B(airy, k3, name):
    """Direct mode witnesses the reductions that build (g0, matrix), no
    more: [f]_eta, then [L(m)]_eta for each m in B, in the order of B.  Each
    certified reduce_eta eliminates a stored reduced form [a], and the
    witness checked after it is that of a - [a]_eta, so the witnessed a is
    the checked difference plus the eliminated form."""
    pres = {"airy": airy, "k3": k3}[name].pres
    A = pres.ctx.algebra
    conf = confine(pres.ctx, pres.L, pres.f)
    reduce, verifies = telescoping.reduce_eta, DivisionCertificate.verifies
    eliminated, checked = [], []

    def reduce_spy(a, *args, **kwargs):
        out = reduce(a, *args, **kwargs)
        if kwargs.get("certificate"):
            eliminated.append(out[0])
        return out

    def verifies_spy(cert, x):
        checked.append(x)
        return verifies(cert, x)

    with mock.patch.object(telescoping, "reduce_eta", reduce_spy), \
            mock.patch.object(DivisionCertificate, "verifies", verifies_spy):
        telescope_direct(pres)
    witnessed = [x + red for x, red in zip(checked, eliminated, strict=True)]
    assert witnessed == [pres.f] + [
        apply_linear(pres.L, WeylOperator(A, {m: A.field.one})) for m in conf.B]


@pytest.mark.parametrize("name", ["airy", "k3"])
def test_each_operator_reduced_once_per_solve(airy, k3, name):
    """One telescope_direct computes the reduced form of f and of each L(m)
    that confine meets exactly once, over all of confine's rounds and the
    witnessed system after them; B is among the operators met."""
    pres = {"airy": airy, "k3": k3}[name].pres
    A = pres.ctx.algebra
    form, image = telescoping.reduced_form, telescoping.apply_linear
    reduced, images = [], []

    def form_spy(a, *args, **kwargs):
        reduced.append(a)
        return form(a, *args, **kwargs)

    def image_spy(L, a):
        images.append(image(L, a))
        return images[-1]

    with mock.patch.object(telescoping, "reduced_form", form_spy), \
            mock.patch.object(telescoping, "apply_linear", image_spy):
        telescope_direct(pres)
    assert reduced == [pres.f] + images
    assert len(set(reduced)) == len(reduced)
    conf = confine(pres.ctx, pres.L, pres.f)
    assert {image(pres.L, WeylOperator(A, {m: A.field.one})) for m in conf.B} \
        <= set(images)


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_rho_invariance_airy(airy, rho):
    assert telescope_direct(airy.pres, rho=rho).coefficients == ((0, -1), (), (7,))


@pytest.mark.parametrize("rho", [1, 2])
def test_rho_invariance_k_regular(k2, k3, rho):
    assert telescope_direct(k2.pres, rho=rho).coefficients == ((0, 0, 1), (-2, 2))
    tel3 = telescope_direct(k3.pres, rho=rho)
    assert (tel3.order, tel3.degrees) == (2, (11, 10, 7))


# ---------------------------------------------------------------------------
# the modular driver


def airy_family_document(a, b, c):
    """Integrand exp(q), q = (x^3 + c y^3)/3 - x(t + a z) - y(t + b z)."""
    return (
        "vars t x y z\n"
        "---\n"
        f"dx - x^2 + t + {a}*z\n"
        f"dy - {c}*y^2 + t + {b}*z\n"
        f"dz + {a}*x + {b}*y\n"
        "dt + x + y\n"
    )


# (2, 2, 3) has the order-1 telescoper d_t: with a = b the shift z -> z - t/a
# takes t out of q
@pytest.mark.parametrize("problem", ["airy", (2, 2, 3), (1, 3, 2)],
                         ids=["airy", "a2b2c3", "a1b3c2"])
def test_modular_matches_direct(airy, problem):
    pres = airy.pres if problem == "airy" else _module_presentation(
        parse_document(airy_family_document(*problem)))
    tel = telescope_direct(pres, rho=1)
    run = telescope_modular(pres, rho=1, config=ModularConfig(seed=7, workers=2))
    assert run.telescoper == tel
    assert run.primes_used and not run.primes_discarded


def test_modular_transcript_worker_independent(airy):
    cfg2 = ModularConfig(seed=7, workers=2)
    cfg1 = ModularConfig(seed=7, workers=1)
    run2 = telescope_modular(airy.pres, rho=1, config=cfg2)
    run1 = telescope_modular(airy.pres, rho=1, config=cfg1)
    assert run2.transcript == run1.transcript
    assert run2.telescoper == run1.telescoper


def test_modular_seed_independent_result(airy):
    a = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7, workers=2))
    b = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=8, workers=2))
    assert a.telescoper == b.telescoper
    assert a.transcript != b.transcript  # different primes were drawn


def test_modular_k3(k3):
    tel = telescope_direct(k3.pres, rho=1)
    run = telescope_modular(k3.pres, rho=1, config=ModularConfig(seed=0, workers=2))
    assert run.telescoper == tel


# SHA-256 of the telescoper document followed by the joined transcript.  Any
# change to the draw order of primes and points, to the relation search or to
# the normalisation of the relation shows up here.
GOLDEN_MODULAR = {
    "airy": (7, "6bbe9e752acae3f1cd7d89e413e5273a1f36bce641b1fc78ee584e6005108854"),
    "k3": (0, "e0bfbd0761088279d413fad206f51bd38f7ab5cfb9888ad3a1e9db5ed9dcf320"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MODULAR))
def test_modular_golden_transcript(airy, k3, name):
    pres = {"airy": airy.pres, "k3": k3.pres}[name]
    seed, digest = GOLDEN_MODULAR[name]
    run = telescope_modular(pres, rho=1, config=ModularConfig(seed=seed))
    text = telescoper_document(run.telescoper) + "\n".join(run.transcript)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _named_primes(transcript):
    return {int(p) for line in transcript
            for p in re.findall(r"prime(?:=|\[\d+\] | )(\d+)", line)}


def test_modular_builds_one_field_per_prime(airy):
    """Each drawn prime is verified once: the vote primes, the prime[i]
    primes and the consistency prime each build one PrimeField, shared by
    every point image of that prime."""
    with mock.patch.object(PrimeField, "__post_init__", autospec=True,
                           side_effect=PrimeField.__post_init__) as built:
        run = telescope_modular(airy.pres, rho=1,
                                config=ModularConfig(seed=7, workers=1))
    named = _named_primes(run.transcript)
    assert set(run.primes_used) < named
    assert 0 < built.call_count <= len(named)


def test_modular_verifies_each_drawn_prime_once(airy):
    """Each prime the transcript names went through is_prime exactly once."""
    with mock.patch.object(arith, "is_prime", side_effect=arith.is_prime) as tested:
        run = telescope_modular(airy.pres, rho=1,
                                config=ModularConfig(seed=7, workers=1))
    calls = [c.args[0] for c in tested.call_args_list]
    named = _named_primes(run.transcript)
    assert named and all(calls.count(p) == 1 for p in named)


def _prime_points(transcript):
    """Points of every prime[i] and of the consistency prime."""
    return sum(int(n) for line in transcript
               for n in re.findall(r"^  points=(\d+) ", line))


@pytest.mark.parametrize("name", ["airy", "k3"])
def test_generic_eta_basis_runs_once_per_solve(airy, k3, name):
    """The vote runs confine once, over the vote tape, and the traced
    eta-basis replay runs once, where the point tape is recorded; the other
    votes replay the vote tape and every point of every prime replays the
    point tape."""
    pres = {"airy": airy.pres, "k3": k3.pres}[name]
    seed = {"airy": 7, "k3": 0}[name]
    replay = telescoping._Tape.replay
    replayed = []

    def counted_replay(tape, bound, images):
        replayed.append(replay(tape, bound, images))
        return replayed[-1]

    with mock.patch.object(telescoping, "compute_eta_basis",
                           side_effect=compute_eta_basis) as eta, \
            mock.patch.object(telescoping, "confine", side_effect=confine) as confined, \
            mock.patch.object(telescoping._Tape, "replay", counted_replay):
        run = telescope_modular(pres, rho=1,
                                config=ModularConfig(seed=seed, workers=1))
    traced = [c for c in eta.call_args_list if c.kwargs.get("tracer") is not None]
    votes = sum(line.startswith("vote ") for line in run.transcript)
    points = _prime_points(run.transcript)
    assert not any("discard point" in line for line in run.transcript)
    assert len(traced) == 1
    assert confined.call_count == 1
    assert None not in replayed
    assert replayed.count([]) == votes - 1  # a vote tape has no outputs
    assert len(replayed) - replayed.count([]) == points > 0
    assert run.replays == {"tapes_recorded": 2, "votes_replayed": votes - 1,
                           "votes_generic": 0, "points_replayed": points,
                           "points_generic": 0}


@pytest.mark.parametrize("name", ["airy", "k3"])
def test_each_point_evaluated_once(airy, k3, name):
    """Every vote point and prime point evaluates the inputs once: the
    point tape is recorded from the inputs the elected vote evaluated."""
    pres = {"airy": airy.pres, "k3": k3.pres}[name]
    evaluated = Counter()

    def evaluate(op, img):
        evaluated[img.field.p, img.point] += 1
        return evaluate_and_reduce(op, img)

    with mock.patch.object(telescoping, "evaluate_and_reduce", evaluate):
        run = telescope_modular(pres, rho=1, config=ModularConfig(seed=0, workers=1))
    votes = sum(line.startswith("vote ") for line in run.transcript)
    assert len(evaluated) == votes + _prime_points(run.transcript)
    assert set(evaluated.values()) == {len(telescoping._inputs(pres))}


def _elected(pres, Fp):
    """The reference three votes at Fp elect, the point of the first and
    the inputs evaluated there."""
    return telescoping._elect_reference(
        pres, 1, ModularConfig(seed=7), iter([Fp] * 3), [], 40, Counter())


def test_replay_equals_generic_path(airy):
    Fp = PrimeField(1000003)
    ref, img, images = _elected(airy.pres, Fp)
    assert images == telescoping._evaluate(airy.pres, img)
    tape = telescoping._record_point(airy.pres, ref, Fp, images)
    bound = tape.bind(Fp)
    for a in (img.point, 6, 77, 123456):
        img = ModularImage(Fp, a)
        values = tape.replay(bound, telescoping._evaluate(airy.pres, img))
        assert telescoping._unflatten(values, len(ref.B)) == \
            telescoping._point_images(airy.pres, ref, img)


@pytest.mark.parametrize("name", ["airy", "k3"])
def test_tapes_replay_at_other_primes(airy, k3, name):
    """Tapes recorded at (p1, a) replay at the points of three other primes:
    the point tape to _point_images there, the vote tape to the
    Confinement that confine returns there."""
    pres = {"airy": airy.pres, "k3": k3.pres}[name]
    ref, img, images = _elected(pres, PrimeField(1000003))
    point_tape = telescoping._record_point(pres, ref, img.field, images)
    recorded, counts = [], Counter()
    assert telescoping._vote(pres, img.field, images, 1, 40, recorded, counts) == ref
    ((vote_tape, _),) = recorded
    for p in (1000033, 999983, 2147483647):
        Fp = PrimeField(p)
        point_bound, vote_bound = point_tape.bind(Fp), vote_tape.bind(Fp)
        for a in (6, 77, 123456):
            at = ModularImage(Fp, a)
            images = telescoping._evaluate(pres, at)
            values = point_tape.replay(point_bound, images)
            assert telescoping._unflatten(values, len(ref.B)) == \
                telescoping._point_images(pres, ref, at)
            assert vote_tape.replay(vote_bound, images) == []
            assert telescoping._vote(pres, Fp, images, 1, 40, recorded, counts) == \
                confine(*telescoping._context(pres, Fp, images), rho=1) == ref
    assert counts == {"tapes_recorded": 1, "votes_replayed": 9}


def test_bind_refuses_failed_constant_guard():
    """bind refuses a prime where a constant divisor or a constant that
    is_zero tested comes out zero: on the airy-family problem with a = 7,
    p = 7 divides the input denominator 7 (the generic path discards that
    prime) and p = 5 zeroes the input constant -5/7.  On a hand-made tape
    the same holds for derived constants: a divisor 25 and a 7 tested
    nonzero."""
    pres = _module_presentation(parse_document(airy_family_document(7, 2, 3)))
    Fp = PrimeField(1000003)
    ref, _, images = _elected(pres, Fp)
    tape = telescoping._record_point(pres, ref, Fp, images)
    assert tape.bind(Fp) is not None and tape.bind(PrimeField(11)) is not None
    assert tape.bind(PrimeField(7)) is None
    assert tape.bind(PrimeField(5)) is None
    with pytest.raises(UnluckyEvaluationError) as err:
        telescoping._point_images(pres, ref, ModularImage(PrimeField(7), 3))
    assert err.value.prime_level

    tape = telescoping._Tape(Fp)
    A = Algebra(1, field=QQ_T)
    source = A.scalar(T)
    (x,) = tape.lift(source, evaluate_and_reduce(source, ModularImage(Fp, 3))) \
        .terms.values()
    five = tape.add(tape.from_int(2), tape.from_int(3))
    assert not tape.is_zero(tape.sub(five, tape.from_int(-2)))  # 7
    tape.finish([tape.div(x, tape.mul(five, five))])
    assert tape.bind(PrimeField(5)) is None  # divisor 25
    assert tape.bind(PrimeField(7)) is None  # tested nonzero
    bound = tape.bind(PrimeField(11))
    at = ModularImage(PrimeField(11), 3)
    moved = evaluate_and_reduce(A.xvar(0) * source, at)
    assert tape.replay(bound, [moved]) is None  # another support
    assert tape.replay(bound, [evaluate_and_reduce(source, at)]) == \
        [3 * pow(25, -1, 11) % 11]


def _flip_first_guard(tape):
    tape.guard_zero.append(tape.guard_nonzero.pop(0))


def _perturb_first_input(tape):
    monomials, slots = tape.inputs[0]
    tape.inputs[0] = (monomials[1:], slots[1:])


@pytest.mark.parametrize("tamper", [_flip_first_guard, _perturb_first_input],
                         ids=["guard", "input"])
def test_tampered_tape_falls_back_to_generic_path(airy, tamper):
    cfg = ModularConfig(seed=7, workers=1)
    good = telescope_modular(airy.pres, rho=1, config=cfg)
    record = telescoping._record_point

    def tampered(pres, ref, Fp, images):
        tape = record(pres, ref, Fp, images)
        tamper(tape)
        return tape

    with mock.patch.object(telescoping, "_record_point", tampered), \
            mock.patch.object(telescoping, "_point_images",
                              side_effect=telescoping._point_images) as generic:
        run = telescope_modular(airy.pres, rho=1, config=cfg)
    assert generic.call_count == _prime_points(run.transcript) > 0
    assert run.replays["points_generic"] == generic.call_count
    assert run.replays["points_replayed"] == 0
    assert run.telescoper == good.telescoper
    assert run.transcript == good.transcript


class _NoTape:
    """A tape that binds at no prime, so every point takes the generic path."""

    def bind(self, Fp):
        return None


def test_unlucky_points_match_generic_path(airy):
    """A point-level failure at the first point of a prime and at a later
    one discards both, exactly as the generic path does."""
    cfg = ModularConfig(seed=7, workers=1)
    good = telescope_modular(airy.pres, rho=1, config=cfg)
    p0 = next(int(line.split()[1]) for line in good.transcript
              if line.startswith("prime[0] "))
    rng = random.Random(f"{cfg.seed}/prime/0")  # the draws of prime[0]
    points = [rng.randrange(1, p0) for _ in range(3)]
    unlucky = {points[0], points[2]}

    def evaluate(P, img):
        if img.field.p == p0 and img.point in unlucky:
            raise UnluckyEvaluationError("forced")
        return evaluate_and_reduce(P, img)

    with mock.patch.object(telescoping, "evaluate_and_reduce", evaluate):
        forced = telescope_modular(airy.pres, rho=1, config=cfg)
        with mock.patch.object(telescoping, "_record_point",
                               lambda pres, ref, Fp, images: _NoTape()):
            generic = telescope_modular(airy.pres, rho=1, config=cfg)
    for a in unlucky:
        assert f"  discard point {a}" in forced.transcript
    assert forced.transcript == generic.transcript
    assert forced.telescoper == generic.telescoper == good.telescoper


def test_recorded_values_refuse_branching():
    tape = telescoping._Tape(PrimeField(7))
    A = Algebra(1, field=QQ_T)
    source = A.scalar(T)
    op = tape.lift(source, evaluate_and_reduce(source, ModularImage(PrimeField(7), 3)))
    (x,) = op.terms.values()
    y = tape.mul(x, x)
    assert not tape.is_zero(y) and tape.is_zero(tape.sub(y, y))
    for value in (x, y, tape.from_int(3)):
        with pytest.raises(TypeError):
            bool(value)
        with pytest.raises(TypeError):
            value == value
        with pytest.raises(TypeError):
            tape.eq(value, value)


def test_fault_injected_tracer_vote_outvoted(airy):
    good = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7, workers=2))
    with outvoted_tracer_vote():
        run = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7, workers=2))
    assert run.telescoper == good.telescoper
    assert any("majority kept" in line for line in run.transcript)


def test_fault_injected_prime_discarded(airy):
    good = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7, workers=2))
    with discarded_prime():
        run = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7, workers=2))
    assert run.telescoper == good.telescoper
    assert f"shape reject prime {run.primes_discarded[0]}" in run.transcript
