"""Confinement, derivative sequences, and both telescoping drivers."""

import hashlib
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    T, discarded_prime, operators, outvoted_tracer_vote, qqt_elements)
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
    _certify_telescoper,
    apply_linear,
    confine,
    derivative_sequence_step,
    relation_search,
    telescope_direct,
    telescope_modular,
    telescoper_from_field_relation,
)
from weylred.weyl import Algebra, Monomial, WeylOperator, evaluate_and_reduce

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
    assert conf.f_vector == (QQ_T.one, QQ_T.zero)
    assert conf.rho == 1 and conf.tracer == frozenset()


def test_derivative_sequence_golden(airy):
    conf = confine(airy.ctx, airy.pres.L, airy.pres.f, rho=1)
    g1 = derivative_sequence_step(conf.field, conf.f_vector, conf.matrix)
    g2 = derivative_sequence_step(conf.field, g1, conf.matrix)
    assert g1 == (QQ_T.zero, QQ_T.neg(HALF))
    assert g2 == (QQ_T.div(T, QQ_T.from_int(7)), QQ_T.zero)
    with pytest.raises(ValueError):
        derivative_sequence_step(conf.field, (QQ_T.one,), conf.matrix)  # wrong length


def assert_effective(conf, ctx, L, f):
    """Independent recomputation: the reduced derivative map really lands in B."""
    A = ctx.algebra
    basis_e = compute_eta_basis(ctx, conf.eta, certificate=False)
    Bset = set(conf.B)
    index = {m: i for i, m in enumerate(conf.B)}
    margin = conf.eta.degree() - conf.rho
    for m in conf.B:
        assert m.degree() <= margin
        img = reduce_eta(apply_linear(L, WeylOperator(A, {m: A.field.one})), ctx, basis_e)
        assert set(img.support()) <= Bset
        vec = [A.field.zero] * len(conf.B)
        for mm, c in img.terms.items():
            vec[index[mm]] = c
        assert tuple(vec) == conf.reduced_L_images[m]
    g0 = reduce_eta(f, ctx, basis_e)
    assert set(g0.support()) <= Bset
    vec = [A.field.zero] * len(conf.B)
    for mm, c in g0.terms.items():
        vec[index[mm]] = c
    assert tuple(vec) == conf.f_vector


def test_confinement_effective_on_presentations(airy, k2, k3):
    for pres in (airy.pres, k2.pres, k3.pres):
        conf = confine(pres.ctx, pres.L, pres.f, rho=1)
        assert_effective(conf, pres.ctx, pres.L, pres.f)


@given(operators(Algebra(3, field=QQ_T), coeffs=qqt_elements(max_deg=1),
                 max_terms=2, max_exp=2))
@settings(max_examples=25)
def test_confinement_effective_random_f(airy, f):
    conf = confine(airy.ctx, airy.pres.L, f, rho=1)
    assert_effective(conf, airy.ctx, airy.pres.L, f)


def test_matrix_rows_align_with_B(airy):
    conf = confine(airy.ctx, airy.pres.L, airy.pres.f, rho=1)
    assert conf.matrix == tuple(conf.reduced_L_images[m] for m in conf.B)


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


def test_certificate_rejects_perturbed_telescoper(k3):
    tel = telescope_direct(k3.pres)
    c0 = tel.coefficients[0]
    bad = Telescoper(((c0[0] + 1,) + c0[1:],) + tel.coefficients[1:])
    eta = confine(k3.pres.ctx, k3.pres.L, k3.pres.f).eta
    _certify_telescoper(k3.pres, eta, tel)
    with pytest.raises(InconsistencyError, match="telescoper certificate failed"):
        _certify_telescoper(k3.pres, eta, bad)


def test_certificate_has_its_own_chain(k3):
    """A wrong step in the relation search's chain is caught: the certificate
    walks the derivative chain on operators, not through the step function."""
    step = telescoping.derivative_sequence_step

    def transposed(F, g, matrix):
        return step(F, g, tuple(zip(*matrix)))

    with mock.patch.object(telescoping, "derivative_sequence_step", transposed):
        with pytest.raises(InconsistencyError, match="telescoper certificate failed"):
            telescope_direct(k3.pres)


def test_certificate_checks_every_witness(k3):
    with mock.patch.object(DivisionCertificate, "verifies", return_value=False):
        with pytest.raises(InconsistencyError, match="reduced-form certificate failed"):
            telescope_direct(k3.pres)


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


def _replay_points(transcript):
    """Points of each prime[i] after its first, the tape's replay points."""
    return sum(int(n) - 1 for line in transcript
               for n in re.findall(r"^  points=(\d+) ", line))


@pytest.mark.parametrize("name", ["airy", "k3"])
def test_generic_eta_basis_runs_once_per_prime(airy, k3, name):
    """The generic eta-basis replay runs once per prime, at the recording
    point; every later point of the prime replays the tape."""
    pres = {"airy": airy.pres, "k3": k3.pres}[name]
    seed = {"airy": 7, "k3": 0}[name]
    replay = telescoping._Tape.replay
    replayed = []

    def counted_replay(tape, images):
        replayed.append(replay(tape, images))
        return replayed[-1]

    with mock.patch.object(telescoping, "compute_eta_basis",
                           side_effect=compute_eta_basis) as eta, \
            mock.patch.object(telescoping._Tape, "replay", counted_replay):
        run = telescope_modular(pres, rho=1,
                                config=ModularConfig(seed=seed, workers=1))
    traced = [c for c in eta.call_args_list if c.kwargs.get("tracer") is not None]
    assert not any("discard point" in line for line in run.transcript)
    assert 0 < len(traced) <= len(_named_primes(run.transcript))
    assert len(replayed) == _replay_points(run.transcript) > 0
    assert None not in replayed


def test_replay_equals_generic_path(airy):
    ref = telescoping._elect_reference(
        airy.pres, 1, ModularConfig(seed=7), iter([PrimeField(1000003)] * 3),
        [], 40)
    Fp = PrimeField(1000003)
    tape, first = telescoping._record_point(airy.pres, ref, ModularImage(Fp, 5))
    assert first == telescoping._point_images(airy.pres, ref, ModularImage(Fp, 5))
    for a in (6, 77, 123456):
        img = ModularImage(Fp, a)
        values = tape.replay(telescoping._evaluate(airy.pres, img))
        assert telescoping._unflatten(values, len(ref[1])) == \
            telescoping._point_images(airy.pres, ref, img)


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

    def tampered(pres, ref, img):
        tape, sample = record(pres, ref, img)
        tamper(tape)
        return tape, sample

    with mock.patch.object(telescoping, "_record_point", tampered), \
            mock.patch.object(telescoping, "_point_images",
                              side_effect=telescoping._point_images) as generic:
        run = telescope_modular(airy.pres, rho=1, config=cfg)
    assert generic.call_count == _replay_points(run.transcript) > 0
    assert run.telescoper == good.telescoper
    assert run.transcript == good.transcript


class _NoTape:
    """A tape that replays nothing, so every point takes the generic path."""

    def replay(self, images):
        return None


def test_unlucky_points_match_generic_path(airy):
    """A point-level failure at the would-be recording point and at a
    replay point discards both, exactly as the generic path does."""
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

    def generic_record(pres, ref, img):
        return _NoTape(), telescoping._point_images(pres, ref, img)

    with mock.patch.object(telescoping, "evaluate_and_reduce", evaluate):
        forced = telescope_modular(airy.pres, rho=1, config=cfg)
        with mock.patch.object(telescoping, "_record_point", generic_record):
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
    for value in (x, y):
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
