"""Confinement, derivative sequences, and both telescoping drivers."""

import hashlib
import random
import re
import threading
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    NoTape, T, discarded_prime, operators, outvoted_first_vote, outvoted_tracer_vote,
    qqt_elements, vote_prime_document)
from _oracles import first_unstable_element
from weylred import telescoping
from weylred import arith
from weylred.arith import (
    QQ, QQ_T, BudgetExhaustedError, InconsistencyError, ModularImage, PrimeField,
    UnluckyEvaluationError)
from weylred.cli import _module_presentation, parse_document, telescoper_document
from weylred.groebner import DivisionCertificate
from weylred.reduction import compute_eta_basis, reduce_eta
from weylred.telescoping import (
    Confinement,
    DerivedPresentation,
    ModularConfig,
    Telescoper,
    _normalize_modp_relation,
    _solve_at,
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
_AIRY_MATRIX = ((QQ_T.zero, QQ_T.neg(HALF)),
                (QQ_T.div(QQ_T.mul(QQ_T.from_int(-2), T), QQ_T.from_int(7)), QQ_T.zero))


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
    assert _solve_at(airy.ctx, airy.pres.L, airy.pres.f, 1, 40) == \
        (conf, ((QQ_T.one, QQ_T.zero), _AIRY_MATRIX))


def test_derivative_sequence_golden(airy):
    _, (g0, matrix) = _solve_at(airy.ctx, airy.pres.L, airy.pres.f, 1, 40)
    g1 = derivative_sequence_step(QQ_T, g0, matrix)
    g2 = derivative_sequence_step(QQ_T, g1, matrix)
    assert g1 == (QQ_T.zero, QQ_T.neg(HALF))
    assert g2 == (QQ_T.div(T, QQ_T.from_int(7)), QQ_T.zero)
    with pytest.raises(ValueError):
        derivative_sequence_step(QQ_T, (QQ_T.one,), matrix)  # wrong length


def assert_effective(conf, ctx, L, f, rho):
    """Independent recomputation: the reduced derivative map really lands in
    B, and the (g0, matrix) that modular points read off confine's final
    round agree with it."""
    A = ctx.algebra
    basis_e = compute_eta_basis(ctx, conf.eta, certificate=False)
    assert [r.lm for r in basis_e.rows] == list(conf.row_lms)
    again, (g0_vec, matrix) = _solve_at(ctx, L, f, rho, 40)
    assert again == conf
    Bset = set(conf.B)
    index = {m: i for i, m in enumerate(conf.B)}
    margin = conf.eta.degree() - rho
    for i, m in enumerate(conf.B):
        assert m.degree() <= margin
        img, _ = reduce_eta(apply_linear(L, WeylOperator(A, {m: A.field.one})), ctx, basis_e)
        assert set(img.support()) <= Bset
        vec = [A.field.zero] * len(conf.B)
        for mm, c in img.terms.items():
            vec[index[mm]] = c
        assert tuple(vec) == matrix[i]
    g0, _ = reduce_eta(f, ctx, basis_e)
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
    conf, (_, matrix) = _solve_at(airy.ctx, airy.pres.L, airy.pres.f, 1, 40)
    assert conf.B[1] == Monomial((0, 1, 0), (0, 0, 0), 1)
    assert matrix == _AIRY_MATRIX


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
    assert rel[0] == QQ_T.neg(T) and rel[1] == QQ_T.one


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
    assert tel.coefficients == ((0, 3), (2,))
    # sign fix: the leading coefficient of c_N ends positive
    rel2 = (T, QQ_T.from_int(-1))
    assert telescoper_from_field_relation(QQ_T, rel2).coefficients == ((0, -1), (1,))


def test_normalize_modp_relation():
    """A prime's relation stays a tuple: content-free with c_N monic."""
    F7 = PrimeField(7)
    rel = ((0, 3), (5,))
    assert _normalize_modp_relation(F7, rel) == ((0, 2), (1,))  # scaled by 5^{-1} = 3
    # the common content t + 1 goes, then c_N is made monic
    rel = ((0, 3, 3), (2, 2))
    assert _normalize_modp_relation(F7, rel) == ((0, 5), (1,))


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
        return Confinement(conf.eta, conf.B[:1], conf.row_lms, conf.tracer)

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
    certified reduce_eta eliminates a stored reduced form [a], confine's
    final round at eta once for f and for each m in B, and the witness
    checked after it is that of a - [a]_eta, so the witnessed a is the
    checked difference plus one of the eliminated forms at eta."""
    pres = {"airy": airy, "k3": k3}[name].pres
    A = pres.ctx.algebra
    conf = confine(pres.ctx, pres.L, pres.f)
    reduce, verifies = telescoping.reduce_eta, DivisionCertificate.verifies
    eliminated, checked = [], []

    def reduce_spy(a, ctx, basis_e, certificate=False):
        out = reduce(a, ctx, basis_e, certificate)
        if certificate and basis_e.eta == conf.eta:
            eliminated.append(out[0])
        return out

    def verifies_spy(cert, x):
        checked.append(x)
        return verifies(cert, x)

    with mock.patch.object(telescoping, "reduce_eta", reduce_spy), \
            mock.patch.object(DivisionCertificate, "verifies", verifies_spy):
        telescope_direct(pres)
    expected = [pres.f] + [
        apply_linear(pres.L, WeylOperator(A, {m: A.field.one})) for m in conf.B]
    assert len(eliminated) == len(expected)
    for x, a in zip(checked, expected, strict=True):
        assert any(x + red == a for red in eliminated)


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
    run = telescope_modular(pres, rho=1, config=ModularConfig(seed=7))
    assert run.telescoper == tel
    assert run.primes_used and not run.primes_discarded


def test_modular_transcript_worker_independent(airy):
    """Two runs of one seed give the same transcript and telescoper."""
    cfg = ModularConfig(seed=7)
    run2 = telescope_modular(airy.pres, rho=1, config=cfg)
    run1 = telescope_modular(airy.pres, rho=1, config=cfg)
    assert run2.transcript == run1.transcript
    assert run2.telescoper == run1.telescoper


def test_modular_solves_every_prime_on_the_calling_thread(airy):
    """Every wave prime and the consistency prime run _prime_relation on the
    thread that called telescope_modular, so a profiler enabled there sees
    every prime solve."""
    solve, threads = telescoping._prime_relation, []

    def spy(*args):
        threads.append(threading.get_ident())
        return solve(*args)

    with mock.patch.object(telescoping, "_prime_relation", spy):
        run = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7))
    assert len(threads) >= 3 and set(threads) == {threading.get_ident()}
    assert run.telescoper == telescope_direct(airy.pres, rho=1)


def test_modular_seed_independent_result(airy):
    a = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7))
    b = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=8))
    assert a.telescoper == b.telescoper
    assert a.transcript != b.transcript  # different primes were drawn


def test_modular_k3(k3):
    tel = telescope_direct(k3.pres, rho=1)
    run = telescope_modular(k3.pres, rho=1, config=ModularConfig(seed=0))
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


AIRY_FAMILY_DIGESTS = {
    "replayed": "6b92be7db40a74c4a20cc585a7e1353bb0093abd730093ff6cc59598602e12c8",
    "generic": "b1b3dd3fe9cac29f520c0f8b9aa4ee94e6f40713b0184793a18efe13549ab74e",
}


@pytest.mark.parametrize("path", sorted(AIRY_FAMILY_DIGESTS))
def test_modular_airy_family_digest(monkeypatch, path):
    """The telescopers, transcripts, prime lists and replay counts of the
    first 150 airy-family problems at seed 1 (weylbench/worker.py) hash to
    one pinned SHA-256, with the tape replayed and with every replay
    refused (a tape that binds at no prime)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "weylbench"))
    import worker

    if path == "generic":
        monkeypatch.setattr(telescoping._Tape, "bind", NoTape.bind)
    digest = hashlib.sha256()
    for triple in worker.airy_triples(1)[:150]:
        pres = worker.airy_presentation(worker.airy_document(*triple))
        run = telescope_modular(pres, config=ModularConfig(seed=1))
        digest.update(repr((run.telescoper.coefficients, run.transcript, run.primes_used,
                            run.primes_discarded, sorted(run.replays.items()))).encode())
    assert digest.hexdigest() == AIRY_FAMILY_DIGESTS[path]


def _named_primes(transcript):
    return {int(p) for line in transcript
            for p in re.findall(r"prime(?:=|\[\d+\] | )(\d+)", line)}


def test_modular_builds_one_field_per_prime(airy):
    """Each drawn prime is verified once: the vote primes, the prime[i]
    primes and the consistency prime each build one PrimeField, shared by
    every point image of that prime."""
    with mock.patch.object(PrimeField, "__init__", autospec=True,
                           side_effect=PrimeField.__init__) as built:
        run = telescope_modular(airy.pres, rho=1,
                                config=ModularConfig(seed=7))
    named = _named_primes(run.transcript)
    assert set(run.primes_used) < named
    assert 0 < built.call_count <= len(named)


def test_modular_verifies_each_drawn_prime_once(airy):
    """Each prime the transcript names went through is_prime exactly once."""
    with mock.patch.object(arith, "is_prime", side_effect=arith.is_prime) as tested:
        run = telescope_modular(airy.pres, rho=1,
                                config=ModularConfig(seed=7))
    calls = [c.args[0] for c in tested.call_args_list]
    named = _named_primes(run.transcript)
    assert named and all(calls.count(p) == 1 for p in named)


def _prime_points(transcript):
    """Points of every prime[i] and of the consistency prime."""
    return sum(int(n) for line in transcript
               for n in re.findall(r"^  points=(\d+) ", line))


@pytest.mark.parametrize("name", ["airy", "k3"])
def test_generic_eta_basis_runs_once_per_solve(airy, k3, name):
    """confine runs once per solve, where the first vote records the tape,
    and builds each eta-basis once there; the other votes and every point
    of every prime replay that tape, whose outputs are g0 and the rows of
    the matrix."""
    pres = {"airy": airy.pres, "k3": k3.pres}[name]
    seed = {"airy": 7, "k3": 0}[name]
    replay = telescoping._Tape.replay
    replayed = []

    def counted_replay(tape, bound, a):
        replayed.append(replay(tape, bound, a))
        return replayed[-1]

    with mock.patch.object(telescoping, "compute_eta_basis",
                           side_effect=compute_eta_basis) as eta, \
            mock.patch.object(telescoping, "confine", side_effect=confine) as confined, \
            mock.patch.object(telescoping._Tape, "replay", counted_replay):
        run = telescope_modular(pres, rho=1,
                                config=ModularConfig(seed=seed))
    etas = [c.args[1] for c in eta.call_args_list]
    votes = [line for line in run.transcript if line.startswith("vote ")]
    nb = int(re.search(r"\|B\|=(\d+)", votes[0]).group(1))
    points = _prime_points(run.transcript)
    assert not any("discard point" in line for line in run.transcript)
    assert confined.call_count == 1
    assert len(etas) == len(set(etas)) > 0
    assert f"eta={_mono_str(etas[-1])} " in votes[0]
    assert None not in replayed
    assert {len(values) for values in replayed} == {nb * (nb + 1)}
    assert len(replayed) == len(votes) - 1 + points
    assert run.replays == {"tapes_recorded": 1, "votes_replayed": len(votes) - 1,
                           "votes_generic": 0, "points_replayed": points,
                           "points_generic": 0}


def _tampered_recording(tamper):
    """A patch of telescoping._record that applies tamper to each tape it
    records."""
    record = telescoping._record

    def tampered(*args):
        tape, conf = record(*args)
        tamper(tape)
        return tape, conf

    return mock.patch.object(telescoping, "_record", tampered)


def _flip_first_guard(tape):
    tape.guard_zero.append(tape.guard_nonzero.pop(0))


def _absent_first_point_input(tape):
    """Mark the first present t-dependent input absent, as if it had
    vanished at the recording point."""
    i = next(i for i, (slot, _, _) in enumerate(tape.point_inputs) if slot is not None)
    _, num, den = tape.point_inputs[i]
    tape.point_inputs[i] = (None, num, den)


@pytest.mark.parametrize("name", ["airy", "k3"])
def test_each_point_evaluated_once(airy, k3, name):
    """A vote or point that replays the tape evaluates no input operator:
    replay evaluates only the t-dependent coefficients.  The recording and
    every vote or point whose replay refuses (here, all of them, on a tape
    with a flipped guard) evaluate each input operator once."""
    pres = {"airy": airy.pres, "k3": k3.pres}[name]
    ninputs = len(telescoping._inputs(pres))
    cfg = ModularConfig(seed=0)

    def run():
        evaluated = Counter()

        def evaluate(op, img):
            evaluated[img.field.p, img.point] += 1
            return evaluate_and_reduce(op, img)

        with mock.patch.object(telescoping, "evaluate_and_reduce", evaluate):
            return telescope_modular(pres, rho=1, config=cfg), evaluated

    replayed, evaluated = run()
    votes = [tuple(map(int, re.search(r"prime=(\d+) point=(\d+)", line).groups()))
             for line in replayed.transcript if line.startswith("vote ")]
    points = _prime_points(replayed.transcript)
    assert replayed.replays == {"tapes_recorded": 1, "votes_replayed": len(votes) - 1,
                                "votes_generic": 0, "points_replayed": points,
                                "points_generic": 0}
    assert points > 0
    assert evaluated == {votes[0]: ninputs}

    with _tampered_recording(_flip_first_guard):
        refused, evaluated = run()
    assert refused.replays == {"tapes_recorded": 1, "votes_replayed": 0,
                               "votes_generic": len(votes) - 1, "points_replayed": 0,
                               "points_generic": points}
    assert refused.transcript == replayed.transcript
    assert len(evaluated) == len(votes) + points
    assert set(evaluated.values()) == {ninputs}


def _elected(pres, Fp):
    """The reference three votes at Fp elect, and the (tape, Confinement)
    the first of them recorded."""
    return telescoping._elect_reference(
        pres, 1, ModularConfig(seed=7), iter([Fp] * 3), [], 40, Counter(), [])


def _direct(pres, Fp, images):
    """_solve_at run at the point where the inputs evaluate to images."""
    return _solve_at(*telescoping._context(pres, Fp, images), 1, 40)


def test_replay_equals_generic_path(airy):
    Fp = PrimeField(1000003)
    ref, (tape, conf) = _elected(airy.pres, Fp)
    assert conf == ref
    bound = tape.bind(Fp)
    for a in (6, 77, 123456):
        images = telescoping._evaluate(airy.pres, ModularImage(Fp, a))
        values = tape.replay(bound, a)
        assert (ref, telescoping._unflatten(values, len(ref.B))) == \
            _direct(airy.pres, Fp, images)


@pytest.mark.parametrize("name", ["airy", "k3"])
def test_tapes_replay_at_other_primes(airy, k3, name):
    """The tape recorded at (p1, a) replays at the points of three other
    primes, for a point and for a vote alike, to what _solve_at returns
    there: the elected Confinement and its (g0, matrix)."""
    pres = {"airy": airy.pres, "k3": k3.pres}[name]
    ref, recording = _elected(pres, PrimeField(1000003))
    counts = Counter()
    for p in (1000033, 999983, 2147483647):
        Fp = PrimeField(p)
        bound = recording[0].bind(Fp)
        for a in (6, 77, 123456):
            images = telescoping._evaluate(pres, ModularImage(Fp, a))
            direct = _direct(pres, Fp, images)
            assert direct[0] == ref
            assert telescoping._solved(pres, recording, bound, Fp, a, 1, 40, counts,
                                       "points") == direct
            assert telescoping._solved(pres, recording, bound, Fp, a, 1, 40, counts,
                                       "votes")[0] == ref
    assert counts == {"points_replayed": 9, "votes_replayed": 9}


def test_bind_refuses_failed_constant_guard():
    """bind refuses a prime where a constant divisor or a constant that
    is_zero tested comes out zero: on the airy-family problem with a = 7,
    p = 7 divides the input denominator 7 (evaluation there discards that
    prime) and p = 5 zeroes the input constant -5/7.  On hand-made tapes
    the same holds for derived constants (a divisor 25 and a 7 tested
    nonzero), for the leading denominator of a t-dependent input, and for
    inputs that vanished at the recording point: a constant that must stay
    zero mod p, and a t-dependent coefficient that must stay zero at the
    point.  replay refuses a point where an input denominator vanishes."""
    pres = _module_presentation(parse_document(airy_family_document(7, 2, 3)))
    Fp = PrimeField(1000003)
    _, (tape, _) = _elected(pres, Fp)
    assert tape.bind(Fp) is not None and tape.bind(PrimeField(11)) is not None
    assert tape.bind(PrimeField(7)) is None
    assert tape.bind(PrimeField(5)) is None
    with pytest.raises(UnluckyEvaluationError) as err:
        telescoping._evaluate(pres, ModularImage(PrimeField(7), 3))
    assert err.value.prime_level

    A = Algebra(1, field=QQ_T)

    def lifted(source, Fp, a):
        tape = telescoping._Tape(Fp)
        op = tape.lift(source, evaluate_and_reduce(source, ModularImage(Fp, a)))
        return tape, list(op.terms.values())

    # 1/(t - 5): replay refuses where its denominator vanishes, as the
    # generic evaluation fails there
    source = A.scalar(QQ_T.div(QQ_T.one, QQ_T.sub(T, QQ_T.from_int(5))))
    tape, (x,) = lifted(source, Fp, 3)
    tape.finish([x])
    bound = tape.bind(PrimeField(11))
    assert tape.replay(bound, 5) is None
    with pytest.raises(UnluckyEvaluationError) as err:
        evaluate_and_reduce(source, ModularImage(PrimeField(11), 5))
    assert not err.value.prime_level
    assert tape.replay(bound, 6) == [1]

    tape, (x,) = lifted(A.scalar(T), Fp, 3)
    five = tape.add(tape.from_int(2), tape.from_int(3))
    assert not tape.is_zero(tape.sub(five, tape.from_int(-2)))  # 7
    tape.finish([tape.div(x, tape.mul(five, five))])
    assert tape.bind(PrimeField(5)) is None  # divisor 25
    assert tape.bind(PrimeField(7)) is None  # tested nonzero
    bound = tape.bind(PrimeField(11))
    assert tape.replay(bound, 0) is None  # the input t vanishes at 0
    assert tape.replay(bound, 3) == [3 * pow(25, -1, 11) % 11]

    # (a) p = 13 divides the leading denominator of t/13
    source = A.scalar(QQ_T.div(T, QQ_T.from_int(13)))
    tape, (x,) = lifted(source, Fp, 3)
    tape.finish([x])
    assert tape.bind(PrimeField(13)) is None
    with pytest.raises(UnluckyEvaluationError) as err:
        evaluate_and_reduce(source, ModularImage(PrimeField(13), 3))
    assert err.value.prime_level
    assert tape.replay(tape.bind(PrimeField(11)), 3) == [3 * pow(13, -1, 11) % 11]

    # (b) x (t - 3) + 7 vanishes at t = 3 mod 7: both coefficients are absent
    source = A.xvar(0) * A.scalar(QQ_T.sub(T, QQ_T.from_int(3))) + A.scalar(
        QQ_T.from_int(7))
    tape, terms = lifted(source, PrimeField(7), 3)
    assert terms == []
    tape.finish([])
    assert tape.bind(PrimeField(11)) is None  # the constant 7 is not zero mod 11
    source = A.xvar(0) * A.scalar(QQ_T.sub(T, QQ_T.from_int(3)))
    tape, terms = lifted(source, PrimeField(7), 3)
    tape.finish([])
    bound = tape.bind(PrimeField(11))
    assert tape.replay(bound, 3) == []  # t - 3 vanishes again
    assert tape.replay(bound, 4) is None  # ... but not at 4
    assert evaluate_and_reduce(source, ModularImage(PrimeField(11), 4)).terms


@pytest.mark.parametrize("tamper", [_flip_first_guard, _absent_first_point_input],
                         ids=["guard", "input"])
def test_tampered_tape_falls_back_to_generic_path(airy, tamper):
    """A tape that refuses every replay (a guard flipped, or a t-dependent
    input marked absent, which is nonzero at every point) sends the two
    later votes and every point to _solve_at, with the same transcript and
    telescoper."""
    cfg = ModularConfig(seed=7)
    good = telescope_modular(airy.pres, rho=1, config=cfg)
    with _tampered_recording(tamper), \
            mock.patch.object(telescoping, "_solve_at",
                              side_effect=_solve_at) as generic:
        run = telescope_modular(airy.pres, rho=1, config=cfg)
    points = _prime_points(run.transcript)
    assert generic.call_count == 1 + 2 + points > 3  # recording, votes, points
    assert run.replays == {"tapes_recorded": 1, "votes_replayed": 0,
                           "votes_generic": 2, "points_replayed": 0,
                           "points_generic": points}
    assert run.telescoper == good.telescoper
    assert run.transcript == good.transcript


def test_unlucky_points_match_generic_path(airy):
    """A point-level failure at the first point of a prime and at a later
    one discards both, exactly as the generic path does.  On the tape path
    the bound inputs of that prime get a denominator that vanishes at both
    points, so replay refuses there and the generic evaluation fails; on
    the generic path the evaluation fails at both."""
    cfg = ModularConfig(seed=7)
    good = telescope_modular(airy.pres, rho=1, config=cfg)
    p0 = next(int(line.split()[1]) for line in good.transcript
              if line.startswith("prime[0] "))
    rng = random.Random(f"{cfg.seed}/prime/0")  # the draws of prime[0]
    points = [rng.randrange(1, p0) for _ in range(3)]
    unlucky = {points[0], points[2]}
    bind = telescoping._Tape.bind

    def unlucky_bind(tape, Fp):
        """bind, with the first present t-dependent input num/den of prime[0]
        rewritten as (num q)/(den q), q = prod (t - u) over the unlucky u."""
        bound = bind(tape, Fp)
        if Fp.p != p0 or bound is None:
            return bound
        _, start, inputs = bound
        q = (1,)
        for u in sorted(unlucky):
            q = arith.pmul(Fp, q, (Fp.p - u, 1))
        inputs = list(inputs)
        i = next(i for i, (slot, _, _) in enumerate(inputs) if slot is not None)
        slot, num, den = inputs[i]
        inputs[i] = (slot, arith.pmul(Fp, tuple(num), q), arith.pmul(Fp, tuple(den), q))
        return Fp, start, inputs

    def evaluate(P, img):
        if img.field.p == p0 and img.point in unlucky:
            raise UnluckyEvaluationError("forced")
        return evaluate_and_reduce(P, img)

    with mock.patch.object(telescoping, "evaluate_and_reduce", evaluate):
        with mock.patch.object(telescoping._Tape, "bind", unlucky_bind):
            forced = telescope_modular(airy.pres, rho=1, config=cfg)
        with mock.patch.object(telescoping._Tape, "bind", NoTape.bind):
            generic = telescope_modular(airy.pres, rho=1, config=cfg)
    for a in unlucky:
        assert f"  discard point {a}" in forced.transcript
    assert forced.replays["points_generic"] == 0
    assert forced.replays["points_replayed"] == _prime_points(forced.transcript)
    assert generic.replays["points_replayed"] == 0
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


def test_fault_injected_tracer_vote_outvoted(airy):
    good = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7))
    with outvoted_tracer_vote():
        run = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7))
    assert run.telescoper == good.telescoper
    assert any("majority kept" in line for line in run.transcript)


def test_outvoted_first_vote_records_again(airy):
    """When the first vote loses the election, the elected vote's point
    records a second tape, and every point replays that one."""
    cfg = ModularConfig(seed=7)
    good = telescope_modular(airy.pres, rho=1, config=cfg)
    with outvoted_first_vote():
        run = telescope_modular(airy.pres, rho=1, config=cfg)
    points = _prime_points(run.transcript)
    assert "votes split, majority kept" in run.transcript
    assert run.replays == {"tapes_recorded": 2, "votes_replayed": 0,
                           "votes_generic": 2, "points_replayed": points,
                           "points_generic": 0}
    assert points > 0
    assert run.telescoper == good.telescoper


@pytest.mark.parametrize("replays", [True, False], ids=["replayed", "generic"])
def test_wrong_election_returns_no_telescoper(airy, replays):
    """A reference that no point confines to (the elected Confinement
    without its last B monomial) makes every point unusable, whether it
    replays the tape or runs _solve_at, so no telescoper comes back."""
    elect = telescoping._elect_reference

    def wrong(*args):
        ref, recording = elect(*args)
        assert len(ref.B) > 1
        return Confinement(ref.eta, ref.B[:-1], ref.row_lms, ref.tracer), recording

    with mock.patch.object(telescoping, "_elect_reference", wrong), \
            mock.patch.object(telescoping._Tape, "bind",
                              telescoping._Tape.bind if replays else NoTape.bind), \
            pytest.raises(BudgetExhaustedError, match="no reconstruction"):
        telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7))


def test_vote_prime_dividing_a_denominator_is_discarded():
    """A vote prime that divides an input denominator fails at every point
    (a prime-level error): the vote logs it, puts it in primes_discarded
    and draws the next prime, and the modular telescoper is the direct
    one.  1339438039 is the first prime that seed 0 draws."""
    p = 1339438039
    pres = _module_presentation(parse_document(vote_prime_document(p)))
    run = telescope_modular(pres, rho=1, config=ModularConfig(seed=0))
    assert run.transcript[1].startswith(f"vote prime={p} discarded: denominator ")
    assert run.transcript[1].endswith(f" divisible by {p}")
    assert run.primes_discarded == (p,) and p not in run.primes_used
    assert run.telescoper == telescope_direct(pres, rho=1)


def test_fault_injected_prime_discarded(airy):
    good = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7))
    with discarded_prime():
        run = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7))
    assert run.telescoper == good.telescoper
    assert f"shape reject prime {run.primes_discarded[0]}" in run.transcript


def test_consistency_prime_out_of_points_is_discarded(airy):
    """A consistency prime whose fits exhaust max_points goes to
    primes_discarded, and the next prime checks the reconstruction."""
    cfg = ModularConfig(seed=7)
    good = telescope_modular(airy.pres, rho=1, config=cfg)
    check = int(re.fullmatch(r"consistency prime (\d+) ok", good.transcript[-1])[1])
    real = telescoping._interpolated_system

    def interpolated_system(points, Fp, *args):
        if Fp.p == check:
            raise BudgetExhaustedError(f"point budget exhausted mod {Fp.p}")
        return real(points, Fp, *args)

    with mock.patch.object(telescoping, "_interpolated_system", interpolated_system):
        run = telescope_modular(airy.pres, rho=1, config=cfg)
    assert run.telescoper == good.telescoper
    assert check in run.primes_discarded and check not in run.primes_used
    assert run.transcript[-1] != good.transcript[-1]


def test_consistency_prime_dividing_the_leading_coefficient_is_discarded(airy):
    """A consistency prime at which the reconstruction has no canonical
    image (_reduce_canonical_mod finds c_N vanishing mod p) is not solved:
    it goes to primes_discarded, the next prime checks, and the telescoper
    and the primes used are unchanged."""
    cfg = ModularConfig(seed=7)
    good = telescope_modular(airy.pres, rho=1, config=cfg)
    check = int(re.fullmatch(r"consistency prime (\d+) ok", good.transcript[-1])[1])
    real = telescoping._reduce_canonical_mod

    def reduce_canonical_mod(coeffs, Fp):
        return None if Fp.p == check else real(coeffs, Fp)

    with mock.patch.object(telescoping, "_reduce_canonical_mod", reduce_canonical_mod):
        run = telescope_modular(airy.pres, rho=1, config=cfg)
    assert run.telescoper == good.telescoper
    assert run.primes_used == good.primes_used
    assert run.primes_discarded == good.primes_discarded + (check,)
    assert check not in _named_primes(run.transcript)
    assert run.transcript[:-3] == good.transcript[:-3]
    assert re.fullmatch(r"consistency prime (\d+) ok", run.transcript[-1])


@pytest.mark.parametrize("name", ["gb0", "dy", "gb1+dx"])
def test_empty_confinement_gives_the_unit_telescoper(airy, name):
    """An integrand whose reduced form is zero (an element of S, a
    derivative, or their sum) confines to an empty B: both drivers return
    the unit telescoper, and the modular one solves no prime after the
    votes."""
    A = airy.algebra
    f = {"gb0": airy.gb[0], "dy": A.dvar(1), "gb1+dx": airy.gb[1] + A.dvar(0)}[name]
    pres = DerivedPresentation(airy.ctx, airy.pres.L, f)
    assert telescope_direct(pres, rho=1).coefficients == ((1,),)
    run = telescope_modular(pres, rho=1, config=ModularConfig(seed=7))
    assert run.telescoper.coefficients == ((1,),)
    assert run.transcript[-1] == "empty confinement: unit telescoper"
    assert run.primes_used == ()
    assert run.replays == {"tapes_recorded": 1, "votes_replayed": 2, "votes_generic": 0,
                           "points_replayed": 0, "points_generic": 0}


@contextmanager
def _split_rounds(rounds):
    """Within the block, the votes of the first rounds election rounds
    return three distinct Confinements: the first vote of a round returns
    its own, the second and the third each add a marker of their own to
    the tracer, so no round before them reaches a majority."""
    real = telescoping._solved
    votes = 1  # the first vote records its tape and returns its own

    def solved(pres, *args):
        nonlocal votes
        conf, system = real(pres, *args)
        if args[-1] == "votes":
            round_no, v = divmod(votes, telescoping._TRACER_VOTES)
            votes += 1
            if round_no < rounds and v:
                conf = Confinement(conf.eta, conf.B, conf.row_lms,
                                   conf.tracer | {("split", v)})
        return conf, system

    with mock.patch.object(telescoping, "_solved", solved):
        yield


def test_inconclusive_vote_round_is_repeated(airy):
    """Three distinct Confinements in the first round leave the election
    open: a new round elects the reference, and the telescoper is the
    direct one."""
    with _split_rounds(1):
        run = telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7))
    assert "votes inconclusive, new round" in run.transcript
    assert run.transcript.count("votes agree") == 1
    assert run.telescoper == telescope_direct(airy.pres, rho=1)


def test_election_without_majority_raises(airy):
    """When every vote round is split three ways, the election fails."""
    with _split_rounds(telescoping._VOTE_ROUNDS), pytest.raises(
            InconsistencyError, match="never reached a majority"):
        telescope_modular(airy.pres, rho=1, config=ModularConfig(seed=7))
