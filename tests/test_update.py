import numpy as np
import pytest

from helpers import assert_matches_reference, maximally_entangled_ket, random_instrument
from qbayes import effects, linalg, update
from qbayes.errors import (
    DimensionMismatch,
    InconsistentRefinement,
    NotCp,
    NotHermitian,
    NotNormalized,
    NotPsd,
    NotTracePreserving,
    NotUnitary,
    RankDeficientState,
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def basis_projectors(d):
    return effects.validate_povm(
        [linalg.projector(linalg.ket(i, d)) for i in range(d)]
    )


def outcome_updates(rho, inst):
    """The (K,) outcome probabilities, the traces of ``unnormalized_posteriors``,
    and the normalized posteriors, None where the probability is at most
    ``PROB_FLOOR``."""
    raw = update.unnormalized_posteriors(rho, inst)
    probs = np.trace(raw, axis1=1, axis2=2).real
    return probs, [r / p if p > linalg.PROB_FLOOR else None for r, p in zip(raw, probs)]


# --------------------------------------------------------------------------
# Instruments.


def test_projective_instrument_on_basis_state():
    inst = update.efficient_from_povm(basis_projectors(2))
    probs, posts = outcome_updates(linalg.projector(linalg.ket(0, 2)), inst)
    assert probs[0] == pytest.approx(1.0)
    assert np.linalg.norm(posts[0] - linalg.projector(linalg.ket(0, 2))) < 1e-12
    assert posts[1] is None


def test_von_neumann_collapse_ignores_state(rng):
    # Projective Kraus A_i = Pi_i: posterior is Pi_i whatever rho was.
    inst = update.efficient_from_povm(basis_projectors(3))
    for _ in range(10):
        rho = linalg.random_state(3, rng)
        for i, post in enumerate(outcome_updates(rho, inst)[1]):
            if post is None:
                continue
            assert np.linalg.norm(post - linalg.projector(linalg.ket(i, 3))) < 1e-10


def test_random_instrument_probabilities_match_effects(rng):
    for _ in range(50):
        d = int(rng.integers(2, 5))
        inst = random_instrument(d, int(rng.integers(2, 5)), int(rng.integers(1, 4)), rng)
        rho = linalg.random_state(d, rng)
        probs, posts = outcome_updates(rho, inst)
        for p, post, e in zip(probs, posts, inst.effects()):
            assert p == pytest.approx(np.trace(rho @ e).real, abs=1e-12)
            if post is not None:
                assert np.linalg.eigvalsh(post)[0] > -1e-10
                assert np.trace(post).real == pytest.approx(1.0, abs=1e-9)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_efficient_from_povm_kraus_squares_to_effect(rng):
    povm = effects.validate_povm(linalg.random_povm(3, 4, rng))
    inst = update.efficient_from_povm(povm)
    for (a,), e in zip(inst.outcomes, povm.elements):
        assert np.linalg.norm(linalg.dagger(a) @ a - e) <= 1e-10


def test_efficient_from_povm_rejects_non_unitary():
    with pytest.raises(update.NotUnitary):
        update.efficient_from_povm(
            basis_projectors(2), unitaries=[np.eye(2), 2.0 * np.eye(2)]
        )


def test_efficient_from_povm_rejects_unitaries_of_another_dimension():
    with pytest.raises(DimensionMismatch, match="unitary of dim 3 for a POVM of dim 2"):
        update.efficient_from_povm(basis_projectors(2), unitaries=[np.eye(3), np.eye(3)])


def test_make_instrument_rejects_incomplete_kraus_sets():
    with pytest.raises(NotTracePreserving):
        update.make_instrument([(np.sqrt(0.3) * np.eye(2),), (np.sqrt(0.3) * np.eye(2),)])
    # Each outcome alone is a valid effect (0.6 I), but together they give 1.2 I.
    with pytest.raises(NotTracePreserving):
        update.make_instrument([(np.sqrt(0.6) * np.eye(2),), (np.sqrt(0.6) * np.eye(2),)])


def test_make_instrument_accepts_complete_non_efficient_set():
    inst = update.make_instrument(
        [(0.5 * np.eye(2), 0.5 * linalg.sigma_x), (np.sqrt(0.5) * linalg.sigma_z,)]
    )
    assert not inst.efficient
    effects_ = inst.effects()
    assert np.linalg.norm(effects_[0] - np.eye(2) / 2.0) <= 1e-15
    assert np.linalg.norm(sum(effects_) - np.eye(2)) <= 1e-15


def test_sqm_measurement_is_valid_instrument():
    inst = update.efficient_from_povm(effects.standard_sqm(2).base)
    assert len(inst) == 4
    assert inst.efficient


@pytest.mark.parametrize("form", [tuple, list, np.stack])
def test_instrument_and_channel_hold_one_stack_whatever_the_input(form, rng):
    kraus = random_instrument(3, 1, 3, rng).outcomes[0]
    ch = update.make_channel(form(list(kraus)))
    inst = update.make_instrument(form([form([a]) for a in kraus]))
    assert ch.outcomes.dtype == complex and np.array_equal(ch.outcomes[0], kraus)
    assert inst.outcomes.shape == (3, 1, 3, 3) and np.array_equal(inst.outcomes[:, 0], kraus)


def _ragged_instrument(rng):
    """Outcome sets of 1, 3 and 2 Kraus operators of a random 3-outcome instrument."""
    povm = linalg.mat_sqrt(np.stack(linalg.random_povm(3, 3, rng)))
    weights = [np.ones(1), rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2))]
    return [
        [np.sqrt(w) * linalg.random_unitary(3, rng) @ root for w in ws]
        for root, ws in zip(povm, weights)
    ]


def test_zero_padding_of_a_ragged_instrument_changes_nothing(rng):
    sets = _ragged_instrument(rng)
    inst = update.make_instrument(sets)
    assert inst.outcomes.shape == (3, 3, 3, 3) and not inst.efficient
    assert not inst.outcomes[0, 1:].any() and not inst.outcomes[2, 2:].any()
    rho = linalg.random_state(3, rng)
    raw = update.unnormalized_posteriors(rho, inst)
    assert np.abs(inst.apply(rho) - sum(raw)).max() <= 1e-15
    for d, ops in enumerate(sets):
        effect = sum(linalg.dagger(a) @ a for a in ops)
        posterior = sum(a @ rho @ linalg.dagger(a) for a in ops)
        assert np.abs(inst.effects()[d] - effect).max() <= 1e-14
        assert np.abs(raw[d] - posterior).max() <= 1e-14
        assert np.abs(update.KrausInstrument([inst.outcomes[d]]).apply(rho) - posterior).max() <= 1e-14


@pytest.mark.parametrize("build", [update.make_channel, lambda ops: update.make_instrument([ops])])
def test_malformed_kraus_sets_raise_dimension_mismatch(build):
    with pytest.raises(DimensionMismatch):
        build([np.eye(2) / np.sqrt(2.0), np.eye(3) / np.sqrt(2.0)])
    with pytest.raises(DimensionMismatch):
        build([])
    with pytest.raises(DimensionMismatch):
        update.make_instrument([[np.eye(2) / np.sqrt(2.0)], [np.eye(3) / np.sqrt(2.0)]])
    with pytest.raises(DimensionMismatch):
        update.make_instrument([])


def test_channel_rejects_a_state_of_another_dimension():
    ch = update.make_channel([np.eye(2)])
    with pytest.raises(DimensionMismatch):
        ch.apply(np.eye(3) / 3.0)


# --------------------------------------------------------------------------
# Refinement / readjustment factorization.


def live_outcomes(fac):
    """(probability, refinement, readjustment, posterior) of each outcome of a
    single-state factorization above the probability floor."""
    live = fac.live
    return zip(fac.probabilities[live], fac.refinements[live], fac.readjustments[live], fac.posteriors[live])


def refinement_mixture(fac):
    """The probability-weighted mixture of a single-state factorization's refinements."""
    return (fac.probabilities[:, None, None] * fac.refinements).sum(axis=0)


def test_pure_state_refines_to_itself(rng):
    psi = linalg.random_ket(3, rng)
    rho = np.outer(psi, psi.conj())
    inst = random_instrument(3, 4, 1, rng)
    fac = update.factor_update(rho, inst.outcomes)
    for refinement in fac.refinements[fac.live]:
        assert np.linalg.norm(refinement - rho) <= 1e-10


def test_maximally_mixed_projective_update_is_pure_refinement():
    inst = update.efficient_from_povm(basis_projectors(2))
    fac = update.factor_update(np.eye(2) / 2.0, inst.outcomes)
    for i, (p, refinement, v, posterior) in enumerate(live_outcomes(fac)):
        pi = linalg.projector(linalg.ket(i, 2))
        assert p == pytest.approx(0.5)
        assert np.linalg.norm(refinement - pi) < 1e-12
        assert np.linalg.norm(posterior - pi) < 1e-12
        # Readjustment acts trivially on the refinement.
        moved = v @ refinement @ linalg.dagger(v)
        assert np.linalg.norm(moved - refinement) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_factorization_invariants_random_pairs(d, rng):
    for _ in range(200):
        rho = linalg.random_state(d, rng)
        inst = random_instrument(d, int(rng.integers(2, 5)), 1, rng)
        fac = update.factor_update(rho, inst.outcomes)
        assert np.linalg.norm(refinement_mixture(fac) - rho) <= 1e-9
        for _, refinement, v, posterior in live_outcomes(fac):
            spec_r = np.sort(np.linalg.eigvalsh(refinement))
            spec_p = np.sort(np.linalg.eigvalsh(posterior))
            assert np.abs(spec_r - spec_p).max() <= 1e-8
            assert np.linalg.norm(linalg.dagger(v) @ v - np.eye(d)) <= 1e-9
            assert np.linalg.norm(v @ refinement @ linalg.dagger(v) - posterior) <= 1e-8


def test_factorization_rank_deficient_state_supported(rng):
    rho = linalg.random_state(3, rng, rank=2)
    inst = random_instrument(3, 3, 1, rng)
    fac = update.factor_update(rho, inst.outcomes)
    assert np.linalg.norm(refinement_mixture(fac) - rho) <= 1e-9


def test_factorization_requires_efficient_instrument(rng):
    inst = random_instrument(2, 2, 3, rng)
    with pytest.raises(ValueError):
        update.factor_update(np.eye(2) / 2.0, inst.outcomes)


def test_factor_update_needs_one_kraus_stack_per_state(rng):
    inst = random_instrument(2, 3, 1, rng)
    with pytest.raises(DimensionMismatch):
        update.factor_update(np.eye(2) / 2.0, inst.outcomes[:, 0])  # no Kraus-set axis
    with pytest.raises(DimensionMismatch):
        update.factor_update(np.stack([np.eye(2) / 2.0] * 2), inst.outcomes[None])


def test_identify_measurement_round_trip(rng):
    rho = linalg.random_state(3, rng)
    inst = random_instrument(3, 4, 1, rng)
    fac = update.factor_update(rho, inst.outcomes)
    refinement = [(p, r) for p, r, _, _ in live_outcomes(fac)]
    recovered = update.identify_measurement(rho, refinement)
    for original, e in zip(inst.effects(), recovered.elements):
        assert np.linalg.norm(original - e) <= 1e-8


def test_identify_measurement_trivial_refinement(rng):
    rho = linalg.random_state(2, rng)
    povm = update.identify_measurement(rho, [(1.0, rho)])
    assert np.linalg.norm(povm[0] - np.eye(2)) <= 1e-10


def test_identify_measurement_projective_from_mixed():
    rho = np.eye(3) / 3.0
    refinement = [
        (1.0 / 3.0, linalg.projector(linalg.ket(i, 3))) for i in range(3)
    ]
    povm = update.identify_measurement(rho, refinement)
    for i, e in enumerate(povm.elements):
        assert np.linalg.norm(e - linalg.projector(linalg.ket(i, 3))) <= 1e-10


def test_identify_measurement_rejects_bad_refinement(rng):
    rho = linalg.random_state(2, rng)
    other = linalg.random_state(2, rng)
    with pytest.raises(InconsistentRefinement):
        update.identify_measurement(rho, [(1.0, other)])


def test_identify_measurement_rejects_rank_deficient(rng):
    rho = linalg.random_state(3, rng, rank=1)
    with pytest.raises(RankDeficientState):
        update.identify_measurement(rho, [(1.0, rho)])


# --------------------------------------------------------------------------
# Dilations.


def test_instrument_dilation_no_interaction_keeps_state(rng):
    rho_a = linalg.random_state(2, rng)
    inst = update.instrument_from_dilation(rho_a, np.eye(4), basis_projectors(2))
    rho = linalg.random_state(2, rng)
    for post in outcome_updates(rho, inst)[1]:
        if post is not None:
            assert np.linalg.norm(post - rho) <= 1e-10


def test_instrument_dilation_cnot_is_projective_collapse(rng):
    anc = linalg.projector(linalg.ket(0, 2))
    inst = update.instrument_from_dilation(anc, CNOT, basis_projectors(2))
    rho = linalg.random_state(2, rng)
    for i, post in enumerate(outcome_updates(rho, inst)[1]):
        if post is None:
            continue
        assert np.linalg.norm(post - linalg.projector(linalg.ket(i, 2))) <= 1e-9


def test_instrument_dilation_matches_joint_picture(rng):
    d_sys, d_anc = 2, 3
    for _ in range(30):
        u = linalg.random_unitary(d_sys * d_anc, rng)
        rho_a = linalg.random_state(d_anc, rng)
        meas = basis_projectors(d_anc)
        inst = update.instrument_from_dilation(rho_a, u, meas)
        # Completeness.
        total = sum(
            linalg.dagger(a) @ a for ops in inst.outcomes for a in ops
        )
        assert np.linalg.norm(total - np.eye(d_sys)) <= 1e-9
        # Posteriors agree with the projection-at-a-distance picture.
        rho_s = linalg.random_state(d_sys, rng)
        joint = u @ linalg.tensor(rho_s, rho_a) @ linalg.dagger(u)
        probs, posts = outcome_updates(rho_s, inst)
        for d, (prob, post) in enumerate(zip(probs, posts)):
            proj = linalg.tensor(np.eye(d_sys), meas[d])
            reduced = linalg.trace_out_factor(proj @ joint @ proj, (d_sys, d_anc), 1)
            p = np.trace(reduced).real
            assert abs(prob - p) <= 1e-9
            if p > 1e-9:
                assert np.linalg.norm(post - reduced / p) <= 1e-9


def test_dilations_reject_malformed_ancillas(rng):
    rho_a = linalg.random_state(3, rng)
    u = linalg.random_unitary(6, rng)
    dilate = update.instrument_from_dilation
    with pytest.raises(DimensionMismatch, match="ancilla projectors"):
        dilate(rho_a, u, basis_projectors(2))
    with pytest.raises(DimensionMismatch, match="multiple of the ancilla"):
        dilate(rho_a, linalg.random_unitary(4, rng), basis_projectors(3))
    with pytest.raises(NotHermitian, match="ancilla state"):
        dilate(np.array([[0.5, 0.5], [0.0, 0.5]]), np.eye(4), basis_projectors(2))
    with pytest.raises(NotPsd, match="ancilla state"):
        dilate(np.diag([1.2, -0.2]), np.eye(4), basis_projectors(2))


def test_dilation_from_instrument_round_trip(rng):
    for _ in range(10):
        d = int(rng.integers(2, 4))
        inst = random_instrument(d, int(rng.integers(2, 4)), 1, rng)
        anc, u, meas = update.dilation_from_instrument(inst)
        rebuilt = update.instrument_from_dilation(anc, u, meas)
        rho = linalg.random_state(d, rng)
        (probs, posts), (probs_b, posts_b) = (outcome_updates(rho, i) for i in (inst, rebuilt))
        assert np.abs(probs - probs_b).max() <= 1e-9
        for a, b in zip(posts, posts_b):
            if a is not None:
                assert np.linalg.norm(a - b) <= 1e-9


# --------------------------------------------------------------------------
# Remote measurement non-disturbance.


def test_remote_measurement_nondisturbance_and_induced_povm(rng):
    # Measuring one side of a pure entangled state leaves the other side's
    # average marginal unchanged, and each conditional state is the pure
    # Bayes refinement of the marginal by a POVM: the measured effects
    # transposed in the Schmidt basis and rotated from the A basis to the
    # B one.  With psi written as a matrix amp = u_a diag(s) vh, that POVM
    # is F_d = W E_d^T W^dag with W = vh^T u_a^T.
    for _ in range(20):
        d = 2
        amp = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        amp = amp / np.linalg.norm(amp)
        psi = amp.reshape(-1)
        joint = np.outer(psi, psi.conj())
        rho_b = linalg.trace_out_factor(joint, (d, d), 0)
        inst = random_instrument(d, 3, 1, rng)
        u_a, _, vh = np.linalg.svd(amp)
        w = vh.T @ u_a.T
        root = linalg.mat_sqrt(rho_b)
        average = np.zeros((d, d), dtype=complex)
        total_f = np.zeros((d, d), dtype=complex)
        for (a,) in inst.outcomes:
            big = linalg.tensor(a, np.eye(d))
            after = big @ joint @ linalg.dagger(big)
            p = np.trace(after).real
            cond = linalg.trace_out_factor(after, (d, d), 0)
            average += cond
            f = w @ (linalg.dagger(a) @ a).T @ linalg.dagger(w)
            total_f += f
            predicted = root @ f @ root
            assert abs(np.trace(predicted).real - p) <= 1e-9
            assert np.linalg.norm(predicted - cond) <= 1e-9
        assert np.linalg.norm(total_f - np.eye(d)) <= 1e-9
        assert np.linalg.norm(average - rho_b) <= 1e-9


# --------------------------------------------------------------------------
# Channels and Choi operators.


def test_identity_channel_choi_is_maximally_entangled():
    choi = update.channel_choi(update.make_channel([np.eye(2)]))
    psi = maximally_entangled_ket(2)
    assert np.linalg.norm(choi - np.outer(psi, psi.conj())) <= 1e-12
    assert np.trace(choi).real == pytest.approx(1.0)


def test_depolarizing_channel_choi_is_maximally_mixed():
    ch = update.make_channel([p / 2.0 for p in linalg.paulis])
    assert np.linalg.norm(update.channel_choi(ch) - np.eye(4) / 4.0) <= 1e-12


def test_unitary_channel_choi_is_pure(rng):
    u = linalg.random_unitary(3, rng)
    choi = update.channel_choi(update.make_channel([u]))
    vals = np.linalg.eigvalsh(choi)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.abs(vals[:-1]).max() <= 1e-10


def test_choi_round_trip_on_random_channels(rng):
    for _ in range(50):
        d = int(rng.integers(2, 4))
        inst = random_instrument(d, 1, int(rng.integers(1, 5)), rng)
        ch = update.make_channel(inst.outcomes[0])
        choi = update.channel_choi(ch)
        # CP <-> PSD, TP <-> output partial trace I/d (hence unit trace).
        assert np.linalg.eigvalsh(choi)[0] >= -1e-9
        assert np.trace(choi).real == pytest.approx(1.0, abs=1e-9)
        reduced = linalg.trace_out_factor(choi, (d, d), 1)
        assert np.linalg.norm(reduced - np.eye(d) / d) <= 1e-9
        back = update.choi_channel(choi)
        rho = linalg.random_state(d, rng)
        assert np.linalg.norm(ch.apply(rho) - back.apply(rho)) <= 1e-9
    # A channel is an instrument with its outcome ignored: same Kraus set, same Choi.
    for d in (2, 3):
        inst = random_instrument(d, 3, 2, rng)
        flat = update.make_channel(inst.outcomes.reshape(-1, d, d))
        assert np.array_equal(update.channel_choi(inst), update.channel_choi(flat))


def test_choi_channel_rejects_non_psd():
    bad = np.diag([0.75, 0.75, 0.25, -0.25]).astype(complex)
    with pytest.raises(NotCp):
        update.choi_channel(bad)


def test_choi_channel_at_the_psd_tolerance_and_the_rank_cut():
    # The identity channel's Choi operator (largest eigenvalue 1) with a small
    # entry on |01><01|: -5e-10 is beyond PSD_TOL, the one positivity
    # tolerance, so not completely positive; +2e-10 is above the rank cut,
    # RANK_TOL times the largest eigenvalue, and gives a second Kraus operator;
    # +-5e-11 is noise on either side.
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    choi = np.outer(phi, phi.conj())
    choi[1, 1] = -5e-10
    with pytest.raises(NotCp, match="-5.000e-10"):
        update.choi_channel(choi)
    for entry, kraus_rank in ((-5e-11, 1), (5e-11, 1), (2e-10, 2)):
        choi[1, 1] = entry
        assert len(update.choi_channel(choi).outcomes[0]) == kraus_rank


def test_choi_channel_rejects_non_hermitian():
    # The Hermitian part is the identity channel's Choi operator, so a check
    # on it alone accepts the input and recovers a channel 0.05 away.
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    bad = np.outer(phi, phi.conj())
    bad[0, 3] += 0.05
    bad[3, 0] -= 0.05
    with pytest.raises(NotHermitian):
        update.choi_channel(bad)


def test_choi_channel_rejects_non_trace_preserving():
    # PSD with unit trace is not enough: the output marginal must be I/d.
    bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(NotTracePreserving):
        update.choi_channel(bad)


def test_controlled_unitary_channel_limits():
    u0 = linalg.random_unitary(2, 0)
    ch = update.controlled_unitary_channel(u0, linalg.sigma_z, 1.0, 0.0)
    rho = linalg.random_state(2, 1)
    assert np.linalg.norm(ch.apply(rho) - u0 @ rho @ linalg.dagger(u0)) <= 1e-12


def test_controlled_unitary_phase_damping():
    s = 1.0 / np.sqrt(2.0)
    ch = update.controlled_unitary_channel(np.eye(2), linalg.sigma_z, s, s)
    plus = linalg.projector(np.array([1.0, 1.0]))
    assert np.linalg.norm(ch.apply(plus) - np.eye(2) / 2.0) <= 1e-12


def test_controlled_unitary_channel_choi_is_state(rng):
    for _ in range(10):
        u0 = linalg.random_unitary(2, rng)
        u1 = linalg.random_unitary(2, rng)
        amp = linalg.random_ket(2, rng)
        ch = update.controlled_unitary_channel(u0, u1, amp[0], amp[1])
        choi = update.channel_choi(ch)
        assert np.linalg.eigvalsh(choi)[0] >= -1e-12
        assert np.trace(choi).real == pytest.approx(1.0, abs=1e-12)


def test_controlled_unitary_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        update.controlled_unitary_channel(np.eye(2), np.eye(2), 1.0, 1.0)


# --------------------------------------------------------------------------
# Remote steering.


def test_steering_schmidt_basis_gives_pure_unitaries():
    u0 = linalg.random_unitary(2, 10)
    u1 = linalg.random_unitary(2, 11)
    far = effects.validate_povm(
        [linalg.projector(linalg.ket(i, 2)) for i in range(2)]
    )
    rep = update.remote_steering_experiment(far, u0=u0, u1=u1, alpha=0.6, beta=0.8)
    c0 = update.channel_choi(update.make_channel([u0]))
    c1 = update.channel_choi(update.make_channel([u1]))
    assert np.linalg.norm(rep.conditional_chois[0] - c0) <= 1e-12
    assert np.linalg.norm(rep.conditional_chois[1] - c1) <= 1e-12
    assert rep.far_probs[0] == pytest.approx(0.36)


def test_steering_rejects_bad_circuit_parameters():
    far = effects.validate_povm([np.eye(2)])
    with pytest.raises(NotNormalized):
        update.remote_steering_experiment(far, seed=1, alpha=1.0, beta=1.0)
    with pytest.raises(NotNormalized):
        update.remote_steering_experiment(far, seed=1, alpha=0.6, beta=0.6)
    with pytest.raises(NotUnitary):
        update.remote_steering_experiment(
            far, u0=2.0 * np.eye(2), u1=np.eye(2), alpha=0.6, beta=0.8
        )


def test_steering_trivial_povm_recovers_unconditional():
    far = effects.validate_povm([np.eye(2)])
    rep = update.remote_steering_experiment(far, seed=3)
    assert np.linalg.norm(rep.conditional_chois[0] - rep.unconditional_choi) <= 1e-12


def test_steering_average_is_povm_independent(rng):
    reports = []
    for k in range(5):
        far = effects.validate_povm(linalg.random_povm(2, int(rng.integers(2, 5)), rng))
        reports.append(update.remote_steering_experiment(far, seed=99))
    for rep in reports:
        assert rep.max_deviation <= 1e-9
    for other in reports[1:]:
        assert np.abs(reports[0].averaged_choi - other.averaged_choi).max() <= 1e-9


# --------------------------------------------------------------------------
# Teleportation.


def test_teleport_basis_state_all_outcomes():
    t = update.teleport(np.array([1.0, 0.0]))
    for outcome in range(4):
        assert t.fidelities[outcome] == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(
            t.final_states[outcome] - linalg.projector(linalg.ket(0, 2))
        ) <= 1e-9


def test_teleport_random_states_full_oracle(rng):
    for _ in range(50):
        psi = linalg.random_ket(2, rng)
        t = update.teleport(psi)
        for outcome in range(4):
            assert abs(t.fidelities[outcome] - 1.0) <= 1e-9
            assert np.abs(t.outcome_probs - 0.25).max() <= 1e-12
            assert np.abs(t.bob_marginal_before - np.eye(2) / 2.0).max() <= 1e-12
            assert np.abs(
                t.bob_marginal_unconditional - np.eye(2) / 2.0
            ).max() <= 1e-12


def test_teleport_conditional_states_are_pauli_rotations(rng):
    psi = linalg.random_ket(2, rng)
    rotations = [np.eye(2), linalg.sigma_z, linalg.sigma_x, linalg.sigma_z @ linalg.sigma_x]
    t = update.teleport(psi)
    for outcome, w in enumerate(rotations):
        expected = w @ psi  # conditional description before correction
        overlap = abs(np.vdot(expected, t.conditional_kets[outcome]))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_teleport_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        update.teleport(np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        update.teleport(np.eye(3)[0])


# --------------------------------------------------------------------------
# Batched factorization against the per-outcome algorithm.


def test_batched_factorization_matches_per_outcome_reference():
    g = np.random.default_rng(4242)
    for _ in range(200):
        d = int(g.integers(2, 5))
        state = linalg.random_state(d, g)
        inst = random_instrument(d, int(g.integers(2, 6)), 1, g)
        assert_matches_reference(update.factor_update(state, inst.outcomes), state, inst.outcomes)


@pytest.mark.parametrize("d", range(2, 9))
def test_batched_factorization_edge_cases(d):
    g = np.random.default_rng(d)

    def check(state, inst):
        fac = update.factor_update(state, inst.outcomes)
        assert_matches_reference(fac, state, inst.outcomes)
        return fac

    # Maximally mixed prior under rank-two projectors (the last of rank one at
    # odd D): degenerate refinements, and a rank-deficient B.
    pairs = np.arange(d) // 2
    split = [np.diag((pairs == j).astype(float)) for j in range(pairs[-1] + 1)]
    povm = effects.validate_povm(split if d > 2 else [np.eye(2) / 2.0] * 2)
    unitaries = [linalg.random_unitary(d, g) for _ in povm]
    for inst in (update.efficient_from_povm(povm), update.efficient_from_povm(povm, unitaries)):
        check(np.eye(d) / d, inst)
    # Full-rank, rank D - 1 and rank-one priors.
    inst = random_instrument(d, 3, 1, g)
    for rank in (d, d - 1, 1):
        check(linalg.random_state(d, g, rank=rank), inst)
    # An outcome below the probability floor has no refinement.
    fac = check(linalg.projector(linalg.ket(0, d)), update.efficient_from_povm(basis_projectors(d)))
    assert (~fac.live).tolist() == [False] + [True] * (d - 1)
    assert fac.probabilities[1:].tolist() == [0.0] * (d - 1)
