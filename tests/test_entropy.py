import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (
    basis_entropy_mc,
    log1p_subentropy,
    old_mean_entropy_mc,
    random_basis_probabilities,
    random_instrument,
    shannon,
)
from qbayes import effects, entropy, linalg, update
from qbayes.errors import NotAState

# Independent oracle for the maximally-mixed-qubit subentropy: evaluate the
# raw eigenvalue formula at two perturbation scales and Richardson
# extrapolate, without going through the library's integral.


def _raw_subentropy(vals):
    q = 0.0
    for k, lam in enumerate(vals):
        prod = 1.0
        for i, mu in enumerate(vals):
            if i != k:
                prod *= lam / (lam - mu)
        q -= prod * lam * np.log2(lam)
    return q


def _richardson_half_identity(eps):
    q1 = _raw_subentropy([0.5 + eps, 0.5 - eps])
    q2 = _raw_subentropy([0.5 + eps / 2.0, 0.5 - eps / 2.0])
    return (4.0 * q2 - q1) / 3.0


def test_half_identity_oracle_is_stable():
    a = _richardson_half_identity(1e-6)
    b = _richardson_half_identity(1e-7)
    assert abs(a - b) <= 1e-8
    assert a == pytest.approx(1 - 1 / (2 * np.log(2)), abs=1e-6)


def test_shannon_values():
    assert shannon([1.0, 0.0]) == 0.0
    assert shannon(np.full(4, 0.25)) == pytest.approx(2.0)
    assert shannon([0.5, 0.25, 0.25]) == pytest.approx(1.5)


def test_von_neumann_values(rng):
    psi = linalg.random_ket(3, rng)
    assert entropy.von_neumann(np.outer(psi, psi.conj())) == pytest.approx(0.0, abs=1e-12)
    assert entropy.von_neumann(np.eye(2) / 2.0) == pytest.approx(1.0)
    rho = linalg.random_state(4, rng)
    spectrum = np.clip(np.linalg.eigvalsh(rho), 1e-300, None)
    oracle = float(-(spectrum * np.log2(spectrum)).sum())
    assert entropy.von_neumann(rho) == pytest.approx(oracle, abs=1e-10)


def test_subentropy_pure_state_vanishes(rng):
    for d in (2, 3, 4):
        psi = linalg.random_ket(d, rng)
        assert entropy.subentropy(np.outer(psi, psi.conj())) == pytest.approx(0.0, abs=1e-9)


def test_subentropy_half_identity_matches_oracle():
    q = entropy.subentropy(np.eye(2) / 2.0)
    assert q == pytest.approx(_richardson_half_identity(1e-6), abs=1e-8)
    assert q == pytest.approx(1 - 1 / (2 * np.log(2)), abs=1e-6)


def test_mean_entropy_half_identity_is_one_bit():
    assert entropy.mean_entropy(np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-9)


def test_mean_entropy_pure_qubit():
    psi = linalg.random_ket(2, 17)
    rho = np.outer(psi, psi.conj())
    assert entropy.mean_entropy(rho) == pytest.approx(0.5 / np.log(2.0), abs=1e-9)


def test_subentropy_cap(rng):
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        q = entropy.subentropy(linalg.random_state(d, rng))
        assert -1e-12 <= q <= entropy.SUBENTROPY_CAP + 1e-6
        cap_d = np.log2(d) - entropy.harmonic_tail(d)
        assert q <= cap_d + 1e-6


def test_subentropy_symmetric_and_continuous_across_degeneracy():
    # |Q(l, l') - Q(l + delta, l' - delta)| stays O(delta); the empirical
    # constant is reported through the assertion bound.
    base = np.array([0.65, 0.35])
    q0 = entropy.subentropy(np.diag(base).astype(complex))
    q_swapped = entropy.subentropy(np.diag(base[::-1]).astype(complex))
    assert q0 == pytest.approx(q_swapped, abs=1e-12)
    empirical_k = 0.0
    for delta in (1e-6, 1e-7, 1e-8):
        q1 = entropy.subentropy(np.diag([0.5 + delta, 0.5 - delta]).astype(complex))
        q2 = entropy.subentropy(np.diag([0.5, 0.5]).astype(complex))
        empirical_k = max(empirical_k, abs(q1 - q2) / delta)
    assert empirical_k <= 100.0


@pytest.mark.parametrize("d", range(2, 9))
def test_subentropy_maximally_mixed_closed_form(d):
    # Q(I/D) = log2 D - (H_D - 1)/ln 2 with H_D the D-th harmonic number,
    # so the mean entropy of I/D is exactly log2 D.
    rho = np.eye(d) / d
    closed = np.log2(d) - sum(1.0 / k for k in range(2, d + 1)) / np.log(2.0)
    q = entropy.subentropy(rho)
    assert abs(q - closed) <= 1e-12
    assert q < entropy.SUBENTROPY_CAP
    assert abs(entropy.mean_entropy(rho) - np.log2(d)) <= 1e-12


def test_subentropy_continuous_across_triple_cluster():
    q0 = entropy.subentropy(np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex))
    for g in 10.0 ** -np.arange(3, 13):
        q = entropy.subentropy(np.diag([0.4, 0.2 + g, 0.2, 0.2 - g]).astype(complex))
        assert abs(q - q0) <= g


def test_subentropy_zero_eigenvalues_drop_out():
    half = entropy.subentropy(np.eye(2) / 2.0)
    padded = entropy.subentropy(np.diag([0.5, 0.5, 0.0]).astype(complex))
    assert abs(padded - half) <= 1e-15
    q2 = entropy.subentropy(np.diag([0.7, 0.3]).astype(complex))
    q3 = entropy.subentropy(np.diag([0.7, 0.3 - 1e-13, 1e-13]).astype(complex))
    assert abs(q3 - q2) <= 1e-12


def test_subentropy_matches_raw_formula_on_random_states():
    g = np.random.default_rng(2024)
    for _ in range(200):
        rho = linalg.random_state(int(g.integers(2, 6)), g)
        raw = _raw_subentropy(np.linalg.eigvalsh(rho))
        assert abs(entropy.subentropy(rho) - raw) <= 1e-12


def spectra_cases(d, g):
    """Random, rank-deficient (exactly and up to noise), near-degenerate and
    power-law spectra."""
    cases = [g.dirichlet(np.ones(d), size=20)]
    for r in sorted({1, 2, d // 2, d - 1} - {0}):
        deficient = np.zeros((5, d))
        deficient[:, :r] = g.dirichlet(np.ones(r), size=5)
        cases.append(deficient)
    noisy = deficient + 1e-17 * np.abs(g.standard_normal((5, d)))  # as eigvalsh leaves them
    cases.append(noisy / noisy.sum(axis=1, keepdims=True))
    near = np.full((5, d), 1.0 / d) + 1e-9 * g.standard_normal((5, d))
    cases.append(near / near.sum(axis=1, keepdims=True))
    cases.append(g.dirichlet(np.full(d, 0.05), size=5))  # eigenvalues over many decades
    return np.concatenate(cases)


@pytest.mark.parametrize("d", [*range(2, 17), 24, 32, 48, 64, 128])
def test_polynomial_subentropy_matches_the_log1p_reference(d):
    vals = spectra_cases(d, np.random.default_rng(700 + d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = entropy._subentropy(vals)
    assert np.isfinite(got).all()
    assert np.abs(got - log1p_subentropy(vals)).max() <= 3e-14


def test_subentropy_blocks_change_no_value():
    vals = spectra_cases(5, np.random.default_rng(71))
    stacked = np.concatenate([vals] * 4)
    assert len(stacked) > 2 * entropy._QUAD_ROWS  # three blocks, the last one short
    whole = entropy._subentropy(stacked)
    assert np.array_equal(whole, np.concatenate([entropy._subentropy(vals)] * 4))
    assert all(entropy._subentropy(v) == q for v, q in zip(vals, whole))


def test_pure_spectra_give_exactly_zero_subentropy():
    # u g and delta T vanish at every node: no rounding is left over.
    assert entropy._subentropy(np.eye(6)).tolist() == [0.0] * 6
    assert entropy._subentropy(np.array([1.0])) == 0.0


def test_mean_entropy_matches_monte_carlo(rng):
    for _ in range(5):
        d = int(rng.integers(2, 4))
        rho = linalg.random_state(d, rng)
        exact = entropy.mean_entropy(rho)
        mc, se = entropy.mean_entropy_mc(rho, 20000, rng)
        assert abs(mc - exact) <= 3.0 * se


def test_eigenbasis_measurement_is_best(rng):
    rho = linalg.random_state(3, rng)
    vals, vecs = np.linalg.eigh(rho)
    eigen_meas = effects.validate_povm(
        [linalg.projector(vecs[:, i]) for i in range(3)]
    )
    h_eigen = shannon(effects.born(rho, eigen_meas))
    assert h_eigen == pytest.approx(entropy.von_neumann(rho), abs=1e-10)
    for _ in range(100):
        u = linalg.random_unitary(3, rng)
        meas = effects.validate_povm([linalg.projector(u[:, i]) for i in range(3)])
        assert shannon(effects.born(rho, meas)) >= h_eigen - 1e-10


def test_concavity_of_entropy_and_subentropy(rng):
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho0 = linalg.random_state(d, rng)
        rho1 = linalg.random_state(d, rng)
        for t in (0.1, 0.25, 0.5, 0.75, 0.9):
            mix = t * rho0 + (1 - t) * rho1
            for f in (entropy.von_neumann, entropy.subentropy):
                assert f(mix) >= t * f(rho0) + (1 - t) * f(rho1) - 1e-8


def test_refinement_gap_pure_state_is_zero(rng):
    psi = linalg.random_ket(3, rng)
    rho = np.outer(psi, psi.conj())
    inst = random_instrument(3, 3, 1, rng)
    s_gap, q_gap = entropy.refinement_gap(rho, inst)
    assert abs(s_gap) <= 1e-10
    assert abs(q_gap) <= 1e-10


def test_refinement_gap_projective_on_maximally_mixed():
    inst = update.efficient_from_povm(
        effects.validate_povm([linalg.projector(linalg.ket(i, 2)) for i in range(2)])
    )
    s_gap, q_gap = entropy.refinement_gap(np.eye(2) / 2.0, inst)
    assert s_gap == pytest.approx(1.0, abs=1e-9)
    assert q_gap >= -1e-10


def test_refinement_inequalities_sweep():
    for trials, dim, seed in ((300, 2, 7), (200, 3, 8)):
        report = entropy.check_refinement_inequalities(trials=trials, dim=dim, seed=seed)
        for gaps in (report.von_neumann_gaps, report.subentropy_gaps, report.classical_gaps):
            assert gaps.shape == (trials,) and gaps.min() >= -1e-8


def test_refinement_sweep_builds_no_kraus_operators(monkeypatch):
    expected = entropy.check_refinement_inequalities(trials=40, dim=3, seed=12)

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep reads only posterior spectra")

    for module, name in [(update, "kraus_from_normals"), (linalg, "mat_sqrt"), (linalg, "unitary_from_normals")]:
        monkeypatch.setattr(module, name, refuse)
    gaps = entropy.check_refinement_inequalities(trials=40, dim=3, seed=12)
    for field in ("von_neumann_gaps", "subentropy_gaps", "classical_gaps"):
        assert np.array_equal(getattr(gaps, field), getattr(expected, field))


def test_classical_refinement_gap_oracle(rng):
    joint = rng.random((4, 3))
    joint /= joint.sum()
    prior = joint.sum(axis=1)
    expected = shannon(prior)
    for d in range(3):
        pd = joint[:, d].sum()
        expected -= pd * shannon(joint[:, d] / pd)
    gap = entropy._classical_gaps(joint[None])[0]
    assert gap == pytest.approx(expected, abs=1e-12)
    assert gap >= -1e-12


# --------------------------------------------------------------------------
# Stacked entropy functions.


def _random_stack(d, n, g):
    return np.stack([linalg.random_state(d, g, rank=int(g.integers(1, d + 1))) for _ in range(n)])


@pytest.mark.parametrize("d", range(2, 9))
def test_stacked_functionals_equal_per_state_loop(d):
    g = np.random.default_rng(600 + d)
    states = _random_stack(d, 200, g)
    for f in (entropy.von_neumann, entropy.subentropy, entropy.mean_entropy):
        stacked = f(states)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (200,)
        loop = np.array([f(rho) for rho in states])
        assert np.abs(stacked - loop).max() <= 1e-15
        # Leading axes beyond one are kept.
        assert np.array_equal(f(states.reshape(4, 50, d, d)), stacked.reshape(4, 50))


def test_single_operator_gives_float(rng):
    rho = linalg.random_state(3, rng)
    for f in (entropy.von_neumann, entropy.subentropy, entropy.mean_entropy):
        assert type(f(rho)) is float
        assert type(f(np.eye(2) / 2.0)) is float
    assert [type(v) for v in entropy.mean_entropy_mc(rho, 100, 0)] == [float, float]


def test_stack_with_a_non_state_names_its_index(rng):
    states = _random_stack(3, 6, rng)
    states[2] = 2.0 * states[2]  # trace 2
    states[4] = states[4] @ np.diag([1.0, 1.0, 2.0])  # not Hermitian
    mc = functools.partial(entropy.mean_entropy_mc, samples=100, seed=0)
    for f in (entropy.von_neumann, entropy.subentropy, entropy.mean_entropy, mc):
        with pytest.raises(NotAState, match=r"^state 2 "):
            f(states)
        with pytest.raises(NotAState, match=r"^state 1 .*Hermitian False"):
            f(states[3:])  # states[4] is entry 1 of this stack
    negative = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(NotAState, match=r"^state 1 .*eigenvalue -2\.000e-01"):
        entropy.subentropy(np.stack([states[0], negative]))
    with pytest.raises(NotAState, match=r"^operator "):
        entropy.von_neumann(negative)


def test_check_refinement_inequalities_needs_a_trial():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="at least 1 trial"):
            entropy.check_refinement_inequalities(trials=trials, seed=1)


# --------------------------------------------------------------------------
# Monte-Carlo mean entropy.


def _qr_reference(rho, samples, g):
    """Outcome probabilities in the bases of a batched Householder QR."""
    d = rho.shape[0]
    z = g.normal(size=(samples, d, d)) + 1j * g.normal(size=(samples, d, d))
    q = np.linalg.qr(z)[0]
    return np.einsum("nmi,ml,nli->ni", q.conj(), rho, q).real


@pytest.mark.parametrize("d", [2, 3, 8, 16])
def test_gram_schmidt_probabilities_match_qr(d):
    rho = linalg.random_state(d, 70 + d)
    probs = random_basis_probabilities(rho, 300, np.random.default_rng(d))
    reference = _qr_reference(rho, 300, np.random.default_rng(d))
    assert probs.shape == (300, d)
    assert np.abs(probs - reference).max() <= 1e-14


def test_mean_entropy_mc_matches_qr_mean():
    """The basis reference's estimate is the QR bases' sample mean and SE."""
    rho = linalg.random_state(3, 5)
    mean, se = basis_entropy_mc(rho, 4000, np.random.default_rng(11))
    p = np.clip(_qr_reference(rho, 4000, np.random.default_rng(11)), 1e-300, None)
    h = -(p * np.log2(p)).sum(axis=1)
    assert abs(mean - h.mean()) <= 1e-13
    assert abs(se - h.std(ddof=1) / np.sqrt(4000)) <= 1e-13


@pytest.mark.parametrize("d", range(2, 9))
def test_mean_entropy_mc_agrees_with_the_basis_reference(d):
    """The spectral estimate and the Haar-basis one agree within 3 combined SEs."""
    g = np.random.default_rng(90 + d)
    for rank in (1, 2, d):
        rho = linalg.random_state(d, g, rank=rank)
        mc, se = entropy.mean_entropy_mc(rho, 20000, g)
        ref, ref_se = basis_entropy_mc(rho, 4000, g)
        assert abs(mc - ref) <= 3.0 * np.hypot(se, ref_se)


def test_mean_entropy_mc_stack_equals_per_state_calls():
    g = np.random.default_rng(4)
    states = _random_stack(4, 6, g)
    mean, se = entropy.mean_entropy_mc(states.reshape(2, 3, 4, 4), 500, 7)
    assert mean.shape == se.shape == (2, 3)
    g = np.random.default_rng(7)
    loop = np.array([entropy.mean_entropy_mc(rho, 500, g) for rho in states])
    assert np.array_equal(np.stack([mean.ravel(), se.ravel()], axis=1), loop)


@pytest.mark.parametrize("d", range(2, 9))
def test_mean_entropy_mc_on_degenerate_spectra(d):
    """Constant or nearly collinear controls give finite values and no warning.

    At I/D the samples are constant up to rounding and the reported SE (0 to
    about 1e-19) misses the rounding error of about 1e-16, hence the
    absolute 1e-12.
    """
    g = np.random.default_rng(40 + d)
    tilt = np.zeros(d)
    tilt[:2] = 1e-9, -1e-9
    u = linalg.random_unitary(d, g)
    states = [np.eye(d) / d, linalg.random_state(d, g, rank=1), linalg.random_state(d, g, rank=2)]
    states += [u @ np.diag(1.0 / d + s * tilt) @ u.conj().T for s in (1.0, -1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mc, se = entropy.mean_entropy_mc(np.stack(states), 20000, g)
    assert np.isfinite(mc).all() and np.isfinite(se).all()
    assert (np.abs(mc - entropy.mean_entropy(np.stack(states))) <= 3.0 * se + 1e-12).all()


def test_mean_entropy_mc_standard_errors_are_calibrated():
    """Over 800 estimates the z-scores against the closed form spread as N(0, 1)."""
    g = np.random.default_rng(2025)
    z = []
    for d in (2, 3, 5, 8):
        states = _random_stack(d, 200, g)
        mc, se = entropy.mean_entropy_mc(states, 4000, g)
        z.append((mc - entropy.mean_entropy(states)) / se)
    assert 0.9 <= np.std(z) <= 1.1
    assert abs(np.mean(z)) <= 0.2


def test_mean_entropy_mc_needs_two_samples():
    g = np.random.default_rng(3)
    before = g.bit_generator.state
    for samples in (1, 0, -1):
        with pytest.raises(ValueError, match="at least 2 samples"):
            entropy.mean_entropy_mc(np.eye(2) / 2.0, samples, g)
    assert g.bit_generator.state == before


def _reference_states(d, g):
    """A random state, I/D, a rank-deficient state and a (2, 3) random stack."""
    return [
        linalg.random_state(d, g),
        np.eye(d) / d,
        linalg.random_state(d, g, rank=max(1, d // 2)),
        _random_stack(d, 6, g).reshape(2, 3, d, d),
    ]


@pytest.mark.parametrize("samples", [2, 3, 4, 100, 20000])
@pytest.mark.parametrize("d", range(2, 9))
def test_mean_entropy_mc_is_bitwise_the_fresh_array_reference(d, samples):
    # k = min(3, samples - 2) controls: 0, 1 and 2 controls give the workspace
    # fewer rows than the (D, n) exponential block needs.
    for i, rho in enumerate(_reference_states(d, np.random.default_rng(60 + d))):
        g, g_ref = np.random.default_rng([d, samples, i]), np.random.default_rng([d, samples, i])
        mean, se = entropy.mean_entropy_mc(rho, samples, g)
        ref_mean, ref_se = old_mean_entropy_mc(rho, samples, g_ref)
        assert np.asarray(mean).tobytes() == ref_mean.tobytes()
        assert np.asarray(se).tobytes() == ref_se.tobytes()
        assert g.bit_generator.state == g_ref.bit_generator.state


def _mc_peak_bytes(states, samples):
    entropy.mean_entropy_mc(states, samples, 1)
    tracemalloc.start()
    try:
        entropy.mean_entropy_mc(states, samples, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mean_entropy_mc_holds_one_workspace_whatever_the_stack():
    # One call holds max(D, 4) + 3 = 7 rows of n doubles (1,094 KiB at D = 3,
    # n = 20,000) for any number of states.  Allocating the work arrays per
    # state peaked at 1,568 KiB (1.43 x); the workspace peaks at 1,118 KiB
    # (1.02 x).
    n = 20000
    workspace = 7 * n * 8
    g = np.random.default_rng(8)
    peaks = [_mc_peak_bytes(_random_stack(3, m, g), n) for m in (5, 50)]
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024
    assert max(peaks) <= 1.25 * workspace
