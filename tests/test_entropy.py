import numpy as np
import pytest

from qbayes import effects, entropy, linalg, update

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
    assert a == pytest.approx(0.278652, abs=1e-6)


def test_shannon_values():
    assert entropy.shannon(np.array([1.0, 0.0])) == 0.0
    assert entropy.shannon(np.full(4, 0.25)) == pytest.approx(2.0)
    assert entropy.shannon(np.array([0.5, 0.25, 0.25])) == pytest.approx(1.5)


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
    assert q == pytest.approx(0.278652, abs=1e-6)


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
    h_eigen = entropy.shannon(effects.born(rho, eigen_meas))
    assert h_eigen == pytest.approx(entropy.von_neumann(rho), abs=1e-10)
    for _ in range(100):
        u = linalg.random_unitary(3, rng)
        meas = effects.validate_povm([linalg.projector(u[:, i]) for i in range(3)])
        assert entropy.shannon(effects.born(rho, meas)) >= h_eigen - 1e-10


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
    inst = update.random_instrument(3, 3, 1, rng)
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
    report = entropy.check_refinement_inequalities(trials=300, dim=2, seed=7)
    assert report.min_gap >= -1e-8
    report3 = entropy.check_refinement_inequalities(trials=200, dim=3, seed=8)
    assert report3.min_gap >= -1e-8


def test_entropy_report_identity(rng):
    rho = linalg.random_state(4, rng)
    report = entropy.entropy_report(rho)
    assert report.shannon == pytest.approx(report.von_neumann)
    assert report.mean_entropy == pytest.approx(
        entropy.harmonic_tail(4) + report.subentropy, abs=1e-9
    )
    for value in (report.shannon, report.von_neumann, report.subentropy):
        assert value >= -1e-12
    with_dist = entropy.entropy_report(rho, np.array([0.5, 0.25, 0.25]))
    assert with_dist.shannon == pytest.approx(1.5)


def test_classical_refinement_gap_oracle(rng):
    joint = rng.random((4, 3))
    joint /= joint.sum()
    prior = joint.sum(axis=1)
    expected = entropy.shannon(prior)
    for d in range(3):
        pd = joint[:, d].sum()
        expected -= pd * entropy.shannon(joint[:, d] / pd)
    assert entropy.classical_refinement_gap(joint) == pytest.approx(expected, abs=1e-12)
    assert entropy.classical_refinement_gap(joint) >= -1e-12
