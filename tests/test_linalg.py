import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_hermitian
from qbayes import linalg
from qbayes.errors import DimensionMismatch, NotHermitian, SingularOperator

RECONSTRUCTION_TOL = 1e-10
SQRT_TOL = 1e-9


def reconstruct(eig):
    """V diag(l) V^dag of an eigendecomposition (or of each one of a stack)."""
    vals, v = eig
    return (v * vals[..., None, :]) @ linalg.dagger(v)


def test_eig_identity():
    vals, _ = linalg.eig_hermitian(np.eye(2))
    assert np.allclose(vals, [1.0, 1.0])


def test_eig_sigma_z_sorted_descending():
    vals, vecs = linalg.eig_hermitian(linalg.sigma_z)
    assert np.allclose(vals, [1.0, -1.0])
    assert abs(abs(vecs[0, 0]) - 1.0) < 1e-12
    assert abs(abs(vecs[1, 1]) - 1.0) < 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_eig_reconstructs_random_hermitian(seed):
    m = random_hermitian(4, seed)
    eig = linalg.eig_hermitian(m)
    scale = max(np.linalg.norm(m), 1.0)
    assert np.linalg.norm(reconstruct(eig) - m) <= RECONSTRUCTION_TOL * scale
    v = eig[1]
    assert np.linalg.norm(v.conj().T @ v - np.eye(4)) < 1e-12


def test_sqrt_identity_and_diagonal():
    assert np.allclose(linalg.mat_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(linalg.mat_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_sqrt_squares_back(seed):
    m = linalg.random_state(3, seed)
    root = linalg.mat_sqrt(m)
    assert np.linalg.norm(root @ root - m) <= SQRT_TOL * np.linalg.norm(m)


def test_invsqrt_multiplies_back():
    g = np.array([[2.0, 0.5 - 0.5j], [0.5 + 0.5j, 2.0]])
    w = linalg.mat_invsqrt(g)
    assert np.linalg.norm(w @ g @ w - np.eye(2)) < 1e-9


def test_invsqrt_rejects_singular():
    with pytest.raises(SingularOperator):
        linalg.mat_invsqrt(np.diag([1.0, 0.0]))


def test_polar_of_unitary_is_itself():
    u = linalg.random_unitary(3, 7)
    assert np.linalg.norm(linalg.polar_unitary(u) - u) < 1e-12


def test_polar_of_psd_is_identity():
    p = linalg.random_state(3, 8)
    assert np.linalg.norm(linalg.polar_unitary(p) - np.eye(3)) < 1e-10


@given(seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_polar_reconstructs(seed):
    g = np.random.default_rng(seed)
    a = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
    w = linalg.polar_unitary(a)
    pos = linalg.mat_sqrt(a.conj().T @ a)
    assert np.linalg.norm(w @ pos - a) <= 1e-9 * max(np.linalg.norm(a), 1.0)
    assert np.linalg.norm(w.conj().T @ w - np.eye(3)) <= 1e-9


def test_tensor_identity():
    assert np.allclose(linalg.tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_broadcasts_stacks_and_matches_kron_bitwise(rng):
    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a, b, c = draw(4, 1, 2, 2), draw(3, 3, 3), draw(2, 2)
    stacked = linalg.tensor(a, b)
    assert stacked.shape == (4, 3, 6, 6)
    for i, j in np.ndindex(4, 3):
        assert np.array_equal(stacked[i, j], linalg.tensor(a[i, 0], b[j]))
    pair = linalg.tensor(a[0, 0], b[0])
    assert np.array_equal(linalg.tensor(a[0, 0], b[0], c), linalg.tensor(pair, c))
    assert np.array_equal(pair, np.kron(a[0, 0], b[0]))
    assert np.array_equal(linalg.tensor(b[0], c), np.kron(b[0], c))


def test_tensor_flips_basis_state():
    xx = linalg.tensor(linalg.sigma_x, linalg.sigma_x)
    v00 = np.kron(linalg.ket(0, 2), linalg.ket(0, 2))
    v11 = np.kron(linalg.ket(1, 2), linalg.ket(1, 2))
    assert np.allclose(xx @ v00, v11)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_tensor_trace_multiplicative(seed):
    g = np.random.default_rng(seed)
    a, b, c, d = (g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2)) for _ in range(4))
    lhs = np.trace(linalg.tensor(a, b) @ linalg.tensor(c, d))
    rhs = np.trace(a @ c) * np.trace(b @ d)
    assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)


def test_partial_trace_product_state():
    rho = linalg.random_state(2, 1)
    sigma = linalg.random_state(3, 2)
    joint = linalg.tensor(rho, sigma)
    assert np.linalg.norm(linalg.trace_out_factor(joint, (2, 3), 0) - sigma) < 1e-12
    assert np.linalg.norm(linalg.trace_out_factor(joint, (2, 3), 1) - rho) < 1e-12


def test_partial_trace_maximally_entangled_marginal():
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    marginal = linalg.trace_out_factor(rho, (2, 2), 0)
    assert np.linalg.norm(marginal - np.eye(2) / 2.0) < 1e-12


@given(seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_partial_trace_preserves_trace_and_linearity(seed):
    g = np.random.default_rng(seed)
    m = g.normal(size=(6, 6)) + 1j * g.normal(size=(6, 6))
    n = g.normal(size=(6, 6)) + 1j * g.normal(size=(6, 6))
    for which in (0, 1):
        reduced = linalg.trace_out_factor(m, (2, 3), which)
        assert abs(np.trace(reduced) - np.trace(m)) < 1e-10
        combo = linalg.trace_out_factor(2.0 * m - 0.5 * n, (2, 3), which)
        direct = 2.0 * reduced - 0.5 * linalg.trace_out_factor(n, (2, 3), which)
        assert np.linalg.norm(combo - direct) < 1e-10


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.trace_out_factor(np.eye(5), (2, 3), 0)


def test_hs_inner_values():
    assert linalg.hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)
    assert abs(linalg.hs_inner(linalg.sigma_x, linalg.sigma_y)) < 1e-15


@given(seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_hs_inner_is_frobenius_norm(seed):
    g = np.random.default_rng(seed)
    a = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
    assert linalg.hs_inner(a, a).real == pytest.approx(np.linalg.norm(a) ** 2)


def test_random_state_valid():
    rho = linalg.random_state(2, 3)
    assert np.linalg.eigvalsh(rho)[0] > -1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_random_unitary_haar_columns():
    u = linalg.random_unitary(3, 4)
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-10


def test_random_povm_resolves_identity():
    elements = linalg.random_povm(2, 5, 11)
    assert np.linalg.norm(sum(elements) - np.eye(2)) <= 1e-10
    for e in elements:
        assert np.linalg.eigvalsh(e)[0] > -1e-12


def test_random_generators_deterministic_per_seed():
    assert np.array_equal(linalg.random_state(3, 42), linalg.random_state(3, 42))
    assert np.array_equal(linalg.random_unitary(3, 42), linalg.random_unitary(3, 42))


def test_trace_distance_pure_orthogonal():
    a = linalg.projector(linalg.ket(0, 2))
    b = linalg.projector(linalg.ket(1, 2))
    assert linalg.trace_distance(a, b) == pytest.approx(1.0)


def test_trace_distance_on_stacks_matches_pairwise(rng):
    a = np.stack([linalg.random_state(3, rng) for _ in range(5)])
    b = np.stack([linalg.random_state(3, rng) for _ in range(5)])
    pairwise = [linalg.trace_distance(x, y) for x, y in zip(a, b)]
    assert isinstance(pairwise[0], float)
    assert np.abs(linalg.trace_distance(a, b) - pairwise).max() <= 1e-15
    against_one = [linalg.trace_distance(x, b[0]) for x in a]
    assert np.abs(linalg.trace_distance(a, b[0]) - against_one).max() <= 1e-15


def test_trace_distance_of_two_dimensions_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="do not broadcast"):
        linalg.trace_distance(np.eye(2) / 2.0, np.eye(3) / 3.0)


def test_eig_hermitian_stack_matches_single_calls(rng):
    stack = np.stack([random_hermitian(3, rng) for _ in range(6)])
    eig = linalg.eig_hermitian(stack)
    for m, vals, vecs in zip(stack, *eig):
        single = linalg.eig_hermitian(m)
        assert np.array_equal(vals, single[0])
        assert np.array_equal(vecs, single[1])
    assert np.linalg.norm(reconstruct(eig) - stack) <= 1e-12
    assert list(linalg.is_hermitian(stack)) == [True] * 6
    stack[4, 0, 1] += 1.0
    assert list(linalg.is_hermitian(stack)) == [True] * 4 + [False, True]
    with pytest.raises(NotHermitian):
        linalg.eig_hermitian(stack)


def test_single_matrix_hermiticity_matches_the_stacked_check():
    """The flat norm of one matrix and the axis norm of a stack of one agree,
    also within a relative 1e-6 of the HERMITIAN_TOL edge on either side."""
    g = np.random.default_rng(2024)
    verdicts = []
    for _ in range(1000):
        d = int(g.integers(2, 9))
        h = random_hermitian(d, g)
        a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
        skew = (a - linalg.dagger(a)) / 2.0
        target = linalg.HERMITIAN_TOL * (1.0 + g.uniform(-1e-6, 1e-6))
        m = h + skew * (target * np.linalg.norm(h) / np.linalg.norm(2.0 * skew))
        single = linalg.is_hermitian(m)
        assert isinstance(single, bool)
        assert single == bool(linalg.is_hermitian(m[None])[0])
        verdicts.append(single)
    assert 300 < sum(verdicts) < 700
