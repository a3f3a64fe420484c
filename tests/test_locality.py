import numpy as np
import pytest

from helpers import random_effect
from qbayes import effects, linalg, locality
from qbayes.errors import DimensionMismatch


def test_trivial_tree_has_unit_table():
    frame = locality.BilinearFrame.from_state(linalg.random_state(4, 0), (2, 2))
    tree = locality.PovmTree(
        "AtoB",
        effects.validate_povm([np.eye(2)]),
        (effects.validate_povm([np.eye(2)]),),
    )
    rows = locality.tree_probabilities(frame, tree)
    assert len(rows) == 1
    assert rows[0][0] == pytest.approx(1.0)


def test_product_state_frame_factorizes(rng):
    rho_a = linalg.random_state(2, rng)
    rho_b = linalg.random_state(3, rng)
    frame = locality.BilinearFrame.from_state(linalg.tensor(rho_a, rho_b), (2, 3))
    tree = locality.random_tree(2, 3, rng, direction="AtoB")
    rows = locality.tree_probabilities(frame, tree)
    for i, e in enumerate(tree.first.elements):
        p_i = np.trace(rho_a @ e).real
        for j, f in enumerate(tree.branches[i].elements):
            assert rows[i][j] == pytest.approx(p_i * np.trace(rho_b @ f).real, abs=1e-12)


def test_entangled_frame_matches_sequential_measurement(rng):
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    frame = locality.BilinearFrame.from_state(rho, (2, 2))
    tree = locality.random_tree(2, 2, rng, direction="AtoB")
    rows = locality.tree_probabilities(frame, tree)
    for i, e in enumerate(tree.first.elements):
        root = linalg.mat_sqrt(e)
        big = linalg.tensor(root, np.eye(2)) @ rho @ linalg.tensor(root, np.eye(2))
        p_i = np.trace(big).real
        conditional = linalg.trace_out_factor(big, (2, 2), 0)
        for j, f in enumerate(tree.branches[i].elements):
            sequential = np.trace(conditional @ f).real
            assert rows[i][j] == pytest.approx(sequential, abs=1e-12)


def test_state_frames_normalize_on_random_trees(rng):
    for _ in range(50):
        rho = linalg.random_state(6, rng)
        frame = locality.BilinearFrame.from_state(rho, (2, 3))
        tree = locality.random_tree(2, 3, rng)
        assert locality.tree_total(frame, tree) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_joint_reconstruction_round_trip(dims, rng):
    da, db = dims
    for _ in range(100):
        rho = linalg.random_state(da * db, rng)
        frame = locality.BilinearFrame.from_state(rho, dims)
        rec = locality.reconstruct_joint_operator(frame)
        assert linalg.trace_distance(rec, rho) <= 1e-8


def test_joint_reconstruction_3x3_round_trip(rng):
    for _ in range(5):
        rho = linalg.random_state(9, rng)
        rec = locality.reconstruct_joint_operator(locality.BilinearFrame.from_state(rho, (3, 3)))
        assert linalg.trace_distance(rec, rho) <= 1e-8


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_swap_frame_reconstructs_the_swap_operator(dim):
    rec = locality.reconstruct_joint_operator(locality.BilinearFrame.from_swap(dim))
    assert np.abs(rec - locality.swap_operator(dim) / dim).max() <= 1e-10


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 4), (4, 2)])
def test_state_frame_table_matches_per_pair_trace(dims, rng):
    da, db = dims
    rho = linalg.random_state(da * db, rng)
    es = [random_effect(da, rng) for _ in range(5)] + list(effects.standard_sqm(da).base)
    fs = [random_effect(db, rng) for _ in range(4)] + list(effects.standard_sqm(db).base)
    table = locality.BilinearFrame.from_state(rho, dims).table(es, fs)
    expected = np.array([[np.trace(rho @ np.kron(e, f)).real for f in fs] for e in es])
    assert table.shape == (len(es), len(fs))
    assert np.abs(table - expected).max() <= 1e-14


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_swap_frame_table_is_trace_of_product(dim, rng):
    es = np.stack([random_effect(dim, rng) for _ in range(6)])
    fs = np.stack([random_effect(dim, rng) for _ in range(3)])
    table = locality.BilinearFrame.from_swap(dim).table(es, fs)
    expected = np.array([[np.trace(e @ f).real / dim for f in fs] for e in es])
    assert np.abs(table - expected).max() <= 1e-14


def effect_stack(dim, shape, rng):
    """A (*shape, dim, dim) stack of random effects."""
    return locality._effects_from_draws(rng.normal(size=shape + (2, dim, dim)), rng.random(shape))


def kron_oracle(rho, e, f):
    """tr(rho (E x F)) over the broadcast pairs of two effect stacks, one np.kron each."""
    lead = np.broadcast_shapes(e.shape[:-2], f.shape[:-2])
    e, f = np.broadcast_to(e, lead + e.shape[-2:]), np.broadcast_to(f, lead + f.shape[-2:])
    out = np.empty(lead)
    for i in np.ndindex(lead):
        out[i] = np.trace(rho @ np.kron(e[i], f[i])).real
    return out


# The stacks an operator frame meets: one pair, equal-length stacks, and the
# two tree shapes (first effects (N, 5, 1) against branches (N, 5, 5)).
PAIR_SHAPES = [((), ()), ((7,), (7,)), ((3, 5, 1), (3, 5, 5)), ((3, 5, 5), (3, 5, 1))]


@pytest.mark.parametrize("dim", range(2, 9))
def test_swap_frame_pairs_and_tree_stacks_are_trace_of_product(dim, rng):
    frame = locality.BilinearFrame.from_swap(dim)
    for shape_e, shape_f in PAIR_SHAPES:
        e, f = effect_stack(dim, shape_e, rng), effect_stack(dim, shape_f, rng)
        expected = np.trace(e @ f, axis1=-2, axis2=-1).real / dim
        assert np.abs(frame(e, f) - expected).max() <= 1e-14


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 4), (4, 2)])
def test_state_frame_pairs_and_tree_stacks_match_kron(dims, rng):
    da, db = dims
    rho = linalg.random_state(da * db, rng)
    frame = locality.BilinearFrame.from_state(rho, dims)
    for shape_e, shape_f in PAIR_SHAPES:
        e, f = effect_stack(da, shape_e, rng), effect_stack(db, shape_f, rng)
        got = frame(e, f)
        if shape_e:
            assert got.shape == np.broadcast_shapes(shape_e, shape_f)
        else:
            assert isinstance(got, float)
        assert np.abs(got - kron_oracle(rho, e, f)).max() <= 1e-14
    es, fs = effect_stack(da, (6,), rng), effect_stack(db, (4,), rng)
    assert np.abs(frame(es[:, None], fs[None]) - frame.table(es, fs)).max() <= 1e-14


@pytest.mark.parametrize("wrong_a, wrong_b", [(True, True), (True, False), (False, True)])
def test_operator_frame_rejects_effects_of_the_wrong_shape(wrong_a, wrong_b):
    frame = locality.BilinearFrame.from_state(np.eye(6) / 6.0, (2, 3))
    e = np.eye(3 if wrong_a else 2) / 2.0
    f = np.eye(2 if wrong_b else 3) / 2.0
    with pytest.raises(DimensionMismatch):
        frame(e, f)
    with pytest.raises(DimensionMismatch):
        frame.table([e], [f])
    with pytest.raises(DimensionMismatch):
        frame(e[None, :, :1], f)


def test_callable_frame_table_is_per_pair(rng):
    frame = locality.BilinearFrame(2, 3, lambda e, f: np.trace(e).real * np.trace(f).real)
    es = [random_effect(2, rng) for _ in range(3)]
    fs = [random_effect(3, rng) for _ in range(2)]
    expected = [[frame(e, f) for f in fs] for e in es]
    assert np.array_equal(frame.table(es, fs), expected)


def test_operator_frames_reconstruct_without_kronecker_products(monkeypatch, rng):
    rho = linalg.random_state(6, rng)
    swap = locality.swap_operator(3) / 3.0

    def forbidden(*args):
        raise AssertionError("per-pair Kronecker product")

    monkeypatch.setattr(linalg, "tensor", forbidden)
    monkeypatch.setattr(np, "kron", forbidden)
    rec = locality.reconstruct_joint_operator(locality.BilinearFrame.from_state(rho, (2, 3)))
    assert np.abs(rec - rho).max() <= 1e-12
    rec = locality.reconstruct_joint_operator(locality.BilinearFrame.from_swap(3))
    assert np.abs(rec - swap).max() <= 1e-12


def test_joint_reconstruction_heldout_pairs(rng):
    rho = linalg.random_state(6, rng)
    frame = locality.BilinearFrame.from_state(rho, (2, 3))
    rec = locality.reconstruct_joint_operator(frame)
    for _ in range(50):
        e = random_effect(2, rng)
        f = random_effect(3, rng)
        assert np.trace(rec @ linalg.tensor(e, f)).real == pytest.approx(
            frame(e, f), abs=1e-8
        )


def test_joint_reconstruction_product_state():
    rho_a = linalg.random_state(2, 5)
    rho_b = linalg.random_state(3, 6)
    frame = locality.BilinearFrame.from_state(linalg.tensor(rho_a, rho_b), (2, 3))
    rec = locality.reconstruct_joint_operator(frame)
    assert np.linalg.norm(rec - linalg.tensor(rho_a, rho_b)) <= 1e-8


def test_bilinearity_against_effect_decompositions(rng):
    # The reconstructed operator reproduces the frame on arbitrary real
    # combinations A = a1 E1 - a2 E2 of effects.
    rho = linalg.random_state(4, rng)
    frame = locality.BilinearFrame.from_state(rho, (2, 2))
    rec = locality.reconstruct_joint_operator(frame)
    for _ in range(20):
        e1 = random_effect(2, rng)
        e2 = random_effect(2, rng)
        f1 = random_effect(2, rng)
        a1, a2, b1 = rng.random(3) * 2.0
        lhs = np.trace(rec @ linalg.tensor(a1 * e1 - a2 * e2, b1 * f1)).real
        rhs = a1 * b1 * frame(e1, f1) - a2 * b1 * frame(e2, f1)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_two_independent_reconstructions_agree(rng):
    # Different sampled product bases give the same operator (uniqueness
    # over the complex field).
    rho = linalg.random_state(4, rng)
    frame = locality.BilinearFrame.from_state(rho, (2, 2))
    rec1 = locality.reconstruct_joint_operator(frame)
    # Conjugate the sampling basis by local unitaries via a rotated frame.
    ua = linalg.random_unitary(2, rng)
    ub = linalg.random_unitary(2, rng)
    rotated = locality.BilinearFrame(
        2,
        2,
        lambda e, f: frame(ua @ e @ linalg.dagger(ua), ub @ f @ linalg.dagger(ub)),
    )
    rec2 = locality.reconstruct_joint_operator(rotated)
    back = linalg.tensor(linalg.dagger(ua), linalg.dagger(ub))
    rec2 = linalg.dagger(back) @ rec2 @ back
    # rec2 now represents the same functional; compare through the frame.
    for _ in range(20):
        e = random_effect(2, rng)
        f = random_effect(2, rng)
        assert np.trace(rec1 @ linalg.tensor(e, f)).real == pytest.approx(
            np.trace(rec2 @ linalg.tensor(e, f)).real, abs=1e-8
        )


# --------------------------------------------------------------------------
# Swap counterexample.


def test_swap_frame_nonnegative_on_diagonal(rng):
    frame = locality.BilinearFrame.from_swap(2)
    for _ in range(50):
        e = random_effect(2, rng)
        assert frame(e, e) >= 0.0


def test_swap_counterexample_certificate():
    rep = locality.swap_counterexample(2, n_trees=100, seed=3)
    assert rep.normalization_constant == pytest.approx(2.0)
    assert rep.max_tree_deviation <= 1e-9
    assert rep.min_frame_value >= -1e-12
    assert rep.min_eigenvalue == pytest.approx(-0.5, abs=1e-10)
    assert rep.min_eigenvalue < -1e-3
    assert rep.witness_value == pytest.approx(-0.5, abs=1e-10)
    swap = locality.swap_operator(2)
    assert np.linalg.norm(rep.joint_operator - swap / 2.0) <= 1e-8


def test_swap_counterexample_d3():
    rep = locality.swap_counterexample(3, n_trees=30, seed=4)
    assert rep.max_tree_deviation <= 1e-9
    assert rep.min_eigenvalue == pytest.approx(-1.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("dim", range(2, 9))
def test_swap_counterexample_closed_form(dim):
    rep = locality.swap_counterexample(dim, n_trees=5)
    assert rep.normalization_constant == dim
    assert rep.min_frame_value >= 0.0
    assert abs(rep.min_eigenvalue + 1.0 / dim) <= 1e-14
    assert abs(rep.witness_value + 1.0 / dim) <= 1e-14
    assert np.abs(rep.joint_operator - locality.swap_operator(dim) / dim).max() <= 1e-14


# --------------------------------------------------------------------------
# Real-field dimension counting.


def test_real_dimension_counts():
    assert locality.real_dimension_count(2, 2) == (9, 10)
    assert locality.real_dimension_count(2, 3) == (18, 21)


def test_real_null_direction_is_yy():
    analysis = locality.real_span_analysis(2, 2)
    assert analysis.numeric_rank == 9
    assert analysis.full_symmetric_dim == 10
    assert len(analysis.null_directions) == 1
    yy = linalg.tensor(linalg.sigma_y, linalg.sigma_y)
    null = analysis.null_directions[0]
    overlap = abs(linalg.hs_inner(null, yy).real) / (
        np.linalg.norm(null) * np.linalg.norm(yy)
    )
    assert overlap > 0.99


def test_complex_product_rank_is_full():
    assert locality.complex_product_rank(2, 2) == 16


# --------------------------------------------------------------------------
# Domino fixture.


def test_domino_fixture_resolves_identity():
    povm = locality.domino_fixture()
    assert len(povm) == 9
    assert np.linalg.norm(sum(povm.elements) - np.eye(9)) <= 1e-10


def test_domino_elements_rank_one_products():
    povm = locality.domino_fixture()
    for e in povm.elements:
        vals = np.linalg.eigvalsh(e)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(vals[-2]) <= 1e-12
        # Product structure: the partial transpose of a product operator
        # has the same spectrum, rank 1 in particular.
        pt = e.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
        assert np.linalg.svd(pt, compute_uv=False)[1] <= 1e-12
