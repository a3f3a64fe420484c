import itertools
import re

import numpy as np
import pytest

from helpers import sqm_probs_with_lowest
from qbayes import definetti, effects, linalg, states
from qbayes.errors import DimensionMismatch, InvalidArgument, NotAState

ROUND_TRIP_TOL = 1e-9


def test_to_sqm_maximally_mixed(sqm, dim):
    v = states.to_sqm(np.eye(dim) / dim, sqm)
    expected = np.array([np.trace(e).real / dim for e in sqm.base.elements])
    assert np.allclose(v.probs, expected, atol=1e-12)


def test_to_sqm_basis_state_matches_trace_oracle():
    sqm = effects.standard_sqm(2)
    rho = linalg.projector(linalg.ket(0, 2))
    v = states.to_sqm(rho, sqm)
    oracle = np.array([np.trace(rho @ e).real for e in sqm.base.elements])
    assert np.allclose(v.probs, oracle, atol=1e-15)


def test_round_trip_both_directions(rng, dim, sqm):
    for _ in range(100):
        rho = linalg.random_state(dim, rng)
        v = states.to_sqm(rho, sqm)
        back = states.from_sqm(v)
        assert linalg.trace_distance(back, rho) <= ROUND_TRIP_TOL
        again = states.to_sqm(back, sqm)
        assert np.abs(again.probs - v.probs).max() <= ROUND_TRIP_TOL


@pytest.mark.parametrize("d", range(2, 9))
def test_round_trip_through_dual_frame_all_dims(d, rng):
    duals = effects.standard_sqm(d).dual
    for _ in range(10):
        rho = linalg.random_state(d, rng)
        v = states.to_sqm(rho)
        assert np.abs(sum(p * r for p, r in zip(v.probs, duals)) - rho).max() <= 1e-12
        assert linalg.trace_distance(states.from_sqm(v), rho) <= ROUND_TRIP_TOL
        member = states.in_sqm_set(v.probs)
        assert member.member
        assert linalg.trace_distance(member.state, rho) <= ROUND_TRIP_TOL


def test_sqm_vector_rejects_entries_above_element_cap():
    sqm = effects.standard_sqm(2)
    # 0.7 exceeds the largest achievable probability (4/7) of element 0.
    probs = np.array([0.7, 0.1, 0.1, 0.1])
    with pytest.raises(NotAState):
        states.SqmVector(probs, sqm)


def test_sqm_vector_keeps_a_read_only_copy_of_its_probabilities():
    sqm = effects.standard_sqm(2)
    source = states.to_sqm(np.eye(2) / 2, sqm).probs.copy()
    v = states.SqmVector(source, sqm)
    checked = source.copy()
    source[0] = 5.0
    assert v.probs.tobytes() == checked.tobytes()
    assert not v.probs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        v.probs[0] = 5.0


def test_sqm_vector_compares_and_hashes_by_identity():
    sqm = effects.standard_sqm(2)
    v, w = states.to_sqm(np.eye(2) / 2, sqm), states.to_sqm(np.eye(2) / 2, sqm)
    assert v == v and v != w
    assert len({v, w, v}) == 2
    assert np.array_equal(v.probs, w.probs)


def test_uniform_vector_membership_decided_by_reconstruction():
    # The flat distribution over the 4 outcomes happens to be achievable at
    # dim 2; the reconstruction oracle decides and reports the witness.
    sqm = effects.standard_sqm(2)
    result = states.in_sqm_set(np.full(4, 0.25), sqm)
    assert result.member
    assert result.min_eigenvalue == pytest.approx(0.3232233, abs=1e-6)
    states.assert_density_operator(result.state)


def test_high_certainty_vector_is_not_a_state():
    sqm = effects.standard_sqm(2)
    probs = np.array([0.99, 0.01, 0.0, 0.0])
    with pytest.raises(NotAState):
        states.from_sqm(probs, sqm)
    result = states.in_sqm_set(probs, sqm)
    assert not result.member
    assert result.min_eigenvalue < -1e-8


@pytest.mark.parametrize("hot", range(4))
def test_one_hot_vectors_excluded_d2(hot):
    sqm = effects.standard_sqm(2)
    probs = np.zeros(4)
    probs[hot] = 1.0
    assert not states.in_sqm_set(probs, sqm).member


def test_one_hot_vectors_excluded_higher_dims(dim, sqm):
    probs = np.zeros(dim * dim)
    probs[0] = 1.0
    assert not states.in_sqm_set(probs, sqm).member


def test_membership_convex(rng):
    sqm = effects.standard_sqm(2)
    for _ in range(100):
        va = states.to_sqm(linalg.random_state(2, rng), sqm).probs
        vb = states.to_sqm(linalg.random_state(2, rng), sqm).probs
        t = rng.random()
        assert states.in_sqm_set(t * va + (1 - t) * vb, sqm).member


def test_sqm_probabilities_respect_certainty_bound(rng):
    sqm = effects.standard_sqm(2)
    bound = effects.certainty_bound(2)
    for _ in range(200):
        v = states.to_sqm(linalg.random_state(2, rng), sqm)
        assert v.probs.max() <= bound + 1e-9


@pytest.mark.parametrize("explicit", [False, True])
def test_in_sqm_set_wrong_length_is_dimension_mismatch(explicit, monkeypatch):
    sqm = effects.standard_sqm(2) if explicit else None
    built = dict(effects._SQMS)

    def no_lookup(dim):
        raise AssertionError(f"standard_sqm({dim}) looked up")

    monkeypatch.setattr(states, "standard_sqm", no_lookup)
    for call, length in itertools.product([states.in_sqm_set, states.from_sqm], [5, 26, 50]):
        with pytest.raises(DimensionMismatch):
            call(np.full(length, 1.0 / length), sqm)
    # No measurement is built, or even looked up, for a length that is no D^2.
    assert effects._SQMS == built


def _clamped(raw):
    vals, vecs = np.linalg.eigh(raw)
    rho = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("d", range(2, 9))
def test_from_sqm_and_in_sqm_set_are_one_dual_product(d, rng):
    # One eigvalsh of the inversion decides: with no negative eigenvalue the state
    # is the inversion over its trace, and a noise eigenvalue in
    # [STATE_EIG_FLOOR, 0) takes the clamped rebuild.  Both are within 1e-14 of
    # clamping every spectrum.
    sqm = effects.standard_sqm(d)
    vectors = [states.to_sqm(linalg.random_state(d, rng), sqm) for _ in range(20)]
    vectors.append(states.SqmVector(sqm_probs_with_lowest(sqm, -1e-9, d), sqm))
    lows = []
    for v in vectors:
        raw = (v.probs @ sqm.dual.reshape(d * d, -1)).reshape(d, d)
        lows.append(np.linalg.eigvalsh(raw)[0])
        expected = raw / np.trace(raw).real if lows[-1] >= 0.0 else _clamped(raw)
        assert states.from_sqm(v).tobytes() == expected.tobytes()
        assert states.from_sqm(v.probs).tobytes() == expected.tobytes()
        assert states.in_sqm_set(v.probs).state.tobytes() == expected.tobytes()
        assert states.in_sqm_set(v).state.tobytes() == expected.tobytes()
        assert linalg.trace_distance(states.from_sqm(v), _clamped(raw)) <= 1e-14
    assert min(lows[:-1]) > 0.0 and linalg.STATE_EIG_FLOOR <= lows[-1] < 0.0  # both branches ran


@pytest.mark.parametrize("d", range(2, 9))
def test_inversions_are_hermitian_with_no_hermitian_part_taken(d, rng):
    # The dual frame is Hermitian exactly, so the entries (i, j) and (j, i) of
    # p . R are sums of exact conjugates: the inversion is Hermitian bitwise,
    # and so is the state from_sqm returns without symmetrizing it.
    sqm = effects.standard_sqm(d)
    for _ in range(50):
        v = states.to_sqm(linalg.random_state(d, rng), sqm)
        raw = (v.probs @ sqm.dual.reshape(d * d, -1)).reshape(d, d)
        state = states.from_sqm(v)
        assert np.array_equal(raw, raw.conj().T)
        assert np.array_equal(state, state.conj().T)


def test_in_sqm_set_takes_an_sqm_vector_without_rechecking_it(sqm, dim, rng, monkeypatch):
    v = states.to_sqm(linalg.random_state(dim, rng), sqm)
    half = states.to_sqm(np.eye(2) / 2.0)

    def refuse(*args, **kwargs):
        raise AssertionError("an SqmVector's probabilities checked again")

    monkeypatch.setattr(linalg, "distribution_fault", refuse)
    result = states.in_sqm_set(v)
    assert result.member and np.array_equal(result.state, states.from_sqm(v))
    assert states.in_sqm_set(half).member


@pytest.mark.parametrize("d", range(2, 9))
def test_rejecting_in_sqm_set_reports_the_raw_min_eigenvalue(d, rng):
    sqm = effects.standard_sqm(d)
    for _ in range(20):
        probe = 0.1 * states.to_sqm(linalg.random_state(d, rng), sqm).probs
        probe[rng.integers(d * d)] += 0.9  # past the certainty bound
        raw = (probe @ sqm.dual.reshape(d * d, -1)).reshape(d, d)
        result = states.in_sqm_set(probe)
        assert not result.member and result.state is None
        # eigvalsh and eigh round the same eigenvalue differently.
        assert result.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(raw)[0], abs=1e-14)
        assert result.min_eigenvalue < linalg.STATE_EIG_FLOOR
        with pytest.raises(NotAState, match="eigenvalue"):
            states.from_sqm(probe)


def test_from_sqm_rejects_an_off_trace_vector_by_its_trace(sqm, dim):
    # Twice the maximally mixed vector inverts to 2 I / D: no negative eigenvalue.
    doubled = 2.0 * states.to_sqm(np.eye(dim) / dim, sqm).probs
    with pytest.raises(NotAState, match=r"trace 2\.0000"):
        states.from_sqm(doubled, sqm)


# --------------------------------------------------------------------------
# One probability-vector rule: assert_distribution, SqmVector, in_sqm_set and a
# raw from_sqm all decide it by linalg.distribution_fault.


@pytest.mark.parametrize(
    "bad",
    [np.full(4, np.nan), [np.inf, -np.inf, 0.5, 0.5], [np.inf, 0.0, 0.0, 0.0], [0.5, np.nan, 0.25, 0.25]],
)
def test_a_non_finite_vector_fails_every_probability_check(bad):
    sqm = effects.standard_sqm(2)
    bad = np.array(bad)
    with pytest.raises(InvalidArgument, match="probability vector"):
        states.in_sqm_set(bad, sqm)
    with pytest.raises(NotAState, match="not a probability vector"):
        states.from_sqm(bad, sqm)
    with pytest.raises(NotAState, match="not a probability vector"):
        states.SqmVector(bad, sqm)
    with pytest.raises(InvalidArgument):
        states.assert_distribution(bad)
    # The inversion itself never takes a NaN eigenvalue for a state.
    state, low, _ = states._invert(np.full(4, np.nan), sqm)
    assert state is None and np.isnan(low)


def test_an_empty_vector_raises_a_typed_error():
    for call in (
        lambda: states.in_sqm_set([]),
        lambda: states.assert_distribution([]),
        lambda: definetti.classical_definetti_mix([], [], 2),
    ):
        with pytest.raises(InvalidArgument, match="no probabilities"):
            call()


@pytest.mark.parametrize("d", [2, 3])
def test_a_negative_entry_fails_every_probability_check(d):
    # rho orthogonal to the (rank-1) support of E_0 gives p(0) = 0; moving 1e-10
    # from entry 0 to entry 1 keeps the sum and inverts to a state up to noise
    # that from_sqm would clamp away.
    sqm = effects.standard_sqm(d)
    _, vecs = linalg.eig_hermitian(sqm.base[0])
    probs = states.to_sqm(linalg.projector(vecs[:, -1]), sqm).probs.copy()
    assert abs(probs[0]) <= 1e-15
    probs[0] -= 1e-10
    probs[1] += 1e-10
    assert linalg.STATE_EIG_FLOOR < np.linalg.eigvalsh(
        (probs @ sqm.dual.reshape(d * d, -1)).reshape(d, d)
    )[0]
    with pytest.raises(NotAState, match="negative probability -1.000e-10"):
        states.from_sqm(probs, sqm)
    with pytest.raises(NotAState, match="negative probability"):
        states.SqmVector(probs, sqm)
    with pytest.raises(InvalidArgument, match="negative probability"):
        states.in_sqm_set(probs, sqm)


def test_a_sum_off_one_by_1e10_is_no_sqm_vector(sqm, dim, rng):
    probs = states.to_sqm(linalg.random_state(dim, rng), sqm).probs.copy()
    probs[np.argmin(probs)] += 1e-10
    assert probs.sum() == pytest.approx(1.0 + 1e-10, abs=1e-14)
    message = re.escape(f"sum to {probs.sum():.15f}")
    with pytest.raises(NotAState, match=message):
        states.SqmVector(probs, sqm)
    with pytest.raises(InvalidArgument, match=message):
        states.in_sqm_set(probs, sqm)


@pytest.mark.parametrize("miss", [0.9e-12, -0.9e-12, 5e-10, -5e-10])
def test_to_sqm_takes_exactly_the_states_density_spectrum_takes(sqm, dim, rng, miss):
    # A state's trace is its SQM vector's sum, so both are held to PROB_SUM_TOL:
    # a state passing the state check converts and round-trips, one failing it
    # is refused by to_sqm with the state check's own error.
    rho = linalg.random_state(dim, rng) * (1 + miss)
    if abs(miss) <= linalg.PROB_SUM_TOL:
        states.density_spectrum(rho)
        v = states.to_sqm(rho, sqm)
        assert abs(v.probs.sum() - 1) <= linalg.PROB_SUM_TOL
        assert np.abs(states.from_sqm(v) - rho).max() <= 1e-12
    else:
        with pytest.raises(NotAState, match="is not a density operator"):
            states.density_spectrum(rho)
        with pytest.raises(NotAState, match="is not a density operator"):
            states.to_sqm(rho, sqm)


def test_density_spectrum_is_one_path_for_an_operator_and_a_stack(rng):
    # An operator's spectrum is bitwise its 1-stack's, and a stack names its
    # first failing operator by its flat index.
    rhos = np.stack([linalg.random_state(3, rng) for _ in range(4)]).reshape(2, 2, 3, 3)
    vals = states.density_spectrum(rhos)[1]
    assert vals.shape == (2, 2, 3)
    for rho, spectrum in zip(rhos.reshape(4, 3, 3), vals.reshape(4, 3)):
        assert states.density_spectrum(rho)[1].tobytes() == spectrum.tobytes()
        assert states.density_spectrum(rho[None])[1][0].tobytes() == spectrum.tobytes()
    rhos[1, 0] = np.diag([1.5, -0.5, 0.0])
    detail = r"is not a density operator: Hermitian True, smallest eigenvalue -5\.000e-01, trace 1\.000000000"
    with pytest.raises(NotAState, match="^state 2 " + detail):
        states.density_spectrum(rhos)
    with pytest.raises(NotAState, match="^operator " + detail):
        states.density_spectrum(rhos[1, 0])
