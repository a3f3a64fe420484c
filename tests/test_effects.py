import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import frame_value
from oracles import max_error, sqm_oracle
from qbayes import cli, effects, linalg, update
from qbayes.errors import (
    DegenerateSpan,
    DimensionBudgetExceeded,
    DimensionMismatch,
    InvalidArgument,
    NotAStateWarning,
    NotHermitian,
    NotPsd,
    NotResolution,
)

# Frozen from the explicit 2x2 construction: G = [[2, .5-.5i], [.5+.5i, 2]].
G_2 = np.array([[2.0, 0.5 - 0.5j], [0.5 + 0.5j, 2.0]])
BOUND_2 = 1.0 / (2.0 - np.sqrt(2.0) / 2.0)  # 0.7734590803...


def test_validate_povm_identity_singleton():
    povm = effects.validate_povm([np.eye(3)])
    assert len(povm) == 1


@pytest.mark.parametrize("form", [tuple, list, np.stack])
def test_povm_holds_one_stack_whatever_the_input(form, rng):
    stack = linalg.povm_from_normals(rng.normal(size=(4, 2, 3, 3)))
    for povm in (effects.Povm(form(list(stack))), effects.validate_povm(form(list(stack)))):
        assert isinstance(povm.elements, np.ndarray) and povm.elements.dtype == complex
        assert np.array_equal(povm.elements, stack)
        assert povm.dim == 3 and len(povm) == 4


def test_validate_povm_projective_basis():
    povm = effects.validate_povm(
        [linalg.projector(linalg.ket(i, 2)) for i in range(2)]
    )
    assert povm.dim == 2


def test_validate_povm_rejects_bad_sum():
    with pytest.raises(NotResolution) as err:
        effects.validate_povm([np.eye(2) / 2.0, np.eye(2) / 3.0])
    assert err.value.deficit > 0.1


def test_validate_povm_rejects_negative_element():
    with pytest.raises(NotPsd) as err:
        effects.validate_povm([1.5 * np.eye(2), -0.5 * np.eye(2)])
    assert err.value.index == 1


def test_ic_kets_d2_explicit():
    kets = effects.build_ic_kets(2)
    assert kets.shape == (4, 2)
    assert np.allclose(kets, np.array([[1, 0], [0, 1], [1, 1], [1, 1j]]) / [[1], [1], [np.sqrt(2)], [np.sqrt(2)]])
    assert np.allclose(linalg.projector(kets[2]), np.array([[1, 1], [1, 1]]) / 2.0)
    assert np.allclose(linalg.projector(kets[3]), np.array([[1, -1j], [1j, 1]]) / 2.0)


def test_ic_kets_d3_unit_norm():
    kets = effects.build_ic_kets(3)
    assert kets.shape == (9, 3)
    assert np.allclose(np.linalg.norm(kets, axis=1), 1.0)


def test_ic_kets_d4_seed_gram_nonsingular():
    # tr(P_a P_b) = |<v_a|v_b>|^2 for the seed projectors P_d = |v_d><v_d|.
    kets = effects.build_ic_kets(4)
    gram = np.abs(kets.conj() @ kets.T) ** 2
    assert abs(np.linalg.det(gram)) > 1e-12


def test_gram_renormalize_d2_matches_explicit_gram():
    sqm = effects.standard_sqm(2)
    assert np.allclose(sqm.gram, G_2)
    vals = np.linalg.eigvalsh(sqm.gram)
    assert vals[-1] == pytest.approx(2.0 + 1.0 / np.sqrt(2.0))
    assert vals[0] == pytest.approx(2.0 - 1.0 / np.sqrt(2.0))


@pytest.mark.parametrize("d", range(2, 17))
def test_sqm_elements_and_dual_are_hermitian_by_construction(d):
    sqm = effects.standard_sqm(d)
    for stack in (sqm.base.elements, sqm.dual):
        assert np.array_equal(stack, linalg.dagger(stack))
    if d <= 8:
        assert all(np.linalg.matrix_rank(e) == 1 for e in sqm.base.elements)


@pytest.mark.parametrize("d", range(2, 7))
def test_standard_sqm_valid(d):
    sqm = effects.standard_sqm(d)
    assert len(sqm) == d * d
    assert np.linalg.norm(sum(sqm.base.elements) - np.eye(d)) <= 1e-9
    for e in sqm.base.elements:
        assert np.linalg.eigvalsh(e)[-2] < 1e-9  # rank 1
    assert effects.element_gram_min_singular_value(sqm.base) > 1e-8


def test_born_maximally_mixed(sqm, dim):
    probs = effects.born(np.eye(dim) / dim, sqm.base)
    expected = np.array([np.trace(e).real / dim for e in sqm.base.elements])
    assert np.allclose(probs, expected, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_born_projective_certainty():
    povm = effects.validate_povm(
        [linalg.projector(linalg.ket(i, 2)) for i in range(2)]
    )
    probs = effects.born(linalg.projector(linalg.ket(0, 2)), povm)
    assert np.allclose(probs, [1.0, 0.0], atol=1e-12)


def test_born_d2_sqm_matches_trace_oracle():
    sqm = effects.standard_sqm(2)
    rho = linalg.projector(linalg.ket(0, 2))
    probs = effects.born(rho, sqm.base)
    oracle = np.array([np.trace(rho @ e).real for e in sqm.base.elements])
    assert np.allclose(probs, oracle, atol=1e-15)


def test_born_shared_effect_is_noncontextual(rng):
    # The same effect evaluated inside two different POVMs gets one value.
    e = linalg.random_state(2, rng)
    e = e / (np.linalg.eigvalsh(e)[-1] * 1.5)
    rest = np.eye(2) - e
    povm_a = effects.validate_povm([e, rest])
    povm_b = effects.validate_povm([e, rest / 2.0, rest / 2.0])
    rho = linalg.random_state(2, rng)
    assert effects.born(rho, povm_a)[0] == pytest.approx(
        effects.born(rho, povm_b)[0], abs=1e-15
    )


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_fine_graining_additivity(seed):
    # f(E1 + E2) = f(E1) + f(E2) for state-induced frames.
    g = np.random.default_rng(seed)
    rho = linalg.random_state(3, g)
    e1 = linalg.random_state(3, g)
    e2 = linalg.random_state(3, g)
    scale = np.linalg.eigvalsh(e1 + e2)[-1] * 1.5
    e1, e2 = e1 / scale, e2 / scale
    lhs = np.trace(rho @ (e1 + e2)).real
    rhs = np.trace(rho @ e1).real + np.trace(rho @ e2).real
    assert abs(lhs - rhs) <= 1e-12


def test_frame_function_keys_by_value():
    f = effects.FrameFunction()
    f.record(np.eye(2) / 2.0, 0.5)
    assert frame_value(f, np.eye(2) / 2.0 + 1e-15) == pytest.approx(0.5)
    assert len(f) == 1


def test_frame_from_state_repeated_effect_keeps_first_row_and_last_value(rng):
    """from_state keeps one row per occurrence of a repeated effect, each with its
    own Born value; record then sets every row that holds the effect, and each
    row keeps its stored effect."""
    sqm = effects.standard_sqm(2)
    rho = linalg.random_state(2, rng)
    twin = sqm.base[1] + 1e-14  # element 1 within EFFECT_TOL, another value
    plain = [*sqm.base, twin]
    probs = effects.born(rho, plain)  # one row per effect, the frame's own call
    f = effects.FrameFunction.from_state(rho, plain)
    assert len(f) == 5 and len(f.items()) == 5
    effs, values = zip(*f.items())
    assert np.array_equal(np.stack(effs), np.stack(plain)) and list(values) == probs.tolist()
    assert frame_value(f, twin) == values[1] != values[4]  # the first matching row
    with pytest.raises(KeyError):
        frame_value(f, np.eye(2) / 3.0)
    f.record(sqm.base[1], 0.25)
    effs, values = zip(*f.items())
    assert len(f) == 5 and values[1] == values[4] == 0.25
    assert np.array_equal(effs[1], sqm.base[1]) and np.array_equal(effs[4], twin)
    recorded = effects.FrameFunction()
    for e, p in zip(plain, probs):
        recorded.record(e, p)
    effs, values = zip(*recorded.items())
    assert np.array_equal(np.stack(effs), sqm.base.elements)  # twin set element 1's value
    assert list(values) == probs[[0, 4, 2, 3]].tolist()


def test_recording_on_a_povm_frame_leaves_the_povm_alone(rng):
    sqm = effects.standard_sqm(3)
    before = sqm.base.elements.copy()
    f = effects.FrameFunction.from_state(linalg.random_state(3, rng), sqm.base.elements)
    assert np.shares_memory(f.items()[0][0], sqm.base.elements)  # the stack, not a copy
    f.record(sqm.base[0] * 0.5, 0.1)
    f.record(sqm.base[1] + 1e-14, 0.2)
    assert np.array_equal(sqm.base.elements, before)
    assert frame_value(f, sqm.base[1]) == 0.2 and len(f) == 10


def test_frame_povm_sums_to_one(sqm, rng, dim):
    rho = linalg.random_state(dim, rng)
    f = effects.FrameFunction.from_state(rho, sqm.base.elements)
    assert sum(frame_value(f, e) for e in sqm.base.elements) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", range(2, 9))
def test_frame_from_state_keys_are_effect_keys(d, rng):
    sqm = effects.standard_sqm(d)
    rho = linalg.random_state(d, rng)
    f = effects.FrameFunction.from_state(rho, sqm.base.elements)
    probs = effects.born(rho, sqm.base)
    assert [frame_value(f, e) for e in sqm.base.elements] == probs.tolist()


@pytest.mark.parametrize("d", range(2, 9))
def test_frame_from_state_on_a_povm_is_bitwise_its_stack_frame(d, rng):
    sqm = effects.standard_sqm(d)
    rho = linalg.random_state(d, rng)
    on_povm = effects.FrameFunction.from_state(rho, sqm.base)
    on_stack = effects.FrameFunction.from_state(rho, sqm.base.elements)
    assert on_povm._effects is on_stack._effects is sqm.base.elements
    assert on_povm._values.tobytes() == on_stack._values.tobytes()


@pytest.mark.parametrize("d", range(2, 9))
def test_frame_on_a_built_sqm_takes_its_cached_keys(d, rng, monkeypatch):
    """from_state on the built SQM, an unbuilt one or a plain list of effects
    matches no effects and builds no SQM."""

    def refuse(*args, **kwargs):
        raise AssertionError("from_state matched effects or built an SQM")

    sqm = effects.standard_sqm(d)
    unbuilt = effects.gram_renormalize(d)
    rho = linalg.random_state(d, rng)
    built = dict(effects._SQMS)
    monkeypatch.setattr(effects.FrameFunction, "record", refuse)
    monkeypatch.setattr(np, "array_equal", refuse)
    monkeypatch.setattr(effects, "gram_renormalize", refuse)
    for effs in (sqm.base, sqm.base.elements, unbuilt.base, unbuilt.base.elements, list(sqm.base)):
        assert len(effects.FrameFunction.from_state(rho, effs)) == d * d
    assert effects._SQMS.keys() == built.keys()
    assert all(effects._SQMS[dim] is kept for dim, kept in built.items())


@pytest.mark.parametrize("d", range(2, 9))
def test_frame_from_state_builds_no_sqm(d, rng, monkeypatch):
    monkeypatch.delitem(effects._SQMS, d, raising=False)
    rho = linalg.random_state(d, rng)
    unbuilt = effects.gram_renormalize(d)
    seeds = [linalg.projector(v) for v in effects.build_ic_kets(d)]
    for effs in (unbuilt.base, unbuilt.base.elements, seeds):
        effects.FrameFunction.from_state(rho, effs)
        assert d not in effects._SQMS


def test_reconstruct_round_trip_basis_state():
    sqm = effects.standard_sqm(2)
    rho = linalg.projector(linalg.ket(0, 2))
    frame = effects.FrameFunction.from_state(rho, sqm.base.elements)
    rec = effects.reconstruct_from_frame(frame)
    assert np.linalg.norm(rec - rho) < 1e-9


def test_reconstruct_maximally_mixed_from_uniform_trace_frame():
    sqm = effects.standard_sqm(3)
    frame = effects.FrameFunction()
    for e in sqm.base.elements:
        frame.record(e, np.trace(e).real / 3.0)
    rec = effects.reconstruct_from_frame(frame)
    assert np.linalg.norm(rec - np.eye(3) / 3.0) < 1e-9


@pytest.mark.parametrize("d", [5, 6])
def test_reconstruct_round_trip_high_dims(d, rng):
    # Informational completeness holds right up through D=6.
    sqm = effects.standard_sqm(d)
    for _ in range(5):
        rho = linalg.random_state(d, rng)
        frame = effects.FrameFunction.from_state(rho, sqm.base.elements)
        rec = effects.reconstruct_from_frame(frame)
        assert linalg.trace_distance(rec, rho) <= 1e-8


def test_reconstruct_predicts_held_out_povms(rng):
    sqm = effects.standard_sqm(3)
    rho = linalg.random_state(3, rng)
    frame = effects.FrameFunction.from_state(rho, sqm.base.elements)
    rec = effects.reconstruct_from_frame(frame)
    for _ in range(20):
        povm = effects.validate_povm(linalg.random_povm(3, 4, rng))
        assert np.abs(
            effects.born(rec, povm) - effects.born(rho, povm)
        ).max() <= 1e-8


def test_reconstruct_warns_on_non_state():
    sqm = effects.standard_sqm(2)
    frame = effects.FrameFunction()
    values = [0.97, 0.01, 0.01, 0.01]
    for e, v in zip(sqm.base.elements, values):
        frame.record(e, v)
    with pytest.warns(NotAStateWarning):
        rec = effects.reconstruct_from_frame(frame)
    assert np.linalg.eigvalsh(rec)[0] < -1e-8


def test_reconstruct_degenerate_span():
    frame = effects.FrameFunction()
    frame.record(np.eye(2), 1.0)
    frame.record(np.eye(2) / 2.0, 0.5)
    frame.record(np.eye(2) / 3.0, 1.0 / 3.0)
    frame.record(np.eye(2) / 4.0, 0.25)
    with pytest.raises(DegenerateSpan):
        effects.reconstruct_from_frame(frame)


def test_standard_sqm_past_the_budget_raises_before_allocating():
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(DimensionBudgetExceeded, match="standard SQM of dimension 64"):
            effects.standard_sqm(64)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.01 and peak < 2**20
    assert 64 not in effects._SQMS
    # The largest dimension the CLI accepts still builds.
    assert effects.standard_sqm(cli.MAX_DIM).dim == cli.MAX_DIM


def test_gram_renormalize_past_the_budget_raises_before_allocating():
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(DimensionBudgetExceeded, match="standard SQM of dimension 64"):
            effects.gram_renormalize(64)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.01 and peak < 2**20


def test_certainty_bound_d2_value():
    assert effects.certainty_bound(2) == pytest.approx(BOUND_2, abs=1e-12)
    assert effects.certainty_bound(2) == pytest.approx(0.7734590, abs=1e-7)


@pytest.mark.parametrize("d", range(2, cli.MAX_DIM + 1))
def test_certainty_bound_below_one_and_matches_gram(d):
    bound = effects.certainty_bound(d)
    assert bound < 1.0
    numeric = 1.0 / np.linalg.eigvalsh(effects.standard_sqm(d).gram)[0]
    assert abs(bound - numeric) <= 1e-9


def test_certainty_bound_asymptote():
    bound = effects.certainty_bound(10)
    assert abs(10.0 * bound * 0.79 - 1.0) < 0.10


def test_max_probability_d2_sqm_below_bound():
    caps = effects.standard_sqm(2).max_probability
    assert (caps <= BOUND_2 + 1e-9).all()


def test_max_probability_dominates_born(rng, dim, sqm):
    caps = sqm.max_probability
    for _ in range(200):
        probs = effects.born(linalg.random_state(dim, rng), sqm.base)
        assert (probs <= caps + 1e-9).all()


def test_born_on_a_stack_matches_row_by_row(rng):
    povm = effects.validate_povm(linalg.random_povm(3, 5, rng))
    stack = np.stack([linalg.random_state(3, rng) for _ in range(6)]).reshape(2, 3, 3, 3)
    probs = effects.born(stack, povm)
    assert probs.shape == (2, 3, 5)
    for idx in np.ndindex(2, 3):
        rows = [np.trace(stack[idx] @ e).real for e in povm]
        assert np.abs(probs[idx] - rows).max() <= 1e-14
        assert np.abs(probs[idx] - effects.born(stack[idx], povm)).max() <= 1e-15
    many = linalg.state_from_normals(rng.normal(size=(1000, 2, 3, 3)))
    for basis in (povm, effects.standard_sqm(3).base):
        singles = np.stack([effects.born(s, basis) for s in many])
        assert np.abs(effects.born(many, basis) - singles).max() <= 1e-15


def test_born_on_a_state_stack_allocates_only_its_result(rng):
    sqm = effects.standard_sqm(3)
    many = linalg.state_from_normals(rng.normal(size=(1000, 2, 3, 3)))
    effects.born(many, sqm.base)
    tracemalloc.start()
    try:
        probs = effects.born(many, sqm.base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * probs.nbytes + 4096


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_real_coords_dot_is_the_trace_of_the_product(d, rng):
    # Re tr(A B^dag) of the float views: Re tr(AB) when one factor is Hermitian.
    x = rng.normal(size=(2, d, d))
    a = x[0] + 1j * x[1]  # not Hermitian
    b = linalg.random_state(d, rng) - np.eye(d) / d
    scale = 1e-15 * np.linalg.norm(a) * np.linalg.norm(b)
    for left, right in ((a, b), (b, a)):
        dot = effects._real_coords(left) @ effects._real_coords(right)
        assert abs(dot - np.trace(left @ right).real) <= scale
    h = (a + linalg.dagger(a)) / 2.0
    dot = effects._real_coords(h) @ effects._real_coords(b)
    assert abs(dot - np.trace(h @ b)) <= 1e-15 * np.linalg.norm(h) * np.linalg.norm(b)
    stack = np.stack([a, b])
    assert np.shares_memory(effects._real_coords(stack), stack)  # a view, not a copy
    assert effects._real_coords(stack).shape == (2, 2 * d * d)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_born_on_strided_fortran_and_real_states_equals_their_contiguous_copies(d, rng):
    povm = effects.validate_povm(linalg.random_povm(d, 6, rng))
    stack = linalg.state_from_normals(rng.normal(size=(8, 2, d, d)))
    strided, fortran, real = stack[::2], np.asfortranarray(stack), stack.real
    assert not strided.flags.c_contiguous and not fortran.flags.c_contiguous
    for states in (strided, fortran, real, fortran[0], real[0]):
        copy = np.ascontiguousarray(states, dtype=complex)
        for basis in (povm, effects.standard_sqm(d).base):
            assert effects.born(states, basis).tobytes() == effects.born(copy, basis).tobytes()


@pytest.mark.parametrize("d", range(2, 17))
def test_sqm_dual_frame_is_biorthogonal(d):
    sqm = effects.standard_sqm(d)
    overlaps = np.einsum("cij,dji->cd", sqm.base.elements, sqm.dual)
    assert np.abs(overlaps - np.eye(d * d)).max() <= 1e-13
    # The cap of a rank-one element is its trace, its one nonzero eigenvalue.
    traces = [np.trace(e).real for e in sqm.base]
    assert np.array_equal(sqm.max_probability, traces)
    top = np.linalg.eigvalsh(sqm.base.elements)[:, -1]
    assert np.abs(sqm.max_probability - top).max() <= 1e-15


@pytest.mark.parametrize("d", range(2, 7))
def test_sqm_matches_its_50_digit_oracle(d):
    elements, dual, caps = sqm_oracle(d)
    sqm = effects.standard_sqm(d)
    assert max_error(sqm.base.elements, elements) <= 1e-15
    assert max_error(sqm.max_probability, caps) <= 1e-15
    assert max_error(sqm.dual, dual) <= 1e-13


# --------------------------------------------------------------------------
# The two reconstruction paths and malformed effect input.


def _lstsq_reference(frame):
    effs, values = zip(*frame.items())
    d = effs[0].shape[0]
    flat = np.reshape(effs, (len(effs), -1))
    x = np.linalg.lstsq(np.hstack([flat.real, flat.imag]), values, rcond=None)[0]
    return (x[: d * d] + 1j * x[d * d :]).reshape(d, d)


@pytest.mark.parametrize("d", range(2, 9))
def test_sqm_frame_dual_path_matches_lstsq_reference(d):
    sqm = effects.standard_sqm(d)
    g = np.random.default_rng(9000 + d)
    for _ in range(200):
        frame = effects.FrameFunction.from_state(linalg.random_state(d, g), sqm.base.elements)
        rec = effects.reconstruct_from_frame(frame)
        assert np.abs(rec - _lstsq_reference(frame)).max() <= 1e-14


@pytest.mark.parametrize("d", range(2, 9))
def test_sqm_frame_reconstructs_without_lstsq(d, rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("least squares run on a frame on the SQM")

    sqm = effects.standard_sqm(d)
    rho = linalg.random_state(d, rng)
    from_state = effects.FrameFunction.from_state(rho, sqm.base.elements)
    recorded = effects.FrameFunction()
    for e, p in zip(sqm.base, effects.born(rho, sqm.base)):
        recorded.record(e, p)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    for frame in (from_state, recorded):
        assert linalg.trace_distance(effects.reconstruct_from_frame(frame), rho) <= 1e-12


def test_sqm_frame_dual_path_needs_an_exact_match_at_d11(monkeypatch):
    # At D = 11 some SQM entries lie within 5e-17 of a 12-decimal rounding
    # boundary: a copy of the stack is inverted through the dual frame, one
    # moved by one ulp there by least squares, to the same values.
    sqm = effects.standard_sqm(11)
    rho = linalg.random_state(11, 11)
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
    dual = effects.reconstruct_from_frame(effects.FrameFunction.from_state(rho, sqm.base.elements))
    copy = sqm.base.elements.copy()
    assert effects.reconstruct_from_frame(effects.FrameFunction.from_state(rho, copy)).tobytes() == dual.tobytes()
    assert not calls
    parts = copy.view(float)
    at = tuple(np.argwhere(abs(abs(parts) - 0.0018857444825) < 1e-16)[0])
    parts[at] = np.nextafter(parts[at], 1.0)
    rec = effects.reconstruct_from_frame(effects.FrameFunction.from_state(rho, copy))
    assert len(calls) == 1 and np.abs(rec - dual).max() <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_other_spanning_frames_take_the_general_path(d, rng, monkeypatch):
    sqm = effects.standard_sqm(d)
    frames = {
        "permuted": [sqm.base[i] for i in np.roll(np.arange(d * d), 1)],
        "overcomplete": [*sqm.base, np.eye(d) / 2.0],
        "other seeds": linalg.povm_from_normals(rng.normal(size=(d * d, 2, d, d))),
    }
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
    for name, effs in frames.items():
        rho = linalg.random_state(d, rng)
        rec = effects.reconstruct_from_frame(effects.FrameFunction.from_state(rho, effs))
        assert np.abs(rec - rho).max() <= 1e-12, name
    assert len(calls) == len(frames)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_stacked_frames_equal_per_frame_calls(d, monkeypatch):
    g = np.random.default_rng(4400 + d)
    rho = np.stack([linalg.random_state(d, g) for _ in range(7)])
    sqm = effects.standard_sqm(d)
    # The SQM as a POVM and as a bare stack take the dual path, reversed least squares.
    effect_sets = (sqm.base, sqm.base.elements, sqm.base[::-1])
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
    for effs in effect_sets:
        frame = effects.FrameFunction.from_state(rho, effs)
        assert frame._values.shape == (len(rho), d * d) and len(frame) == d * d
        rec = effects.reconstruct_from_frame(frame)
        assert rec.shape == rho.shape and np.abs(rec - rho).max() <= 1e-12
        for r, one in zip(rho, rec):
            single = effects.reconstruct_from_frame(effects.FrameFunction.from_state(r, effs))
            assert np.abs(one - single).max() <= 1e-14
        nested = effects.FrameFunction.from_state(rho[:6].reshape(2, 3, d, d), effs)
        assert np.abs(effects.reconstruct_from_frame(nested) - rec[:6].reshape(2, 3, d, d)).max() <= 1e-14
    assert len(calls) == 2 + 7  # the stacked and the nested solve, then one per single state


def test_stacked_frame_values_and_records_broadcast(rng):
    sqm = effects.standard_sqm(2)
    rho = np.stack([linalg.random_state(2, rng) for _ in range(3)])
    frame = effects.FrameFunction.from_state(rho, sqm.base)
    assert np.array_equal(frame_value(frame, sqm.base[1]), effects.born(rho, sqm.base)[:, 1])
    frame.record(np.eye(2) / 2.0, 0.5)  # a new effect: one value for every state
    frame.record(sqm.base[0], frame_value(frame, sqm.base[0]) * 2.0)  # a known effect: one per state
    assert len(frame) == 5 and frame._values.shape == (3, 5)
    assert np.array_equal(frame_value(frame, np.eye(2) / 2.0), [0.5] * 3)
    effs, values = zip(*frame.items())
    assert len(effs) == 5 and all(len(v) == 3 for v in values) and values[4] == [0.5] * 3


def test_stacked_frame_warning_names_the_failing_frame(rng):
    sqm = effects.standard_sqm(2)
    rho = np.stack([linalg.random_state(2, rng) for _ in range(4)])
    frame = effects.FrameFunction.from_state(rho, sqm.base)
    column = frame_value(frame, sqm.base[0]).copy()
    column[2] += 0.5  # the trace of frame 2 becomes 1.5
    frame.record(sqm.base[0], column)
    with pytest.warns(NotAStateWarning, match="frame 2: reconstructed operator is not a state"):
        rec = effects.reconstruct_from_frame(frame)
    assert abs(np.trace(rec[2]).real - 1.5) <= 1e-12
    assert np.abs(np.delete(rec, 2, axis=0) - np.delete(rho, 2, axis=0)).max() <= 1e-12


def test_frame_reconstruction_warns_beyond_the_trace_tolerance(rng):
    sqm = effects.standard_sqm(3)
    rho = linalg.random_state(3, rng)
    with pytest.warns(NotAStateWarning, match=r"trace 1\.000000"):
        effects.reconstruct_from_frame(effects.FrameFunction.from_state(rho * (1 + 5e-9), sqm.base))
    with warnings.catch_warnings():
        warnings.simplefilter("error", NotAStateWarning)
        effects.reconstruct_from_frame(effects.FrameFunction.from_state(rho * (1 + 5e-13), sqm.base))


def test_stacked_frame_residual_names_the_failing_frame(rng):
    sqm = effects.standard_sqm(3)
    rho = np.stack([linalg.random_state(3, rng) for _ in range(3)])
    frame = effects.FrameFunction.from_state(rho, [*sqm.base, np.eye(3) / 2.0])
    frame.record(np.eye(3) / 2.0, [0.5, 0.9, 0.5])  # every state gives 0.5
    with pytest.raises(DegenerateSpan, match="frame 1: least-squares residual"):
        effects.reconstruct_from_frame(frame)


def test_single_state_frame_keeps_its_shapes(rng):
    sqm = effects.standard_sqm(3)
    rho = linalg.random_state(3, rng)
    frame = effects.FrameFunction.from_state(rho, sqm.base)
    assert frame._values.shape == (9,) and isinstance(frame_value(frame, sqm.base[0]), float)
    assert all(isinstance(v, float) for _, v in frame.items())
    stacked = effects.FrameFunction.from_state(rho[None], sqm.base)
    assert np.array_equal(stacked._values[0], frame._values)
    rec = effects.reconstruct_from_frame(frame)
    assert rec.shape == (3, 3)
    assert np.array_equal(effects.reconstruct_from_frame(stacked)[0], rec)
    frame.record(sqm.base[0], 0.9)
    with pytest.warns(NotAStateWarning, match=r"^reconstructed operator is not a state"):
        effects.reconstruct_from_frame(frame)


def test_inconsistent_overcomplete_frame_raises(rng):
    sqm = effects.standard_sqm(3)
    frame = effects.FrameFunction.from_state(linalg.random_state(3, rng), sqm.base.elements)
    frame.record(np.eye(3) / 2.0, 0.9)  # every state gives 0.5
    with pytest.raises(DegenerateSpan, match="residual"):
        effects.reconstruct_from_frame(frame)


@pytest.mark.parametrize("d", range(2, 9))
def test_born_on_plain_effects_equals_born_on_povm(d, rng):
    states = np.stack([linalg.random_state(d, rng) for _ in range(5)])
    random_povm = effects.validate_povm(linalg.random_povm(d, 6, rng))
    for povm in (effects.standard_sqm(d).base, random_povm):
        for plain in (povm.elements, list(povm), np.stack(povm.elements)):
            for state in (states, states[0]):
                assert effects.born(state, plain).tobytes() == effects.born(state, povm).tobytes()


def test_born_rejects_effects_of_mixed_dimension():
    with pytest.raises(DimensionMismatch):
        effects.born(np.eye(2) / 2.0, [np.eye(2) / 2.0, np.eye(3) / 3.0])


def test_born_rejects_no_effects():
    with pytest.raises(DimensionMismatch):
        effects.born(np.eye(2) / 2.0, [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_born_refuses_a_non_finite_state(bad):
    state = np.eye(2, dtype=complex) / 2.0
    state[0, 0] = bad
    with pytest.raises(InvalidArgument, match="not all finite"):
        effects.born(state, effects.standard_sqm(2).base)


@pytest.mark.parametrize("built", [False, True])
@pytest.mark.parametrize("dim", [2.0, np.float64(2.0), 2.5, True])
def test_standard_sqm_refuses_a_dimension_that_is_no_integer(dim, built, monkeypatch):
    # 2.0 == 2 and hashes alike, so a cache lookup alone would answer it.
    monkeypatch.setattr(effects, "_SQMS", {2: effects.standard_sqm(2)} if built else {})
    with pytest.raises(InvalidArgument, match="is not an integer"):
        effects.standard_sqm(dim)


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("path", ["dual", "lstsq"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_frame_value_raises_degenerate_span(d, path, bad):
    # A NaN residual fails the residual rule, so no NaN operator is returned
    # and no eigenvalue solve sees one.
    sqm = effects.standard_sqm(d).base
    povm = sqm if path == "dual" else effects.validate_povm(linalg.random_povm(d, 2 * d * d, d))
    frame = effects.FrameFunction.from_state(linalg.random_state(d, d), povm)
    frame.record(povm[1], bad)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):  # inf * 0 in the product
        warnings.simplefilter("error", NotAStateWarning)
        with pytest.raises(DegenerateSpan, match="residual nan"):
            effects.reconstruct_from_frame(frame)


def test_frame_from_state_rejects_effects_of_mixed_dimension():
    with pytest.raises(DimensionMismatch):
        effects.FrameFunction.from_state(np.eye(2) / 2.0, [np.eye(2) / 2.0, np.eye(3) / 3.0])


def test_reconstruct_rejects_frame_of_mixed_dimension():
    frame = effects.FrameFunction.from_state(np.eye(2) / 2.0, effects.standard_sqm(2).base)
    with pytest.raises(DimensionMismatch):
        frame.record(np.eye(3) / 3.0, 1.0 / 3.0)


# --------------------------------------------------------------------------
# Dilations.


def _basis_projectors(d):
    return effects.validate_povm([linalg.projector(linalg.ket(i, d)) for i in range(d)])


def _dilation_povm(rho_a, u, meas):
    """The system POVM a dilation induces: the effects of its instrument."""
    return effects.validate_povm(update.instrument_from_dilation(rho_a, u, meas).effects())


def test_dilation_no_interaction_gives_trivial_povm(rng):
    rho_a = linalg.random_state(3, rng)
    povm = _dilation_povm(rho_a, np.eye(6), _basis_projectors(3))
    for pi, e in zip(_basis_projectors(3).elements, povm.elements):
        weight = np.trace(rho_a @ pi).real
        assert np.linalg.norm(e - weight * np.eye(2)) < 1e-12


def test_dilation_cnot_measures_system():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    anc = linalg.projector(linalg.ket(0, 2))
    povm = _dilation_povm(anc, cnot, _basis_projectors(2))
    assert np.linalg.norm(povm[0] - linalg.projector(linalg.ket(0, 2))) < 1e-12
    assert np.linalg.norm(povm[1] - linalg.projector(linalg.ket(1, 2))) < 1e-12


def test_dilation_reproduces_joint_probabilities(rng):
    d_sys, d_anc = 2, 3
    for _ in range(20):
        u = linalg.random_unitary(d_sys * d_anc, rng)
        rho_a = linalg.random_state(d_anc, rng)
        povm = _dilation_povm(rho_a, u, _basis_projectors(d_anc))
        rho_s = linalg.random_state(d_sys, rng)
        joint = u @ linalg.tensor(rho_s, rho_a) @ linalg.dagger(u)
        local = effects.born(rho_s, povm)
        for d, pi in enumerate(_basis_projectors(d_anc).elements):
            dilated = np.trace(joint @ linalg.tensor(np.eye(d_sys), pi)).real
            assert abs(local[d] - dilated) <= 1e-9


def test_validate_povm_reports_first_of_two_bad_elements():
    bad = [np.eye(2), np.diag([0.5, -0.1]), np.eye(2) / 2.0, -0.5 * np.eye(2)]
    with pytest.raises(NotPsd, match="element 1 ") as err:
        effects.validate_povm(bad)
    assert err.value.index == 1
    with pytest.raises(NotPsd) as err:
        effects.validate_povm(bad[2:])
    assert err.value.index == 1


def test_validate_povm_rejects_non_hermitian_elements():
    # Both elements have Hermitian part I/2, so a check on the Hermitian part
    # alone accepts them, and born would drop the imaginary part of tr(rho E).
    skew = [[[0.5, 0.3], [0.0, 0.5]], [[0.5, -0.3], [0.0, 0.5]]]
    with pytest.raises(NotHermitian, match="element 0 "):
        effects.validate_povm(skew)
    with pytest.raises(NotHermitian, match="element 1 "):
        effects.validate_povm([np.eye(2) / 2.0, skew[0], skew[1]])
