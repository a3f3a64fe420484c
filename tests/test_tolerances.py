"""The table at the top of ``qbayes.linalg`` is the library's only source of
tolerances.

The table is the run of module-level numeric constants in ``linalg.py``,
each under a comment line giving its reason, and each read somewhere in the
package, so that folding two values into one leaves no dead constant behind.
Everywhere else in the package a float literal with 0 < |x| < 1e-5, or a
module-level ``*_TOL`` / ``*_FLOOR`` assignment, is a tolerance that escaped
the table.  ``cli.py`` is exempt from the literal rule: its check thresholds
are each named by the check that uses them.

The tests at the end hold rules at their margins: a verdict flips between
just inside and just outside its tolerance.  Every table entry needs at least
one such test, named by an ``inside`` or ``member`` parameter.
"""

import ast
import pathlib
import warnings

import numpy as np
import pytest

from helpers import sqm_probs_with_lowest
from qbayes import effects, entropy, linalg, states, update
from qbayes.errors import (
    DegenerateSpan,
    InconsistentRefinement,
    NotAState,
    NotAStateWarning,
    NotCp,
    NotNormalized,
    NotPsd,
    NotResolution,
    NotTracePreserving,
    NotUnitary,
    SingularOperator,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qbayes"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
SMALL = 1e-5


def _parse(name: str) -> tuple[ast.Module, list[str]]:
    text = (SRC / name).read_text()
    return ast.parse(text), text.splitlines()


def _is_number(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def _table(tree: ast.Module) -> list[ast.Assign]:
    return [n for n in tree.body if isinstance(n, ast.Assign) and _is_number(n.value)]


def _assigned_names(node: ast.stmt) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


@pytest.mark.parametrize("name", MODULES)
def test_no_tolerance_outside_the_table(name):
    tree, _ = _parse(name)
    table = _table(tree) if name == "linalg.py" else []
    allowed = {id(c) for n in table for c in ast.walk(n)}
    escaped = []
    if name != "cli.py":
        escaped += [
            f"line {n.lineno}: literal {n.value!r}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Constant)
            and isinstance(n.value, float)
            and 0.0 < abs(n.value) < SMALL
            and id(n) not in allowed
        ]
    if name != "linalg.py":
        escaped += [
            f"line {n.lineno}: constant {target}"
            for n in tree.body
            if isinstance(n, (ast.Assign, ast.AnnAssign))
            for target in _assigned_names(n)
            if target.endswith(("_TOL", "_FLOOR"))
        ]
    assert not escaped, f"{name}: tolerances outside linalg's table: {escaped}"


def test_table_entries_are_unique_and_documented():
    tree, lines = _parse("linalg.py")
    table = _table(tree)
    names = [t for n in table for t in _assigned_names(n)]
    assert "HERMITIAN_TOL" in names and "PROB_FLOOR" in names
    assert len(names) == len(set(names))
    undocumented = [
        t
        for n in table
        for t in _assigned_names(n)
        if not lines[n.lineno - 2].lstrip().startswith("#")
    ]
    assert not undocumented, f"table entries without a reason comment: {undocumented}"


def test_every_table_entry_is_read():
    reads = set()
    for path in SRC.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.add(n.attr)
    tree, _ = _parse("linalg.py")
    unread = [t for n in _table(tree) for t in _assigned_names(n) if t not in reads]
    assert not unread, f"table entries nothing reads: {unread}"


def _margin_reads(tree: ast.Module) -> set[str]:
    """The ``linalg`` names read by the margin tests: the test functions with an
    ``inside`` or ``member`` parameter, run on each side of a bound."""
    return {
        n.attr
        for f in tree.body
        if isinstance(f, ast.FunctionDef) and {"inside", "member"} & {a.arg for a in f.args.args}
        for n in ast.walk(f)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "linalg"
    }


def test_every_table_entry_has_a_margin_test():
    tree, _ = _parse("linalg.py")
    margins = _margin_reads(ast.parse(pathlib.Path(__file__).read_text()))
    missing = [t for n in _table(tree) for t in _assigned_names(n) if t not in margins]
    assert not missing, f"table entries no margin test names: {missing}"


def test_margin_lint_counts_only_tests_on_both_sides_of_a_bound():
    source = "def test_a(d, inside):\n    linalg.A_TOL\n\n\ndef test_b(d):\n    linalg.B_TOL\n"
    assert _margin_reads(ast.parse(source)) == {"A_TOL"}


def test_lint_flags_an_escaped_tolerance(tmp_path, monkeypatch):
    # The rules must see each kind of escape, or the tests above prove nothing.
    (tmp_path / "stray.py").write_text("LOOSE_TOL = 0.1\n\ndef f(x):\n    return x < 1e-9\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    with pytest.raises(AssertionError, match=r"literal 1e-09.*constant LOOSE_TOL"):
        test_no_tolerance_outside_the_table("stray.py")
    # A table entry that a fold left behind: nothing reads DEAD_TOL.
    table = "# Read below.\nUSED_TOL = 1e-9\n# Read nowhere.\nDEAD_TOL = 1e-8\n"
    (tmp_path / "linalg.py").write_text(table + "\n\ndef g(x):\n    return x < USED_TOL\n")
    with pytest.raises(AssertionError, match=r"nothing reads: \['DEAD_TOL'\]"):
        test_every_table_entry_is_read()


# --------------------------------------------------------------------------
# Rules at their margins, just inside and just outside the tolerance.


@pytest.mark.parametrize("d", [2, 5, 8])
@pytest.mark.parametrize("inside", [True, False])
def test_hermiticity_flips_at_its_tolerance_for_an_operator_and_its_stack(d, inside):
    g = np.random.default_rng(d)
    x = g.normal(size=(2, 2, d, d))
    a, b = x[:, 0] + 1j * x[:, 1]
    h, skew = (a + linalg.dagger(a)) / 2.0, (b - linalg.dagger(b)) / 2.0
    # ||m - m^dag|| / ||m|| is the target up to a relative target^2 / 8.
    target = linalg.HERMITIAN_TOL * (1.0 - 1e-6 if inside else 1.0 + 1e-6)
    m = h + skew * (target * np.linalg.norm(h) / np.linalg.norm(2.0 * skew))
    assert linalg.is_hermitian(m) is inside
    assert linalg.is_hermitian(m[None]).tolist() == [inside]


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("member", [True, False])
def test_sqm_inversion_flips_at_the_state_eigenvalue_floor(d, member):
    sqm = effects.standard_sqm(d)
    low = linalg.STATE_EIG_FLOOR * (1.0 - 1e-6 if member else 1.0 + 1e-6)
    probs = sqm_probs_with_lowest(sqm, low, d)
    result = states.in_sqm_set(probs, sqm)
    assert result.member is member
    assert result.min_eigenvalue == pytest.approx(low, abs=1e-14)
    if member:  # the noise eigenvalue is clamped to 0
        assert np.array_equal(states.from_sqm(probs, sqm), result.state)
        assert np.linalg.eigvalsh(result.state)[0] >= -1e-15
    else:
        assert result.state is None
        with pytest.raises(NotAState, match="eigenvalue"):
            states.from_sqm(probs, sqm)


@pytest.mark.parametrize("low", [0.0, -(2.0**-40)])
def test_sqm_inversion_keeps_a_lowest_eigenvalue_of_exactly_zero(low):
    # A twin of the qubit SQM whose dual element 0 is diag(1 - low, low): the
    # vector e_0 inverts to exactly that operator, so its lowest eigenvalue is
    # exactly low.  At 0 the inversion is the state as it is; just below 0 it is
    # clamped.
    sqm = effects.standard_sqm(2)
    twin = effects.MinimalIcPovm(sqm.base, sqm.gram)
    twin.__dict__["dual"] = np.concatenate([np.diag([1.0 - low, low])[None], sqm.dual[1:]])
    probs = np.array([1.0, 0.0, 0.0, 0.0])
    result = states.in_sqm_set(probs, twin)
    assert result.member and result.min_eigenvalue == low
    assert np.array_equal(states.from_sqm(probs, twin), result.state)
    assert np.array_equal(result.state, np.diag([1.0, 0.0]))


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("member", [True, False])
def test_sqm_vector_flips_at_the_cap_tolerance(d, member):
    # The pure state along u_0 reaches element 0's cap; move eps onto entry 0
    # from the largest other entry, so the vector stays on the simplex.
    sqm = effects.standard_sqm(d)
    u = np.linalg.eigh(sqm.base.elements[0])[1][:, -1]
    probs = effects.born(linalg.projector(u), sqm.base)
    assert probs[0] == pytest.approx(sqm.max_probability[0], abs=1e-15)
    eps = linalg.PROB_CAP_TOL / 2.0 if member else 2.0 * linalg.PROB_CAP_TOL
    donor = 1 + int(np.argmax(probs[1:]))
    probs[0] += eps
    probs[donor] -= eps
    if member:
        assert np.array_equal(states.SqmVector(probs, sqm).probs, probs)
    else:
        with pytest.raises(NotAState, match="largest achievable"):
            states.SqmVector(probs, sqm)


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("inside", [True, False])
def test_born_flips_at_the_negative_probability_tolerance(d, inside):
    # X = |v><v| - s |u><u|, u the top eigenvector of the rank-one element
    # E_0 = lam |u><u| and v a unit vector orthogonal to u: tr(X E_0) = -s lam.
    sqm = effects.standard_sqm(d)
    lam, vecs = np.linalg.eigh(sqm.base.elements[0])
    u, v = vecs[:, -1], vecs[:, 0]
    target = linalg.PROB_NEG_TOL / 2.0 if inside else 2.0 * linalg.PROB_NEG_TOL
    x = linalg.projector(v) - (target / lam[-1]) * linalg.projector(u)
    if inside:
        probs = effects.born(x, sqm.base)
        assert probs[0] == 0.0 and (probs[1:] > 0.0).all()
    else:
        with pytest.raises(NotPsd, match="negative outcome probability"):
            effects.born(x, sqm.base)


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("inside", [True, False])
def test_lstsq_reconstruction_flips_at_the_residual_tolerance(d, inside):
    # The SQM plus I/2 has one linear relation, sum_d E_d / 2 - I/2 = 0, so the
    # residuals live on c = (1/2, ..., 1/2, -1): moving the I/2 value by delta
    # leaves a least-squares residual of delta / ||c||.
    sqm = effects.standard_sqm(d)
    rho = linalg.random_state(d, d)
    frame = effects.FrameFunction.from_state(rho, [*sqm.base, np.eye(d) / 2.0])
    norm_c = np.sqrt(d * d / 4.0 + 1.0)
    delta = linalg.RECONSTRUCTION_RESIDUAL_TOL * norm_c * (1.0 - 1e-6 if inside else 1.0 + 1e-6)
    frame.record(np.eye(d) / 2.0, 0.5 + delta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotAStateWarning)  # the trace moves by about delta
        if inside:
            rec = effects.reconstruct_from_frame(frame)
            assert linalg.trace_distance(rec, rho) <= delta
        else:
            with pytest.raises(DegenerateSpan, match="least-squares residual"):
                effects.reconstruct_from_frame(frame)


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("inside", [True, False])
def test_record_matches_an_effect_at_the_effect_tolerance(d, part, inside):
    # Move one real coordinate of a recorded effect by 0.999 or 1.001 EFFECT_TOL:
    # a diagonal entry's real part, or the imaginary parts of an off-diagonal
    # pair, so the moved effect stays Hermitian.
    effect = effects.standard_sqm(d).base[d + 1]
    frame = effects.FrameFunction()
    frame.record(effect, 0.25)
    delta = linalg.EFFECT_TOL * (0.999 if inside else 1.001)
    moved = effect.copy()
    if part == "real":
        moved[0, 0] += delta
    else:
        moved[0, 1] += 1j * delta
        moved[1, 0] -= 1j * delta
    frame.record(moved, 0.75)
    effs, values = zip(*frame.items())
    if inside:
        assert len(frame) == 1 and values == (0.75,) and np.array_equal(effs[0], effect)
    else:
        assert len(frame) == 2 and values == (0.25, 0.75) and np.array_equal(effs[1], moved)


def test_record_matches_across_a_decimal_rounding_boundary():
    # At D = 11 some SQM entries lie within 5e-17 of 0.0018857444825, where
    # rounding to 12 decimals flips: a move of a few ulps changes the rounded
    # entry but leaves the effect within EFFECT_TOL.
    effect = effects.standard_sqm(11).base.elements[14]
    at = tuple(np.argwhere(abs(abs(effect.view(float)) - 0.0018857444825) < 1e-16)[0])
    x = y = effect.view(float)[at]
    toward = 0.0 if abs(x) > 0.0018857444825 else 2.0 * x  # across the boundary
    while np.round(y, 12) == np.round(x, 12):
        y = np.nextafter(y, toward)
    assert abs(y - x) < 1e-16
    moved = effect.copy()
    moved.view(float)[at] = y
    frame = effects.FrameFunction()
    frame.record(effect, 0.25)
    frame.record(moved, 0.75)
    assert len(frame) == 1 and frame.items()[0][1] == 0.75


@pytest.mark.parametrize("inside", [True, False])
def test_factor_update_drops_an_outcome_at_the_probability_floor(inside):
    # Under I/2 the effect 2p |0><0| has probability p: at most PROB_FLOOR is
    # no live outcome, with zero refinement, readjustment and posterior.
    p = linalg.PROB_FLOOR * (0.999 if inside else 1.001)
    kraus = np.array([[np.diag([np.sqrt(2.0 * p), 0.0])], [np.diag([np.sqrt(1.0 - 2.0 * p), 1.0])]], dtype=complex)
    fac = update.factor_update(np.eye(2) / 2.0, kraus)
    assert fac.probabilities[0] == pytest.approx(p, rel=1e-12)
    assert fac.live.tolist() == [not inside, True]
    assert fac.posteriors[0].any() == (not inside)


@pytest.mark.parametrize("inside", [True, False])
def test_refinement_gaps_drop_an_outcome_at_the_probability_floor(inside):
    # Prior I/2 (1 bit); outcome 0 leaves p I/2 (1 bit), outcome 1 a pure state.
    # A live outcome 0 takes p bits off the von Neumann gap, a dropped one none.
    p = linalg.PROB_FLOOR * (0.999 if inside else 1.001)
    raw = np.array([[p * np.eye(2) / 2.0, np.diag([1.0 - p, 0.0])]], dtype=complex)
    gap = entropy._refinement_gaps(np.eye(2, dtype=complex)[None] / 2.0, raw)[0, 0]
    assert gap == pytest.approx(1.0 if inside else 1.0 - p, abs=1e-15)


@pytest.mark.parametrize("inside", [True, False])
def test_dilation_drops_an_ancilla_eigenvalue_at_the_probability_floor(inside):
    # Ancilla diag(1 - p, p), no interaction, read in its eigenbasis: outcome 1
    # has effect p I while the eigenvalue p is kept, and none once it is dropped.
    p = linalg.PROB_FLOOR * (0.999 if inside else 1.001)
    basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    inst = update.instrument_from_dilation(np.diag([1.0 - p, p]), np.eye(4), basis)
    assert inst.outcomes.shape == (2, 2 if inside else 4, 2, 2)
    assert np.abs(inst.effects()[1] - (0.0 if inside else p) * np.eye(2)).max() <= 1e-27


@pytest.mark.parametrize("inside", [True, False])
def test_steering_drops_a_far_outcome_at_the_probability_floor(inside):
    # Control (|00> + |11>)/sqrt(2); the far effect diag(2p, 0) has probability p.
    p = linalg.PROB_FLOOR * (0.999 if inside else 1.001)
    far = effects.validate_povm([np.diag([2.0 * p, 0.0]), np.diag([1.0 - 2.0 * p, 1.0])])
    report = update.remote_steering_experiment(far, seed=1, alpha=np.sqrt(0.5), beta=np.sqrt(0.5))
    assert report.far_probs[0] == pytest.approx(p, rel=1e-12)
    assert report.conditional_weights[0].tolist() == ([0.0, 0.0] if inside else [1.0, 0.0])


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("inside", [True, False])
def test_teleport_flips_at_the_norm_tolerance(sign, inside):
    # A unit ket is a one-column isometry: psi^dag psi = 1 + delta is held to IDENTITY_TOL.
    ket = np.array([np.sqrt(1.0 + sign * linalg.IDENTITY_TOL * (0.999 if inside else 1.001)), 0.0])
    if inside:
        assert update.teleport(ket).fidelities == pytest.approx(np.ones(4))
    else:
        with pytest.raises(NotNormalized, match="input ket has norm"):
            update.teleport(ket)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("inside", [True, False])
def test_control_amplitudes_flip_at_the_norm_tolerance(sign, inside):
    # |alpha|^2 = 1 + delta: the channel's sum A^dag A = (1 + delta) I misses I
    # by sqrt(2) |delta|, which the completeness rule holds to IDENTITY_TOL.
    alpha = np.sqrt(1.0 + sign * linalg.IDENTITY_TOL / np.sqrt(2.0) * (0.999 if inside else 1.001))
    u = np.eye(2, dtype=complex)
    if inside:
        assert update.controlled_unitary_channel(u, u, alpha, 0.0).outcomes.shape == (1, 1, 2, 2)
    else:
        with pytest.raises(NotNormalized, match="amplitudes"):
            update.controlled_unitary_channel(u, u, alpha, 0.0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("inside", [True, False])
def test_control_amplitudes_are_held_to_the_completeness_rule(d, sign, inside):
    # |alpha|^2 + |beta|^2 = 1 + delta gives sum A^dag A = (1 + delta) I, which
    # misses I by sqrt(D) |delta|: the amplitude check is the channel's own
    # completeness rule, so no amplitude reaches make_channel's NotTracePreserving.
    delta = sign * linalg.IDENTITY_TOL / np.sqrt(d) * (0.999 if inside else 1.001)
    u0, u1 = linalg.random_unitary(d, 1), linalg.random_unitary(d, 2)
    alpha, beta = np.sqrt(0.3 * (1.0 + delta)), 1j * np.sqrt(0.7 * (1.0 + delta))
    if inside:
        channel = update.controlled_unitary_channel(u0, u1, alpha, beta)
        assert linalg.identity_dev(channel.effects()[0]) <= linalg.IDENTITY_TOL
    else:
        with pytest.raises(NotNormalized, match="amplitudes"):
            update.controlled_unitary_channel(u0, u1, alpha, beta)


def _scaled(bound: float, inside: bool) -> float:
    return bound * (0.999 if inside else 1.001)


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("inside", [True, False])
def test_validate_povm_flips_at_the_psd_tolerance(d, inside):
    # E_0 = U diag(1 + s, -s, 1/2, ...) U^dag and E_1 = I - E_0 both have the
    # spectrum's ends -s and 1 + s, so each is held to s <= PSD_TOL (1 + s).
    s = _scaled(linalg.PSD_TOL, inside)
    u = linalg.random_unitary(d, d)
    e0 = u @ np.diag([1.0 + s, -s] + [0.5] * (d - 2)) @ linalg.dagger(u)
    candidate = [e0, np.eye(d) - e0]
    if inside:
        assert len(effects.validate_povm(candidate)) == 2
    else:
        with pytest.raises(NotPsd, match="element 0"):
            effects.validate_povm(candidate)


@pytest.mark.parametrize("inside", [True, False])
def test_density_spectrum_flips_at_the_psd_tolerance(inside):
    s = _scaled(linalg.PSD_TOL, inside)
    rho = np.diag([1.0 + s, -s])
    if inside:
        assert states.density_spectrum(rho)[1][0] == -s
    else:
        with pytest.raises(NotAState, match="smallest eigenvalue"):
            states.density_spectrum(rho)


@pytest.mark.parametrize("inside", [True, False])
def test_choi_channel_flips_at_the_psd_tolerance(inside):
    # The identity channel's Choi operator (top eigenvalue 1) minus s |01><01|:
    # inside, the eigenvalue -s is rank noise and the identity channel remains.
    s = _scaled(linalg.PSD_TOL, inside)
    choi = update.channel_choi(update.make_channel([np.eye(2)])) - s * np.diag([0.0, 1.0, 0.0, 0.0])
    if inside:
        assert update.choi_channel(choi).outcomes.shape == (1, 1, 2, 2)
    else:
        with pytest.raises(NotCp, match="Choi operator"):
            update.choi_channel(choi)


@pytest.mark.parametrize("inside", [True, False])
def test_mat_invsqrt_flips_at_the_rank_tolerance(inside):
    m = np.diag([1.0, _scaled(linalg.RANK_TOL, inside)])
    if inside:
        with pytest.raises(SingularOperator, match="invertibility threshold"):
            linalg.mat_invsqrt(m)
    else:
        assert linalg.mat_invsqrt(m)[1, 1] == pytest.approx(1.0 / np.sqrt(m[1, 1]), rel=1e-12)


@pytest.mark.parametrize("inside", [True, False])
def test_numeric_rank_flips_at_the_rank_tolerance(inside):
    values = np.array([4.0, 4.0 * _scaled(linalg.RANK_TOL, inside)])
    assert linalg.numeric_rank(values) == (1 if inside else 2)


@pytest.mark.parametrize("inside", [True, False])
def test_choi_kraus_count_flips_at_the_rank_tolerance(inside):
    # Kraus {sqrt(1 - p) I, sqrt(p) Z}: Choi eigenvalues 1 - p and p, with
    # p / (1 - p) at the rank cut.  Both Kraus sets are complete within IDENTITY_TOL.
    r = _scaled(linalg.RANK_TOL, inside)
    p = r / (1.0 + r)
    choi = update.channel_choi(update.make_channel([np.sqrt(1.0 - p) * np.eye(2), np.sqrt(p) * linalg.sigma_z]))
    assert update.choi_channel(choi).outcomes.shape[1] == (1 if inside else 2)


@pytest.mark.parametrize("inside", [True, False])
def test_validate_povm_flips_at_the_identity_tolerance(inside):
    delta = _scaled(linalg.IDENTITY_TOL, inside)
    candidate = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0 + delta])]
    if inside:
        assert len(effects.validate_povm(candidate)) == 2
    else:
        with pytest.raises(NotResolution, match="within"):
            effects.validate_povm(candidate)


@pytest.mark.parametrize("inside", [True, False])
def test_make_instrument_flips_at_the_identity_tolerance(inside):
    delta = _scaled(linalg.IDENTITY_TOL, inside)
    outcomes = [[np.diag([np.sqrt(1.0 + delta), 0.0])], [np.diag([0.0, 1.0])]]
    if inside:
        assert len(update.make_instrument(outcomes)) == 2
    else:
        with pytest.raises(NotTracePreserving, match="deviates from I"):
            update.make_instrument(outcomes)


@pytest.mark.parametrize("inside", [True, False])
def test_efficient_from_povm_unitaries_flip_at_the_identity_tolerance(inside):
    # U^dag U = diag(1, 1 + delta), applied to the outcome |1><1|, so the
    # instrument's completeness sum misses I by delta too.
    delta = _scaled(linalg.IDENTITY_TOL, inside)
    povm = effects.validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    unitaries = [np.eye(2), np.diag([1.0, np.sqrt(1.0 + delta)])]
    if inside:
        assert update.efficient_from_povm(povm, unitaries).efficient
    else:
        with pytest.raises(NotUnitary, match="deviates from I"):
            update.efficient_from_povm(povm, unitaries)


@pytest.mark.parametrize("inside", [True, False])
def test_density_spectrum_flips_at_the_trace_tolerance(inside):
    rho = np.diag([0.5 + _scaled(linalg.PROB_SUM_TOL, inside), 0.5])
    if inside:
        assert np.array_equal(states.density_spectrum(rho)[0], rho)
    else:
        with pytest.raises(NotAState, match="trace"):
            states.density_spectrum(rho)


@pytest.mark.parametrize("inside", [True, False])
def test_sqm_vector_flips_at_the_sum_tolerance(inside):
    probs = np.array([0.25 + _scaled(linalg.PROB_SUM_TOL, inside), 0.25, 0.25, 0.25])
    sqm = effects.standard_sqm(2)
    if inside:
        assert np.array_equal(states.SqmVector(probs, sqm).probs, probs)
    else:
        with pytest.raises(NotAState, match="sum to"):
            states.SqmVector(probs, sqm)


@pytest.mark.parametrize("inside", [True, False])
def test_reconstruction_warns_at_the_trace_tolerance(inside):
    # The SQM frame of (1 + delta) I/2, no state, reconstructs that operator.
    rho = (1.0 + _scaled(linalg.PROB_SUM_TOL, inside)) * np.eye(2) / 2.0
    frame = effects.FrameFunction.from_state(rho, effects.standard_sqm(2).base)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NotAStateWarning)
        effects.reconstruct_from_frame(frame)
    assert [w.category for w in caught] == ([] if inside else [NotAStateWarning])


@pytest.mark.parametrize("inside", [True, False])
def test_identify_measurement_flips_at_the_refinement_tolerance(inside):
    # The refinement of I/2 into |0><0| and (1 + 2 delta)|1><1| misses it by delta.
    # Inside, the refinement is accepted and the POVM it gives, which misses I
    # by 2 delta, is refused by the completeness rule.
    delta = _scaled(linalg.REFINEMENT_TOL, inside)
    refinement = [(0.5, np.diag([1.0, 0.0])), (0.5, np.diag([0.0, 1.0 + 2.0 * delta]))]
    error, match = (NotResolution, "identity") if inside else (InconsistentRefinement, "misses")
    with pytest.raises(error, match=match):
        update.identify_measurement(np.eye(2) / 2.0, refinement)
