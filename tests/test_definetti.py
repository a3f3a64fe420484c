import functools

import numpy as np
import pytest

from helpers import posterior_weights
from qbayes import cli, definetti, effects, linalg
from qbayes.errors import (
    DimensionBudgetExceeded,
    DimensionMismatch,
    NnlsNotConverged,
    NotAState,
    ZeroLikelihoodEverywhere,
)


def qubit_sqm():
    return effects.standard_sqm(2).base


def point_prior(state):
    return definetti.make_prior([state], [1.0])


def predictive(prior):
    """The single-copy state a holder of ``prior`` assigns: the mixture."""
    return np.tensordot(prior.weights, prior.states, axes=1)


def test_point_prior_mix_is_tensor_power(rng):
    rho = linalg.random_state(2, rng)
    ex = definetti.definetti_mix(point_prior(rho), 3)
    assert np.linalg.norm(ex.op - linalg.tensor(*[rho] * 3)) <= 1e-12


def test_mix_matches_direct_construction_for_y_states():
    ex = definetti.real_y_mixture(2)
    rho_p = 0.5 * (np.eye(2) + linalg.sigma_y)
    rho_m = 0.5 * (np.eye(2) - linalg.sigma_y)
    direct = 0.5 * linalg.tensor(rho_p, rho_p) + 0.5 * linalg.tensor(rho_m, rho_m)
    assert np.linalg.norm(ex.op - direct) <= 1e-12


def test_mix_permutation_invariant(rng):
    prior = definetti.make_prior([linalg.random_state(2, rng) for _ in range(4)])
    ex = definetti.definetti_mix(prior, 3)
    report = definetti.check_exchangeable(
        ex, lambda m: definetti.definetti_mix(prior, m)
    )
    assert report.max_transposition_deviation <= 1e-9
    assert report.max_marginal_deviation <= 1e-9


def test_asymmetric_product_fails_transposition(rng):
    r0 = linalg.random_state(2, rng)
    r1 = linalg.random_state(2, rng)
    bad = definetti.ExchangeableState(2, 2, linalg.tensor(r0, r1))
    report = definetti.check_exchangeable(bad)
    assert report.max_transposition_deviation > 0.01


def test_budget_guard():
    prior = point_prior(np.eye(2) / 2.0)
    with pytest.raises(DimensionBudgetExceeded):
        definetti.definetti_mix(prior, 15)


def test_budget_counts_bytes_at_the_boundary():
    # Each case is refused before anything large is allocated.
    limit = linalg.MEMORY_BUDGET_BYTES
    linalg._check_budget(limit, "exactly the budget")
    with pytest.raises(DimensionBudgetExceeded):
        linalg._check_budget(limit + 1, "one byte over")
    # One 2^14-dimensional operator is 4 GiB of complex entries.
    with pytest.raises(DimensionBudgetExceeded):
        definetti.definetti_mix(point_prior(np.eye(2) / 2.0), 14)
    # 64 KiB per 6-copy qubit power: 4096 of them fit, 4097 do not.
    assert 4096 * 16 * 2**12 == limit
    with pytest.raises(DimensionBudgetExceeded):
        definetti._tensor_powers(np.broadcast_to(np.eye(2) / 2.0, (4097, 2, 2)), 6)
    # The classical joint and one block are float64 arrays of 2^n entries.
    assert 2 * 8 * 2**24 == limit
    with pytest.raises(DimensionBudgetExceeded):
        definetti.classical_definetti_mix(np.array([1.0]), [np.array([0.5, 0.5])], 25)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_powers_match_kron(rng, n):
    states = np.stack([linalg.random_state(2 + n % 2, rng) for _ in range(5)])
    stacked = definetti._tensor_powers(states, n)
    for s, power in zip(states, stacked):
        assert np.array_equal(power, functools.reduce(np.kron, [s] * n))


# --------------------------------------------------------------------------
# Posterior updating: the Bayes rule of definetti._count_posterior.


def test_empty_outcome_list_keeps_prior(rng):
    prior = definetti.make_prior([linalg.random_state(2, rng) for _ in range(3)])
    assert np.allclose(posterior_weights(prior, qubit_sqm(), []), prior.weights)


def test_point_prior_unchanged_by_data(rng):
    prior = point_prior(linalg.random_state(2, rng))
    assert np.allclose(posterior_weights(prior, qubit_sqm(), [0, 1, 2, 3, 0]), [1.0])


def test_two_point_prior_projective_data():
    zeros = linalg.projector(linalg.ket(0, 2))
    ones = linalg.projector(linalg.ket(1, 2))
    prior = definetti.make_prior([zeros, ones])
    zmeas = effects.validate_povm([zeros, ones])
    post = posterior_weights(prior, zmeas, [0, 0, 0])
    assert post[0] == pytest.approx(1.0)
    assert post[1] == pytest.approx(0.0)


def test_zero_likelihood_everywhere():
    ones = linalg.projector(linalg.ket(1, 2))
    prior = definetti.make_prior([ones])
    zmeas = effects.validate_povm(
        [linalg.projector(linalg.ket(0, 2)), ones]
    )
    with pytest.raises(ZeroLikelihoodEverywhere):
        posterior_weights(prior, zmeas, [0])


def test_sequential_equals_batch(rng):
    grid = definetti.bloch_grid(10, (0.5, 1.0))
    prior = definetti.make_prior(grid)
    outcomes = list(rng.integers(0, 4, size=40))
    batch = posterior_weights(prior, qubit_sqm(), outcomes)
    seq = prior
    for o in outcomes:
        seq = definetti.PriorOverStates(seq.states, posterior_weights(seq, qubit_sqm(), [o]))
    assert np.abs(batch - seq.weights).max() <= 1e-12


def test_likelihood_oracle(rng):
    prior = definetti.make_prior([linalg.random_state(2, rng) for _ in range(5)])
    outcomes = [2, 0, 1]
    post = posterior_weights(prior, qubit_sqm(), outcomes)
    like = np.array(
        [
            np.prod([effects.born(s, qubit_sqm())[d] for d in outcomes])
            for s in prior.states
        ]
    )
    expected = prior.weights * like
    expected /= expected.sum()
    assert np.abs(post - expected).max() <= 1e-12


def test_predictive_state(rng):
    states_list = [linalg.random_state(2, rng) for _ in range(4)]
    w = rng.random(4)
    w /= w.sum()
    prior = definetti.make_prior(states_list, w)
    pred = predictive(prior)
    assert np.linalg.norm(pred - sum(wi * s for wi, s in zip(w, states_list))) <= 1e-12


def test_predictive_of_y_mixture_is_maximally_mixed():
    rho_p = 0.5 * (np.eye(2) + linalg.sigma_y)
    rho_m = 0.5 * (np.eye(2) - linalg.sigma_y)
    prior = definetti.make_prior([rho_p, rho_m])
    assert np.linalg.norm(predictive(prior) - np.eye(2) / 2.0) <= 1e-12


def test_posterior_predictive_matches_multicopy_conditional(rng):
    # Updating the prior on two outcomes and predicting one more copy
    # agrees with conditioning the 3-copy exchangeable state directly.
    prior = definetti.make_prior([linalg.random_state(2, rng) for _ in range(6)])
    povm = qubit_sqm()
    data = [int(rng.integers(4)), int(rng.integers(4))]
    pred = np.tensordot(posterior_weights(prior, povm, data), prior.states, axes=1)
    ex3 = definetti.definetti_mix(prior, 3)
    weight_op = linalg.tensor(povm[data[0]], povm[data[1]], np.eye(2))
    conditioned = linalg.trace_out_factor(
        linalg.trace_out_factor(weight_op @ ex3.op, [2, 2, 2], 0), [2, 2], 0
    )
    conditioned /= np.trace(conditioned).real
    assert np.linalg.norm(conditioned - pred) <= 1e-10


# --------------------------------------------------------------------------
# Merging.


def test_identical_priors_stay_identical(rng):
    grid = definetti.bloch_grid(10, (0.5, 1.0))
    prior = definetti.make_prior(grid)
    trace = definetti.merging_experiment(
        prior, prior, grid[3], qubit_sqm(), 50, seed=2
    )
    assert trace.inter_agent.max() <= 1e-12


def test_merging_with_ic_data_converges():
    grid = definetti.bloch_grid(50, (0.25, 0.5, 0.75, 1.0))
    uniform = definetti.make_prior(grid)
    skewed = definetti.make_prior(grid, definetti.center_skewed_weights(grid))
    finals = []
    medians_at = {10: [], 50: [], 100: [], 500: []}
    for seed in range(20):
        pick = np.random.default_rng(777 + seed)
        truth = grid[int(pick.integers(len(grid)))]
        trace = definetti.merging_experiment(
            uniform, skewed, truth, qubit_sqm(), 500, seed=seed
        )
        finals.append(trace.final_inter_agent)
        for k in medians_at:
            medians_at[k].append(trace.inter_agent[k])
    assert float(np.median(finals)) < 0.05
    meds = [float(np.median(medians_at[k])) for k in (10, 50, 100, 500)]
    assert all(meds[i] >= meds[i + 1] - 1e-12 for i in range(len(meds) - 1))


def test_merging_with_non_ic_data_plateaus():
    grid = definetti.bloch_grid(50, (0.25, 0.5, 0.75, 1.0))
    pa = definetti.make_prior(grid, definetti.axis_skewed_weights(grid, linalg.sigma_x, +2.0))
    pb = definetti.make_prior(grid, definetti.axis_skewed_weights(grid, linalg.sigma_x, -2.0))
    zmeas = effects.validate_povm(
        [linalg.projector(linalg.ket(i, 2)) for i in range(2)]
    )
    finals = []
    for seed in range(5):
        pick = np.random.default_rng(123 + seed)
        truth = grid[int(pick.integers(len(grid)))]
        trace = definetti.merging_experiment(pa, pb, truth, zmeas, 500, seed=seed)
        finals.append(trace.final_inter_agent)
    assert float(np.median(finals)) > 0.05


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merging_matches_sequential_reference(seed):
    grid = definetti.bloch_grid(20, (0.5, 1.0))
    uniform = definetti.make_prior(grid)
    skewed = definetti.make_prior(grid, definetti.center_skewed_weights(grid))
    truth = grid[7 + seed]
    trace = definetti.merging_experiment(uniform, skewed, truth, qubit_sqm(), 60, seed=seed)
    # Reference: reweight by one outcome at a time, then compare the two
    # predictive states with each other and with the truth.
    wa, wb = uniform.weights.copy(), skewed.weights.copy()
    inter, to_a, to_b = [], [], []
    for t in range(len(trace.outcomes) + 1):
        if t > 0:
            d = trace.outcomes[t - 1]
            wa = wa * [effects.born(s, qubit_sqm())[d] for s in grid]
            wb = wb * [effects.born(s, qubit_sqm())[d] for s in grid]
            wa, wb = wa / wa.sum(), wb / wb.sum()
        pred_a = sum(w * s for w, s in zip(wa, grid))
        pred_b = sum(w * s for w, s in zip(wb, grid))
        inter.append(linalg.trace_distance(pred_a, pred_b))
        to_a.append(linalg.trace_distance(pred_a, truth))
        to_b.append(linalg.trace_distance(pred_b, truth))
    assert np.abs(trace.inter_agent - inter).max() <= 1e-12
    assert np.abs(trace.to_truth_a - to_a).max() <= 1e-12
    assert np.abs(trace.to_truth_b - to_b).max() <= 1e-12


def test_merging_raises_on_impossible_data():
    zero, one = (linalg.projector(linalg.ket(i, 2)) for i in range(2))
    zmeas = effects.validate_povm([zero, one])
    with pytest.raises(ZeroLikelihoodEverywhere):
        definetti.merging_experiment(
            point_prior(one), point_prior(zero), zero, zmeas, 5, seed=0
        )


# --------------------------------------------------------------------------
# Classical mixtures.


def test_classical_point_prior_is_iid():
    p = np.array([0.3, 0.7])
    joint = definetti.classical_definetti_mix(np.array([1.0]), [p], 3)
    expected = np.multiply.outer(np.multiply.outer(p, p), p)
    assert np.abs(joint - expected).max() <= 1e-15


def test_classical_two_point_mixture():
    w = np.array([0.5, 0.5])
    dists = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    joint = definetti.classical_definetti_mix(w, dists, 2)
    assert joint[0, 0] == pytest.approx(0.5)
    assert joint[1, 1] == pytest.approx(0.5)
    assert joint[0, 1] == 0.0 and joint[1, 0] == 0.0


def test_classical_mix_depends_only_on_counts(rng):
    w = rng.random(3)
    w /= w.sum()
    dists = [rng.dirichlet(np.ones(2)) for _ in range(3)]
    joint = definetti.classical_definetti_mix(w, dists, 4)
    assert joint[0, 1, 1, 0] == pytest.approx(joint[1, 1, 0, 0], abs=1e-15)
    assert joint[0, 1, 0, 1] == pytest.approx(joint[1, 0, 0, 1], abs=1e-15)


# --------------------------------------------------------------------------
# Real-field counterexample.


def test_real_counterexample_n2():
    rep = definetti.real_counterexample(2)
    assert rep.max_imag_entry <= 1e-12
    assert rep.transposition_deviation <= 1e-9
    assert rep.witness_value == pytest.approx(1.0, abs=1e-12)
    assert rep.witness_bound == pytest.approx(0.5, abs=1e-12)
    assert rep.real_fit_residual >= rep.witness_bound - 1e-9
    assert rep.complex_fit_residual <= 1e-9


def test_real_counterexample_n3():
    rep = definetti.real_counterexample(3, real_grid_size=300)
    assert rep.max_imag_entry <= 1e-12
    assert rep.transposition_deviation <= 1e-9
    assert rep.real_fit_residual >= rep.witness_bound - 1e-9
    assert rep.witness_bound > 0.05
    assert rep.complex_fit_residual <= 1e-9


def test_real_fit_residuals_pinned():
    assert definetti.real_counterexample(2).real_fit_residual == pytest.approx(
        0.5000006529481507, abs=1e-12
    )
    rep3 = definetti.real_counterexample(3, real_grid_size=300)
    assert rep3.real_fit_residual == pytest.approx(0.6123756287005552, abs=1e-12)


def assert_nnls_kkt(a, b, x, residual):
    """x >= 0, a^T (b - a x) <= 0 everywhere and = 0 on the support of x."""
    dual = a.T @ (b - a @ x)
    scale = np.linalg.norm(a, 1) * np.linalg.norm(b)
    assert x.min() >= 0.0
    assert dual.max() <= 1e-12 * scale
    assert np.abs(dual[x > 0]).max(initial=0.0) <= 1e-12 * scale
    assert residual == pytest.approx(np.linalg.norm(b - a @ x), abs=1e-12 * scale)


def test_nnls_kkt_on_random_problems():
    g = np.random.default_rng(20)
    shapes = set()
    for _ in range(200):
        m, n = (int(k) for k in g.integers(2, 41, size=2))
        shapes.add(np.sign(m - n))
        a, b = g.normal(size=(m, n)), g.normal(size=m)
        assert_nnls_kkt(a, b, *definetti._nnls(a, b))
    assert shapes == {-1, 0, 1}


def test_nnls_exact_inside_the_cone():
    g = np.random.default_rng(21)
    for m, n in [(3, 12), (12, 3), (20, 20), (40, 7)]:
        a = g.normal(size=(m, n))
        x0 = np.where(g.random(n) < 0.5, g.random(n), 0.0)
        x, residual = definetti._nnls(a, a @ x0)
        assert residual <= 1e-12


def test_nnls_zero_when_every_dual_entry_is_nonpositive():
    g = np.random.default_rng(22)
    a, b = g.random((6, 9)), -g.random(6)
    assert (a.T @ b <= 0).all()
    x, residual = definetti._nnls(a, b)
    assert not x.any()
    assert residual == np.linalg.norm(b)


def test_nnls_duplicate_columns():
    g = np.random.default_rng(23)
    a0, b = g.normal(size=(8, 5)), g.normal(size=8)
    a = np.hstack([a0, a0[:, [0, 2, 2]], a0])
    x, residual = definetti._nnls(a, b)
    assert_nnls_kkt(a, b, x, residual)
    assert residual == pytest.approx(definetti._nnls(a0, b)[1], abs=1e-12)


def test_nnls_cycle_raises_typed_error(monkeypatch):
    # A least-squares oracle that flips the sign of every variable kept
    # from its previous call makes the active set cycle forever.
    lstsq, seen = np.linalg.lstsq, []

    def cycling(a, b, rcond=None):
        z = lstsq(a, b, rcond=rcond)[0]
        cols = [tuple(c) for c in a.T]
        if len(cols) >= 2:
            z = np.where([c in seen for c in cols], -np.abs(z), np.abs(z))
        seen[:] = cols
        return z, None, None, None

    monkeypatch.setattr(np.linalg, "lstsq", cycling)
    with pytest.raises(NnlsNotConverged):
        definetti._nnls(np.eye(3), np.ones(3))


def test_real_states_have_no_yy_component(rng):
    yy = linalg.tensor(linalg.sigma_y, linalg.sigma_y)
    for _ in range(20):
        x, z = rng.random(2) * 0.7
        rho = 0.5 * (np.eye(2) + x * linalg.sigma_x + z * linalg.sigma_z)
        power = linalg.tensor(rho, rho)
        assert abs(linalg.hs_inner(yy, power)) <= 1e-12


def test_make_prior_validates_the_grid_as_one_stack(rng):
    grid = [linalg.random_state(2, rng) for _ in range(5)]
    grid[3] = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(NotAState, match=r"^state 3 "):
        definetti.make_prior(grid)
    with pytest.raises(DimensionMismatch):
        definetti.make_prior([np.eye(2) / 2.0, np.eye(3) / 3.0])


# --------------------------------------------------------------------------
# Count-based updates, stacked priors and grids.


def sequential_posteriors(weights, likelihood, outcomes):
    """Posterior weights before any data and after each outcome, one at a time."""
    rows = [np.asarray(weights, dtype=float)]
    for d in outcomes:
        w = rows[-1] * likelihood[:, d]
        rows.append(w / w.sum())
    return np.array(rows)


def cumulative_counts(outcomes, m):
    return np.vstack([np.zeros(m), np.cumsum(np.eye(m)[outcomes], axis=0)])


def test_count_posterior_matches_sequential_reference():
    for seed in range(200):
        g = np.random.default_rng(4000 + seed)
        dim = 2 + seed % 3
        k, m = int(g.integers(2, 9)), int(g.integers(2, dim * dim + 3))
        states = np.stack([linalg.random_state(dim, g) for _ in range(k)])
        weights = g.random(k)
        weights[g.permutation(k)[: int(g.integers(1, k))]] = 0.0
        weights /= weights.sum()
        povm = effects.validate_povm(linalg.random_povm(dim, m, g))
        likelihood = effects.born(states, povm)
        outcomes = g.integers(m, size=40)
        reference = sequential_posteriors(weights, likelihood, outcomes)
        got = definetti._count_posterior(weights, likelihood, cumulative_counts(outcomes, m))
        assert np.abs(got - reference).max() <= 1e-12
        assert not got[:, weights == 0.0].any()


def cli_merging_config(name):
    """The two merging set-ups of the definetti-merge section."""
    grid = definetti.bloch_grid(50, (0.25, 0.5, 0.75, 1.0))
    if name == "sqm":
        weights_a = None
        weights_b = definetti.center_skewed_weights(grid)
        povm = qubit_sqm()
    else:
        weights_a = definetti.axis_skewed_weights(grid, linalg.sigma_x, +2.0)
        weights_b = definetti.axis_skewed_weights(grid, linalg.sigma_x, -2.0)
        povm = effects.validate_povm([linalg.projector(linalg.ket(i, 2)) for i in range(2)])
    return grid, definetti.make_prior(grid, weights_a), definetti.make_prior(grid, weights_b), povm


@pytest.mark.parametrize("name", ["sqm", "z"])
@pytest.mark.parametrize("seed", [0, 1])
def test_cli_trajectories_match_sequential_reference(name, seed):
    grid, prior_a, prior_b, povm = cli_merging_config(name)
    truth = grid[int(np.random.default_rng(700 + seed).integers(len(grid)))]
    trace = definetti.merging_experiment(prior_a, prior_b, truth, povm, 500, seed=seed)
    preds = [
        sequential_posteriors(p.weights, effects.born(p.states, povm), trace.outcomes)
        @ p.states.reshape(len(p), -1)
        for p in (prior_a, prior_b)
    ]
    pred_a, pred_b = (p.reshape(-1, 2, 2) for p in preds)
    reference = [
        [linalg.trace_distance(x, y) for x, y in zip(pred_a, pred_b)],
        [linalg.trace_distance(x, truth) for x in pred_a],
        [linalg.trace_distance(x, truth) for x in pred_b],
    ]
    got = [trace.inter_agent, trace.to_truth_a, trace.to_truth_b]
    for g, r in zip(got, reference):
        assert g.shape == (501,)
        assert np.abs(g - r).max() <= 1e-12


@pytest.mark.parametrize("name", ["sqm", "z"])
def test_final_values_equal_last_trajectory_entry(name):
    grid, prior_a, prior_b, povm = cli_merging_config(name)
    for seed in range(10):
        truth = grid[(37 * seed) % len(grid)]
        trace = definetti.merging_experiment(prior_a, prior_b, truth, povm, 500, seed=seed)
        final_a, final_b = trace.final_to_truth
        assert abs(trace.final_inter_agent - trace.inter_agent[-1]) <= 1e-14
        assert abs(final_a - trace.to_truth_a[-1]) <= 1e-14
        assert abs(final_b - trace.to_truth_b[-1]) <= 1e-14


@pytest.mark.parametrize("name", ["sqm", "z"])
def test_outcomes_are_one_direct_draw(name):
    grid, prior_a, prior_b, povm = cli_merging_config(name)
    truth = grid[57]
    trace = definetti.merging_experiment(prior_a, prior_b, truth, povm, 500, seed=9)
    p = effects.born(truth, povm)
    expected = np.random.default_rng(9).choice(len(povm), size=500, p=p / p.sum())
    assert trace.outcomes.dtype == expected.dtype
    assert trace.outcomes.tobytes() == expected.tobytes()


def test_late_impossible_outcome_raises():
    # Every support state lies in span{|0>, |1>}: outcomes 0 and 1 are
    # possible under all of them, outcome 2 under none.
    states = [np.diag([0.5, 0.5, 0.0]), np.diag([0.8, 0.2, 0.0]), np.diag([0.1, 0.9, 0.0])]
    prior = definetti.make_prior(states)
    povm = effects.validate_povm([linalg.projector(linalg.ket(i, 3)) for i in range(3)])
    early = [0, 1, 1, 0, 1]
    assert (posterior_weights(prior, povm, early) > 0.0).all()
    with pytest.raises(ZeroLikelihoodEverywhere):
        posterior_weights(prior, povm, early + [2, 0])
    likelihood = effects.born(prior.states, povm)
    with pytest.raises(ZeroLikelihoodEverywhere):
        definetti._count_posterior(prior.weights, likelihood, cumulative_counts(early + [2], 3))


def test_merge_section_builds_no_trajectory(monkeypatch):
    shapes = []
    trace_distance = linalg.trace_distance

    def recording(a, b):
        shapes.extend([np.shape(a), np.shape(b)])
        return trace_distance(a, b)

    monkeypatch.setattr(linalg, "trace_distance", recording)
    code, _ = cli.run(["definetti-merge", "--trials", "2"])
    assert code == 0
    assert shapes
    assert not any(2001 in shape[:-2] for shape in shapes)


def test_prior_states_are_one_stack(rng):
    states = [linalg.random_state(3, rng) for _ in range(4)]
    direct = definetti.PriorOverStates(states, np.full(4, 0.25))
    assert isinstance(direct.states, np.ndarray)
    assert direct.states.shape == (4, 3, 3)
    assert np.array_equal(direct.states, np.stack(states))
    assert direct.dim == 3 and len(direct) == 4
    assert definetti.make_prior(states).states.shape == (4, 3, 3)
    with pytest.raises(DimensionMismatch):
        definetti.PriorOverStates([np.eye(2) / 2.0, np.eye(3) / 3.0], np.full(2, 0.5))


def loop_bloch_grid(n_directions, radii):
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    states = []
    for r in radii:
        for i in range(n_directions):
            z = 1.0 - (2.0 * i + 1.0) / n_directions
            phi = 2.0 * np.pi * i / golden**2
            s = np.sqrt(max(1.0 - z * z, 0.0))
            vec = r * np.array([s * np.cos(phi), s * np.sin(phi), z])
            states.append(
                0.5
                * (
                    np.eye(2, dtype=complex)
                    + vec[0] * linalg.sigma_x
                    + vec[1] * linalg.sigma_y
                    + vec[2] * linalg.sigma_z
                )
            )
    return states


@pytest.mark.parametrize(
    "n_directions, radii",
    [(50, (0.25, 0.5, 0.75, 1.0)), (10, (0.5, 1.0)), (20, (0.5, 1.0)), (1, (1.0,)), (73, (0.3,))],
)
def test_grid_and_weights_bitwise_equal_to_loops(n_directions, radii):
    grid = definetti.bloch_grid(n_directions, radii)
    loops = loop_bloch_grid(n_directions, radii)
    assert grid.shape == (len(loops), 2, 2)
    assert grid.tobytes() == np.stack(loops).tobytes()
    center = np.array([np.exp(-4.0 * np.trace(s @ s).real) for s in loops])
    assert definetti.center_skewed_weights(grid).tobytes() == (center / center.sum()).tobytes()
    for axis, strength in ((linalg.sigma_x, 2.0), (linalg.sigma_x, -2.0), (linalg.sigma_z, 1.5)):
        w = np.array([np.exp(strength * np.trace(s @ axis).real) for s in loops])
        got = definetti.axis_skewed_weights(grid, axis, strength)
        assert got.tobytes() == (w / w.sum()).tobytes()


def parent_count_posterior(weights, likelihood, counts):
    """``_count_posterior`` before the underflow cut: exp of every entry."""
    possible = likelihood > 0.0
    with np.errstate(divide="ignore"):
        log_post = np.log(weights) + counts @ np.log(np.where(possible, likelihood, 1.0)).T
    log_post[counts @ ~possible.T > 0] = -np.inf
    post = np.exp(log_post - log_post.max(axis=-1, keepdims=True))
    return post / post.sum(axis=-1, keepdims=True)


def merging_trajectories(name, n_outcomes, seed):
    grid, prior_a, prior_b, povm = cli_merging_config(name)
    truth = grid[(53 * seed) % len(grid)]
    trace = definetti.merging_experiment(prior_a, prior_b, truth, povm, n_outcomes, seed=seed)
    return np.stack([trace.inter_agent, trace.to_truth_a, trace.to_truth_b])


@pytest.mark.parametrize("name", ["sqm", "z"])
@pytest.mark.parametrize("n_outcomes", [500, 2000])
def test_underflow_cut_keeps_trajectories_bitwise(monkeypatch, name, n_outcomes):
    for seed in range(3):
        got = merging_trajectories(name, n_outcomes, seed)
        with monkeypatch.context() as patched:
            patched.setattr(definetti, "_count_posterior", parent_count_posterior)
            expected = merging_trajectories(name, n_outcomes, seed)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["sqm", "z"])
def test_underflow_cut_zeroes_only_subnormal_weights(name):
    grid, prior_a, _, povm = cli_merging_config(name)
    likelihood = effects.born(prior_a.states, povm)
    tiny = np.finfo(float).tiny
    for seed in range(3):
        truth = grid[11 + seed]
        trace = definetti.merging_experiment(prior_a, prior_a, truth, povm, 2000, seed=seed)
        counts = cumulative_counts(trace.outcomes, len(povm))
        got = definetti._count_posterior(prior_a.weights, likelihood, counts)
        before = parent_count_posterior(prior_a.weights, likelihood, counts)
        changed = got != before
        assert changed.any()
        assert (before[changed] < tiny).all() and (got[changed] == 0.0).all()
