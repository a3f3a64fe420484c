"""Exchangeable sequences, Bayesian tomography, and prior merging.

A permutation-invariant, consistently extendable multi-copy state is a
mixture of i.i.d. tensor powers (over the complex field), so an agent's
beliefs about "unknown states" reduce to a prior over density operators.
This module discretizes such priors on grids, runs the two-agent merging
experiment, in which both agents update their priors by one Bayes rule on
the counts of a shared stream of outcomes, provides the classical
counterpart, and certifies the real-Hilbert-space state that breaks the
mixture representation.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .effects import Povm, _effect_stack, _real_coords, born
from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NnlsNotConverged,
    ZeroLikelihoodEverywhere,
)
from .states import assert_density_operator, assert_distribution

@dataclass(frozen=True)
class PriorOverStates:
    """Discrete probability distribution over density operators: a (K, D, D)
    stack of support states (a sequence of equal-shape operators is stacked)."""

    states: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        assert_distribution(self.weights)
        object.__setattr__(self, "states", _effect_stack(self.states))
        if len(self.states) != len(self.weights):
            raise DimensionMismatch("one weight per support state required")

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def __len__(self) -> int:
        return len(self.states)


def make_prior(states: Sequence[np.ndarray], weights=None) -> PriorOverStates:
    """Prior over ``states`` (validated as one stack), uniform by default."""
    states = assert_density_operator(_effect_stack(states))
    if weights is None:
        weights = np.full(len(states), 1.0 / len(states))
    return PriorOverStates(states, np.asarray(weights, dtype=float))


def bloch_grid(
    n_directions: int = 50, radii: Sequence[float] = (0.25, 0.5, 0.75, 1.0)
) -> np.ndarray:
    """Deterministic qubit-state grid, Fibonacci sphere times radial shells,
    as a (len(radii) * n_directions, 2, 2) stack, shell by shell."""
    linalg._check_dim(n_directions, 1, "n_directions")
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    i = np.arange(n_directions)
    z = 1.0 - (2.0 * i + 1.0) / n_directions
    phi = 2.0 * np.pi * i / golden**2
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    r = np.asarray(radii, dtype=float)[:, None]
    vx, vy, vz = ((r * c).reshape(-1, 1, 1) for c in (s * np.cos(phi), s * np.sin(phi), z))
    eye = np.eye(2, dtype=complex)
    return 0.5 * (eye + vx * linalg.sigma_x + vy * linalg.sigma_y + vz * linalg.sigma_z)


def center_skewed_weights(grid: Sequence[np.ndarray]) -> np.ndarray:
    """Prior weights exp(-4 tr rho^2), favoring low-purity grid points, strictly positive."""
    grid = linalg.as_operators(grid)
    w = np.exp(-4.0 * np.trace(grid @ grid, axis1=1, axis2=2).real)
    return w / w.sum()


def axis_skewed_weights(
    grid: Sequence[np.ndarray], axis: np.ndarray, strength: float = 2.0
) -> np.ndarray:
    """Prior weights favoring grid points polarized along an operator axis."""
    w = np.exp(strength * np.trace(linalg.as_operators(grid) @ axis, axis1=1, axis2=2).real)
    return w / w.sum()


# --------------------------------------------------------------------------
# Exchangeable states.


@dataclass(frozen=True)
class ExchangeableState:
    """n-copy state invariant under permutations of its factors."""

    copies: int
    dim: int
    op: np.ndarray


def _tensor_powers(states: np.ndarray, n: int) -> np.ndarray:
    """Stack (K, d^n, d^n) of the n-fold tensor powers of a (K, d, d) stack."""
    k, d = len(states), states.shape[-1]
    linalg._check_budget(k * 16 * d ** (2 * n), f"{k} complex {d}^{n}-dimensional powers")
    return linalg.tensor(*[states] * n)


def definetti_mix(prior: PriorOverStates, n: int) -> ExchangeableState:
    """Mixture of n-fold tensor powers weighted by the prior."""
    if n < 1:
        raise InvalidArgument("need n >= 1")
    powers = _tensor_powers(prior.states, n)
    return ExchangeableState(n, prior.dim, np.tensordot(prior.weights, powers, axes=1))


def _transpose_factors(op: np.ndarray, dim: int, n: int, i: int) -> np.ndarray:
    """Swap adjacent tensor factors i and i+1 of an n-factor operator."""
    t = op.reshape([dim] * (2 * n))
    perm = list(range(2 * n))
    perm[i], perm[i + 1] = perm[i + 1], perm[i]
    perm[n + i], perm[n + i + 1] = perm[n + i + 1], perm[n + i]
    return t.transpose(perm).reshape(dim**n, dim**n)


@dataclass(frozen=True)
class ExchangeabilityReport:
    max_transposition_deviation: float
    max_marginal_deviation: float | None


def check_exchangeable(
    state: ExchangeableState,
    parent_builder: Callable[[int], ExchangeableState] | None = None,
) -> ExchangeabilityReport:
    """Measure permutation invariance and marginal consistency.

    Transposition deviation is the largest Frobenius distance to the state
    under any adjacent factor swap.  When a builder for smaller copy
    counts is supplied, the deviation between every single-factor partial
    trace and the (n-1)-copy build is reported as well.
    """
    d, n, op = state.dim, state.copies, state.op
    t_dev = 0.0
    for i in range(n - 1):
        t_dev = max(t_dev, float(np.linalg.norm(_transpose_factors(op, d, n, i) - op)))
    m_dev = None
    if parent_builder is not None and n >= 2:
        parent = parent_builder(n - 1).op
        m_dev = 0.0
        for which in range(n):
            reduced = linalg.trace_out_factor(op, [d] * n, which)
            m_dev = max(m_dev, float(np.linalg.norm(reduced - parent)))
    return ExchangeabilityReport(t_dev, m_dev)


# --------------------------------------------------------------------------
# Bayes updates from outcome counts, and merging.


def _count_posterior(weights: np.ndarray, likelihood: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Posterior weights, shape (..., K), after outcomes counted in each row
    of ``counts`` (..., m) under the (K, m) likelihood table p(d | state k).

    One product in logs, log w + counts @ log L^T, shifted by its row maximum
    before exp.  A seen outcome of zero likelihood, a zero prior weight, or a
    shifted log weight below log(tiny) (a subnormal weight, slow in exp) gives
    weight exactly 0; a row with no mass raises ZeroLikelihoodEverywhere.
    """
    possible = likelihood > 0.0
    with np.errstate(divide="ignore"):
        log_post = np.log(weights) + counts @ np.log(np.where(possible, likelihood, 1.0)).T
    log_post[counts @ ~possible.T > 0] = -np.inf
    top = log_post.max(axis=-1, keepdims=True)
    if np.isneginf(top).any():
        raise ZeroLikelihoodEverywhere("observed data is impossible under every support state")
    log_post -= top
    normal = log_post >= np.log(np.finfo(float).tiny)
    post = np.exp(log_post, out=np.zeros_like(log_post), where=normal)
    return post / post.sum(axis=-1, keepdims=True)


def _merging_distances(agents: tuple, counts: np.ndarray, true_state: np.ndarray) -> tuple:
    """Trace distances (A to B, A to truth, B to truth) of the predictive states
    after each row of ``counts``, for two (weights, likelihoods, stack) agents
    and one true state or one per row."""
    pred_a, pred_b = (
        np.tensordot(_count_posterior(w, like, counts), s, axes=1) for w, like, s in agents
    )
    dist = linalg.trace_distance
    return dist(pred_a, pred_b), dist(pred_a, true_state), dist(pred_b, true_state)


@dataclass(frozen=True)
class MergingTrace:
    """Convergence record of the two-agent tomography experiment.

    Distances are trace distances between single-copy predictive states.
    ``final_inter_agent`` and ``final_to_truth`` come from the final outcome
    counts and are computed up front.  The trajectories ``inter_agent``,
    ``to_truth_a`` and ``to_truth_b`` (index 0 before any data, then one
    entry per outcome) are computed from the cumulative counts the first
    time one is read, and cached.  The 0.05-style thresholds quoted against
    these distances elsewhere are engineering targets for the default grid,
    not derived constants.
    """

    outcomes: np.ndarray
    final_inter_agent: float
    final_to_truth: tuple[float, float]
    _agents: tuple = field(repr=False)
    _true_state: np.ndarray = field(repr=False)

    @cached_property
    def _trajectories(self) -> tuple:
        # Row t counts the first t outcomes, one column per POVM element.
        steps = np.eye(self._agents[0][1].shape[1])[self.outcomes]
        counts = np.concatenate([np.zeros_like(steps[:1]), steps]).cumsum(axis=0)
        return _merging_distances(self._agents, counts, self._true_state)

    inter_agent = property(lambda self: self._trajectories[0])
    to_truth_a = property(lambda self: self._trajectories[1])
    to_truth_b = property(lambda self: self._trajectories[2])


def merging_experiment(
    prior_a: PriorOverStates,
    prior_b: PriorOverStates,
    true_state: np.ndarray,
    povm: Povm,
    n_outcomes: int,
    seed=None,
) -> MergingTrace | list[MergingTrace]:
    """Feed both agents one stream of i.i.d. data and record convergence.

    Outcomes are sampled from the true state through the given POVM.
    Both priors must be strictly positive on their grids (they may be
    arbitrarily small but not zero), which is the minimal agreement that
    makes merging possible.  Only the three final distances are computed
    here, from the outcome counts; trajectories are built when read.
    A (D, D) ``true_state`` with one ``seed`` gives one trace.  A (R, D, D)
    stack with R seeds gives a list of R traces, run r drawing its outcomes,
    bitwise those of one run, from ``seed[r]``: the states are validated once
    (NotAState names the first bad one), each agent's likelihoods are tabled
    once, and one posterior per agent gives every run's final distances.
    """
    single = np.ndim(true_state) == 2
    true_states = assert_density_operator(_effect_stack([true_state] if single else true_state))
    if prior_a.weights.min() <= 0.0 or prior_b.weights.min() <= 0.0:
        raise InvalidArgument("both priors must be strictly positive on their grids")
    p_true = born(true_states[:, None], povm)[:, 0]  # one row product per run, as for one state
    outcomes = [
        linalg.rng_from(seed).choice(len(povm), size=n_outcomes, p=p / p.sum())
        for p, seed in zip(p_true, [seed] if single else seed, strict=True)
    ]
    agents = tuple((p.weights, born(p.states, povm), p.states) for p in (prior_a, prior_b))
    counts = np.stack([np.bincount(o, minlength=len(povm)) for o in outcomes])
    finals = np.stack(_merging_distances(agents, counts, true_states), axis=1).tolist()
    traces = [
        MergingTrace(o, f[0], (f[1], f[2]), agents, state)
        for o, f, state in zip(outcomes, finals, true_states)
    ]
    return traces[0] if single else traces


# --------------------------------------------------------------------------
# Classical de Finetti mixtures.


def classical_definetti_mix(
    weights: np.ndarray, distributions: Sequence[np.ndarray], n: int
) -> np.ndarray:
    """Joint distribution sum_w P(w) prod_t p_w(x_t) as a shape (k,)*n array."""
    weights = assert_distribution(weights)
    dists = [assert_distribution(p) for p in distributions]
    k = dists[0].size
    # The output and one block, both float64 arrays of k^n entries.
    linalg._check_budget(2 * 8 * k**n, f"a {k}^{n} joint distribution")
    out = np.zeros((k,) * n)
    for w, p in zip(weights, dists):
        block = np.array(w)
        for _ in range(n):
            block = np.multiply.outer(block, p)
        out += block
    return out


# --------------------------------------------------------------------------
# The real-Hilbert-space counterexample.


@dataclass(frozen=True)
class RealCounterexampleReport:
    """Certificate that a real exchangeable state has no real mixture form.

    The state is an equal mixture of n-fold powers of the two y-axis
    eigenstates; all its entries are real, it is exchangeable, yet the
    best nonnegative combination of n-fold powers of real-symmetric qubit
    states misses it by at least the witness bound, because every real
    state is orthogonal to the sigma_y x sigma_y direction the state
    contains.
    """

    copies: int
    state: np.ndarray
    max_imag_entry: float
    transposition_deviation: float
    real_fit_residual: float
    complex_fit_residual: float
    witness_value: float
    witness_bound: float


def _y_axis_states() -> np.ndarray:
    """(I + sigma_y)/2 and (I - sigma_y)/2 as a (2, 2, 2) stack."""
    signs = np.array([1.0, -1.0])[:, None, None]
    return 0.5 * (np.eye(2, dtype=complex) + signs * linalg.sigma_y)


def real_y_mixture(n: int) -> ExchangeableState:
    """Equal mixture of the n-fold powers of (I +- sigma_y)/2."""
    return definetti_mix(make_prior(_y_axis_states()), n)


def _disk_grid(n_points: int) -> np.ndarray:
    """Sunflower grid over the Bloch x-z disk: a (K, 2, 2) stack of
    real-symmetric qubit states."""
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    i = np.arange(n_points)
    r = np.sqrt((i + 0.5) / n_points)
    theta = 2.0 * np.pi * i / golden**2
    x, z = (r * np.cos(theta))[:, None, None], (r * np.sin(theta))[:, None, None]
    return 0.5 * (np.eye(2, dtype=complex) + x * linalg.sigma_x + z * linalg.sigma_z)


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Lawson-Hanson active-set solution of min_{x >= 0} ||a x - b||_2.

    Returns (x, residual norm).  The variable with the largest entry of the
    dual w = a^T (b - a x) joins the passive set, which is solved by
    unconstrained least squares; whenever that solution leaves the orthant
    the iterate steps back to the boundary and the variables that reach
    zero leave the set.  The solve stops once no dual entry outside the
    passive set exceeds tol = 10 max(m, n) eps ||a||_1 ||b||_2, a bound on
    the rounding error of w.  A variable whose least-squares value comes out
    nonpositive on entry (possible only at that rounding level) is skipped.
    Raises NnlsNotConverged after 3n least-squares solves.
    """
    m, n = a.shape
    tol = 10 * max(m, n) * np.finfo(float).eps * np.linalg.norm(a, 1) * np.linalg.norm(b)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    solves = 0

    def solve():
        nonlocal solves
        solves += 1
        if solves > 3 * n:
            raise NnlsNotConverged(f"no KKT point after {3 * n} least-squares solves")
        z = np.zeros(n)
        z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        return z

    w = a.T @ (b - a @ x)
    while True:
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            return x, float(np.linalg.norm(b - a @ x))
        passive[j] = True
        z = solve()
        if z[j] <= 0.0:
            passive[j] = False
            w[j] = -np.inf
            continue
        while (z[passive] <= 0.0).any():
            neg = passive & (z <= 0.0)
            ratio = x[neg] / (x[neg] - z[neg])
            x += ratio.min() * (z - x)
            passive[np.flatnonzero(neg)[np.argmin(ratio)]] = False
            passive &= x > 0.0
            x[~passive] = 0.0
            z = solve()
        x = z
        w = a.T @ (b - a @ x)


def _nnls_residual(target: np.ndarray, powers: np.ndarray) -> float:
    """min_w>=0 || target - sum_k w_k powers_k ||_F over a (K, N, N) stack."""
    return _nnls(_real_coords(powers).T, _real_coords(target))[1]


def real_counterexample(n: int, real_grid_size: int = 600) -> RealCounterexampleReport:
    """Build and certify the n-copy real-field counterexample.

    The numerical fit uses nonnegative least squares over a fine grid of
    real-symmetric qubit states; the sigma_y witness makes the failure
    independent of grid resolution, since the witness overlap of every
    real mixture vanishes identically.
    """
    if n not in (2, 3):
        raise InvalidArgument("the counterexample is certified for n in {2, 3}")
    ex = real_y_mixture(n)
    report_t = check_exchangeable(ex)
    # Witness: sigma_y on the first two factors, identity on the rest.
    factors = [linalg.sigma_y, linalg.sigma_y] + [np.eye(2, dtype=complex)] * (n - 2)
    witness = linalg.tensor(*factors)
    witness_value = linalg.hs_inner(witness, ex.op).real
    witness_bound = abs(witness_value) / float(np.linalg.norm(witness))
    # The real grid, then the two y-axis states that make the fit exact.
    powers = _tensor_powers(np.concatenate([_disk_grid(real_grid_size), _y_axis_states()]), n)
    real_res = _nnls_residual(ex.op, powers[:real_grid_size])
    complex_res = _nnls_residual(ex.op, powers)
    return RealCounterexampleReport(
        copies=n,
        state=ex.op,
        max_imag_entry=float(np.abs(ex.op.imag).max()),
        transposition_deviation=report_t.max_transposition_deviation,
        real_fit_residual=real_res,
        complex_fit_residual=complex_res,
        witness_value=float(witness_value),
        witness_bound=float(witness_bound),
    )
