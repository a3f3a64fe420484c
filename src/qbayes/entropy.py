"""Uncertainty functionals and the refinement inequalities.

Von Neumann entropy, the Shannon entropy of a state's spectrum (a diagonal
state gives that of a classical distribution), the subentropy (the spectral
functional controlling how unpredictable a typical orthonormal-basis
measurement remains), and the mean measurement entropy over Haar-random
bases.  All values are in bits.

``von_neumann``, ``subentropy``, ``mean_entropy`` and ``mean_entropy_mc``
take one state or a (..., D, D) stack, validated and diagonalized by one
batched eigvalsh; the Monte-Carlo then samples from the spectra alone.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidArgument
from .states import assert_distribution, density_spectrum
from .update import KrausInstrument, unnormalized_posteriors

LN2 = float(np.log(2.0))
EULER_GAMMA = float(np.euler_gamma)
# Trapezoid nodes t = exp(s) on s in [-40, 40] for the subentropy integral,
# with u = 1/t.  The integrand is analytic in the strip |Im s| < pi, so the
# rule converges geometrically in the step; both tails are below 1e-16 past
# the ends.
_S_STEP = 0.4
_T_NODES = np.exp(_S_STEP * np.arange(-100, 101))
_U_NODES = 1.0 / _T_NODES
# Cap on the Horner partial sums of the subentropy polynomial: a capped sum
# times u^2 <= e^80 stays finite.
_HORNER_CAP = 1e200
# Spectra per block of the rule: a (64, 201) work array is 100 KiB, below glibc
# malloc's default 128 KiB mmap threshold.  Larger work arrays were mapped and
# faulted in afresh on every call: 450 spectra at D = 3 took 2.0 ms in one
# block, 1.6 ms in blocks of 128 and 1.0 ms in blocks of 64.
_QUAD_ROWS = 64

# Upper bound (1 - gamma)/ln 2 on the subentropy, in bits.
SUBENTROPY_CAP = (1.0 - EULER_GAMMA) / LN2


def _spectra(rho: np.ndarray) -> np.ndarray:
    """Validated spectra of a state or a stack of states, clipped at 0."""
    return np.clip(density_spectrum(rho)[1], 0.0, None)


def _float_if_single(values: np.ndarray) -> float | np.ndarray:
    return float(values) if values.ndim == 0 else values


def _entropy(vals: np.ndarray) -> np.ndarray:
    """-sum p log2 p along the last axis; entries <= 0 contribute 0."""
    return -(vals * np.log2(np.where(vals > 0.0, vals, 1.0))).sum(axis=-1)


def _subentropy(vals: np.ndarray) -> np.ndarray:
    """The subentropy integral of each spectrum along the last axis.

    With u = 1/t and e_k the elementary symmetric functions of the spectrum,
    prod_i t/(l_i + t) = 1/(1 + T), T = sum_{k>=1} e_k u^k = u (e_1 + u g),
    g = sum_{k>=2} e_k u^(k-2), and t times the integrand is

        t [e_1/(1+t) - T/(1+T)] = (delta T - u g) / ((1 + u)(1 + T)),

    delta = e_1 - 1 (0 for a unit trace): polynomials with nonnegative
    coefficients, so nothing cancels.  The spectra go through the rule in
    blocks of _QUAD_ROWS.
    """
    d = vals.shape[-1]
    e = np.zeros(vals.shape[:-1] + (d + 1,))  # e[..., k] = e_k, built one eigenvalue at a time
    e[..., 0] = 1.0
    for i in range(d):
        e[..., 1 : i + 2] += vals[..., i, None] * e[..., : i + 1]
    e = e.reshape(-1, d + 1)
    sums = np.empty(len(e))
    for i in range(0, len(e), _QUAD_ROWS):
        sums[i : i + _QUAD_ROWS] = _quadrature_sums(e[i : i + _QUAD_ROWS])
    return _S_STEP * sums.reshape(vals.shape[:-1]) / LN2


def _quadrature_sums(e: np.ndarray) -> np.ndarray:
    """sum over the nodes of (u g - delta T) / ((1 + u)(1 + T)) for each row of
    elementary symmetric functions (N, D + 1), by Horner on (N, nodes) arrays.
    Partial sums of g are capped at _HORNER_CAP, where the quotient no longer
    depends on g, so no step overflows; negligible terms may underflow to 0."""
    u, e1 = _U_NODES, e[:, 1, None]
    g = np.zeros((len(e), u.size))
    for k in range(e.shape[1] - 1, 1, -1):
        g *= u
        g += e[:, k, None]
        np.minimum(g, _HORNER_CAP, out=g)
    g *= u
    big = g + e1
    big *= u  # T
    g -= (e1 - 1.0) * big
    big += 1.0
    big *= 1.0 + u
    g /= big
    return g.sum(axis=1)


def von_neumann(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy: Shannon entropy of the spectrum, in bits."""
    return _float_if_single(_entropy(_spectra(rho)))


def harmonic_tail(dim: int) -> float:
    """(1/ln 2)(1/2 + 1/3 + ... + 1/dim), the pure-state mean entropy."""
    return float(sum(1.0 / k for k in range(2, dim + 1)) / LN2)


def subentropy(rho: np.ndarray) -> float | np.ndarray:
    """Subentropy Q of a state, in bits, for every spectrum.

    Q = -f[l_1, ..., l_n] / ln 2 is the divided difference of
    f(x) = x^n ln x over the eigenvalues.  With
    ln x = int_0^inf (1/(1+t) - 1/(x+t)) dt it becomes one integral,

        Q = -(1/ln 2) int_0^inf [tr rho/(1+t) - 1 + prod_i t/(l_i+t)] dt,

    whose integrand is smooth in the eigenvalues: repeated eigenvalues
    need no limit and a zero eigenvalue contributes a factor of exactly 1.
    It is summed by the trapezoid rule in s = ln t, with the integrand
    written as a ratio of polynomials in 1/t whose coefficients, the
    elementary symmetric functions of the spectrum, are nonnegative, so
    that nothing cancels.
    """
    return _float_if_single(_subentropy(_spectra(rho)))


def mean_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Average Shannon entropy of Haar-random basis measurements, in bits.

    Closed form: the harmonic tail for the dimension plus the subentropy.
    """
    vals = _spectra(rho)
    return _float_if_single(harmonic_tail(vals.shape[-1]) + _subentropy(vals))


def mean_entropy_mc(rho: np.ndarray, samples: int, seed=None) -> tuple:
    """Monte-Carlo estimate (mean, standard error) of :func:`mean_entropy` from
    ``samples`` >= 2 Haar-random kets, for one state (floats) or a (..., D, D)
    stack (arrays); each state draws its own (D, n) block in turn, so a stack
    gives what one call per state gives.  One call allocates one workspace of
    max(D, k + 1) + 3 rows of n doubles, k = min(3, n - 2), and every state of
    the stack reuses it.

    A basis measurement's entropy sums eta(p) = -p log2 p over D columns, each
    a Haar ket with p = sum_i l_i w_i, w uniform on the simplex (Bengtsson and
    Zyczkowski, Geometry of Quantum States, 2006): a sample D eta(q/D), q = D p,
    costs O(D).  The estimate is the intercept of the least-squares fit on the
    controls q^k, k <= 3, centred on their exact means D^k k!(D-1)!/(D+k-1)!
    h_k(l) (h_k complete homogeneous symmetric; Jozsa, Robb and Wootters, PRA
    49, 668 (1994)), with its OLS standard error; the fit biases it by O(1/n),
    0.1 SE at n = 2000.  The pseudo-inverse drops directions below
    ``linalg.RANK_TOL``: at I/D every control is constant and the plain mean's
    SE (0 to 1e-19) misses its rounding error of about 1e-16.
    """
    if samples < 2:
        raise InvalidArgument(f"need at least 2 samples, got {samples}")
    vals, g = _spectra(rho), linalg.rng_from(seed)
    d, k = vals.shape[-1], min(3, samples - 2)
    # One workspace for the whole stack: n-long arrays exceed glibc malloc's
    # 128 KiB mmap threshold at n = 20,000, and fresh ones are faulted in anew.
    block, rows = np.empty((max(d, k + 1), samples)), np.empty((3, samples))
    fits = [_control_variate_fit(lam, k, g, block, rows) for lam in vals.reshape(-1, d)]
    mean, se = np.array(fits).T.reshape((2,) + vals.shape[:-1])
    return _float_if_single(mean), _float_if_single(se)


def _control_variate_fit(
    lam: np.ndarray, k: int, g: "np.random.Generator", block: np.ndarray, rows: np.ndarray
) -> tuple[float, float]:
    """(intercept, SE) of the fit for the spectrum lam on k controls, written into
    the workspace: block holds the (D, n) exponentials, then the (k + 1, n)
    controls x; rows holds q, y and one scratch row."""
    d, n = lam.size, block.shape[1]
    e, x, (q, y, tmp) = block[:d], block[: k + 1], rows
    # n-long products use einsum: threaded BLAS can take milliseconds to wake.
    g.standard_exponential(out=e)
    np.einsum("i,in->n", d * lam, e, out=q)
    q /= e.sum(axis=0, out=tmp)
    x[0] = 1.0
    for j in range(1, k + 1):
        np.multiply(x[j - 1], q, out=x[j])
    # E[q^j] = d^j j!(d-1)!/(d+j-1)! h_j, with h_j from the power sums s_i by
    # Newton's identities j h_j = sum_i s_i h_{j-i}.
    s, h, c = [(lam**i).sum() for i in range(k + 1)], [1.0], 1.0
    for j in range(1, k + 1):
        h.append(sum(s[i] * h[j - i] for i in range(1, j + 1)) / j)
        c *= d * j / (d + j - 1)
        x[j] -= c * h[j]
    # y = D eta(q/D) = q log2(D / q), 0 at q = 0.
    tmp.fill(d)
    np.copyto(tmp, q, where=q > 0.0)
    np.divide(d, tmp, out=tmp)
    np.multiply(q, np.log2(tmp, out=tmp), out=y)
    inv = np.linalg.pinv(np.einsum("in,jn->ij", x, x), rtol=linalg.RANK_TOL, hermitian=True)
    beta = inv @ np.einsum("in,n->i", x, y)
    y -= np.einsum("i,in->n", beta, x, out=tmp)
    return beta[0], np.sqrt(np.einsum("n,n->", y, y) / (n - k - 1) * inv[0, 0])


@dataclass(frozen=True)
class RefinementGaps:
    """Per-trial uncertainty decreases under efficient measurement.

    Each gap is the prior functional minus the probability-weighted
    average over posteriors; nonnegative up to numerical noise.
    """

    von_neumann_gaps: np.ndarray
    subentropy_gaps: np.ndarray
    classical_gaps: np.ndarray


def refinement_gap(state: np.ndarray, inst: KrausInstrument) -> tuple[float, float]:
    """(von Neumann gap, subentropy gap) for one state and instrument."""
    raw = unnormalized_posteriors(state, inst)
    s, q = _refinement_gaps(linalg.as_operator(state)[None], raw[None])
    return float(s[0]), float(q[0])


def _refinement_gaps(states: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """(von Neumann, subentropy) gaps (2, N) of N states (N, D, D) whose outcome
    d leaves the unnormalized posterior raw[:, d] (N, K, D, D), or any operator
    with its spectrum; outcomes of probability at most PROB_FLOOR drop out.
    One validated eigvalsh covers the priors and the posteriors."""
    probs = np.trace(raw, axis1=-2, axis2=-1).real
    live = probs > linalg.PROB_FLOOR
    vals = _spectra(np.concatenate([states, raw[live] / probs[live][:, None, None]]))
    h, post = np.stack([_entropy(vals), _subentropy(vals)]), np.zeros((2,) + probs.shape)
    post[:, live] = h[:, len(states):]
    return h[:, : len(states)] - (np.where(live, probs, 0.0) * post).sum(axis=-1)


def _classical_gaps(joints: np.ndarray) -> np.ndarray:
    """Shannon gaps (N,) of an (N, h, d) stack of joint tables, each checked as a
    distribution.  Zero entries change no gap, so tables may be zero-padded."""
    joints = assert_distribution(joints, stacked=True)
    pd = joints.sum(axis=-2)
    conditional = _entropy(joints.swapaxes(-1, -2) / np.where(pd > 0.0, pd, 1.0)[..., None])
    return _entropy(joints.sum(axis=-1)) - (pd * conditional).sum(axis=-1)


def check_refinement_inequalities(trials: int = 1, dim: int = 2, seed=None) -> RefinementGaps:
    """Sweep the quantum and classical refinement inequalities.

    Each trial has a random state, a random efficient instrument with 2 to 5
    outcomes, of dimension ``dim``, and a random classical joint distribution
    of 2 to 5 by 2 to 5 entries.  All trials are drawn in a few calls (the
    outcome and table sizes, then the state normals, the zero-padded
    instrument normals and the zero-padded tables) and their quantum and
    Shannon gaps evaluated as stacks.  One given (state, instrument) pair's
    quantum gaps are :func:`refinement_gap`.

    The gaps read only the spectra of the unnormalized posteriors
    V_d E_d^{1/2} rho E_d^{1/2} V_d^dag of the instrument A_d = V_d E_d^{1/2}
    that :func:`~qbayes.update.kraus_from_normals` builds from the same
    normals.  Those spectra do not depend on the unitary V_d, and with
    E_d = w Z_d Z_d^dag w (Z_d Ginibre, w the inverse square root of
    sum_d Z_d Z_d^dag) they are the spectra of Z_d^dag (w rho w) Z_d, as XX^dag
    and X^dag X share theirs.  So the Haar normals of V_d are drawn, to keep the
    streams, but no square root, unitary or Kraus operator is built.
    """
    if trials < 1:
        raise InvalidArgument(f"need at least 1 trial, got {trials}")
    g = linalg.rng_from(seed)
    k, h, d = g.integers(2, 6, size=(3, trials, 1, 1))
    rho = linalg.state_from_normals(g.normal(size=(trials, 2, dim, dim)))
    x = linalg._padded_normals(g, k[:, 0], (trials, 2, 5, 2, dim, dim))[:, 0]
    rows, cols = np.ogrid[:5, :5]
    joints = np.where((rows < h) & (cols < d), g.random((trials, 5, 5)), 0.0)
    joints /= joints.sum(axis=(1, 2), keepdims=True)
    z = x[:, :, 0] + 1j * x[:, :, 1]  # (trials, 5, D, D); padded outcomes are 0
    w = linalg.mat_invsqrt((z @ linalg.dagger(z)).sum(axis=1))
    s_gaps, q_gaps = _refinement_gaps(rho, linalg.dagger(z) @ (w @ rho @ w)[:, None] @ z)
    return RefinementGaps(s_gaps, q_gaps, _classical_gaps(joints))
