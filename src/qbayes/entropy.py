"""Uncertainty functionals and the refinement inequalities.

Shannon entropy for classical distributions, von Neumann entropy for
states, the subentropy (the spectral functional controlling how
unpredictable a typical orthonormal-basis measurement remains), and the
mean measurement entropy over Haar-random bases.  All values are in bits.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import assert_density_operator, assert_distribution
from .update import KrausInstrument, apply_instrument, random_instrument

LN2 = float(np.log(2.0))
EULER_GAMMA = float(np.euler_gamma)
# Trapezoid nodes t = exp(s) on s in [-40, 40] for the subentropy integral.
# The integrand is analytic in the strip |Im s| < pi, so the rule converges
# geometrically in the step; both tails are below 1e-16 past the ends.
_S_STEP = 0.4
_T_NODES = np.exp(_S_STEP * np.arange(-100, 101))

# Upper bound (1 - gamma)/ln 2 on the subentropy, in bits.
SUBENTROPY_CAP = (1.0 - EULER_GAMMA) / LN2


def shannon(p: np.ndarray) -> float:
    """Shannon entropy -sum p log2 p with 0 log 0 = 0, in bits."""
    p = assert_distribution(p).ravel()
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def von_neumann(rho: np.ndarray) -> float:
    """Von Neumann entropy: Shannon entropy of the spectrum, in bits."""
    rho = assert_density_operator(rho)
    vals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    nz = vals[vals > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def harmonic_tail(dim: int) -> float:
    """(1/ln 2)(1/2 + 1/3 + ... + 1/dim), the pure-state mean entropy."""
    return float(sum(1.0 / k for k in range(2, dim + 1)) / LN2)


def subentropy(rho: np.ndarray) -> float:
    """Subentropy Q of a state, in bits, for every spectrum.

    Q = -f[l_1, ..., l_n] / ln 2 is the divided difference of
    f(x) = x^n ln x over the eigenvalues.  With
    ln x = int_0^inf (1/(1+t) - 1/(x+t)) dt it becomes one integral,

        Q = -(1/ln 2) int_0^inf [tr rho/(1+t) - 1 + prod_i t/(l_i+t)] dt,

    whose integrand is smooth in the eigenvalues: repeated eigenvalues
    need no limit and a zero eigenvalue contributes a factor of exactly 1.
    It is summed by the trapezoid rule in s = ln t, with 1 - prod written
    as -expm1(-sum log1p(l_i/t)) so that nothing cancels.
    """
    rho = assert_density_operator(rho)
    vals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    t = _T_NODES
    one_minus_prod = -np.expm1(-np.log1p(vals[:, None] / t).sum(axis=0))
    integrand = vals.sum() / (1.0 + t) - one_minus_prod
    return float(-_S_STEP * (t * integrand).sum() / LN2)


def mean_entropy(rho: np.ndarray) -> float:
    """Average Shannon entropy of Haar-random basis measurements, in bits.

    Closed form: the harmonic tail for the dimension plus the subentropy.
    """
    rho = assert_density_operator(rho)
    return harmonic_tail(rho.shape[0]) + subentropy(rho)


@dataclass(frozen=True)
class EntropyReport:
    """All uncertainty functionals of one state, in bits.

    ``shannon`` is the entropy of the supplied outcome distribution when
    one is given, otherwise of the state's spectrum (the best-measurement
    value, which coincides with ``von_neumann``).  The mean entropy always
    equals the dimension's harmonic tail plus the subentropy.
    """

    shannon: float
    von_neumann: float
    subentropy: float
    mean_entropy: float


def entropy_report(rho: np.ndarray, distribution: np.ndarray | None = None) -> EntropyReport:
    rho = assert_density_operator(rho)
    if distribution is None:
        h = von_neumann(rho)
    else:
        h = shannon(distribution)
    return EntropyReport(h, von_neumann(rho), subentropy(rho), mean_entropy(rho))


def mean_entropy_mc(rho: np.ndarray, samples: int, seed=None) -> tuple[float, float]:
    """Monte-Carlo estimate of the mean measurement entropy.

    Draws Haar-random orthonormal bases in a single batched QR sweep and
    averages the Shannon entropy of the outcome distributions.  Returns
    (mean, standard error).  The usual phase fix that makes the QR factor
    exactly Haar multiplies each basis vector by a unit phase, which leaves
    every outcome probability q_i^dag rho q_i unchanged, so it is skipped.
    """
    rho = assert_density_operator(rho)
    d = rho.shape[0]
    g = linalg.rng_from(seed)
    z = g.normal(size=(samples, d, d)) + 1j * g.normal(size=(samples, d, d))
    q = np.linalg.qr(z)[0]
    probs = np.einsum("nmi,ml,nli->ni", q.conj(), rho, q).real
    probs = np.clip(probs, 1e-300, None)
    h = -(probs * np.log2(probs)).sum(axis=1)
    return float(h.mean()), float(h.std(ddof=1) / np.sqrt(samples))


@dataclass(frozen=True)
class RefinementGaps:
    """Per-trial uncertainty decreases under efficient measurement.

    Each gap is the prior functional minus the probability-weighted
    average over posteriors; nonnegative up to numerical noise.
    """

    von_neumann_gaps: np.ndarray
    subentropy_gaps: np.ndarray
    classical_gaps: np.ndarray

    @property
    def min_gap(self) -> float:
        return float(
            min(
                self.von_neumann_gaps.min(),
                self.subentropy_gaps.min(),
                self.classical_gaps.min(),
            )
        )


def refinement_gap(state: np.ndarray, inst: KrausInstrument) -> tuple[float, float]:
    """(von Neumann gap, subentropy gap) for one state and instrument."""
    s0 = von_neumann(state)
    q0 = subentropy(state)
    s_avg = 0.0
    q_avg = 0.0
    for upd in apply_instrument(state, inst):
        if upd.posterior is None:
            continue
        s_avg += upd.probability * von_neumann(upd.posterior)
        q_avg += upd.probability * subentropy(upd.posterior)
    return s0 - s_avg, q0 - q_avg


def classical_refinement_gap(joint: np.ndarray) -> float:
    """Shannon gap S(H) - sum_d P(d) S(H|d) of a joint (h, d) table."""
    joint = assert_distribution(joint)
    prior = joint.sum(axis=1)
    gap = shannon(prior)
    for d in range(joint.shape[1]):
        pd = joint[:, d].sum()
        if pd > 0.0:
            gap -= pd * shannon(joint[:, d] / pd)
    return float(gap)


def check_refinement_inequalities(
    state: np.ndarray | None = None,
    inst: KrausInstrument | None = None,
    trials: int = 1,
    dim: int = 2,
    seed=None,
) -> RefinementGaps:
    """Sweep the quantum and classical refinement inequalities.

    With an explicit (state, instrument) pair the quantum gaps are
    evaluated once per trial on that pair; otherwise each trial draws a
    random state and random efficient instrument of dimension ``dim``.
    Every trial also draws a random classical joint distribution and
    records its Shannon gap.
    """
    g = linalg.rng_from(seed)
    s_gaps = np.empty(trials)
    q_gaps = np.empty(trials)
    c_gaps = np.empty(trials)
    for t in range(trials):
        if state is None or inst is None:
            rho = linalg.random_state(dim, g)
            instrument = random_instrument(dim, int(g.integers(2, 6)), 1, g)
        else:
            rho, instrument = state, inst
        s_gaps[t], q_gaps[t] = refinement_gap(rho, instrument)
        joint = g.random((int(g.integers(2, 6)), int(g.integers(2, 6))))
        c_gaps[t] = classical_refinement_gap(joint / joint.sum())
    return RefinementGaps(s_gaps, q_gaps, c_gaps)
