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
# Eigenvalues closer than this are clustered before the degenerate limit.
DEGENERACY_TOL = 1e-9
# Default spread for the symmetric perturbation of a degenerate cluster.
DEGENERACY_EPS = 1e-6
# Everything below this is a zero eigenvalue; zeros drop out of the
# subentropy exactly, so they are removed before perturbing.
ZERO_EIG_TOL = 1e-12

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


def _subentropy_distinct(vals: np.ndarray) -> float:
    """Raw subentropy formula for strictly distinct positive eigenvalues."""
    q = 0.0
    for k, lam in enumerate(vals):
        prod = 1.0
        for i, mu in enumerate(vals):
            if i != k:
                prod *= lam / (lam - mu)
        q -= prod * lam * np.log2(lam)
    return q


def _perturbed_spectrum(vals: np.ndarray, eps: float) -> np.ndarray:
    """Split clustered eigenvalues symmetrically by multiples of eps."""
    out = vals.copy()
    i = 0
    n = len(vals)
    while i < n:
        j = i
        while j + 1 < n and abs(vals[j + 1] - vals[i]) <= DEGENERACY_TOL:
            j += 1
        size = j - i + 1
        if size > 1:
            center = vals[i:j + 1].mean()
            offsets = (np.arange(size) - (size - 1) / 2.0) * 2.0
            out[i:j + 1] = center + offsets * eps
        i = j + 1
    return out


def subentropy(rho: np.ndarray, eps: float = DEGENERACY_EPS) -> float:
    """Subentropy of a state, finite for degenerate spectra, in bits.

    Zero eigenvalues drop out of the formula exactly and are removed.
    Repeated eigenvalues are handled by the defining limit: each cluster
    is split symmetrically by +-eps and the limit is accelerated by
    Richardson extrapolation on the even-order error (evaluations at eps
    and eps/2).  The spread is shrunk when a cluster sits close to zero
    or to its neighbors so the perturbed spectrum stays positive and
    distinct.
    """
    rho = assert_density_operator(rho)
    vals = np.sort(np.clip(np.linalg.eigvalsh(rho), 0.0, None))[::-1]
    vals = vals[vals > ZERO_EIG_TOL]
    if len(vals) <= 1:
        return 0.0
    gaps = np.abs(np.diff(vals))
    distinct_gaps = gaps[gaps > DEGENERACY_TOL]
    safe = eps
    if len(distinct_gaps):
        safe = min(safe, 0.1 * float(distinct_gaps.min()))
    safe = min(safe, 0.25 * float(vals[-1]))
    if (gaps <= DEGENERACY_TOL).any():
        q1 = _subentropy_distinct(_perturbed_spectrum(vals, safe))
        q2 = _subentropy_distinct(_perturbed_spectrum(vals, safe / 2.0))
        return float((4.0 * q2 - q1) / 3.0)
    return float(_subentropy_distinct(vals))


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
