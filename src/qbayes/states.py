"""Quantum states as operators and as probability vectors over the SQM.

A density operator and its outcome distribution for the standard quantum
measurement carry identical information; this module converts between the
two pictures, decides membership in the convex body of achievable
probability vectors, and validates the classical distributions used
alongside.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .effects import MinimalIcPovm, born, standard_sqm
from .errors import DimensionMismatch, InvalidArgument, NotAState


def density_spectrum(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate one density operator or a (..., D, D) stack of them.

    Checks Hermiticity, positivity (``linalg.psd_fails``) and unit trace (to
    ``linalg.PROB_SUM_TOL``) with one Hermiticity test and one eigvalsh of the
    symmetrized operators, the same calls for one operator and for a stack, so
    an operator's spectrum is bitwise that of its 1-stack.  Returns the
    operators as a complex array and their ascending spectra (..., D).
    NotAState names the first failing operator of a stack by its flat index.
    """
    rho = linalg.as_operators(rho)
    hermitian = linalg.is_hermitian(rho)
    vals = np.linalg.eigvalsh((rho + linalg.dagger(rho)) / 2.0)
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    bad = (
        np.logical_not(hermitian)  # one operator's verdict is a Python bool, whose ~ is an int
        | linalg.psd_fails(vals[..., 0], vals[..., -1])
        | (abs(trace - 1.0) > linalg.PROB_SUM_TOL)
    )
    if bad.any():
        i = int(np.argmax(bad))  # the flat index of the first failing operator
        raise NotAState(
            f"{'operator' if rho.ndim == 2 else f'state {i}'} is not a density "
            f"operator: Hermitian {bool(np.ravel(hermitian)[i])}, smallest eigenvalue "
            f"{vals.reshape(-1, rho.shape[-1])[i, 0]:.3e}, trace {np.ravel(trace)[i]:.9f}"
        )
    return rho, vals


def assert_density_operator(rho: np.ndarray) -> np.ndarray:
    """:func:`density_spectrum` without the spectra."""
    return density_spectrum(rho)[0]


@dataclass(frozen=True, eq=False)
class SqmVector:
    """Probability vector over the outcomes of a fixed SQM: NotAState unless it
    passes ``linalg.distribution_fault`` and no entry exceeds its effect's cap.
    ``probs`` is a read-only float copy, so the checked vector cannot change.
    It compares and hashes by identity, as the array it holds has no truth
    value; compare ``probs`` to compare two vectors."""

    probs: np.ndarray
    sqm: MinimalIcPovm

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        if p.shape != (len(self.sqm),):
            raise DimensionMismatch(
                f"expected {len(self.sqm)} probabilities, got {p.shape}"
            )
        if (fault := linalg.distribution_fault(p)) is not None:
            raise NotAState(f"not a probability vector: {fault}")
        if (p > self.sqm.max_probability + linalg.PROB_CAP_TOL).any():
            raise NotAState(
                "an entry exceeds the largest achievable probability of its effect"
            )


def to_sqm(state: np.ndarray, sqm: MinimalIcPovm | None = None) -> SqmVector:
    """Outcome distribution of ``state`` for the standard measurement; its sum is
    the state's trace, which :func:`density_spectrum` holds to PROB_SUM_TOL too.
    SqmVector still checks it: a caller's ``sqm`` need resolve the identity only
    to IDENTITY_TOL, which is looser."""
    state = assert_density_operator(linalg.as_operator(state))
    sqm = standard_sqm(state.shape[0]) if sqm is None else sqm
    return SqmVector(born(state, sqm.base), sqm)  # born refuses a state of another dim


def from_sqm(
    v: SqmVector | np.ndarray, sqm: MinimalIcPovm | None = None
) -> np.ndarray:
    """Unique density operator with the given SQM outcome distribution.

    Accepts an SqmVector or a raw vector plus the measurement; a raw vector
    failing ``linalg.distribution_fault`` raises NotAState with its sum, the
    trace of its inversion.  The linear inversion rho = sum_d p(d) R_d over the
    dual frame always has a unique Hermitian solution; it is a state only when
    the vector lies in the achievable region.  One eigvalsh decides it:
    eigenvalues in [linalg.STATE_EIG_FLOOR, 0) are treated as numerical noise
    (clamped by an eigendecomposition, the only one, and renormalized);
    anything lower raises NotAState.  With no negative eigenvalue the state is
    the inversion over its trace.
    """
    if isinstance(v, SqmVector):
        probs, sqm = v.probs, v.sqm
    else:
        probs = np.asarray(v, dtype=float)
        sqm = _sqm_for(probs, sqm)
        if (fault := linalg.distribution_fault(probs)) is not None:
            with np.errstate(invalid="ignore"):  # +inf and -inf entries sum to NaN
                raise NotAState(f"not a probability vector ({fault}); trace {probs.sum():.9f}")
    state, low, trace = _invert(probs, sqm)
    if state is None:
        raise NotAState(
            f"reconstruction has eigenvalue {low:.3e}; the vector lies outside the achievable region"
            if low < linalg.STATE_EIG_FLOOR
            else f"reconstruction has trace {trace:.9f}"
        )
    return state


def _sqm_for(probs: np.ndarray, sqm: MinimalIcPovm | None) -> MinimalIcPovm:
    """The given measurement, or the standard one of dimension sqrt(len);
    DimensionMismatch unless it has exactly one outcome per probability
    (for a length that is no D^2 with D >= 2, before any measurement is built)."""
    if sqm is None:
        dim = math.isqrt(probs.size)
        if dim < 2 or dim * dim != probs.size:
            raise DimensionMismatch(f"{probs.size} probabilities are no D^2 with D >= 2")
        sqm = standard_sqm(dim)
    if probs.shape != (len(sqm),):
        raise DimensionMismatch(f"expected {len(sqm)} probabilities")
    return sqm


def _invert(probs: np.ndarray, sqm: MinimalIcPovm) -> tuple[np.ndarray | None, float, float]:
    """(state, smallest eigenvalue, trace) of the inversion sum_d p(d) R_d, one
    product with the dual frame, decided by one eigvalsh.  The state is None
    where ``linalg.state_fails`` (the trace is the sum).  With no negative
    eigenvalue it is the inversion over its trace, Hermitian exactly as the
    dual frame is; only an eigenvalue in [STATE_EIG_FLOOR, 0) runs eigh, to
    clamp that noise to 0 and renormalize."""
    raw = (probs @ sqm.dual.reshape(len(sqm), -1)).reshape(sqm.dim, sqm.dim)
    low, trace = float(np.linalg.eigvalsh(raw)[0]), float(np.trace(raw).real)
    if linalg.state_fails(low, trace):
        return None, low, trace
    if low >= 0.0:
        return raw / trace, low, trace
    vals, vecs = np.linalg.eigh(raw)
    rho = (vecs * np.maximum(vals, 0.0)) @ linalg.dagger(vecs)
    return rho / np.trace(rho).real, low, trace


@dataclass(frozen=True)
class SqmMembership:
    """Outcome of an achievability test, with its witness.

    ``state`` is the reconstructed density operator when the vector is a
    member; ``min_eigenvalue`` of the raw reconstruction is the violated
    invariant otherwise.
    """

    member: bool
    state: np.ndarray | None
    min_eigenvalue: float


def in_sqm_set(v: SqmVector | np.ndarray, sqm: MinimalIcPovm | None = None) -> SqmMembership:
    """Decide whether a probability vector (``linalg.distribution_fault``) is achievable.

    Takes an SqmVector's checked probabilities and SQM as they are, or a raw vector
    and the measurement.  The decision, ``min_eigenvalue`` and the member's state
    are those of :func:`from_sqm`: one eigvalsh of the inversion, and an
    eigendecomposition only to clamp eigenvalues in [linalg.STATE_EIG_FLOOR, 0)."""
    if isinstance(v, SqmVector):
        probs, sqm = v.probs, v.sqm
    else:
        probs = np.asarray(v, dtype=float)
        if (fault := linalg.distribution_fault(probs)) is not None:
            raise InvalidArgument(f"input must be a probability vector: {fault}")
        sqm = _sqm_for(probs, sqm)
    state, low, _ = _invert(probs, sqm)
    return SqmMembership(state is not None, state, low)


# --------------------------------------------------------------------------
# Classical distributions.


def assert_distribution(p: np.ndarray, stacked: bool = False) -> np.ndarray:
    """``p`` with entries in [-PROB_NEG_TOL, 0) set to 0; InvalidArgument unless it
    passes ``linalg.distribution_fault`` (with ``stacked``, each ``p[i]`` must)."""
    p = np.asarray(p, dtype=float)
    if (fault := linalg.distribution_fault(p, stacked)) is not None:
        raise InvalidArgument(fault)
    return np.clip(p, 0.0, None)
