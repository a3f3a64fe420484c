"""Dense complex linear algebra for small-dimension quantum operators.

All operators are plain ``numpy.ndarray`` values of complex dtype, treated
as immutable after construction.  Dimensions are expected to stay small
(products of a few qubits or qutrits), so everything uses dense LAPACK
routines without apology.

:func:`eig_hermitian` reports eigenvalues in descending order; every other
spectrum of the package (``np.linalg.eigvalsh``, ``states.density_spectrum``)
keeps numpy's ascending order.
"""

from typing import Sequence

import numpy as np

from .errors import DimensionBudgetExceeded, DimensionMismatch, NotHermitian, NotPsd, SingularOperator

# Tolerances: every numerical decision of the library, one value per invariant;
# positivity, the rank cut, the identity deviation, the probability-vector rule
# and the inverted-state rule are each decided by one predicate below, whatever
# error its caller raises.
# Relative Frobenius deviation ||M - M^dag|| / ||M|| allowed for a Hermitian M.
HERMITIAN_TOL = 1e-10
# Eigenvalues may undershoot 0 by this much times max(|largest eigenvalue|, 1).
PSD_TOL = 1e-10
# Relative rank cut: values at most RANK_TOL times the largest count as zero,
# and eigenvalue gaps that small as degeneracies.
RANK_TOL = 1e-10
# Frobenius deviation from I of sum E_d (POVM), sum A^dag A (Kraus set), U^dag U.
IDENTITY_TOL = 1e-9
# Inverted-state eigenvalues in [STATE_EIG_FLOOR, 0) are noise, clamped to 0.
STATE_EIG_FLOOR = -1e-8
# Outcome probabilities may undershoot zero by this much (then read as 0).
PROB_NEG_TOL = 1e-12
# |sum p - 1| allowed for a probability vector, and so |tr rho - 1| for a state
# (the sum of its SQM vector), an SQM inversion, or before a frame reconstruction warns.
PROB_SUM_TOL = 1e-12
# An SQM probability may exceed its element's largest eigenvalue by this much.
PROB_CAP_TOL = 1e-9
# Outcomes with probability at most PROB_FLOOR get no posterior (0/0 update).
PROB_FLOOR = 1e-12
# Miss from 1 allowed for a ket's norm or for |alpha|^2 + |beta|^2.
NORM_TOL = 1e-9
# Least-squares residual above which a frame reconstruction is rejected.
RECONSTRUCTION_RESIDUAL_TOL = 1e-6
# Frobenius miss of sum_d P(d) rho_d from rho allowed for a claimed refinement.
REFINEMENT_TOL = 1e-8
# Largest difference per real coordinate at which a frame function takes two
# effects for one (half a unit in the twelfth decimal).
EFFECT_TOL = 5e-13

# Largest array, in bytes, that a build may allocate (256 MiB).
MEMORY_BUDGET_BYTES = 2**28

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
paulis = (np.eye(2, dtype=complex), sigma_x, sigma_y, sigma_z)


def as_operator(m) -> np.ndarray:
    """Coerce ``m`` to a square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def as_operators(m) -> np.ndarray:
    """Coerce ``m`` to a complex (..., D, D) stack of square matrices."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def ket(index: int, dim: int) -> np.ndarray:
    """Computational basis column vector |index> in dimension ``dim``."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(vec: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| / <v|v>."""
    v = np.asarray(vec, dtype=complex).ravel()
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def is_hermitian(m: np.ndarray) -> bool | np.ndarray:
    """||m - m^dag|| <= HERMITIAN_TOL ||m||; a (..., D, D) stack gives one bool each.
    Both sides are squared Frobenius norms, one vecdot each, so an operator and
    its 1-stack take the same arithmetic."""
    m = as_operators(m)
    flat = m.reshape(m.shape[:-2] + (m.shape[-1] ** 2,))
    skew = (m - dagger(m)).reshape(flat.shape)
    ok = np.vecdot(skew, skew).real <= HERMITIAN_TOL**2 * np.vecdot(flat, flat).real
    return bool(ok) if m.ndim == 2 else ok


def psd_fails(lowest, largest):
    """The positivity rule: where a spectrum's smallest eigenvalue ``lowest`` is
    below -PSD_TOL * max(|largest|, 1), ``largest`` the top of the same spectrum.
    The code leaves out the abs: a ``largest`` below -1 fails under either scale."""
    return lowest < -PSD_TOL * np.maximum(largest, 1.0)


def rank_noise(values):
    """The rank cut: where ``values``, sorted descending along the last axis (as
    :func:`eig_hermitian` and singular values are), are at most RANK_TOL times
    the first; all are, when the first is at most 0."""
    return values <= RANK_TOL * values[..., :1]


def identity_dev(m: np.ndarray) -> float:
    """||m - I||, the flat Frobenius norm, or its largest over a (..., D, D) stack."""
    dev = m - np.eye(m.shape[-1])
    return float(np.linalg.norm(dev) if m.ndim == 2 else np.linalg.norm(dev, axis=(-2, -1)).max())


def distribution_fault(p: np.ndarray, stacked: bool = False) -> str | None:
    """The probability-vector rule: None for a nonempty float array ``p`` (each
    ``p[i]`` with ``stacked``) with no entry below -PROB_NEG_TOL and a sum within
    PROB_SUM_TOL of 1, else the fault.  A NaN fails every comparison."""
    if not p.size:
        return "no probabilities"
    if not (low := p.min()) >= -PROB_NEG_TOL:
        return f"negative probability {low:.3e}" if low < 0 else "a probability is NaN"
    total = p.reshape(len(p), -1).sum(axis=1) if stacked else p.sum()
    if stacked:
        total = total[np.abs(total - 1.0).argmax()]
    return None if abs(total - 1.0) <= PROB_SUM_TOL else f"probabilities sum to {total:.15f}"


def state_fails(low, trace):
    """The inverted-state rule: where an inversion with smallest eigenvalue ``low``
    and trace ``trace`` is no state, its eigenvalue below STATE_EIG_FLOOR or its
    trace more than PROB_SUM_TOL from 1.  A NaN fails it."""
    return np.logical_not((low >= STATE_EIG_FLOOR) & (abs(trace - 1.0) <= PROB_SUM_TOL))


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's (eigenvalues, eigenvectors) of a Hermitian matrix or (..., D, D)
    stack, in descending order: ``vecs[..., :, k]`` is the unit eigenvector of
    ``vals[..., k]``.

    Raises NotHermitian when any matrix fails :func:`is_hermitian`.
    """
    m = as_operators(m)
    if not np.all(is_hermitian(m)):
        raise NotHermitian(f"relative deviation from Hermiticity exceeds {HERMITIAN_TOL}")
    vals, vecs = np.linalg.eigh((m + dagger(m)) / 2.0)
    return vals[..., ::-1], vecs[..., ::-1]


def _psd_eigs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = eig_hermitian(m)
    if np.any(psd_fails(vals[..., -1], vals[..., 0])):
        raise NotPsd(f"smallest eigenvalue {np.min(vals[..., -1]):.3e} below PSD tolerance")
    return vals, vecs


def mat_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix or (..., D, D) stack.

    Eigenvalues below the rank threshold (relative to the largest) are
    treated as rank noise and mapped to zero; the square root would
    otherwise amplify them from around 1e-16 to 1e-8.
    """
    vals, vecs = _psd_eigs(m)
    vals = np.clip(vals, 0.0, None)
    vals[rank_noise(vals)] = 0.0
    return (vecs * np.sqrt(vals)[..., None, :]) @ dagger(vecs)


def mat_invsqrt(m: np.ndarray) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix or stack.

    Raises SingularOperator when an eigenvalue is at most the rank threshold
    (relative to the largest).
    """
    vals, vecs = _psd_eigs(m)
    if np.any(rank_noise(vals)):
        raise SingularOperator(
            f"eigenvalue {vals[..., -1].min():.3e} below the invertibility threshold"
        )
    return (vecs * (1.0 / np.sqrt(vals))[..., None, :]) @ dagger(vecs)


def numeric_rank(values: np.ndarray) -> int:
    """Number of descending values, such as singular values, above the rank cut."""
    return int((~rank_noise(values)).sum())


def polar_unitary(a: np.ndarray) -> np.ndarray:
    """Unitary factor W of the polar decomposition ``a = W (a^dag a)^{1/2}``,
    of one matrix or of each matrix of a (..., D, D) stack.

    Computed from the SVD, which extends W orthonormally across any null
    space, so rank-deficient inputs still yield a genuine unitary.
    """
    u, _, vh = np.linalg.svd(as_operators(a))
    return u @ vh


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product of operators, the first factor slowest.

    Each factor may be a (..., d, d) stack; the stacks broadcast as in numpy.
    Every entry is one product of factor entries, taken left to right, so two
    single operators give ``np.kron``'s values bitwise.
    """
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        f = np.asarray(f, dtype=complex)
        prod = out[..., :, None, :, None] * f[..., None, :, None, :]
        n = out.shape[-1] * f.shape[-1]
        out = prod.reshape(prod.shape[:-4] + (n, n))
    return out


def trace_out_factor(m: np.ndarray, dims: Sequence[int], which: int) -> np.ndarray:
    """Trace factor ``which`` out of an operator on factors of dims ``dims``,
    leading factor first: on a bipartite (dA, dB) operator, 0 leaves the dB x dB
    operator on B and 1 the dA x dA operator on A."""
    m = as_operator(m)
    dims = list(dims)
    n = len(dims)
    if m.shape[0] != int(np.prod(dims)):
        raise DimensionMismatch("factor dimensions do not multiply to the matrix dim")
    t = m.reshape(dims + dims)
    t = np.trace(t, axis1=which, axis2=n + which)
    d_rest = int(np.prod(dims)) // dims[which]
    return t.reshape(d_rest, d_rest)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a^dag b)."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return complex(np.vdot(a, b))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Trace distance (1/2)||a - b||_1 between Hermitian operators.

    Either operand may be a stack of shape (..., D, D); the stacks broadcast
    as in numpy and the result is an array of distances over the stack.
    Two single operators give a float; operands that do not broadcast raise
    DimensionMismatch.
    """
    a, b = as_operators(a), as_operators(b)
    try:
        diff = a - b
    except ValueError as exc:  # numpy's error for stacks that do not broadcast
        raise DimensionMismatch(f"operators do not broadcast: {exc}") from exc
    vals = np.linalg.eigvalsh((diff + dagger(diff)) / 2.0)
    dist = 0.5 * np.abs(vals).sum(axis=-1)
    return float(dist) if diff.ndim == 2 else dist


def _check_budget(nbytes: int, what: str) -> None:
    """Raise before allocating ``nbytes`` beyond ``MEMORY_BUDGET_BYTES``."""
    if nbytes > MEMORY_BUDGET_BYTES:
        raise DimensionBudgetExceeded(
            f"{what} needs {nbytes} bytes, over the budget of {MEMORY_BUDGET_BYTES} bytes"
        )


# update-factor, gleason-roundtrip and the swap-counterexample trees evaluate
# their trials in chunks of at most this many bytes of their largest trial
# array (8192 / D^2, 2621 / D^2 and 2621 / D^2 trials), which bounds their
# memory at large D; under `qbayes all` each is one chunk up to D = 9, 7 and 7.
_CHUNK_BYTES = 1 << 20


def _chunked(fn, *arrays):
    """fn on successive chunks of the arrays' leading (trial) axis, each chunk
    at most _CHUNK_BYTES of the largest array; returns one result per chunk."""
    step = max(1, _CHUNK_BYTES // max(x[0].nbytes for x in arrays))
    return [fn(*(x[i : i + step] for x in arrays)) for i in range(0, len(arrays[0]), step)]


# --------------------------------------------------------------------------
# Seeded random generators.  ``default_rng`` wraps the PCG64 bit generator,
# which is the stream named in CLI reports for reproducibility.  A sampler is
# one draw of raw normals plus a ``*_from_normals`` build that takes a stack.


def rng_from(seed) -> "np.random.Generator":
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _padded_normals(g, counts: np.ndarray, shape: tuple) -> np.ndarray:
    """One draw of normals of ``shape`` holding a ragged stack: along axis
    counts.ndim, the entries from index counts[...] on are zeroed padding
    (counts broadcasts over the axes before that one)."""
    x = g.normal(size=shape)
    pad = np.arange(shape[counts.ndim]) >= counts[..., None]
    x[np.broadcast_to(pad, shape[: counts.ndim + 1])] = 0.0
    return x


def random_ket(dim: int, seed=None) -> np.ndarray:
    """Normalized Haar-random state vector from one (2, dim) draw."""
    return ket_from_normals(rng_from(seed).normal(size=(2, dim)))


def ket_from_normals(x: np.ndarray) -> np.ndarray:
    """Unit kets (..., D) from (..., 2, D) normals, normed as by np.linalg.norm."""
    v = x[..., 0, :] + 1j * x[..., 1, :]
    return v / np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[..., None]


def random_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-distributed unitary from one (2, dim, dim) draw."""
    return unitary_from_normals(rng_from(seed).normal(size=(2, dim, dim)))


def unitary_from_normals(x: np.ndarray) -> np.ndarray:
    """Haar unitaries (..., D, D) from (..., 2, D, D) normals: Ginibre QR, diag R > 0."""
    q, r = np.linalg.qr(x[..., 0, :, :] + 1j * x[..., 1, :, :])
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases)).conj()[..., None, :]


def random_state(dim: int, seed=None, rank: int | None = None) -> np.ndarray:
    """Random density operator from one (2, dim, rank) draw (rank D by default)."""
    r = dim if rank is None else rank
    return state_from_normals(rng_from(seed).normal(size=(2, dim, r)))


def state_from_normals(x: np.ndarray) -> np.ndarray:
    """Ginibre density operators Z Z^dag / tr (..., D, D) from (..., 2, D, r) normals."""
    z = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    m = z @ dagger(z)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def random_povm(dim: int, n_elements: int, seed=None) -> list[np.ndarray]:
    """Random ``n_elements``-outcome POVM from one (n, 2, D, D) draw."""
    return list(povm_from_normals(rng_from(seed).normal(size=(n_elements, 2, dim, dim))))


def povm_from_normals(x: np.ndarray) -> np.ndarray:
    """POVMs (..., n, D, D) from (..., n, 2, D, D) normals: n Ginibre PSD matrices,
    each conjugated by the inverse square root of their sum (the renormalization
    of the standard IC construction), so validity is automatic."""
    z = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    parts = z @ dagger(z)
    w = mat_invsqrt(parts.sum(axis=-3))[..., None, :, :]
    return w @ parts @ w
