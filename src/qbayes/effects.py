"""POVMs as the basic notion of measurement.

A POVM is a finite set of effects (PSD operators between 0 and I) that
resolves the identity.  This module validates candidate POVMs, constructs
the minimal informationally complete POVM used as the package-wide
standard quantum measurement (SQM) from D alone, in closed form from its
D^2 seed kets, evaluates the generalized Born rule, and inverts it:
reconstructing a density operator from the values a frame function takes
on a spanning set of effects.  A frame function is an effect stack and its
value table; only ``FrameFunction.record`` matches an effect by value.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    DegenerateSpan,
    DimensionMismatch,
    InvalidArgument,
    NotAStateWarning,
    NotHermitian,
    NotPsd,
    NotResolution,
)


def _effect_stack(ops) -> np.ndarray:
    """Coerce a nonempty sequence of D x D operators to one complex (K, D, D)
    stack, the storage of every operator set; a stack is taken as it is."""
    try:
        stack = linalg.as_operators(ops)
    except ValueError as exc:  # numpy's error for operators of different shapes
        raise DimensionMismatch(f"operators do not stack to one shape: {exc}") from exc
    if stack.ndim != 3 or not len(stack):
        raise DimensionMismatch(f"expected a nonempty (K, D, D) operator stack, got {stack.shape}")
    return stack


def _born_matrix(stack: np.ndarray) -> np.ndarray:
    """Rows vec(E_k^T) of a (..., K, D, D) stack, so ``M @ vec(X)`` is tr(X E_k) for any X."""
    return stack.swapaxes(-1, -2).reshape(stack.shape[:-2] + (-1,))


def _real_coords(ops) -> np.ndarray:
    """Real coordinates (..., 2 D^2) of (..., D, D) operators: the float view of
    their flattened entries, not a copy for a contiguous complex stack.  The dot
    product of two rows is Re tr(A B^dag), which is Re tr(AB) when A or B is
    Hermitian and tr(AB) when both are."""
    a = np.ascontiguousarray(ops, dtype=complex)
    return a.reshape(a.shape[:-2] + (-1,)).view(float)


@dataclass(frozen=True)
class Povm:
    """Validated POVM: its effects, summing to the identity, as one (K, D, D) stack."""

    elements: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "elements", _effect_stack(self.elements))

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, idx) -> np.ndarray:
        return self.elements[idx]


def validate_povm(candidate: np.ndarray | Sequence[np.ndarray]) -> Povm:
    """Check a (K, D, D) stack or a sequence of matrices forms a POVM and wrap it.

    Raises NotHermitian or NotPsd (naming the first offending index) when an
    element is not an effect, NotResolution (with ``linalg.identity_dev``)
    when the elements do not sum to the identity within ``linalg.IDENTITY_TOL``.
    """
    if not len(candidate):
        raise NotResolution("a POVM needs at least one element", deficit=float("nan"))
    stack = _effect_stack(candidate)
    hermitian = linalg.is_hermitian(stack)
    if not hermitian.all():
        raise NotHermitian(f"element {int(np.argmin(hermitian))} is not Hermitian")
    vals = np.linalg.eigvalsh((stack + linalg.dagger(stack)) / 2.0)
    bad = linalg.psd_fails(vals[:, 0], vals[:, -1])
    i = int(np.argmax(bad))
    if bad[i]:
        raise NotPsd(f"element {i} has eigenvalue {vals[i, 0]:.3e} < 0", index=i)
    deficit = linalg.identity_dev(stack.sum(axis=0))
    if deficit > linalg.IDENTITY_TOL:
        raise NotResolution(
            f"elements sum to the identity only within {deficit:.3e}", deficit=deficit
        )
    return Povm(stack)


def born(state: np.ndarray, povm: Povm | Sequence[np.ndarray]) -> np.ndarray:
    """Outcome probabilities tr(rho E_d) for each effect of ``povm``.

    ``state`` is one D x D operator or a stack of shape (..., D, D); the
    result has shape (..., len(povm)): one real product of the states' and
    the effects' ``_real_coords``, i.e. Re tr(rho E_d^dag).  The rule assumes
    Hermitian operators: that is Re tr(rho E_d) when the state or the effect
    is Hermitian and tr(rho E_d) when both are; neither is checked here.  Plain effects are stacked once, not
    validated; missing or mixed-shape effects raise DimensionMismatch.  A
    Povm and its stack take the same product, so their results are bitwise
    equal.  Entries in [-PROB_NEG_TOL, 0) are clamped to exactly zero; lower
    ones raise NotPsd, and a NaN or infinite one InvalidArgument.
    """
    stack = povm.elements if isinstance(povm, Povm) else _effect_stack(povm)
    state = np.asarray(state, dtype=complex)
    dim = stack.shape[-1]
    if state.shape[-2:] != (dim, dim):
        raise DimensionMismatch(f"state shape {state.shape} vs POVM dim {dim}")
    p = _real_coords(state) @ _real_coords(stack).T
    low, high = p.min(), p.max()
    if not (low >= -linalg.PROB_NEG_TOL and high < np.inf):  # a NaN fails both
        if not (low > -np.inf and high < np.inf):
            raise InvalidArgument(f"outcome probabilities from {low} to {high} are not all finite")
        raise NotPsd(f"negative outcome probability {low:.3e}")
    return np.maximum(p, 0.0, out=p)


# --------------------------------------------------------------------------
# The minimal informationally complete construction.


def build_ic_kets(dim: int) -> np.ndarray:
    """The dim^2 unit kets seeding the SQM, as the rows of a (dim^2, dim) array:
    the basis kets ``|e_j>``, then ``(|e_j> + |e_k>)/sqrt(2)`` for each pair
    j < k in lexicographic order, then ``(|e_j> + i |e_k>)/sqrt(2)``."""
    if dim < 2:
        raise InvalidArgument("need dim >= 2")
    eye = np.eye(dim, dtype=complex)
    j, k = np.triu_indices(dim, 1)
    return np.concatenate([eye] + [(eye[j] + phase * eye[k]) / math.sqrt(2.0) for phase in (1, 1j)])


def _seed_dual(dim: int) -> np.ndarray:
    """The seeds' own dual frame, the (dim^2, dim, dim) stack Q_d with tr(|v_c><v_c| Q_d)
    = delta_cd: Q_+ = |j><k| + |k><j| and Q_i = -i|j><k| + i|k><j| per pair j < k,
    and Q_j = |j><j| - (Q_+ + Q_i)/2 summed over the pairs that hold j."""
    j, k = np.triu_indices(dim, 1)
    basis, plus, imag = np.split(np.arange(dim * dim), [dim, dim + len(j)])
    q = np.zeros((dim * dim, dim, dim), dtype=complex)
    q[basis, basis, basis] = 1.0
    q[plus, j, k] = q[plus, k, j] = 1.0
    q[imag, j, k], q[imag, k, j] = -1j, 1j
    for d in (j, k):  # Q_+ + Q_i of the pair is (1 - i)|j><k| + (1 + i)|k><j|
        q[d, j, k], q[d, k, j] = -(1 - 1j) / 2, -(1 + 1j) / 2
    return q


@dataclass(frozen=True)
class MinimalIcPovm:
    """The standard SQM of one dimension with its construction data.

    ``base`` holds the dim^2 rank-one effects u_d u_d^dag, Hermitian by
    construction, and ``gram`` the positive definite G = sum_d |v_d><v_d| of
    the seed kets of :func:`build_ic_kets`, u_d = G^{-1/2} v_d.  The ``dual``
    frame and the per-element ``max_probability`` are read off that
    construction once, on first use.
    """

    base: Povm
    gram: np.ndarray

    @property
    def dim(self) -> int:
        return self.base.dim

    def __len__(self) -> int:
        return len(self.base)

    @functools.cached_property
    def dual(self) -> np.ndarray:
        """Dual frame as a (dim^2, dim, dim) stack: ``dual[d]`` is R_d.

        R_d is the Hermitian part of G^{1/2} Q_d G^{1/2}, Q_d the seeds' own dual, so
        tr(E_c R_d) = tr(|v_c><v_c| Q_d) = delta_cd: the elements are linearly independent,
        every state is rho = sum_d p(d) R_d, and each such sum is exactly Hermitian.
        """
        root = linalg.mat_sqrt(self.gram)
        r = root @ _seed_dual(self.dim) @ root
        return (r + linalg.dagger(r)) / 2.0

    @functools.cached_property
    def max_probability(self) -> np.ndarray:
        """Largest probability any state gives each outcome: the trace ||u_d||^2 of
        u_d u_d^dag, its one nonzero eigenvalue; born(rho, base) never exceeds it."""
        return np.trace(self.base.elements, axis1=-2, axis2=-1).real


# Peak bytes of one SQM build per 16 D^4 bytes (one complex (D^2, D, D) stack),
# by tracemalloc at D = 8, 16 and 24: 4.3, 3.3 and 3.1 for the build, and
# 5.1, 4.1 and 4.0 while its closed-form dual is built on first use.
_SQM_BUILD_STACKS = 6


def gram_renormalize(dim: int) -> MinimalIcPovm:
    """Build the standard SQM of dimension ``dim`` from its seed kets v_d.

    With G = sum_d |v_d><v_d| and u_d = G^{-1/2} v_d, the elements u_d u_d^dag
    resolve the identity.  G is positive definite for every dim >= 2 (its
    smallest eigenvalue is 1 / certainty_bound(dim)), and the elements are
    linearly independent, since ``MinimalIcPovm.dual`` is biorthogonal to
    them.  Uncached: :func:`standard_sqm` keeps one build per dimension.  A
    build whose peak, ``_SQM_BUILD_STACKS * 16 * dim^4`` bytes, would pass
    ``linalg.MEMORY_BUDGET_BYTES`` raises DimensionBudgetExceeded before
    allocating (from dim = 41 on).
    """
    linalg._check_budget(_SQM_BUILD_STACKS * 16 * dim**4, f"the standard SQM of dimension {dim}")
    kets = build_ic_kets(dim)
    gram = kets.T @ kets.conj()
    u = kets @ linalg.mat_invsqrt(gram).T
    # einsum: numpy's SIMD complex * can break E_ij == conj(E_ji) by a rounding.
    return MinimalIcPovm(validate_povm(np.einsum("di,dj->dij", u, u.conj())), gram)


def element_gram_min_singular_value(povm: Povm) -> float:
    """Smallest singular value of the Hilbert-Schmidt Gram of the elements."""
    # tr(E_i E_j) of Hermitian effects is the dot product of their real coordinates.
    # The Gram is PSD, so its singular values are its eigenvalues.
    # It is formed by einsum: a threaded BLAS product of this size can stall.
    rows = _real_coords(povm.elements)
    return float(np.linalg.eigvalsh(np.einsum("ik,jk->ij", rows, rows))[0])


# The standard SQM of each dimension built so far; standard_sqm fills it.
_SQMS: dict[int, MinimalIcPovm] = {}


def standard_sqm(dim: int) -> MinimalIcPovm:
    """The package-wide standard quantum measurement for dimension ``dim``.

    Fixed by ``dim`` alone: :func:`gram_renormalize` over the computational
    basis, built once per dimension and kept in the module's ``_SQMS`` dict for
    the life of the process; all probability-vector representations of states
    refer to this measurement unless another one is passed explicitly.  A
    dimension past the build's memory budget raises DimensionBudgetExceeded
    from :func:`gram_renormalize`, before allocating.  A ``dim`` that is no
    integer (a bool, a float such as 2.0) raises InvalidArgument, before the
    lookup, so the answer does not depend on what was built before.
    """
    if type(dim) is bool or not isinstance(dim, (int, np.integer)):
        raise InvalidArgument(f"dimension {dim!r} is not an integer")
    sqm = _SQMS.get(dim)
    if sqm is None:
        sqm = _SQMS[dim] = gram_renormalize(dim)
    return sqm


def certainty_bound(dim: int) -> float:
    """Largest outcome probability any state can assign to the standard SQM.

    The closed form ``1 / (dim - (1 + cot(3 pi / 4 dim)) / 2)`` of the largest
    eigenvalue of G^{-1}, G = sum_d |v_d><v_d| over the seed kets; the
    ``certainty-bound`` CLI section checks it against that eigenvalue.
    """
    if dim < 2:
        raise InvalidArgument("need dim >= 2")
    return 1.0 / (dim - 0.5 * (1.0 + 1.0 / np.tan(3.0 * np.pi / (4.0 * dim))))


# --------------------------------------------------------------------------
# Frame functions and Gleason-type reconstruction.


class FrameFunction:
    """Probability assignment to effects: one (K, D, D) effect stack and its
    (..., K) value table, in first-recorded order.

    An effect takes one value whatever POVM it appears in: :meth:`record`
    matches it by value, within ``linalg.EFFECT_TOL`` per real coordinate,
    against every stored effect.  A frame of a (..., D, D) stack of states
    holds one row of K values per state; its reconstruction is the stack of
    states.
    """

    def __init__(self):
        self._effects = np.empty((0, 0, 0), dtype=complex)
        self._values = np.empty(0)

    @classmethod
    def from_state(cls, state: np.ndarray, effects: Povm | Sequence[np.ndarray]) -> "FrameFunction":
        """Record tr(rho E) per effect, for one state or each state of a (..., D, D)
        stack, with one born call; a stack of effects (a Povm's elements or a
        plain stack) is kept as it is, not copied.  No effects are matched and no
        SQM is built, so a repeated effect keeps one row per occurrence.  Mixed
        shapes raise DimensionMismatch."""
        f = cls()
        if len(effects):
            f._effects = effects.elements if isinstance(effects, Povm) else _effect_stack(effects)
            f._values = born(state, f._effects)
        return f

    def record(self, effect: np.ndarray, value) -> None:
        """Assign ``value`` to ``effect``; on a frame of a state stack it broadcasts
        over the stack.  Every stored effect whose ``_real_coords`` lie within
        ``linalg.EFFECT_TOL`` of the effect's, entry by entry, takes the value and
        keeps its stored entries; with no such effect, the effect and its value
        are appended.  The effect stack, perhaps a POVM's own, is never written.
        An effect of another shape than the stored ones raises DimensionMismatch."""
        effect = linalg.as_operator(effect)
        column = np.broadcast_to(np.asarray(value, dtype=float), self._values.shape[:-1])[..., None]
        if not len(self):  # the first effect sets the frame's shape
            self._effects, self._values = effect[None].copy(), column.copy()
            return
        if self._effects.shape[1:] != effect.shape:
            raise DimensionMismatch(f"effect shape {effect.shape} vs the frame's {self._effects.shape[1:]}")
        same = (abs(_real_coords(self._effects) - _real_coords(effect)) <= linalg.EFFECT_TOL).all(axis=-1)
        if same.any():
            self._values[..., same] = column
        else:
            self._effects = np.concatenate([self._effects, effect[None]])
            self._values = np.concatenate([self._values, column], axis=-1)

    def __len__(self) -> int:
        return self._values.shape[-1]

    def items(self) -> list[tuple[np.ndarray, float | list]]:
        return list(zip(self._effects, np.moveaxis(self._values, -1, 0).tolist()))


def reconstruct_from_frame(frame: FrameFunction) -> np.ndarray:
    """Solve tr(rho E_i) = f(E_i) over the recorded effects.

    A frame whose effect stack is the stack of ``standard_sqm(dim)``, or equals
    it entry for entry, is inverted through the cached dual frame,
    rho = sum_d f(E_d) R_d.  Any other frame, SQM effects that differ from the
    SQM's by a rounding included, is solved by least squares in the
    ``_real_coords`` of rho, to the same values; the rows are coordinates of
    Hermitian effects, so the minimum-norm solution is Hermitian.  Fewer than
    dim^2 linearly independent effects, or a residual above
    ``linalg.RECONSTRUCTION_RESIDUAL_TOL`` on either path, raise
    DegenerateSpan; so does a NaN or infinite frame value, whose residual is
    no number.  A frame of a state stack, with a (..., K) value table,
    gives the (..., D, D) stack through one product with the dual frame or one
    least-squares solve with a right-hand side per state.  The solution is
    returned as-is.  If it fails ``linalg.state_fails`` (the frame values
    did not come from a state) a NotAStateWarning is emitted rather than an
    exception, so callers can inspect the operator; on a stack the residual
    error and the warning name the first failing frame by its flat index.
    """
    if not len(frame):
        raise DegenerateSpan("empty frame function")
    stack, y = frame._effects, frame._values
    k, dim = stack.shape[:2]
    if k < dim * dim:
        raise DegenerateSpan(f"{k} effects cannot span the {dim * dim}-dim operator space")
    coords = _real_coords(stack)
    sqm = standard_sqm(dim) if k == dim * dim > 1 else None
    if sqm is not None and (stack is sqm.base.elements or np.array_equal(stack, sqm.base.elements)):
        rho = y @ sqm.dual.reshape(k, k)
    else:
        x, _, rank, _ = np.linalg.lstsq(coords, y.reshape(-1, k).T, rcond=None)
        if rank < dim * dim:
            raise DegenerateSpan(f"sampled effects span only {rank} of {dim * dim} dims")
        rho = np.ascontiguousarray(x.T).view(complex)
    rho = rho.reshape(y.shape[:-1] + (dim, dim))
    where = "" if y.ndim == 1 else "frame {}: "  # a stack names its first failing frame
    miss = _real_coords(rho) @ coords.T - y
    squared = np.vecdot(miss, miss)  # the residual norm squared, per frame
    bad = ~(squared <= linalg.RECONSTRUCTION_RESIDUAL_TOL**2)  # a NaN residual fails
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateSpan(
            f"{where.format(i)}least-squares residual {np.sqrt(np.ravel(squared)[i]):.3e} too large"
        )
    low = np.linalg.eigvalsh(rho)[..., 0]
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    bad = linalg.state_fails(low, trace)
    if bad.any():
        i = int(np.argmax(bad))
        warnings.warn(
            f"{where.format(i)}reconstructed operator is not a state (min eigenvalue "
            f"{np.ravel(low)[i]:.3e}, trace {np.ravel(trace)[i]:.6f})",
            NotAStateWarning,
            stacklevel=2,
        )
    return rho
