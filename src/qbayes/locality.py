"""Locally-measurable POVM trees and bilinear frame reconstruction.

A two-stage local measurement lets the second party condition their POVM
on the first party's outcome.  Any probability assignment that is
consistent across all such trees extends to a bilinear functional and is
therefore represented by a single joint operator L under the trace with
product effects.  This module evaluates frames over trees, reconstructs
L from product samples, exhibits the swap-operator frame showing L need
not be a state, counts the real-field degrees of freedom that break
uniqueness, and builds the nine-state product measurement on two qutrits
that cannot be performed by local means.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .effects import (
    Povm, _born_matrix, _real_coords, build_ic_kets, standard_sqm, validate_povm
)
from .errors import DegenerateSpan, DimensionMismatch, InvalidArgument


@dataclass(frozen=True)
class PovmTree:
    """Two-stage local measurement with a conditioned second stage.

    ``direction`` is "AtoB" when the first POVM acts on factor A and each
    branch on B, or "BtoA" for the reverse walk.  ``branches[i]`` is the
    second-stage POVM chosen after first outcome i.
    """

    direction: str
    first: Povm
    branches: tuple[Povm, ...]

    def __post_init__(self):
        if self.direction not in ("AtoB", "BtoA"):
            raise InvalidArgument("direction must be 'AtoB' or 'BtoA'")
        if len(self.branches) != len(self.first):
            raise DimensionMismatch("need one branch POVM per first outcome")
        if len({b.dim for b in self.branches}) > 1:
            raise DimensionMismatch("branch POVMs must share one dimension")


def random_tree(
    dim_a: int, dim_b: int, seed=None, direction: str | None = None
) -> PovmTree:
    """Random tree with 2 to 5 outcomes at each stage: its direction, then
    :func:`_draw_trees` and :func:`_trees_from_normals` on a stack of one.  Its
    POVMs are valid by construction, unvalidated."""
    g = linalg.rng_from(seed)
    if direction is None:
        direction = "AtoB" if g.integers(2) == 0 else "BtoA"
    dims = (dim_a, dim_b) if direction == "AtoB" else (dim_b, dim_a)
    first, branches = (a[0] for a in _trees_from_normals(*_draw_trees(*dims, 1, g)))
    sizes = branches.any(axis=(-2, -1)).sum(axis=-1)  # 0 past the first's outcomes
    povms = tuple(Povm(b[:k]) for b, k in zip(branches, sizes) if k)
    return PovmTree(direction, Povm(first[: len(povms)]), povms)


def _draw_trees(d_first: int, d_branch: int, n: int, g) -> tuple[np.ndarray, np.ndarray]:
    """The normals of n random trees in one draw each, zero-padded to 5 outcomes:
    (n, 5, 2, D, D) for the first POVMs and (n, 5, 5, 2, D', D') for the
    branches.  Every POVM has 2 to 5 outcomes; no branch follows an outcome
    its first POVM lacks."""
    k = g.integers(2, 6, size=(n, 6))  # the first POVM's outcomes, then each branch's
    k[:, 1:][np.arange(5) >= k[:, :1]] = 0
    x_first = linalg._padded_normals(g, k[:, 0], (n, 5, 2, d_first, d_first))
    return x_first, linalg._padded_normals(g, k[:, 1:], (n, 5, 5, 2, d_branch, d_branch))


def _trees_from_normals(x_first: np.ndarray, x_branch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded POVMs (N, 5, D, D) and branches (N, 5, 5, D', D') of N trees from
    their :func:`_draw_trees` normals.  Branch POVMs are built only behind
    drawn first outcomes: a padded branch has no elements to normalize."""
    live = x_first.any(axis=(-3, -2, -1))
    branches = np.zeros(x_branch.shape[:3] + x_branch.shape[-2:], dtype=complex)
    branches[live] = linalg.povm_from_normals(x_branch[live])
    return linalg.povm_from_normals(x_first), branches


@dataclass(frozen=True, eq=False)
class BilinearFrame:
    """Probability assignment f(E on A, F on B) for local effect pairs.

    Either a callable ``evaluator``, sampled pair by pair, or a joint ``operator``
    L (:meth:`from_state`, :meth:`from_swap`): pairs, tree stacks and tables are then
    f(E, F) = tr(L (E x F)) = vec(E^T) R vec(F^T), R = L with rows (a, c), columns (b, d).
    """

    dim_a: int
    dim_b: int
    evaluator: Callable[[np.ndarray, np.ndarray], float] | None
    operator: np.ndarray | None = None

    def __call__(self, e: np.ndarray, f: np.ndarray) -> float | np.ndarray:
        """f(E, F).  The frame of one joint operator also takes broadcasting stacks
        (..., dA, dA) and (..., dB, dB), one value per pair; R meets the stack with
        fewer effects first, so a tree's first effect is contracted once."""
        if self.operator is None:
            return float(self.evaluator(e, f))
        if self.operator.ndim != 2:
            raise DimensionMismatch("only the frame of one joint operator is evaluated pair by pair")
        m_e, r, m_f = self._operands(e, f)
        if np.prod(m_e.shape[:-1]) < np.prod(m_f.shape[:-1]):  # f(E, F) = vec(F^T) R^T vec(E^T)
            m_e, r, m_f = m_f, np.ascontiguousarray(r.T), m_e
        # Along R's contiguous rows, by einsum: a threaded BLAS product of this size can stall.
        vals = np.einsum("...i,...i->...", m_e, np.einsum("ij,...j->...i", r, m_f)).real
        return float(vals) if vals.ndim == 0 else vals

    def table(self, es: Sequence[np.ndarray], fs: Sequence[np.ndarray]) -> np.ndarray:
        """The (len(es), len(fs)) table f(E_i, F_j) over two effect sequences.

        For an operator frame it is M_a R M_b^T over rows vec(E_i^T) and vec(F_j^T);
        a stack of operators gives a (..., len(es), len(fs)) stack of tables.
        """
        if self.operator is None:
            return np.array([[self(e, f) for f in fs] for e in es])
        m_a, r, m_b = self._operands(es, fs)
        return (m_a @ r @ m_b.T).real

    def _operands(self, e, f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """vec(E^T), R and vec(F^T) for (..., dA, dA) and (..., dB, dB) effect stacks."""
        e, f = linalg.as_operators(e), linalg.as_operators(f)
        da, db = self.dim_a, self.dim_b
        if e.shape[-2:] != (da, da) or f.shape[-2:] != (db, db):
            raise DimensionMismatch(f"effects {e.shape} and {f.shape} do not act on {da} x {db}")
        return _born_matrix(e), _realign(self.operator, (da, db, da, db)), _born_matrix(f)

    @classmethod
    def from_state(cls, rho_ab: np.ndarray, dims: tuple[int, int]) -> "BilinearFrame":
        """The frame tr(rho (E x F)) of a joint state, or of each state of a
        (..., D, D) stack."""
        rho_ab = linalg.as_operators(rho_ab)
        da, db = dims
        if rho_ab.shape[-1] != da * db:
            raise DimensionMismatch("joint state dim does not factor as given")
        return cls(da, db, None, rho_ab)

    @classmethod
    def from_swap(cls, dim: int) -> "BilinearFrame":
        """The swap frame f(E, F) = tr(E F) / dim = tr((S / dim) (E x F)).

        The normalization constant is fixed by requiring the trivial tree
        {I} x {I} to carry total probability one, which gives tr(S)/c = 1
        and hence c = dim.
        """
        return cls(dim, dim, None, swap_operator(dim) / dim)


def swap_operator(dim: int) -> np.ndarray:
    """S |i>|j> = |j>|i> on C^dim x C^dim."""
    s = np.eye(dim * dim, dtype=complex).reshape(dim, dim, dim, dim)
    return s.transpose(0, 1, 3, 2).reshape(dim * dim, dim * dim)


def tree_probabilities(frame: BilinearFrame, tree: PovmTree) -> list[np.ndarray]:
    """Joint outcome table of a frame over a tree, one row per first outcome."""
    if tree.direction == "AtoB":
        return [frame.table(e[None], b.elements)[0] for e, b in zip(tree.first, tree.branches)]
    return [frame.table(b.elements, f[None])[:, 0] for f, b in zip(tree.first, tree.branches)]


def tree_total(frame: BilinearFrame, tree: PovmTree) -> float:
    return float(sum(row.sum() for row in tree_probabilities(frame, tree)))


def reconstruct_joint_operator(frame: BilinearFrame) -> np.ndarray:
    """Solve tr(L (E x F)) = f(E, F) over a spanning set of product effects.

    Takes the table y of the frame on all pairs (E_i, F_j) of the two
    standard SQMs.  Their products form the product SQM, whose dual frame is
    {R_i x S_j} for the SQM duals {R_i} and {S_j}, so the unique solution
    is L = sum_ij y_ij R_i x S_j, one matrix product of the flattened duals
    realigned back from the R of :class:`BilinearFrame`.  The system is
    square and always solvable: each standard SQM's closed-form dual frame is
    biorthogonal to its elements (see :attr:`qbayes.effects.MinimalIcPovm.dual`).
    The frame of a stack of operators gives the stack of their reconstructions.
    """
    da, db = frame.dim_a, frame.dim_b
    sqm_a, sqm_b = standard_sqm(da), standard_sqm(db)
    y = frame.table(sqm_a.base.elements, sqm_b.base.elements)
    joint = sqm_a.dual.reshape(da * da, -1).T @ y @ sqm_b.dual.reshape(db * db, -1)
    return _realign(joint, (da, da, db, db))


def _realign(x: np.ndarray, dims: tuple[int, int, int, int]) -> np.ndarray:
    """Regroup x[..., (i, j), (k, l)] to (..., (i, k), (j, l)): L to R, and back."""
    (i, j, k, l), lead = dims, x.shape[:-2]
    return x.reshape(lead + dims).swapaxes(-3, -2).reshape(lead + (i * k, j * l))


@dataclass(frozen=True)
class SwapCounterexample:
    """Certificate that a valid frame's operator need not be a state.

    The swap frame is nonnegative on effect pairs and normalized on every
    tree, yet its joint operator has a negative eigenvalue, witnessed by
    the antisymmetric vector recorded here.
    """

    dim: int
    normalization_constant: float
    min_frame_value: float
    max_tree_deviation: float
    joint_operator: np.ndarray
    min_eigenvalue: float
    witness_value: float


def swap_counterexample(dim: int, n_trees: int = 100, seed=0) -> SwapCounterexample:
    """Build and certify the swap frame on two equal factors.

    Draws 200 effect pairs, then ``n_trees`` random trees (their directions,
    then :func:`_draw_trees`), from ``seed``.  The pairs are evaluated as one
    stack, and the trees in chunks of ``linalg._chunked``, as one stack per
    direction.
    """
    g = linalg.rng_from(seed)
    frame = BilinearFrame.from_swap(dim)
    es, fs = _effects_from_draws(g.normal(size=(2, 200, 2, dim, dim)), g.random((2, 200)))
    direction = np.where(g.integers(2, size=n_trees) == 0, "AtoB", "BtoA")
    draws = direction, *_draw_trees(dim, dim, n_trees, g)
    totals = np.concatenate(linalg._chunked(lambda *x: _tree_totals(frame, *x), *draws))
    joint = reconstruct_joint_operator(frame)
    witness = np.zeros(dim * dim, dtype=complex)  # (|01> - |10>) / sqrt 2
    witness[[1, dim]] = np.array([1.0, -1.0]) / np.sqrt(2.0)
    return SwapCounterexample(
        dim=dim,
        normalization_constant=float(dim),
        min_frame_value=float(frame(es, fs).min()),
        max_tree_deviation=float(np.abs(totals - 1.0).max()),
        joint_operator=joint,
        min_eigenvalue=float(np.linalg.eigvalsh(joint)[0]),
        witness_value=float(np.real(witness.conj() @ joint @ witness)),
    )


def _tree_totals(frame: BilinearFrame, direction, x_first, x_branch) -> np.ndarray:
    """:func:`tree_total` of N trees from their :func:`_draw_trees` draws,
    tree n walked in ``direction[n]``."""
    first, branches = _trees_from_normals(x_first, x_branch)
    first, totals = first[:, :, None], np.empty(len(direction))
    for way in ("AtoB", "BtoA"):  # np.unique would load numpy.ma
        pick = direction == way
        if not pick.any():
            continue
        e, f = (first[pick], branches[pick]) if way == "AtoB" else (branches[pick], first[pick])
        totals[pick] = frame(e, f).sum(axis=(-2, -1))
    return totals


def _effects_from_draws(x: np.ndarray, u) -> np.ndarray:
    """Effects M / (largest eigenvalue of M + u), M = Z Z^dag, (..., D, D) from
    (..., 2, D, D) normals for Z = x[..., 0] + i x[..., 1] and (...) uniforms u."""
    z = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    m = z @ linalg.dagger(z)
    return m / (np.linalg.eigvalsh(m)[..., -1] + u)[..., None, None]


# --------------------------------------------------------------------------
# Real-field dimension counting.


def real_symmetric_effects(dim: int) -> list[np.ndarray]:
    """Real symmetric effects spanning the symmetric operators on R^dim.

    The basis projectors together with the pairwise (+) superposition
    projectors; dim (dim + 1) / 2 operators in total.
    """
    return [linalg.projector(v.real) for v in build_ic_kets(dim)[: dim * (dim + 1) // 2]]


def _sym_basis(dim: int) -> np.ndarray:
    """Orthonormal real symmetric basis: E_jj, then (E_jk + E_kj)/sqrt 2, j < k."""
    j, k = np.triu_indices(dim, 1)
    pairs = dim + np.arange(len(j))
    basis = np.zeros((dim + len(j), dim, dim))
    basis[np.arange(dim), np.arange(dim), np.arange(dim)] = 1.0
    basis[pairs, j, k] = basis[pairs, k, j] = 1.0 / np.sqrt(2.0)
    return basis


@dataclass(frozen=True)
class RealSpanAnalysis:
    """Rank data for product effects over real symmetric operator space."""

    product_span_dim: int
    full_symmetric_dim: int
    numeric_rank: int
    null_directions: np.ndarray


def real_span_analysis(dim_a: int, dim_b: int) -> RealSpanAnalysis:
    """Numeric rank of {E_i x F_j} over real symmetric joint operators."""
    ea = real_symmetric_effects(dim_a)
    fb = real_symmetric_effects(dim_b)
    basis = _sym_basis(dim_a * dim_b)
    n = dim_a * dim_b
    products = linalg.tensor(np.stack(ea)[:, None], np.stack(fb)).real.reshape(-1, n, n)
    a = np.einsum("pij,bij->pb", products, basis)
    _, svals, vt = np.linalg.svd(a)
    rank = linalg.numeric_rank(svals)
    # Orthonormal basis of the unreachable directions, as one stack of matrices.
    nulls = np.tensordot(vt[rank:], basis, axes=1).astype(complex)
    return RealSpanAnalysis(
        product_span_dim=dim_a * dim_b * (dim_a + 1) * (dim_b + 1) // 4,
        full_symmetric_dim=dim_a * dim_b * (dim_a * dim_b + 1) // 2,
        numeric_rank=rank,
        null_directions=nulls,
    )


def real_dimension_count(dim_a: int, dim_b: int) -> tuple[int, int]:
    """Equations available vs needed for L over real Hilbert spaces.

    Returns (product-span dimension, full symmetric dimension).  The first
    number is checked against the numeric rank of an explicit product-effect
    family.
    """
    if dim_a < 2 or dim_b < 2:
        raise InvalidArgument("need dims >= 2")
    analysis = real_span_analysis(dim_a, dim_b)
    m = analysis.product_span_dim
    if analysis.numeric_rank != m:
        raise DegenerateSpan(
            f"numeric rank {analysis.numeric_rank} disagrees with the "
            f"formula value {m}"
        )
    return m, analysis.full_symmetric_dim


def complex_product_rank(dim_a: int, dim_b: int) -> int:
    """Rank of {E_i x F_j}, all pairs from the two standard SQMs, over the full
    Hermitian space (complex field)."""
    sa, sb = standard_sqm(dim_a).base.elements, standard_sqm(dim_b).base.elements
    n = dim_a * dim_b
    a = _real_coords(linalg.tensor(sa[:, None], sb).reshape(-1, n, n))
    return linalg.numeric_rank(np.linalg.svd(a, compute_uv=False))


# --------------------------------------------------------------------------
# The two-qutrit domino measurement.


def domino_fixture() -> Povm:
    """Nine product states on two qutrits resolving the identity.

    All elements are tensor products of local states, yet the measurement
    cannot be carried out by local operations and classical communication;
    the fixture is exposed for exercising joint-operator machinery on a
    measurement that no tree can express.
    """
    k0, k1, k2 = (linalg.ket(i, 3) for i in range(3))
    plus01 = (k0 + k1) / np.sqrt(2.0)
    minus01 = (k0 - k1) / np.sqrt(2.0)
    plus12 = (k1 + k2) / np.sqrt(2.0)
    minus12 = (k1 - k2) / np.sqrt(2.0)
    kets = [
        np.kron(k1, k1),
        np.kron(k0, plus01),
        np.kron(k0, minus01),
        np.kron(k2, plus12),
        np.kron(k2, minus12),
        np.kron(plus12, k0),
        np.kron(minus12, k0),
        np.kron(plus01, k2),
        np.kron(minus01, k2),
    ]
    return validate_povm([np.outer(k, k.conj()) for k in kets])
