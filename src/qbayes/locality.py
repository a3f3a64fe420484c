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
from .effects import Povm, build_ic_projectors, real_design_matrix, standard_sqm, validate_povm
from .errors import DegenerateSpan, DimensionMismatch


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
            raise ValueError("direction must be 'AtoB' or 'BtoA'")
        if len(self.branches) != len(self.first):
            raise DimensionMismatch("need one branch POVM per first outcome")
        db = self.branches[0].dim
        for b in self.branches:
            if b.dim != db:
                raise DimensionMismatch("branch POVMs must share one dimension")


def random_tree(
    dim_a: int, dim_b: int, seed=None, direction: str | None = None
) -> PovmTree:
    """Random tree with 2 to 5 outcomes at each stage.  Its POVMs come from
    :func:`qbayes.linalg.random_povm`, valid by construction, unvalidated."""
    g = linalg.rng_from(seed)
    if direction is None:
        direction = "AtoB" if g.integers(2) == 0 else "BtoA"
    d_first, d_branch = (dim_a, dim_b) if direction == "AtoB" else (dim_b, dim_a)
    first = Povm(tuple(linalg.random_povm(d_first, int(g.integers(2, 6)), g)))
    branches = tuple(
        Povm(tuple(linalg.random_povm(d_branch, int(g.integers(2, 6)), g)))
        for _ in range(len(first))
    )
    return PovmTree(direction, first, branches)


@dataclass(frozen=True, eq=False)
class BilinearFrame:
    """Probability assignment f(E on A, F on B) for local effect pairs.

    Either a callable ``evaluator``, sampled pair by pair, or a joint
    ``operator`` L with f(E, F) = tr(L (E x F)), whose :meth:`table` is one
    contraction; :meth:`from_state` and :meth:`from_swap` build the latter.
    """

    dim_a: int
    dim_b: int
    evaluator: Callable[[np.ndarray, np.ndarray], float] | None
    operator: np.ndarray | None = None

    def __call__(self, e: np.ndarray, f: np.ndarray) -> float:
        return float(self.evaluator(e, f) if self.operator is None else self.table([e], [f])[0, 0])

    def table(self, es: Sequence[np.ndarray], fs: Sequence[np.ndarray]) -> np.ndarray:
        """The (len(es), len(fs)) table f(E_i, F_j) over two effect sequences.

        For an operator frame it is M_a R M_b^T, where row i of M_a is
        vec(E_i^T) as in :attr:`qbayes.effects.Povm.matrix` (likewise M_b)
        and R is L reshuffled to rows (a, c), columns (b, d).
        """
        if self.operator is None:
            return np.array([[self(e, f) for f in fs] for e in es])
        da, db = self.dim_a, self.dim_b
        m_a = np.asarray(es, dtype=complex).swapaxes(-1, -2).reshape(len(es), da * da)
        m_b = np.asarray(fs, dtype=complex).swapaxes(-1, -2).reshape(len(fs), db * db)
        r = self.operator.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
        return (m_a @ r @ m_b.T).real

    @classmethod
    def from_state(cls, rho_ab: np.ndarray, dims: tuple[int, int]) -> "BilinearFrame":
        """The frame tr(rho (E x F)) of a joint state."""
        rho_ab = linalg.as_operator(rho_ab)
        da, db = dims
        if rho_ab.shape[0] != da * db:
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
        return [frame.table([e], b.elements)[0] for e, b in zip(tree.first, tree.branches)]
    return [frame.table(b.elements, [f])[:, 0] for f, b in zip(tree.first, tree.branches)]


def tree_total(frame: BilinearFrame, tree: PovmTree) -> float:
    return float(sum(row.sum() for row in tree_probabilities(frame, tree)))


def reconstruct_joint_operator(frame: BilinearFrame) -> np.ndarray:
    """Solve tr(L (E x F)) = f(E, F) over a spanning set of product effects.

    Takes the table y of the frame on all pairs (E_i, F_j) of the two
    standard SQMs.  Their products form the product SQM, whose dual frame is
    {R_i x S_j} for the SQM duals {R_i} and {S_j}, so the unique solution
    is L = sum_ij y_ij R_i x S_j, one matrix product of the flattened duals
    reshuffled as in :meth:`BilinearFrame.table`.  The system is square and
    always solvable: each standard SQM is certified linearly independent
    when it is built (see :func:`qbayes.effects.gram_renormalize`).
    """
    da, db = frame.dim_a, frame.dim_b
    sqm_a, sqm_b = standard_sqm(da), standard_sqm(db)
    y = frame.table(sqm_a.base.elements, sqm_b.base.elements)
    joint = sqm_a.dual.reshape(da * da, -1).T @ y @ sqm_b.dual.reshape(db * db, -1)
    return joint.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)


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
    """Build and certify the swap frame on two equal factors (200 effect pairs)."""
    g = linalg.rng_from(seed)
    frame = BilinearFrame.from_swap(dim)
    min_val = np.inf
    for _ in range(200):
        e = _random_effect(dim, g)
        f = _random_effect(dim, g)
        min_val = min(min_val, frame(e, f))
    max_dev = 0.0
    for _ in range(n_trees):
        max_dev = max(max_dev, abs(tree_total(frame, random_tree(dim, dim, g)) - 1.0))
    joint = reconstruct_joint_operator(frame)
    witness = np.zeros(dim * dim, dtype=complex)
    witness[0 * dim + 1] = 1.0 / np.sqrt(2.0)
    witness[1 * dim + 0] = -1.0 / np.sqrt(2.0)
    return SwapCounterexample(
        dim=dim,
        normalization_constant=float(dim),
        min_frame_value=float(min_val),
        max_tree_deviation=float(max_dev),
        joint_operator=joint,
        min_eigenvalue=float(np.linalg.eigvalsh(joint)[0]),
        witness_value=float(np.real(witness.conj() @ joint @ witness)),
    )


def _random_effect(dim: int, g) -> np.ndarray:
    m = linalg.random_psd(dim, g)
    return m / (np.linalg.eigvalsh(m)[-1] + g.random())


# --------------------------------------------------------------------------
# Real-field dimension counting.


def real_symmetric_effects(dim: int) -> list[np.ndarray]:
    """Real symmetric effects spanning the symmetric operators on R^dim.

    The basis projectors together with the pairwise (+) superposition
    projectors; dim (dim + 1) / 2 operators in total.
    """
    return [op.real.astype(complex) for op in build_ic_projectors(dim)[: dim * (dim + 1) // 2]]


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
    null_directions: tuple[np.ndarray, ...]


def real_span_analysis(dim_a: int, dim_b: int) -> RealSpanAnalysis:
    """Numeric rank of {E_i x F_j} over real symmetric joint operators."""
    ea = real_symmetric_effects(dim_a)
    fb = real_symmetric_effects(dim_b)
    basis = _sym_basis(dim_a * dim_b)
    products = np.stack([linalg.tensor(e, f).real for e in ea for f in fb])
    a = np.einsum("pij,bij->pb", products, basis)
    _, svals, vt = np.linalg.svd(a)
    rank = linalg.numeric_rank(svals)
    # Orthonormal basis of the unreachable directions, as matrices.
    nulls = tuple(np.tensordot(vt[rank:], basis, axes=1).astype(complex))
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
        raise ValueError("need dims >= 2")
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
    a = real_design_matrix([linalg.tensor(e, f) for e in sa for f in sb])
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
