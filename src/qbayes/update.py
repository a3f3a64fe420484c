"""State-change rules: instruments, refinement/readjustment, channels.

The centerpiece is the factorization of an efficient measurement update
into a convex refinement of the prior state followed by a spectrum
preserving unitary readjustment, which is what makes quantum collapse a
close cousin of Bayes' rule.  The module also covers ancilla dilations,
channels and their Choi operators, remote steering of a channel, the
identification of a measurement from a claimed refinement, and the
qubit teleportation protocol.
"""

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import linalg
from .effects import Povm, _born_matrix, _effect_stack, validate_povm
from .errors import (
    DimensionMismatch,
    InconsistentRefinement,
    InvalidArgument,
    NotCp,
    NotHermitian,
    NotNormalized,
    NotPsd,
    NotTracePreserving,
    NotUnitary,
    RankDeficientState,
    SingularOperator,
)
from .linalg import PROB_FLOOR


def _assert_unitary(u: np.ndarray) -> np.ndarray:
    u = linalg.as_operator(u)
    dev = linalg.identity_dev(linalg.dagger(u) @ u)
    if dev > linalg.IDENTITY_TOL:
        raise NotUnitary(f"U^dag U deviates from I by {dev:.3e}")
    return u


@dataclass(frozen=True)
class KrausInstrument:
    """Outcome-indexed Kraus sets {A_{d,i}} with sum A^dag A = I as one
    (K, r, D, D) stack; ragged sets are padded to r with zero operators,
    which change no effect or posterior.  A channel is the one-outcome
    instrument (K = 1)."""

    outcomes: np.ndarray

    def __post_init__(self):
        flat = _effect_stack([a for ops in self.outcomes for a in ops])
        sizes = np.array([len(ops) for ops in self.outcomes])
        stack = np.zeros((len(sizes), sizes.max()) + flat.shape[1:], dtype=complex)
        stack[np.arange(sizes.max()) < sizes[:, None]] = flat
        object.__setattr__(self, "outcomes", stack)

    @property
    def dim(self) -> int:
        return self.outcomes.shape[-1]

    def __len__(self) -> int:
        return len(self.outcomes)

    def effects(self) -> np.ndarray:
        """The (K, D, D) stack of effects sum_i A_{d,i}^dag A_{d,i}."""
        return _effects(self.outcomes)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The instrument's channel, its outcome ignored: sum_{d,i} A_{d,i} rho A_{d,i}^dag."""
        return unnormalized_posteriors(rho, self).sum(axis=0)

    @property
    def efficient(self) -> bool:
        return self.outcomes.shape[1] == 1


def make_instrument(outcomes: np.ndarray | Sequence[Sequence[np.ndarray]]) -> KrausInstrument:
    """Validate Kraus completeness and wrap the operator sets."""
    inst = KrausInstrument(outcomes)
    # The only check: each sum_i A^dag A is PSD by form, and at most I once all sum to I.
    _check_complete(inst.outcomes)
    return inst


def make_channel(kraus: np.ndarray | Sequence[np.ndarray]) -> KrausInstrument:
    """A channel is the one-outcome instrument: ``make_instrument([kraus])``."""
    return make_instrument([kraus])


def _effects(kraus: np.ndarray) -> np.ndarray:
    """sum_i A_i^dag A_i over the Kraus axis of a (..., r, D, D) stack."""
    return (linalg.dagger(kraus) @ kraus).sum(axis=-3)


def _check_complete(kraus: np.ndarray) -> None:
    """NotTracePreserving unless sum_{d,i} A^dag A = I for each (..., K, r, D, D) instrument."""
    dev = linalg.identity_dev(_effects(kraus).sum(axis=-3))
    if dev > linalg.IDENTITY_TOL:
        raise NotTracePreserving(f"sum A^dag A deviates from I by {dev:.3e}")


# --------------------------------------------------------------------------
# Applying instruments.


def unnormalized_posteriors(state: np.ndarray, inst: KrausInstrument) -> np.ndarray:
    """The (K, D, D) stack of sum_i A_{d,i} rho A_{d,i}^dag, whose traces are the
    outcome probabilities."""
    state = linalg.as_operator(state)
    if state.shape[0] != inst.dim:
        raise DimensionMismatch(f"state dim {state.shape[0]} vs instrument dim {inst.dim}")
    return (inst.outcomes @ state @ linalg.dagger(inst.outcomes)).sum(axis=1)


def efficient_from_povm(
    povm: Povm, unitaries: Sequence[np.ndarray] | None = None
) -> KrausInstrument:
    """One-Kraus-per-outcome instrument A_d = U_d E_d^{1/2} for a POVM.

    Omitted unitaries default to the identity, which is the refinement-only
    (minimally readjusting) realization of the measurement.  A unitary of
    another dimension than the POVM raises DimensionMismatch.
    """
    roots = linalg.mat_sqrt(povm.elements)
    if unitaries is not None:
        if len(unitaries) != len(povm):
            raise DimensionMismatch("need one unitary per POVM element")
        unitaries = [_assert_unitary(u) for u in unitaries]
        for u in unitaries:
            if len(u) != povm.dim:
                raise DimensionMismatch(f"unitary of dim {len(u)} for a POVM of dim {povm.dim}")
        roots = np.stack(unitaries) @ roots
    return make_instrument(roots[:, None])


# --------------------------------------------------------------------------
# Refinement + readjustment factorization.


@dataclass(frozen=True)
class Factorization:
    """Efficient measurement updates split into Bayes-like pieces.

    For one state, arrays over its K outcomes: the (K,) ``probabilities``, the
    mask ``live`` of those above ``PROB_FLOOR``, and (K, D, D) refinements,
    readjustments and posteriors, zero outside the mask.  A stack of N states
    adds a leading N axis.  The prior is the probability-weighted mixture of
    the refinements, and each posterior is the unitary readjustment of its
    refinement, with an identical spectrum.
    """

    probabilities: np.ndarray
    live: np.ndarray
    refinements: np.ndarray
    readjustments: np.ndarray
    posteriors: np.ndarray


def _first(result):
    """The result of the first input of a stacked result dataclass."""
    return type(result)(*(getattr(result, f.name)[0] for f in fields(result)))


def _refine(states: np.ndarray, kraus: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`refinements` led by the (N, 1, D, D) square roots rho^{1/2}."""
    states, kraus = linalg.as_operators(states), linalg.as_operators(kraus)
    if kraus.shape[-1] != states.shape[-1]:
        raise DimensionMismatch("state and instrument dims differ")
    roots = linalg.mat_sqrt(states)[:, None]
    effects = _effects(kraus)
    probs = np.trace(states[:, None] @ effects, axis1=-2, axis2=-1).real
    live = probs > PROB_FLOOR
    return roots, probs, live, (roots @ effects @ roots)[live] / probs[live][:, None, None]


def refinements(states: np.ndarray, kraus: np.ndarray) -> tuple[np.ndarray, ...]:
    """The refinement half of :func:`factor_update` on a stack: the (N, K)
    probabilities of N states (N, D, D) under N instruments (N, K, r, D, D),
    the mask of those above ``PROB_FLOOR`` and, for the outcomes in the mask,
    in its row-major order, the refinements rho^{1/2} E_d rho^{1/2} / P(d),
    from one eigendecomposition for all square roots."""
    return _refine(states, kraus)[1:]


def factor_update(states: np.ndarray, kraus: np.ndarray) -> Factorization:
    """Split efficient instrument updates into refinement + readjustment.

    Takes one state (D, D) with its instrument's Kraus operators (K, 1, D, D),
    the layout of ``KrausInstrument.outcomes``, or N states (N, D, D) with N
    instruments (N, K, 1, D, D).  For each outcome d with probability P(d)
    the refinement is ``rho^{1/2} E_d rho^{1/2} / P(d)`` and the readjustment
    is the unitary V_d carrying it to the actual posterior: the polar factor
    of ``A_d rho^{1/2} = V_d (rho^{1/2} E_d rho^{1/2})^{1/2}``, unique on the
    support of the refinement and completed by the SVD off it, from one
    batched SVD for all outcomes.  Rank-deficient states need no inverse:
    ``mat_sqrt`` zeroes the rank noise of rho^{1/2}, so refinement and
    posterior both lie on the support of rho, and every identity above holds
    there.  More than one Kraus operator per outcome raises InvalidArgument.
    """
    states, kraus = linalg.as_operators(states), linalg.as_operators(kraus)
    single = states.ndim == 2
    if single:
        states, kraus = states[None], kraus[None]
    if states.ndim != 3 or kraus.ndim != 5 or len(kraus) != len(states):
        raise DimensionMismatch(f"need one (K, r, D, D) Kraus stack per state, got {kraus.shape}")
    if kraus.shape[2] != 1:
        raise InvalidArgument("factorization is defined for efficient (single-Kraus) instruments")
    roots, probs, live, refined = _refine(states, kraus)
    kraus = kraus[:, :, 0]
    posteriors = (kraus @ states[:, None] @ linalg.dagger(kraus))[live] / probs[live][:, None, None]
    # Dividing A_d rho^{1/2} by sqrt(P(d)) would leave its polar factor as is.
    v = linalg.polar_unitary((kraus @ roots)[live])
    out = np.zeros((3,) + kraus.shape, dtype=complex)
    out[:, live] = refined, v, posteriors
    fac = Factorization(probs, live, *out)
    return _first(fac) if single else fac


def identify_measurement(
    state: np.ndarray, refinement: Sequence[tuple[float, np.ndarray]]
) -> Povm:
    """Recover the POVM two agents must share to agree on a measurement.

    Given a full-rank prior and a convex refinement of it (probabilities
    and states with sum_d P(d) rho_d = rho), returns the resolution of the
    identity E_d = P(d) rho^{-1/2} rho_d rho^{-1/2}.
    """
    state = linalg.as_operator(state)
    try:
        invroot = linalg.mat_invsqrt(state)
    except SingularOperator as exc:
        raise RankDeficientState("measurement identification needs a full-rank prior") from exc
    mixture = sum(p * linalg.as_operator(r) for p, r in refinement)
    dev = float(np.linalg.norm(mixture - state))
    if dev > linalg.REFINEMENT_TOL:
        raise InconsistentRefinement(
            f"claimed refinement misses the prior state by {dev:.3e}"
        )
    return validate_povm(
        [p * (invroot @ linalg.as_operator(r) @ invroot) for p, r in refinement]
    )


# --------------------------------------------------------------------------
# Instruments from ancilla dilations.


def instrument_from_dilation(
    rho_ancilla: np.ndarray,
    u: np.ndarray,
    ancilla_projectors: Povm | Sequence[np.ndarray],
) -> KrausInstrument:
    """Kraus realization of measuring an ancilla after an interaction.

    The joint state (system tensor ancilla, system first) evolves as
    ``u rho u^dag`` and the ancilla is measured projectively, so outcome d
    applies Kraus operators
    ``A_{d,(b,a)} = sqrt(lambda_a) <b| (I x Pi_d) u |a>`` with
    ``lambda_a, |a>`` the eigenpairs of the ancilla state above
    ``PROB_FLOOR`` and the bra/ket contractions taken over the ancilla factor
    alone.  The system POVM the dilation induces is ``.effects()`` of the
    result.  Projectors of another dimension than the ancilla state, or a
    unitary whose dimension is no multiple of it, raise DimensionMismatch.  The
    ancilla state is decomposed by ``linalg``'s PSD eigensolver: a
    non-Hermitian one raises NotHermitian, one with a negative eigenvalue
    NotPsd, each naming the ancilla state.
    """
    rho_ancilla = linalg.as_operator(rho_ancilla)
    u = linalg.as_operator(u)
    projs = _effect_stack(ancilla_projectors)
    d_anc = rho_ancilla.shape[0]
    if projs.shape[-1] != d_anc:
        raise DimensionMismatch("ancilla projectors vs ancilla state dims differ")
    if u.shape[0] % d_anc != 0:
        raise DimensionMismatch("unitary dim is not a multiple of the ancilla dim")
    d_sys = u.shape[0] // d_anc
    try:
        anc_vals, anc_vecs = linalg._psd_eigs(rho_ancilla)
    except (NotHermitian, NotPsd) as exc:
        raise type(exc)(f"ancilla state: {exc}") from exc
    keep = anc_vals > PROB_FLOOR
    roots = np.sqrt(anc_vals[keep]) * anc_vecs[:, keep]  # column a is sqrt(lambda_a) |a>
    tens = (linalg.tensor(np.eye(d_sys), projs) @ u).reshape(-1, d_sys, d_anc, d_sys, d_anc)
    # <b| (I x Pi_d) u sqrt(lambda_a) |a> over the ancilla factor, for every d, a and b
    kraus = np.einsum("dsbta,ar->drbst", tens, roots)
    return make_instrument(kraus.reshape(len(projs), -1, d_sys, d_sys))


def dilation_from_instrument(
    inst: KrausInstrument,
) -> tuple[np.ndarray, np.ndarray, Povm]:
    """Canonical (ancilla state, unitary, ancilla measurement) realization.

    Only efficient instruments are handled: with one Kraus per outcome the
    isometry ``|s>|0> -> sum_d (A_d |s>) |d>`` can be completed to a
    unitary on system x ancilla, the ancilla starts pure at |0><0|, and the
    ancilla is measured in its computational basis.
    """
    if not inst.efficient:
        raise InvalidArgument("canonical dilation implemented for efficient instruments only")
    d_sys, n_out = inst.dim, len(inst)
    d_tot = d_sys * n_out
    # Isometry columns: |s>|0>  ->  sum_d (A_d |s>) |d>, ancilla index fastest.
    v = inst.outcomes[:, 0].swapaxes(0, 1).reshape(d_tot, d_sys)
    sources = np.arange(d_tot) % n_out == 0
    full = np.zeros((d_tot, d_tot), dtype=complex)
    full[:, sources] = v
    # Left singular vectors beyond rank(v) span range(v)'s orthocomplement;
    # map the remaining computational source vectors onto them.
    full[:, ~sources] = np.linalg.svd(v, full_matrices=True)[0][:, d_sys:]
    basis = [linalg.projector(linalg.ket(d, n_out)) for d in range(n_out)]
    return basis[0], _assert_unitary(full), validate_povm(basis)


# --------------------------------------------------------------------------
# Channels and Choi operators.


def channel_choi(inst: KrausInstrument) -> np.ndarray:
    """Choi operator (I x Phi) applied to the maximally entangled state, of
    the channel of any instrument (its outcome ignored).

    Each Kraus operator A contributes the rank-1 piece |w><w| with
    ``w = (I x A) |psi_ME>``, whose components are A^T flattened over
    sqrt(D).
    """
    w = _born_matrix(inst.outcomes.reshape(-1, inst.dim, inst.dim)) / np.sqrt(inst.dim)
    return w.T @ w.conj()


def choi_channel(choi: np.ndarray) -> KrausInstrument:
    """Recover a Kraus representation, as a one-outcome instrument, from a
    Choi operator.

    Raises NotHermitian for a non-Hermitian input, NotCp for one failing
    ``linalg.psd_fails``, and NotTracePreserving when the Kraus set is not
    complete (equivalently, the partial trace over the output factor is not
    I/D).  Each eigenvalue above the rank cut ``linalg.rank_noise``, relative
    to the largest eigenvalue, gives one Kraus operator.
    """
    choi = linalg.as_operator(choi)
    d2 = choi.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise DimensionMismatch("Choi operator dimension is not a perfect square")
    try:
        vals, vecs = linalg._psd_eigs(choi)
    except NotPsd as exc:
        raise NotCp(f"Choi operator: {exc}") from exc
    keep = ~linalg.rank_noise(vals)
    vecs = vecs[:, keep].T.reshape(-1, d, d).swapaxes(-1, -2)
    return make_channel(np.sqrt(d * vals[keep])[:, None, None] * vecs)


def controlled_unitary_channel(
    u0: np.ndarray, u1: np.ndarray, alpha: complex, beta: complex
) -> KrausInstrument:
    """Target-bit channel of a controlled unitary with a superposed control.

    With the control prepared in alpha|0> + beta|1>, the target evolves by
    ``|alpha|^2 U_0 rho U_0^dag + |beta|^2 U_1 rho U_1^dag``, whose sum A^dag A,
    (|alpha|^2 + |beta|^2) I, must pass the completeness rule (NotNormalized).
    """
    u0, u1 = _assert_unitary(u0), _assert_unitary(u1)
    dev = linalg.identity_dev((abs(alpha) ** 2 + abs(beta) ** 2) * np.eye(len(u0)))
    if dev > linalg.IDENTITY_TOL:
        raise NotNormalized(f"control amplitudes: (|a|^2 + |b|^2) I deviates from I by {dev:.3e}")
    return make_channel([c * u for c, u in ((alpha, u0), (beta, u1)) if abs(c) > 0.0])


@dataclass(frozen=True)
class SteeringReport:
    """Conditional channels steered onto a target by a far measurement.

    ``conditional_chois[k]``, of a (K, 4, 4) stack, is the Choi operator of
    the target channel given far outcome k (with probability ``far_probs[k]``);
    ``averaged_choi`` is their mixture and ``unconditional_choi`` the Choi
    of the channel obtained by never measuring the far system.  The final
    field is the no-signaling deviation between the two.
    """

    far_probs: np.ndarray
    conditional_chois: np.ndarray
    conditional_weights: np.ndarray
    averaged_choi: np.ndarray
    unconditional_choi: np.ndarray
    max_deviation: float


def remote_steering_experiment(
    far_povm: Povm,
    seed=None,
    u0: np.ndarray | None = None,
    u1: np.ndarray | None = None,
    alpha: complex | None = None,
    beta: complex | None = None,
) -> SteeringReport:
    """Steer the effective evolution of a target by measuring a far qubit.

    The control bit of a controlled-unitary circuit holds one half of the
    entangled pair ``alpha|00> + beta|11>``; measuring the far half with
    ``far_povm`` leaves the control in an outcome-dependent state, so each
    far outcome assigns the target a different mixture of U_0 and U_1.
    Circuit parameters default to seeded Haar unitaries and a seeded
    random superposition, making runs reproducible.  The amplitudes and
    unitaries are checked once, by the unmeasured channel built first.
    """
    if far_povm.dim != 2:
        raise DimensionMismatch("the far system is a qubit")
    g = linalg.rng_from(seed)
    if u0 is None:
        u0 = linalg.random_unitary(2, g)
    if u1 is None:
        u1 = linalg.random_unitary(2, g)
    if alpha is None or beta is None:
        amp = linalg.random_ket(2, g)
        alpha, beta = complex(amp[0]), complex(amp[1])
    unconditional = channel_choi(controlled_unitary_channel(u0, u1, alpha, beta))
    # Outcome M on the far half of alpha|00> + beta|11> leaves the control with
    # diagonal (|alpha|^2 M_00, |beta|^2 M_11), so the target gets U_0 or U_1.
    diagonals = np.diagonal(far_povm.elements, axis1=1, axis2=2).real
    raw = diagonals * np.abs([alpha, beta]) ** 2
    probs = raw.sum(axis=1)
    live = probs > PROB_FLOOR
    weights = np.zeros_like(raw)
    w = np.clip(raw[live], 0.0, None)
    weights[live] = w / w.sum(axis=1, keepdims=True)
    # A mixture of unitary channels has the mixture of their Choi operators.
    chois = np.tensordot(weights, [channel_choi(make_channel([u])) for u in (u0, u1)], axes=1)
    averaged = np.tensordot(probs, chois, axes=1)
    return SteeringReport(
        far_probs=probs,
        conditional_chois=chois,
        conditional_weights=weights,
        averaged_choi=averaged,
        unconditional_choi=unconditional,
        max_deviation=float(np.abs(averaged - unconditional).max()),
    )


# --------------------------------------------------------------------------
# Teleportation.


def bell_kets() -> list[np.ndarray]:
    """The four Bell states in the order Phi+, Phi-, Psi+, Psi-."""
    s = 1.0 / np.sqrt(2.0)
    return [
        s * np.array([1, 0, 0, 1], dtype=complex),
        s * np.array([1, 0, 0, -1], dtype=complex),
        s * np.array([0, 1, 1, 0], dtype=complex),
        s * np.array([0, 1, -1, 0], dtype=complex),
    ]


# Outcome -> correction, chosen so the corrected state is the input up to a
# global phase.  The names pair with bell_kets() order.
BELL_CORRECTIONS = (
    ("I", np.eye(2, dtype=complex)),
    ("Z", linalg.sigma_z),
    ("X", linalg.sigma_x),
    ("ZX", linalg.sigma_z @ linalg.sigma_x),
)


@dataclass(frozen=True)
class Teleportation:
    """Everything both parties can say about teleporting one ket, under all
    four Bell outcomes in ``bell_kets()`` order; a stack of N kets adds a
    leading N axis.

    ``outcome_probs`` (4,) are Alice's outcome probabilities,
    ``conditional_kets`` (4, 2) her description of Bob's qubit after each,
    ``bob_marginal_before`` and ``bob_marginal_unconditional`` (2, 2) Bob's
    marginal before she measures and averaged over her outcomes, and
    ``final_states`` (4, 2, 2) Bob's state after the ``BELL_CORRECTIONS``
    entry of each outcome, with its ``fidelities`` (4,) to the input.
    """

    outcome_probs: np.ndarray
    conditional_kets: np.ndarray
    bob_marginal_before: np.ndarray
    bob_marginal_unconditional: np.ndarray
    final_states: np.ndarray
    fidelities: np.ndarray


def teleport(psi: np.ndarray) -> Teleportation:
    """Teleport a pure qubit state (2,), or each of a stack (N, 2), through a
    shared maximally entangled pair.

    Alice holds the input qubit and one half of ``(|00> + |11>)/sqrt(2)``;
    she measures her two qubits in the Bell basis.  The outcome distribution
    is uniform regardless of the input, Bob's unconditional marginal is I/2
    before and after her measurement, and every corrected state has fidelity
    1 with the input.  NotNormalized if |psi^dag psi - 1| > ``linalg.IDENTITY_TOL``.
    """
    psis = np.asarray(psi, dtype=complex)
    if psis.ndim not in (1, 2) or psis.shape[-1] != 2:
        raise DimensionMismatch("teleportation inputs are single-qubit kets")
    single = psis.ndim == 1
    psis = psis.reshape(-1, 2)
    squares = np.vecdot(psis, psis).real
    bad = np.abs(squares - 1.0) > linalg.IDENTITY_TOL
    if bad.any():
        raise NotNormalized(f"input ket has norm {np.sqrt(squares[bad][0]):.9f}")
    pair = bell_kets()[0]  # (|00> + |11>)/sqrt(2)
    total = (psis[:, :, None] * pair).reshape(-1, 4, 2)  # (input, Alice's half), Bob
    before = np.einsum("nai,naj->nij", total, total.conj())
    # Project Alice's two qubits onto each Bell state.
    subs = np.conj(bell_kets()) @ total
    probs = (subs.conj() * subs).real.sum(axis=-1)
    conditional = subs / np.sqrt(probs)[..., None]  # each probability is 1/4
    unconditional = np.einsum("nk,nki,nkj->nij", probs, conditional, conditional.conj())
    final_kets = np.einsum("kij,nkj->nki", np.stack([c for _, c in BELL_CORRECTIONS]), conditional)
    final = final_kets[..., :, None] * final_kets.conj()[..., None, :]
    fidelity = np.einsum("ni,nkij,nj->nk", psis.conj(), final, psis).real
    out = Teleportation(probs, conditional, before, unconditional, final, fidelity)
    return _first(out) if single else out


def kraus_from_normals(x: np.ndarray) -> np.ndarray:
    """Efficient instruments ``A_d = V_d E_d^{1/2}`` (..., K, 1, D, D), in the
    layout of ``KrausInstrument.outcomes`` and checked for completeness, from
    (..., 2, K, 2, D, D) normals: [..., 0, :, ...] for the POVM E, [..., 1, :, ...]
    for the Haar V_d.  All-zero POVM normals give the zero operator, an outcome
    of probability 0: a stack can pad fewer outcomes."""
    povm, unitaries = x[..., 0, :, :, :, :], x[..., 1, :, :, :, :]
    roots = linalg.mat_sqrt(linalg.povm_from_normals(povm))
    present = povm.any(axis=(-3, -2, -1))
    kraus = np.zeros_like(roots)
    kraus[present] = linalg.unitary_from_normals(unitaries[present]) @ roots[present]
    kraus = kraus[..., None, :, :]
    _check_complete(kraus)
    return kraus
