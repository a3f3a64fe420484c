"""State-change rules: instruments, refinement/readjustment, channels.

The centerpiece is the factorization of an efficient measurement update
into a convex refinement of the prior state followed by a spectrum
preserving unitary readjustment, which is what makes quantum collapse a
close cousin of Bayes' rule.  The module also covers ancilla dilations,
channels and their Choi operators, remote steering of a channel, the
identification of a measurement from a claimed refinement, and the
qubit teleportation protocol.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .effects import Povm, validate_povm
from .errors import (
    DimensionMismatch,
    InconsistentRefinement,
    NotCp,
    NotNormalized,
    NotTracePreserving,
    NotUnitary,
    RankDeficientState,
)

# Outcomes below this probability yield no posterior (0/0 in the update rule).
PROB_FLOOR = 1e-12
# Completeness tolerance for Kraus sets.
COMPLETENESS_TOL = 1e-9
UNITARY_TOL = 1e-9


def _assert_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    u = linalg.as_operator(u)
    dev = np.linalg.norm(linalg.dagger(u) @ u - np.eye(u.shape[0]))
    if dev > tol:
        raise NotUnitary(f"U^dag U deviates from I by {dev:.3e}")
    return u


@dataclass(frozen=True)
class KrausInstrument:
    """Outcome-indexed Kraus sets {A_{d,i}} with sum A^dag A = I."""

    outcomes: tuple[tuple[np.ndarray, ...], ...]

    @property
    def dim(self) -> int:
        return self.outcomes[0][0].shape[0]

    def __len__(self) -> int:
        return len(self.outcomes)

    def effect(self, d: int) -> np.ndarray:
        return sum(linalg.dagger(a) @ a for a in self.outcomes[d])

    def effects(self) -> list[np.ndarray]:
        return [self.effect(d) for d in range(len(self))]

    def povm(self) -> Povm:
        return validate_povm(self.effects())

    @property
    def efficient(self) -> bool:
        return all(len(ops) == 1 for ops in self.outcomes)


def make_instrument(outcomes: Sequence[Sequence[np.ndarray]]) -> KrausInstrument:
    """Validate Kraus completeness and wrap the operator sets."""
    packed = tuple(
        tuple(linalg.as_operator(a) for a in ops) for ops in outcomes
    )
    dim = packed[0][0].shape[0]
    total = sum(linalg.dagger(a) @ a for ops in packed for a in ops)
    dev = np.linalg.norm(total - np.eye(dim))
    if dev > COMPLETENESS_TOL:
        raise NotTracePreserving(f"sum A^dag A deviates from I by {dev:.3e}")
    inst = KrausInstrument(packed)
    inst.povm()  # per-outcome effects must individually be effects
    return inst


@dataclass(frozen=True)
class QuantumChannel:
    """Trace-preserving completely positive map given by Kraus operators."""

    kraus: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = linalg.as_operator(rho)
        return sum(a @ rho @ linalg.dagger(a) for a in self.kraus)


def make_channel(kraus: Sequence[np.ndarray]) -> QuantumChannel:
    ops = tuple(linalg.as_operator(a) for a in kraus)
    dim = ops[0].shape[0]
    dev = np.linalg.norm(sum(linalg.dagger(a) @ a for a in ops) - np.eye(dim))
    if dev > COMPLETENESS_TOL:
        raise NotTracePreserving(f"sum A^dag A deviates from I by {dev:.3e}")
    return QuantumChannel(ops)


# --------------------------------------------------------------------------
# Applying instruments.


@dataclass(frozen=True)
class OutcomeUpdate:
    """One measurement outcome: its probability and the posterior state.

    ``posterior`` is None for outcomes whose probability falls below the
    probability floor.
    """

    probability: float
    posterior: np.ndarray | None


def apply_instrument(
    state: np.ndarray, inst: KrausInstrument
) -> list[OutcomeUpdate]:
    """Per-outcome probabilities and normalized posterior states."""
    state = linalg.as_operator(state)
    if state.shape[0] != inst.dim:
        raise DimensionMismatch(
            f"state dim {state.shape[0]} vs instrument dim {inst.dim}"
        )
    results = []
    for ops in inst.outcomes:
        raw = sum(a @ state @ linalg.dagger(a) for a in ops)
        p = float(np.trace(raw).real)
        if p <= PROB_FLOOR:
            results.append(OutcomeUpdate(max(p, 0.0), None))
        else:
            results.append(OutcomeUpdate(p, raw / p))
    return results


def efficient_from_povm(
    povm: Povm, unitaries: Sequence[np.ndarray] | None = None
) -> KrausInstrument:
    """One-Kraus-per-outcome instrument A_d = U_d E_d^{1/2} for a POVM.

    Omitted unitaries default to the identity, which is the refinement-only
    (minimally readjusting) realization of the measurement.
    """
    if unitaries is not None:
        if len(unitaries) != len(povm):
            raise DimensionMismatch("need one unitary per POVM element")
        unitaries = [_assert_unitary(u) for u in unitaries]
    kraus = []
    for d, e in enumerate(povm.elements):
        root = linalg.mat_sqrt(e)
        kraus.append((unitaries[d] @ root,) if unitaries is not None else (root,))
    return make_instrument(kraus)


# --------------------------------------------------------------------------
# Refinement + readjustment factorization.


@dataclass(frozen=True)
class OutcomeFactorization:
    """Refinement and readjustment data for a single outcome."""

    probability: float
    refinement: np.ndarray | None
    readjustment: np.ndarray | None
    posterior: np.ndarray | None


@dataclass(frozen=True)
class UpdateFactorization:
    """Efficient measurement update split into Bayes-like pieces.

    The prior equals the probability-weighted mixture of the refinements,
    and each posterior is a unitary readjustment of its refinement with an
    identical spectrum.
    """

    state: np.ndarray
    outcomes: tuple[OutcomeFactorization, ...]
    support_dim: int

    def mixture_of_refinements(self) -> np.ndarray:
        return sum(
            o.probability * o.refinement
            for o in self.outcomes
            if o.refinement is not None
        )


def _eig_clusters(vals: np.ndarray, tol: float) -> list[slice]:
    """Slices grouping (descending) eigenvalues closer than ``tol``."""
    slices = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or abs(vals[i] - vals[i - 1]) > tol:
            slices.append(slice(start, i))
            start = i
    return slices


def _matching_unitary(sigma: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Deterministic unitary V with V sigma V^dag = tau for isospectral inputs.

    Eigenvectors are paired by descending eigenvalue; inside degenerate
    clusters the pairing is fixed by the polar unitary of the cross-overlap
    block, which makes V independent of the arbitrary basis LAPACK picks
    within each eigenspace.
    """
    es = linalg.eig_hermitian(sigma)
    et = linalg.eig_hermitian(tau)
    scale = max(abs(es.eigenvalues[0]), 1e-30)
    v = np.zeros_like(sigma)
    for cluster in _eig_clusters(es.eigenvalues, 1e-10 * scale):
        x = es.eigenvectors[:, cluster]
        w = et.eigenvectors[:, cluster]
        align = linalg.polar_unitary(linalg.dagger(w) @ x)
        v += w @ align @ linalg.dagger(x)
    return v


def factor_update(state: np.ndarray, inst: KrausInstrument) -> UpdateFactorization:
    """Split an efficient instrument's update into refinement + readjustment.

    For each outcome d with probability P(d) the refinement is
    ``rho^{1/2} E_d rho^{1/2} / P(d)`` and the readjustment is a unitary
    V_d carrying the refinement to the actual posterior.  Rank-deficient
    states are handled on their support: square roots become pseudo
    inverses and both refinement and posterior live inside the support, so
    every identity below still holds there.
    """
    state = linalg.as_operator(state)
    if not inst.efficient:
        raise ValueError(
            "factorization is defined for efficient (single-Kraus) instruments"
        )
    if state.shape[0] != inst.dim:
        raise DimensionMismatch("state and instrument dims differ")
    root = linalg.mat_sqrt(state)
    eigvals = np.linalg.eigvalsh(state)
    support_dim = int((eigvals > linalg.PINV_TOL * max(eigvals[-1], 0.0)).sum())
    outcomes = []
    for (a,) in inst.outcomes:
        e = linalg.dagger(a) @ a
        p = float(np.trace(state @ e).real)
        if p <= PROB_FLOOR:
            outcomes.append(OutcomeFactorization(max(p, 0.0), None, None, None))
            continue
        refinement = root @ e @ root / p
        posterior = a @ state @ linalg.dagger(a) / p
        v = _matching_unitary(refinement, posterior)
        outcomes.append(OutcomeFactorization(p, refinement, v, posterior))
    return UpdateFactorization(state, tuple(outcomes), support_dim)


def identify_measurement(
    state: np.ndarray,
    refinement: Sequence[tuple[float, np.ndarray]],
    tol: float = 1e-8,
) -> Povm:
    """Recover the POVM two agents must share to agree on a measurement.

    Given a full-rank prior and a convex refinement of it (probabilities
    and states with sum_d P(d) rho_d = rho), returns the resolution of the
    identity E_d = P(d) rho^{-1/2} rho_d rho^{-1/2}.
    """
    state = linalg.as_operator(state)
    eigvals = np.linalg.eigvalsh(state)
    if eigvals[0] < linalg.PINV_TOL * eigvals[-1]:
        raise RankDeficientState(
            "measurement identification needs a full-rank prior state"
        )
    mixture = sum(p * linalg.as_operator(r) for p, r in refinement)
    dev = float(np.linalg.norm(mixture - state))
    if dev > tol:
        raise InconsistentRefinement(
            f"claimed refinement misses the prior state by {dev:.3e}"
        )
    invroot = linalg.mat_invsqrt(state)
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

    Uses the same joint-picture convention as
    :func:`qbayes.effects.povm_from_dilation`: the joint state evolves as
    ``u rho u^dag`` and the ancilla is measured projectively, so outcome d
    applies Kraus operators
    ``A_{d,(b,a)} = sqrt(lambda_a) <b| (I x Pi_d) u |a>`` with
    ``lambda_a, |a>`` the eigenpairs of the ancilla state and the bra/ket
    contractions taken over the ancilla factor alone.
    """
    rho_ancilla = linalg.as_operator(rho_ancilla)
    u = linalg.as_operator(u)
    projs = (
        ancilla_projectors.elements
        if isinstance(ancilla_projectors, Povm)
        else tuple(ancilla_projectors)
    )
    d_anc = rho_ancilla.shape[0]
    if u.shape[0] % d_anc != 0:
        raise DimensionMismatch("unitary dim is not a multiple of the ancilla dim")
    d_sys = u.shape[0] // d_anc
    anc_vals, anc_vecs = np.linalg.eigh(rho_ancilla)
    outcomes = []
    for pi in projs:
        big = np.kron(np.eye(d_sys), pi) @ u
        tens = big.reshape(d_sys, d_anc, d_sys, d_anc)
        ops = []
        for a_idx in range(d_anc):
            lam = anc_vals[a_idx]
            if lam <= PROB_FLOOR:
                continue
            # <b| (I x Pi_d) u |a> over the ancilla factor, for every b
            ops.extend(np.sqrt(lam) * np.einsum("sbta,a->bst", tens, anc_vecs[:, a_idx]))
        outcomes.append(tuple(ops))
    return make_instrument(outcomes)


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
        raise ValueError("canonical dilation implemented for efficient instruments only")
    d_sys = inst.dim
    n_out = len(inst)
    d_tot = d_sys * n_out
    # Isometry columns: |s>|0>  ->  sum_d (A_d |s>) |d>, ancilla index fastest.
    v = np.zeros((d_tot, d_sys), dtype=complex)
    for d, (a,) in enumerate(inst.outcomes):
        v[d::n_out, :] = a
    source_cols = [s * n_out for s in range(d_sys)]
    full = np.zeros((d_tot, d_tot), dtype=complex)
    full[:, source_cols] = v
    # Left singular vectors beyond rank(v) span range(v)'s orthocomplement;
    # map the remaining computational source vectors onto them.
    u_full = np.linalg.svd(v, full_matrices=True)[0]
    rest_targets = u_full[:, d_sys:]
    rest_sources = [j for j in range(d_tot) if j not in source_cols]
    full[:, rest_sources] = rest_targets
    anc_state = np.zeros((n_out, n_out), dtype=complex)
    anc_state[0, 0] = 1.0
    anc_meas = validate_povm(
        [linalg.projector(linalg.ket(d, n_out)) for d in range(n_out)]
    )
    return anc_state, _assert_unitary(full), anc_meas


# --------------------------------------------------------------------------
# Channels and Choi operators.


def maximally_entangled_ket(dim: int) -> np.ndarray:
    v = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        v[i * dim + i] = 1.0
    return v / np.sqrt(dim)


def channel_choi(ch: QuantumChannel) -> np.ndarray:
    """Choi operator (I x Phi) applied to the maximally entangled state.

    Each Kraus operator A contributes the rank-1 piece |w><w| with
    ``w = (I x A) |psi_ME>``, whose components are A^T flattened over
    sqrt(D).
    """
    d = ch.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for a in ch.kraus:
        w = a.T.reshape(-1) / np.sqrt(d)
        out += np.outer(w, w.conj())
    return out


def choi_channel(choi: np.ndarray, psd_tol: float = 1e-9) -> QuantumChannel:
    """Recover a Kraus representation from a Choi operator.

    Raises NotCp when the Choi operator has an eigenvalue below -psd_tol,
    and NotTracePreserving when the recovered Kraus set is not complete
    (equivalently, the partial trace over the output factor is not I/D).
    """
    choi = linalg.as_operator(choi)
    d2 = choi.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise DimensionMismatch("Choi operator dimension is not a perfect square")
    vals, vecs = np.linalg.eigh((choi + linalg.dagger(choi)) / 2.0)
    if vals[0] < -psd_tol:
        raise NotCp(f"Choi operator has eigenvalue {vals[0]:.3e} < 0")
    kraus = []
    for k in range(d2):
        if vals[k] <= psd_tol:
            continue
        kraus.append(np.sqrt(d * vals[k]) * vecs[:, k].reshape(d, d).T)
    return make_channel(kraus)


def controlled_unitary_channel(
    u0: np.ndarray, u1: np.ndarray, alpha: complex, beta: complex
) -> QuantumChannel:
    """Target-bit channel of a controlled unitary with a superposed control.

    With the control prepared in alpha|0> + beta|1>, the target evolves by
    ``|alpha|^2 U_0 rho U_0^dag + |beta|^2 U_1 rho U_1^dag``.
    """
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise NotNormalized("control amplitudes must satisfy |a|^2 + |b|^2 = 1")
    u0 = _assert_unitary(u0)
    u1 = _assert_unitary(u1)
    kraus = []
    if abs(alpha) > 0.0:
        kraus.append(alpha * u0)
    if abs(beta) > 0.0:
        kraus.append(beta * u1)
    return make_channel(kraus)


@dataclass(frozen=True)
class SteeringReport:
    """Conditional channels steered onto a target by a far measurement.

    ``conditional_chois[k]`` is the Choi operator of the target channel
    given far outcome k (with probability ``far_probs[k]``);
    ``averaged_choi`` is their mixture and ``unconditional_choi`` the Choi
    of the channel obtained by never measuring the far system.  The final
    field is the no-signaling deviation between the two.
    """

    far_probs: np.ndarray
    conditional_chois: tuple[np.ndarray, ...]
    conditional_weights: tuple[np.ndarray, ...]
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
    random superposition, making runs reproducible.
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
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise NotNormalized("entangled-pair amplitudes must be normalized")
    u0 = _assert_unitary(u0)
    u1 = _assert_unitary(u1)
    # |chi> = alpha |0>_far |0>_ctrl + beta |1>_far |1>_ctrl
    chi = np.zeros(4, dtype=complex)
    chi[0] = alpha
    chi[3] = beta
    pair = np.outer(chi, chi.conj())
    probs = []
    chois = []
    weights = []
    for m in far_povm.elements:
        sub = linalg.partial_trace(np.kron(m, np.eye(2)) @ pair, (2, 2), side="A")
        p = float(np.trace(sub).real)
        probs.append(p)
        if p <= PROB_FLOOR:
            chois.append(np.zeros((4, 4), dtype=complex))
            weights.append(np.zeros(2))
            continue
        cond = sub / p
        w = np.clip(np.real(np.diag(cond)), 0.0, None)
        w = w / w.sum()
        weights.append(w)
        ch = make_channel(
            [np.sqrt(w[0]) * u0, np.sqrt(w[1]) * u1]
        )
        chois.append(channel_choi(ch))
    averaged = sum(p * c for p, c in zip(probs, chois))
    unconditional = channel_choi(
        controlled_unitary_channel(u0, u1, alpha, beta)
    )
    return SteeringReport(
        far_probs=np.array(probs),
        conditional_chois=tuple(chois),
        conditional_weights=tuple(weights),
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
class TeleportTranscript:
    """Everything both parties can say during one teleportation run."""

    input_ket: np.ndarray
    outcome_probs: np.ndarray
    outcome: int
    conditional_ket: np.ndarray
    bob_marginal_before: np.ndarray
    bob_marginal_unconditional: np.ndarray
    correction_name: str
    correction: np.ndarray
    final_state: np.ndarray
    fidelity: float
    correction_table: tuple[str, ...]


def teleport(psi: np.ndarray, outcome: int | None = None, seed=None) -> TeleportTranscript:
    """Teleport a pure qubit state through a shared maximally entangled pair.

    Alice holds the input qubit and one half of ``(|00> + |11>)/sqrt(2)``;
    she measures her two qubits in the Bell basis.  ``outcome`` forces a
    particular Bell result (otherwise one is sampled with ``seed``).  The
    transcript records the outcome distribution (uniform regardless of the
    input), Alice's conditional description of Bob's qubit, Bob's
    unconditional marginal before and after her measurement (I/2 both
    times), and the fidelity of Bob's corrected state with the input.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.shape != (2,):
        raise DimensionMismatch("teleportation input is a single-qubit ket")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalized(f"input ket has norm {norm:.9f}")
    pair = np.zeros(4, dtype=complex)
    pair[0] = pair[3] = 1.0 / np.sqrt(2.0)
    total = np.kron(psi, pair)  # qubits: input, Alice's half, Bob
    bob_before = linalg.partial_trace(
        np.outer(total, total.conj()), (4, 2), side="A"
    )
    bells = bell_kets()
    # Project Alice's two qubits onto each Bell state.
    amp = total.reshape(4, 2)
    conditional = []
    probs = []
    for b in bells:
        sub = b.conj() @ amp
        p = float(np.vdot(sub, sub).real)
        probs.append(p)
        conditional.append(sub / np.sqrt(p) if p > PROB_FLOOR else sub)
    probs = np.array(probs)
    bob_unconditional = sum(
        p * np.outer(k, k.conj()) for p, k in zip(probs, conditional)
    )
    if outcome is None:
        outcome = int(linalg.rng_from(seed).choice(4, p=probs / probs.sum()))
    if not 0 <= outcome < 4:
        raise ValueError("Bell outcome index must be in 0..3")
    name, correction = BELL_CORRECTIONS[outcome]
    final_ket = correction @ conditional[outcome]
    final_state = np.outer(final_ket, final_ket.conj())
    return TeleportTranscript(
        input_ket=psi,
        outcome_probs=probs,
        outcome=outcome,
        conditional_ket=conditional[outcome],
        bob_marginal_before=bob_before,
        bob_marginal_unconditional=bob_unconditional,
        correction_name=name,
        correction=correction,
        final_state=final_state,
        fidelity=linalg.fidelity_with_pure(psi, final_state),
        correction_table=tuple(n for n, _ in BELL_CORRECTIONS),
    )


# --------------------------------------------------------------------------
# Random instrument generator (test plumbing).


def random_instrument(
    dim: int,
    n_outcomes: int,
    kraus_per_outcome: int = 1,
    seed=None,
) -> KrausInstrument:
    """Random valid instrument over a random POVM.

    Each effect E_d is split as ``A_{d,i} = sqrt(w_i) V_{d,i} E_d^{1/2}``
    with random unitaries and random convex weights, so completeness is
    exact by construction.
    """
    g = linalg.rng_from(seed)
    povm = validate_povm(linalg.random_povm(dim, n_outcomes, g))
    outcomes = []
    for e in povm.elements:
        root = linalg.mat_sqrt(e)
        if kraus_per_outcome == 1:
            outcomes.append((linalg.random_unitary(dim, g) @ root,))
        else:
            w = g.dirichlet(np.ones(kraus_per_outcome))
            outcomes.append(
                tuple(
                    np.sqrt(wi) * linalg.random_unitary(dim, g) @ root
                    for wi in w
                )
            )
    return make_instrument(outcomes)
