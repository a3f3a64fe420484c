"""Quantum collapse = Bayesian refinement + a unitary readjustment.

For an efficient measurement the posterior splits into two conceptual
moves: pick a term out of a convex decomposition of the prior (exactly
like conditioning), then rotate it by an outcome-dependent unitary that
never changes its spectrum.
"""

import numpy as np

from qbayes import effects, linalg, update

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(23)

rho = linalg.random_state(2, rng)
povm = effects.validate_povm(linalg.random_povm(2, 3, rng))
inst = update.efficient_from_povm(
    povm, unitaries=[linalg.random_unitary(2, rng) for _ in range(3)]
)

fac = update.factor_update(rho, inst.outcomes)
mixture = np.tensordot(fac.probabilities, fac.refinements, axes=1)
print("prior:\n", rho)
print("\nprior == sum_d P(d) * refinement_d:", np.linalg.norm(mixture - rho) < 1e-10)

# The readjustment V_d is the polar factor of A_d rho^{1/2}:
# A_d rho^{1/2} / sqrt(P(d)) = V_d refinement_d^{1/2}.
outcomes = zip(inst.outcomes[:, 0], fac.probabilities, fac.refinements, fac.readjustments, fac.posteriors)
for d, (a, p, refinement, v, posterior) in enumerate(outcomes):
    print(f"\noutcome {d}: P = {p:.4f}")
    print("  refinement (the Bayes step):\n", refinement)
    print("  posterior  (after readjustment):\n", posterior)
    print("  spectra match:",
          np.allclose(np.linalg.eigvalsh(refinement), np.linalg.eigvalsh(posterior)))
    residual = np.abs(v @ linalg.mat_sqrt(refinement) - a @ linalg.mat_sqrt(rho) / np.sqrt(p)).max()
    print(f"  polar identity residual |V ref^1/2 - A rho^1/2 / sqrt(P)|: {residual:.1e}")

# Two limiting cases.  A pure state cannot be refined: measurement is
# pure disturbance.
psi = linalg.random_ket(2, rng)
pure = np.outer(psi, psi.conj())
fac_pure = update.factor_update(pure, inst.outcomes)
print("\npure prior: refinements all equal the prior?",
      all(np.linalg.norm(r - pure) < 1e-10 for r in fac_pure.refinements[fac_pure.live]))

# The maximally mixed state with a projective measurement is the other
# extreme: the update is pure refinement, no readjustment needed.
proj = effects.validate_povm([linalg.projector(linalg.ket(i, 2)) for i in range(2)])
fac_mixed = update.factor_update(np.eye(2) / 2, update.efficient_from_povm(proj).outcomes)
for d, (refinement, posterior) in enumerate(zip(fac_mixed.refinements, fac_mixed.posteriors)):
    same = np.linalg.norm(posterior - refinement) < 1e-12
    print(f"maximally mixed, outcome {d}: posterior == refinement? {same}")

# Agreeing on "which measurement happened" = agreeing on a resolution of
# the identity extracted from the refinement.
recovered = update.identify_measurement(rho, list(zip(fac.probabilities, fac.refinements)))
print("\nPOVM recovered from the refinement matches the one measured:",
      all(np.linalg.norm(a - b) < 1e-8
          for a, b in zip(recovered.elements, inst.effects())))
