"""How much can a measurement be expected to teach you?

The von Neumann entropy is the best-case outcome entropy over all
orthonormal-basis measurements; the mean over Haar-random bases exceeds
it by a dimension constant plus the subentropy, a small spectral
functional capped near 0.61 bits.  Efficient measurements never increase
either functional in expectation.
"""

import numpy as np

from qbayes import effects, entropy, linalg, update

rng = np.random.default_rng(31)

rho = linalg.random_state(3, rng)
print("spectrum:", np.sort(np.linalg.eigvalsh(rho))[::-1].round(4))
print("von Neumann entropy (best case): ", f"{entropy.von_neumann(rho):.4f} bits")
print("mean entropy over random bases:  ", f"{entropy.mean_entropy(rho):.4f} bits")
print("subentropy:                      ", f"{entropy.subentropy(rho):.4f} bits")

mc, se = entropy.mean_entropy_mc(rho, 50000, seed=5)
print(f"Monte-Carlo check: {mc:.6f} +- {se:.1e} bits")

# Even with maximal knowledge (a pure state) a typical measurement stays
# almost maximally unpredictable.
psi = linalg.random_ket(3, rng)
pure = np.outer(psi, psi.conj())
print(f"\npure state, D=3: mean entropy {entropy.mean_entropy(pure):.4f} bits "
      f"of log2(3) = {np.log2(3):.4f} possible")

# The subentropy never exceeds (1 - Euler gamma)/ln 2 in any dimension.
worst = max(
    entropy.subentropy(linalg.random_state(int(rng.integers(2, 6)), rng))
    for _ in range(2000)
)
print(f"\nlargest subentropy over 2000 random states: {worst:.5f} bits "
      f"(cap {entropy.SUBENTROPY_CAP:.5f})")

# Refinement inequalities: measuring can only be expected to help.
report = entropy.check_refinement_inequalities(trials=500, dim=2, seed=8)
print("\nminimum entropy decrease over 500 random measurements:")
print("  von Neumann:", report.von_neumann_gaps.min())
print("  subentropy: ", report.subentropy_gaps.min())
print("  classical:  ", report.classical_gaps.min())

# A projective measurement on the maximally mixed qubit gains exactly
# one bit.
proj = update.efficient_from_povm(
    effects.validate_povm([linalg.projector(linalg.ket(i, 2)) for i in range(2)])
)
s_gap, q_gap = entropy.refinement_gap(np.eye(2) / 2, proj)
print(f"\nprojective measurement on I/2: entropy drop = {s_gap:.6f} bits")
