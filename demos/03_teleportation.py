"""Teleportation as belief updating, not matter transport.

Alice Bell-measures her input qubit together with her half of an
entangled pair.  Each outcome updates HER description of Bob's qubit to
a fixed Pauli rotation of the input; Bob's own description never budges
from I/2 until her two classical bits arrive.
"""

import numpy as np

from qbayes import linalg, update

np.set_printoptions(precision=4, suppress=True)

psi = linalg.random_ket(2, seed=11)
print("input state:", psi.round(4))

t = update.teleport(psi)  # every Bell outcome at once
for outcome, (name, _) in enumerate(update.BELL_CORRECTIONS):
    print(f"\nBell outcome {outcome} (probability {t.outcome_probs[outcome]:.3f}), "
          f"correction {name}:")
    print("  Alice's conditional description of Bob:", t.conditional_kets[outcome].round(4))
    print("  fidelity with input after correction:", f"{t.fidelities[outcome]:.12f}")

outcome = np.random.default_rng(3).choice(4, p=t.outcome_probs / t.outcome_probs.sum())
print("\nsampled run chose outcome", outcome)
print("Bob's marginal before Alice measures:\n", t.bob_marginal_before)
print("Bob's marginal after she measures (averaged over what she might say):\n",
      t.bob_marginal_unconditional)
print("Only the broadcast changes what Bob can predict.")
