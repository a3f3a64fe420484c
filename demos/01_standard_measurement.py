"""A single fixed measurement can stand in for the quantum state itself.

Build the minimal informationally complete POVM for a few dimensions,
look at the operator G that normalizes it, and probe the ceiling on how
certain any agent can ever be about one of its outcomes.
"""

import numpy as np

from qbayes import effects, linalg, states

np.set_printoptions(precision=4, suppress=True)

# The construction starts from D^2 unit kets: the basis states, the
# pairwise (+) superpositions, and the pairwise (+i) superpositions.
kets = effects.build_ic_kets(2)
print("seed kets for a qubit (one per row):\n", kets)

# The sum G of their projectors is positive definite; the kets G^(-1/2) v
# give rank-1 elements that sum to the identity.  The dimension alone fixes
# them, and their dual frame follows in closed form from the seed kets.
sqm = effects.standard_sqm(2)
print("G =\n", sqm.gram)
print("eigenvalues of G:", np.linalg.eigvalsh(sqm.gram))
print("sum of elements == I:",
      np.linalg.norm(sum(sqm.base.elements) - np.eye(2)) < 1e-12)

# Because the four effects span operator space, the four outcome
# probabilities ARE the state.  A state is a probability assignment.
rho = linalg.random_state(2, seed=42)
v = states.to_sqm(rho, sqm)
print("\nrandom state:\n", rho)
print("its four standard-measurement probabilities:", v.probs)
print("recovered from the probabilities alone:\n", states.from_sqm(v).round(6))

# Not every probability vector is achievable.  No state can push one
# outcome probability to 1; the ceiling has a closed form.
for d in (2, 3, 4, 10):
    bound = effects.certainty_bound(d)
    print(f"\nD={d}: max achievable outcome probability = {bound:.7f}")

# Each element's own ceiling is its trace, the one nonzero eigenvalue of
# the rank-1 element.
print("\nper-element ceilings at D=2:", sqm.max_probability)
print("one-hot vector achievable?",
      states.in_sqm_set(np.array([1.0, 0, 0, 0]), sqm).member)
print("flat vector achievable?",
      states.in_sqm_set(np.full(4, 0.25), sqm).member)
