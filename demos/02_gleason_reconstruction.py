"""From outcome probabilities back to the density operator.

Any assignment of probabilities to effects that is consistent across all
POVMs containing them (a frame function) is generated by a unique
Hermitian operator.  Sampling a frame on a spanning set of effects lets
us solve for that operator and predict every other measurement.
"""

import numpy as np

from qbayes import effects, linalg

rng = np.random.default_rng(7)
sqm = effects.standard_sqm(3)

# Pretend we only get the frame values, not the state.
secret = linalg.random_state(3, rng)
frame = effects.FrameFunction.from_state(secret, sqm.base.elements)
print("frame values on the 9 standard effects:")
print(np.array([v for _, v in frame.items()]).round(4))

recovered = effects.reconstruct_from_frame(frame)
print("\nreconstruction error:", np.linalg.norm(recovered - secret))

# The reconstruction predicts measurements it never saw.
for trial in range(3):
    povm = effects.validate_povm(linalg.random_povm(3, 4, rng))
    predicted = effects.born(recovered, povm)
    actual = effects.born(secret, povm)
    print(f"held-out POVM {trial}: max prediction error "
          f"{np.abs(predicted - actual).max():.2e}")

# Frame additivity under fine-graining is what makes this work: merging
# two outcomes adds their frame values exactly.
e1 = linalg.random_state(3, rng)
e1 /= np.linalg.eigvalsh(e1)[-1] * 4
e2 = np.eye(3) / 5 - e1 / 2
f1 = np.trace(secret @ e1).real
f2 = np.trace(secret @ e2).real
f12 = np.trace(secret @ (e1 + e2)).real
print("\nadditivity check |f(E1+E2) - f(E1) - f(E2)| =", abs(f12 - f1 - f2))
