"""Time the library's layers per call and print the medians as JSON.

Each layer is one library call on a seeded input, timed with ``timeit``:
``--repeat`` rounds of ``--number`` calls each, reported as the median round
divided by ``--number``, in microseconds.  The layers, at every dimension of
``--dims``:

    to_sqm              states.to_sqm(rho) on the standard SQM
    from_sqm            states.from_sqm(v), v = to_sqm(rho)
    in_sqm_set.member   states.in_sqm_set(v.probs)
    in_sqm_set.reject   states.in_sqm_set(probe), one entry past the certainty bound
    frame.from_state    effects.FrameFunction.from_state(rho, sqm.base.elements)
    frame.plain         effects.FrameFunction.from_state(rho, plain), plain a
                        random POVM stack of 2 dim^2 effects
    frame.reconstruct   effects.reconstruct_from_frame(frame) on that frame
    born                effects.born(rho, sqm.base)
    born.stack          effects.born(states, sqm.base) on a stack of STACK_STATES states
    sqm.build           effects.gram_renormalize(dim).dual: one build and its
                        closed-form dual, past standard_sqm's cache
    factor_update       update.factor_update(rho, kraus), kraus a random efficient
                        instrument of FACTOR_OUTCOMES outcomes
    factor_update.stack update.factor_update on FACTOR_STATES states, each with
                        its own FACTOR_OUTCOMES-outcome instrument
    subentropy          entropy.subentropy(rho)
    subentropy.stack    entropy.subentropy(states), the born.stack states
    merging_experiment  definetti.merging_experiment: one MERGE_OUTCOMES-outcome
                        run from rho through the SQM, with a uniform and a
                        purity-skewed prior over MERGE_PRIOR random states

plus ``reconstruct_joint_operator`` of a 3 x 3 joint state, reported under
the key "3x3".  Every standard SQM is built, and every call made once, before
timing.  The script prints one JSON object: per layer and dimension the
median microseconds per call.  Every input is drawn from one generator seeded
with ``SEED``.  Run it with one BLAS thread to keep threading noise out of the
per-call times:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/layer_times.py --dims 2 4 8
"""

import argparse
import json
import statistics
import sys
import timeit

import numpy as np

from qbayes import cli, definetti, effects, entropy, linalg, locality, states, update

JOINT_DIMS = (3, 3)
SEED = 1
STACK_STATES = 1000
FACTOR_OUTCOMES = 4
FACTOR_STATES = 100
MERGE_OUTCOMES = 2000
MERGE_PRIOR = 200


def layer_calls(dim: int) -> dict:
    """Name -> zero-argument call of each layer at ``dim`` on seeded inputs."""
    g = np.random.default_rng(SEED)
    sqm = effects.standard_sqm(dim)
    rho = linalg.random_state(dim, g)
    v = states.to_sqm(rho, sqm)
    probe = 0.1 * v.probs
    probe[g.integers(dim * dim)] += 0.9  # past the certainty bound, which is below 0.9
    many = linalg.state_from_normals(g.normal(size=(STACK_STATES, 2, dim, dim)))
    plain = linalg.povm_from_normals(g.normal(size=(2 * dim * dim, 2, dim, dim)))
    # Drawn after the inputs above, which stay those of the layers listed before them.
    kraus = update.kraus_from_normals(g.normal(size=(2, FACTOR_OUTCOMES, 2, dim, dim)))
    kraus_many = update.kraus_from_normals(g.normal(size=(FACTOR_STATES, 2, FACTOR_OUTCOMES, 2, dim, dim)))
    factor_states = linalg.state_from_normals(g.normal(size=(FACTOR_STATES, 2, dim, dim)))
    support = linalg.state_from_normals(g.normal(size=(MERGE_PRIOR, 2, dim, dim)))
    uniform = definetti.make_prior(support)
    skewed = definetti.make_prior(support, definetti.center_skewed_weights(support))
    frame = effects.FrameFunction.from_state(rho, sqm.base.elements)
    return {
        "to_sqm": lambda: states.to_sqm(rho),
        "from_sqm": lambda: states.from_sqm(v),
        "in_sqm_set.member": lambda: states.in_sqm_set(v.probs),
        "in_sqm_set.reject": lambda: states.in_sqm_set(probe),
        "frame.from_state": lambda: effects.FrameFunction.from_state(rho, sqm.base.elements),
        "frame.plain": lambda: effects.FrameFunction.from_state(rho, plain),
        "frame.reconstruct": lambda: effects.reconstruct_from_frame(frame),
        "born": lambda: effects.born(rho, sqm.base),
        "born.stack": lambda: effects.born(many, sqm.base),
        "sqm.build": lambda: effects.gram_renormalize(dim).dual,
        "factor_update": lambda: update.factor_update(rho, kraus),
        "factor_update.stack": lambda: update.factor_update(factor_states, kraus_many),
        "subentropy": lambda: entropy.subentropy(rho),
        "subentropy.stack": lambda: entropy.subentropy(many),
        "merging_experiment": lambda: definetti.merging_experiment(
            uniform, skewed, rho, sqm.base, MERGE_OUTCOMES, SEED
        ),
    }


def joint_call():
    rho_joint = linalg.random_state(JOINT_DIMS[0] * JOINT_DIMS[1], np.random.default_rng(SEED))
    return lambda: locality.reconstruct_joint_operator(
        locality.BilinearFrame.from_state(rho_joint, JOINT_DIMS)
    )


def time_layers(dims, number: int, repeat: int) -> dict:
    calls = [(str(dim), layer_calls(dim)) for dim in dims]
    calls.append(("x".join(map(str, JOINT_DIMS)), {"reconstruct_joint_operator": joint_call()}))
    medians = {}
    for key, by_name in calls:
        for name, call in by_name.items():
            call()  # builds, imports and caches outside the timed rounds
            rounds = timeit.Timer(call).repeat(repeat=repeat, number=number)
            medians.setdefault(name, {})[key] = 1e6 * statistics.median(rounds) / number
    return {"dims": list(dims), "number": number, "repeat": repeat, "median_us": medians}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs="+", default=(2, 4, 8))
    parser.add_argument("--number", type=int, default=100)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    if args.number < 1 or args.repeat < 1:
        parser.error("--number and --repeat must be at least 1")
    if not all(2 <= d <= cli.MAX_DIM for d in args.dims):
        parser.error(f"--dims must lie between 2 and {cli.MAX_DIM}")
    print(json.dumps(time_layers(args.dims, args.number, args.repeat), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
