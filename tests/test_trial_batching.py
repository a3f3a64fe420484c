"""Trial-batched samplers, factorization and CLI sections.

Each sampler is one draw of raw normals plus a stack-capable build, and every
section draws all its trials in a few calls and evaluates them as stacks.  The
samplers' references are copies of the per-call samplers they replaced, which
must make the same generator calls in the same order and agree bitwise.  The
sections' references draw the same arrays from the same generator, use only
each trial's own entries (never the zero padding), and evaluate the trials one
by one with the per-call library functions.
"""

from dataclasses import fields

import numpy as np
import pytest

from helpers import (
    assert_matches_reference,
    random_basis_probabilities,
    random_effect,
    random_instrument,
    reference_factorization,
    shannon,
)
from qbayes import cli, definetti, effects, entropy, linalg, locality, update
from qbayes.errors import DimensionMismatch, NotAState, NotNormalized, NotTracePreserving

# --------------------------------------------------------------------------
# Per-call references: the samplers as they were before the draw/build split.


def old_random_ket(dim, g):
    v = g.normal(size=dim) + 1j * g.normal(size=dim)
    return v / np.linalg.norm(v)


def old_random_unitary(dim, g):
    z = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def old_random_state(dim, g, rank=None):
    r = dim if rank is None else rank
    z = g.normal(size=(dim, r)) + 1j * g.normal(size=(dim, r))
    m = z @ linalg.dagger(z)
    return m / np.trace(m).real


def old_mat_invsqrt(m):
    vals, vecs = linalg.eig_hermitian(m)
    inv = np.zeros_like(vals)
    keep = vals > linalg.RANK_TOL * max(vals[0], 0.0)
    inv[keep] = 1.0 / np.sqrt(vals[keep])
    return (vecs * inv) @ linalg.dagger(vecs)


def old_random_povm(dim, n, g):
    x = g.normal(size=(n, 2, dim, dim))
    z = x[:, 0] + 1j * x[:, 1]
    parts = z @ linalg.dagger(z)
    w = old_mat_invsqrt(parts.sum(axis=0))
    return list(w @ parts @ w)


def old_random_kraus(dim, n, g):
    """Kraus operators of the one-per-outcome random instrument, stacked."""
    roots = linalg.mat_sqrt(np.stack(old_random_povm(dim, n, g)))
    return np.stack([old_random_unitary(dim, g) @ root for root in roots])


def section_rng(section, seed):
    """The generator that the CLI gives ``section`` at ``seed``."""
    return np.random.default_rng([seed, cli._COMMANDS[section][3]])


def assert_same_stream(g_new, g_old):
    assert g_new.bit_generator.state == g_old.bit_generator.state
    assert g_new.normal() == g_old.normal()


SAMPLERS = [
    ("ket", lambda d, g: linalg.random_ket(d, g), old_random_ket),
    ("unitary", lambda d, g: linalg.random_unitary(d, g), old_random_unitary),
    ("state", lambda d, g: linalg.random_state(d, g), old_random_state),
    (
        "rank-1 state",
        lambda d, g: linalg.random_state(d, g, rank=1),
        lambda d, g: old_random_state(d, g, rank=1),
    ),
    (
        "povm",
        lambda d, g: np.stack(linalg.random_povm(d, d + 1, g)),
        lambda d, g: np.stack(old_random_povm(d, d + 1, g)),
    ),
    (
        "instrument",
        lambda d, g: np.stack([a for (a,) in random_instrument(d, d, 1, g).outcomes]),
        lambda d, g: old_random_kraus(d, d, g),
    ),
]


@pytest.mark.parametrize("name, new, old", SAMPLERS, ids=[s[0] for s in SAMPLERS])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sampler_is_bitwise_the_per_call_sampler(name, new, old, d):
    for seed in range(50):
        g_new, g_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got, expected = new(d, g_new), old(d, g_old)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert_same_stream(g_new, g_old)


def test_builds_take_a_stack_of_draws():
    g = np.random.default_rng(3)
    x = g.normal(size=(6, 2, 3, 3))
    stacked = linalg.unitary_from_normals(x.reshape(2, 3, 2, 3, 3)).reshape(6, 3, 3)
    for xi, u in zip(x, stacked):
        assert u.tobytes() == linalg.unitary_from_normals(xi).tobytes()
    x = g.normal(size=(5, 2, 3, 2, 3, 3))
    kraus = update.kraus_from_normals(x)
    for xi, k in zip(x, kraus):
        assert np.abs(k - update.kraus_from_normals(xi)).max() <= 1e-15


def test_zero_padded_outcomes_get_zero_operators():
    g = np.random.default_rng(4)
    x = np.zeros((2, 4, 2, 3, 3))
    x[:, :2] = g.normal(size=(2, 2, 2, 3, 3))
    padded = update.kraus_from_normals(x)
    assert not padded[2:].any()
    assert np.abs(padded[:2] - update.kraus_from_normals(x[:, :2])).max() <= 1e-15


def test_incomplete_instrument_stack_raises():
    kraus = update.kraus_from_normals(np.random.default_rng(5).normal(size=(3, 2, 2, 2, 2, 2)))
    with pytest.raises(NotTracePreserving):
        update._check_complete(kraus * np.array([1.0, 1.0, 1.01])[:, None, None, None, None])


# --------------------------------------------------------------------------
# Stacked factorization.


def assert_row_of_stack(single, stacked, n):
    """Each field of a one-input result is bitwise row n of the stacked result."""
    for f in fields(stacked):
        one, row = getattr(single, f.name), getattr(stacked, f.name)[n]
        assert one.shape == row.shape and one.tobytes() == row.tobytes(), f.name


def factorization_inputs(d, g):
    """States and Kraus stacks (3 outcomes each): full rank, rank deficient,
    pure, and a basis state under a projective instrument (a dead outcome)."""
    states, kraus = [], []
    for rank in (d, d - 1, 1, 1):
        states.append(linalg.random_state(d, g, rank=rank))
        kraus.append(update.kraus_from_normals(g.normal(size=(2, 3, 2, d, d))))
    basis = np.zeros((d, d), dtype=complex)
    basis[0, 0] = 1.0
    first, second = np.diag(np.eye(d)[0]), np.diag(np.eye(d)[1])
    rest = np.eye(d) - first - second
    projective = [linalg.random_unitary(d, g) @ p for p in (first, second, rest)]
    states.append(basis)
    kraus.append(np.stack(projective).astype(complex)[:, None])
    return np.stack(states), np.stack(kraus)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacked_factorization_matches_per_state(d):
    for seed in range(10):
        states, kraus = factorization_inputs(d, np.random.default_rng(100 * d + seed))
        fac = update.factor_update(states, kraus)
        assert not fac.live[-1, 1:].any() and fac.live[:-1].all()
        for n, (state, ops) in enumerate(zip(states, kraus)):
            single = update.factor_update(state, ops)
            assert_row_of_stack(single, fac, n)
            assert_matches_reference(single, state, ops)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_refinements_are_bitwise_the_factorization_refinements(d):
    for seed in range(5):
        states, kraus = factorization_inputs(d, np.random.default_rng(300 * d + seed))
        probs, live, refs = update.refinements(states, kraus)
        full = update.factor_update(states, kraus)
        assert np.array_equal(probs, full.probabilities) and np.array_equal(live, full.live)
        assert np.array_equal(refs, full.refinements[live])


# --------------------------------------------------------------------------
# Refinement inequalities.


def per_trial_refinement_gaps(trials, dim, seed):
    """The sweep's draws as a per-trial loop over the per-call functions."""
    g = linalg.rng_from(seed)
    k, h, d = g.integers(2, 6, size=(3, trials))
    x_state = g.normal(size=(trials, 2, dim, dim))
    x_inst = g.normal(size=(trials, 2, 5, 2, dim, dim))
    tables = g.random((trials, 5, 5))
    out = np.empty((3, trials))
    for t in range(trials):
        rho = linalg.state_from_normals(x_state[t])
        kraus = update.kraus_from_normals(x_inst[t, :, : k[t]])[:, 0]
        raw = kraus @ rho @ linalg.dagger(kraus)
        probs = np.trace(raw, axis1=1, axis2=2).real
        live = probs > linalg.PROB_FLOOR
        posts = raw[live] / probs[live][:, None, None]
        out[0, t] = entropy.von_neumann(rho) - probs[live] @ entropy.von_neumann(posts)
        out[1, t] = entropy.subentropy(rho) - probs[live] @ entropy.subentropy(posts)
        joint = tables[t, : h[t], : d[t]]
        out[2, t] = entropy._classical_gaps((joint / joint.sum())[None])[0]
    return out


@pytest.mark.parametrize(
    "seed, trials, dim",
    [(7, 300, 2), (8, 200, 3), (55, 1000, 2)] + [(900 + i, 30, 2 + i % 4) for i in range(20)],
)
def test_refinement_sweep_matches_per_trial_loop(seed, trials, dim):
    gaps = entropy.check_refinement_inequalities(trials=trials, dim=dim, seed=seed)
    expected = per_trial_refinement_gaps(trials, dim, seed)
    got = np.stack([gaps.von_neumann_gaps, gaps.subentropy_gaps, gaps.classical_gaps])
    assert np.abs(got - expected).max() <= 1e-12


# --------------------------------------------------------------------------
# CLI sections against their per-trial loops.


def per_trial_update_factor(dim, trials, seed):
    g = section_rng("update-factor", seed)
    k = g.integers(2, 5, size=trials)
    x_state = g.normal(size=(trials, 2, dim, dim))
    x_inst = g.normal(size=(trials, 2, 4, 2, dim, dim))
    x_ket = g.normal(size=(trials, 2, dim))
    mix_dev = spec_dev = readj_dev = pure_dev = 0.0
    for t in range(trials):
        rho = linalg.state_from_normals(x_state[t])
        kraus = update.kraus_from_normals(x_inst[t, :, : k[t]])
        live = [f for f in reference_factorization(rho, kraus) if f[1] is not None]
        mix_dev = max(mix_dev, np.linalg.norm(sum(p * r for p, r, _, _ in live) - rho))
        for _, ref, v, post in live:
            spec = np.abs(np.linalg.eigvalsh(ref) - np.linalg.eigvalsh(post)).max()
            spec_dev = max(spec_dev, spec)
            readj_dev = max(readj_dev, np.linalg.norm(v @ ref @ linalg.dagger(v) - post))
        psi = linalg.ket_from_normals(x_ket[t])
        pure = np.outer(psi, psi.conj())
        for f in reference_factorization(pure, kraus):
            if f[1] is not None:
                pure_dev = max(pure_dev, np.linalg.norm(f[1] - pure))
    return [mix_dev, spec_dev, readj_dev, pure_dev]


def per_trial_entropy_sweep(dim, trials, seed):
    g = section_rng("entropy-sweep", seed)
    q_half = entropy.subentropy(np.eye(2) / 2.0)
    mean_half = entropy.mean_entropy(np.eye(2) / 2.0)
    d = g.integers(2, 6, size=trials)
    x = g.normal(size=(trials, 2, 5, 5))
    cap = max(entropy.subentropy(linalg.state_from_normals(x[t, :, : d[t], : d[t]])) for t in range(trials))
    chi2 = 0.0
    for x_rho in g.normal(size=(5, 2, dim, dim)):
        rho = linalg.state_from_normals(x_rho)
        mc, se = entropy.mean_entropy_mc(rho, 20000, g)
        chi2 += ((mc - entropy.mean_entropy(rho)) / se) ** 2
    gaps = per_trial_refinement_gaps(trials, dim, g)
    return [
        abs(q_half - (1 - 1 / (2 * np.log(2)))),
        abs(mean_half - 1.0),
        cap - entropy.SUBENTROPY_CAP,
        chi2,
        *gaps.min(axis=1),
    ]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "section, reference",
    [("update-factor", per_trial_update_factor), ("entropy-sweep", per_trial_entropy_sweep)],
)
def test_section_matches_per_trial_loop(section, reference, dim, seed):
    code, report = cli.run([section, "--dim", str(dim), "--seed", str(seed), "--trials", "100"])
    assert code == 0
    got = [c["value"] for c in report["checks"]]
    assert np.abs(np.subtract(got, reference(dim, 100, seed))).max() <= 1e-12


def test_update_factor_section_eigendecomposes_whole_stacks(monkeypatch):
    calls = []
    eig_hermitian = linalg.eig_hermitian

    def counting(m):
        calls.append(np.shape(m))
        return eig_hermitian(m)

    monkeypatch.setattr(linalg, "eig_hermitian", counting)
    code, _ = cli.run(["update-factor", "--trials", "100"])
    assert code == 0
    assert len(calls) <= 20


def test_update_factor_section_factors_only_the_mixed_states(monkeypatch):
    calls = []
    factor_update = update.factor_update
    monkeypatch.setattr(update, "factor_update", lambda *a: calls.append(a) or factor_update(*a))
    code, _ = cli.run(["update-factor", "--dim", "3", "--trials", "100"])
    assert code == 0 and len(calls) == 1


def test_update_factor_chunks_do_not_change_values(monkeypatch):
    argv = ["update-factor", "--dim", "3", "--seed", "4", "--trials", "50"]
    whole = [c["value"] for c in cli.run(argv)[1]["checks"]]
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", 7 * 2 * 4 * 2 * 9 * 8)  # 7 trials per chunk
    assert [c["value"] for c in cli.run(argv)[1]["checks"]] == whole


# --------------------------------------------------------------------------
# Classical refinement gaps.


def test_padded_classical_gaps_match_each_table():
    g = np.random.default_rng(12)
    joints, expected = np.zeros((40, 5, 5)), []
    for t in range(40):
        h, d = g.integers(2, 6, size=2)
        joint = g.random((h, d))
        joint[:, g.integers(d)] *= t % 2  # every other table has an unseen datum
        joint /= joint.sum()
        joints[t, :h, :d] = joint
        pd = joint.sum(axis=0)
        seen = pd > 0
        conditional = [shannon(col / p) for col, p in zip(joint[:, seen].T, pd[seen])]
        expected.append(shannon(joint.sum(axis=1)) - pd[seen] @ conditional)
    assert np.abs(entropy._classical_gaps(joints) - expected).max() <= 1e-14


def test_classical_gaps_check_every_table():
    joints = np.full((3, 2, 2), 0.25)
    joints[2, 0, 0] = 0.5
    with pytest.raises(ValueError, match="sum to 1.25"):
        entropy._classical_gaps(joints)
    joints[2, 0, 0], joints[1, 0, 0] = 0.25, -0.1
    with pytest.raises(ValueError, match="negative probability"):
        entropy._classical_gaps(joints)


# --------------------------------------------------------------------------
# Trees, effects and teleportation as stacks.


def tree_draws(d_first, d_branch, n, g):
    """The draws of ``locality._draw_trees`` without the padding: outcome counts
    (n, 6), the first POVM's then each branch's, and the full normal arrays."""
    k = g.integers(2, 6, size=(n, 6))
    return k, g.normal(size=(n, 5, 2, d_first, d_first)), g.normal(size=(n, 5, 5, 2, d_branch, d_branch))


def per_povm_tree(direction, k, x_first, x_branch):
    """One tree from its draws, each POVM built alone from its own normals."""
    first = effects.Povm(linalg.povm_from_normals(x_first[: k[0]]))
    branches = (effects.Povm(linalg.povm_from_normals(x_branch[i, : k[1 + i]])) for i in range(k[0]))
    return locality.PovmTree(direction, first, tuple(branches))


def per_povm_random_tree(dim_a, dim_b, g, direction=None):
    if direction is None:
        direction = "AtoB" if g.integers(2) == 0 else "BtoA"
    dims = (dim_a, dim_b) if direction == "AtoB" else (dim_b, dim_a)
    return per_povm_tree(direction, *(x[0] for x in tree_draws(*dims, 1, g)))


def old_random_effect(dim, g):
    z = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    m = z @ linalg.dagger(z)
    return m / (np.linalg.eigvalsh(m)[-1] + g.random())


def old_teleport(psi, outcome):
    """The per-ket protocol: (probs, Bob before, Bob unconditional, conditional
    ket, final state, fidelity) at one outcome."""
    pair = np.zeros(4, dtype=complex)
    pair[0] = pair[3] = 1.0 / np.sqrt(2.0)
    total = np.kron(psi, pair)
    before = linalg.trace_out_factor(np.outer(total, total.conj()), (4, 2), 0)
    subs = np.conj(update.bell_kets()) @ total.reshape(4, 2)
    probs = (subs.conj() * subs).real.sum(axis=1)
    conditional = [s / np.sqrt(p) if p > linalg.PROB_FLOOR else s for s, p in zip(subs, probs)]
    unconditional = sum(p * np.outer(k, k.conj()) for p, k in zip(probs, conditional))
    final_ket = update.BELL_CORRECTIONS[outcome][1] @ conditional[outcome]
    final = np.outer(final_ket, final_ket.conj())
    return probs, before, unconditional, conditional[outcome], final, float(np.real(psi.conj() @ final @ psi))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("direction", [None, "AtoB", "BtoA"])
def test_random_tree_is_bitwise_the_per_povm_sampler(dims, direction):
    for seed in range(30):
        g_new, g_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = locality.random_tree(*dims, g_new, direction=direction)
        expected = per_povm_random_tree(*dims, g_old, direction=direction)
        assert got.direction == expected.direction
        for new, old in zip((got.first, *got.branches), (expected.first, *expected.branches), strict=True):
            assert len(new) == len(old)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(new, old))
        assert_same_stream(g_new, g_old)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_effect_is_bitwise_the_per_call_sampler(d):
    for seed in range(50):
        g_new, g_old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_effect(d, g_new).tobytes() == old_random_effect(d, g_old).tobytes()
        assert_same_stream(g_new, g_old)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 2)])
def test_batched_tree_totals_match_tree_total(dims):
    frame = locality.BilinearFrame.from_state(linalg.random_state(dims[0] * dims[1], 3), dims)
    g_new, g_old = np.random.default_rng(5), np.random.default_rng(5)
    for way, tree_dims in (("AtoB", dims), ("BtoA", dims[::-1])):
        totals = locality._tree_totals(frame, np.full(30, way), *locality._draw_trees(*tree_dims, 30, g_new))
        trees = (per_povm_tree(way, *x) for x in zip(*tree_draws(*tree_dims, 30, g_old)))
        expected = [locality.tree_total(frame, tree) for tree in trees]
        assert np.abs(totals - expected).max() <= 1e-12
    assert_same_stream(g_new, g_old)


def test_swap_counterexample_with_one_tree():
    rep = locality.swap_counterexample(3, n_trees=1, seed=2)
    assert rep.max_tree_deviation <= 1e-12 and rep.min_frame_value >= 0.0


def test_operator_frame_pairs_match_the_table(rng):
    frame = locality.BilinearFrame.from_state(linalg.random_state(6, rng), (2, 3))
    es = np.stack([random_effect(2, rng) for _ in range(4)])
    fs = np.stack([random_effect(3, rng) for _ in range(5)])
    assert np.abs(frame(es[:, None], fs[None]) - frame.table(es, fs)).max() <= 1e-15
    assert isinstance(frame(es[0], fs[0]), float)


def test_stacked_joint_reconstruction_matches_each_state(rng):
    rho = np.stack([linalg.random_state(6, rng) for _ in range(5)])
    frame = locality.BilinearFrame.from_state(rho, (2, 3))
    stacked = locality.reconstruct_joint_operator(frame)
    for r, rec in zip(rho, stacked):
        single = locality.reconstruct_joint_operator(locality.BilinearFrame.from_state(r, (2, 3)))
        assert rec.tobytes() == single.tobytes()
    with pytest.raises(DimensionMismatch):
        frame(np.eye(2), np.eye(3))


def test_stacked_teleport_matches_single_ket_transcripts(rng):
    psis = np.stack([linalg.random_ket(2, rng) for _ in range(20)] + [np.array([1.0, 0.0])])
    stacked = update.teleport(psis)
    probs, conditional, before, unconditional, final, fidelity = (getattr(stacked, f.name) for f in fields(stacked))
    for n, psi in enumerate(psis):
        assert_row_of_stack(update.teleport(psi), stacked, n)
        for outcome in range(4):
            reference = old_teleport(psi, outcome)
            for got, old in zip((probs[n], before[n], unconditional[n]), reference[:3]):
                assert np.abs(got - old).max() <= 1e-15
            assert np.abs(conditional[n, outcome] - reference[3]).max() <= 1e-15
            assert np.abs(final[n, outcome] - reference[4]).max() <= 1e-15
            assert abs(fidelity[n, outcome] - reference[5]) <= 1e-15


def test_stacked_teleport_names_an_unnormalized_ket():
    psis = np.array([[1.0, 0.0], [0.6, 0.8], [1.0, 1.0]])
    with pytest.raises(NotNormalized, match="1.414213562"):
        update.teleport(psis)


# --------------------------------------------------------------------------
# The five sections batched here, against their per-trial loops.


def per_trial_gleason_roundtrip(dim, trials, seed):
    g = section_rng("gleason-roundtrip", seed)
    sqm = effects.standard_sqm(dim)
    k = g.integers(2, 6, size=(trials, 5))
    x_state = g.normal(size=(trials, 2, dim, dim))
    x_held = g.normal(size=(trials, 5, 5, 2, dim, dim))
    worst_rt = worst_held = 0.0
    for t in range(trials):
        rho = linalg.state_from_normals(x_state[t])
        rec = effects.reconstruct_from_frame(effects.FrameFunction.from_state(rho, sqm.base.elements))
        worst_rt = max(worst_rt, linalg.trace_distance(rec, rho))
        for j in range(5):
            held = effects.Povm(linalg.povm_from_normals(x_held[t, j, : k[t, j]]))
            worst_held = max(worst_held, np.abs(effects.born(rec, held) - effects.born(rho, held)).max())
    return [worst_rt, worst_held]


def per_trial_certainty_bound(dim, trials, seed):
    g = section_rng("certainty-bound", seed)
    gaps = [
        effects.certainty_bound(d) - 1.0 / np.linalg.eigvalsh(effects.standard_sqm(d).gram)[0]
        for d in range(2, 11)
    ]
    bound = effects.certainty_bound(dim)
    sqm = effects.standard_sqm(dim)
    x = g.normal(size=(trials, 2, dim, dim))
    exceed = max(effects.born(linalg.state_from_normals(xt), sqm.base).max() - bound for xt in x)
    return [bound, np.abs(gaps).max(), exceed, abs(10 * effects.certainty_bound(10) * 0.79 - 1.0)]


def per_trial_teleport(dim, trials, seed):
    g = section_rng("teleport", seed)
    fid_err = marg_dev = prob_dev = 0.0
    for x in g.normal(size=(trials, 2, 2)):
        psi = linalg.ket_from_normals(x)
        for outcome in range(4):
            probs, before, unconditional, _, _, fidelity = old_teleport(psi, outcome)
            fid_err = max(fid_err, abs(fidelity - 1.0))
            marg_dev = max(marg_dev, np.abs(before - np.eye(2) / 2).max(), np.abs(unconditional - np.eye(2) / 2).max())
            prob_dev = max(prob_dev, np.abs(probs - 0.25).max())
    return [fid_err, marg_dev, prob_dev]


def per_trial_locality_reconstruct(dim, trials, seed):
    g = section_rng("locality-reconstruct", seed)
    worst = []
    for dims in ((2, 2), (2, 3)):
        w = 0.0
        for x in g.normal(size=(trials, 2, dims[0] * dims[1], dims[0] * dims[1])):
            rho = linalg.state_from_normals(x)
            rec = locality.reconstruct_joint_operator(locality.BilinearFrame.from_state(rho, dims))
            w = max(w, linalg.trace_distance(rec, rho))
        worst.append(w)
    analysis = locality.real_span_analysis(2, 2)
    yy = linalg.tensor(linalg.sigma_y, linalg.sigma_y)
    overlap = max(
        abs(linalg.hs_inner(n, yy).real) / (np.linalg.norm(n) * np.linalg.norm(yy))
        for n in analysis.null_directions
    )
    domino_dev = np.linalg.norm(sum(locality.domino_fixture().elements) - np.eye(9))
    return [*worst, abs(analysis.numeric_rank - analysis.product_span_dim), overlap, domino_dev]


def per_trial_swap_counterexample(dim, trials, seed):
    g = section_rng("swap-counterexample", seed)
    frame = locality.BilinearFrame.from_swap(dim)
    x, u = g.normal(size=(2, 200, 2, dim, dim)), g.random((2, 200))
    pairs = (locality._effects_from_draws(x[:, i], u[:, i]) for i in range(200))
    min_val = min(frame.table([e], [f])[0, 0] for e, f in pairs)
    ways = np.where(g.integers(2, size=trials) == 0, "AtoB", "BtoA")
    trees = (per_povm_tree(way, *draws) for way, *draws in zip(ways, *tree_draws(dim, dim, trials, g)))
    max_dev = max(abs(locality.tree_total(frame, tree) - 1.0) for tree in trees)
    joint = locality.reconstruct_joint_operator(frame)
    return [max_dev, min_val, np.linalg.eigvalsh(joint)[0]]


PER_TRIAL_SECTIONS = [
    ("gleason-roundtrip", per_trial_gleason_roundtrip),
    ("certainty-bound", per_trial_certainty_bound),
    ("teleport", per_trial_teleport),
    ("locality-reconstruct", per_trial_locality_reconstruct),
    ("swap-counterexample", per_trial_swap_counterexample),
]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("section, reference", PER_TRIAL_SECTIONS, ids=[s for s, _ in PER_TRIAL_SECTIONS])
def test_batched_section_matches_per_trial_loop(section, reference, dim):
    trials = cli._COMMANDS[section][1]
    for seed in range(1, 21):
        _, report = cli.run([section, "--dim", str(dim), "--seed", str(seed), "--trials", str(trials)])
        expected = reference(dim, trials, seed)
        assert len(expected) == len(report["checks"])
        for check, value in zip(report["checks"], expected):
            assert abs(check["value"] - value) <= 1e-12, (seed, check["name"])
            assert check["pass"] == cli._OPS[check["op"]](value, check["threshold"])


def test_gleason_section_reconstructs_every_trial_in_one_call(monkeypatch):
    shapes = []
    reconstruct = effects.reconstruct_from_frame
    monkeypatch.setattr(effects, "reconstruct_from_frame", lambda f: shapes.append(f._values.shape) or reconstruct(f))
    code, _ = cli.run(["gleason-roundtrip", "--dim", "3", "--trials", "50"])
    assert code == 0 and shapes == [(50, 9)]


def test_all_sections_eigendecompose_whole_stacks(monkeypatch):
    calls = []
    eig_hermitian = linalg.eig_hermitian

    def counting(m):
        calls.append(np.shape(m))
        return eig_hermitian(m)

    monkeypatch.setattr(linalg, "eig_hermitian", counting)
    code, _ = cli.run(["all", "--dim", "3"])
    assert code == 0
    assert len(calls) <= 100


# --------------------------------------------------------------------------
# The Monte-Carlo kernel and the merging runs.


def old_random_basis_probabilities(rho, n, g):
    """The complex Gram-Schmidt kernel over all D columns, as first batched."""
    d = rho.shape[0]
    z = np.empty((d, d, n), dtype=complex)
    z.real = g.normal(size=(n, d, d)).transpose(2, 1, 0)
    z.imag = g.normal(size=(n, d, d)).transpose(2, 1, 0)
    probs = np.empty((d, n))
    for j in range(d):
        v = z[j]
        for _ in range(2 if j else 0):
            overlap = np.einsum("kin,in->kn", z[:j], v.conj()).conj()
            v = v - np.einsum("kin,kn->in", z[:j], overlap)
        z[j] = v / np.sqrt((v.real**2 + v.imag**2).sum(axis=0))
        probs[j] = (z[j].conj() * (rho @ z[j])).sum(axis=0).real
    return probs.T


@pytest.mark.parametrize("d", range(1, 9))
def test_basis_probabilities_match_the_complex_kernel(d):
    for seed in range(3):
        rho = linalg.random_state(d, 60 + seed)
        g_new, g_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_basis_probabilities(rho, 500, g_new)
        expected = old_random_basis_probabilities(rho, 500, g_old)
        assert got.shape == expected.shape == (500, d)
        assert np.abs(got - expected).max() <= 1e-14
        assert_same_stream(g_new, g_old)


def merging_config(name):
    grid = definetti.bloch_grid(50, (0.25, 0.5, 0.75, 1.0))
    if name == "sqm":
        weights = (None, definetti.center_skewed_weights(grid))
        povm = effects.standard_sqm(2).base
    else:
        weights = [definetti.axis_skewed_weights(grid, linalg.sigma_x, s) for s in (2.0, -2.0)]
        povm = effects.validate_povm([linalg.projector(linalg.ket(i, 2)) for i in range(2)])
    return grid, *(definetti.make_prior(grid, w) for w in weights), povm


@pytest.mark.parametrize("name", ["sqm", "z"])
def test_merging_experiment_of_one_state_is_its_run_of_a_stack(name):
    grid, prior_a, prior_b, povm = merging_config(name)
    truths = grid[[3, 77, 150, 199, 3, 120]]
    seeds = [11, 12, 13, 14, 15, np.random.default_rng(16)]
    traces = definetti.merging_experiment(prior_a, prior_b, truths, povm, 500, seeds)
    seeds[-1] = np.random.default_rng(16)
    for trace, truth, seed in zip(traces, truths, seeds, strict=True):
        single = definetti.merging_experiment(prior_a, prior_b, truth, povm, 500, seed=seed)
        assert trace.outcomes.tobytes() == single.outcomes.tobytes()
        assert abs(trace.final_inter_agent - single.final_inter_agent) <= 1e-12
        assert np.abs(np.subtract(trace.final_to_truth, single.final_to_truth)).max() <= 1e-12
        assert np.array_equal(trace.inter_agent, single.inter_agent)
        assert np.array_equal(trace.to_truth_b, single.to_truth_b)


def test_merging_experiment_names_the_first_bad_state_of_a_stack():
    grid, prior_a, prior_b, povm = merging_config("sqm")
    truths = grid[:5].copy()
    truths[2] *= 1.5  # trace 1.5
    truths[4, 0, 0] = -0.25
    with pytest.raises(NotAState, match=r"^state 2 .*trace 1\.5"):
        definetti.merging_experiment(prior_a, prior_b, truths, povm, 10, range(5))
    with pytest.raises(ValueError):
        definetti.merging_experiment(prior_a, prior_b, grid[:2], povm, 10, [1, 2, 3])


def test_definetti_merge_section_takes_one_posterior_per_agent_and_loop(monkeypatch):
    calls = []
    count_posterior = definetti._count_posterior

    def counting(*args):
        calls.append(np.shape(args[2]))
        return count_posterior(*args)

    monkeypatch.setattr(definetti, "_count_posterior", counting)
    code, _ = cli.run(["definetti-merge", "--dim", "2", "--trials", "10"])
    assert code == 0
    assert len(calls) <= 4


def test_swap_tree_chunks_do_not_change_values(monkeypatch):
    whole = locality.swap_counterexample(3, n_trees=40, seed=8)
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", 7 * 5 * 5 * 2 * 9 * 8)  # 7 trees per chunk
    chunked = locality.swap_counterexample(3, n_trees=40, seed=8)
    assert chunked.max_tree_deviation == whole.max_tree_deviation
    assert chunked.min_frame_value == whole.min_frame_value
