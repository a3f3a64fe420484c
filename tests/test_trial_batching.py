"""Trial-batched samplers, factorization and CLI sections.

Each sampler is one draw of raw normals plus a stack-capable build, and the
update-factor and entropy-sweep sections draw trial by trial and evaluate
all trials as stacks.  The references here are copies of the per-call
samplers and per-trial loops that the batched code replaced: the batched
code must make the same generator calls in the same order and agree with
them value for value.
"""

import numpy as np
import pytest

from qbayes import cli, entropy, linalg, update
from qbayes.errors import NotTracePreserving

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
    eig = linalg.eig_hermitian(m)
    inv = np.zeros_like(eig.eigenvalues)
    keep = eig.eigenvalues > linalg.RANK_TOL * max(eig.eigenvalues[0], 0.0)
    inv[keep] = 1.0 / np.sqrt(eig.eigenvalues[keep])
    return (eig.eigenvectors * inv) @ linalg.dagger(eig.eigenvectors)


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
        lambda d, g: np.stack([a for (a,) in update.random_instrument(d, d, 1, g).outcomes]),
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
        update._check_complete(kraus * np.array([1.0, 1.0, 1.01])[:, None, None, None])


# --------------------------------------------------------------------------
# Stacked factorization.


def per_cluster_polar_factorization(state, kraus):
    """Per-state reference: one polar unitary per eigenvalue cluster."""
    root = linalg.mat_sqrt(state)
    out = []
    for a in kraus:
        e = linalg.dagger(a) @ a
        p = float(np.trace(state @ e).real)
        if p <= linalg.PROB_FLOOR:
            out.append(None)
            continue
        ref = root @ e @ root / p
        post = a @ state @ linalg.dagger(a) / p
        es, et = linalg.eig_hermitian(ref), linalg.eig_hermitian(post)
        vals = es.eigenvalues
        gaps = np.abs(np.diff(vals)) > linalg.RANK_TOL * vals[0]
        starts = np.flatnonzero(np.r_[True, gaps])
        v = np.zeros_like(ref)
        for i, j in zip(starts, np.r_[starts[1:], len(vals)]):
            x, w = es.eigenvectors[:, i:j], et.eigenvectors[:, i:j]
            v += w @ linalg.polar_unitary(linalg.dagger(w) @ x) @ linalg.dagger(x)
        out.append((p, ref, v, post))
    return out


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
    kraus.append(np.stack(projective).astype(complex))
    return np.stack(states), np.stack(kraus)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacked_factorization_matches_per_state(d):
    for seed in range(10):
        states, kraus = factorization_inputs(d, np.random.default_rng(100 * d + seed))
        probs, live, refs, vs, posts = update.factor_updates(states, kraus)
        assert not live[-1, 1:].any() and live[:-1].all()
        for n, (state, ops) in enumerate(zip(states, kraus)):
            single = update.factor_update(state, update.make_instrument([(a,) for a in ops]))
            reference = per_cluster_polar_factorization(state, ops)
            for k, (out, ref) in enumerate(zip(single.outcomes, reference)):
                assert abs(out.probability - max(probs[n, k], 0.0)) <= 1e-12
                if ref is None:
                    assert out.refinement is None and not live[n, k]
                    assert not refs[n, k].any() and not vs[n, k].any() and not posts[n, k].any()
                    continue
                for got, one, expected in zip(
                    (refs[n, k], vs[n, k], posts[n, k]),
                    (out.refinement, out.readjustment, out.posterior),
                    ref[1:],
                ):
                    assert np.abs(got - one).max() <= 1e-12
                    assert np.abs(got - expected).max() <= 1e-12


def test_matching_unitary_mixes_cluster_sizes_in_one_stack():
    g = np.random.default_rng(8)
    spectra = [[0.4, 0.3, 0.2, 0.1], [0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.25] * 4]
    xs = np.stack([linalg.random_unitary(4, g) for _ in spectra])
    ws = np.stack([linalg.random_unitary(4, g) for _ in spectra])
    vals = np.array(spectra)
    stacked = update._matching_unitary(vals, xs, ws)
    for v, args in zip(stacked, zip(vals, xs, ws)):
        assert np.abs(v - update._matching_unitary(*args)).max() <= 1e-15
        assert np.abs(v @ linalg.dagger(v) - np.eye(4)).max() <= 1e-14


# --------------------------------------------------------------------------
# Refinement inequalities.


def per_trial_refinement_gaps(trials, dim, seed):
    """The sweep as a per-trial loop over the per-call samplers."""
    g = np.random.default_rng(seed)
    out = np.empty((3, trials))
    for t in range(trials):
        rho = old_random_state(dim, g)
        kraus = old_random_kraus(dim, int(g.integers(2, 6)), g)
        raw = kraus @ rho @ linalg.dagger(kraus)
        probs = np.trace(raw, axis1=1, axis2=2).real
        live = probs > linalg.PROB_FLOOR
        posts = raw[live] / probs[live][:, None, None]
        out[0, t] = entropy.von_neumann(rho) - probs[live] @ entropy.von_neumann(posts)
        out[1, t] = entropy.subentropy(rho) - probs[live] @ entropy.subentropy(posts)
        joint = g.random((int(g.integers(2, 6)), int(g.integers(2, 6))))
        out[2, t] = entropy.classical_refinement_gap(joint / joint.sum())
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


def test_refinement_sweep_with_a_state_alone_raises():
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="inst is missing"):
        entropy.check_refinement_inequalities(state=rho, trials=3, dim=3, seed=1)


def test_refinement_sweep_with_an_instrument_alone_raises():
    inst = update.random_instrument(3, 3, 1, 4)
    with pytest.raises(ValueError, match="state is missing"):
        entropy.check_refinement_inequalities(inst=inst, trials=3, dim=3, seed=1)


def test_refinement_sweep_on_a_given_pair_repeats_its_gaps():
    rho = linalg.random_state(3, 6)
    inst = update.random_instrument(3, 4, 2, 7)
    gaps = entropy.check_refinement_inequalities(rho, inst, trials=4, seed=2)
    s, q = entropy.refinement_gap(rho, inst)
    assert (gaps.von_neumann_gaps == s).all() and (gaps.subentropy_gaps == q).all()


# --------------------------------------------------------------------------
# CLI sections against their per-trial loops.


def per_trial_update_factor(dim, trials, seed):
    g = cli._rng(seed, 0x64)
    mix_dev = spec_dev = readj_dev = pure_dev = 0.0
    for _ in range(trials):
        rho = old_random_state(dim, g)
        kraus = old_random_kraus(dim, int(g.integers(2, 5)), g)
        fac = per_cluster_polar_factorization(rho, kraus)
        live = [f for f in fac if f is not None]
        mix_dev = max(mix_dev, np.linalg.norm(sum(p * r for p, r, _, _ in live) - rho))
        for _, ref, v, post in live:
            spec = np.abs(np.linalg.eigvalsh(ref) - np.linalg.eigvalsh(post)).max()
            spec_dev = max(spec_dev, spec)
            readj_dev = max(readj_dev, np.linalg.norm(v @ ref @ linalg.dagger(v) - post))
        psi = old_random_ket(dim, g)
        pure = np.outer(psi, psi.conj())
        for f in per_cluster_polar_factorization(pure, kraus):
            if f is not None:
                pure_dev = max(pure_dev, np.linalg.norm(f[1] - pure))
    return [mix_dev, spec_dev, readj_dev, pure_dev]


def per_trial_entropy_sweep(dim, trials, seed):
    g = cli._rng(seed, 0x65)
    q_half = entropy.subentropy(np.eye(2) / 2.0)
    mean_half = entropy.mean_entropy(np.eye(2) / 2.0)
    cap = max(entropy.subentropy(old_random_state(int(g.integers(2, 6)), g)) for _ in range(trials))
    z_max = 0.0
    for _ in range(5):
        rho = old_random_state(dim, g)
        mc, se = entropy.mean_entropy_mc(rho, 20000, g)
        z_max = max(z_max, abs(mc - entropy.mean_entropy(rho)) / se)
    gaps = per_trial_refinement_gaps(trials, dim, g)
    return [
        abs(q_half - 0.278652),
        abs(mean_half - 1.0),
        cap - entropy.SUBENTROPY_CAP,
        z_max,
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
