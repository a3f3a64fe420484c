"""Test-only samplers and reference kernels that the library does not need."""

import numpy as np

from qbayes import definetti, effects, entropy, linalg, locality, update


def random_hermitian(dim, seed=None, scale=1.0):
    g = linalg.rng_from(seed)
    z = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    return scale * (z + linalg.dagger(z)) / 2.0


def sqm_probs_with_lowest(sqm, low, seed):
    """SQM probabilities tr(X E_d) of a trace-one Hermitian X with smallest
    eigenvalue ``low``: a seeded random state with its lowest eigenvalue set to
    ``low`` and the rest rescaled, so the raw inversion of the vector is X up
    to rounding."""
    vals, vecs = np.linalg.eigh(linalg.random_state(sqm.dim, seed))
    vals[0] = low
    vals[1:] *= (1.0 - low) / vals[1:].sum()
    return effects.born((vecs * vals) @ linalg.dagger(vecs), sqm.base)


def shannon(p):
    """Shannon entropy of a distribution: the von Neumann entropy of its diagonal state."""
    return entropy.von_neumann(np.diag(p))


def random_effect(dim, g):
    """One random effect M / (largest eigenvalue of M + u), M = Z Z^dag, from a
    (2, D, D) normal draw and one uniform: the swap sampler's kernel on one draw."""
    return locality._effects_from_draws(g.normal(size=(2, dim, dim)), g.random())


def random_instrument(dim, n_outcomes, kraus_per_outcome=1, seed=None):
    """Random valid instrument over a random POVM.

    Each effect E_d is split as ``A_{d,i} = sqrt(w_i) V_{d,i} E_d^{1/2}``
    with random unitaries and random convex weights, so completeness is
    exact by construction.  One Kraus per outcome: ``update.kraus_from_normals``.
    """
    g = linalg.rng_from(seed)
    if kraus_per_outcome == 1:
        return update.KrausInstrument(update.kraus_from_normals(g.normal(size=(2, n_outcomes, 2, dim, dim))))
    outcomes = []
    for root in linalg.mat_sqrt(linalg.povm_from_normals(g.normal(size=(n_outcomes, 2, dim, dim)))):
        w = g.dirichlet(np.ones(kraus_per_outcome))
        outcomes.append([np.sqrt(wi) * linalg.random_unitary(dim, g) @ root for wi in w])
    return update.make_instrument(outcomes)


def frame_value(frame, effect):
    """The value a frame holds for ``effect`` at its first row within
    ``linalg.EFFECT_TOL`` per real coordinate: a float, or one per state of a
    stack.  An effect with no value raises KeyError."""
    effect = linalg.as_operator(effect)
    for i, stored in enumerate(frame._effects):
        diff = stored - effect
        if max(abs(diff.real).max(), abs(diff.imag).max()) <= linalg.EFFECT_TOL:
            value = frame._values[..., i]
            return float(value) if value.ndim == 0 else value
    raise KeyError("no value recorded for this effect")


def posterior_weights(prior, povm, outcomes):
    """Weights of ``prior`` after the i.i.d. ``outcomes`` of ``povm``: the library's
    one Bayes rule, ``definetti._count_posterior``, on their ``np.bincount``
    counts under the prior's Born likelihoods."""
    counts = np.bincount(np.asarray(outcomes, dtype=int), minlength=len(povm))
    return definetti._count_posterior(prior.weights, effects.born(prior.states, povm), counts)


def maximally_entangled_ket(dim):
    return np.eye(dim, dtype=complex).ravel() / np.sqrt(dim)


def random_basis_probabilities(rho, n, g):
    """Outcome probabilities (n, D) of ``rho`` in n Haar-random bases.

    The independent reference for the spectral Monte-Carlo of the mean
    entropy.  The first D - 1 columns of all the Ginibre draws are
    orthonormalized at once by classical Gram-Schmidt with one
    re-orthogonalization pass, in real form: z[j, :, s] = (Re q; Im q) is
    column j of sample s.  Each basis vector then equals the QR one up to a
    unit phase, which leaves every outcome probability q^dag rho q unchanged,
    so the bases are Haar.  The basis is complete, so the last probability is
    tr rho minus the others.
    """
    d, m = rho.shape[0], rho.shape[0] - 1
    z = np.empty((m, 2 * d, n))
    z[:, :d] = g.normal(size=(n, d, d))[..., :m].T
    z[:, d:] = g.normal(size=(n, d, d))[..., :m].T
    h = np.block([[rho.real, -rho.imag], [rho.imag, rho.real]])  # q^dag rho q = z[j] . h z[j]
    probs = np.empty((d, n))
    for j in range(m):
        v, q = z[j], z[:j]
        for _ in range(2 if j else 0):
            # v - sum_k q_k <q_k, v>, with <q, v> = q . v + i (Re q . Im v - Im q . Re v).
            re = np.einsum("kin,in->kn", q, v)
            im = np.einsum("kin,in->kn", q[:, :d], v[d:]) - np.einsum("kin,in->kn", q[:, d:], v[:d])
            v = v - np.einsum("kin,kn->in", q, re)
            v[:d] += np.einsum("kin,kn->in", q[:, d:], im)
            v[d:] -= np.einsum("kin,kn->in", q[:, :d], im)
        v = z[j] = v / np.sqrt(np.einsum("in,in->n", v, v))
        probs[j] = np.einsum("in,in->n", v, h @ v)
    probs[m] = np.trace(rho).real - probs[:m].sum(axis=0)
    return probs.T


def basis_entropy_mc(rho, n, g):
    """(mean, standard error) of the Shannon entropy of ``rho`` measured in n
    Haar-random bases drawn by :func:`random_basis_probabilities`."""
    p = random_basis_probabilities(rho, n, g)
    h = -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=1)
    return h.mean(), h.std(ddof=1) / np.sqrt(n)


def old_control_variate_fit(lam, n, g):
    """The control-variate fit of ``entropy.mean_entropy_mc`` for one spectrum
    on fresh arrays per state: the reference that the one-workspace kernel
    must match bitwise, in its values and in the generator state it leaves."""
    d, k = lam.size, min(3, n - 2)
    e = g.standard_exponential((d, n))
    q = np.einsum("i,in->n", d * lam, e)
    q /= e.sum(axis=0)
    x = np.empty((k + 1, n))
    x[0] = 1.0
    for j in range(1, k + 1):
        np.multiply(x[j - 1], q, out=x[j])
    s, h, c = [(lam**i).sum() for i in range(k + 1)], [1.0], 1.0
    for j in range(1, k + 1):
        h.append(sum(s[i] * h[j - i] for i in range(1, j + 1)) / j)
        c *= d * j / (d + j - 1)
        x[j] -= c * h[j]
    y = q * np.log2(d / np.where(q > 0.0, q, d))
    inv = np.linalg.pinv(np.einsum("in,jn->ij", x, x), rtol=linalg.RANK_TOL, hermitian=True)
    beta = inv @ np.einsum("in,n->i", x, y)
    y -= np.einsum("i,in->n", beta, x)
    return beta[0], np.sqrt(np.einsum("n,n->", y, y) / (n - k - 1) * inv[0, 0])


def old_mean_entropy_mc(rho, samples, g):
    """(mean, SE) arrays of ``entropy.mean_entropy_mc`` by :func:`old_control_variate_fit`."""
    vals = entropy._spectra(rho)
    fits = [old_control_variate_fit(lam, samples, g) for lam in vals.reshape(-1, vals.shape[-1])]
    return np.array(fits).T.reshape((2,) + vals.shape[:-1])


def log1p_subentropy(vals):
    """Subentropy of each spectrum along the last axis by the trapezoid rule of
    ``entropy`` with 1 - prod_i t/(l_i + t) written as -expm1(-sum log1p(l_i/t)),
    on a (..., D, nodes) array: the reference for the polynomial kernel."""
    t = entropy._T_NODES
    one_minus_prod = -np.expm1(-np.log1p(vals[..., None] / t).sum(axis=-2))
    integrand = vals.sum(axis=-1)[..., None] / (1.0 + t) - one_minus_prod
    return -entropy._S_STEP * (t * integrand).sum(axis=-1) / entropy.LN2


def reference_factorization(state, kraus):
    """Per-outcome definition of ``update.factor_update`` for one state and its
    (K, 1, D, D) Kraus stack: for each outcome (P, rho^{1/2} E rho^{1/2} / P,
    the polar unitary of A rho^{1/2}, A rho A^dag / P), the three operators
    None at or below ``PROB_FLOOR``."""
    root = linalg.mat_sqrt(state)
    out = []
    for (a,) in kraus:
        e = linalg.dagger(a) @ a
        p = float(np.trace(state @ e).real)
        if p <= linalg.PROB_FLOOR:
            out.append((p, None, None, None))
        else:
            out.append((p, root @ e @ root / p, linalg.polar_unitary(a @ root), a @ state @ linalg.dagger(a) / p))
    return out


def assert_matches_reference(fac, state, kraus):
    """A one-state ``Factorization`` against :func:`reference_factorization`:
    probabilities bitwise, dead outcomes exactly 0, refinements and posteriors
    within 1e-12, and the readjustment V within 1e-12 of the reference polar
    factor where B = A rho^{1/2} / sqrt(P) has full rank.  Where B is
    rank deficient its polar factor is not unique, so there V is held only to
    the basis-free identities, within 1e-13: V unitary, V ref V^dag = post and
    V ref^{1/2} = B."""
    root = linalg.mat_sqrt(state)
    reference = reference_factorization(state, kraus)
    assert len(fac.probabilities) == len(reference)
    for k, (p, refinement, v, posterior) in enumerate(reference):
        assert fac.probabilities[k] == p
        got_ref, got_v, got_post = fac.refinements[k], fac.readjustments[k], fac.posteriors[k]
        if refinement is None:
            assert not fac.live[k]
            assert not (got_ref.any() or got_v.any() or got_post.any())
            continue
        assert np.abs(got_ref - refinement).max() <= 1e-12
        assert np.abs(got_post - posterior).max() <= 1e-12
        b = kraus[k, 0] @ root / np.sqrt(p)
        if np.linalg.matrix_rank(b) == len(b):
            assert np.abs(got_v - v).max() <= 1e-12
        assert np.abs(got_v @ linalg.dagger(got_v) - np.eye(len(b))).max() <= 1e-13
        assert np.abs(got_v @ got_ref @ linalg.dagger(got_v) - got_post).max() <= 1e-13
        assert np.abs(got_v @ linalg.mat_sqrt(got_ref) - b).max() <= 1e-13
