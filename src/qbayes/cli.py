"""Command-line verification suite with machine-readable reports.

Every subcommand runs a set of named numeric checks, each with an explicit
threshold, and emits a report in JSON, CSV or text form.  A section is a
function of (dim, trials, generator) that returns its check rows (name, value,
op, default threshold).  One loop runs the selected sections, applies the
``--tol`` overrides (a name that matches no check of the command is a usage
error) and adds the notes kept per section.  Reports are deterministic for a
fixed seed and configuration up to the two timing fields.  Randomness comes
only from PCG64 generators: the loop gives each section one generator,
``default_rng([seed, key])``, a ``SeedSequence`` over the seed and a fixed
per-section key, so distinct seeds and sections get independent streams
(each ``definetti-merge`` run draws its outcomes from a spawned child).  A
section draws all its trials in a few calls, integers first and then one
normal array per kind of input, zero-padded where trials are ragged, and
evaluates them as stacks.

The module loads ``effects`` and ``linalg``; each section imports the other
modules it calls in its own body, so a command loads only what it uses.
"""

import argparse
import csv
import functools
import io
import json
import operator
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__, effects, linalg

# Checks compare value against threshold with one of these operators.
_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}


def _check(name, value, op, threshold, overrides):
    threshold = float(overrides.get(name, threshold))
    value = float(value)
    return {
        "name": name,
        "value": value,
        "op": op,
        "threshold": threshold,
        "pass": bool(_OPS[op](value, threshold)),
    }


# --------------------------------------------------------------------------
# Sections.  Each returns its check rows (name, value, op, default threshold).


def _sqm_build(dim, trials, g):
    sqm = effects.standard_sqm(dim)
    sum_dev = linalg.identity_dev(sqm.base.elements.sum(axis=0))
    second = np.linalg.eigvalsh(sqm.base.elements)[:, -2].max()
    gram_min = effects.element_gram_min_singular_value(sqm.base)
    return [
        ("sqm_element_count_error", abs(len(sqm) - dim * dim), "<=", 0),
        ("sqm_sum_to_identity_dev", sum_dev, "<=", 1e-9),
        ("sqm_rank_one_second_eigenvalue", second, "<=", 1e-9),
        ("sqm_gram_min_singular_value", gram_min, ">=", 1e-8),
    ]


def _gleason_roundtrip(dim, trials, g):
    sqm = effects.standard_sqm(dim)
    k = g.integers(2, 6, size=(trials, 5))  # outcomes of each trial's 5 held-out POVMs
    rho = linalg.state_from_normals(g.normal(size=(trials, 2, dim, dim)))
    x_held = linalg._padded_normals(g, k, (trials, 5, 5, 2, dim, dim))
    rec = effects.reconstruct_from_frame(effects.FrameFunction.from_state(rho, sqm.base))
    worst_rt = linalg.trace_distance(rec, rho).max()
    worst_held = max(linalg._chunked(_held_out_error, x_held, rec, rho))
    return [
        ("gleason_roundtrip_trace_distance_max", worst_rt, "<=", 1e-8),
        ("gleason_heldout_probability_error_max", worst_held, "<=", 1e-8),
    ]


def _held_out_error(x_held, rec, rho):
    """Largest held-out probability difference of rec against rho over one chunk
    of trials: tr(rho E_k) of each trial's own effects, as real coordinates."""
    held = effects._real_coords(linalg.povm_from_normals(x_held)).reshape(len(rho), 25, -1)
    probs = held @ effects._real_coords(np.stack([rec, rho]))[..., None]
    return np.abs(probs[0] - probs[1]).max()


def _certainty_bound(dim, trials, g):
    gap_max = 0.0
    for d in range(2, 11):
        closed = effects.certainty_bound(d)
        numeric = 1.0 / float(np.linalg.eigvalsh(effects.standard_sqm(d).gram)[0])
        gap_max = max(gap_max, abs(closed - numeric))
    bound = effects.certainty_bound(dim)
    rho = linalg.state_from_normals(g.normal(size=(trials, 2, dim, dim)))
    exceed = effects.born(rho, effects.standard_sqm(dim).base).max() - bound
    ratio_dev = abs(10 * effects.certainty_bound(10) * 0.79 - 1.0)
    return [
        ("certainty_bound_value", bound, "<", 1.0),
        ("certainty_closed_vs_numeric_gap_max", gap_max, "<=", 1e-9),
        ("certainty_sqm_probability_excess_max", exceed, "<=", 1e-9),
        ("certainty_asymptote_ratio_dev", ratio_dev, "<=", 0.10),
    ]


def _teleport(dim, trials, g):
    from . import update
    psi = linalg.ket_from_normals(g.normal(size=(trials, 2, 2)))
    t = update.teleport(psi)
    marginals = np.stack([t.bob_marginal_before, t.bob_marginal_unconditional])
    marg_dev = np.abs(marginals - np.eye(2) / 2).max()
    return [
        ("teleport_fidelity_error_max", np.abs(t.fidelities - 1.0).max(), "<=", 1e-9),
        ("teleport_bob_marginal_dev_max", marg_dev, "<=", 1e-12),
        ("teleport_outcome_prob_dev_max", np.abs(t.outcome_probs - 0.25).max(), "<=", 1e-12),
    ]


def _update_factor(dim, trials, g):
    k = g.integers(2, 5, size=(trials, 1))  # outcomes of each trial's instrument
    x_state = g.normal(size=(trials, 2, dim, dim))
    x_inst = linalg._padded_normals(g, k, (trials, 2, 4, 2, dim, dim))
    x_ket = g.normal(size=(trials, 2, dim))
    devs = linalg._chunked(_factor_devs, x_state, x_inst, x_ket)
    mix_dev, spec_dev, readj_dev, pure_dev = np.max(devs, axis=0)
    return [
        ("update_refinement_mixture_dev_max", mix_dev, "<=", 1e-9),
        ("update_spectrum_match_dev_max", spec_dev, "<=", 1e-8),
        ("update_readjustment_dev_max", readj_dev, "<=", 1e-8),
        ("update_pure_refinement_dev_max", pure_dev, "<=", 1e-10),
    ]


def _factor_devs(x_state, x_inst, x_ket):
    """update-factor's four deviations over one chunk of trials' normals."""
    from . import update
    rho = linalg.state_from_normals(x_state)
    kraus = update.kraus_from_normals(x_inst)
    fac = update.factor_update(rho, kraus)
    mix = (fac.probabilities[..., None, None] * fac.refinements).sum(axis=1)
    mix_dev = np.linalg.norm(mix - rho, axis=(-2, -1)).max()
    ref, v, post = fac.refinements[fac.live], fac.readjustments[fac.live], fac.posteriors[fac.live]
    spec_dev = np.abs(np.linalg.eigvalsh(ref) - np.linalg.eigvalsh(post)).max()
    readj_dev = np.linalg.norm(v @ ref @ linalg.dagger(v) - post, axis=(-2, -1)).max()
    psi = linalg.ket_from_normals(x_ket)
    pure = psi[:, :, None] * psi.conj()[:, None, :]
    _, live, ref = update.refinements(pure, kraus)  # a pure state is its own refinement
    pure_dev = np.linalg.norm(ref - pure[np.nonzero(live)[0]], axis=(-2, -1)).max()
    return mix_dev, spec_dev, readj_dev, pure_dev


def _entropy_sweep(dim, trials, g):
    from . import entropy
    q_half = entropy.subentropy(np.eye(2) / 2.0)
    mean_half = entropy.mean_entropy(np.eye(2) / 2.0)
    # States of dimension d = 2..5, each embedded in 5 dimensions by zero rows
    # and columns of its normals; zero eigenvalues leave the subentropy as is.
    d = g.integers(2, 6, size=(trials, 1, 1, 1))
    rows, cols = np.ogrid[:5, :5]
    x = np.where((rows < d) & (cols < d), g.normal(size=(trials, 2, 5, 5)), 0.0)
    cap = entropy.subentropy(linalg.state_from_normals(x))
    rho = linalg.state_from_normals(g.normal(size=(5, 2, dim, dim)))
    mc, se = entropy.mean_entropy_mc(rho, 20000, g)
    # The sum of the squared z-scores of 5 unbiased estimates is chi^2 with 5
    # degrees of freedom, which exceeds 25.74 with probability 1e-4.
    chi2 = (((mc - entropy.mean_entropy(rho)) / se) ** 2).sum()
    gaps = entropy.check_refinement_inequalities(trials=trials, dim=dim, seed=g)
    return [
        ("entropy_subentropy_half_identity_error", abs(q_half - (1 - 0.5 / entropy.LN2)), "<=", 1e-6),
        ("entropy_mean_half_identity_error", abs(mean_half - 1.0), "<=", 1e-9),
        ("entropy_subentropy_cap_excess_max", cap.max() - entropy.SUBENTROPY_CAP, "<=", 1e-6),
        ("entropy_mc_chi2", chi2, "<=", 25.74),
        ("entropy_refinement_s_gap_min", gaps.von_neumann_gaps.min(), ">=", -1e-8),
        ("entropy_refinement_q_gap_min", gaps.subentropy_gaps.min(), ">=", -1e-8),
        ("entropy_classical_gap_min", gaps.classical_gaps.min(), ">=", -1e-8),
    ]


def _locality_reconstruct(dim, trials, g):
    from . import locality
    worst = {}
    for da, db in ((2, 2), (2, 3)):
        rho = linalg.state_from_normals(g.normal(size=(trials, 2, da * db, da * db)))
        rec = locality.reconstruct_joint_operator(locality.BilinearFrame.from_state(rho, (da, db)))
        worst[(da, db)] = linalg.trace_distance(rec, rho).max()
    analysis = locality.real_span_analysis(2, 2)
    rank_error = abs(analysis.numeric_rank - analysis.product_span_dim)
    yy = linalg.tensor(linalg.sigma_y, linalg.sigma_y)
    overlap = max(
        abs(linalg.hs_inner(n, yy).real)
        / (np.linalg.norm(n) * np.linalg.norm(yy))
        for n in analysis.null_directions
    )
    domino_dev = linalg.identity_dev(locality.domino_fixture().elements.sum(axis=0))
    return [
        ("locality_roundtrip_2x2_max", worst[(2, 2)], "<=", 1e-8),
        ("locality_roundtrip_2x3_max", worst[(2, 3)], "<=", 1e-8),
        ("locality_real_rank_error", rank_error, "<=", 0),
        ("locality_null_overlap_with_yy", overlap, ">=", 0.99),
        ("locality_domino_resolution_dev", domino_dev, "<=", 1e-10),
    ]


def _swap_counterexample(dim, trials, g):
    from . import locality
    rep = locality.swap_counterexample(dim, n_trees=trials, seed=g)
    return [
        ("swap_tree_normalization_dev_max", rep.max_tree_deviation, "<=", 1e-9),
        ("swap_min_frame_value", rep.min_frame_value, ">=", -1e-12),
        ("swap_joint_min_eigenvalue", rep.min_eigenvalue, "<=", -1e-3),
    ]


def _definetti_merge(dim, trials, g):
    import statistics  # np.median would load numpy.ma

    from . import definetti
    grid = definetti.bloch_grid(50, (0.25, 0.5, 0.75, 1.0))
    uniform = definetti.make_prior(grid)
    skewed = definetti.make_prior(grid, definetti.center_skewed_weights(grid))
    traces = _merging_runs(uniform, skewed, effects.standard_sqm(2).base, trials, g)
    inter = [t.final_inter_agent for t in traces]
    truth = [max(t.final_to_truth) for t in traces]
    zmeas = effects.validate_povm([linalg.projector(linalg.ket(i, 2)) for i in range(2)])
    pa = definetti.make_prior(grid, definetti.axis_skewed_weights(grid, linalg.sigma_x, +2.0))
    pb = definetti.make_prior(grid, definetti.axis_skewed_weights(grid, linalg.sigma_x, -2.0))
    traces = _merging_runs(pa, pb, zmeas, min(trials, 10), g)
    plateau = [t.final_inter_agent for t in traces]
    return [
        ("definetti_median_inter_agent", statistics.median(inter), "<=", 0.05),
        ("definetti_median_to_truth", statistics.median(truth), "<=", 0.05),
        ("definetti_non_ic_median_inter_agent", statistics.median(plateau), ">=", 0.05),
    ]


def _merging_runs(prior_a, prior_b, povm, runs, g):
    """``runs`` 2000-outcome merging experiments as one stack: the true states
    are grid points drawn from ``g``, run r's outcomes from its r-th spawned child."""
    from . import definetti
    truths = prior_a.states[g.integers(len(prior_a), size=runs)]
    return definetti.merging_experiment(prior_a, prior_b, truths, povm, 2000, g.spawn(runs))


def _real_counterexample(dim, trials, g):
    from . import definetti
    rep = definetti.real_counterexample(2)
    fit_margin = rep.real_fit_residual - rep.witness_bound
    return [
        ("real_max_imag_entry", rep.max_imag_entry, "<=", 1e-12),
        ("real_transposition_dev", rep.transposition_deviation, "<=", 1e-9),
        ("real_witness_bound", rep.witness_bound, ">=", 0.05),
        ("real_fit_residual_vs_witness", fit_margin, ">=", -1e-9),
        ("real_complex_fit_residual", rep.complex_fit_residual, "<=", 1e-9),
    ]


# name -> (section, trials under ``all``, trials when run alone, stream key).
# The ``all`` counts are bounded to keep the whole run comfortably inside a few
# minutes.  A section draws from ``default_rng([seed, key])``, one stream per
# seed and key; a section that draws nothing has no key and gets no generator,
# so that it does not import ``numpy.random``.
_COMMANDS = {
    "sqm-build": (_sqm_build, 1, 1, None),
    "gleason-roundtrip": (_gleason_roundtrip, 50, 100, 0x61),
    "certainty-bound": (_certainty_bound, 200, 1000, 0x62),
    "teleport": (_teleport, 25, 100, 0x63),
    "update-factor": (_update_factor, 100, 500, 0x64),
    "entropy-sweep": (_entropy_sweep, 100, 300, 0x65),
    "locality-reconstruct": (_locality_reconstruct, 20, 50, 0x66),
    "swap-counterexample": (_swap_counterexample, 50, 100, 0x67),
    "definetti-merge": (_definetti_merge, 10, 20, 0x68),
    "real-counterexample": (_real_counterexample, 1, 1, None),
}

# name -> its report notes.  A section that does not read --dim names the
# dimensions it runs at instead.
_NOTES = {
    "teleport": ("teleport ignores --dim: it teleports qubits (D = 2)",),
    "locality-reconstruct": (
        "locality-reconstruct ignores --dim: it reconstructs at 2 x 2 and 2 x 3, counts "
        "real dimensions at 2 x 2 and checks the domino POVM at 3 x 3",
    ),
    "definetti-merge": (
        "definetti-merge thresholds are engineering targets for the default grid, not "
        "derived constants",
        "definetti-merge ignores --dim: its priors and data are on qubits (D = 2)",
    ),
    "real-counterexample": (
        "real-counterexample ignores --dim: it certifies two copies of a qubit (D = 2)",
    ),
}


def _section(name, seed, command):
    """Section ``name``'s function, its trial count when ``command`` runs it and
    its generator ``default_rng([seed, key])``, None for a section without key."""
    fn, in_all, alone, key = _COMMANDS[name]
    g = None if key is None else np.random.default_rng([seed, key])
    return fn, (in_all if command == "all" else alone), g


# At D = 16 entropy-sweep alone peaks at 89.6-89.8 MiB (64.9-65.0 MiB in `all`;
# sqm-build alone, 36.4 MiB; ru_maxrss of one fresh process each), holding its
# 300-trial refinement sweep's normals and posterior operators; larger D is
# refused.
MAX_DIM = 16


def _tol_pair(raw):
    """One ``--tol NAME=VALUE`` as (name, threshold); a malformed one is a usage error."""
    name, sep, value = raw.partition("=")
    try:
        if sep and np.isfinite(threshold := float(value)):
            return name.strip(), threshold
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expects NAME=VALUE with a finite VALUE, got {raw!r}")


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qbayes",
        description="Numeric verification suite for the qbayes library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_COMMANDS) + ["all"]:
        p = sub.add_parser(name)
        p.add_argument(
            "--dim", type=int, default=2, help=f"Hilbert-space dimension, 2 to {MAX_DIM}"
        )
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="json"
        )
        p.add_argument("--out", default=None)
        p.add_argument("--tol", action="append", type=_tol_pair, metavar="NAME=VALUE")
    return parser


def run(argv=None):
    """Execute a subcommand; returns (exit code, report dict)."""
    parser = _build_parser()
    return _run_parsed(parser, parser.parse_args(argv))


def _run_parsed(parser, args):
    if not 2 <= args.dim <= MAX_DIM:
        parser.error(f"--dim must be between 2 and {MAX_DIM}")
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be at least 1")
    overrides = dict(args.tol or [])
    started = time.perf_counter()
    names = list(_COMMANDS) if args.command == "all" else [args.command]
    rows = []
    for name in names:
        fn, trials, g = _section(name, args.seed, args.command)
        rows += fn(args.dim, args.trials or trials, g)
    unknown = sorted(set(overrides) - {row[0] for row in rows})
    if unknown:
        parser.error(f"--tol names no check of {args.command}: {', '.join(unknown)}")
    checks = [_check(*row, overrides) for row in rows]
    notes = [note for name in names for note in _NOTES.get(name, ())]
    overall = all(c["pass"] for c in checks)
    report = {
        "command": args.command,
        "config": {
            "dim": args.dim,
            "seed": args.seed,
            "trials": args.trials,
            "format": args.format,
            "tolerance_overrides": overrides,
            "rng": "pcg64",
        },
        "version": __version__,
        "notes": notes,
        "checks": checks,
        "pass": overall,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": time.perf_counter() - started,
    }
    return (0 if overall else 1), report


def render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, list(report["checks"][0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(report["checks"])
        return buf.getvalue()
    lines = [f"{report['command']} (seed {report['config']['seed']})"]
    for c in report["checks"]:
        flag = "PASS" if c["pass"] else "FAIL"
        lines.append(
            f"  {flag} {c['name']}: {c['value']:.6e} {c['op']} {c['threshold']:.6e}"
        )
    for note in report["notes"]:
        lines.append(f"  note: {note}")
    lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    code, report = _run_parsed(parser, args)
    text = render(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
