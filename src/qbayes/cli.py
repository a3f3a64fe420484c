"""Command-line verification suite with machine-readable reports.

Every subcommand runs a set of named numeric checks, each with an explicit
threshold, and emits a report in JSON, CSV or text form.  Reports are
deterministic for a fixed seed and configuration up to the two timing
fields; randomness comes exclusively from PCG64 generators derived from
the seed (per-run seeds are ``seed XOR index`` where sweeps are
trial-parallel in spirit).
"""

import argparse
import csv
import io
import json
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__, definetti, effects, entropy, linalg, locality, update

# Checks compare value against threshold with one of these operators.
_OPS = {
    "<=": lambda v, t: v <= t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
}


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


def _rng(seed, salt=0):
    return np.random.default_rng(int(seed) ^ int(salt))


# --------------------------------------------------------------------------
# Subcommand check builders.  Each returns (checks, notes).


def _sqm_build(dim, trials, seed, tol):
    sqm = effects.standard_sqm(dim)
    sum_dev = float(np.linalg.norm(sum(sqm.base.elements) - np.eye(dim)))
    second = max(
        float(np.linalg.eigvalsh(e)[-2]) for e in sqm.base.elements
    )
    checks = [
        _check("sqm_element_count_error", abs(len(sqm) - dim * dim), "<=", 0, tol),
        _check("sqm_sum_to_identity_dev", sum_dev, "<=", 1e-9, tol),
        _check("sqm_rank_one_second_eigenvalue", second, "<=", 1e-9, tol),
        _check(
            "sqm_gram_min_singular_value",
            effects.element_gram_min_singular_value(sqm.base),
            ">=",
            1e-8,
            tol,
        ),
    ]
    return checks, []


def _gleason_roundtrip(dim, trials, seed, tol):
    g = _rng(seed, 0x61)
    sqm = effects.standard_sqm(dim)
    worst_rt = 0.0
    worst_held = 0.0
    for _ in range(trials):
        rho = linalg.random_state(dim, g)
        frame = effects.FrameFunction.from_state(rho, sqm.base.elements)
        rec = effects.reconstruct_from_frame(frame)
        worst_rt = max(worst_rt, linalg.trace_distance(rec, rho))
        for _ in range(5):
            held = effects.validate_povm(
                linalg.random_povm(dim, int(g.integers(2, 6)), g)
            )
            dev = np.abs(effects.born(rec, held) - effects.born(rho, held)).max()
            worst_held = max(worst_held, float(dev))
    checks = [
        _check("gleason_roundtrip_trace_distance_max", worst_rt, "<=", 1e-8, tol),
        _check("gleason_heldout_probability_error_max", worst_held, "<=", 1e-8, tol),
    ]
    return checks, []


def _certainty_bound(dim, trials, seed, tol):
    g = _rng(seed, 0x62)
    gap_max = 0.0
    for d in range(2, 11):
        closed = effects.certainty_bound(d, check=False)
        numeric = 1.0 / float(np.linalg.eigvalsh(effects.standard_sqm(d).gram)[0])
        gap_max = max(gap_max, abs(closed - numeric))
    bound = effects.certainty_bound(dim)
    sqm = effects.standard_sqm(dim)
    exceed = -np.inf
    for _ in range(trials):
        p = effects.born(linalg.random_state(dim, g), sqm.base)
        exceed = max(exceed, float(p.max() - bound))
    bound10 = effects.certainty_bound(10)
    checks = [
        _check("certainty_bound_value", bound, "<", 1.0, tol),
        _check("certainty_closed_vs_numeric_gap_max", gap_max, "<=", 1e-9, tol),
        _check("certainty_sqm_probability_excess_max", exceed, "<=", 1e-9, tol),
        _check(
            "certainty_asymptote_ratio_dev",
            abs(10 * bound10 * 0.79 - 1.0),
            "<=",
            0.10,
            tol,
        ),
    ]
    return checks, []


def _teleport(dim, trials, seed, tol):
    g = _rng(seed, 0x63)
    fid_err = 0.0
    marg_dev = 0.0
    prob_dev = 0.0
    for _ in range(trials):
        psi = linalg.random_ket(2, g)
        for outcome in range(4):
            t = update.teleport(psi, outcome=outcome)
            fid_err = max(fid_err, abs(t.fidelity - 1.0))
            marg_dev = max(
                marg_dev,
                float(np.abs(t.bob_marginal_before - np.eye(2) / 2).max()),
                float(np.abs(t.bob_marginal_unconditional - np.eye(2) / 2).max()),
            )
            prob_dev = max(prob_dev, float(np.abs(t.outcome_probs - 0.25).max()))
    checks = [
        _check("teleport_fidelity_error_max", fid_err, "<=", 1e-9, tol),
        _check("teleport_bob_marginal_dev_max", marg_dev, "<=", 1e-12, tol),
        _check("teleport_outcome_prob_dev_max", prob_dev, "<=", 1e-12, tol),
    ]
    return checks, []


def _update_factor(dim, trials, seed, tol):
    g = _rng(seed, 0x64)
    mix_dev = 0.0
    spec_dev = 0.0
    readj_dev = 0.0
    pure_dev = 0.0
    for _ in range(trials):
        rho = linalg.random_state(dim, g)
        inst = update.random_instrument(dim, int(g.integers(2, 5)), 1, g)
        fac = update.factor_update(rho, inst)
        mix_dev = max(mix_dev, float(np.linalg.norm(fac.mixture_of_refinements() - rho)))
        for out in fac.outcomes:
            if out.refinement is None:
                continue
            s1 = np.sort(np.linalg.eigvalsh(out.refinement))
            s2 = np.sort(np.linalg.eigvalsh(out.posterior))
            spec_dev = max(spec_dev, float(np.abs(s1 - s2).max()))
            moved = out.readjustment @ out.refinement @ linalg.dagger(out.readjustment)
            readj_dev = max(readj_dev, float(np.linalg.norm(moved - out.posterior)))
        psi = linalg.random_ket(dim, g)
        pure = np.outer(psi, psi.conj())
        fac = update.factor_update(pure, inst)
        for out in fac.outcomes:
            if out.refinement is not None:
                pure_dev = max(pure_dev, float(np.linalg.norm(out.refinement - pure)))
    checks = [
        _check("update_refinement_mixture_dev_max", mix_dev, "<=", 1e-9, tol),
        _check("update_spectrum_match_dev_max", spec_dev, "<=", 1e-8, tol),
        _check("update_readjustment_dev_max", readj_dev, "<=", 1e-8, tol),
        _check("update_pure_refinement_dev_max", pure_dev, "<=", 1e-10, tol),
    ]
    return checks, []


def _entropy_sweep(dim, trials, seed, tol):
    g = _rng(seed, 0x65)
    q_half = entropy.subentropy(np.eye(2) / 2.0)
    mean_half = entropy.mean_entropy(np.eye(2) / 2.0)
    cap_excess = -np.inf
    for _ in range(trials):
        d = int(g.integers(2, 6))
        q = entropy.subentropy(linalg.random_state(d, g))
        cap_excess = max(cap_excess, q - entropy.SUBENTROPY_CAP)
    z_max = 0.0
    for _ in range(5):
        rho = linalg.random_state(dim, g)
        exact = entropy.mean_entropy(rho)
        mc, se = entropy.mean_entropy_mc(rho, 20000, g)
        z_max = max(z_max, abs(mc - exact) / se)
    gaps = entropy.check_refinement_inequalities(trials=trials, dim=dim, seed=g)
    checks = [
        _check("entropy_subentropy_half_identity_error", abs(q_half - 0.278652), "<=", 1e-6, tol),
        _check("entropy_mean_half_identity_error", abs(mean_half - 1.0), "<=", 1e-9, tol),
        _check("entropy_subentropy_cap_excess_max", cap_excess, "<=", 1e-6, tol),
        _check("entropy_mc_zscore_max", z_max, "<=", 3.0, tol),
        _check("entropy_refinement_s_gap_min", gaps.von_neumann_gaps.min(), ">=", -1e-8, tol),
        _check("entropy_refinement_q_gap_min", gaps.subentropy_gaps.min(), ">=", -1e-8, tol),
        _check("entropy_classical_gap_min", gaps.classical_gaps.min(), ">=", -1e-8, tol),
    ]
    return checks, []


def _locality_reconstruct(dim, trials, seed, tol):
    g = _rng(seed, 0x66)
    worst = {}
    for da, db in ((2, 2), (2, 3)):
        w = 0.0
        for _ in range(trials):
            rho = linalg.random_state(da * db, g)
            frame = locality.BilinearFrame.from_state(rho, (da, db))
            rec = locality.reconstruct_joint_operator(frame)
            w = max(w, linalg.trace_distance(rec, rho))
        worst[(da, db)] = w
    analysis = locality.real_span_analysis(2, 2)
    yy = linalg.tensor(linalg.sigma_y, linalg.sigma_y)
    overlap = max(
        abs(linalg.hs_inner(n, yy).real)
        / (np.linalg.norm(n) * np.linalg.norm(yy))
        for n in analysis.null_directions
    )
    domino_dev = float(
        np.linalg.norm(sum(locality.domino_fixture().elements) - np.eye(9))
    )
    checks = [
        _check("locality_roundtrip_2x2_max", worst[(2, 2)], "<=", 1e-8, tol),
        _check("locality_roundtrip_2x3_max", worst[(2, 3)], "<=", 1e-8, tol),
        _check(
            "locality_real_rank_error",
            abs(analysis.numeric_rank - analysis.product_span_dim),
            "<=",
            0,
            tol,
        ),
        _check("locality_null_overlap_with_yy", overlap, ">=", 0.99, tol),
        _check("locality_domino_resolution_dev", domino_dev, "<=", 1e-10, tol),
    ]
    return checks, []


def _swap_counterexample(dim, trials, seed, tol):
    rep = locality.swap_counterexample(dim, n_trees=trials, seed=_rng(seed, 0x67))
    checks = [
        _check("swap_tree_normalization_dev_max", rep.max_tree_deviation, "<=", 1e-9, tol),
        _check("swap_min_frame_value", rep.min_frame_value, ">=", -1e-12, tol),
        _check("swap_joint_min_eigenvalue", rep.min_eigenvalue, "<=", -1e-3, tol),
    ]
    return checks, []


def _definetti_merge(dim, trials, seed, tol):
    grid = definetti.bloch_grid(50, (0.25, 0.5, 0.75, 1.0))
    sqm = effects.standard_sqm(2).base
    uniform = definetti.make_prior(grid)
    skewed = definetti.make_prior(grid, definetti.center_skewed_weights(grid))
    inter = []
    truth = []
    for run in range(trials):
        pick = _rng(seed, 0x680000 + run)
        true_state = grid[int(pick.integers(len(grid)))]
        trace = definetti.merging_experiment(
            uniform, skewed, true_state, sqm, 500, seed=int(seed) ^ (0x690000 + run)
        )
        inter.append(trace.final_inter_agent)
        truth.append(max(trace.final_to_truth))
    zmeas = effects.validate_povm(
        [linalg.projector(linalg.ket(i, 2)) for i in range(2)]
    )
    pa = definetti.make_prior(grid, definetti.axis_skewed_weights(grid, linalg.sigma_x, +2.0))
    pb = definetti.make_prior(grid, definetti.axis_skewed_weights(grid, linalg.sigma_x, -2.0))
    plateau = []
    for run in range(min(trials, 10)):
        pick = _rng(seed, 0x6A0000 + run)
        true_state = grid[int(pick.integers(len(grid)))]
        trace = definetti.merging_experiment(
            pa, pb, true_state, zmeas, 500, seed=int(seed) ^ (0x6B0000 + run)
        )
        plateau.append(trace.final_inter_agent)
    checks = [
        _check("definetti_median_inter_agent", float(np.median(inter)), "<=", 0.05, tol),
        _check("definetti_median_to_truth", float(np.median(truth)), "<=", 0.05, tol),
        _check("definetti_non_ic_median_inter_agent", float(np.median(plateau)), ">=", 0.05, tol),
    ]
    notes = [
        "definetti-merge thresholds are engineering targets for the default "
        "grid, not derived constants"
    ]
    return checks, notes


def _real_counterexample(dim, trials, seed, tol):
    rep = definetti.real_counterexample(2)
    checks = [
        _check("real_max_imag_entry", rep.max_imag_entry, "<=", 1e-12, tol),
        _check("real_transposition_dev", rep.transposition_deviation, "<=", 1e-9, tol),
        _check("real_witness_bound", rep.witness_bound, ">=", 0.05, tol),
        _check(
            "real_fit_residual_vs_witness",
            rep.real_fit_residual - rep.witness_bound,
            ">=",
            -1e-9,
            tol,
        ),
        _check("real_complex_fit_residual", rep.complex_fit_residual, "<=", 1e-9, tol),
    ]
    return checks, []


_COMMANDS = {
    "sqm-build": _sqm_build,
    "gleason-roundtrip": _gleason_roundtrip,
    "certainty-bound": _certainty_bound,
    "teleport": _teleport,
    "update-factor": _update_factor,
    "entropy-sweep": _entropy_sweep,
    "locality-reconstruct": _locality_reconstruct,
    "swap-counterexample": _swap_counterexample,
    "definetti-merge": _definetti_merge,
    "real-counterexample": _real_counterexample,
}

# Trial counts per section: (under ``all``, when run alone).  The ``all``
# counts are bounded to keep the whole run comfortably inside a few minutes.
_TRIALS = {
    "sqm-build": (1, 1),
    "gleason-roundtrip": (50, 100),
    "certainty-bound": (200, 1000),
    "teleport": (25, 100),
    "update-factor": (100, 500),
    "entropy-sweep": (100, 300),
    "locality-reconstruct": (20, 50),
    "swap-counterexample": (50, 100),
    "definetti-merge": (10, 20),
    "real-counterexample": (1, 1),
}


# entropy-sweep's 20000-sample Monte-Carlo holds O(D^2) memory per sample
# (363 MiB at D = 16), so larger dimensions are refused before any work.
MAX_DIM = 16


def _parse_tol(pairs):
    overrides = {}
    for raw in pairs or []:
        if "=" not in raw:
            raise ValueError(f"--tol expects NAME=VALUE, got {raw!r}")
        name, value = raw.split("=", 1)
        overrides[name.strip()] = float(value)
    return overrides


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
        p.add_argument("--tol", action="append", metavar="NAME=VALUE")
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
    try:
        overrides = _parse_tol(args.tol)
    except ValueError as exc:
        parser.error(str(exc))
    started = time.perf_counter()
    checks = []
    notes = []
    if args.command == "all":
        for name, fn in _COMMANDS.items():
            trials = args.trials if args.trials is not None else _TRIALS[name][0]
            section_checks, section_notes = fn(args.dim, trials, args.seed, overrides)
            checks.extend(section_checks)
            notes.extend(section_notes)
    else:
        fn = _COMMANDS[args.command]
        trials = args.trials if args.trials is not None else _TRIALS[args.command][1]
        checks, notes = fn(args.dim, trials, args.seed, overrides)
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
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "value", "op", "threshold", "pass"])
        for c in report["checks"]:
            writer.writerow([c["name"], repr(c["value"]), c["op"], repr(c["threshold"]), c["pass"]])
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
