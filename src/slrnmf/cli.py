"""Command-line interface.

Subcommands: ``synth`` writes a synthetic ground-truth instance,
``unmix`` runs the solver on an observation matrix, ``eval`` scores
estimated factors against references, and ``repro-sim`` chains all
three over a range of seeds and aggregates the outcome.

Exit codes: 0 on success, 2 when flags or input data fail validation,
1 when a run fails at computation or output time.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import initializers, io, metrics, solver, synth

__all__ = ["build_parser", "run", "main"]

SYNTH_OBSERVATIONS = "observations.csv"
SYNTH_ENDMEMBERS = "endmembers_true.csv"
SYNTH_ABUNDANCES = "abundances_true.csv"
SYNTH_REPORT = "truth.txt"

_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(solver.SolverConfig))


class ValidationError(Exception):
    """Bad flags or inputs; maps to exit code 2."""


def _add_solver_flags(p):
    p.add_argument("--r", type=int, default=None,
                   help="rank overestimate (number of factor columns)")
    p.add_argument("--delta", type=float, default=None,
                   help="group-sparsity weight (default: calibrated constant)")
    p.add_argument("--lambda1", type=float, default=None,
                   help="elementwise l1 weight on abundances (default: calibrated constant)")
    p.add_argument("--eta", type=float, default=None,
                   help="smoothing constant (default: scaled to the data)")
    p.add_argument("--max-iter", type=int, default=None,
                   help="outer iteration cap (default 500)")
    p.add_argument("--tol-rel-cost", type=float, default=None,
                   help="relative cost-change stopping tolerance (default 1e-6)")
    p.add_argument("--prune-tol", type=float, default=None,
                   help="relative joint-energy pruning threshold (default 1e-4)")
    p.add_argument("--beta-init", type=float, default=None,
                   help="initial extrapolation weight (default 1.0)")
    p.add_argument("--shrink", type=float, default=None,
                   help="line-search shrink factor (default 0.5)")
    p.add_argument("--max-backtracks", type=int, default=None,
                   help="line-search trial cap (default 20)")
    p.add_argument("--init", choices=("uniform", "vca"), default=None,
                   help="initialization strategy (default uniform)")


def _add_synth_flags(p):
    p.add_argument("--L", type=int, default=224, help="number of bands")
    p.add_argument("--K", type=int, default=500, help="number of pixels")
    p.add_argument("--N", type=int, default=4, help="number of endmembers")
    p.add_argument("--density", type=float, default=0.3,
                   help="fraction of nonzero abundance entries, in (0, 1]")
    p.add_argument("--sigma", type=float, default=1e-3,
                   help="additive Gaussian noise standard deviation")
    p.add_argument("--source", choices=("library-file", "synthetic-smooth"),
                   default="library-file", help="endmember source")
    p.add_argument("--library", default=None,
                   help="spectral library CSV (default: packaged library)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slrnmf",
        description="Blind hyperspectral unmixing with joint estimation of "
                    "the number of endmembers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic instance with "
                                     "known ground truth")
    _add_synth_flags(p)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--allow-negative", action="store_true",
                   help="keep noise-induced negative observations")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("unmix", help="estimate endmembers and abundances "
                                     "from an observation matrix")
    p.add_argument("--input", required=True, help="observation matrix CSV")
    p.add_argument("--layout", choices=("bands-by-pixels", "pixels-by-bands"),
                   default="bands-by-pixels", help="on-disk orientation")
    p.add_argument("--delimiter", default=",", help="field separator")
    p.add_argument("--header", action="store_true",
                   help="skip the first non-comment line")
    p.add_argument("--clamp-negatives", action="store_true",
                   help="clamp negative input entries to zero on load")
    _add_solver_flags(p)
    p.add_argument("--seed", type=int, default=None, help="initialization seed")
    p.add_argument("--from-report", default=None,
                   help="take config values from a previous run report "
                        "(explicit flags still win)")
    p.add_argument("--height", type=int, default=None,
                   help="image height for abundance maps")
    p.add_argument("--width", type=int, default=None,
                   help="image width for abundance maps")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(handler=cmd_unmix)

    p = sub.add_parser("eval", help="score estimated endmembers (and "
                                    "optionally abundances) against references")
    p.add_argument("--estimated", required=True, help="estimated endmembers CSV")
    p.add_argument("--reference", required=True, help="reference endmembers CSV")
    p.add_argument("--est-abundances", default=None,
                   help="estimated abundances CSV (pixels by endmembers)")
    p.add_argument("--ref-abundances", default=None,
                   help="reference abundances CSV (pixels by endmembers)")
    p.add_argument("--out", default=None, help="write metrics report here")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("repro-sim", help="synth + unmix + eval over several "
                                         "seeds with pinned defaults")
    _add_synth_flags(p)
    _add_solver_flags(p)
    p.add_argument("--n-seeds", type=int, default=10, help="number of seeds")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--allow-negative", action="store_true",
                   help="keep noise-induced negative observations")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(handler=cmd_repro_sim)

    return parser


def _do_synth(out_dir, l, k, n, density, sigma, seed, source, library, clamp):
    try:
        y, truth = synth.simulate(l, k, n, density, sigma, seed, source=source,
                                  library_path=library, clamp=clamp)
    except (OSError, ValueError) as exc:
        raise ValidationError(str(exc)) from None
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "observations": os.path.join(out_dir, SYNTH_OBSERVATIONS),
        "endmembers": os.path.join(out_dir, SYNTH_ENDMEMBERS),
        "abundances": os.path.join(out_dir, SYNTH_ABUNDANCES),
        "report": os.path.join(out_dir, SYNTH_REPORT),
    }
    io.save_matrix(paths["observations"], y)
    io.save_matrix(paths["endmembers"], truth.phi_true)
    io.save_matrix(paths["abundances"], truth.w_true)
    io.write_report(paths["report"], {
        "synth.bands": l,
        "synth.pixels": k,
        "synth.endmembers": n,
        "synth.density": float(density),
        "synth.sigma": float(sigma),
        "synth.seed": int(seed),
        "synth.source": source,
        "synth.clamped": bool(clamp),
    })
    return y, truth, paths


def cmd_synth(args):
    y, _, paths = _do_synth(args.out_dir, args.L, args.K, args.N, args.density,
                            args.sigma, args.seed, args.source, args.library,
                            clamp=not args.allow_negative)
    print("wrote %d x %d observations to %s" % (y.shape + (paths["observations"],)))
    print("ground truth: %s, %s, %s"
          % (paths["endmembers"], paths["abundances"], paths["report"]))
    return 0


def _config_from_report(path):
    try:
        values = io.read_report(path)
    except (OSError, ValueError) as exc:
        raise ValidationError("cannot read report %s: %s" % (path, exc)) from None
    picked = {}
    for key in _CONFIG_KEYS:
        if "config.%s" % key in values:
            picked[key] = values["config.%s" % key]
    init = values.get("config.init")
    clamp = values.get("config.clamp_negatives")
    return picked, init, clamp


def _merge_config(args):
    """Defaults < report < explicit flags; returns (SolverConfig, init, clamp)."""
    base = {}
    init = None
    clamp = None
    from_report = getattr(args, "from_report", None)
    if from_report:
        base, init, clamp = _config_from_report(from_report)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            base[key] = flag
    if getattr(args, "init", None) is not None:
        init = args.init
    if getattr(args, "clamp_negatives", False):
        clamp = True
    if "r" not in base:
        raise ValidationError("--r is required (or provide --from-report)")
    try:
        config = solver.SolverConfig(**base)
    except (TypeError, ValueError) as exc:
        raise ValidationError(str(exc)) from None
    return config, (init or "uniform"), bool(clamp)


def _do_unmix(y, config, init, out_dir, height=None, width=None,
              extra_report=None):
    l, k = y.shape
    try:
        if init == "vca":
            phi0 = initializers.init_vca(y, config.r, config.seed)
            w0 = initializers.nnls_abundances(y, phi0)
        else:
            phi0, w0 = initializers.init_uniform(l, k, config.r, config.seed)
        phi, w, report = solver.solve(y, phi0, w0, config)
        values = io.report_values(report)
        values["config.init"] = init
        if extra_report:
            values.update(extra_report)
        paths = io.save_results(phi, w, values, out_dir, height=height, width=width)
    except ValueError as exc:
        # input-contract violations; numerical failures arrive as
        # solver.SolverDiverged, an ArithmeticError, and exit 1
        raise ValidationError(str(exc)) from None
    return phi, w, report, paths


def cmd_unmix(args):
    config, init, clamp = _merge_config(args)
    try:
        y = io.load_matrix(args.input, layout=args.layout,
                           delimiter=args.delimiter, header=args.header)
    except (OSError, ValueError) as exc:
        raise ValidationError(str(exc)) from None
    if clamp:
        y = np.maximum(y, 0.0)
    elif y.min() < 0.0:
        raise ValidationError(
            "%s contains negative entries; pass --clamp-negatives to zero them"
            % args.input)
    if (args.height is None) != (args.width is None):
        raise ValidationError("--height and --width must be given together")
    if args.height is not None and args.height * args.width != y.shape[1]:
        raise ValidationError(
            "--height * --width = %d does not match %d pixels"
            % (args.height * args.width, y.shape[1]))
    phi, w, report, paths = _do_unmix(
        y, config, init, args.out_dir, height=args.height, width=args.width,
        extra_report={"config.clamp_negatives": clamp})
    print("input: %d x %d (bands x pixels)" % y.shape)
    print("estimated number of endmembers: %d (from r = %d)"
          % (report.final_effective_rank, report.config.r))
    if report.converged:
        state = "converged"
    elif report.iterations < report.config.max_iter:
        state = "stalled"
    else:
        state = "iteration cap reached"
    print("iterations: %d (%s); final cost %.9g"
          % (report.iterations, state, report.final_cost))
    print("wrote %s, %s, %s" % (paths["endmembers"], paths["abundances"],
                                paths["report"]))
    return 0


def _load_for_eval(path, what):
    try:
        return io.load_matrix(path)
    except (OSError, ValueError) as exc:
        raise ValidationError("%s: %s" % (what, exc)) from None


def cmd_eval(args):
    phi_est = _load_for_eval(args.estimated, "estimated endmembers")
    phi_ref = _load_for_eval(args.reference, "reference endmembers")
    if (args.est_abundances is None) != (args.ref_abundances is None):
        raise ValidationError(
            "--est-abundances and --ref-abundances must be given together")
    w_est = w_ref = None
    if args.est_abundances is not None:
        w_est = _load_for_eval(args.est_abundances, "estimated abundances")
        w_ref = _load_for_eval(args.ref_abundances, "reference abundances")
    try:
        result = metrics.evaluate_unmixing(phi_est, phi_ref, w_est, w_ref)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    _print_eval(result, phi_est.shape[1], phi_ref.shape[1])
    if args.out:
        io.write_report(args.out, _metrics_values(result))
        print("wrote %s" % args.out)
    return 0


def _metrics_values(result):
    values = {
        "metrics.matched_pairs": int(result.permutation.shape[0]),
        "metrics.permutation_estimated": result.permutation[:, 0],
        "metrics.permutation_reference": result.permutation[:, 1],
        "metrics.per_pair_sam_degrees": result.per_pair_sam_degrees,
        "metrics.mean_sam_degrees": result.mean_sam_degrees,
        "metrics.unmatched_estimated": result.unmatched_estimated,
        "metrics.unmatched_reference": result.unmatched_reference,
        "metrics.rank_correct": result.rank_correct,
        "metrics.abundance_rmse": result.abundance_rmse,
    }
    if result.abundance_scales is not None:
        values["metrics.abundance_scales"] = result.abundance_scales
    return values


def _print_eval(result, n_est, n_ref):
    print("estimated columns: %d, reference columns: %d, matched pairs: %d"
          % (n_est, n_ref, result.permutation.shape[0]))
    print("mean spectral angle: %.4f deg (per pair: %s)"
          % (result.mean_sam_degrees,
             ", ".join("%.4f" % v for v in result.per_pair_sam_degrees)))
    print("rank correct: %s" % ("yes" if result.rank_correct else "no"))
    if result.abundance_rmse is not None:
        print("abundance RMSE (scale-resolved): %.6g" % result.abundance_rmse)


def cmd_repro_sim(args):
    if args.n_seeds < 1:
        raise ValidationError("--n-seeds must be >= 1, got %d" % args.n_seeds)
    if args.r is None:
        args.r = 10
    config, init, _ = _merge_config(args)

    seeds = list(range(args.seed, args.seed + args.n_seeds))
    rows = []
    for s in seeds:
        seed_dir = os.path.join(args.out_dir, "seed_%d" % s)
        y, truth, synth_paths = _do_synth(
            os.path.join(seed_dir, "synth"), args.L, args.K, args.N,
            args.density, args.sigma, s, args.source, args.library,
            clamp=not args.allow_negative)
        run_config = dataclasses.replace(config, seed=s)
        phi, w, report, _ = _do_unmix(
            y, run_config, init, os.path.join(seed_dir, "unmix"),
            extra_report={"config.clamp_negatives": False})
        if report.final_effective_rank > 0:
            result = metrics.evaluate_unmixing(phi, truth.phi_true, w, truth.w_true)
            mean_sam = result.mean_sam_degrees
            rmse = result.abundance_rmse
            io.write_report(os.path.join(seed_dir, "eval_report.txt"),
                            _metrics_values(result))
        else:
            mean_sam = None
            rmse = None
        rows.append((s, report.final_effective_rank, mean_sam, rmse))

    recovered = [row for row in rows if row[1] == args.N]
    rate = len(recovered) / len(rows)
    mean_sam = (float(np.mean([row[2] for row in recovered]))
                if recovered else None)
    mean_rmse = (float(np.mean([row[3] for row in recovered]))
                 if recovered and recovered[0][3] is not None else None)

    print("seed  rank  mean_sam_deg  abundance_rmse")
    for s, rank, sam, rmse in rows:
        print("%4d  %4d  %12s  %14s"
              % (s, rank,
                 "-" if sam is None else "%.4f" % sam,
                 "-" if rmse is None else "%.6g" % rmse))
    print("rank-recovery rate: %.2f (%d/%d at target %d)"
          % (rate, len(recovered), len(rows), args.N))
    if mean_sam is not None:
        print("mean SAM over recovered seeds: %.4f deg" % mean_sam)
    if mean_rmse is not None:
        print("mean abundance RMSE over recovered seeds: %.6g" % mean_rmse)

    os.makedirs(args.out_dir, exist_ok=True)
    aggregate = {
        "repro.seeds": seeds,
        "repro.target_rank": args.N,
        "repro.ranks": [row[1] for row in rows],
        "repro.mean_sam_degrees": [row[2] for row in rows],
        "repro.abundance_rmse": [row[3] for row in rows],
        "repro.rank_recovery_rate": rate,
        "repro.mean_sam_recovered": mean_sam,
        "repro.mean_rmse_recovered": mean_rmse,
        "repro.bands": args.L,
        "repro.pixels": args.K,
        "repro.density": args.density,
        "repro.sigma": args.sigma,
        "repro.init": init,
        "repro.r": config.r,
    }
    io.write_report(os.path.join(args.out_dir, "aggregate.txt"), aggregate)
    print("wrote %s" % os.path.join(args.out_dir, "aggregate.txt"))
    return 0


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
