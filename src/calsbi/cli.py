"""Command-line surface: simulate datasets, train, evaluate, run the demo.

Every command writes one flat key=value manifest beside its outputs holding
the fully resolved configuration, so a run can be reproduced exactly.
Numeric CSV output uses 17 significant digits. Exit codes: 0 success,
2 usage/input error, 3 numeric abort.
"""

import argparse
import os
import sys
import time

import numpy as np

from . import __version__, covreg, diagnostics, svgplot, trainer
from .problems import (load_dataset, mixture_demo_densities, oracle_posterior,
                       problem_for_dataset, simulate_dataset)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def write_manifest(path, command, resolved, wall_time):
    lines = [f"command={command}", f"tool_version={__version__}"]
    for key in sorted(resolved):
        lines.append(f"{key}={resolved[key]}")
    lines.append(f"wall_time_s={wall_time:.6g}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def interior_levels(count):
    """`count` evenly spaced levels strictly inside (0, 1)."""
    return tuple(((np.arange(1, count + 1)) / (count + 1)).tolist())


# -- commands --------------------------------------------------------------------


def cmd_simulate(args):
    start = time.perf_counter()
    ds = simulate_dataset(args.problem, args.n, args.seed)
    ds.save(args.out)
    if args.csv:
        ds.to_csv(args.csv)
    write_manifest(args.out + ".manifest", "simulate",
                   {"problem": args.problem, "n": args.n, "seed": args.seed,
                    "out": args.out, "csv": args.csv or ""},
                   time.perf_counter() - start)
    print(f"wrote {args.out} ({ds.count} rows, problem {ds.problem_id})")
    return EXIT_OK


def _reg_config_from(args):
    if args.reg == "none":
        if args.weight is not None:
            print("warning: --lambda ignored because --reg none", file=sys.stderr)
        return None
    return covreg.RegConfig(
        mode=args.reg,
        loss_form=args.loss_form,
        weight=5.0 if args.weight is None else args.weight,
        num_samples=args.num_samples,
        levels=interior_levels(args.levels),
        temperature=args.ste_temperature,
        sort_relaxation=args.sort_relaxation,
    )


def cmd_train(args):
    start = time.perf_counter()
    ds = load_dataset(args.data)
    problem = problem_for_dataset(ds)
    config = trainer.TrainConfig(
        method=args.method, problem_id=ds.problem_id, epochs=args.epochs,
        batch_size=args.batch, learning_rate=args.lr,
        weight_decay=args.weight_decay, clip_norm=args.clip,
        seed=args.seed, reg=_reg_config_from(args))
    result = trainer.train(config, ds, problem=problem, out_dir=args.out_dir)
    resolved = {"method": args.method, "data": args.data, "out_dir": args.out_dir,
                "reg": args.reg, "loss_form": args.loss_form,
                "lambda": "" if config.reg is None else config.reg.weight,
                "L": args.num_samples, "epochs": args.epochs, "batch": args.batch,
                "lr": args.lr, "weight_decay": args.weight_decay,
                "clip": args.clip, "seed": args.seed,
                "levels": args.levels, "ste_temperature": args.ste_temperature,
                "sort_relaxation": args.sort_relaxation}
    write_manifest(os.path.join(args.out_dir, "manifest.txt"), "train",
                   resolved, time.perf_counter() - start)
    report = result.report
    print(f"trained {args.method} for {config.epochs} epochs; final base loss "
          f"{report.base_loss[-1]:.5g}; checkpoint {report.checkpoint_path}")
    return EXIT_OK


def _metrics_for_curve(curve, metrics):
    tag = curve.method.replace("-", "_")
    metrics[f"auc_{tag}"] = diagnostics.coverage_auc(curve)
    metrics[f"calibration_error_{tag}"] = diagnostics.calibration_error(curve)
    metrics[f"conservativeness_error_{tag}"] = diagnostics.conservativeness_error(curve)


def cmd_eval(args):
    start = time.perf_counter()
    if args.oracle == bool(args.checkpoint):
        print("error: pass exactly one of --checkpoint and --oracle", file=sys.stderr)
        return EXIT_USAGE
    levels = np.linspace(args.level_min, args.level_max, args.levels)
    if not (0.0 <= levels[0] and levels[-1] <= 1.0 and np.all(np.diff(levels) > 0)):
        print(f"error: levels must increase strictly within [0, 1]; got "
              f"--level-min {args.level_min} --level-max {args.level_max} "
              f"--levels {args.levels}", file=sys.stderr)
        return EXIT_USAGE
    if args.sbc_bins < 2:
        print(f"error: --sbc-bins must be >= 2, got {args.sbc_bins}", file=sys.stderr)
        return EXIT_USAGE
    ds = load_dataset(args.data)
    if args.ecp in ("grid", "both"):
        diagnostics.require_grid_dim(ds.dim_theta)
    problem = problem_for_dataset(ds)
    if args.oracle:
        posterior = oracle_posterior(problem)
    else:
        posterior, blob = trainer.load_checkpoint(args.checkpoint)
        trained = (blob["train"]["problem_id"], posterior.dim_theta, posterior.dim_x)
        audited = (ds.problem_id, ds.dim_theta, ds.dim_x)
        if trained != audited:
            raise ValueError(f"{args.checkpoint} was trained on (problem, "
                             f"dim_theta, dim_x) {trained}, but {args.data} "
                             f"holds {audited}")
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    os.makedirs(args.out_dir, exist_ok=True)
    proposal = covreg.PriorProposal(problem.prior)

    curves = []
    metrics = {}
    alphas = None
    if args.ecp in ("rank", "both"):
        alphas = diagnostics.rank_statistic_sample(
            posterior, ds.thetas, ds.xs, args.num_samples, proposal, rng)
        curve = diagnostics.curve_from_rank_statistics(alphas, levels,
                                                       args.num_samples)
        curves.append(curve)
        _metrics_for_curve(curve, metrics)
        metrics["ks_alpha"] = diagnostics.ks_statistic(alphas)
    if args.ecp in ("grid", "both"):
        curve = diagnostics.ecp_grid_hpdr(posterior, ds.thetas, ds.xs, problem,
                                          levels=levels, resolution=args.grid_res)
        curves.append(curve)
        _metrics_for_curve(curve, metrics)

    report = diagnostics.expected_log_posterior(posterior, ds.thetas, ds.xs,
                                                prior=problem.prior)
    metrics["expected_log_posterior"] = report.value
    metrics["expected_log_posterior_normalized"] = float(report.normalized)
    metrics["expected_log_posterior_excluded"] = report.excluded
    metrics["prior_expected_log_posterior"] = report.prior_baseline

    diagnostics.write_coverage_csv(os.path.join(args.out_dir, "coverage.csv"), curves)
    diagnostics.write_metrics_csv(os.path.join(args.out_dir, "metrics.csv"), metrics)
    if alphas is not None:
        diagnostics.write_sbc_csv(os.path.join(args.out_dir, "sbc.csv"),
                                  diagnostics.sbc_histogram(alphas, bins=args.sbc_bins))
    svgplot.coverage_plot(os.path.join(args.out_dir, "coverage.svg"), curves)
    resolved = {"checkpoint": args.checkpoint or "", "data": args.data,
                "oracle": args.oracle, "levels": args.levels,
                "level_min": args.level_min, "level_max": args.level_max,
                "ecp": args.ecp, "L": args.num_samples, "grid_res": args.grid_res,
                "seed": args.seed, "out_dir": args.out_dir,
                "sbc_bins": args.sbc_bins}
    write_manifest(os.path.join(args.out_dir, "manifest.txt"), "eval",
                   resolved, time.perf_counter() - start)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g}")
    return EXIT_OK


def cmd_demo(args):
    start = time.perf_counter()
    os.makedirs(args.out_dir, exist_ok=True)
    report = diagnostics.mixture_demo(n_samples=args.n, level=args.level,
                                      seed=args.seed, self_test=args.self_test)
    black, red = mixture_demo_densities()
    span = np.linspace(-5.0, 6.0, 1101)
    with open(os.path.join(args.out_dir, "densities.csv"), "w") as f:
        f.write("t,black,red\n")
        for t, b, r in zip(span, black.pdf(span), red.pdf(span)):
            f.write(f"{t:.17g},{b:.17g},{r:.17g}\n")
    with open(os.path.join(args.out_dir, "segments.csv"), "w") as f:
        f.write("lo,hi\n")
        for lo, hi in report.segments:
            f.write(f"{lo:.17g},{hi:.17g}\n")
    diagnostics.write_metrics_csv(
        os.path.join(args.out_dir, "demo_metrics.csv"),
        {"level": report.level, "ecp": report.ecp,
         "n_samples": report.n_samples, "segments": len(report.segments),
         "self_test": float(report.self_test)})
    svgplot.density_plot(
        os.path.join(args.out_dir, "demo.svg"), span,
        [("black", black.pdf(span)), ("red", red.pdf(span))],
        segments=report.segments,
        title=f"coverage of the narrow density at level {args.level}")
    write_manifest(os.path.join(args.out_dir, "manifest.txt"), "demo-mixture",
                   {"level": args.level, "n": args.n, "seed": args.seed,
                    "self": args.self_test, "out_dir": args.out_dir},
                   time.perf_counter() - start)
    print(f"empirical coverage at level {report.level}: {report.ecp:.4f} "
          f"({len(report.segments)} region segments)")
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="calsbi",
        description="Simulation-based inference with coverage-calibrated "
                    "posterior estimators.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", default=None,
                        help="optional key=value defaults file; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw (theta, x) pairs into a dataset file")
    p.add_argument("--problem", default="gaussian-linear")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None, help="also export rows as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train an estimator on a dataset")
    p.add_argument("--method", choices=("nre", "npe"), required=True)
    p.add_argument("--reg", choices=("none", "calibration", "conservative"),
                   default="conservative")
    p.add_argument("--loss-form", choices=("sorting", "direct"), default="sorting")
    p.add_argument("--lambda", dest="weight", type=float, default=None,
                   help="regularizer weight (default 5)")
    p.add_argument("--L", dest="num_samples", type=positive_int, default=16,
                   help="proposal draws per pair in the regularizer")
    p.add_argument("--epochs", type=positive_int, default=500)
    p.add_argument("--batch", type=positive_int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--clip", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=positive_int, default=19,
                   help="level count for the direct loss form")
    p.add_argument("--ste-temperature", type=float, default=1.0)
    p.add_argument("--sort-relaxation", type=float, default=0.0)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="coverage and density diagnostics")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--oracle", action="store_true",
                   help="evaluate the problem's exact posterior instead: the "
                        "closed form, or prior x likelihood up to a constant "
                        "(expected_log_posterior_normalized = 0)")
    p.add_argument("--data", required=True)
    p.add_argument("--levels", type=positive_int, default=19)
    p.add_argument("--level-min", type=float, default=0.05)
    p.add_argument("--level-max", type=float, default=0.95)
    p.add_argument("--ecp", choices=("rank", "grid", "both"), default="rank")
    p.add_argument("--L", dest="num_samples", type=positive_int, default=1024)
    p.add_argument("--grid-res", type=positive_int, default=512)
    p.add_argument("--sbc-bins", type=positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("demo-mixture",
                       help="1D mixture coverage demo with shaded density regions")
    p.add_argument("--level", type=float, default=0.9)
    p.add_argument("--n", type=positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--self", dest="self_test", action="store_true",
                   help="audit the wide density against itself")
    p.add_argument("--out-dir", default="mixture-demo")
    p.set_defaults(func=cmd_demo)
    return parser


def _apply_config_file(parser, argv):
    """Turn the --config file's key=value lines into parser defaults.

    The file is named by `--config PATH` or `--config=PATH`; a key is a
    flag's name (`lambda`, `weight-decay`) or its destination (`weight`).
    A missing path, a key that names no flag of any command, or a value its
    flag's type rejects raises ValueError naming the file and the key.
    """
    for idx, arg in enumerate(argv):
        if arg == "--config":
            path = argv[idx + 1] if idx + 1 < len(argv) else ""
            break
        if arg.startswith("--config="):
            path = arg[len("--config="):]
            break
    else:
        return argv
    if not path:
        raise ValueError("--config needs a file path")
    subparsers = parser._subparsers._group_actions[0].choices.values()
    dests = {}
    for action in (a for sp in subparsers for a in sp._actions):
        if action.dest != "help":
            for name in (action.dest, *action.option_strings):
                dests[name.lstrip("-").replace("-", "_")] = action.dest
    defaults = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in dests:
                raise ValueError(f"config file {path}: unknown key {key!r}")
            defaults[dests[key]] = value.strip()
    for subparser in subparsers:
        typed = {}
        for action in subparser._actions:
            if action.dest not in defaults:
                continue
            raw = defaults[action.dest]
            if isinstance(action.default, bool):
                typed[action.dest] = raw.lower() in ("1", "true", "yes", "on")
            elif action.type is not None:
                try:
                    typed[action.dest] = action.type(raw)
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise ValueError(f"config file {path}: bad value for "
                                     f"{action.dest}={raw!r}: {exc}") from exc
            else:
                typed[action.dest] = raw
            action.required = False
        subparser.set_defaults(**typed)
    return argv


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
    except OSError as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except trainer.TrainAbort as exc:
        print(f"error: training aborted: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FloatingPointError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
