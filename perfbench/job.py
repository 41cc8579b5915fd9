"""One benchmark job in a fresh process: the calls `calsbi train` or
`calsbi eval` makes, in the same order, with timestamps between them.

Usage: python3 perfbench/job.py SPEC.json

SPEC holds `argv` (a `calsbi` command line, parsed by calsbi's own parser),
`grid_pairs` (eval only: the grid path audits the first grid_pairs pairs of
the file, all of them when null), `trace` and `result` (the path the job
writes its JSON result to). Timestamps use time.monotonic(), which on Linux
is one clock for all processes, so the parent can subtract its spawn time.

The sequences below mirror calsbi.cli.cmd_train and cmd_eval; the parity
check in run.py compares their output files byte for byte with the real
commands'. Checks that need the in-memory results run after the last output
is written, outside every timed interval.
"""

import json
import os
import resource
import sys
import time
import traceback


def run_train(args, stop):
    import numpy as np
    from calsbi import cli, problems, trainer

    start = time.perf_counter()
    ds = problems.load_dataset(args.data)
    problem = cli.problem_for_dataset(ds)
    config = trainer.TrainConfig(
        method=args.method, problem_id=ds.problem_id, epochs=args.epochs,
        batch_size=args.batch, learning_rate=args.lr,
        weight_decay=args.weight_decay, clip_norm=args.clip,
        seed=args.seed, reg=cli._reg_config_from(args))
    first = time.monotonic()
    result = trainer.train(config, ds, problem=problem, out_dir=args.out_dir)
    train_s = time.monotonic() - first
    resolved = {"method": args.method, "data": args.data, "out_dir": args.out_dir,
                "reg": args.reg, "loss_form": args.loss_form,
                "lambda": "" if config.reg is None else config.reg.weight,
                "L": args.num_samples, "epochs": args.epochs, "batch": args.batch,
                "lr": args.lr, "weight_decay": args.weight_decay,
                "clip": args.clip, "seed": args.seed,
                "levels": args.levels, "ste_temperature": args.ste_temperature,
                "sort_relaxation": args.sort_relaxation}
    cli.write_manifest(os.path.join(args.out_dir, "manifest.txt"), "train",
                       resolved, time.perf_counter() - start)
    last = time.monotonic()
    stop()

    def reloads_exactly(path, params):
        model, _ = trainer.load_checkpoint(path)
        loaded = {k: v.data for k, v in model.parameters().items()}
        return (loaded.keys() == params.keys()
                and all(loaded[k].tobytes() == np.asarray(params[k]).tobytes()
                        for k in params))

    return first, last, {
        "train_s": train_s,
        "val_loss": result.report.val_loss[-1],
        "reload_exact": (
            reloads_exactly(result.report.checkpoint_path,
                            {k: v.data for k, v in result.model.parameters().items()})
            and reloads_exactly(result.report.best_checkpoint_path,
                                result.best_params)),
    }


def run_eval(args, grid_pairs, rec, stop):
    import numpy as np
    from calsbi import cli, covreg, diagnostics, problems, svgplot, trainer

    start = time.perf_counter()
    ds = problems.load_dataset(args.data)
    problem = cli.problem_for_dataset(ds)
    if args.oracle:
        posterior = problems.analytic_posterior(problem)
    else:
        posterior, _ = trainer.load_checkpoint(args.checkpoint)
    os.makedirs(args.out_dir, exist_ok=True)
    levels = np.linspace(args.level_min, args.level_max, args.levels)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    proposal = covreg.PriorProposal(problem.prior)

    first = time.monotonic()
    root = rec.begin("bench.eval") if rec else None
    out = {}
    curves, metrics, alphas = [], {}, None
    if args.ecp in ("rank", "both"):
        t = time.monotonic()
        alphas = diagnostics.rank_statistic_sample(
            posterior, ds.thetas, ds.xs, args.num_samples, proposal, rng)
        out["rank_s"], out["rank_pairs"] = time.monotonic() - t, ds.count
        curve = diagnostics.curve_from_rank_statistics(alphas, levels,
                                                       args.num_samples)
        curves.append(curve)
        cli._metrics_for_curve(curve, metrics)
        metrics["ks_alpha"] = diagnostics.ks_statistic(alphas)
    if args.ecp in ("grid", "both"):
        g = ds.count if grid_pairs is None else min(grid_pairs, ds.count)
        t = time.monotonic()
        curve = diagnostics.ecp_grid_hpdr(posterior, ds.thetas[:g], ds.xs[:g],
                                          problem, levels=levels,
                                          resolution=args.grid_res)
        out["grid_s"], out["grid_pairs"] = time.monotonic() - t, g
        curves.append(curve)
        cli._metrics_for_curve(curve, metrics)

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
    cli.write_manifest(os.path.join(args.out_dir, "manifest.txt"), "eval",
                       resolved, time.perf_counter() - start)
    last = time.monotonic()
    if rec:
        rec.end(root)
    stop()

    out["elp"] = report.value
    if alphas is not None and "grid_pairs" in out:
        # rank-based ECP on exactly the pairs the grid audited
        shared = diagnostics.curve_from_rank_statistics(
            alphas[:out["grid_pairs"]], levels)
        out["shared_rank_ecp"] = shared.ecp.tolist()
    return first, last, out


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    result = {"ok": False}
    try:
        from calsbi import cli
        rec, stop = None, lambda: None
        if spec["trace"]:
            import spans
            rec = spans.Recorder()
            stop = spans.install(rec)
        args = cli.build_parser().parse_args(spec["argv"])
        if args.command == "train":
            first, last, out = run_train(args, stop)
            root = "trainer.train"
        else:
            first, last, out = run_eval(args, spec.get("grid_pairs"), rec, stop)
            root = "bench.eval"
        if rec:
            out["trace"] = spans.summarize(
                rec, root, getattr(args, "grid_res", None))
        result.update(out, ok=True, first_compute=first, last_output=last)
    except Exception:                    # reported to the parent, which fails the job
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
