"""What the benchmark runs and reports: workloads, metrics, layer map.

BENCHMARK.json at the repository root repeats WORKLOADS' reasons and the
END_TO_END and PER_LAYER lists; tests/test_spec.py keeps the two in step.
"""

# Input sizes and run lengths. They are part of the benchmark's definition:
# change them and earlier figures no longer compare.
BUDGET = 1024            # training pairs per dataset (`calsbi simulate --n`)
BATCH = 128
SHARDS = 4               # distinct input sets per run; jobs cycle over them
MIN_JOBS = SHARDS + 1    # so that every shard runs once and one repeats

_TRAIN_NPE_REG = ["train", "--method", "npe", "--reg", "conservative",
                  "--lambda", "5", "--L", "16", "--batch", str(BATCH)]

WORKLOADS = {
    "train-npe-reg": {
        "why": "The paper's recipe: coupling flow with the conservative sorting "
               "regularizer (lambda 5, L 16). Every training layer is busy.",
        "kind": "train",
        "argv": _TRAIN_NPE_REG,
        "epochs": 40,
    },
    "train-nre-plain": {
        "why": "Ratio model on the same data and batch without the regularizer: "
               "bypasses covreg and the flow, and optim takes a larger share.",
        "kind": "train",
        "argv": ["train", "--method", "nre", "--reg", "none", "--batch", str(BATCH)],
        "epochs": 150,
    },
    "eval-flow": {
        "why": "calsbi eval --ecp both on a trained flow: rank ECP at L 1024 over "
               "many pairs, grid-HPDR at 512^2 over a few. No backward pass.",
        "kind": "eval",
        "argv": ["eval", "--ecp", "both", "--L", "1024", "--grid-res", "512"],
        "rank_pairs": 2048,
        # grid-HPDR on a flow embeds all 512^2 tiled rows of each pair
        # (0.45 s and about 130 MB a pair), so it audits few pairs
        "grid_pairs": 4,
        "checkpoint": {"argv": _TRAIN_NPE_REG, "epochs": 40},
    },
    "eval-oracle-grid": {
        "why": "Grid-HPDR at 512^2 plus rank ECP on the analytic oracle: the "
               "sort/cumsum reduction in diagnostics dominates; coverage is known.",
        "kind": "eval",
        "argv": ["eval", "--oracle", "--ecp", "both", "--L", "1024",
                 "--grid-res", "512"],
        "rank_pairs": 4096,
        "grid_pairs": 256,
    },
}

# Metrics every workload reports with --trace 0 (BENCHMARK.json end_to_end).
# On a shared 2-vCPU machine the run-to-run spread (IQR/median) of wall_s is
# 0.05-0.18, because the machine's own speed drifts by up to 40% over
# minutes, hence the largest bound allowed; peak RSS repeats to 0.3%.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Metrics printed for the workloads they apply to but kept out of
# BENCHMARK.json: not every workload has them, or their seed-to-seed spread
# exceeds any bound BENCHMARK.json allows (see perfbench/README.md).
WORKLOAD_METRICS = [
    {"name": "val_loss", "unit": "nats", "better": "lower",
     "workloads": ["train-npe-reg", "train-nre-plain", "eval-flow",
                   "eval-oracle-grid"]},
    {"name": "train_pairs_per_s", "unit": "1/s", "better": "higher",
     "workloads": ["train-npe-reg", "train-nre-plain"]},
    {"name": "rank_pairs_per_s", "unit": "1/s", "better": "higher",
     "workloads": ["eval-flow", "eval-oracle-grid"]},
    {"name": "grid_pairs_per_s", "unit": "1/s", "better": "higher",
     "workloads": ["eval-flow", "eval-oracle-grid"]},
    {"name": "calib_err_rank", "unit": "1", "better": "lower",
     "workloads": ["eval-flow", "eval-oracle-grid"]},
    {"name": "calib_err_grid", "unit": "1", "better": "lower",
     "workloads": ["eval-flow", "eval-oracle-grid"]},
    {"name": "failed_frac", "unit": "1", "better": "lower",
     "workloads": list(WORKLOADS)},
]

TRAIN = ["train-npe-reg", "train-nre-plain"]
EVAL = ["eval-flow", "eval-oracle-grid"]
ALL = TRAIN + EVAL

# Per-layer metrics of the traced run: (name, unit, better, the end-to-end
# metrics it should move, the workloads on which it should move them).
PER_LAYER = [
    ("autodiff.backward_ms_per_step", "ms", "lower", "train_pairs_per_s", TRAIN),
    ("autodiff.nodes_per_step", "count", "lower", "train_pairs_per_s", TRAIN),
    ("estimators.density_ms_per_step", "ms", "lower", "train_pairs_per_s", TRAIN),
    ("estimators.embed_calls_per_step", "count", "lower", "train_pairs_per_s", TRAIN),
    ("estimators.density_rows_per_pair", "count", "lower",
     "rank_pairs_per_s", ["eval-flow"]),
    ("estimators.density_rows_per_s", "1/s", "higher",
     "rank_pairs_per_s", ["eval-flow"]),
    ("estimators.embed_rows_per_obs", "count", "lower",
     "grid_pairs_per_s", ["eval-flow"]),
    ("estimators.log_density_grid_s", "s", "lower",
     "grid_pairs_per_s", ["eval-oracle-grid"]),
    ("covreg.proposal_ms_per_step", "ms", "lower", "train_pairs_per_s/rank_pairs_per_s",
     ["train-npe-reg", "eval-flow"]),
    ("covreg.rank_core_ms_per_step", "ms", "lower", "train_pairs_per_s/rank_pairs_per_s",
     ["train-npe-reg", "eval-flow"]),
    ("covreg.sort_loss_ms_per_step", "ms", "lower", "train_pairs_per_s",
     ["train-npe-reg"]),
    ("covreg.degenerate_frac", "1", "lower", "train_pairs_per_s/rank_pairs_per_s",
     ["train-npe-reg", "eval-flow"]),
    ("optim.adamw_ms_per_step", "ms", "lower", "train_pairs_per_s", TRAIN),
    ("optim.clip_ms_per_step", "ms", "lower", "train_pairs_per_s", TRAIN),
    ("optim.clip_rate", "1", "lower", "train_pairs_per_s", TRAIN),
    ("trainer.step_ms.p50", "ms", "lower", "train_pairs_per_s", TRAIN),
    ("trainer.step_ms.p90", "ms", "lower", "train_pairs_per_s", TRAIN),
    ("trainer.steps", "count", "higher", "train_pairs_per_s", TRAIN),
    ("trainer.base_loss_ms_per_step", "ms", "lower", "train_pairs_per_s", TRAIN),
    ("trainer.validation_ms_per_epoch", "ms", "lower", "wall_s", TRAIN),
    ("trainer.checkpoint_write_s", "s", "lower", "wall_s", ALL),
    ("trainer.checkpoint_read_s", "s", "lower", "setup_s", ALL),
    ("problems.load_dataset_s", "s", "lower", "setup_s", ALL),
    ("problems.bytes_read", "B", "lower", "setup_s", ALL),
    ("diagnostics.grid_reduce_s", "s", "lower", "grid_pairs_per_s", EVAL),
    ("diagnostics.grid_cells_per_s", "1/s", "higher", "grid_pairs_per_s", EVAL),
    ("diagnostics.rank_sample_s", "s", "lower", "rank_pairs_per_s", EVAL),
    ("diagnostics.write_s", "s", "lower", "wall_s", EVAL),
    ("svgplot.plot_s", "s", "lower", "wall_s", EVAL),
    ("trace.coverage_pct", "%", "higher", "none", ALL),
    ("trace.overhead_pct", "%", "lower", "none", ALL),
]
