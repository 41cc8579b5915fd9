"""Wall time of one regularized training step per proposal sample count.

The probe behind acceptance criterion 11 and its tests in `test_trainer.py`.
It times `calsbi.trainer.train_step`, looked up on the module at each call,
inside one `autodiff.workspace`, as `trainer.train` runs its steps.
"""

import time
from dataclasses import replace

import numpy as np

from calsbi import autodiff as ad
from calsbi import covreg, trainer
from calsbi.estimators import build_model
from calsbi.optim import AdamW
from calsbi.problems import problem_for_dataset


def measure_step_overhead(config, dataset, sample_counts=(1, 4, 16, 64),
                          steps=40, repeats=5, problem=None):
    """Seconds per regularized step of `config` for each sample count.

    Fresh model per count and repeat, a few warmup steps, then `steps` timed
    steps; the minimum over `repeats` windows is reported (the low-noise
    timing estimator). Repeats run round-robin over the counts, so a drift
    in machine speed lands on every count alike. Returns a list of
    (count, seconds_per_step) in the order of `sample_counts`.
    """
    if problem is None:
        problem = problem_for_dataset(dataset)
    timings = [[] for _ in sample_counts]
    for rep in range(repeats):
        for count, times in zip(sample_counts, timings):
            ss = np.random.SeedSequence((config.seed, count, rep))
            rng_init, rng_reg, rng_neg = [np.random.default_rng(c) for c in ss.spawn(3)]
            model = build_model(config.method, problem.prior, dataset.dim_x,
                                config.arch(), rng=rng_init)
            opt = AdamW(model.parameters(), lr=config.learning_rate,
                        weight_decay=config.weight_decay)
            reg = replace(config.reg or covreg.RegConfig(), num_samples=count)
            step = (model, opt, dataset.thetas[:config.batch_size],
                    dataset.xs[:config.batch_size], reg, config.clip_norm,
                    (rng_neg, rng_reg), problem.prior)
            with ad.workspace():
                for _ in range(3):
                    trainer.train_step(*step)
                start = time.perf_counter()
                for _ in range(steps):
                    trainer.train_step(*step)
                times.append((time.perf_counter() - start) / steps)
    return [(count, float(np.min(times)))
            for count, times in zip(sample_counts, timings)]
