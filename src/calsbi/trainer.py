"""End-to-end training: base losses plus the weighted coverage regularizer.

The objective is base + weight * regularizer, minimized with AdamW after
global gradient-norm clipping. Training is deterministic given (config,
dataset): all randomness flows from fixed substreams of the config seed.
Checkpoints are a binary format with bit-exact parameter round-trips; a
checkpoint names its problem, and its prior comes from the registry.
"""

import json
import os
import struct
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import covreg
from .autodiff import Value
from .estimators import build_model
from .optim import AdamW, clip_grad_norm
from .problems import BoundedReader, problem_for, problem_for_dataset

CHECKPOINT_MAGIC = b"CALC"
CHECKPOINT_VERSION = 2


class TrainAbort(RuntimeError):
    """Raised when the objective goes non-finite; carries epoch/batch."""

    def __init__(self, epoch, batch, message):
        super().__init__(f"epoch {epoch}, batch {batch}: {message}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    method: str = "npe"                   # nre | npe
    problem_id: str = "gaussian-linear"
    epochs: int = 500
    batch_size: int = 128
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    clip_norm: float = 5.0
    seed: int = 0
    validation_fraction: float = 0.1
    hidden: int = 8
    embed_dim: int = 8
    blocks: int = 2
    reg: covreg.RegConfig = None          # None disables the regularizer

    def __post_init__(self):
        if self.method not in ("nre", "npe"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.epochs < 1 or self.batch_size < 2:
            raise ValueError("need epochs >= 1 and batch_size >= 2")
        if not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in [0, 1)")

    def arch(self):
        return {"hidden": self.hidden, "embed_dim": self.embed_dim,
                "blocks": self.blocks}


@dataclass
class TrainReport:
    base_loss: list = field(default_factory=list)
    reg_loss: list = field(default_factory=list)
    total_loss: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    degenerate_frac: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = -1
    checkpoint_path: str = None
    best_checkpoint_path: str = None

    def epochs(self):
        return len(self.base_loss)

    def to_csv(self, path):
        with open(path, "w") as f:
            f.write("epoch,base_loss,reg_loss,total_loss,grad_norm,degenerate_frac\n")
            for i in range(self.epochs()):
                f.write(f"{i},{self.base_loss[i]:.17g},{self.reg_loss[i]:.17g},"
                        f"{self.total_loss[i]:.17g},{self.grad_norm[i]:.17g},"
                        f"{self.degenerate_frac[i]:.17g}\n")


@dataclass
class TrainResult:
    model: object
    report: TrainReport
    config: TrainConfig
    best_params: dict

    def best_model(self, prior, dim_x):
        """Materialize the best-validation checkpoint as a fresh model."""
        model = build_model(self.config.method, prior, dim_x,
                            self.config.arch(), rng=np.random.default_rng(0))
        for name, value in model.parameters().items():
            value.data[...] = self.best_params[name]
        return model


def derangement(n, rng):
    """Random permutation with no fixed point (negatives never pair with self)."""
    perm = rng.permutation(n)
    fixed = np.where(perm == np.arange(n))[0]
    if fixed.size == 1:
        i = int(fixed[0])
        j = (i + 1) % n
        if perm[j] == i:
            j = (i + 2) % n
        perm[i], perm[j] = perm[j], perm[i]
    elif fixed.size > 1:
        perm[fixed] = perm[np.roll(fixed, 1)]
    return perm


def _softplus(v):
    # max(v, 0) + log(1 + exp(-|v|)) is stable on both tails
    return v.relu() + ((-v.abs()).exp() + 1.0).log()


# the signs that turn a row's (negative, nominal) logits into the
# cross-entropy terms softplus(logit_neg) and softplus(-logit_pos)
_NRE_SIGNS = np.array([[1.0, -1.0]])


def nre_base_loss(model, thetas, xs, rng, draws=None):
    """Binary cross-entropy: joint pairs against in-batch shuffled negatives.

    The head runs once, on each pair's rows [negative, nominal, draws...]
    with the pair's embedding repeated over them. Returns (loss, block):
    with (n, L, d) `draws`, block is the (n, 1 + L) log posterior (log prior
    plus logit) at the nominal parameter and the draws, the rank block the
    regularizer takes; without them it is None, and the prior's log density
    is never built.
    """
    n, d = thetas.shape
    if n < 2:
        raise ValueError("ratio loss needs a batch of >= 2 for negative pairs")
    cols = [thetas[derangement(n, rng)][:, None], thetas[:, None]]
    if draws is not None:
        cols.append(draws)
    rows = np.concatenate(cols, axis=1).reshape(-1, d)
    k = rows.shape[0] // n
    emb = model.embed_graph(Value(xs))
    logits = model.logit_graph(Value(rows), ad.repeat_rows(emb, k)).reshape(n, k)
    signed = logits if draws is None else logits[:, :2]
    loss = _softplus(signed * Value(_NRE_SIGNS)).mean()
    if draws is None:
        return loss, None
    log_prior = model.prior.log_density(rows).reshape(n, k)
    return loss, Value(log_prior[:, 1:]) + logits[:, 1:]


def npe_base_loss(flow, thetas, xs, draws=None):
    """Negative mean log density of the nominal parameters.

    Returns (loss, block), as `nre_base_loss`: with `draws`, the flow runs
    once on each pair's nominal parameter followed by its draws
    (`covreg.stacked_log_density`), and block is those (n, 1 + L) log
    densities.
    """
    emb = flow.embed_graph(Value(xs))
    if draws is None:
        lp = nominal = flow.log_density_graph(Value(thetas), emb)
    else:
        lp = covreg.stacked_log_density(flow, emb, thetas, draws)
        nominal = lp[:, :1]
    bad = np.where(~np.isfinite(nominal.data[:, 0]))[0]
    if bad.size:
        raise FloatingPointError(f"non-finite log density at sample index {bad[0]}")
    return -nominal.mean(), (None if draws is None else lp)


def base_loss(model, thetas, xs, rng, draws=None):
    """(loss, block) of the method's base loss; block is the (n, 1 + L)
    log densities at the nominal parameters and `draws` when those are
    given, from the same network call, and None otherwise."""
    if model.method == "nre":
        return nre_base_loss(model, thetas, xs, rng, draws)
    return npe_base_loss(model, thetas, xs, draws)


def train_step(model, opt, thetas, xs, reg, clip_norm, rngs, prior,
               epoch=0, batch=0):
    """One optimizer step on one batch; the body of every training loop.

    With a regularizer (`reg`, None for none) the prior draws come first.
    The base loss then runs the network once, on every pair's nominal row
    and draws (and for nre its negative), so the batch is embedded once,
    and hands the draws and their log densities to the regularizer. Then
    backward, which writes every parameter's gradient into the optimizer's
    flat `opt.grad`, global-norm clipping of that vector and AdamW. Inside
    `train`'s `autodiff.workspace`, the step's large activations and
    backward temporaries are pooled arrays that the next step reuses.
    `rngs` is (negative pairing, prior draws). A non-finite loss, density
    or gradient raises TrainAbort at (epoch, batch). Returns (base,
    regularizer, total, pre-clip gradient norm, degenerate rows).
    """
    rng_neg, rng_reg = rngs
    try:
        draws = None
        if reg is not None:
            draws = covreg.PriorProposal(prior).sample_batch(xs, rng_reg,
                                                             reg.num_samples)
        base, lp = base_loss(model, thetas, xs, rng_neg, draws)
        total = base
        rval, degenerate = 0.0, 0
        if reg is not None:
            rloss, rbatch = covreg.regularizer(xs, reg, prior, (draws, lp))
            total = base + rloss * reg.weight
            rval, degenerate = float(rloss.data[0]), rbatch.degenerate_count
        tval = float(total.data[0])
        if not np.isfinite(tval):
            raise TrainAbort(epoch, batch, f"non-finite loss {tval}")
        opt.zero_grad()
        total.backward()
        grad, pre_norm = clip_grad_norm(opt.grad, clip_norm)
        opt.step(grad)
    except FloatingPointError as exc:
        raise TrainAbort(epoch, batch, str(exc)) from exc
    return float(base.data[0]), rval, tval, pre_norm, degenerate


def _split(dataset, fraction):
    n_val = int(round(dataset.count * fraction))
    n_train = dataset.count - n_val
    return (dataset.thetas[:n_train], dataset.xs[:n_train],
            dataset.thetas[n_train:], dataset.xs[n_train:])


def train(config, dataset, problem=None, out_dir=None):
    """Run the full loop; returns the trained model, report, and best params.

    The epochs, their steps and validation passes alike, run in one
    `autodiff.workspace`. `problem` must be the dataset's registry problem;
    None looks it up.
    """
    if dataset.problem_id != config.problem_id:
        raise ValueError(f"dataset problem {dataset.problem_id!r} does not match "
                         f"config problem {config.problem_id!r}")
    if dataset.count < config.batch_size:
        raise ValueError("training budget smaller than one batch")
    th_train, x_train, th_val, x_val = _split(dataset, config.validation_fraction)
    n_train = th_train.shape[0]
    if n_train < 2:
        raise ValueError(f"training split holds {n_train} pairs; a batch needs >= 2")
    if problem is None:
        problem = problem_for_dataset(dataset)
    ss = np.random.SeedSequence(config.seed)
    rng_init, rng_shuffle, rng_reg, rng_neg = [np.random.default_rng(c)
                                               for c in ss.spawn(4)]
    model = build_model(config.method, problem.prior, dataset.dim_x,
                        config.arch(), rng=rng_init)
    opt = AdamW(model.parameters(), lr=config.learning_rate,
                weight_decay=config.weight_decay)

    report = TrainReport()
    best_val = np.inf
    best_params = {k: v.data.copy() for k, v in model.parameters().items()}
    reg = config.reg if config.reg is not None and config.reg.weight > 0 else None
    with ad.workspace():
        for epoch in range(config.epochs):
            order = rng_shuffle.permutation(n_train)
            sums = np.zeros(4)
            degenerate = 0
            rows = 0
            n_batches = 0
            for start in range(0, n_train, config.batch_size):
                take = order[start:start + config.batch_size]
                if take.size < 2:
                    continue
                *losses, bad = train_step(model, opt, th_train[take], x_train[take],
                                          reg, config.clip_norm, (rng_neg, rng_reg),
                                          problem.prior, epoch, n_batches)
                sums += losses
                degenerate += bad
                rows += take.size
                n_batches += 1
            report.base_loss.append(sums[0] / n_batches)
            report.reg_loss.append(sums[1] / n_batches)
            report.total_loss.append(sums[2] / n_batches)
            report.grad_norm.append(sums[3] / n_batches)
            frac = degenerate / rows
            report.degenerate_frac.append(frac)
            if frac > 0.5:
                warnings.warn(f"epoch {epoch}: degenerate importance weights on "
                              f"{frac:.0%} of the batch", RuntimeWarning)
            if th_val.shape[0] >= 2:
                with ad.no_grad():
                    vloss = float(base_loss(model, th_val, x_val,
                                            np.random.default_rng(0))[0].data[0])
                report.val_loss.append(vloss)
                if vloss < best_val:
                    best_val = vloss
                    report.best_epoch = epoch
                    best_params = {k: v.data.copy() for k, v in model.parameters().items()}
            else:
                report.val_loss.append(np.nan)
                best_params = {k: v.data.copy() for k, v in model.parameters().items()}

    result = TrainResult(model=model, report=report, config=config,
                         best_params=best_params)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        final = os.path.join(out_dir, "model.calc")
        save_checkpoint(final, model, config)
        report.checkpoint_path = final
        best = os.path.join(out_dir, "model_best.calc")
        save_checkpoint(best, result.best_model(problem.prior, dataset.dim_x),
                        config)
        report.best_checkpoint_path = best
        report.to_csv(os.path.join(out_dir, "train.csv"))
    return result


# -- checkpoint io ---------------------------------------------------------------


def _blob_entry(path, mapping, key):
    """mapping[key] of a checkpoint's config blob; ValueError if it is absent."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{path}: damaged config blob: expected an object, "
                         f"got {type(mapping).__name__}")
    if key not in mapping:
        raise ValueError(f"{path}: config blob has no {key!r}")
    return mapping[key]


def save_checkpoint(path, model, config):
    """Write magic, version, method tag, config blob (training recipe and
    model dimensions), named parameter records."""
    params = model.parameters()
    blob = json.dumps({"train": asdict(config), "dim_theta": model.dim_theta,
                       "dim_x": model.dim_x}).encode()
    method = model.method.encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(method)))
        f.write(method)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(params)))
        for name, p in params.items():
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", p.data.ndim))
            f.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
            f.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Rebuild the model on the prior of the registry problem its blob names,
    with bit-identical parameters; returns (model, blob)."""
    r = BoundedReader(path, "checkpoint")
    if r.take(4) != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (mlen,) = r.unpack("<I")
    method = r.take(mlen).decode()
    (blen,) = r.unpack("<I")
    blob = json.loads(r.take(blen).decode())
    cfg = _blob_entry(path, blob, "train")
    blob_method = _blob_entry(path, cfg, "method")
    if blob_method != method:
        raise ValueError(f"{path}: method tag {method!r} disagrees with the "
                         f"config's {blob_method!r}")
    problem_id = _blob_entry(path, cfg, "problem_id")
    arch = {k: cfg[k] for k in ("hidden", "embed_dim", "blocks") if k in cfg}
    dims = {k: _blob_entry(path, blob, k) for k in ("dim_theta", "dim_x")}
    for key, size in {**arch, **dims}.items():
        if type(size) is not int or size < 1:
            raise ValueError(f"{path}: config blob {key!r} must be a positive "
                             f"integer, got {size!r}")
    try:
        problem = problem_for(problem_id, **dims)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    model = build_model(method, problem.prior, dims["dim_x"], arch,
                        rng=np.random.default_rng(0))
    params = model.parameters()
    (n_params,) = r.unpack("<I")
    if n_params != len(params):
        raise ValueError(f"{path}: parameter count mismatch")
    seen = set()
    for _ in range(n_params):
        (nlen,) = r.unpack("<I")
        name = r.take(nlen).decode()
        (ndim,) = r.unpack("<I")
        shape = r.unpack(f"<{ndim}I")
        count = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(r.take(8 * count), dtype="<f8").reshape(shape)
        if name not in params:
            raise ValueError(f"{path}: unknown parameter {name!r}")
        if name in seen:
            raise ValueError(f"{path}: duplicate parameter {name!r}")
        if shape != params[name].data.shape:
            raise ValueError(f"{path}: parameter {name!r} has shape {shape}, "
                             f"expected {params[name].data.shape}")
        seen.add(name)
        params[name].data[...] = arr
    r.finish()
    return model, blob

