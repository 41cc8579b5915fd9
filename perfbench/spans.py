"""Outside-in span recorder for calsbi.

`install` replaces public entry points of every calsbi module at runtime with
thin wrappers that record a span (name, start, end, parent) and a few counts
taken from argument shapes. Nothing under src/ is edited, and a process that
never calls `install` runs the original functions untouched. Spans stay in
memory until `summarize` folds them into the totals a job reports.

Span names are `<layer>.<what>`, the layer being the calsbi module whose
function or method is wrapped. `trainer.step` is the one synthetic span: it
opens when the training base loss starts and closes when AdamW.step returns,
so each training step is one span whose children are the layer calls.
"""

import functools
import os
import sys
import time

from stats import highest_percentile, percentile, self_times

# Spans that stand for the benchmark's own bookkeeping, not a layer's work.
SYNTHETIC = ("trainer.step", "bench.eval")


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.attrs = [], []
        self.stack = []
        self.step = None

    def begin(self, name, attrs=None):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else None)
        self.attrs.append(attrs)
        self.ends.append(None)
        self.stack.append(i)
        self.starts.append(self.clock())
        return i

    def end(self, i):
        """Close span i and any span still open inside it."""
        t = self.clock()
        while self.stack:
            j = self.stack.pop()
            self.ends[j] = t
            if j == i:
                break
        if self.step is not None and self.ends[self.step] is not None:
            self.step = None

    def wrap(self, name, fn, count=None):
        """Wrapper timing `fn` as span `name`; `count(args)` gives attrs."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.begin(name, count(args) if count else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)
        return wrapper


def _rows(pos):
    """Counter of the row count of positional argument `pos`."""
    def count(args):
        a = args[pos]
        return {"rows": len(a.data) if hasattr(a, "_parents") else len(a)}
    return count


def count_nodes(root):
    """Nodes reachable from `root` through `_parents`, root included."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def install(rec):
    """Wrap calsbi's public entry points; returns a function that undoes it."""
    from calsbi import (autodiff, cli, covreg, diagnostics, estimators, optim,
                        problems, svgplot, trainer)

    modules = [m for name, m in sys.modules.items()
               if name == "calsbi" or name.startswith("calsbi.")]
    undo = []

    def replace(owner, attr, make):
        original = getattr(owner, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # module function: rebind every calsbi name that refers to it
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def plain(owner, attr, name, count=None):
        replace(owner, attr, lambda fn: rec.wrap(name, fn, count))

    def backward(fn):
        @functools.wraps(fn)
        def wrapper(root, *args, **kwargs):
            nodes = count_nodes(root)        # walked before the span opens
            i = rec.begin("autodiff.backward", {"nodes": nodes})
            try:
                return fn(root, *args, **kwargs)
            finally:
                rec.end(i)
        return wrapper

    def base_loss(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # trainer.train runs its validation loss under no_grad
            training = getattr(autodiff, "_grad_enabled", True)
            if training and rec.step is None:
                rec.step = rec.begin("trainer.step")
            name = "trainer.base_loss" if training else "trainer.validation"
            i = rec.begin(name, {"rows": len(args[1])})
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(i)
        return wrapper

    def adamw_step(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = rec.begin("optim.adamw")
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(i)
                if rec.step is not None:
                    rec.end(rec.step)
        return wrapper

    def with_result(name, attrs):
        """Span whose counts come from the call's result."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = rec.begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.end(i)
                rec.attrs[i] = attrs(args, out)
                return out
            return wrapper
        return make

    replace(autodiff.Value, "backward", backward)
    replace(optim.AdamW, "step", adamw_step)
    replace(optim, "clip_grad_norm", with_result(
        "optim.clip", lambda a, out: {"clipped": int(out[1] > a[1])}))
    for cls in (estimators.NpeFlow, estimators.NreModel):
        plain(cls, "embed_graph", "estimators.embed", _rows(1))
    plain(estimators.NpeFlow, "log_density_graph", "estimators.density", _rows(1))
    plain(estimators.NreModel, "log_density_graph", "estimators.density")
    plain(estimators.NreModel, "logit_graph", "estimators.density", _rows(1))
    plain(estimators.GaussianLinearPosterior, "log_density",
          "estimators.density", _rows(1))
    plain(estimators.GaussianLinearPosterior, "log_density_grid",
          "estimators.log_density_grid",
          lambda a: {"rows": len(a[1]) * len(a[2])})
    plain(covreg, "regularizer", "covreg.regularizer")
    replace(covreg, "rank_statistics", with_result(
        "covreg.rank_statistics",
        lambda a, out: {"rows": out.size, "degenerate": out.degenerate_count}))
    plain(covreg, "rank_statistic_core", "covreg.rank_core")
    plain(covreg, "sorting_loss", "covreg.sort_loss")
    plain(covreg, "direct_loss", "covreg.sort_loss")
    for cls in (covreg.PriorProposal, covreg.DensityProposal):
        plain(cls, "sample_batch", "covreg.proposal")
        plain(cls, "log_density_rows", "covreg.proposal")
    plain(diagnostics, "rank_statistic_sample", "diagnostics.rank_sample",
          lambda a: {"pairs": len(a[1])})
    plain(diagnostics, "ecp_grid_hpdr", "diagnostics.grid_hpdr",
          lambda a: {"pairs": len(a[1])})
    for attr in ("curve_from_rank_statistics", "ks_statistic", "sbc_histogram",
                 "expected_log_posterior"):
        plain(diagnostics, attr, "diagnostics.summary")
    for attr in ("write_coverage_csv", "write_metrics_csv", "write_sbc_csv"):
        plain(diagnostics, attr, "diagnostics.write")
    plain(problems, "load_dataset", "problems.load_dataset",
          lambda a: {"bytes": os.path.getsize(a[0])})
    plain(problems, "get_problem", "problems.get_problem")
    plain(problems, "analytic_posterior", "problems.analytic_posterior")
    plain(trainer, "train", "trainer.train")
    replace(trainer, "base_loss", base_loss)
    plain(trainer, "save_checkpoint", "trainer.checkpoint_write")
    plain(trainer, "load_checkpoint", "trainer.checkpoint_read")
    plain(svgplot, "coverage_plot", "svgplot.plot")
    plain(cli, "write_manifest", "cli.manifest")

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def summarize(rec, root_name, grid_resolution=None):
    """Fold the recorded spans into per-name totals and counts.

    Every recorded span counts; `root_name` names the call whose share
    covered by layer spans is reported (synthetic spans count as uncovered).
    Returns plain numbers and lists so a job can write it as JSON.
    """
    n = len(rec.names)
    ends = [e if e is not None else rec.clock() for e in rec.ends]
    own = self_times(rec.starts, ends, rec.parents)
    root = rec.names.index(root_name)
    in_root = [False] * n      # flags inherited from ancestors
    in_step = [False] * n
    in_grid = [False] * n
    by_name, in_steps = {}, {}
    counts = dict.fromkeys(
        ("nodes", "backward_calls", "density_rows", "embed_calls_in_steps",
         "grid_embed_rows", "grid_pairs", "rank_pairs", "train_pairs",
         "clipped", "clip_calls", "degenerate", "rank_rows", "rank_calls",
         "bytes_read"), 0)
    uncovered = 0.0
    step_ms = []
    epochs = 0
    for i in range(n):
        p = rec.parents[i]
        name = rec.names[i]
        in_root[i] = i == root or (p is not None and in_root[p])
        in_step[i] = name == "trainer.step" or (p is not None and in_step[p])
        in_grid[i] = (name == "diagnostics.grid_hpdr"
                      or (p is not None and in_grid[p]))
        tot = by_name.setdefault(name, [0.0, 0.0, 0])
        tot[0] += own[i]
        tot[1] += ends[i] - rec.starts[i]
        tot[2] += 1
        if in_step[i]:
            in_steps[name] = in_steps.get(name, 0.0) + own[i]
        if in_root[i] and (i == root or name in SYNTHETIC):
            uncovered += own[i]
        a = rec.attrs[i] or {}
        if name == "trainer.step":
            step_ms.append((ends[i] - rec.starts[i]) * 1e3)
        elif name == "trainer.validation":
            epochs += 1
        elif name == "trainer.base_loss":
            counts["train_pairs"] += a["rows"]
        elif name == "autodiff.backward":
            counts["nodes"] += a["nodes"]
            counts["backward_calls"] += 1
        elif name in ("estimators.density", "estimators.log_density_grid"):
            counts["density_rows"] += a.get("rows", 0)
        elif name == "estimators.embed":
            counts["embed_calls_in_steps"] += int(in_step[i])
            counts["grid_embed_rows"] += a["rows"] if in_grid[i] else 0
        elif name == "diagnostics.grid_hpdr":
            counts["grid_pairs"] += a["pairs"]
        elif name == "diagnostics.rank_sample":
            counts["rank_pairs"] += a["pairs"]
        elif name == "optim.clip":
            counts["clipped"] += a["clipped"]
            counts["clip_calls"] += 1
        elif name == "covreg.rank_statistics":
            counts["degenerate"] += a["degenerate"]
            counts["rank_rows"] += a["rows"]
            counts["rank_calls"] += 1
        elif name == "problems.load_dataset":
            counts["bytes_read"] += a["bytes"]
    counts["grid_cells"] = counts["grid_pairs"] * (grid_resolution or 0) ** 2
    return {"by_name": by_name, "in_steps": in_steps, "counts": counts,
            "step_ms": step_ms, "epochs": epochs,
            "root_s": ends[root] - rec.starts[root], "uncovered_s": uncovered}


def layer_metrics(summaries):
    """Per-layer metrics pooled over the traced jobs of one run.

    Times are self times, except the validation pass, which is whole.
    Per-step figures divide by training steps, except covreg's, which divide
    by `covreg.rank_statistics` calls (one per regularized training step, one
    per chunk of pairs on the rank path). `_s` figures are per job.
    """
    jobs = len(summaries)
    by_name, incl, in_steps, counts = {}, {}, {}, {}
    step_ms, epochs, root_s, uncovered = [], 0, 0.0, 0.0
    for s in summaries:
        for name, (own_s, incl_s, _) in s["by_name"].items():
            by_name[name] = by_name.get(name, 0.0) + own_s
            incl[name] = incl.get(name, 0.0) + incl_s
        for name, own_s in s["in_steps"].items():
            in_steps[name] = in_steps.get(name, 0.0) + own_s
        for key, value in s["counts"].items():
            counts[key] = counts.get(key, 0) + value
        step_ms += s["step_ms"]
        epochs += s["epochs"]
        root_s += s["root_s"]
        uncovered += s["uncovered_s"]

    def own(*names):
        return sum(by_name.get(n, 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = len(step_ms)
    rank_calls = counts.get("rank_calls", 0)
    pairs = (counts.get("train_pairs", 0) + counts.get("rank_pairs", 0)
             + counts.get("grid_pairs", 0))
    p50 = percentile(step_ms, 50.0)
    p90 = percentile(step_ms, 90.0)
    return {
        "autodiff.backward_ms_per_step": ratio(own("autodiff.backward") * 1e3, steps),
        "autodiff.nodes_per_step": ratio(counts.get("nodes", 0),
                                         counts.get("backward_calls", 0)),
        "estimators.density_ms_per_step": ratio(
            in_steps.get("estimators.density", 0.0) * 1e3, steps),
        "estimators.embed_calls_per_step": ratio(
            counts.get("embed_calls_in_steps", 0), steps),
        "estimators.density_rows_per_pair": ratio(counts.get("density_rows", 0), pairs),
        "estimators.density_rows_per_s": ratio(
            counts.get("density_rows", 0),
            own("estimators.density", "estimators.log_density_grid")),
        "estimators.embed_rows_per_obs": ratio(counts.get("grid_embed_rows", 0),
                                               counts.get("grid_pairs", 0)),
        "estimators.log_density_grid_s": ratio(own("estimators.log_density_grid"), jobs),
        "covreg.proposal_ms_per_step": ratio(own("covreg.proposal") * 1e3, rank_calls),
        "covreg.rank_core_ms_per_step": ratio(own("covreg.rank_core") * 1e3, rank_calls),
        "covreg.sort_loss_ms_per_step": ratio(own("covreg.sort_loss") * 1e3, rank_calls),
        "covreg.degenerate_frac": ratio(counts.get("degenerate", 0),
                                        counts.get("rank_rows", 0)),
        "optim.adamw_ms_per_step": ratio(own("optim.adamw") * 1e3, steps),
        "optim.clip_ms_per_step": ratio(own("optim.clip") * 1e3, steps),
        "optim.clip_rate": ratio(counts.get("clipped", 0), counts.get("clip_calls", 0)),
        "trainer.step_ms.p50": p50 or 0.0,
        "trainer.step_ms.p90": p90 or 0.0,
        "trainer.steps": ratio(steps, jobs),
        "trainer.base_loss_ms_per_step": ratio(own("trainer.base_loss") * 1e3, steps),
        "trainer.validation_ms_per_epoch": ratio(
            incl.get("trainer.validation", 0.0) * 1e3, epochs),
        "trainer.checkpoint_write_s": ratio(own("trainer.checkpoint_write"), jobs),
        "trainer.checkpoint_read_s": ratio(own("trainer.checkpoint_read"), jobs),
        "problems.load_dataset_s": ratio(own("problems.load_dataset"), jobs),
        "problems.bytes_read": ratio(counts.get("bytes_read", 0), jobs),
        "diagnostics.grid_reduce_s": ratio(own("diagnostics.grid_hpdr"), jobs),
        "diagnostics.grid_cells_per_s": ratio(counts.get("grid_cells", 0),
                                              own("diagnostics.grid_hpdr")),
        "diagnostics.rank_sample_s": ratio(own("diagnostics.rank_sample"), jobs),
        "diagnostics.write_s": ratio(own("diagnostics.write"), jobs),
        "svgplot.plot_s": ratio(own("svgplot.plot"), jobs),
        "trace.coverage_pct": 100.0 * (1.0 - ratio(uncovered, root_s)),
    }, {"steps": steps, "epochs": epochs, "jobs": jobs,
        "step_ms_highest_percentile": highest_percentile(steps)}

