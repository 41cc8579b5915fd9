"""calsbi benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload train-npe-reg --seed 1 --seconds 20 --trace 0

Run from the repository root (it imports calsbi from ./src). The workload's
inputs are generated from --seed before anything is timed. Jobs then run one
after another, each in a fresh process making the calls `calsbi train` or
`calsbi eval` makes (perfbench/job.py), until --seconds have passed and
every input set has run at least once and one has repeated. BLAS is pinned
to one thread here and in every job.

The last line of standard output is one JSON object: correct, attempted,
failed, and the metrics -- the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The lines before it print every metric
with its unit, the checks, and the environment record. A failed check makes
the exit code 1; a checkout without src/calsbi exits 2 before any work.
With --trace 1, even-numbered jobs run with the outside-in span recorder
(perfbench/spans.py) and odd ones without, which gives the tracing overhead.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import spec
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
JOB_TIMEOUT_S = 120
MAX_MEASURE_S = 120      # past this, MIN_JOBS no longer keeps a slow run going
ACCEPT_TOL = 0.02        # acceptance tolerance of oracle coverage error
# ACCEPT_TOL is applied at REF_PAIRS pairs, where a calibrated estimator's
# mean |ECP - level| over the 19 levels exceeds it with probability below
# 1e-4 (simulated); below that it widens with the Monte Carlo error.
REF_PAIRS = 4096
AGREE_Z = 4.0            # rank vs grid on shared pairs, in binomial errors
PARITY_PAIRS = {"eval-flow": 2, "eval-oracle-grid": 64}
PARITY_EPOCHS = 2


def sub_seed(seed, *path):
    """Independent integer seed for one input, derived from the run seed."""
    import numpy as np
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def train_plan(count, batch, epochs, validation_fraction=0.1):
    """(steps, pairs) trainer.train takes for a dataset of `count` pairs."""
    n_train = count - int(round(count * validation_fraction))
    sizes = [min(batch, n_train - s) for s in range(0, n_train, batch)]
    sizes = [s for s in sizes if s >= 2]
    return len(sizes) * epochs, sum(sizes) * epochs


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _comparable(path):
    """File bytes, without the manifest's wall time, which differs per run."""
    data = Path(path).read_bytes()
    if Path(path).name != "manifest.txt":
        return data
    return b"\n".join(line for line in data.splitlines()
                      if not line.startswith(b"wall_time_s="))


def _show(value):
    return "n/a" if value is None else f"{value:.6g}"


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


class Bench:
    def __init__(self, workload, seed, seconds, trace, work):
        self.name = workload
        self.w = spec.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tally = stats.Tally()
        self.checks = {}
        self.calib = {}
        self.firsts = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    # -- processes ---------------------------------------------------------

    def job(self, tag, argv, grid_pairs=None, traced=False):
        """Run one job process; returns its result dict plus spawn time."""
        d = self.work / tag
        d.mkdir()
        spec_path = d / "spec.json"
        spec_path.write_text(json.dumps({
            "argv": argv, "grid_pairs": grid_pairs, "trace": traced,
            "result": str(d / "result.json")}))
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "job.py"), str(spec_path)],
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=JOB_TIMEOUT_S)
            err = proc.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired:
            err = f"timed out after {JOB_TIMEOUT_S} s"
        try:
            result = json.loads((d / "result.json").read_text())
        except (OSError, ValueError):
            result = {"ok": False}
        if not result.get("ok"):
            result["error"] = result.get("error") or err or "no result"
        result["spawn"] = t0
        result["tag"] = tag
        return result

    def cli(self, argv):
        proc = subprocess.run([sys.executable, "-m", "calsbi.cli", *argv],
                              env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=JOB_TIMEOUT_S)
        return proc.returncode, proc.stderr.decode(errors="replace")

    def check(self, ok, units, what):
        """Record one check; `what` is its label in the printed summary."""
        passed, total = self.checks.get(what, (0, 0))
        self.checks[what] = (passed + bool(ok), total + 1)
        return self.tally.check(ok, units, what)

    # -- inputs ------------------------------------------------------------

    def make_inputs(self):
        from calsbi.problems import simulate_dataset
        w = self.w
        count = spec.BUDGET if w["kind"] == "train" else w["rank_pairs"]
        self.shards = []
        for k in range(spec.SHARDS):
            path = self.work / f"data-{k}.sbid"
            simulate_dataset("gaussian-linear", count, sub_seed(self.seed, 1, k)).save(path)
            self.shards.append({"data": str(path), "seed": sub_seed(self.seed, 2, k)})
        self.checkpoint = None
        if "checkpoint" in w:
            path = self.work / "ckpt.sbid"
            simulate_dataset("gaussian-linear", spec.BUDGET, sub_seed(self.seed, 3)).save(path)
            ck = w["checkpoint"]
            argv = ck["argv"] + ["--epochs", str(ck["epochs"]), "--data", str(path),
                                 "--seed", str(sub_seed(self.seed, 4)),
                                 "--out-dir", str(self.work / "ckpt")]
            res = self.job("ckpt", argv)
            if not res["ok"]:
                raise RuntimeError(f"training the eval checkpoint failed:\n{res['error']}")
            self.checkpoint = str(self.work / "ckpt" / "model.calc")

    def argv(self, shard, out_dir, epochs=None, data=None):
        w = self.w
        argv = list(w["argv"])
        if w["kind"] == "train":
            argv += ["--epochs", str(epochs or w["epochs"])]
        if self.checkpoint:
            argv += ["--checkpoint", self.checkpoint]
        return argv + ["--data", data or shard["data"], "--seed", str(shard["seed"]),
                       "--out-dir", str(out_dir)]

    def ops(self):
        """Operations of one job: training steps, or audited pairs."""
        if self.w["kind"] == "train":
            return train_plan(spec.BUDGET, spec.BATCH, self.w["epochs"])[0]
        return self.w["rank_pairs"] + self.w["grid_pairs"]

    # -- parity with the real commands --------------------------------------

    def parity(self):
        """The job's call sequence and `python -m calsbi.cli` must write
        byte-identical files from one input (the manifest's wall time aside).
        Both write to the same out-dir path, which the manifest records."""
        shard = self.shards[0]
        if self.w["kind"] == "train":
            files = ["model.calc", "model_best.calc", "train.csv", "manifest.txt"]
            epochs, data = PARITY_EPOCHS, None
            ops = train_plan(spec.BUDGET, spec.BATCH, epochs)[0]
        else:
            from calsbi.problems import Dataset, load_dataset
            files = ["coverage.csv", "metrics.csv", "sbc.csv", "coverage.svg",
                     "manifest.txt"]
            epochs, pairs = None, PARITY_PAIRS[self.name]
            full = load_dataset(shard["data"])
            data = str(self.work / "parity.sbid")
            Dataset(full.problem_id, full.seed, full.dim_theta, full.dim_x,
                    full.thetas[:pairs], full.xs[:pairs]).save(data)
            ops = 2 * pairs                      # rank and grid, every pair
        self.tally.add("parity", 2 * ops)        # the command and the job
        out = self.work / "parity-out"
        argv = self.argv(shard, out, epochs, data)
        code, why = self.cli(argv)
        ok = code == 0
        if ok:
            cli_out = out.rename(self.work / "parity-cli")
            res = self.job("parity-job", argv)   # grid over all pairs, as the CLI
            ok, why = res["ok"], res.get("error", "")
        if ok:
            differ = [name for name in files
                      if _comparable(cli_out / name) != _comparable(out / name)]
            ok, why = not differ, f"files differ: {', '.join(differ)}"
        if not self.check(ok, ["parity"],
                          f"job files == calsbi {self.w['kind']} files"):
            print(f"parity failed (calsbi exit {code}): {why}", file=sys.stderr)

    # -- measuring -----------------------------------------------------------

    def measure(self):
        self.jobs = []
        start = time.monotonic()
        i = 0
        while (time.monotonic() - start < self.seconds
               or (i < spec.MIN_JOBS and time.monotonic() - start < MAX_MEASURE_S)):
            k = i % spec.SHARDS
            tag = f"job-{i}"
            traced = bool(self.trace) and i % 2 == 0
            self.tally.add(tag, self.ops())
            res = self.job(tag, self.argv(self.shards[k], self.work / tag / "out"),
                           self.w.get("grid_pairs"), traced)
            res.update(shard=k, traced=traced, out=self.work / tag / "out")
            self.jobs.append(res)
            i += 1

    # -- checks --------------------------------------------------------------

    def check_jobs(self):
        for r in self.jobs:
            tag = r["tag"]
            if not self.check(r["ok"], [tag], "job runs"):
                print(f"{tag} failed:\n{r['error']}", file=sys.stderr)
                continue
            self.check(0 < r["first_compute"] - r["spawn"] < r["last_output"] - r["spawn"],
                       [tag], "job timestamps ordered")
            if self.w["kind"] == "train":
                self.check_train_job(r)
            else:
                self.check_eval_job(r)
        by_shard = {}
        for r in self.jobs:
            if r["tag"] not in self.tally.bad:
                by_shard.setdefault(r["shard"], []).append(r)
        key = "model.calc" if self.w["kind"] == "train" else "coverage.csv"
        for runs in by_shard.values():
            same = len({sha256(r["out"] / key) for r in runs}) == 1
            if self.w["kind"] == "train":
                same &= len({r["val_loss"] for r in runs}) == 1
            self.check(same, [r["tag"] for r in runs],
                       f"runs on one input repeat {key} exactly")
        # one run per distinct input, for figures pooled over inputs
        self.firsts = [runs[0] for _, runs in sorted(by_shard.items())
                       if runs[0]["tag"] not in self.tally.bad]
        if self.w["kind"] == "eval" and self.firsts:
            self.check_coverage()

    def check_train_job(self, r):
        tag = r["tag"]
        rows = read_csv(r["out"] / "train.csv")
        finite = bool(rows) and all(math.isfinite(float(v)) for row in rows
                                    for v in row.values())
        self.check(finite and math.isfinite(r["val_loss"]), [tag],
                   "training losses finite")
        self.check(r["reload_exact"], [tag], "checkpoints reload bit-exactly")

    def check_eval_job(self, r):
        import numpy as np
        curves = {}
        for row in read_csv(r["out"] / "coverage.csv"):
            levels, ecp, n = curves.setdefault(row["method"], ([], [], int(row["n"])))
            levels.append(float(row["level"]))
            ecp.append(float(row["ecp"]))
        r["curves"] = {m: (np.array(lv), np.array(ec), n)
                       for m, (lv, ec, n) in curves.items()}
        ok = (set(curves) == {"rank-based", "grid-hpdr"}
              and curves["rank-based"][2] == r["rank_pairs"]
              and curves["grid-hpdr"][2] == r["grid_pairs"])
        for _, ecp, _ in r["curves"].values():
            ok &= bool(np.all((ecp >= 0) & (ecp <= 1)) and np.all(np.diff(ecp) >= 0))
        self.check(ok, [r["tag"]], "ECP in [0, 1] and non-decreasing in level")

    def check_coverage(self):
        """Pool the distinct inputs: calibration error per estimator, and
        rank vs grid agreement on the pairs both audited."""
        import numpy as np
        runs = self.firsts
        units = [r["tag"] for r in runs]
        levels = runs[0]["curves"]["rank-based"][0]
        pooled, self.calib = {}, {}
        for method in ("rank-based", "grid-hpdr"):
            n = sum(r["curves"][method][2] for r in runs)
            ecp = sum(r["curves"][method][1] * r["curves"][method][2] for r in runs) / n
            pooled[method] = (ecp, n)
            self.calib[method] = float(np.mean(np.abs(ecp - levels)))
        if self.name == "eval-oracle-grid":
            for method, key in (("rank-based", "rank"), ("grid-hpdr", "grid")):
                n = pooled[method][1]
                tol = ACCEPT_TOL * max(1.0, math.sqrt(REF_PAIRS / n))
                self.check(self.calib[method] <= tol, units,
                           f"oracle calib_err_{key} <= {tol:.4f} on {n} pairs")
        grid_ecp, n = pooled["grid-hpdr"]
        shared = sum(np.array(r["shared_rank_ecp"]) * r["grid_pairs"] for r in runs) / n
        allowed = AGREE_Z * np.sqrt(2 * levels * (1 - levels) / n)
        self.check(bool(np.all(np.abs(shared - grid_ecp) <= allowed)), units,
                   f"rank and grid ECP agree on {n} shared pairs "
                   f"within {AGREE_Z:g} binomial errors")

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self):
        """Every end-to-end metric this workload has, from the untraced jobs
        that passed their checks (None when there are none)."""
        runs = [r for r in self.jobs
                if not r["traced"] and r["tag"] not in self.tally.bad]
        firsts = self.firsts

        def med(f):
            return stats.median([f(r) for r in runs])

        def mean(f):
            return sum(f(r) for r in firsts) / len(firsts) if firsts else None

        m = {"setup_s": med(lambda r: r["first_compute"] - r["spawn"]),
             "wall_s": med(lambda r: r["last_output"] - r["spawn"]),
             "peak_rss_mb": med(lambda r: r["peak_rss_mb"])}
        if self.w["kind"] == "train":
            pairs = train_plan(spec.BUDGET, spec.BATCH, self.w["epochs"])[1]
            m["val_loss"] = mean(lambda r: r["val_loss"])
            m["train_pairs_per_s"] = med(lambda r: pairs / r["train_s"])
        else:
            # held-out loss of the audited posterior: -E log p(theta* | x*)
            m["val_loss"] = mean(lambda r: -r["elp"])
            m["rank_pairs_per_s"] = med(lambda r: r["rank_pairs"] / r["rank_s"])
            m["grid_pairs_per_s"] = med(lambda r: r["grid_pairs"] / r["grid_s"])
            m["calib_err_rank"] = self.calib.get("rank-based")
            m["calib_err_grid"] = self.calib.get("grid-hpdr")
        m["failed_frac"] = self.tally.failed_frac
        self.samples = {"e2e_median_jobs": len(runs), "inputs_pooled": len(firsts)}
        return m

    def per_layer(self):
        traced = [r for r in self.jobs if r["traced"] and r["tag"] not in self.tally.bad]
        plain = [r for r in self.jobs
                 if not r["traced"] and r["tag"] not in self.tally.bad]
        m, counts = spans.layer_metrics([r["trace"] for r in traced])
        a, b = (stats.median([r["last_output"] - r["first_compute"] for r in rs])
                for rs in (traced, plain))
        m["trace.overhead_pct"] = 100.0 * (a / b - 1.0) if a and b else None
        self.samples.update({"traced_jobs": len(traced), "overhead_median_jobs":
                             [len(traced), len(plain)],
                             "step_ms_samples": counts["steps"],
                             "validation_epochs": counts["epochs"],
                             "step_ms_highest_percentile":
                             counts["step_ms_highest_percentile"]})
        return m


def environment(workload, seed, seconds, trace, samples):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "calsbi").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "samples": samples}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:           # before numpy loads, here and in jobs
        os.environ[var] = BLAS_THREADS
    if not (SRC / "calsbi" / "__init__.py").is_file():
        print(f"error: {SRC / 'calsbi'} not found; run from a calsbi checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    bench = Bench(args.workload, args.seed, args.seconds, args.trace, work)
    try:
        bench.make_inputs()
        bench.parity()
        bench.measure()
        bench.check_jobs()
        e2e = bench.end_to_end()
        layers = bench.per_layer() if args.trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass                          # another run is using it

    tally = bench.tally
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(bench.jobs)}")
    units = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.WORKLOAD_METRICS}
    for name, value in e2e.items():
        print(f"  {name:<34} {_show(value):<14} {units[name]}")
    print(f"  {'attempted':<34} {tally.attempted:<14} "
          f"{'steps' if bench.w['kind'] == 'train' else 'pairs'}")
    for name, unit, *_ in spec.PER_LAYER if args.trace else ():
        print(f"  {name:<34} {_show(layers[name]):<14} {unit}")
    for what, (passed, total) in bench.checks.items():
        print(f"check {'ok  ' if passed == total else 'FAIL'} {passed}/{total} {what}")
    env = environment(args.workload, args.seed, args.seconds, args.trace, bench.samples)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, *_ in spec.PER_LAYER}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec.END_TO_END}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
