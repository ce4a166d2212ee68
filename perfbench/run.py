"""quasistat benchmark: the certify, qsd and mc workloads, run through the CLI.

Usage, from the root of a quasistat checkout:

    python3 perfbench/run.py --workload certify|qsd|mc|all --seed N \\
        --seconds S --trace 0|1

Each workload is a fixed list of `quasistat` command lines (perfbench/plan.py)
that a fresh worker interpreter runs in-process through quasistat.cli.main,
one op at a time, in passes that fill about S seconds.  Every op's output is
checked against benchmark-side references (perfbench/checks.py) after the
worker has exited, so neither the references nor the checks are timed or
counted in the worker's memory.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced and
traced passes and reports the per-layer metrics (perfbench/tracing.py).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 whenever the
run completed, failed ops included; it is non-zero, with no result line,
when the benchmark could not run (no quasistat source tree, a worker that
crashed or overran).
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

# One BLAS/OpenMP thread, set before numpy loads and inherited by workers.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import plan as plan_mod  # noqa: E402
from worker import make_probe  # noqa: E402

END_TO_END = {
    "setup_s": ("s", "calibrated time from a fresh interpreter to ready: import quasistat "
                     "plus one warm-up op; median of the set-ups in the run"),
    "wall_s": ("s", "calibrated time of one pass over the op list, median over passes"),
    "op_p50_s": ("s", "median calibrated per-op latency (Harrell-Davis)"),
    "op_tail_s": ("s", "calibrated per-op latency at the workload's tail percentile "
                       "(Harrell-Davis)"),
    "peak_rss_mb": ("MiB", "peak resident memory of the worker that ran the ops"),
    "ok_rate": ("ratio", "1 - error_rate: share of attempted ops that passed"),
}
# Times are calibrated for the speed of the shared machine: each op time
# is scaled by PROBE_REF_S / (the median probe time of the op and its
# PROBE_WINDOW neighbours on each side, in the order they ran), each set-up
# time by PROBE_REF_S / (the parent's probe just before the launch), so
# they read as seconds on a machine where the probe takes PROBE_REF_S
# (about its median on the 2-core Xeon the benchmark was defined on).
# There the same op's raw time drifts by 20-35 % within minutes as the
# load of the shared host changes; the probes track that drift, and the
# median over neighbours keeps the probe's own jitter out.  The summary
# prints the uncalibrated figures as well.
PROBE_REF_S = 0.04
PROBE_WINDOW = 2
SETUP_SAMPLES = 3
# The run gives up (non-zero exit, no result) past this many seconds.
DEADLINE_S = 160.0


class BenchError(Exception):
    """The benchmark itself could not run."""


def tail_percentile(n_ops: int) -> int:
    """Highest whole percentile with >= 10 of two passes' ops beyond it.

    Fixed by the op list, not by how many passes fit in the run, so a
    faster build that fits more passes is compared at the same percentile.
    """
    return min(99, max(1, math.floor(100.0 * (1.0 - 10.0 / (2 * n_ops)))))


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1).

    A Beta-weighted average of all order statistics: on a few dozen op
    times from a noisy machine it is far steadier than the one or two
    order statistics a plain percentile reads.
    """
    from scipy.stats import beta

    xs = sorted(values)
    n = len(xs)
    cdf = beta.cdf([i / n for i in range(n + 1)], (n + 1) * q, (n + 1) * (1.0 - q))
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def run_context(root: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "quasistat", "*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
        "src_lines": src_lines,
    }


class _Workers:
    """Launches worker interpreters and makes sure none outlives the run."""

    def __init__(self, plan_path: str, deadline: float):
        self.plan_path = plan_path
        self.deadline = deadline
        self.live: list[subprocess.Popen] = []
        self.probe = make_probe()

    def launch(self, setup_only: bool) -> tuple[subprocess.Popen, float]:
        """Start a worker; return it with its calibrated set-up time."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), self.plan_path]
        if setup_only:
            cmd.append("--setup-only")
        speed = PROBE_REF_S / self.probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.live.append(proc)
        line = proc.stdout.readline()
        ready = (time.perf_counter() - t0) * speed
        if line.strip() != "ready":
            self.wait(proc)
            raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
        return proc, ready

    def wait(self, proc: subprocess.Popen) -> int:
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker overran the benchmark's deadline") from None
        proc.stdout.close()
        self.live.remove(proc)
        return code

    def stop_all(self) -> None:
        for proc in self.live:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        self.live.clear()


def _write_certificates(ops: list[dict], workdir: str) -> None:
    """Certificate files the decay ops read, made before any timing starts."""
    from quasistat.bd import logistic_certificate
    from quasistat.certify import certificate_to_text

    for op in ops:
        spec = op["check"]
        if spec["kind"] == "decay":
            cert = logistic_certificate(*spec["params"]).certificate
            with open(os.path.join(workdir, spec["certificate"]), "w", encoding="utf-8") as fh:
                fh.write(certificate_to_text(cert))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, perturb: bool = False) -> dict:
    """Run one workload; return the result object plus its report lines.

    quick and perturb serve the benchmark's own smoke check: quick shrinks
    the inputs, perturb swaps the reference law of one simulate op for a
    wrong one so that its check must fail.
    """
    start = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "quasistat", "__init__.py")):
        raise BenchError(f"no quasistat source tree at {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    from checks import Checker

    spec = plan_mod.build(workload, seed, quick)
    workdir = os.path.join(root, ".perfbench-work", f"{workload}-{os.getpid()}-{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workers = None
    try:
        for name, text in spec["files"].items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        _write_certificates(spec["ops"], workdir)
        plan_path = os.path.join(workdir, "plan.json")
        results_path = os.path.join(workdir, "results.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump({"src": src, "workdir": workdir, "warmup": spec["warmup"],
                       "ops": spec["ops"], "seed": seed, "seconds": seconds,
                       "trace": trace, "results": results_path}, fh)

        workers = _Workers(plan_path, start + DEADLINE_S)
        setups = []
        if not trace:
            for _ in range(1 if quick else SETUP_SAMPLES - 1):
                proc, ready = workers.launch(setup_only=True)
                if workers.wait(proc) != 0:
                    raise BenchError("set-up worker failed")
                setups.append(ready)
        proc, ready = workers.launch(setup_only=False)
        setups.append(ready)
        if workers.wait(proc) != 0:
            raise BenchError("worker failed")
        with open(results_path, encoding="utf-8") as fh:
            res = json.load(fh)

        checker = Checker(workdir, perturb_first_simulate=perturb)
        ops = {op["id"]: op for op in spec["ops"]}
        lines = []
        for rec in res["records"]:
            if rec["raised"]:
                fails, result = [f"raised {rec['raised']}"], {}
            elif rec["rc"] != 0:
                fails, result = [f"exit code {rec['rc']}: {rec['stderr'].strip()}"], {}
            else:
                fails, result = checker.check(ops[rec["op"]], os.path.join(workdir, rec["out_dir"]),
                                              rec["stdout"])
            rec["fails"], rec["result"] = fails, result
            shown = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in result.items())
            lines.append(f"op {rec['op']} pass={rec['pass']}{' traced' if rec['traced'] else ''} "
                         f"time_s={rec['time_s']:.6f} probe_s={rec['probe_s']:.6f} "
                         f"{'FAIL ' + '; '.join(fails) if fails else 'ok'} "
                         f"{shown}".rstrip())
    finally:
        if workers is not None:
            workers.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    records = res["records"]
    failed = sum(1 for r in records if r["fails"])
    n_ops = len(spec["ops"])
    probes = [r["probe_s"] for r in records]
    speed = [PROBE_REF_S / statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
             for i in range(len(records))]
    lat = [r["time_s"] * f for r, f in zip(records, speed)]
    walls = {p["index"]: 0.0 for p in res["passes"]}
    for t, r in zip(lat, records):
        walls[r["pass"]] += t
    untraced = [walls[p["index"]] for p in res["passes"] if not p["traced"]]
    if trace:
        from tracing import PER_LAYER, layer_metrics

        traced = [(t, f, r) for t, f, r in zip(lat, speed, records) if r["traced"]]
        metrics = layer_metrics(
            res["spans"],
            {f"{r['pass']}/{r['op']}": t for t, _, r in traced},
            {f"{r['pass']}/{r['op']}": f for _, f, r in traced},
            [walls[p["index"]] for p in res["passes"] if p["traced"]],
            untraced,
            [r["result"]["tv"] for _, _, r in traced
             if r["op"].startswith(("simulate", "fv")) and "tv" in r["result"]],
        )
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        summary = [f"layer {k} = {v:.9g} {units[k]}" for k, v in metrics.items()]
    else:
        q = tail_percentile(n_ops)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(untraced),
            "op_p50_s": quantile(lat, 0.5),
            "op_tail_s": quantile(lat, q / 100.0),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_rate": 1.0 - failed / len(records),
        }
        units = {k: u for k, (u, _) in END_TO_END.items()}
        raw = [r["time_s"] for r in records]
        summary = [f"{k} = {v:.9g} {units[k]}" for k, v in metrics.items()]
        summary += [
            f"error_rate = {failed / len(records):.9g} ratio ({failed} of {len(records)} ops failed)",
            f"ops = {len(records)} ({n_ops} per pass, {len(untraced)} passes); "
            f"op_tail_s is the p{q} latency; setup samples = {len(setups)}",
            f"uncalibrated: wall_s = {statistics.median(p['wall_s'] for p in res['passes']):.6g} s, "
            f"op_p50_s = {quantile(raw, 0.5):.6g} s, op_tail_s = {quantile(raw, q / 100.0):.6g} s; "
            f"median probe = {statistics.median(r['probe_s'] for r in records):.6g} s "
            f"(reference {PROBE_REF_S} s)",
        ]
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "lines": lines,
        "summary": summary,
        "context": run_context(root, seed),
    }


def main(argv=None) -> int:
    # A terminated benchmark still stops its workers (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*plan_mod.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    names = plan_mod.WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(f"context {name}: {json.dumps(out['context'])}")
            for line in out["lines"]:
                print(line)
            for line in out["summary"]:
                print(f"{name}: {line}")
            results[name] = out["result"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
