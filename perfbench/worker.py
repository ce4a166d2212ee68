"""Benchmark worker: one fresh interpreter that runs a workload's ops.

Usage: python3 worker.py PLAN.json [--setup-only]

It imports quasistat from the plan's source tree, runs one untimed
warm-up op, prints "ready" (the parent times setup from its own launch to
this line), then runs the op list in passes through quasistat.cli.main:
one client, closed loop, each op starting when the previous one returns.
Every run makes at least two passes, and another only while it is
expected to end within the plan's seconds.  In a traced plan, passes come in pairs, untraced then traced, so
the difference of their times is the tracing overhead.  Next to every op
the worker times a fixed probe computation, so the parent can calibrate
op times for the speed of the shared machine at that moment.  Results
(and spans) are written once, to the plan's results file, at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time


def make_probe():
    """A fixed ~40 ms computation timed next to every op.

    Its time tracks how fast this shared machine runs right now: half
    interpreter loop, half sparse matvecs, the two kinds of work the ops
    do.  The parent divides op times by it (see run.py, PROBE_REF_S).
    """
    import numpy as np
    from scipy import sparse

    n = 256
    M = sparse.diags([np.full(n - 1, 0.25), np.full(n, 0.5), np.full(n - 1, 0.25)],
                     [-1, 0, 1], format="csr")
    x0 = np.ones(n)

    def probe() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        x = x0
        for _ in range(PROBE_MATVECS):
            x = M @ x
        return time.perf_counter() - t0

    return probe


# Every run makes at least this many passes, so each op is timed twice.
MIN_PASSES = 2
PROBE_LOOP = 300_000
PROBE_MATVECS = 2_000


def peak_rss_mib() -> float:
    """High-water resident memory of this process image, in MiB.

    On Linux ru_maxrss survives exec, so in a worker it can report the
    parent's size at fork time instead; VmHWM belongs to this image alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            rc, raised = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return {"time_s": elapsed, "rc": rc, "raised": raised,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    os.chdir(plan["workdir"])
    from quasistat import cli

    if not os.path.abspath(cli.__file__).startswith(plan["src"] + os.sep):
        print(f"quasistat was imported from {cli.__file__}, not {plan['src']}", file=sys.stderr)
        return 2
    warm = run_op(cli, plan["warmup"] + ["--out", os.path.join("out", "warmup")])
    if warm["rc"] != 0:
        print(f"warm-up op failed: {warm['raised'] or warm['stderr']}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if "--setup-only" in argv[1:]:
        return 0

    tracer = None
    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
    probe = make_probe()
    ops = plan["ops"]
    group = 2 if tracer else 1
    rng = random.Random(plan["seed"])
    records, passes = [], []
    start = time.perf_counter()
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        for traced in ([False, True] if tracer else [False]):
            index = len(passes)
            if traced:
                tracer.install()
            before = probe()
            t_pass, probe_s = time.perf_counter(), 0.0
            for i in order:
                op = ops[i]
                out_dir = os.path.join("out", str(index), op["id"])
                if tracer:
                    tracer.op = f"{index}/{op['id']}"
                rec = run_op(cli, op["argv"] + ["--out", out_dir])
                after = probe()
                probe_s += after
                rec.update({"op": op["id"], "pass": index, "traced": traced, "out_dir": out_dir,
                            "probe_s": 0.5 * (before + after)})
                records.append(rec)
                before = after
            passes.append({"index": index, "traced": traced,
                           "wall_s": time.perf_counter() - t_pass - probe_s})
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) * group > plan["seconds"]:
            break

    peak_mb = peak_rss_mib()
    with open(plan["results"], "w", encoding="utf-8") as fh:
        json.dump({
            "records": records,
            "passes": passes,
            "peak_rss_mb": peak_mb,
            "spans": tracer.spans if tracer else [],
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
