"""Smoke check of the benchmark itself, on tiny inputs.

Usage, from the root of a quasistat checkout:

    python3 perfbench/smoke.py

Runs every workload in quick mode, untraced and traced, and checks that
each run reports every end-to-end or per-layer metric with its unit and
that no op fails.  One more run perturbs the reference law of a simulate
op: that op's check must fail and be counted in error_rate, and every
other op must still run and pass.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from plan import WORKLOADS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def _check_shape(name: str, out: dict, declared: dict, problems: list[str]) -> None:
    res = out["result"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{name}: result keys {sorted(res)}")
    if set(res["metrics"]) != set(declared):
        problems.append(f"{name}: metrics {sorted(set(res['metrics']) ^ set(declared))} "
                        f"missing or undeclared")
    for key, (unit, _) in declared.items():
        got = res["metrics"].get(key, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), float):
            problems.append(f"{name}: metric {key} reported as {got}, unit should be {unit}")


def main() -> int:
    problems: list[str] = []
    for workload in WORKLOADS:
        for trace in (False, True):
            name = f"{workload} trace={int(trace)}"
            out = run.run_workload(workload, seed=1, seconds=1, trace=trace, quick=True)
            _check_shape(name, out, PER_LAYER if trace else run.END_TO_END, problems)
            if out["result"]["failed"]:
                problems += [f"{name}: {ln}" for ln in out["lines"] if " FAIL " in ln]
            print(f"smoke: {name}: {out['result']['attempted']} ops, "
                  f"{out['result']['failed']} failed")

    out = run.run_workload("mc", seed=1, seconds=1, trace=False, quick=True, perturb=True)
    res = out["result"]
    failing = {ln.split()[1] for ln in out["lines"] if " FAIL " in ln}
    ops_per_pass = len(run.plan_mod.build("mc", 1, quick=True)["ops"])
    ok_rate = res["metrics"]["ok_rate"]["value"]
    if len(failing) != 1 or not next(iter(failing)).startswith("simulate-"):
        problems.append(f"perturbed run: failing ops {sorted(failing)}, expected one simulate op")
    if res["attempted"] % ops_per_pass or res["correct"]:
        problems.append("perturbed run: the failing op aborted the run or was not reported")
    if ok_rate != 1.0 - res["failed"] / res["attempted"] or res["failed"] == 0:
        problems.append(f"perturbed run: ok_rate {ok_rate} does not count the failure")
    if not any(ln.startswith("error_rate = ") and not ln.startswith("error_rate = 0 ")
               for ln in out["summary"]):
        problems.append("perturbed run: error_rate missing from the summary")
    print(f"smoke: perturbed mc: {res['failed']} of {res['attempted']} ops failed")

    for p in problems:
        print(f"smoke FAIL: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
