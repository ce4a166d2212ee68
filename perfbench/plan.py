"""Workload definitions: the fixed list of CLI operations each workload runs.

A workload is a list of ops.  Each op is a quasistat command line (the
worker appends ``--out DIR``) plus the facts its correctness check needs.
The seed jitters every logistic parameter by a small relative amount, so
each input stays in the size class it was chosen for (same core size z0,
same auto window), draws the Monte Carlo stream seeds, and (in the worker)
shuffles the op order of every pass.  The program sees only the argv and
the chain files written here.
"""

from __future__ import annotations

import random

WORKLOADS = ("certify", "qsd", "mc")

# Relative jitter on rate parameters.  Small enough that no input changes
# size class; the size of every op's window is recorded with its result.
JITTER = 0.002

# Rates of the explicit chains; their closed forms are the criterion gates.
CATASTROPHE = {"birth": 1.0, "drop": 3.0, "absorb": 1.0}
HIGH_COLUMN = {"rate": 2.0, "absorb": 0.5}


def _jitter(rng: random.Random, values) -> list[float]:
    return [float(v) * (1.0 + rng.uniform(-JITTER, JITTER)) for v in values]


def _num(x: float) -> str:
    return repr(float(x))


def catastrophe_chain_text(n_states: int, birth: float, drop: float, absorb: float) -> str:
    """Upward steps at `birth`, collapse to state 1 at `drop` from every
    state >= 2, absorption only out of state 1 at `absorb`."""
    n = n_states - 1
    lines = [f"states {n_states}", "boundary reflect"]
    for x in range(1, n + 1):
        if x < n:
            lines.append(f"rate {x} {x + 1} {_num(birth)}")
        if x >= 2:
            lines.append(f"rate {x} 1 {_num(drop)}")
    lines.append(f"rate 1 0 {_num(absorb)}")
    return "\n".join(lines) + "\n"


def high_column_chain_text(n_states: int, rate: float, absorb: float) -> str:
    """Every state is absorbed at `absorb` and jumps at `rate` to the
    second-highest state h, which itself jumps to the top.  Only column h
    has a positive floor, and the first prefix core that passes the
    core-return test is {1..h}, the last one the prefix scan tries."""
    n = n_states - 1
    h = n - 1
    lines = [f"states {n_states}", "boundary reflect"]
    for x in range(1, n + 1):
        lines.append(f"rate {x} 0 {_num(absorb)}")
        lines.append(f"rate {x} {n if x == h else h} {_num(rate)}")
    return "\n".join(lines) + "\n"


class _Builder:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.ops: list[dict] = []
        self.files: dict[str, str] = {}

    def logistic(self, params) -> list[float]:
        return _jitter(self.rng, params)

    def add(self, op_id: str, argv: list[str], check: dict) -> None:
        self.ops.append({"id": op_id, "argv": argv, "check": check})

    # -- certify workload ----------------------------------------------

    def certify_logistic(self, params) -> None:
        p = self.logistic(params)
        self.add(
            f"certify-logistic-{params[0]:g}-{params[1]:g}-{params[2]:g}",
            ["certify", "--logistic", *map(_num, p)],
            {"kind": "certify_logistic", "params": p},
        )

    def catastrophe_ops(self, n_states: int, k: int) -> None:
        rates = dict(zip(CATASTROPHE, _jitter(self.rng, CATASTROPHE.values())))
        name = f"catastrophe-{n_states}.chain"
        self.files[name] = catastrophe_chain_text(n_states, **rates)
        core = f"1..{k}"
        for route in ("direct", "criterion"):
            self.add(
                f"certify-chain-{route}",
                ["certify", "--chain", name, "--K", core, "--x0", "1", "--route", route],
                {"kind": "certify_catastrophe", "route": route, "n_states": n_states, "k": k,
                 **rates},
            )
        self.add(
            "criterion-catastrophe-K",
            ["criterion", "--chain", name, "--K", core],
            {"kind": "criterion_catastrophe", "n_states": n_states, "k": k, **rates},
        )

    def high_column_op(self, n_states: int) -> None:
        rates = dict(zip(HIGH_COLUMN, _jitter(self.rng, HIGH_COLUMN.values())))
        name = f"high-column-{n_states}.chain"
        self.files[name] = high_column_chain_text(n_states, **rates)
        self.add(
            "criterion-high-column-scan",
            ["criterion", "--chain", name],
            {"kind": "criterion_high_column", "n_states": n_states, **rates},
        )

    def bd_op(self, params, x_max: int | None = None) -> None:
        p = self.logistic(params)
        argv = ["bd", "--logistic", *map(_num, p)]
        if x_max is not None:
            argv += ["--x-max", str(x_max)]
        self.add(
            f"bd-logistic-{params[0]:g}-{params[1]:g}-{params[2]:g}",
            argv,
            {"kind": "bd", "params": p},
        )

    # -- qsd workload ----------------------------------------------------

    def qsd_op(self, params, states) -> None:
        p = self.logistic(params)
        self.add(
            f"qsd-logistic-{params[0]:g}-{params[1]:g}-{params[2]:g}-{states}",
            ["qsd", "--logistic", *map(_num, p), "--states", str(states)],
            {"kind": "qsd", "params": p, "states": states},
        )

    def decay_op(self, params, n_states: int) -> None:
        p = self.logistic(params)
        cert = f"decay-{n_states}.cert"
        self.add(
            f"decay-{n_states}",
            ["decay", "--logistic", *map(_num, p), "--states", str(n_states),
             "--mu", "1", "--nu", "40", "--t-grid", "1:12:1", "--certificate", cert],
            {"kind": "decay", "params": p, "n_states": n_states, "certificate": cert},
        )

    # -- mc workload -----------------------------------------------------

    def stream_seed(self) -> int:
        return self.rng.randrange(1, 2**31)

    def simulate_op(self, i: int, params, n_states: int, start: int, horizon: float,
                    n_paths: int) -> None:
        p = self.logistic(params)
        seed = self.stream_seed()
        self.add(
            f"simulate-{i}",
            ["simulate", "--logistic", *map(_num, p), "--states", str(n_states),
             "--mu", str(start), "--horizon", _num(horizon),
             "--n-paths", str(n_paths), "--seed", str(seed)],
            {"kind": "simulate", "params": p, "n_states": n_states, "start": start,
             "horizon": horizon, "n_paths": n_paths},
        )

    def fv_op(self, i: int, params, n_states: int, horizon: float, n_particles: int) -> None:
        p = self.logistic(params)
        seed = self.stream_seed()
        self.add(
            f"fv-{i}",
            ["fv", "--logistic", *map(_num, p), "--states", str(n_states),
             "--horizon", _num(horizon), "--n-particles", str(n_particles),
             "--seed", str(seed)],
            {"kind": "fv", "params": p, "n_states": n_states, "horizon": horizon,
             "n_particles": n_particles},
        )


# Logistic parameter sets of the certify workload, by core size z0:
# 1, 2, 3, 6, 9, 14 and 45; their auto windows run from 64 to 368 states.
# c = 0.0505 (not 0.05) keeps z0 fixed under the jitter.
CERTIFY_SETS = [(1, 1, 1), (0.5, 1, 0.2), (0.5, 1, 0.05), (2, 1, 0.25), (1, 1, 0.05),
                (2, 1, 0.1), (3, 1, 0.0505)]
QSD_WINDOWS = [48, 64, 96, 128, 192, 256]
QSD_AUTO_SETS = [(1, 1, 1), (2, 1, 0.25), (0.5, 1, 0.05)]


def build(workload: str, seed: int, quick: bool = False) -> dict:
    """Return {"ops", "files", "warmup"} for one workload and seed.

    quick shrinks every input so the benchmark's own smoke check runs in
    seconds; it is never used for measurements.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    b = _Builder(seed)
    if workload == "certify":
        for params in (CERTIFY_SETS[:2] if quick else CERTIFY_SETS):
            b.certify_logistic(params)
        b.catastrophe_ops(16 if quick else 128, 4 if quick else 8)
        b.high_column_op(64 if quick else 2048)
        b.bd_op((1, 1, 1))
        b.files["warmup.chain"] = catastrophe_chain_text(8, **CATASTROPHE)
        warmup = ["certify", "--chain", "warmup.chain", "--K", "1..2", "--x0", "1"]
    elif workload == "qsd":
        for n in ([24, 64] if quick else QSD_WINDOWS):
            b.qsd_op((1, 1, 1), n)
        for params in (QSD_AUTO_SETS[2:] if quick else QSD_AUTO_SETS):
            b.qsd_op(params, "auto")
        for n in ([64] if quick else [64, 80]):
            b.decay_op((1, 1, 1), n)
        warmup = ["qsd", "--logistic", "1", "1", "1", "--states", "16"]
    else:
        n_sim, n_fv = (2, 2) if quick else (6, 6)
        for i in range(n_sim):
            b.simulate_op(i, (2, 1, 0.25), 64, 5, 10.0, 300 if quick else 3000)
        for i in range(n_fv):
            b.fv_op(i, (1, 1, 1), 64, 20.0, 300 if quick else 1500)
        warmup = ["simulate", "--logistic", "2", "1", "0.25", "--states", "16",
                  "--mu", "5", "--horizon", "1", "--n-paths", "20", "--seed", "1"]
    return {"ops": b.ops, "files": b.files, "warmup": warmup}
