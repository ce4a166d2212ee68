"""Benchmark-side references and the per-op correctness gates.

References are built from the rates alone with numpy/scipy (dense matrix
exponentials, a symmetrized tridiagonal eigenproblem, ladder products in
log space), never through quasistat's own solvers.  Gates test invariants
with tolerances, not pinned digits, so a change that legitimately moves
digits (a new Monte Carlo golden, a tighter c2 floor) still passes.

Every check returns (failures, result): an empty failure list means the op
passed, and result holds the computed numbers recorded next to its time.
"""

from __future__ import annotations

import csv
import math
import os
import re

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm

# Gates of acceptance criteria 1-3 and of the decay table.
EIGEN_RESIDUAL_MAX = 1e-8
QSD_TV_MAX = 1e-7
BOUND_SLACK = 1e-9
# The expm reference and the program's series agree far below this.
DECAY_TV_AGREEMENT = 1e-8
# Monte Carlo gates fail by chance with probability below this.
MC_FAILURE_PROB = 1e-9
# Fleming-Viot particles interact, so their empirical law spreads wider
# than n independent draws would; the i.i.d. term is widened by this factor.
FV_SPREAD_FACTOR = 3.0
# Horizon of the pair-TV check of certificates (the CLI's default t_max).
CERT_CHECK_T = 20


# -- generators built from the rates -----------------------------------------


def logistic_rates(b: float, d: float, c: float, n_states: int):
    """Birth and death rates of the reflecting logistic window 1..n."""
    x = np.arange(1, n_states, dtype=np.float64)
    up = b * x
    up[-1] = 0.0
    down = d * x + c * x * (x - 1.0)
    return up, down


def birth_death_generator(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Dense sub-generator of a birth-death window; down[0] is absorption."""
    n = up.size
    Q = np.diag(-(up + down))
    Q[np.arange(n - 1), np.arange(1, n)] = up[:-1]
    Q[np.arange(1, n), np.arange(n - 1)] = down[1:]
    return Q


def logistic_generator(b, d, c, n_states) -> np.ndarray:
    return birth_death_generator(*logistic_rates(b, d, c, n_states))


def _fix_diagonal(Q: np.ndarray, absorb: np.ndarray) -> np.ndarray:
    off = Q - np.diag(np.diag(Q))
    return off - np.diag(off.sum(axis=1) + absorb)


def explicit_catastrophe(n_states, birth, drop, absorb) -> np.ndarray:
    n = n_states - 1
    Q = np.zeros((n, n))
    for x in range(1, n + 1):
        if x < n:
            Q[x - 1, x] = birth
        if x >= 2:
            Q[x - 1, 0] = drop
    a = np.zeros(n)
    a[0] = absorb
    return _fix_diagonal(Q, a)


def dense_generator(key) -> np.ndarray:
    """Sub-generator for ("logistic", b, d, c, n) or ("catastrophe", n, birth, drop, absorb)."""
    kind, *args = key
    return logistic_generator(*args) if kind == "logistic" else explicit_catastrophe(*args)


def qsd_reference(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Quasi-stationary law of a birth-death window.

    Detailed-balance weights pi symmetrize the generator into a tridiagonal
    S; the QSD is sqrt(pi) times the top eigenvector of S, assembled in log
    space because pi spans hundreds of decades on logistic windows.
    """
    n = up.size
    e = np.sqrt(up[:-1] * down[1:])
    _, vec = eigh_tridiagonal(-(up + down), e, select="i", select_range=(n - 1, n - 1))
    v = np.abs(vec[:, 0])
    log_pi = np.concatenate(([0.0], np.cumsum(np.log(up[:-1]) - np.log(down[1:]))))
    with np.errstate(divide="ignore"):
        log_rho = np.log(v) + 0.5 * log_pi
    rho = np.exp(log_rho - log_rho.max())
    return rho / rho.sum()


def conditioned_pair_tv(Q: np.ndarray, a: int, b: int, t_max: int) -> np.ndarray:
    """TV between the survival-conditioned laws from states a and b at
    t = 1..t_max, stepping with the unit-time transition matrix."""
    P1 = expm(Q)
    n = Q.shape[0]
    u, v = np.zeros(n), np.zeros(n)
    u[a - 1] = v[b - 1] = 1.0
    out = []
    for _ in range(t_max):
        u = u @ P1
        v = v @ P1
        u /= u.sum()
        v /= v.sum()
        out.append(float(np.abs(u - v).sum()))
    return np.array(out)


def log_alpha(b, d, c, j_max) -> np.ndarray:
    """log of the ladder coefficients prod(b_1..b_{j-1}) / prod(d_1..d_j)."""
    j = np.arange(1, j_max + 1, dtype=np.float64)
    births = np.log(b * j)
    deaths = np.log(d * j + c * j * (j - 1.0))
    return np.concatenate(([0.0], np.cumsum(births[:-1]))) - np.cumsum(deaths)


def mc_tolerance(p: np.ndarray, n: int, spread: float = 1.0) -> float:
    """L1 radius around p that n i.i.d. draws leave with prob < MC_FAILURE_PROB.

    E||p_hat - p||_1 <= sum_i sqrt(p_i / n), and ||p_hat - p||_1 moves by at
    most 2/n per draw, so McDiarmid adds sqrt(2 log(1/delta) / n).
    """
    return spread * float(np.sqrt(p / n).sum()) + math.sqrt(2.0 * math.log(1.0 / MC_FAILURE_PROB) / n)


# -- reading artifacts -----------------------------------------------------------


def _keyvalues(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return {k.strip(): v.strip() for k, v in (ln.split("=", 1) for ln in fh if "=" in ln)}


def _rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def summary_fields(stdout: str) -> dict[str, str]:
    """The key=value pairs of every `wrote PATH (...)` line."""
    out = {}
    for m in re.finditer(r"^wrote \S+ \((.*)\)$", stdout, re.M):
        for part in m.group(1).split(", "):
            if "=" in part:
                k, v = part.split("=", 1)
                out[k] = v
    return out


# -- the gates -----------------------------------------------------------------


class Checker:
    """Checks op outputs; caches references so repeated passes reuse them."""

    def __init__(self, workdir: str, perturb_first_simulate: bool = False):
        self.workdir = workdir
        self._cache: dict = {}
        self._perturb = perturb_first_simulate
        self._perturbed_op = None
        from quasistat.certify import certificate_to_text, parse_certificate_text
        from quasistat.errors import QuasistatError

        self._to_text = certificate_to_text
        self._parse = parse_certificate_text
        self._unreadable = (OSError, ValueError, KeyError, IndexError, QuasistatError)

    def _ref(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def check(self, op: dict, out_dir: str, stdout: str) -> tuple[list[str], dict]:
        spec = op["check"]
        try:
            return getattr(self, "_" + spec["kind"])(op, spec, out_dir, stdout)
        except self._unreadable as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"], {}

    # certify workload

    def _certificate(self, out_dir: str, fails: list[str]):
        with open(os.path.join(out_dir, "certificate.txt"), encoding="utf-8") as fh:
            text = fh.read()
        cert = self._parse(text)
        if self._to_text(cert) != text:
            fails.append("certificate does not round-trip through parse_certificate_text")
        return cert

    def _bound_dominates(self, cert, generator_key, fails: list[str], result: dict) -> None:
        """bound(t) >= pair TV from the extreme starts 1 and N-1, t = 1..20."""
        top = cert.n_states - 1
        tv = self._ref(("pair", generator_key, top, CERT_CHECK_T),
                       lambda: conditioned_pair_tv(dense_generator(generator_key), 1, top, CERT_CHECK_T))
        bound = np.array([cert.bound(t) for t in range(1, CERT_CHECK_T + 1)])
        if np.any(tv > bound + BOUND_SLACK):
            fails.append(f"bound(t) below the observed pair TV at t={int(np.argmax(tv - bound)) + 1}")
        result["pair_tv_over_bound_max"] = float(np.max(tv / bound))

    def _certify_logistic(self, op, spec, out_dir, stdout):
        fails: list[str] = []
        b, d, c = spec["params"]
        cert = self._certificate(out_dir, fails)
        z0 = len(cert.K)
        if cert.K != tuple(range(1, z0 + 1)) or cert.x0 != 1:
            fails.append(f"core {cert.K} / anchor {cert.x0} is not a prefix anchored at 1")
        if not math.isclose(cert.lambda0, b + d, rel_tol=1e-12):
            fails.append(f"lambda0={cert.lambda0} differs from b + d")
        result = {"gamma": cert.gamma, "z0": z0, "n_states": cert.n_states}
        self._bound_dominates(cert, ("logistic", b, d, c, cert.n_states), fails, result)
        return fails, result

    def _certify_catastrophe(self, op, spec, out_dir, stdout):
        fails: list[str] = []
        cert = self._certificate(out_dir, fails)
        drop, absorb, birth = spec["drop"], spec["absorb"], spec["birth"]
        if cert.K != tuple(range(1, spec["k"] + 1)) or cert.x0 != 1:
            fails.append(f"core {cert.K} / anchor {cert.x0} differ from the command line")
        # From outside K the entry time into K is Exp(drop): E exp(l T) = drop/(drop - l).
        want_lambda0 = absorb if spec["route"] == "criterion" else birth + absorb
        if not math.isclose(cert.lambda0, want_lambda0, rel_tol=1e-12):
            fails.append(f"lambda0={cert.lambda0}, closed form {want_lambda0}")
        want_c4 = drop / (drop - want_lambda0)
        if not math.isclose(cert.c4, want_c4, rel_tol=1e-9):
            fails.append(f"c4={cert.c4}, closed form drop/(drop - lambda0) = {want_c4}")
        result = {"gamma": cert.gamma, "c4": cert.c4, "n_states": cert.n_states}
        self._bound_dominates(cert, ("catastrophe", spec["n_states"], birth, drop, absorb),
                              fails, result)
        return fails, result

    def _criterion_verdicts(self, out_dir, want: dict, fails: list[str]) -> dict:
        kv = _keyvalues(os.path.join(out_dir, "criterion.txt"))
        for key, value in want.items():
            got = kv.get(key)
            if isinstance(value, float):
                if got is None or not math.isclose(float(got), value, rel_tol=1e-12):
                    fails.append(f"{key}={got}, closed form {value!r}")
            elif got != value:
                fails.append(f"{key}={got}, expected {value}")
        return kv

    def _criterion_catastrophe(self, op, spec, out_dir, stdout):
        fails: list[str] = []
        drop, absorb, birth = spec["drop"], spec["absorb"], spec["birth"]
        want = {
            "C": absorb,
            "q_bar": birth + drop,
            "alpha_uniform": drop,
            "uniform_rates_test": "holds",
            "K": ",".join(str(x) for x in range(1, spec["k"] + 1)),
            "alpha_K": drop,
            "core_return_test": "holds",
            "lambda0": absorb,
            "c4_bound": drop / (drop - absorb),
        }
        kv = self._criterion_verdicts(out_dir, want, fails)
        return fails, {"c4_bound": float(kv.get("c4_bound", "nan"))}

    def _criterion_high_column(self, op, spec, out_dir, stdout):
        fails: list[str] = []
        rate, absorb = spec["rate"], spec["absorb"]
        want = {
            "C": absorb,
            "alpha_uniform": absorb + rate,
            "uniform_rates_test": "holds",
            "K": ",".join(str(x) for x in range(1, spec["n_states"] - 1)),
            "alpha_K": rate + absorb,
            "core_return_test": "holds",
            "c4_bound": (rate + absorb) / rate,
        }
        kv = self._criterion_verdicts(out_dir, want, fails)
        return fails, {"c4_bound": float(kv.get("c4_bound", "nan")), "n_states": spec["n_states"]}

    def _bd(self, op, spec, out_dir, stdout):
        fails: list[str] = []
        b, d, c = spec["params"]
        kv = _keyvalues(os.path.join(out_dir, "bd_report.txt"))
        z, z0 = int(kv["z"]), int(kv["z0"])
        if z != z0:
            fails.append(f"default target level z={z} is not z0={z0}")
        alpha = np.array([float(r[1]) for r in _rows(os.path.join(out_dir, "bd_alpha.csv"))])
        la = log_alpha(b, d, c, alpha.size)
        want = np.where(la < 709.0, np.exp(np.minimum(la, 709.0)), np.inf)
        finite = np.isfinite(want)
        if not (np.array_equal(np.isfinite(alpha), finite)
                and np.allclose(alpha[finite], want[finite], rtol=1e-9, atol=0.0)):
            fails.append("ladder coefficients differ from the closed-form products")
        rows = _rows(os.path.join(out_dir, "bd_hitting.csv"))
        x = np.array([int(r[0]) for r in rows])
        hit = np.array([float(r[1]) for r in rows])
        moment = np.array([float(r[2]) for r in rows])
        if x[0] != z + 1 or np.any(np.diff(x) != 1):
            fails.append("hitting rows do not run over z+1..x_max")
        if not (hit[0] > 0 and np.all(np.diff(hit) > 0)):
            fails.append("expected hitting times are not positive and increasing in x")
        known = ~np.isnan(moment)
        if np.any(moment[known] < 1.0 - 1e-9):
            fails.append("an exponential moment lies below 1")
        sup = float(kv["sup_expected_hitting"])
        if sup < hit.max() * (1.0 - 1e-12):
            fails.append("sup_expected_hitting is below a finite-x hitting time")
        return fails, {"z0": z0, "sup_hitting": sup}

    # qsd workload

    def _qsd(self, op, spec, out_dir, stdout):
        fails: list[str] = []
        b, d, c = spec["params"]
        fields = summary_fields(stdout)
        n_states = int(fields["n_states"])
        if spec["states"] != "auto" and n_states != int(spec["states"]):
            fails.append(f"window has {n_states} states, asked for {spec['states']}")
        rho = np.array([float(r[1]) for r in _rows(os.path.join(out_dir, "qsd.csv"))])
        if rho.size != n_states - 1:
            fails.append(f"qsd.csv has {rho.size} rows for {n_states} states")
            return fails, {}
        up, down = logistic_rates(b, d, c, n_states)
        ref = self._ref(("qsd", b, d, c, n_states), lambda: qsd_reference(up, down))
        Q = birth_death_generator(up, down)
        theta = float(rho[0] * down[0])
        residual = float(np.abs(Q.T @ rho + theta * rho).max())
        reported = float(fields["eigen_residual"])
        tv = float(np.abs(rho - ref).sum())
        if not max(reported, residual) <= EIGEN_RESIDUAL_MAX:
            fails.append(f"eigen residual {max(reported, residual):.3e} > {EIGEN_RESIDUAL_MAX}")
        if not tv <= QSD_TV_MAX:
            fails.append(f"TV to the reference QSD {tv:.3e} > {QSD_TV_MAX}")
        return fails, {
            "n_states": n_states,
            "iterations": int(fields["iterations"]),
            "residual": reported,
            "tv": tv,
        }

    def _decay(self, op, spec, out_dir, stdout):
        fails: list[str] = []
        b, d, c = spec["params"]
        n = spec["n_states"]
        with open(os.path.join(self.workdir, spec["certificate"]), encoding="utf-8") as fh:
            cert = self._parse(fh.read())
        rows = np.array([[float(v) for v in r] for r in _rows(os.path.join(out_dir, "decay.csv"))])
        if rows.shape != (12, 5) or not np.array_equal(rows[:, 0], np.arange(1.0, 13.0)):
            fails.append("decay.csv does not hold the rows t = 1..12")
            return fails, {}
        tv_pair, bound = rows[:, 3], rows[:, 4]
        want_bound = np.array([cert.bound(t) for t in rows[:, 0]])
        if not np.allclose(bound, want_bound, rtol=1e-12, atol=0.0):
            fails.append("certified_bound column differs from the certificate's bound(t)")
        if np.any(tv_pair > bound + BOUND_SLACK):
            fails.append("tv_pair exceeds certified_bound + 1e-9")
        key = ("logistic", b, d, c, n)
        ref = self._ref(("pair", key, 40, 12),
                        lambda: conditioned_pair_tv(dense_generator(key), 1, 40, 12))
        gap = float(np.abs(tv_pair - ref).max())
        if gap > DECAY_TV_AGREEMENT:
            fails.append(f"tv_pair differs from the expm reference by {gap:.3e}")
        return fails, {"tv_pair_max": float(tv_pair.max()), "gamma": cert.gamma, "tv_ref_gap": gap}

    # mc workload

    def _exact_law(self, spec):
        b, d, c = spec["params"]
        n, x0, h = spec["n_states"], spec["start"], spec["horizon"]

        def build():
            row = expm(h * logistic_generator(b, d, c, n))[x0 - 1]
            return row / row.sum(), float(row.sum())

        return self._ref(("law", b, d, c, n, x0, h), build)

    def _simulate(self, op, spec, out_dir, stdout):
        fails: list[str] = []
        n_paths, n = spec["n_paths"], spec["n_states"]
        rows = _rows(os.path.join(out_dir, "batch.csv"))
        if [int(r[0]) for r in rows] != list(range(n_paths)):
            fails.append("batch.csv does not hold one row per path")
            return fails, {}
        end = np.array([int(r[1]) for r in rows])
        survived = np.array([r[2] == "" for r in rows])
        times = np.array([float(r[2]) if r[2] else np.nan for r in rows])
        if np.any(end[survived] < 1) or np.any(end[~survived] > 0):
            fails.append("end states disagree with the survival column")
        if np.any(~((times[~survived] > 0) & (times[~survived] <= spec["horizon"]))):
            fails.append("an absorption time lies outside (0, horizon]")
        law, survival = self._exact_law(spec)
        if self._perturb and self._perturbed_op in (None, op["id"]):
            self._perturbed_op = op["id"]
            law = np.eye(law.size)[np.argmin(law)]  # all mass on the least likely state
        n_surv = int(survived.sum())
        frac = n_surv / n_paths
        counts = np.bincount(end[survived], minlength=n)[1:]
        tv = float(np.abs(counts / max(n_surv, 1) - law).sum())
        tol = mc_tolerance(law, max(n_surv, 1))
        frac_tol = math.sqrt(math.log(2.0 / MC_FAILURE_PROB) / (2.0 * n_paths))
        if tv > tol:
            fails.append(f"TV to the exact conditional law {tv:.4f} > {tol:.4f}")
        if abs(frac - survival) > frac_tol:
            fails.append(f"survival fraction {frac:.4f} vs exact {survival:.4f} (tol {frac_tol:.4f})")
        reported = float(summary_fields(stdout)["survival_fraction"])
        if reported != frac:
            fails.append("reported survival fraction differs from batch.csv")
        return fails, {"survival_fraction": frac, "tv": tv, "tv_tol": tol}

    def _fv(self, op, spec, out_dir, stdout):
        fails: list[str] = []
        b, d, c = spec["params"]
        n, n_particles = spec["n_states"], spec["n_particles"]
        rows = _rows(os.path.join(out_dir, "fv.csv"))
        times = {float(r[0]) for r in rows}
        states = np.array([int(r[1]) for r in rows])
        counts = np.array([int(r[2]) for r in rows])
        if times != {spec["horizon"]} or counts.sum() != n_particles:
            fails.append("fv.csv is not one snapshot of every particle at the horizon")
        if np.any(states < 1) or np.any(states >= n):
            fails.append("a particle sits outside the transient states")
            return fails, {}
        emp = np.bincount(states, weights=counts, minlength=n)[1:] / n_particles
        up, down = logistic_rates(b, d, c, n)
        rho = self._ref(("qsd", b, d, c, n), lambda: qsd_reference(up, down))
        tv = float(np.abs(emp - rho).sum())
        tol = mc_tolerance(rho, n_particles, FV_SPREAD_FACTOR)
        if tv > tol:
            fails.append(f"TV to the QSD {tv:.4f} > {tol:.4f}")
        redraws = int(summary_fields(stdout)["redraws"])
        return fails, {"tv": tv, "tv_tol": tol, "redraws": redraws}
