"""Command-line front end.

Subcommands: qsd, certify, criterion, bd, decay, simulate, fv.  Every
command reads a chain (from a file or logistic parameters), writes its
named artifacts into --out, and prints a one-line summary per artifact.
Exit codes: 0 on success, 1 when a computation or input fails, 2 for
bad command lines (argparse's convention).

All numbers are written with 17 significant digits, so reruns with the
same inputs and seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import bd as bd_mod
from . import mc as mc_mod
from .chain import (
    KILL,
    REFLECT,
    BirthDeathSpec,
    DistributionOnStates,
    build_logistic,
    load_chain_file,
)
from .certify import certificate_to_text, certify, parse_certificate_text
from .criterion import (
    check_core_return,
    check_uniform_rates,
    derive_certificate_via_criterion,
)
from .engine import (
    _qsd_tol,
    compute_qsd,
    compute_qsd_auto,
    decay_table,
    decay_to_csv,
    distribution_to_csv,
    tv_distance,
)
from .errors import QuasistatError, ValidationError
from .textio import fmt, read_text, write_text

# arithmetic grids longer than this are refused rather than built
_MAX_GRID_POINTS = 10**6


def _add_chain_args(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--chain", metavar="FILE", help="chain description file")
    src.add_argument(
        "--logistic",
        nargs=3,
        type=float,
        metavar=("B", "D", "C"),
        help="logistic birth-death parameters",
    )
    p.add_argument(
        "--states",
        default="auto",
        help="window size incl. state 0, or 'auto' to grow until the QSD is stable "
        "(parametric chains only; default auto)",
    )
    p.add_argument(
        "--boundary",
        choices=[REFLECT, KILL],
        help="window top (default: reflect for --logistic, the file's own for --chain)",
    )
    p.add_argument("--tol", type=float, default=1e-10,
                   help="window-search tolerance in TV; each QSD is solved to min(tol/100, 1e-12)")


def _build_chain(args):
    """Resolve the chain source args into an AbsorbedChain and a function
    that returns its QsdResult, solved at most once, to _qsd_tol(--tol).

    An auto-sized window's QSD is the one its search solved; any other
    window's is solved on the first call and kept.
    """
    try:
        n_states = None if args.states == "auto" else int(args.states)
    except ValueError:
        raise ValidationError(f"--states must be an integer or 'auto', got {args.states!r}") from None
    if args.chain is not None:
        ch = load_chain_file(args.chain)
        size = ch.n_states if n_states is None else n_states
        boundary = args.boundary or ch.boundary_mode
        if (size, boundary) != (ch.n_states, ch.boundary_mode):
            if ch.source_spec is None:
                flag, fixed = ("--boundary", "boundary") if size == ch.n_states else ("--states", "window")
                raise ValidationError(f"{flag} conflicts with the {fixed} fixed by the chain file")
            ch = ch.regrow(size, boundary)
    else:
        b, d, c = args.logistic
        boundary = args.boundary or REFLECT
        if n_states is None:
            spec = BirthDeathSpec.logistic(b, d, c)
            res = compute_qsd_auto(spec, tol=args.tol, boundary_mode=boundary)
            return res.chain, lambda: res
        ch = build_logistic(b, d, c, n_states, boundary)
    return ch, functools.cache(lambda: compute_qsd(ch, tol=_qsd_tol(args.tol)))


def _parse_states_list(text: str, n_transient: int) -> tuple[int, ...]:
    """Accept '1..5' ranges or '1,2,7' lists of transient states."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            out = tuple(range(int(lo), int(hi) + 1))
        else:
            out = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ValidationError(f"bad state set {text!r}") from None
    if not out or min(out) < 1 or max(out) > n_transient:
        raise ValidationError(f"state set {text!r} outside transient range 1..{n_transient}")
    return out


def _parse_grid(text: str) -> list[float]:
    """Accept 'a:b:step' arithmetic grids or comma-separated times.

    Every time must be finite and the grid non-empty; an arithmetic grid
    may hold at most _MAX_GRID_POINTS points."""
    text = text.strip()
    arithmetic = ":" in text
    try:
        if arithmetic:
            a, b, step = values = [float(s) for s in text.split(":", 2)]
        else:
            values = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValidationError(f"bad grid {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"bad grid {text!r}: times must be finite")
    if not arithmetic:
        if not values:
            raise ValidationError(f"bad grid {text!r}: no times")
        return values
    if step <= 0 or b < a:
        raise ValidationError(f"bad grid {text!r}")
    if (b - a) / step > _MAX_GRID_POINTS:
        raise ValidationError(f"bad grid {text!r}: more than {_MAX_GRID_POINTS} points")
    out = []
    t = a
    while t <= b + 1e-12:
        out.append(round(t, 12))
        t += step
    return out


def _parse_law(text: str, chain, qsd) -> DistributionOnStates:
    """The law text names on chain; qsd returns the window's QsdResult."""
    if text == "uniform":
        return DistributionOnStates.uniform(chain.n_states)
    if text == "qsd":
        return qsd().qsd
    try:
        state = int(text)
    except ValueError:
        raise ValidationError(f"bad law {text!r}: expected a state, 'uniform' or 'qsd'") from None
    return DistributionOnStates.delta(state, chain.n_states)


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _emit(path: str, summary: str):
    print(f"wrote {path} ({summary})")


# -- commands -------------------------------------------------------------


def cmd_qsd(args) -> int:
    _, qsd = _build_chain(args)
    res = qsd()
    path = _outpath(args, "qsd.csv")
    distribution_to_csv(res.qsd, path)
    _emit(
        path,
        f"n_states={res.truncation_n}, absorption_rate={fmt(res.absorption_rate)}, "
        f"eigen_residual={fmt(res.eigen_residual)}, iterations={res.iterations}",
    )
    return 0


def _auto_core(args) -> bd_mod.LogisticCertificate:
    """The auto-core logistic certificate (certify without --K, decay
    --auto-certify) with the window it searched and that window's QSD.

    It grows its own reflecting window from the logistic parameters, so
    it needs --logistic and refuses --states and --boundary kill.
    """
    if args.logistic is None:
        raise ValidationError("certify without --K and decay --auto-certify need a --logistic chain")
    for given, flag in ((args.states != "auto", "--states"), (args.boundary == KILL, "--boundary kill")):
        if given:
            raise ValidationError(f"{flag} does not apply to the auto-core logistic certificate, which "
                                  "grows its own reflecting window (certify --K takes a named window)")
    b, d, c = args.logistic
    return bd_mod.logistic_certificate(b, d, c, tol=args.tol)


def cmd_certify(args) -> int:
    if args.K is None:
        # the auto-core certificate fixes K = 1..z0, x0 = 1 and the
        # direct route
        if args.route == "criterion" or args.x0 is not None:
            raise ValidationError("--route criterion and --x0 need an explicit --K")
        cert = _auto_core(args).certificate
    else:
        chain, _ = _build_chain(args)
        if args.x0 is None:
            raise ValidationError("--K needs --x0")
        K = _parse_states_list(args.K, chain.n_transient)
        if args.route == "criterion":
            cert = derive_certificate_via_criterion(chain, K, args.x0)
        else:
            cert = certify(chain, K, args.x0)
    path = _outpath(args, "certificate.txt")
    write_text(path, certificate_to_text(cert))
    K = cert.K
    core = f"{K[0]}..{K[-1]}" if K[-1] - K[0] == len(K) - 1 else ",".join(map(str, K))
    _emit(path, f"gamma={fmt(cert.gamma)}, K={core}, lambda0={fmt(cert.lambda0)}")
    return 0


def cmd_criterion(args) -> int:
    chain, _ = _build_chain(args)
    if args.K is not None:
        rep = check_core_return(chain, _parse_states_list(args.K, chain.n_transient))
    else:
        rep = check_uniform_rates(chain)
    path = _outpath(args, "criterion.txt")
    write_text(path, rep.to_text())
    verdicts = []
    if rep.core_return_holds is not None:
        verdicts.append(f"core_return={'holds' if rep.core_return_holds else 'fails'}")
    verdicts.append(f"uniform_rates={'holds' if rep.uniform_rates_holds else 'fails'}")
    _emit(path, ", ".join(verdicts))
    return 0


def cmd_bd(args) -> int:
    b, d, c = args.logistic
    rep = bd_mod.build_bd_report(b, d, c, z=args.z, x_max=args.x_max, j_max=args.j_max)
    txt = _outpath(args, "bd_report.txt")
    write_text(txt, rep.to_text())
    acsv = _outpath(args, "bd_alpha.csv")
    bd_mod.alpha_to_csv(rep, acsv)
    hcsv = _outpath(args, "bd_hitting.csv")
    bd_mod.hitting_to_csv(rep, hcsv)
    _emit(txt, f"z={rep.z}, z0={rep.z0}, sup_hitting={fmt(rep.sup_hitting)}")
    _emit(acsv, f"{rep.alpha.size} coefficients")
    _emit(hcsv, f"x={rep.z + 1}..{int(rep.hitting_x[-1])}")
    return 0


def cmd_decay(args) -> int:
    cert = None
    if args.auto_certify:
        # the table runs on the certificate's own window, with its QSD
        lc = _auto_core(args)
        chain, qsd, cert = lc.chain, lambda: lc.qsd, lc.certificate
    else:
        chain, qsd = _build_chain(args)
    mu = _parse_law(args.mu, chain, qsd)
    nu = _parse_law(args.nu, chain, qsd)
    grid = _parse_grid(args.t_grid)
    if args.certificate is not None:
        cert = parse_certificate_text(read_text(args.certificate))
    rows = decay_table(chain, mu, nu, grid, certificate=cert, rho=qsd().qsd)
    path = _outpath(args, "decay.csv")
    decay_to_csv(rows, path)
    worst = max((r.tv_pair for r in rows), default=math.nan)
    _emit(path, f"{len(rows)} rows, max tv_pair={fmt(worst)}, bound={'yes' if cert else 'no'}")
    return 0


def cmd_simulate(args) -> int:
    chain, qsd = _build_chain(args)
    mu = _parse_law(args.mu, chain, qsd)
    stop = (
        _parse_states_list(args.stop_set, chain.n_transient)
        if args.stop_set is not None
        else None
    )
    try:
        horizon = float(args.horizon)
    except ValueError:
        raise ValidationError(f"--horizon must be a time or 'inf', got {args.horizon!r}") from None
    batch = mc_mod.simulate_batch(
        chain, mu, horizon, args.n_paths, args.seed, stop_on_set=stop
    )
    path = _outpath(args, "batch.csv")
    mc_mod.batch_to_csv(batch, path)
    _emit(
        path,
        f"n_paths={batch.n_paths}, survival_fraction={fmt(batch.survival_fraction())}",
    )
    return 0


def cmd_fv(args) -> int:
    chain, qsd = _build_chain(args)
    mu = _parse_law(args.mu, chain, qsd) if args.mu is not None else None
    sample_times = _parse_grid(args.sample_times) if args.sample_times is not None else None
    snaps = mc_mod.fleming_viot(
        chain, args.n_particles, float(args.horizon), args.seed,
        sample_times=sample_times, mu=mu,
    )
    path = _outpath(args, "fv.csv")
    mc_mod.ensembles_to_csv(snaps, path)
    last = snaps[-1]
    summary = f"n_particles={last.n_particles}, redraws={last.redraw_count}"
    if args.compare_qsd:
        gap = tv_distance(last.empirical_distribution(chain.n_states), qsd().qsd)
        summary += f", tv_to_qsd={fmt(gap)}"
    _emit(path, summary)
    return 0


# -- parser ---------------------------------------------------------------


# built once per process: in-process callers of main (tests, benchmark
# workers) would otherwise rebuild seven subparsers on every call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quasistat",
        description="Quasi-stationary analysis of absorbed continuous-time Markov chains.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, chain_args=True):
        p = sub.add_parser(name, help=help)
        if chain_args:
            _add_chain_args(p)
        p.set_defaults(func=func)
        return p

    command("qsd", cmd_qsd, "compute the quasi-stationary law")

    p = command("certify", cmd_certify, "assemble a mixing certificate")
    p.add_argument("--K", help="core set, e.g. '1..3' or '1,2,3' (auto for logistic)")
    p.add_argument("--x0", type=int, help="anchor state inside K")
    p.add_argument("--route", choices=["direct", "criterion"], default="direct")

    p = command("criterion", cmd_criterion, "evaluate the rate-matrix tests")
    p.add_argument("--K", help="core set to test; omit to scan prefixes")

    p = command("bd", cmd_bd, "birth-death ladder and hitting analytics", chain_args=False)
    p.add_argument("--logistic", nargs=3, type=float, metavar=("B", "D", "C"), required=True)
    p.add_argument("--z", type=int, default=None, help="target level (default: z0)")
    p.add_argument("--x-max", type=int, default=None, dest="x_max",
                   help="top level of the hitting table (default: 30, or z + 30 when z >= 30)")
    p.add_argument("--j-max", type=int, default=40, dest="j_max")

    p = command("decay", cmd_decay, "tabulate conditional mixing against the bound")
    p.add_argument("--mu", required=True, help="initial law: state, 'uniform', or 'qsd'")
    p.add_argument("--nu", required=True, help="second initial law")
    p.add_argument("--t-grid", default="1:12:1", dest="t_grid")
    bound = p.add_mutually_exclusive_group()
    bound.add_argument("--certificate", help="certificate file for the bound column")
    bound.add_argument(
        "--auto-certify",
        action="store_true",
        dest="auto_certify",
        help="certify from the logistic parameters and tabulate on that certificate's window",
    )

    p = command("simulate", cmd_simulate, "independent absorbed paths")
    p.add_argument("--mu", required=True)
    p.add_argument("--horizon", required=True, help="time horizon or 'inf'")
    p.add_argument("--n-paths", type=int, required=True, dest="n_paths")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stop-set", dest="stop_set", help="stop on entering these states")

    p = command("fv", cmd_fv, "interacting-particle QSD estimate")
    p.add_argument("--mu", default=None)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--n-particles", type=int, required=True, dest="n_particles")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sample-times", dest="sample_times")
    p.add_argument("--compare-qsd", action="store_true", dest="compare_qsd")

    # every command takes --out, listed last
    for p in sub.choices.values():
        p.add_argument("--out", default=".")
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse speaks exit codes already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except QuasistatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
