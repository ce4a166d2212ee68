import hashlib
import subprocess
import sys
import time
import warnings

import pytest

from quasistat import (
    build_logistic,
    certify,
    compute_qsd,
    derive_certificate_via_criterion,
    parse_certificate_text,
)
from quasistat.cli import main

CATASTROPHE_FILE = """\
states 8
rate 1 2 1.0
rate 2 3 1.0
rate 3 4 1.0
rate 4 5 1.0
rate 5 6 1.0
rate 6 7 1.0
rate 2 1 3.0
rate 3 1 3.0
rate 4 1 3.0
rate 5 1 3.0
rate 6 1 3.0
rate 7 1 3.0
rate 1 0 1.0
"""


def run(argv):
    return main(argv)


# -- exit codes ------------------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_missing_required_args(capsys):
    assert run(["qsd"]) == 2
    capsys.readouterr()


def test_bad_chain_file_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("states 4\nbogus directive\n")
    code = run(["qsd", "--chain", str(p), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "bad.txt:2" in captured.err


def test_singular_sub_generator_is_computation_error(tmp_path, capsys):
    # the loss at state 1 vanishes against the exit rate in floating point,
    # so the sparse LU meets an exactly singular pivot
    p = tmp_path / "stiff.txt"
    p.write_text("states 3\nrate 1 2 1e20\nrate 2 1 1e20\nrate 1 0 1e-20\n")
    code = run(["qsd", "--chain", str(p), "--out", str(tmp_path)])
    assert code == 1
    assert "sparse LU" in capsys.readouterr().err


def test_series_past_the_cap_is_computation_error(tmp_path, capsys):
    # L*t = 1e12 Poisson terms at t = 1: evolution refuses instead of
    # allocating the weights
    p = tmp_path / "fast.txt"
    p.write_text("states 3\nrate 1 2 1e12\nrate 2 1 1.0\nrate 1 0 1.0\n")
    code = run(["certify", "--chain", str(p), "--K", "1..1", "--x0", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "cap" in err
    assert "Traceback" not in err


def test_survival_underflow_names_c1_and_the_state(tmp_path, capsys):
    # state 2 dies at rate 1000, so its survival to t = 1 underflows to 0
    # and c1's ratio there is 0/0: a certification failure, not a bad value
    p = tmp_path / "fast_death.txt"
    p.write_text("states 3\nboundary reflect\nrate 1 2 1\nrate 1 0 1\nrate 2 0 1000\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["certify", "--chain", str(p), "--K", "1", "--x0", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: c1 ")
    assert "state 2" in err and "underflows" in err
    assert not (tmp_path / "certificate.txt").exists()


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
@pytest.mark.parametrize(
    "chain, K, message",
    [
        # one-way ladder: states 2 and 3 never come back to 1
        ("states 4\nrate 1 2 1\nrate 2 3 1\nrate 1 0 1\n", "1",
         "c1 floor vanishes: state 2 cannot reach 1 within unit time on this window"),
        # state 3 jumps only to 1: no one-step floor from 3 back to 3
        ("states 4\nrate 1 2 1\nrate 2 1 1\nrate 3 1 1\nrate 1 0 1\n", "1,3",
         "c2 certified floor vanishes on K"),
        # the moment off {1} diverges at both candidate rates
        ("states 3\nrate 1 2 0.1\nrate 1 0 0.1\nrate 2 1 0.1\n", "1",
         "no occupancy-decay strategy yields a finite exponential moment"),
    ],
    ids=["c1", "c2", "c3"],
)
def test_certify_failure_prints_the_constant_and_exits_1(tmp_path, capsys, chain, K, message):
    p = tmp_path / "fails.chain"
    p.write_text(chain)
    code = run(["certify", "--chain", str(p), "--K", K, "--x0", "1", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "certificate.txt").exists()


def test_missing_file_is_io_error(tmp_path, capsys):
    code = run(["qsd", "--chain", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_threads_zero_rejected(tmp_path, capsys):
    # no --threads option exists, whatever its value
    code = run(["--threads", "0", "qsd", "--logistic", "1", "1", "1", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("usage:")
    assert not (tmp_path / "qsd.csv").exists()


# -- qsd -----------------------------------------------------------------------------


def test_qsd_logistic_auto(tmp_path, capsys):
    code = run(["qsd", "--logistic", "1", "1", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "qsd.csv" in out
    lines = (tmp_path / "qsd.csv").read_text().strip().splitlines()
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_qsd_matches_library(tmp_path, capsys):
    code = run(["qsd", "--logistic", "1", "1", "1", "--states", "64", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "qsd.csv").read_text().strip().splitlines()
    got = [float(line.split(",")[1]) for line in lines[1:]]
    want = compute_qsd(build_logistic(1.0, 1.0, 1.0, 64), tol=1e-10).qsd.weights
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


KILL_RATES_FILE = """\
states 4
boundary kill
rate 1 0 1.0
rate 1 2 1.0
rate 2 1 1.0
rate 2 3 1.0
rate 3 2 1.0
rate 3 4 0.5
"""


def test_boundary_flag_applies_to_chain_files(tmp_path, capsys):
    # without --boundary a chain file keeps its own boundary; a parametric
    # file is regrown under the flag, an explicit rate table refuses it
    (tmp_path / "logistic.chain").write_text("states 16\nboundary kill\nlogistic 1 1 1\n")
    (tmp_path / "rates.chain").write_text(KILL_RATES_FILE)

    def qsd(name, *argv):
        assert run(["qsd", *argv, "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name / "qsd.csv").read_bytes()

    logistic = ["--chain", str(tmp_path / "logistic.chain")]
    own = qsd("own", *logistic)
    assert qsd("kill", *logistic, "--boundary", "kill") == own
    regrown = qsd("reflect", *logistic, "--boundary", "reflect")
    assert regrown != own
    assert regrown == qsd("parametric", "--logistic", "1", "1", "1", "--states", "16")
    assert qsd("resized", *logistic, "--states", "20", "--boundary", "reflect") == qsd(
        "parametric-20", "--logistic", "1", "1", "1", "--states", "20"
    )
    rates = ["--chain", str(tmp_path / "rates.chain")]
    assert qsd("rates-kill", *rates, "--boundary", "kill") == qsd("rates", *rates)
    capsys.readouterr()
    code = run(["qsd", *rates, "--boundary", "reflect", "--out", str(tmp_path / "bad")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "--boundary conflicts" in err
    assert not (tmp_path / "bad").exists()


def test_qsd_reruns_byte_identical(tmp_path, capsys):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for d in (a_dir, b_dir):
        assert run(["qsd", "--logistic", "1.5", "1", "0.5", "--out", str(d)]) == 0
    capsys.readouterr()
    assert (a_dir / "qsd.csv").read_bytes() == (b_dir / "qsd.csv").read_bytes()


def test_threads_flag_never_changes_output(tmp_path, capsys):
    # the no-op flag is gone: argparse rejects it, as it does --t-max
    code = run(["qsd", "--logistic", "1", "1", "1", "--threads", "8", "--out", str(tmp_path)])
    assert code == 2
    assert "unrecognized arguments: --threads 8" in capsys.readouterr().err
    assert not (tmp_path / "qsd.csv").exists()


# -- certify ----------------------------------------------------------------------------


def test_certify_logistic_auto_pipeline(tmp_path, capsys):
    code = run(["certify", "--logistic", "1", "1", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0 and "gamma=" in out
    cert = parse_certificate_text((tmp_path / "certificate.txt").read_text())
    assert cert.K == (1,) and 0 < cert.gamma <= 0.5


def test_certify_explicit_chain_requires_K(tmp_path, capsys):
    p = tmp_path / "chain.txt"
    p.write_text(CATASTROPHE_FILE)
    code = run(["certify", "--chain", str(p), "--out", str(tmp_path)])
    assert code == 1
    assert "--K" in capsys.readouterr().err


def test_certify_has_no_t_max_option(tmp_path, capsys):
    # a certificate evolves nothing past t = 1, so no horizon is accepted
    code = run(["certify", "--logistic", "1", "1", "1", "--t-max", "5", "--out", str(tmp_path)])
    assert code == 2
    assert "--t-max" in capsys.readouterr().err
    assert not (tmp_path / "certificate.txt").exists()


@pytest.mark.parametrize("extra", [["--route", "criterion"], ["--x0", "1"]])
def test_certify_logistic_auto_core_rejects_route_and_anchor(tmp_path, capsys, extra):
    # without --K the logistic certificate picks K, x0 and the route itself
    code = run(["certify", "--logistic", "1", "1", "1", *extra, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "--K" in err
    assert not (tmp_path / "certificate.txt").exists()


def test_certify_criterion_route_matches_library(tmp_path, capsys):
    p = tmp_path / "chain.txt"
    p.write_text(CATASTROPHE_FILE)
    code = run([
        "certify", "--chain", str(p), "--K", "1", "--x0", "1",
        "--route", "criterion", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    cert = parse_certificate_text((tmp_path / "certificate.txt").read_text())
    import quasistat

    chain = quasistat.parse_chain_text(CATASTROPHE_FILE)
    want = derive_certificate_via_criterion(chain, (1,), 1)
    assert cert == want


def test_certify_direct_route_matches_library(tmp_path, capsys):
    p = tmp_path / "chain.txt"
    p.write_text(CATASTROPHE_FILE)
    code = run(["certify", "--chain", str(p), "--K", "1", "--x0", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    cert = parse_certificate_text((tmp_path / "certificate.txt").read_text())
    import quasistat

    want = certify(quasistat.parse_chain_text(CATASTROPHE_FILE), (1,), 1)
    assert cert == want


@pytest.mark.parametrize(
    "core, shown",
    [("1", "K=1..1"), ("1..2", "K=1..2"), ("2,1", "K=1..2"), ("1,3", "K=1,3")],
)
def test_certify_summary_names_the_core(core, shown, tmp_path, capsys):
    # a range only for a contiguous core, a comma list otherwise
    p = tmp_path / "chain.txt"
    p.write_text(CATASTROPHE_FILE)
    code = run(["certify", "--chain", str(p), "--K", core, "--x0", "1", "--out", str(tmp_path)])
    assert code == 0
    assert f", {shown}, lambda0=" in capsys.readouterr().out


# -- criterion -----------------------------------------------------------------------------


def test_criterion_with_core(tmp_path, capsys):
    p = tmp_path / "chain.txt"
    p.write_text(CATASTROPHE_FILE)
    code = run(["criterion", "--chain", str(p), "--K", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "core_return=holds" in out
    text = (tmp_path / "criterion.txt").read_text()
    assert "c4_bound = 1.5" in text
    assert "core_return_test = holds" in text


def test_criterion_prefix_scan(tmp_path, capsys):
    p = tmp_path / "chain.txt"
    p.write_text(CATASTROPHE_FILE)
    code = run(["criterion", "--chain", str(p), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "uniform_rates=holds" in out
    assert "K = 1" in (tmp_path / "criterion.txt").read_text()


# -- bd ----------------------------------------------------------------------------------------


def test_bd_artifacts(tmp_path, capsys):
    code = run(["bd", "--logistic", "1", "1", "1", "--x-max", "12", "--j-max", "8",
                "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    report = (tmp_path / "bd_report.txt").read_text()
    assert "z0 = 1" in report
    alpha = (tmp_path / "bd_alpha.csv").read_text().strip().splitlines()
    assert len(alpha) == 9
    hitting = (tmp_path / "bd_hitting.csv").read_text().strip().splitlines()
    assert hitting[0].startswith("x,")
    assert len(hitting) == 12  # x = 2..12


@pytest.mark.parametrize("logistic", [("1", "1", "0"), ("0.99999", "1", "0"), ("0.5", "1", "0")])
def test_bd_without_competition_fails_fast_on_its_proof(tmp_path, capsys, logistic):
    # c = 0 makes sum_k 1/d_k diverge; that proof must come before any
    # ladder-tail scan, which for b >= d runs 10**6 levels and then blames
    # the finite-x tail
    start = time.perf_counter()
    code = run(["bd", "--logistic", *logistic, "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1
    assert "c = 0: sum_k 1/d_k diverges" in err
    assert "ladder tail" not in err
    assert elapsed < 0.5
    assert not (tmp_path / "bd_report.txt").exists()


# -- decay -------------------------------------------------------------------------------------


def test_decay_with_auto_certificate(tmp_path, capsys):
    code = run([
        "decay", "--logistic", "1", "1", "1", "--mu", "1", "--nu", "40",
        "--t-grid", "1:12:1", "--auto-certify", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "decay.csv").read_text().strip().splitlines()
    assert len(lines) == 13
    for line in lines[1:]:
        t, tv_mu, tv_nu, tv_pair, bound = (float(v) for v in line.split(","))
        assert tv_pair <= bound + 1e-9
        assert tv_mu <= bound + 1e-9


# sha256 of decay.csv on a 64-state window (63 transient states); the rows
# from t = 8 on sit at the QSD's own residual (~7e-12), where any change in
# rounding shows
GOLDEN_DECAY_1_1_1_64 = "2642f1d292dd1a14ca7286404b65de79a1ab3f0100375190706d3bf82665d604"


def test_small_window_decay_csv_is_golden(tmp_path, capsys):
    code = run([
        "decay", "--logistic", "1", "1", "1", "--states", "64", "--mu", "1", "--nu", "40",
        "--t-grid", "1:12:1", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    data = (tmp_path / "decay.csv").read_bytes()
    assert len(data.splitlines()) == 13
    assert hashlib.sha256(data).hexdigest() == GOLDEN_DECAY_1_1_1_64


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--logistic", "1", "1", "1"],
        ["decay", "--logistic", "1", "1", "1", "--states", "16", "--mu", "1", "--nu", "2",
         "--t-grid", "1,2", "--auto-certify"],
    ],
)
def test_auto_core_certificate_refuses_kill_boundary(argv, tmp_path, capsys):
    # the auto-core certificate is computed on reflecting windows, so a
    # kill boundary would be ignored (certify) or paired with the wrong
    # window (decay); reflect, the default, is accepted
    out = tmp_path / "out"
    assert run([*argv, "--boundary", "kill", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--boundary kill" in err
    assert not (out / "certificate.txt").exists() and not (out / "decay.csv").exists()
    assert run([*argv, "--boundary", "reflect", "--out", str(out)]) == 0


def test_decay_auto_certify_needs_logistic(tmp_path, capsys):
    p = tmp_path / "chain.txt"
    p.write_text(CATASTROPHE_FILE)
    code = run(["decay", "--chain", str(p), "--mu", "1", "--nu", "2",
                "--auto-certify", "--out", str(tmp_path)])
    assert code == 1
    assert "auto-certify" in capsys.readouterr().err


def test_decay_reads_certificate_file(tmp_path, capsys):
    assert run(["certify", "--logistic", "1", "1", "1", "--out", str(tmp_path)]) == 0
    code = run([
        "decay", "--logistic", "1", "1", "1", "--mu", "1", "--nu", "qsd",
        "--t-grid", "1,2,4", "--certificate", str(tmp_path / "certificate.txt"),
        "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "decay.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_decay_refuses_a_certificate_file_with_a_bad_boundary(tmp_path, capsys):
    assert run(["certify", "--logistic", "1", "1", "1", "--out", str(tmp_path)]) == 0
    path = tmp_path / "certificate.txt"
    path.write_text(path.read_text().replace("boundary = reflect", "boundary = sideways"))
    out = tmp_path / "out"
    code = run([
        "decay", "--logistic", "1", "1", "1", "--mu", "1", "--nu", "qsd",
        "--t-grid", "1,2,4", "--certificate", str(path), "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "sideways" in err
    assert not out.exists()


# -- simulate and fv ------------------------------------------------------------------------------


def test_simulate_reruns_byte_identical(tmp_path, capsys):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    base = ["simulate", "--logistic", "1", "1", "1", "--states", "32", "--mu", "3",
            "--horizon", "2.0", "--n-paths", "500", "--seed", "9"]
    assert run(base + ["--out", str(a_dir)]) == 0
    assert run(base + ["--out", str(b_dir)]) == 0
    out = capsys.readouterr().out
    assert "survival_fraction=" in out
    assert (a_dir / "batch.csv").read_bytes() == (b_dir / "batch.csv").read_bytes()


def test_simulate_seed_changes_output(tmp_path, capsys):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    base = ["simulate", "--logistic", "1", "1", "1", "--states", "32", "--mu", "3",
            "--horizon", "2.0", "--n-paths", "500"]
    assert run(base + ["--seed", "9", "--out", str(a_dir)]) == 0
    assert run(base + ["--seed", "10", "--out", str(b_dir)]) == 0
    capsys.readouterr()
    assert (a_dir / "batch.csv").read_bytes() != (b_dir / "batch.csv").read_bytes()


def test_simulate_stop_set(tmp_path, capsys):
    code = run(["simulate", "--logistic", "1", "1", "1", "--states", "32", "--mu", "5",
                "--horizon", "inf", "--n-paths", "200", "--seed", "4",
                "--stop-set", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "batch.csv").read_text().strip().splitlines()
    assert len(lines) == 201
    # every path stops at state 1 with a recorded time
    for line in lines[1:]:
        _, end, t = line.split(",")
        assert end == "1" and t != ""


def test_fv_counts_and_qsd_comparison(tmp_path, capsys):
    code = run(["fv", "--logistic", "1", "1", "1", "--states", "32",
                "--horizon", "5.0", "--n-particles", "400", "--seed", "2",
                "--sample-times", "2.5,5.0", "--compare-qsd", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "tv_to_qsd=" in out
    lines = (tmp_path / "fv.csv").read_text().strip().splitlines()
    totals: dict = {}
    for line in lines[1:]:
        t, _, count = line.split(",")
        totals[t] = totals.get(t, 0) + int(count)
    assert set(totals.values()) == {400}


@pytest.mark.parametrize(
    "grid", ["nan", "1,nan,2", "1,inf", "0:nan:1", "0:inf:1", "nan:5:1", "0:5:inf", ",",
             "1:2", "abc", "1e20:2e20:1"],
)
@pytest.mark.parametrize("command", ["fv", "decay"])
def test_bad_time_grid_is_rejected_before_any_artifact(command, grid, tmp_path, capsys):
    # an infinite or NaN end would otherwise grow the grid until memory
    # runs out, and a NaN time would write NaN rows
    out = tmp_path / "out"
    argv = [command, "--logistic", "1", "1", "1", "--states", "16", "--out", str(out)]
    if command == "fv":
        argv += ["--horizon", "5", "--n-particles", "20", "--seed", "1", "--sample-times", grid]
    else:
        argv += ["--mu", "1", "--nu", "3", "--t-grid", grid]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "bad grid" in err
    assert not out.exists()


LOGISTIC_16 = ["--logistic", "1", "1", "1", "--states", "16"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", *LOGISTIC_16, "--mu", "abc", "--horizon", "1", "--n-paths", "3",
          "--seed", "1"], "bad law 'abc'"),
        (["fv", *LOGISTIC_16, "--mu", "x", "--horizon", "1", "--n-particles", "3",
          "--seed", "1"], "bad law 'x'"),
        (["decay", *LOGISTIC_16, "--mu", "1", "--nu", "2.5"], "bad law '2.5'"),
        (["simulate", *LOGISTIC_16, "--mu", "1", "--horizon", "abc", "--n-paths", "3",
          "--seed", "1"], "--horizon must be a time"),
        (["simulate", *LOGISTIC_16, "--mu", "1", "--horizon", "1", "--n-paths", "3",
          "--seed", "1", "--stop-set", "1..x"], "bad state set '1..x'"),
        (["certify", *LOGISTIC_16, "--K", "1,b", "--x0", "1"], "bad state set '1,b'"),
        (["criterion", *LOGISTIC_16, "--K", "a..3"], "bad state set 'a..3'"),
        (["qsd", "--logistic", "1", "1", "1", "--states", "abc"], "--states must be an integer"),
        (["qsd", "--chain", "chain.txt", "--states", "2.5"], "--states must be an integer"),
        (["decay", *LOGISTIC_16, "--mu", "1", "--nu", "2", "--certificate", "bad.cert"],
         "certificate field K is malformed: '1,x'"),
    ],
    ids=["simulate-mu", "fv-mu", "decay-nu", "horizon", "stop-set", "certify-K",
         "criterion-K", "states-logistic", "states-chain", "certificate-file-K"],
)
def test_unparseable_argument_is_validation_error(argv, message, tmp_path, monkeypatch, capsys):
    # int() or float() on raw argument or file text must end as a
    # ValidationError, with an error: line and no artifact, not as a traceback
    (tmp_path / "chain.txt").write_text(CATASTROPHE_FILE)
    (tmp_path / "bad.cert").write_text(
        "quasistat certificate v1\nK = 1,x\nx0 = 1\nc1 = 0.5\nc2 = 0.5\nc3 = 0.5\n"
        "c4 = 2\nlambda0 = 1\ngamma = 0.01\nn_states = 16\n"
    )
    monkeypatch.chdir(tmp_path)
    code = run([*argv, "--out", "out"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


# -- installed entry point ------------------------------------------------------------------------


def test_console_script_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "quasistat.cli", "qsd", "--logistic", "1", "1", "1",
         "--states", "16", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "qsd.csv").exists()
