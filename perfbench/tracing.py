"""Per-layer spans recorded from outside quasistat.

The tracer replaces public functions at the module attributes through
which the CLI and the other layers reach them (for example both
``quasistat.engine.evolve_function`` and ``quasistat.certify.evolve_function``)
with wrappers that record a span: name, layer, start, end, parent span, op
id, plus counts derived from the call's arguments and result.  Spans stay
in memory and are written once when the run ends.  ``uninstall`` puts the
original functions back, so untraced passes run the unmodified program.

``layer_metrics`` turns the spans into the per-layer metrics.  A span's
self time is its duration minus the time its child spans cover.  Span
times are calibrated with the speed factor of their op, like every time
the benchmark reports (see run.py).  tracemalloc runs only inside the
core-return tests and the dense column floor, where the criterion layer
allocates; tracing every allocation of the prefix scan would multiply its
time.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time
import tracemalloc

# Evolutions on windows with fewer transient states than this count as
# dense; the same cutoff as the program's dense/sparse split.
DENSE_BELOW = 64


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [op, name, layer, start, end, parent, info]
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer, name, fn, info=None, alloc=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [tracer.op, name, layer, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, {}]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            own_alloc = alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
                if own_alloc:
                    span[6]["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if info is not None:
                span[6].update(info(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        engine = importlib.import_module("quasistat.engine")
        from scipy.stats import poisson

        def evolve_info(args, kwargs, result):
            chain, t = args[0], _arg(args, kwargs, 2, "t")
            tol = _arg(args, kwargs, 3, "series_tol", engine.SERIES_TOL)
            mu = chain.uniformization_rate() * t
            terms = int(poisson.isf(tol, mu)) + 1 if mu > 0 else 0
            return {"n": chain.n_transient, "terms": terms}

        def qsd_info(args, kwargs, result):
            return {"iterations": result.iterations, "residual": result.eigen_residual}

        def c2_info(args, kwargs, result):
            return {"columns": len({int(x) for x in _arg(args, kwargs, 1, "K")})}

        def gamma_info(args, kwargs, result):
            return {"gamma": result.gamma}

        def z0_info(args, kwargs, result):
            return {"levels": result if result is not None else _arg(args, kwargs, 2, "z_max", 200)}

        def simulate_info(args, kwargs, result):
            return {"paths": result.n_paths, "survivors": int(result.survivor_mask().sum())}

        def fv_info(args, kwargs, result):
            n = _arg(args, kwargs, 1, "n_particles")
            horizon = _arg(args, kwargs, 2, "horizon")
            return {"particle_time": n * horizon, "redraws": result[-1].redraw_count}

        def csv_info(args, kwargs, result):
            target = _arg(args, kwargs, 0, "target")
            return {"bytes": os.path.getsize(target) if isinstance(target, str) else 0}

        def text_info(args, kwargs, result):
            return {"bytes": len(result.encode("utf-8"))}

        sites = [
            # (modules, attribute, layer, span name, info, alloc)
            (("engine", "certify"), "evolve_function", "engine", "evolve", evolve_info, False),
            (("engine",), "evolve_measure", "engine", "evolve", evolve_info, False),
            (("engine", "certify"), "survival_vector", "engine", "survival_vector", None, False),
            (("engine", "cli"), "compute_qsd", "engine", "qsd", qsd_info, False),
            (("engine", "cli", "bd"), "compute_qsd_auto", "engine", "qsd_auto", None, False),
            (("cli",), "decay_table", "engine", "decay", None, False),
            (("cli",), "distribution_to_csv", "engine", "distribution_to_csv", None, False),
            (("cli",), "decay_to_csv", "engine", "decay_to_csv", None, False),
            (("certify", "bd", "criterion"), "compute_c1", "certify", "c1", None, False),
            (("certify", "bd", "criterion"), "compute_c2", "certify", "c2", c2_info, False),
            (("certify",), "compute_c3_lambda0", "certify", "c3", None, False),
            (("certify", "criterion"), "_c3_absorption_rate", "certify", "c3", None, False),
            (("certify", "bd"), "compute_c4", "certify", "c4", None, False),
            (("cli",), "certify", "certify", "certify", None, False),
            (("certify", "bd", "criterion"), "assemble_certificate", "certify", "assemble",
             gamma_info, False),
            (("cli",), "certificate_to_text", "certify", "certificate_to_text", None, False),
            (("cli",), "parse_certificate_text", "certify", "parse_certificate", None, False),
            (("bd",), "logistic_certificate", "bd", "logistic_certificate", None, False),
            (("bd",), "build_bd_report", "bd", "build_bd_report", None, False),
            (("bd",), "find_z0", "bd", "z0", z0_info, False),
            (("bd",), "exp_moment_hitting", "bd", "moment", None, False),
            (("bd",), "_solve_moment", "bd", "moment_solve", None, False),
            (("bd",), "tail_expected_hitting", "bd", "hitting", None, False),
            (("bd",), "alpha_coeffs", "bd", "alpha_coeffs", None, False),
            (("bd",), "alpha_to_csv", "bd", "alpha_to_csv", None, False),
            (("bd",), "hitting_to_csv", "bd", "hitting_to_csv", None, False),
            (("cli",), "check_uniform_rates", "criterion", "uniform_rates", None, False),
            (("cli", "criterion"), "check_core_return", "criterion", "core_return", None, True),
            (("criterion",), "find_minimal_core", "criterion", "minimal_core", None, False),
            (("criterion",), "compute_alpha_K", "criterion", "alpha_K", None, False),
            (("criterion",), "compute_alpha_uniform", "criterion", "alpha_uniform", None, True),
            (("criterion",), "compute_q_bar", "criterion", "q_bar", None, False),
            (("cli",), "derive_certificate_via_criterion", "criterion", "criterion_certificate",
             None, False),
            (("mc",), "simulate_batch", "mc", "simulate", simulate_info, False),
            (("mc",), "fleming_viot", "mc", "fv", fv_info, False),
            (("mc",), "batch_to_csv", "mc", "batch_to_csv", None, False),
            (("mc",), "ensembles_to_csv", "mc", "ensembles_to_csv", None, False),
            (("engine", "bd", "mc"), "write_csv", "textio", "write_csv", csv_info, False),
            (("bd", "criterion"), "render_keyvalues", "textio", "render_keyvalues", text_info,
             False),
            (("chain", "engine"), "truncate", "chain", "truncate", None, False),
            (("cli",), "build_logistic", "chain", "build_logistic", None, False),
            (("cli",), "load_chain_file", "chain", "load_chain_file", None, False),
            (("chain",), "AbsorbedChain.regrow", "chain", "regrow", None, False),
            (("chain",), "AbsorbedChain.as_reflecting", "chain", "as_reflecting", None, False),
            (("chain",), "AbsorbedChain.__init__", "chain", "construct", None, False),
        ]
        for modules, attr, layer, name, info, alloc in sites:
            for mod_name in modules:
                owner = importlib.import_module("quasistat." + mod_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(layer, name, original, info, alloc))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)


# -- metrics from spans ------------------------------------------------------------

# name -> (unit, description); the order is the order of the report.
PER_LAYER = {
    "engine.series_terms": ("count", "Poisson terms = matvecs, computed per evolve call"),
    "engine.evolve_sparse_s": ("s", "evolve time on windows of >= 64 transient states"),
    "engine.evolve_dense_s": ("s", "evolve time on windows of < 64 transient states"),
    "engine.evolve_calls": ("count", "evolve_measure/evolve_function calls"),
    "engine.qsd_s": ("s", "time in compute_qsd"),
    "engine.qsd_solves": ("count", "compute_qsd calls"),
    "engine.qsd_iterations": ("count", "power iterations over all solves"),
    "engine.qsd_auto_s": ("s", "time in compute_qsd_auto"),
    "engine.windows_tried": ("count", "windows solved inside compute_qsd_auto"),
    "engine.decay_s": ("s", "time in decay_table"),
    "engine.eigen_residual_max": ("1", "largest eigen-residual returned (0 if no solve)"),
    "engine.self_s": ("s", "engine self time"),
    "certify.c1_s": ("s", "time in compute_c1"),
    "certify.c2_s": ("s", "time in compute_c2"),
    "certify.c2_columns": ("count", "sum of |K| over compute_c2 calls"),
    "certify.c3_s": ("s", "time in the c3/lambda0 routes (c4 solves they make included)"),
    "certify.c4_s": ("s", "time in compute_c4"),
    "certify.doubling_builds": ("count", "AbsorbedChain.regrow calls"),
    "certify.gamma_log10_min": ("log10", "smallest log10(gamma) assembled (0 if none)"),
    "certify.self_s": ("s", "certify self time"),
    "bd.z0_s": ("s", "time in find_z0"),
    "bd.z0_levels": ("count", "levels the z0 searches tried, from their results"),
    "bd.moment_s": ("s", "time in exp_moment_hitting"),
    "bd.moment_solves": ("count", "banded moment solves"),
    "bd.hitting_s": ("s", "time in tail_expected_hitting"),
    "bd.self_s": ("s", "bd self time"),
    "criterion.uniform_rates_s": ("s", "time in check_uniform_rates"),
    "criterion.core_return_s": ("s", "time in check_core_return"),
    "criterion.minimal_core_s": ("s", "time in find_minimal_core"),
    "criterion.prefixes_scanned": ("count", "compute_alpha_K calls"),
    "criterion.alloc_peak_mb": ("MiB", "tracemalloc peak inside core-return tests and column "
                                       "floors (0 if none)"),
    "criterion.self_s": ("s", "criterion self time"),
    "mc.simulate_s": ("s", "time in simulate_batch"),
    "mc.paths_per_s": ("1/s", "paths simulated per second of simulate_batch (0 if none)"),
    "mc.survivor_ratio": ("ratio", "surviving paths / attempted paths (0 if none)"),
    "mc.fv_s": ("s", "time in fleming_viot"),
    "mc.fv_particle_time_per_s": ("1/s", "particles x horizon per second of fleming_viot"),
    "mc.fv_redraws": ("count", "Fleming-Viot respawns"),
    "mc.tv_to_exact_max": ("1", "largest MC TV to the exact law or QSD (0 if no MC)"),
    "mc.self_s": ("s", "mc self time"),
    "textio.write_s": ("s", "time in write_csv and render_keyvalues"),
    "textio.bytes_written": ("count", "bytes those calls produced"),
    "chain.build_s": ("s", "time building, loading and regrowing windows"),
    "chain.builds": ("count", "AbsorbedChain constructions"),
    "cli.self_s": ("s", "op time no layer span covers"),
    "trace.overhead_s": ("s", "traced pass wall time minus untraced pass wall time"),
}


def layer_metrics(spans, op_times, speed, traced_walls, untraced_walls, mc_tvs) -> dict[str, float]:
    """Per-pass averages of the per-layer metrics of the traced passes.

    spans: [op, name, layer, start, end, parent, info] from the traced passes;
    op_times: {op key: calibrated op time} of those passes; speed: {op key:
    calibration factor}, applied to every span of that op; *_walls:
    calibrated pass times.
    """
    passes = max(len(traced_walls), 1)
    dur = [(s[4] - s[3]) * speed[s[0]] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[5] >= 0:
            child[s[5]] += dur[i]

    def ancestors(i):
        p = spans[i][5]
        while p >= 0:
            yield p
            p = spans[p][5]

    def total(name, outer=True):
        # outer: count only spans with no ancestor of the same name
        return sum(
            dur[i] for i, s in enumerate(spans)
            if s[1] == name and not (outer and any(spans[a][1] == name for a in ancestors(i)))
        ) / passes

    def count(name):
        return sum(1 for s in spans if s[1] == name) / passes

    def info_sum(name, key):
        return sum(s[6].get(key, 0) for s in spans if s[1] == name) / passes

    def info_values(name, key):
        return [s[6][key] for s in spans if s[1] == name and key in s[6]]

    def self_time(layer):
        return sum(dur[i] - child[i] for i, s in enumerate(spans) if s[2] == layer) / passes

    def layer_outer(layer):
        return sum(
            dur[i] for i, s in enumerate(spans)
            if s[2] == layer and not any(spans[a][2] == layer for a in ancestors(i))
        ) / passes

    evolve = [i for i, s in enumerate(spans) if s[1] == "evolve"]
    sim_s, fv_s = total("simulate"), total("fv")
    paths = info_sum("simulate", "paths")
    residuals = info_values("qsd", "residual")
    gammas = info_values("assemble", "gamma")
    allocs = [s[6]["alloc_peak"] for s in spans if "alloc_peak" in s[6]]
    covered = sum(dur[i] for i, s in enumerate(spans) if s[5] < 0) / passes
    m = {
        "engine.series_terms": sum(spans[i][6].get("terms", 0) for i in evolve) / passes,
        "engine.evolve_sparse_s": sum(dur[i] for i in evolve if spans[i][6].get("n", 0) >= DENSE_BELOW) / passes,
        "engine.evolve_dense_s": sum(dur[i] for i in evolve if spans[i][6].get("n", 0) < DENSE_BELOW) / passes,
        "engine.evolve_calls": len(evolve) / passes,
        "engine.qsd_s": total("qsd"),
        "engine.qsd_solves": count("qsd"),
        "engine.qsd_iterations": info_sum("qsd", "iterations"),
        "engine.qsd_auto_s": total("qsd_auto"),
        "engine.windows_tried": sum(
            1 for i, s in enumerate(spans)
            if s[1] == "qsd" and any(spans[a][1] == "qsd_auto" for a in ancestors(i))
        ) / passes,
        "engine.decay_s": total("decay"),
        "engine.eigen_residual_max": max(residuals, default=0.0),
        "engine.self_s": self_time("engine"),
        "certify.c1_s": total("c1"),
        "certify.c2_s": total("c2"),
        "certify.c2_columns": info_sum("c2", "columns"),
        "certify.c3_s": total("c3"),
        "certify.c4_s": total("c4"),
        "certify.doubling_builds": count("regrow"),
        "certify.gamma_log10_min": min((math.log10(g) for g in gammas), default=0.0),
        "certify.self_s": self_time("certify"),
        "bd.z0_s": total("z0"),
        "bd.z0_levels": info_sum("z0", "levels"),
        "bd.moment_s": total("moment"),
        "bd.moment_solves": count("moment_solve"),
        "bd.hitting_s": total("hitting"),
        "bd.self_s": self_time("bd"),
        "criterion.uniform_rates_s": total("uniform_rates"),
        "criterion.core_return_s": total("core_return"),
        "criterion.minimal_core_s": total("minimal_core"),
        "criterion.prefixes_scanned": count("alpha_K"),
        "criterion.alloc_peak_mb": max(allocs, default=0) / 2**20,
        "criterion.self_s": self_time("criterion"),
        "mc.simulate_s": sim_s,
        "mc.paths_per_s": paths / sim_s if sim_s > 0 else 0.0,
        "mc.survivor_ratio": info_sum("simulate", "survivors") / paths if paths else 0.0,
        "mc.fv_s": fv_s,
        "mc.fv_particle_time_per_s": info_sum("fv", "particle_time") / fv_s if fv_s > 0 else 0.0,
        "mc.fv_redraws": info_sum("fv", "redraws"),
        "mc.tv_to_exact_max": max(mc_tvs, default=0.0),
        "mc.self_s": self_time("mc"),
        "textio.write_s": layer_outer("textio"),
        "textio.bytes_written": sum(s[6].get("bytes", 0) for s in spans if s[2] == "textio") / passes,
        "chain.build_s": layer_outer("chain"),
        "chain.builds": count("construct"),
        "cli.self_s": sum(op_times.values()) / passes - covered,
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
    }
    return {name: m[name] for name in PER_LAYER}
