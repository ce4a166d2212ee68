"""Rate-matrix sufficient conditions for conditional mixing.

Two checkable conditions on the jump rates alone:

  * core-return test: the worst rate of jumping from outside a finite
    core K directly into K or to absorption, alpha_K, must exceed the
    best absorption rate C = sup_x Q(x, 0).  When it does, lambda0 = C
    works with the closed-form moment ceiling c4 <= alpha_K/(alpha_K-C).
  * uniform-rates test: bounded total jump rates plus a summable column
    floor alpha = sum_x inf_y Q(y, x) > C.  This implies the core-return
    test holds for some prefix core {1..k}.

Both are evaluated on the reflecting twin of the window so truncation
killing never masquerades as absorption.  Each call builds one report in
one pass: the twin is made once, every rate functional runs on it (so
their own as_reflecting() calls hand it straight back), and the
core-return fields are attached to the report that already holds C,
q_bar and alpha; the report still names the window it was asked about.
A witness core comes with the alpha_K the prefix scan confirmed it
with, so it is not computed again.

find_minimal_core looks for the smallest prefix core {1..k} that passes
the core-return test.  It works per state, not per prefix: a state x is
outside {1..k} only while k < x, so its rate into the core is summed
over its jumps into states below x, rank by rank in column order, and
k_x is the first prefix at which that sum's ceiling exceeds C.  A
reversed running maximum of k_x marks every candidate prefix at once,
and candidates are confirmed in increasing order with compute_alpha_K,
so the work is O(nnz) plus one alpha_K per candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import AbsorbedChain
from .certify import (
    ABSORPTION_RATE,
    CERTIFIED,
    ConstantEstimate,
    HypothesisCertificate,
    _certify,
    _check_core,
    _core_exit_rates,
)
# re-exported: tracers wrap these names on this module
from .certify import _c3_absorption_rate, assemble_certificate, compute_c1, compute_c2  # noqa: F401
from .errors import CertificationError, ValidationError
from .textio import fmt, render_keyvalues

# Relative margin covering a sum of non-negative rates rounded in another
# order, which moves it by at most about n * 2**-52 relative.
_SUM_RTOL = 1e-9


@dataclass
class CriterionReport:
    """Everything the rate tests looked at, plus their verdicts.

    alpha_K, c4_bound, lambda0 are None when no core was supplied or
    found.  q_bar is +inf for chains whose jump rates grow without bound
    (detected from the generating rule when one is attached).
    """

    n_states: int
    boundary_mode: str
    C: float
    C_attained_at: int
    q_bar: float
    alpha_uniform: float
    uniform_rates_holds: bool
    K: tuple[int, ...] | None = None
    alpha_K: float | None = None
    alpha_attained_at: int | None = None
    core_return_holds: bool | None = None
    c4_bound: float | None = None
    lambda0: float | None = None
    notes: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        pairs = [
            ("n_states", str(self.n_states)),
            ("boundary", self.boundary_mode),
            ("C", fmt(self.C)),
            ("C_attained_at", str(self.C_attained_at)),
            ("q_bar", fmt(self.q_bar)),
            ("alpha_uniform", fmt(self.alpha_uniform)),
            ("uniform_rates_test", "holds" if self.uniform_rates_holds else "fails"),
        ]
        if self.K is not None:
            pairs.append(("K", ",".join(str(x) for x in self.K)))
            pairs.append(("alpha_K", fmt(self.alpha_K)))
            pairs.append(("alpha_attained_at", str(self.alpha_attained_at)))
            pairs.append(("core_return_test", "holds" if self.core_return_holds else "fails"))
            if self.core_return_holds:
                pairs.append(("lambda0", fmt(self.lambda0)))
                pairs.append(("c4_bound", fmt(self.c4_bound)))
        for i, n in enumerate(self.notes):
            pairs.append((f"note_{i + 1}", n))
        return render_keyvalues(pairs)


def compute_absorption_sup(chain: AbsorbedChain) -> tuple[float, int]:
    """C = sup_x Q(x, 0) over the window, with its argmax."""
    i = int(np.argmax(chain.absorption_rates))
    return float(chain.absorption_rates[i]), i + 1


def compute_q_bar(chain: AbsorbedChain) -> tuple[float, int | None, list[str]]:
    """Supremum of total jump rates; +inf when the generating rule keeps
    growing past the window."""
    refl = chain.as_reflecting()
    rates = refl.total_exit_rates().copy()
    # the reflected top row under-counts its true exit rate
    spec = chain.source_spec
    notes: list[str] = []
    if spec is not None:
        n = chain.n_transient
        probe_near = sum(spec.rates_at(n))
        probe_far = sum(spec.rates_at(4 * n))
        if probe_far > probe_near * (1 + 1e-12) or probe_far > float(rates.max()):
            notes.append("jump rates grow beyond the window; q_bar is infinite")
            return math.inf, None, notes
        rates[n - 1] = probe_near
    i = int(np.argmax(rates))
    return float(rates[i]), i + 1, notes


def compute_alpha_uniform(chain: AbsorbedChain) -> float:
    """alpha = sum over target states of the worst-case rate into them.

    Columns are taken over the reflecting window, target 0 included.
    A single state with no inbound rate from some source zeroes its
    column's contribution, so for most sparse chains this is small.
    Rates are non-negative, so only columns that store all n - 1
    off-diagonal entries can add anything; the generator is never
    made dense.
    """
    refl = chain.as_reflecting()
    n = refl.n_transient
    if n < 2:
        return float(refl.absorption_rates.min())
    Q = refl.sub_generator.tocsc()
    col = np.repeat(np.arange(n), np.diff(Q.indptr))
    off = Q.indices != col
    stored = np.bincount(col[off], minlength=n)
    total = float(refl.absorption_rates.min())
    for c in np.nonzero(stored == n - 1)[0]:
        lo, hi = Q.indptr[c], Q.indptr[c + 1]
        total += float(Q.data[lo:hi][off[lo:hi]].min())
    return total


def compute_alpha_K(chain: AbsorbedChain, K) -> tuple[float, int | None, list[str]]:
    """Worst rate of entering K u {0} in one jump from outside K.

    Returns +inf (vacuously) when K covers all transient states.  A note
    is attached when the window has a generating rule, because states
    beyond the window are not probed.
    """
    out_idx, _, into_core = _core_exit_rates(chain, _check_core(chain, K))
    notes: list[str] = []
    if chain.source_spec is not None:
        notes.append("alpha_K probed on the window only; beyond-window states not included")
    if out_idx.size == 0:
        notes.append("K covers every transient state; alpha_K is vacuous")
        return math.inf, None, notes
    j = int(np.argmin(into_core))
    value = float(into_core[j])
    at = int(out_idx[j]) + 1
    if at == chain.n_transient:
        notes.append("alpha_K attained at the window top; value is window-limited")
    return value, at, notes


def _report(chain: AbsorbedChain, K=None) -> CriterionReport:
    """The rate tests on one reflecting twin of the window, then the
    core-return test on K; with no K, on the smallest passing prefix core
    when the uniform-rates test holds."""
    refl = chain.as_reflecting()
    C, c_at = compute_absorption_sup(refl)
    q_bar, _, notes = compute_q_bar(refl)
    alpha_uniform = compute_alpha_uniform(refl)
    rep = CriterionReport(
        n_states=chain.n_states,
        boundary_mode=chain.boundary_mode,
        C=C,
        C_attained_at=c_at,
        q_bar=q_bar,
        alpha_uniform=alpha_uniform,
        uniform_rates_holds=bool(math.isfinite(q_bar) and alpha_uniform > C),
        notes=notes,
    )
    if K is None:
        if not rep.uniform_rates_holds:
            return rep
        found = _minimal_core(refl, C)
        if found is None:
            rep.notes.append("uniform-rates test holds but no prefix core passes on this window")
            return rep
        # the scan's own confirmation of the core is its alpha_K
        rep.K, (rep.alpha_K, rep.alpha_attained_at, notes) = found
    else:
        rep.K = _check_core(refl, K)
        rep.alpha_K, rep.alpha_attained_at, notes = compute_alpha_K(refl, rep.K)
    rep.notes += notes
    rep.core_return_holds = rep.alpha_K > C
    if rep.core_return_holds:
        rep.lambda0 = C
        if math.isfinite(rep.alpha_K):
            rep.c4_bound = rep.alpha_K / (rep.alpha_K - C)
        else:
            rep.c4_bound = 1.0
            rep.notes.append("alpha_K infinite (vacuous); c4 bound degenerates to 1")
    return rep


def check_core_return(chain: AbsorbedChain, K) -> CriterionReport:
    """Evaluate the core-return test alpha_K > C for a given core."""
    return _report(chain, K)


def check_uniform_rates(chain: AbsorbedChain) -> CriterionReport:
    """Evaluate the uniform-rates test (bounded rates, column floor > C).

    When it holds, the report is check_core_return's for the smallest
    prefix core that passes, a constructive witness of the implication.
    """
    return _report(chain)


def find_minimal_core(chain: AbsorbedChain) -> tuple[int, ...] | None:
    """Smallest prefix {1..k} passing the core-return test, else None.

    Only prefixes are scanned; chains whose inbound mass concentrates on
    high states may pass with some non-prefix core yet fail here.

    State x lies outside {1..k} only while k < x, so only its jumps into
    states j < x matter.  Each state's rate into {1..k} u {0} is summed
    rank by rank over those jumps in column order, one numpy pass per
    rank, starting from its absorption rate: every partial sum is the
    float a prefix-by-prefix accumulation would hold.  From these, k_x is
    the first prefix at which x's ceiling (an upper bound on what
    compute_alpha_K finds for x) exceeds C: 0 when the absorption rate
    alone does, never when no prefix below x does.  Ceilings only grow
    with k, so prefix k is a candidate exactly when max over x > k of
    k_x is at most k, which one reversed running maximum gives for every
    k.  Candidates are confirmed in increasing order with compute_alpha_K,
    so the answer is the one compute_alpha_K gives prefix by prefix.
    """
    found = _minimal_core(chain.as_reflecting(), compute_absorption_sup(chain)[0])
    return None if found is None else found[0]


def _minimal_core(refl: AbsorbedChain, C: float):
    """find_minimal_core on the reflecting twin refl against C = sup_x
    Q(x, 0): (core, compute_alpha_K's (alpha_K, attained_at, notes) on
    it), or None."""
    n = refl.n_transient
    # canonical CSR (the chain sums duplicates), so each row's columns ascend
    Q = refl.sub_generator
    row = np.repeat(np.arange(n), np.diff(Q.indptr))
    below = np.nonzero(Q.indices < row)[0]
    rank = below - Q.indptr[row[below]]
    below = below[np.argsort(rank, kind="stable")]
    into_core = refl.absorption_rates.astype(np.float64)
    never = n + 1
    k_x = np.where(into_core > C, 0, never)
    lo = 0
    for r, hi in enumerate(np.cumsum(np.bincount(rank))):
        entries = below[lo:hi]
        lo = hi
        x = row[entries]  # one entry per state in each rank
        into_core[x] += Q.data[entries]
        # the absorption rate plus one core rate rounds the same in either
        # order, while longer sums, which compute_alpha_K adds in another
        # order, get a relative margin
        ceiling = into_core[x] * (1.0 + _SUM_RTOL) if r else into_core[x]
        hit = (ceiling > C) & (k_x[x] == never)
        k_x[x[hit]] = Q.indices[entries[hit]] + 1
    suffix_max = np.maximum.accumulate(k_x[::-1])[::-1]
    ks = np.arange(1, n)
    for k in ks[suffix_max[1:n] <= ks].tolist():
        core = tuple(range(1, k + 1))
        alpha = compute_alpha_K(refl, core)
        if alpha[0] > C:
            return core, alpha
    return None


def derive_certificate_via_criterion(chain: AbsorbedChain, K, x0: int) -> HypothesisCertificate:
    """Assemble a mixing certificate whose c4 comes from the closed-form
    rate bound alpha_K/(alpha_K - C) instead of a linear solve.

    This is certify's pipeline with the absorption-rate occupancy floor
    (lambda0 = C, the rate at which the closed-form ceiling holds, and c3
    from one-step reachability of x0) and that ceiling as a certified c4.
    The window must be reflecting and pass the core-return test.
    """
    if np.any(chain.kill_rates):
        raise ValidationError(
            "criterion certificates apply to reflecting windows; pass chain.as_reflecting()"
        )
    core = _check_core(chain, K, x0)
    rep = check_core_return(chain, core)
    if not rep.core_return_holds:
        raise CertificationError(
            f"core-return test fails: alpha_K={rep.alpha_K} vs C={rep.C}", part="criterion"
        )
    if not rep.C > 0:
        raise CertificationError(
            "absorption rate sup C is zero; no decay rate available", part="criterion"
        )
    # with no killing the absorption-rate lambda0 is max(absorption + 0),
    # which is C bit for bit, the rate the closed-form c4 holds at
    return _certify(
        chain, core, x0, ABSORPTION_RATE,
        c4=ConstantEstimate(value=rep.c4_bound, provenance=CERTIFIED),
    )
