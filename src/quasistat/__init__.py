"""Quasi-stationary analysis of continuous-time Markov chains absorbed at 0.

The package computes survival-conditioned laws exactly (uniformization,
never dense exponentials), finds quasi-stationary distributions, and
certifies geometric conditional mixing through checkable constants with
explicit provenance.  Birth-death chains get closed-form core selection;
a Monte Carlo engine cross-checks everything with bit-reproducible
counter-based randomness.
"""

from .bd import (
    BdHittingReport,
    BdMomentResult,
    LogisticCertificate,
    alpha_coeffs,
    alpha_to_csv,
    build_bd_report,
    exp_moment_hitting,
    find_z0,
    hitting_from_infinity,
    hitting_to_csv,
    logistic_certificate,
    tail_expected_hitting,
)
from .certify import (
    ABSORPTION_RATE,
    BEST,
    CERTIFIED,
    EMPIRICAL,
    SOJOURN,
    C2Bounds,
    C3Result,
    ConstantEstimate,
    HypothesisCertificate,
    assemble_certificate,
    certificate_to_text,
    certify,
    check_ratio_inequality,
    compute_c1,
    compute_c2,
    compute_c3_lambda0,
    compute_c4,
    parse_certificate_text,
)
from .chain import (
    KILL,
    REFLECT,
    AbsorbedChain,
    BirthDeathSpec,
    DistributionOnStates,
    build_from_entries,
    build_logistic,
    load_chain_file,
    parse_chain_text,
    truncate,
)
from .criterion import (
    CriterionReport,
    check_core_return,
    check_uniform_rates,
    compute_absorption_sup,
    compute_alpha_K,
    compute_alpha_uniform,
    compute_q_bar,
    derive_certificate_via_criterion,
    find_minimal_core,
)
from .engine import (
    ConvergenceTrace,
    DecayRow,
    QsdResult,
    check_qsd,
    compute_qsd,
    compute_qsd_auto,
    conditional_distribution,
    conditional_propagator,
    decay_table,
    decay_to_csv,
    distribution_to_csv,
    evolve_function,
    evolve_measure,
    geometric_grid,
    survival_probability,
    survival_vector,
    transition_operator,
    tv_distance,
    yaglom_limit,
)
from .errors import (
    CertificationError,
    ComputationError,
    DivergentMomentError,
    NonConvergenceError,
    QuasistatError,
    ValidationError,
)
from .mc import (
    KILLED_STATE,
    STATUS_ABSORBED,
    STATUS_HIT_SET,
    STATUS_KILLED,
    STATUS_SURVIVED,
    ParticleEnsemble,
    TrajectoryBatch,
    batch_to_csv,
    conditional_estimate,
    ensembles_to_csv,
    fleming_viot,
    simulate_batch,
)

__version__ = "0.1.0"
