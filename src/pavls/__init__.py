"""Exact local-search Proportional Approval Voting.

A library and CLI for PAV committee search with exact rational
arithmetic: the swap engine with pluggable pivoting rules, adversarial
instance families with certifiable swap sequences, synthetic samplers,
file formats, an experiment harness, and a brute-force oracle.
"""

from .core import (
    BallotClass,
    DomainError,
    Election,
    Epsilon,
    InvalidCommitteeError,
    InvalidElectionError,
    InvalidEpsilonError,
    InvalidSwapError,
    PavlsError,
    SequenceCertificate,
    Swap,
    delta,
    harmonic,
    inverse_sequence,
    lcm_range,
    pav_score,
    validate_committee,
    validate_sequence,
)
from .search import (
    BestResponse,
    InvalidRuleError,
    InvalidStepCapError,
    LexicographicBetterResponse,
    PivotRule,
    RULES,
    RunTrace,
    run,
)
from .constructions import (
    ConstructionError,
    GammaTooSmallError,
    HardenedParams,
    LabeledElection,
    LayeredParams,
    certify_hardened,
    delta_formula,
    e_election,
    e_t_election,
    f_election,
    gain_holds,
    hardened_election,
    iter_x_sequence,
    iter_z_sequence,
    layered_election,
    layered_initial_committee,
    min_k_gain_search,
    warmup_election,
    warmup_initial_committee,
    warmup_sequence,
    x_length,
)
from .samplers import (
    Euclidean,
    ImpartialCulture,
    Resampling,
    SamplerConfig,
    SamplerError,
    sample,
)
from .formats import (
    FormatError,
    parse_native,
    parse_preflib_categorical,
    serialize_native,
    write_csv,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    aggregate,
    run_experiment,
    select_initial_committee,
)
from .oracle import (
    EnumerationCapError,
    OracleReport,
    brute_force_optimum,
    is_locally_optimal,
)

__version__ = "0.1.0"
