"""Anytime-valid logrank tests for two-group survival data.

The package builds multiplicative evidence processes (e-processes) on the
risk-set filtration of a survival trial: each event contributes a factor
with unit conditional expectation under the null hazard ratio, so the
running product can be monitored continuously and stopped at any time while
keeping the type-I error below alpha.  Exact per-event factors, a
Gaussian approximation on the logrank statistic, learned (plug-in and
Bayes predictive) alternatives, confidence sequences, a Monte Carlo design
engine, dataset I/O, and a command line front end live in the submodules:

- :mod:`safelogrank.core` — event streams, the exact kernel and e-processes
- :mod:`safelogrank.gaussian` — logrank moments, Gaussian e-values, boundaries
- :mod:`safelogrank.adaptive` — plug-in/Bayes numerators, confidence sequences
- :mod:`safelogrank.simulate` — samplers, stopping times, design tables
- :mod:`safelogrank.data` — survival records and delimited-text parsing
- :mod:`safelogrank.cli` — the ``safelogrank`` command
"""

from .core import EventBatch, EventStream, RiskSet, log_evalue_trace
from .gaussian import (
    fixed_sample_boundary,
    gaussian_safe_boundary,
    null_expectation_audit,
    obf_boundary,
    schoenfeld_mu,
)
from .adaptive import (
    ConfidenceSequence,
    PriorSpec,
    bayes_log_trace,
    confidence_sequence,
    plugin_estimates,
    plugin_log_trace,
)
from .data import (
    SurvivalRecord,
    TrialDataset,
    dataset_from_stream,
    parse_dataset,
    read_dataset,
    write_dataset,
)
from .simulate import (
    DesignSpec,
    SimScenario,
    StoppingReport,
    design_table,
    estimate_nmax,
    sample_single_event_stream,
    sample_tied_stream,
    schoenfeld_sample_size,
    simulate_stopping_times,
    stream_rng,
    summarize_stopping,
    wald_expected_stopping,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "EventStream",
    "RiskSet",
    "EventBatch",
    "log_evalue_trace",
    # gaussian
    "schoenfeld_mu",
    "null_expectation_audit",
    "gaussian_safe_boundary",
    "obf_boundary",
    "fixed_sample_boundary",
    # adaptive
    "PriorSpec",
    "ConfidenceSequence",
    "plugin_estimates",
    "plugin_log_trace",
    "bayes_log_trace",
    "confidence_sequence",
    # data
    "SurvivalRecord",
    "TrialDataset",
    "parse_dataset",
    "read_dataset",
    "write_dataset",
    "dataset_from_stream",
    # simulate
    "DesignSpec",
    "SimScenario",
    "StoppingReport",
    "stream_rng",
    "sample_single_event_stream",
    "sample_tied_stream",
    "simulate_stopping_times",
    "estimate_nmax",
    "summarize_stopping",
    "schoenfeld_sample_size",
    "wald_expected_stopping",
    "design_table",
]
