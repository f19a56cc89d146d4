"""pgmlab: a desk-scale probabilistic graphical-models workbench.

Exact inference on discrete factor graphs, structural queries on directed
and undirected graphs, HMM and scalar Kalman filtering, parameter
estimation, Monte Carlo samplers, and Gaussian mean-field variational
inference.

The names below are exported lazily (PEP 562): ``import pgmlab`` loads no
submodule, and the first access to a name (or to a submodule as an
attribute) imports the module that defines it.  ``from pgmlab import X``,
``__all__`` and ``import *`` work as usual.
"""

import importlib

_EXPORTS = {
    "errors": (
        "ConvergenceError", "ImpossibleEvidenceError", "InseparableError", "NotPositiveDefiniteError",
        "NumericError", "PgmlabError", "SingularMatrixError", "ValidationError",
    ),
    "factors": (
        "DiscreteFactor", "EliminationReport", "condition", "eliminate", "max_marginalise", "normalise",
        "product", "sum_marginalise",
    ),
    "graphs": (
        "Dag", "IndependenceStatement", "Ugm", "d_separated", "descendants", "i_equivalent", "immoralities",
        "is_topological", "local_markov_independencies", "markov_blanket", "minimal_directed_imap",
        "minimal_separator", "moralise", "ordered_markov_independencies", "skeleton", "u_separated",
        "ugm_from_blankets",
    ),
    "messages": (
        "FactorGraph", "Message", "Schedule", "condition_factor_graph", "conditioned_sum_product",
        "dag_to_factor_graph", "factor_joint", "max_sum_map", "schedule", "sum_product", "validate_tree",
    ),
    "sequential": (
        "DiscreteHmm", "Gaussian1", "KalmanModel", "alpha_filter", "ffbs", "ffbs_paths",
        "gaussian_linear_marginal", "gaussian_product", "kalman_filter", "predict_hidden", "predict_visible",
        "smooth", "viterbi",
    ),
    "samplers": ("RbmModel", "SeededRng", "Trace", "ess", "gibbs_rbm", "mh", "rejection_sample"),
    "variational": ("GaussianTarget", "MeanFieldState", "elbo", "isotropic_kl_fit", "mean_field_solve", "mf_update"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {"cli", "learning", "modelio", "numerics", *_EXPORTS}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:  # ``pgmlab.graphs`` without importing it first
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
