"""Command-line front end.

Every command reads its model/data from files, runs the corresponding
library routine, and prints a JSON result envelope (or a plain table with
``--table``).  Floats in the envelope are emitted with 12 significant
digits.  Exit codes: 0 success, 2 validation error, 3 numeric error,
4 usage error, and 1 without a traceback when the reader closes standard
output early (``pgmlab ... | head -3``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter

from .errors import NumericError, PgmlabError, ValidationError
from .modelio import ModelDocument, parse_model, serialise_model

EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 4
EXIT_BROKEN_PIPE = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; route through our own exit code.
    def error(self, message):
        raise _UsageError(message)


def _round_sig(x: float, digits: int = 12) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")


def _jsonable(value):
    """Convert NumPy containers to plain JSON types with 12-digit floats.

    NumPy is never imported here: ``np.float64`` is a ``float``, and every
    other NumPy array or scalar converts through its ``tolist()``.
    """
    if isinstance(value, float):
        return _round_sig(float(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (str, int)):
        return value
    tolist = getattr(value, "tolist", None)
    return value if tolist is None else _jsonable(tolist())


def _parse_names(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_evidence(text: str | None) -> dict[str, int]:
    out: dict[str, int] = {}
    if not text:
        return out
    for item in _parse_names(text):
        if "=" not in item:
            raise ValidationError(f"evidence item {item!r} must look like var=state")
        var, state = item.split("=", 1)
        try:
            out[var.strip()] = int(state)
        except ValueError:
            raise ValidationError(f"evidence state in {item!r} must be an integer") from None
    return out


def _print_envelope(envelope: dict, as_table: bool) -> None:
    if not as_table:
        print(json.dumps(envelope, indent=2))
        return
    print(f"command: {envelope['command']}")
    for key, value in envelope["outputs"].items():
        print(f"{key}: {value}")


# -- command implementations: each returns (inputs_echo, outputs, seed) -------
#
# Each handler imports the modules it runs, so a command loads no kernel it
# does not use; the graph commands run without NumPy.


def _cmd_graph_dsep(args):
    from . import graphs

    doc = parse_model(args.model)
    dag = doc.require("dag")
    sep = graphs.d_separated(dag, _parse_names(args.x), _parse_names(args.y),
                             _parse_names(args.given) if args.given else ())
    echo = {"model": args.model, "x": _parse_names(args.x), "y": _parse_names(args.y),
            "given": _parse_names(args.given) if args.given else []}
    return echo, {"separated": sep}, None


def _cmd_graph_usep(args):
    from . import graphs

    doc = parse_model(args.model)
    ugm = doc.require("ugm")
    sep = graphs.u_separated(ugm, _parse_names(args.x), _parse_names(args.y),
                             _parse_names(args.given) if args.given else ())
    echo = {"model": args.model, "x": _parse_names(args.x), "y": _parse_names(args.y),
            "given": _parse_names(args.given) if args.given else []}
    return echo, {"separated": sep}, None


def _graph_of(doc: ModelDocument):
    if (doc.dag is None) == (doc.ugm is None):
        raise ValidationError("exactly one of 'dag' or 'ugm' must be present")
    return doc.dag if doc.dag is not None else doc.ugm


def _cmd_graph_mb(args):
    from . import graphs

    model = _graph_of(parse_model(args.model))
    blanket = graphs.markov_blanket(model, args.node)
    return {"model": args.model, "node": args.node}, {"blanket": sorted(blanket)}, None


def _cmd_graph_moralize(args):
    from . import graphs

    dag = parse_model(args.model).require("dag")
    moral = graphs.moralise(dag)
    return {"model": args.model}, {"nodes": list(moral.nodes),
                                   "edges": [list(e) for e in sorted(moral.edges())]}, None


def _cmd_graph_iequiv(args):
    from . import graphs

    a = parse_model(args.model).require("dag")
    b = parse_model(args.other).require("dag")
    return ({"model": args.model, "other": args.other},
            {"equivalent": graphs.i_equivalent(a, b)}, None)


def _cmd_graph_imap(args):
    from . import graphs

    doc = parse_model(args.model)
    model = _graph_of(doc)
    if isinstance(model, graphs.Dag):
        oracle = graphs.oracle_from_dag(model)
    else:
        oracle = graphs.oracle_from_ugm(model)
    order = _parse_names(args.order)
    imap = graphs.minimal_directed_imap(oracle, model.nodes, order)
    parents = {n: sorted(imap.parents[n]) for n in imap.nodes if imap.parents[n]}
    return {"model": args.model, "order": order}, {"parents": parents}, None


def _cmd_fg_marginal(args):
    from . import messages

    doc = parse_model(args.model)
    fg = doc.factor_graph()
    evidence = _parse_evidence(args.evidence)
    if evidence:
        marginals = messages.conditioned_sum_product(fg, evidence)
    else:
        marginals = messages.sum_product(fg).marginals
    if args.var not in marginals:
        raise ValidationError(f"no marginal for {args.var!r} (observed or unknown)")
    echo = {"model": args.model, "var": args.var, "evidence": evidence}
    return echo, {args.var: marginals[args.var]}, None


def _cmd_fg_map(args):
    from . import messages

    doc = parse_model(args.model)
    fg = doc.factor_graph()
    evidence = _parse_evidence(args.evidence)
    offset = 0.0
    if evidence:
        fg, offset = messages.condition_factor_graph(fg, evidence)
    root = args.root or next(iter(fg.var_names), None)
    if root is None:  # the evidence observes every variable
        assignment, log_score = {}, 0.0
    else:
        result = messages.max_sum_map(fg, root)
        assignment, log_score = result.assignment, result.log_score
    echo = {"model": args.model, "evidence": evidence, "root": root}
    return echo, {"assignment": assignment, "log_score": log_score + offset}, None


def _cmd_fg_eliminate(args):
    from . import messages
    from .factors import eliminate, normalise

    doc = parse_model(args.model)
    fg = doc.factor_graph()
    evidence = _parse_evidence(args.evidence)
    if evidence:
        fg, _ = messages.condition_factor_graph(fg, evidence)
    keep = _parse_names(args.keep)
    order = _parse_names(args.order) if args.order else sorted(set(fg.var_names) - set(keep))
    result, report = eliminate(list(fg.factors.values()), keep, order)
    outputs = {
        "scope": list(result.var_names),
        "values": result.values,
        "peak_entries": report.peak_table_entries,
        "step_sizes": list(report.step_sizes),
    }
    normalised, _ = normalise(result)
    if len(keep) == 1:
        outputs[keep[0]] = normalised.values
    else:
        outputs["normalised"] = normalised.values
    echo = {"model": args.model, "keep": keep, "order": order, "evidence": evidence}
    return echo, outputs, None


def _cmd_fg_condition(args):
    from . import messages

    doc = parse_model(args.model)
    fg = doc.factor_graph()
    evidence = _parse_evidence(args.evidence)
    reduced, offset = messages.condition_factor_graph(fg, evidence)
    reduced_doc = ModelDocument(variables=list(reduced.variables),
                                factors=dict(reduced.factors))
    echo = {"model": args.model, "evidence": evidence}
    return echo, {"model": serialise_model(reduced_doc), "log_offset": offset}, None


def _obs_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in _parse_names(text)]
    except ValueError:
        raise ValidationError("observations must be integers") from None


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in _parse_names(text)]
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from None


def _cmd_hmm_filter(args):
    from . import sequential

    hmm = parse_model(args.model).require("hmm")
    obs = _obs_ints(args.obs)
    filtered, log_lik = sequential.alpha_filter(hmm, obs)
    return ({"model": args.model, "obs": obs},
            {"filtered": [f for f in filtered], "log_likelihood": log_lik}, None)


def _cmd_hmm_predict_h(args):
    from . import sequential

    hmm = parse_model(args.model).require("hmm")
    obs = _obs_ints(args.obs)
    probs = sequential.predict_hidden(hmm, obs, args.t)
    return {"model": args.model, "obs": obs, "t": args.t}, {"probs": probs}, None


def _cmd_hmm_predict_v(args):
    from . import sequential

    hmm = parse_model(args.model).require("hmm")
    obs = _obs_ints(args.obs)
    probs = sequential.predict_visible(hmm, obs, args.t)
    return {"model": args.model, "obs": obs, "t": args.t}, {"probs": probs}, None


def _cmd_hmm_smooth(args):
    from . import sequential

    hmm = parse_model(args.model).require("hmm")
    obs = _obs_ints(args.obs)
    smoothed = sequential.smooth(hmm, obs)
    return {"model": args.model, "obs": obs}, {"smoothed": [s for s in smoothed]}, None


def _cmd_hmm_viterbi(args):
    from . import sequential

    hmm = parse_model(args.model).require("hmm")
    obs = _obs_ints(args.obs)
    path, score = sequential.viterbi(hmm, obs)
    return {"model": args.model, "obs": obs}, {"path": path, "log_score": score}, None


def _cmd_hmm_ffbs(args):
    from . import samplers, sequential

    hmm = parse_model(args.model).require("hmm")
    obs = _obs_ints(args.obs)
    rng = samplers.SeededRng(args.seed)
    paths = sequential.ffbs_paths(hmm, obs, rng, args.paths)
    return ({"model": args.model, "obs": obs, "paths": args.paths},
            {"paths": paths}, args.seed)


def _cmd_kalman_filter(args):
    from . import sequential

    model = parse_model(args.model).require("kalman")
    obs = _floats(args.obs)
    steps = sequential.kalman_filter(model, obs)
    return ({"model": args.model, "obs": obs},
            {"steps": [{"mean": s.mean, "var": s.var, "gain": s.gain} for s in steps]}, None)


def _cmd_fit_cpt_mle(args):
    from . import learning

    dag = parse_model(args.model).require("dag")
    data = learning.BinaryDataset.from_csv(args.data)
    est = learning.fit_cpt_mle(dag, data)
    table = {
        node: [{"theta": c.theta, "ones": c.ones, "zeros": c.zeros} for c in cells]
        for node, cells in est.cells.items()
    }
    return {"model": args.model, "data": args.data}, {"cpt": table}, None


def _cmd_fit_cpt_bayes(args):
    from . import learning

    dag = parse_model(args.model).require("dag")
    data = learning.BinaryDataset.from_csv(args.data)
    post = learning.fit_cpt_bayes(dag, data, args.alpha0, args.beta0)
    table = {
        node: [{"alpha": p.alpha, "beta": p.beta, "predictive": p.mean} for p in cells]
        for node, cells in post.cells.items()
    }
    echo = {"model": args.model, "data": args.data, "alpha0": args.alpha0, "beta0": args.beta0}
    return echo, {"posterior": table}, None


def _cmd_fit_score_matching(args):
    from . import learning

    _, points = learning._read_csv(args.data, lambda row: float(row[0]))
    grad, curv = learning.gaussian_quadratic_stats()
    theta = learning.score_matching_fit(grad, curv, points)
    return ({"data": args.data, "family": "zero-mean Gaussian, statistic x^2"},
            {"theta": float(theta[0]), "variance": float(-0.5 / theta[0])}, None)


def _cmd_fit_ising2(args):
    from . import learning

    data = learning.load_spin_csv(args.data)
    theta = learning.ising2_mle(data)
    moment = float((data[:, 0] * data[:, 1]).mean())
    return ({"data": args.data},
            {"theta": theta, "empirical_moment": moment,
             "log_partition": learning.ising2_logZ(theta)}, None)


def _cmd_sample_mh(args):
    import numpy as np

    from . import learning, samplers

    rng = samplers.SeededRng(args.seed)
    if args.target == "normal":
        dim = args.dim
        log_p = lambda th: -0.5 * float(th @ th)
        init = np.zeros(dim)
    else:  # poisson regression on (x, y) CSV columns
        if not args.data:
            raise ValidationError("--data is required for the poisson target")
        _, pairs = learning._read_csv(args.data, lambda row: (float(row[0]), int(row[1])))
        log_p = samplers.poisson_regression_log_pstar(pairs)
        init = np.zeros(2)
    trace = samplers.mh(rng, log_p, init, args.samples, args.vari, args.warmup)
    names = [f"theta{k}" for k in range(trace.samples.shape[1])]
    if args.out_csv and args.out_json:
        samplers.export_trace(trace, args.out_csv, args.out_json, names)
    outputs = {
        "mean": trace.samples.mean(axis=0),
        "variance": trace.samples.var(axis=0),
        "acceptance_rate": trace.acceptance_rate,
        "ess": [samplers.ess(trace.samples[:, j]) for j in range(trace.samples.shape[1])],
    }
    echo = {"target": args.target, "samples": args.samples, "vari": args.vari,
            "warmup": args.warmup, "data": args.data}
    return echo, outputs, args.seed


def _cmd_sample_rejection(args):
    from . import samplers

    rng = samplers.SeededRng(args.seed)
    draws, rate = samplers.rejection_normal_via_laplace(rng, args.samples, args.b)
    outputs = {"acceptance_rate": rate, "mean": float(draws.mean()),
               "variance": float(draws.var())}
    return {"samples": args.samples, "b": args.b}, outputs, args.seed


def _cmd_sample_importance(args):
    from . import samplers

    rng = samplers.SeededRng(args.seed)
    estimate = samplers.gaussian_tail_probability(rng, args.samples, args.threshold)
    return ({"samples": args.samples, "threshold": args.threshold},
            {"estimate": estimate}, args.seed)


def _cmd_sample_gibbs_rbm(args):
    from . import samplers

    model = parse_model(args.model).require("rbm")
    rng = samplers.SeededRng(args.seed)
    visible = samplers.gibbs_rbm(rng, model, args.sweeps)
    counts = Counter("".join(map(str, row)) for row in visible.tolist())
    outputs = {
        "mean_visible": visible.mean(axis=0),
        "counts": dict(sorted(counts.items())),
    }
    return {"model": args.model, "sweeps": args.sweeps}, outputs, args.seed


def _cmd_vi_meanfield(args):
    import numpy as np

    from . import variational

    target = parse_model(args.model).require("meanfield")
    init = variational.MeanFieldState(np.zeros(target.dim), np.ones(target.dim))
    state = variational.mean_field_solve(target, init, tol=args.tol)
    outputs = {"means": state.means, "variances": state.variances,
               "elbo": variational.elbo(target, state)}
    return {"model": args.model, "tol": args.tol}, outputs, None


def _cmd_vi_klfit(args):
    from . import variational

    variances = _floats(args.variances)
    return ({"variances": variances},
            {"lambda2": variational.isotropic_kl_fit(variances)}, None)


# -- parser wiring -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pgmlab", description=__doc__)
    parser.add_argument("--table", action="store_true", help="plain-text output instead of JSON")
    top = parser.add_subparsers(dest="group", required=True)

    def cmd(group_parser, name, func, seeded=False):
        sub = group_parser.add_parser(name)
        sub.set_defaults(func=func)
        if seeded:
            sub.add_argument("--seed", type=int, required=True)
        return sub

    graph = top.add_parser("graph").add_subparsers(dest="command", required=True)
    p = cmd(graph, "dsep", _cmd_graph_dsep)
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--given", default="")
    p = cmd(graph, "usep", _cmd_graph_usep)
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--given", default="")
    p = cmd(graph, "mb", _cmd_graph_mb)
    p.add_argument("--model", required=True)
    p.add_argument("--node", required=True)
    p = cmd(graph, "moralize", _cmd_graph_moralize)
    p.add_argument("--model", required=True)
    p = cmd(graph, "iequiv", _cmd_graph_iequiv)
    p.add_argument("--model", required=True)
    p.add_argument("--other", required=True)
    p = cmd(graph, "imap", _cmd_graph_imap)
    p.add_argument("--model", required=True)
    p.add_argument("--order", required=True)

    fg = top.add_parser("fg").add_subparsers(dest="command", required=True)
    p = cmd(fg, "marginal", _cmd_fg_marginal)
    p.add_argument("--model", required=True)
    p.add_argument("--var", required=True)
    p.add_argument("--evidence", default="")
    p = cmd(fg, "map", _cmd_fg_map)
    p.add_argument("--model", required=True)
    p.add_argument("--evidence", default="")
    p.add_argument("--root", default="")
    p = cmd(fg, "eliminate", _cmd_fg_eliminate)
    p.add_argument("--model", required=True)
    p.add_argument("--keep", required=True)
    p.add_argument("--order", default="")
    p.add_argument("--evidence", default="")
    p = cmd(fg, "condition", _cmd_fg_condition)
    p.add_argument("--model", required=True)
    p.add_argument("--evidence", required=True)

    hmm = top.add_parser("hmm").add_subparsers(dest="command", required=True)
    for name, func in [("filter", _cmd_hmm_filter), ("smooth", _cmd_hmm_smooth),
                       ("viterbi", _cmd_hmm_viterbi)]:
        p = cmd(hmm, name, func)
        p.add_argument("--model", required=True)
        p.add_argument("--obs", required=True)
    for name, func in [("predict-h", _cmd_hmm_predict_h), ("predict-v", _cmd_hmm_predict_v)]:
        p = cmd(hmm, name, func)
        p.add_argument("--model", required=True)
        p.add_argument("--obs", required=True)
        p.add_argument("--t", type=int, required=True)
    p = cmd(hmm, "ffbs", _cmd_hmm_ffbs, seeded=True)
    p.add_argument("--model", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--paths", type=int, default=1)

    kalman = top.add_parser("kalman").add_subparsers(dest="command", required=True)
    p = cmd(kalman, "filter", _cmd_kalman_filter)
    p.add_argument("--model", required=True)
    p.add_argument("--obs", required=True)

    fit = top.add_parser("fit").add_subparsers(dest="command", required=True)
    p = cmd(fit, "cpt-mle", _cmd_fit_cpt_mle)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p = cmd(fit, "cpt-bayes", _cmd_fit_cpt_bayes)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--alpha0", type=float, default=1.0)
    p.add_argument("--beta0", type=float, default=1.0)
    p = cmd(fit, "score-matching", _cmd_fit_score_matching)
    p.add_argument("--data", required=True)
    p = cmd(fit, "ising2", _cmd_fit_ising2)
    p.add_argument("--data", required=True)

    sample = top.add_parser("sample").add_subparsers(dest="command", required=True)
    p = cmd(sample, "mh", _cmd_sample_mh, seeded=True)
    p.add_argument("--target", choices=["normal", "poisson"], default="normal")
    p.add_argument("--data", default="")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--samples", type=int, default=5000)
    p.add_argument("--vari", type=float, default=1.0)
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--out-csv", default="")
    p.add_argument("--out-json", default="")
    p = cmd(sample, "rejection", _cmd_sample_rejection, seeded=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--b", type=float, default=1.0)
    p = cmd(sample, "importance", _cmd_sample_importance, seeded=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--threshold", type=float, default=5.0)
    p = cmd(sample, "gibbs-rbm", _cmd_sample_gibbs_rbm, seeded=True)
    p.add_argument("--model", required=True)
    p.add_argument("--sweeps", type=int, default=1000)

    vi = top.add_parser("vi").add_subparsers(dest="command", required=True)
    p = cmd(vi, "meanfield", _cmd_vi_meanfield)
    p.add_argument("--model", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p = cmd(vi, "klfit", _cmd_vi_klfit)
    p.add_argument("--variances", required=True)

    return parser


def run(argv) -> dict:
    """Parse arguments, execute the command, and return the envelope."""
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    echo, outputs, seed = args.func(args)
    elapsed = time.perf_counter() - start
    envelope = {
        "command": f"{args.group} {args.command}",
        "inputs": _jsonable(echo),
        "outputs": _jsonable(outputs),
        "seed": seed,
        "elapsed_seconds": elapsed,
    }
    return envelope


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        envelope = run(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PgmlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    table = "--table" in argv
    try:
        _print_envelope(envelope, table)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    return 0


def console_main() -> int:
    """Entry point of the ``pgmlab`` script and ``python -m pgmlab.cli``.

    Runs :func:`main`; if the reader closed standard output, points it at
    devnull so the interpreter's final flush stays quiet, the recipe from the
    ``signal`` docs.  That is only safe because the process is about to exit,
    so in-process callers of :func:`main` never reach it.
    """
    code = main()
    if code == EXIT_BROKEN_PIPE:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(console_main())
