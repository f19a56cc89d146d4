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
import functools
import json
import os
import sys
import time
from collections import Counter
from typing import Callable, NamedTuple

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


def _long_way(text: str) -> bool:
    """Whether ``.12g`` text holds a float that :func:`_float_text` writes the long way."""
    return "e+1" in text or "e-3" in text or "n" in text


def _float_text(x: float) -> str:
    """``x`` rounded to 12 significant digits, as ``json.dumps`` writes it.

    A decimal of at most 12 digits is the shortest repr of the double it
    parses to, so ``.12g`` already has ``repr``'s digits and lacks only the
    ``.0`` of a whole number.  Three cases take the long way: ``repr``
    writes exponents 12 to 15 positionally, subnormals have too few digits
    for the rule to hold, and JSON spells ``inf`` and ``nan`` its own way.
    :func:`_long_way` finds all three; :func:`_array_text` relies on it too.
    """
    text = f"{x:.12g}"
    if _long_way(text):
        return json.dumps(float(text))
    return text if "." in text or "e" in text else text + ".0"


def _encode(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)`` with 12-digit floats.

    NumPy is never imported here: ``np.float64`` is a ``float``, a non-empty
    int or float array is written by :func:`_array_text`, a ``longdouble``
    as the float64 it rounds to, and every other NumPy array or scalar
    through its ``tolist()``.  A list of plain floats or
    of plain ints is written in one ``join``.
    """
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (dict, list, tuple)) and value:
        inner = indent + "  "
        if isinstance(value, dict):
            items = (f"{json.dumps(str(k))}: {_encode(v, inner)}" for k, v in value.items())
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        kinds = set(map(type, value))
        if kinds == {float}:
            items = map(_float_text, value)
        elif kinds == {int}:
            items = map(int.__repr__, value)
        else:
            items = (_encode(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    tolist = getattr(value, "tolist", None)  # None, str, int and bool have none
    if tolist is None:
        return json.dumps(value)
    text = _array_text(value, indent)
    if text is not None:
        return text
    if getattr(getattr(value, "dtype", None), "char", None) == "g":  # longdouble: tolist() gives longdoubles
        return _encode(value.astype(float), indent)
    return _encode(tolist(), indent)


def _array_text(array, indent: str) -> str | None:
    """:func:`_encode` of a non-empty int or float ``array``, laid out by one
    ``%`` template of its shape, or None for any other value or for a float
    cell that :func:`_float_text` would not write as ``.12g`` with a point
    (``inf``, ``nan`` and whole numbers other than zero have none)."""
    dtype = getattr(array, "dtype", None)
    if dtype is None or dtype.kind not in "fiu" or not array.ndim or not array.size:
        return None
    template = "%.12g" if dtype.kind == "f" else "%d"
    for depth, side in reversed(list(enumerate(array.shape))):
        outer = indent + "  " * depth
        template = "[" + outer + "  " + ("," + outer + "  ").join([template] * side) + outer + "]"
    text = template % tuple(array.ravel().tolist())
    if dtype.kind == "f":
        for zero in (" 0,", " 0\n", " -0,", " -0\n"):
            text = text.replace(zero, zero[:-1] + ".0" + zero[-1])
        if _long_way(text) or text.count(".") < array.size:
            return None
    return text


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
    text = _encode(envelope)
    if not as_table:
        print(text)
        return
    envelope = json.loads(text)
    print(f"command: {envelope['command']}")
    for key, value in envelope["outputs"].items():
        print(f"{key}: {value}")


# -- command implementations ---------------------------------------------------
#
# A handler takes the parsed arguments and the model its table row asks for
# (None for a command without ``--model``) and returns (inputs_echo, outputs);
# ``run`` adds the model path to the echo and the seed to the envelope.  Each
# handler imports the modules it runs, so a command loads no kernel it does
# not use; the graph commands run without NumPy.


def _cmd_graph_separated(args, model):
    from . import graphs

    x, y, given = _parse_names(args.x), _parse_names(args.y), _parse_names(args.given)
    separated = graphs.d_separated if isinstance(model, graphs.Dag) else graphs.u_separated
    return {"x": x, "y": y, "given": given}, {"separated": separated(model, x, y, given)}


def _cmd_graph_mb(args, model):
    from . import graphs

    blanket = graphs.markov_blanket(model, args.node)
    return {"node": args.node}, {"blanket": sorted(blanket)}


def _cmd_graph_moralize(args, dag):
    from . import graphs

    moral = graphs.moralise(dag)
    return {}, {"nodes": list(moral.nodes), "edges": [list(e) for e in sorted(moral.edges())]}


def _cmd_graph_iequiv(args, dag):
    from . import graphs

    other = _load_model(args.other, "dag")
    return {"other": args.other}, {"equivalent": graphs.i_equivalent(dag, other)}


def _cmd_graph_imap(args, model):
    from . import graphs

    oracle = graphs.oracle_from_dag if isinstance(model, graphs.Dag) else graphs.oracle_from_ugm
    order = _parse_names(args.order)
    imap = graphs.minimal_directed_imap(oracle(model), model.nodes, order)
    parents = {n: sorted(imap.parents[n]) for n in imap.nodes if imap.parents[n]}
    return {"order": order}, {"parents": parents}


def _cmd_fg_marginal(args, fg):
    from . import messages

    evidence = _parse_evidence(args.evidence)
    if evidence:
        fg, _ = messages.condition_factor_graph(fg, evidence)
    if args.var not in fg.var_names:
        raise ValidationError(f"no marginal for {args.var!r} (observed or unknown)")
    return {"var": args.var, "evidence": evidence}, {args.var: messages.marginal(fg, args.var)}


def _cmd_fg_map(args, fg):
    from . import messages

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
    echo = {"evidence": evidence, "root": root}
    return echo, {"assignment": assignment, "log_score": log_score + offset}


def _cmd_fg_eliminate(args, fg):
    from . import messages
    from .factors import eliminate, normalise

    evidence = _parse_evidence(args.evidence)
    if evidence:
        fg, _ = messages.condition_factor_graph(fg, evidence)
    keep = _parse_names(args.keep)
    used = [v for v in fg.var_names if fg.factor_neighbors(v)]  # an unused variable has nothing to eliminate
    order = _parse_names(args.order) if args.order else sorted(set(used) - set(keep))
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
    return {"keep": keep, "order": order, "evidence": evidence}, outputs


def _cmd_fg_condition(args, fg):
    from . import messages

    evidence = _parse_evidence(args.evidence)
    reduced, offset = messages.condition_factor_graph(fg, evidence)
    reduced_doc = ModelDocument(variables=list(reduced.variables),
                                factors=dict(reduced.factors))
    return {"evidence": evidence}, {"model": serialise_model(reduced_doc), "log_offset": offset}


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


def _cmd_hmm_filter(args, hmm):
    from . import sequential

    obs = _obs_ints(args.obs)
    filtered, log_lik = sequential.alpha_filter(hmm, obs)
    return {"obs": obs}, {"filtered": filtered, "log_likelihood": log_lik}


def _cmd_hmm_predict(args, hmm):
    from . import sequential

    obs = _obs_ints(args.obs)
    predict = sequential.predict_hidden if args.command == "predict-h" else sequential.predict_visible
    return {"obs": obs, "t": args.t}, {"probs": predict(hmm, obs, args.t)}


def _cmd_hmm_smooth(args, hmm):
    from . import sequential

    obs = _obs_ints(args.obs)
    return {"obs": obs}, {"smoothed": sequential.smooth(hmm, obs)}


def _cmd_hmm_viterbi(args, hmm):
    from . import sequential

    obs = _obs_ints(args.obs)
    path, score = sequential.viterbi(hmm, obs)
    return {"obs": obs}, {"path": path, "log_score": score}


def _cmd_hmm_ffbs(args, hmm):
    from . import samplers, sequential

    obs = _obs_ints(args.obs)
    rng = samplers.SeededRng(args.seed)
    paths = sequential.ffbs_paths(hmm, obs, rng, args.paths)
    return {"obs": obs, "paths": args.paths}, {"paths": paths}


def _cmd_kalman_filter(args, model):
    from . import sequential

    obs = _floats(args.obs)
    steps = sequential.kalman_filter(model, obs)
    return {"obs": obs}, {"steps": [{"mean": s.mean, "var": s.var, "gain": s.gain} for s in steps]}


def _cmd_fit_cpt_mle(args, dag):
    from . import learning

    data = learning.BinaryDataset.from_csv(args.data)
    est = learning.fit_cpt_mle(dag, data)
    table = {
        node: [{"theta": c.theta, "ones": c.ones, "zeros": c.zeros} for c in cells]
        for node, cells in est.cells.items()
    }
    return {"data": args.data}, {"cpt": table}


def _cmd_fit_cpt_bayes(args, dag):
    from . import learning

    data = learning.BinaryDataset.from_csv(args.data)
    post = learning.fit_cpt_bayes(dag, data, args.alpha0, args.beta0)
    table = {
        node: [{"alpha": p.alpha, "beta": p.beta, "predictive": p.mean} for p in cells]
        for node, cells in post.cells.items()
    }
    return {"data": args.data, "alpha0": args.alpha0, "beta0": args.beta0}, {"posterior": table}


def _cmd_fit_score_matching(args, _):
    from . import learning

    _, table = learning._read_csv(args.data, float)
    grad, curv = learning.gaussian_quadratic_stats()
    theta = learning.score_matching_fit(grad, curv, table[:, 0])
    return ({"data": args.data, "family": "zero-mean Gaussian, statistic x^2"},
            {"theta": float(theta[0]), "variance": float(-0.5 / theta[0])})


def _cmd_fit_ising2(args, _):
    from . import learning

    data = learning.load_spin_csv(args.data)
    theta = learning.ising2_mle(data)
    moment = float((data[:, 0] * data[:, 1]).mean())
    return ({"data": args.data},
            {"theta": theta, "empirical_moment": moment, "log_partition": learning.ising2_logZ(theta)})


def _cmd_sample_mh(args, _):
    import numpy as np

    from . import numerics, samplers

    rng = samplers.SeededRng(args.seed)
    if bool(args.out_csv) != bool(args.out_json):
        given, missing = ("--out-csv", "--out-json") if args.out_csv else ("--out-json", "--out-csv")
        raise ValidationError(f"{given} needs {missing}")
    if args.target == "normal":
        # th.dot(th) calls the same BLAS dot as th @ th, at a third of the cost.
        log_p = lambda th: -0.5 * float(th.dot(th))
        dim = numerics.count(args.dim, "dim", least=0)
        # mh refuses the same chain, but only once init exists, which would not fit either.
        numerics.within_limit((args.samples + args.warmup) * dim,
                              f"the chain of (samples + warmup) x dim = {args.samples + args.warmup} x {dim}")
        init = np.zeros(dim)
    else:  # poisson regression on (x, y) CSV columns
        if not args.data:
            raise ValidationError("--data is required for the poisson target")
        from . import learning

        _, pairs = learning._read_csv(args.data, [("x", float), ("y", int)])
        # As (x, y) tuples: iterating the records themselves is about 3x slower.
        log_p = samplers.poisson_regression_log_pstar(pairs[:, 0].tolist())
        init = np.zeros(2)
    trace = samplers.mh(rng, log_p, init, args.samples, args.vari, args.warmup)
    names = [f"theta{k}" for k in range(trace.samples.shape[1])]
    if args.out_csv:
        samplers.export_trace(trace, args.out_csv, args.out_json, names)
    outputs = {
        "mean": trace.samples.mean(axis=0),
        "variance": trace.samples.var(axis=0),
        "acceptance_rate": trace.acceptance_rate,
        "ess": trace.coordinate_ess(),
    }
    echo = {"target": args.target, "samples": args.samples, "vari": args.vari,
            "warmup": args.warmup, "data": args.data}
    return echo, outputs


def _cmd_sample_rejection(args, _):
    from . import samplers

    rng = samplers.SeededRng(args.seed)
    draws, rate = samplers.rejection_normal_via_laplace(rng, args.samples, args.b)
    outputs = {"acceptance_rate": rate, "mean": float(draws.mean()),
               "variance": float(draws.var())}
    return {"samples": args.samples, "b": args.b}, outputs


def _cmd_sample_importance(args, _):
    from . import samplers

    rng = samplers.SeededRng(args.seed)
    estimate = samplers.gaussian_tail_probability(rng, args.samples, args.threshold)
    return {"samples": args.samples, "threshold": args.threshold}, {"estimate": estimate}


def _cmd_sample_gibbs_rbm(args, rbm):
    from . import samplers

    rng = samplers.SeededRng(args.seed)
    visible = samplers.gibbs_rbm(rng, rbm, args.sweeps)
    counts = Counter("".join(map(str, row)) for row in visible.tolist())
    outputs = {
        "mean_visible": visible.mean(axis=0),
        "counts": dict(sorted(counts.items())),
    }
    return {"sweeps": args.sweeps}, outputs


def _cmd_vi_meanfield(args, target):
    import numpy as np

    from . import variational

    init = variational.MeanFieldState(np.zeros(target.dim), np.ones(target.dim))
    state = variational.mean_field_solve(target, init, tol=args.tol)
    outputs = {"means": state.means, "variances": state.variances,
               "elbo": variational.elbo(target, state)}
    return {"tol": args.tol}, outputs


def _cmd_vi_klfit(args, _):
    from . import variational

    variances = _floats(args.variances)
    return {"variances": variances}, {"lambda2": variational.isotropic_kl_fit(variances)}


# -- the command table ---------------------------------------------------------


class Command(NamedTuple):
    """One CLI command.

    ``section`` names what ``--model`` must hold: a document section, or
    ``factors`` for the factor graph, or ``graph`` for exactly one of
    ``dag`` and ``ugm``; None means the command takes no ``--model``.
    ``options`` maps each further flag to its spec (see ``_add_option``),
    in the order the parser lists them.
    """

    group: str
    name: str
    handler: Callable
    section: str | None
    options: dict = {}
    seeded: bool = False


COMMANDS = (
    Command("graph", "dsep", _cmd_graph_separated, "dag", {"--x": str, "--y": str, "--given": ""}),
    Command("graph", "usep", _cmd_graph_separated, "ugm", {"--x": str, "--y": str, "--given": ""}),
    Command("graph", "mb", _cmd_graph_mb, "graph", {"--node": str}),
    Command("graph", "moralize", _cmd_graph_moralize, "dag"),
    Command("graph", "iequiv", _cmd_graph_iequiv, "dag", {"--other": str}),
    Command("graph", "imap", _cmd_graph_imap, "graph", {"--order": str}),
    Command("fg", "marginal", _cmd_fg_marginal, "factors", {"--var": str, "--evidence": ""}),
    Command("fg", "map", _cmd_fg_map, "factors", {"--evidence": "", "--root": ""}),
    Command("fg", "eliminate", _cmd_fg_eliminate, "factors",
            {"--keep": str, "--order": "", "--evidence": ""}),
    Command("fg", "condition", _cmd_fg_condition, "factors", {"--evidence": str}),
    Command("hmm", "filter", _cmd_hmm_filter, "hmm", {"--obs": str}),
    Command("hmm", "smooth", _cmd_hmm_smooth, "hmm", {"--obs": str}),
    Command("hmm", "viterbi", _cmd_hmm_viterbi, "hmm", {"--obs": str}),
    Command("hmm", "predict-h", _cmd_hmm_predict, "hmm", {"--obs": str, "--t": int}),
    Command("hmm", "predict-v", _cmd_hmm_predict, "hmm", {"--obs": str, "--t": int}),
    Command("hmm", "ffbs", _cmd_hmm_ffbs, "hmm", {"--obs": str, "--paths": 1}, seeded=True),
    Command("kalman", "filter", _cmd_kalman_filter, "kalman", {"--obs": str}),
    Command("fit", "cpt-mle", _cmd_fit_cpt_mle, "dag", {"--data": str}),
    Command("fit", "cpt-bayes", _cmd_fit_cpt_bayes, "dag",
            {"--data": str, "--alpha0": 1.0, "--beta0": 1.0}),
    Command("fit", "score-matching", _cmd_fit_score_matching, None, {"--data": str}),
    Command("fit", "ising2", _cmd_fit_ising2, None, {"--data": str}),
    Command("sample", "mh", _cmd_sample_mh, None,
            {"--target": ["normal", "poisson"], "--data": "", "--dim": 2, "--samples": 5000,
             "--vari": 1.0, "--warmup": 0, "--out-csv": "", "--out-json": ""}, seeded=True),
    Command("sample", "rejection", _cmd_sample_rejection, None,
            {"--samples": 10000, "--b": 1.0}, seeded=True),
    Command("sample", "importance", _cmd_sample_importance, None,
            {"--samples": 100000, "--threshold": 5.0}, seeded=True),
    Command("sample", "gibbs-rbm", _cmd_sample_gibbs_rbm, "rbm", {"--sweeps": 1000}, seeded=True),
    Command("vi", "meanfield", _cmd_vi_meanfield, "meanfield", {"--tol": 1e-12}),
    Command("vi", "klfit", _cmd_vi_klfit, None, {"--variances": str}),
)


def _add_option(parser: argparse.ArgumentParser, flag: str, spec) -> None:
    """A type (``str``, ``int``) makes a required option of that type; a list
    gives the choices, the first being the default; any other value is the
    default, and its type is the option's type."""
    if isinstance(spec, type):
        parser.add_argument(flag, type=spec, required=True)
    elif isinstance(spec, list):
        parser.add_argument(flag, choices=spec, default=spec[0])
    else:
        parser.add_argument(flag, type=type(spec), default=spec)


def _load_model(path, section: str):
    """What a command reads from the document at ``path``; see ``Command``."""
    doc = parse_model(path)
    if section == "factors":
        return doc.factor_graph()
    if section == "graph":
        if (doc.dag is None) == (doc.ugm is None):
            raise ValidationError("exactly one of 'dag' or 'ugm' must be present")
        return doc.dag if doc.dag is not None else doc.ugm
    return doc.require(section)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pgmlab", description=__doc__)
    parser.add_argument("--table", action="store_true", help="plain-text output instead of JSON")
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for spec in COMMANDS:
        if spec.group not in groups:
            groups[spec.group] = top.add_parser(spec.group).add_subparsers(dest="command", required=True)
        sub = groups[spec.group].add_parser(spec.name)
        sub.set_defaults(spec=spec)
        if spec.seeded:
            _add_option(sub, "--seed", int)
        if spec.section is not None:
            _add_option(sub, "--model", str)
        for flag, option in spec.options.items():
            _add_option(sub, flag, option)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that every ``run`` and ``main`` call in this process
    shares; ``build_parser`` itself still returns a new one per call."""
    return build_parser()


def run(argv) -> dict:
    """Parse arguments, execute the command, and return the envelope as
    ``main`` prints it, parsed back into plain JSON types."""
    return json.loads(_encode(_execute(_parser().parse_args(argv))))


def _execute(args: argparse.Namespace) -> dict:
    spec = args.spec
    start = time.perf_counter()
    echo, outputs = spec.handler(args, spec.section and _load_model(args.model, spec.section))
    if spec.section:
        echo = {"model": args.model, **echo}
    return {
        "command": f"{args.group} {args.command}",
        "inputs": echo,
        "outputs": outputs,
        "seed": args.seed if spec.seeded else None,
        "elapsed_seconds": time.perf_counter() - start,
    }


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        envelope = _execute(args)
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
    try:
        _print_envelope(envelope, args.table)
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
