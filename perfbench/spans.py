"""The traced run: spans around the calls into each pgmlab layer, and the
per-layer metrics derived from them.

Tracing lives entirely in the benchmark.  While a traced batch runs, every
public function of every pgmlab module is replaced, in each module
namespace that holds it, by a wrapper that records a span: its name
("layer.function"), layer, start, end, parent span and operation id.  A
call from a layer into the same layer records nothing, so a span marks a
call *into* a layer and internal helpers cost one extra call.  A few
private functions of ``cli`` get spans of their own pseudo-layers,
``cli.argparse`` and ``cli.envelope``.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus
the durations of its child spans.

Every traced run, whatever the workload, measures every per-layer metric:
it runs the import probes and then rounds of all three operation lists
in-process, each list once untraced and once traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import statistics
import subprocess
import sys
import time
import types
from collections import defaultdict

import harness
import workloads

LAYERS = ("cli", "modelio", "factors", "graphs", "messages", "sequential", "samplers", "learning",
          "variational", "numerics")
PSEUDO_LAYERS = {"cli._jsonable": "cli.envelope", "cli._print_envelope": "cli.envelope",
                 "cli.build_parser": "cli.argparse"}
IMPORT_PROBES = 3
MIN_ROUNDS = 2


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, op]
        self.stack: list[int] = []
        # (round, list name, op name, speed factor) by op id; the factor
        # scales the op's times to the reference speed.
        self.ops: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def begin(self, round_no: int, list_name: str, op_name: str) -> None:
        self.ops.append([round_no, list_name, op_name, 1.0])

    def set_factors(self, results) -> None:
        """Give the latest ``len(results)`` operations their speed factors."""
        for entry, result in zip(self.ops[-len(results):], results):
            entry[3] = result.scaled / result.seconds

    def wrap(self, fn, name: str, layer: str):
        spans, stack, ops = self.spans, self.stack, self.ops

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, len(ops) - 1]
            stack.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()

        return traced

    def _replacement(self, module_layer: str, attr: str, obj):
        if module_layer == "modelio" and attr == "Dag":
            return self.wrap(obj, "graphs.Dag", "graphs")
        if not isinstance(obj, types.FunctionType) or not obj.__module__.startswith("pgmlab."):
            return None
        home = obj.__module__.split(".", 1)[1]
        name = f"{home}.{obj.__name__}"
        if home not in LAYERS or (obj.__name__.startswith("_") and name not in PSEUDO_LAYERS):
            return None
        if name == "cli.build_parser":
            obj = self._tracing_parse_args(obj)
        elif name == "messages.schedule":
            obj = self._counting_messages(obj)
        return self.wrap(obj, name, PSEUDO_LAYERS.get(name, home))

    def _tracing_parse_args(self, build_parser):
        @functools.wraps(build_parser)
        def traced_build_parser(*args, **kwargs):
            parser = build_parser(*args, **kwargs)
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse_args", "cli.argparse")
            return parser
        return traced_build_parser

    def _counting_messages(self, schedule):
        # Messages passed: every scheduled edge carries one message.
        @functools.wraps(schedule)
        def counted_schedule(fg):
            result = schedule(fg)
            self.counts[(len(self.ops) - 1, "messages.count")] += len(result.all_edges())
            return result
        return counted_schedule

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"pgmlab.{layer}")
            for attr, obj in list(vars(module).items()):
                replacement = self._replacement(layer, attr, obj)
                if replacement is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, obj = self._patched.pop()
            setattr(module, attr, obj)

    def self_times(self) -> tuple[dict, dict]:
        """Self seconds per (op id, span name) and per (op id, layer)."""
        children = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                children[parent] += end - start
        by_name: dict[tuple[int, str], float] = defaultdict(float)
        by_layer: dict[tuple[int, str], float] = defaultdict(float)
        for (name, layer, start, end, parent, op), child in zip(self.spans, children):
            by_name[(op, name)] += end - start - child
            by_layer[(op, layer)] += end - start - child
        return by_name, by_layer


# -- import probes ----------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def _wall(argv: list[str]) -> tuple[float, str]:
    """Scaled seconds of one child process, and its standard error."""
    kernel_s = harness.calibrate()
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=harness.ROOT, env=harness.child_env(),
                          timeout=harness.CHILD_TIMEOUT_S, check=True)
    return (time.perf_counter() - start) * harness.REFERENCE_KERNEL_S / kernel_s, proc.stderr


def import_metrics() -> dict:
    """Interpreter start and import costs, each the median of
    IMPORT_PROBES fresh processes.  The wall times are scaled; the
    ``-X importtime`` figures are the interpreter's own, unscaled."""
    py = sys.executable
    interpreter = [_wall([py, "-c", "pass"])[0] for _ in range(IMPORT_PROBES)]
    total = [_wall([py, "-c", "import pgmlab.cli"])[0] for _ in range(IMPORT_PROBES)]
    cumulative = defaultdict(list)
    for _ in range(IMPORT_PROBES):
        stderr = _wall([py, "-X", "importtime", "-c", "import pgmlab.cli"])[1]
        seen = {}
        for line in stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m:
                seen.setdefault(m.group(2), int(m.group(1)) / 1e3)
        for module in ("numpy", "scipy.linalg", "pgmlab.cli"):
            cumulative[module].append(seen.get(module, 0.0))
    numpy_ms = statistics.median(cumulative["numpy"])
    scipy_ms = statistics.median(cumulative["scipy.linalg"])
    return {
        "import.interpreter_ms": (statistics.median(interpreter) * 1e3, "ms"),
        "import.numpy_ms": (numpy_ms, "ms"),
        "import.scipy_ms": (scipy_ms, "ms"),
        "import.pgmlab_ms": (statistics.median(cumulative["pgmlab.cli"]) - numpy_ms - scipy_ms, "ms"),
        "import.total_ms": (statistics.median(total) * 1e3, "ms"),
    }


# -- per-layer metrics ----------------------------------------------------------------------------

# metric -> (operation list, operation, span name or layer); the value is the
# self time of that span (or of the whole layer) within the operation.
SELF_TIME_METRICS = {
    **{f"messages.sum_product_ms.v{v}": ("exact_sweep", f"fg_marginal.v{v}", "messages")
       for v in workloads.CHAIN_SIZES},
    **{f"messages.max_sum_ms.v{v}": ("exact_sweep", f"fg_map.v{v}", "messages") for v in workloads.CHAIN_SIZES},
    "messages.conditioned_ms.v100": ("exact_sweep", "fg_marginal_end_evidence.v100", "messages"),
    "modelio.parse_fg_ms.v200": ("exact_sweep", "fg_marginal.v200", "modelio"),
    "modelio.parse_hmm_ms.n1000": ("exact_sweep", "hmm_filter.n1000", "modelio"),
    "factors.eliminate_ms": ("exact_sweep", "fg_eliminate.loopy", "factors"),
    "graphs.dsep_ms": ("exact_sweep", "graph_dsep.z3", "graphs.d_separated"),
    "graphs.dag_build_ms": ("exact_sweep", "graph_dsep.z3", "graphs.Dag"),
    "graphs.imap_ms": ("exact_sweep", "graph_imap", "graphs.minimal_directed_imap"),
    **{f"sequential.{kind}_ms.n{n}": ("exact_sweep", f"hmm_{kind}.n{n}", "sequential")
       for kind in ("filter", "smooth", "viterbi") for n in workloads.HMM_SIZES},
    **{f"sequential.ffbs_ms.n{n}": ("exact_sweep", f"hmm_ffbs.n{n}", "sequential") for n in workloads.FFBS_SIZES},
    "sequential.kalman_ms": ("exact_sweep", "kalman_filter", "sequential"),
    "samplers.mh_ms": ("stochastic_fit", "sample_mh", "samplers.mh"),
    "samplers.ess_ms": ("stochastic_fit", "sample_mh", "samplers.ess"),
    "samplers.rejection_ms": ("stochastic_fit", "sample_rejection", "samplers"),
    "samplers.importance_ms": ("stochastic_fit", "sample_importance", "samplers"),
    "learning.score_matching_ms": ("stochastic_fit", "fit_score_matching", "learning.score_matching_fit"),
    "learning.cpt_mle_ms": ("stochastic_fit", "fit_cpt_mle", "learning"),
    "learning.cpt_bayes_ms": ("stochastic_fit", "fit_cpt_bayes", "learning"),
    "learning.ising2_ms": ("stochastic_fit", "fit_ising2", "learning.ising2_mle"),
    "learning.fa_standardise_ms": ("stochastic_fit", "fa_standardise", "learning"),
    "numerics.eig_ms.n40": ("stochastic_fit", "fa_standardise", "numerics"),
    "variational.meanfield_ms": ("stochastic_fit", "vi_meanfield", "variational"),
    "variational.klfit_ms": ("stochastic_fit", "vi_klfit", "variational"),
}


def layer_metrics(tracer: Tracer, traced: dict[str, harness.Tally]) -> dict:
    by_name, by_layer = tracer.self_times()
    ids = defaultdict(list)  # (list name, op name) -> op ids, one per round
    for op_id, (_, list_name, op_name, _) in enumerate(tracer.ops):
        ids[(list_name, op_name)].append(op_id)

    def self_ms(list_name: str, op_name: str, what: str) -> list[float]:
        """Scaled self milliseconds of a span name or layer in each round."""
        table = by_layer if what in LAYERS or what in PSEUDO_LAYERS.values() else by_name
        return [table.get((i, what), 0.0) * tracer.ops[i][3] * 1e3 for i in ids[(list_name, op_name)]]

    metrics = {name: (statistics.median(self_ms(*where)), "ms") for name, where in SELF_TIME_METRICS.items()}
    cli_ops = [name for (list_name, name) in ids if list_name == "cli_cold"]
    metrics["modelio.parse_ms"] = (statistics.median(
        [v for op in cli_ops for v in self_ms("cli_cold", op, "modelio") if v > 0]), "ms")
    metrics["cli.argparse_ms"] = (statistics.median(
        [v for op in cli_ops for v in self_ms("cli_cold", op, "cli.argparse")]), "ms")
    exact_ops = [name for (list_name, name) in ids if list_name == "exact_sweep"]
    per_round = zip(*(self_ms("exact_sweep", op, "cli.envelope") for op in exact_ops))
    metrics["cli.envelope_ms"] = (statistics.median(sum(r) for r in per_round), "ms")
    metrics["cli.envelope_kb"] = (sum(traced["exact_sweep"].results[op][-1].out_bytes for op in exact_ops) / 1024,
                                  "KB")
    metrics["messages.count.v200"] = (statistics.median(
        tracer.counts[(i, "messages.count")] for i in ids[("exact_sweep", "fg_marginal.v200")]), "count")
    exact, stochastic = traced["exact_sweep"].outputs, traced["stochastic_fit"].outputs
    metrics["factors.peak_table_entries"] = (exact["fg_eliminate.loopy"]["peak_entries"], "count")
    metrics["samplers.mh_acceptance"] = (stochastic["sample_mh"]["acceptance_rate"], "ratio")
    rate = stochastic["sample_rejection"]["acceptance_rate"]
    metrics["samplers.rejection_proposals"] = (round(workloads.REJECTION_SAMPLES / rate), "count")
    gibbs = self_ms("stochastic_fit", "sample_gibbs_rbm", "samplers")
    metrics["samplers.gibbs_us_per_sweep"] = (statistics.median(gibbs) * 1e3 / workloads.GIBBS_SWEEPS, "us")
    return metrics


# -- the traced run ---------------------------------------------------------------------------------


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, harness.Tally, dict]:
    harness.import_pgmlab()
    metrics = import_metrics()
    lists = {name: harness.generate(name, seed)[0] for name in workloads.WORKLOADS}
    plain, traced = {}, {}
    for name, ops in lists.items():
        warmup = harness.Tally()
        harness.run_batch(ops, warmup)
        plain[name], traced[name] = warmup.carry_checks(), warmup.carry_checks()

    tracer = Tracer()

    def run_traced(name: str, round_no: int) -> None:
        tracer.install()
        try:
            results = harness.run_batch(lists[name], traced[name], lambda op: tracer.begin(round_no, name, op.name))
        finally:
            tracer.uninstall()
        tracer.set_factors(results)

    deadline = time.perf_counter() + seconds
    round_no = 0
    while time.perf_counter() < deadline or round_no < MIN_ROUNDS:
        for name, ops in lists.items():
            # Alternate which goes first, so that neither side gains from order.
            if round_no % 2:
                run_traced(name, round_no)
            harness.run_batch(ops, plain[name])
            if not round_no % 2:
                run_traced(name, round_no)
        round_no += 1

    metrics.update(layer_metrics(tracer, traced))
    ops = lists[workload]
    metrics["trace.overhead_ms"] = ((traced[workload].median_batch(ops) - plain[workload].median_batch(ops)) * 1e3,
                                    "ms")
    trace_path = harness.OUT / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps({"fields": ["name", "layer", "start", "end", "parent", "op"],
                                      "ops": tracer.ops, "spans": tracer.spans}) + "\n")
    # Counts are those of the named workload's operations; problems are all.
    tally = harness.Tally(problems=[p for t in plain.values() for p in t.problems])
    for t in (plain[workload], traced[workload]):
        for kind, (attempted, failed) in t.counts.items():
            entry = tally.counts.setdefault(kind, [0, 0])
            entry[0] += attempted
            entry[1] += failed
        tally.results.update({f"{name}{'.traced' if t is traced[workload] else ''}": rs
                              for name, rs in t.results.items()})
    detail = {"rounds": round_no, "spans": len(tracer.spans), "trace_file": trace_path.name}
    return dict(sorted(metrics.items())), tally, detail
