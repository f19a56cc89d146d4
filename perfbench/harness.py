"""Running operations and measuring them: warm batches in this process,
and cold ``python -m pgmlab.cli`` processes.

Every timed operation runs between two runs of the calibration kernel, on
the same CPU, and its time is reported at the reference speed: its wall
time scaled by REFERENCE_KERNEL_S over the mean of the two kernel times.
On the shared 2-vCPU VM of the README's reference figures the same code
runs up to twice as slowly for seconds to minutes at a time; the scaled
times cancel most of that (README, "Steadiness").
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MIN_COLD_PROCESSES = 40
MIN_BATCHES = 5
GENERATIONS = 5
CHILD_TIMEOUT_S = 120
REFERENCE_KERNEL_S = 0.004


@functools.cache
def _kernel_chain():
    # Imported on first use, so that the set-up time of the warm workloads
    # includes importing NumPy.
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.uniform(0.1, 1.0, (40, 2)), rng.uniform(0.1, 1.0, (39, 2, 2))


def calibrate() -> float:
    """Seconds taken by a fixed kernel that shares no code with pgmlab but
    resembles its work: small NumPy calls in a Python loop, then building
    and reading a dict of small objects."""
    import reference

    chain = _kernel_chain()
    # A collection here would charge the kernel for garbage the operation
    # before it left behind.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference.chain_forward_backward(*chain)
        table = {(i, "k"): [i, {"v": i * 0.5}] for i in range(3000)}
        sum(v[1]["v"] for v in table.values())
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


@dataclass
class OpResult:
    seconds: float
    kernel_s: float  # mean of the kernel times before and after
    failure: str | None = None
    out_bytes: int = 0

    @property
    def scaled(self) -> float:
        """Seconds at the reference speed."""
        return self.seconds * REFERENCE_KERNEL_S / self.kernel_s


@dataclass
class Tally:
    """Attempted and failed operations per operation type, the check
    failures, the outputs already verified, and every timing."""

    counts: dict[str, list[int]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    verified: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)
    results: dict[str, list[OpResult]] = field(default_factory=dict)

    def record(self, op, result: OpResult) -> None:
        entry = self.counts.setdefault(op.kind, [0, 0])
        entry[0] += 1
        entry[1] += result.failure is not None
        self.results.setdefault(op.name, []).append(result)

    def carry_checks(self) -> "Tally":
        """A fresh tally that keeps the verified outputs and problems."""
        return Tally(problems=self.problems, verified=self.verified, outputs=self.outputs)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())

    def median_batch(self, ops) -> float:
        """Scaled seconds of one batch built from each operation's median:
        the sum over the operations expected to succeed."""
        return sum(statistics.median(r.scaled for r in self.results[op.name]) for op in ops if not op.probe)

    def timings(self) -> dict:
        return {name: {"seconds": [r.seconds for r in rs], "kernel_s": [r.kernel_s for r in rs]}
                for name, rs in self.results.items()}


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def verify(op, tally: Tally, text: str | None = None, value=None) -> None:
    """Check one successful output.  Repeats of an output already verified
    for the same operation are accepted by comparison; any other output
    must pass the full check, and outputs of one operation must repeat
    exactly, since every operation is deterministic for its inputs and
    seed."""
    import workloads

    try:
        if text is not None:
            value = json.loads(text, parse_constant=_reject_constant)["outputs"]
            canonical = json.dumps(value, sort_keys=True)
        else:
            canonical = repr(value.tolist())
        if tally.verified.get(op.name) == canonical:
            return
        if op.name in tally.verified:
            raise workloads.CheckFailed("output differs from an earlier run of the same operation")
        op.check(value)
        tally.verified[op.name] = canonical
        tally.outputs[op.name] = value
    except (workloads.CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
        tally.problems.append(f"{op.name}: {type(exc).__name__}: {exc}")


# -- warm, in-process operations ---------------------------------------------------------


def run_warm_op(op, tally: Tally, on_start=None) -> OpResult:
    from pgmlab import cli

    out, err = io.StringIO(), io.StringIO()
    kernel_s = calibrate()
    if on_start:
        on_start(op)
    start = time.perf_counter()
    try:
        if op.call is not None:
            value = op.call()
            result = OpResult(time.perf_counter() - start, kernel_s)
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
            result = OpResult(time.perf_counter() - start, kernel_s,
                              None if code == 0 else f"exit {code}", len(out.getvalue()))
    except Exception as exc:  # an error escaping cli.main is a failed operation, not a crash
        result = OpResult(time.perf_counter() - start, kernel_s, type(exc).__name__)
    result.kernel_s = (kernel_s + calibrate()) / 2
    tally.record(op, result)
    if result.failure is None:
        if op.call is not None:
            verify(op, tally, value=value)
        else:
            verify(op, tally, text=out.getvalue())
    return result


def run_batch(ops, tally: Tally, on_start=None) -> list[OpResult]:
    """One pass through ``ops``, in order."""
    gc.collect()
    return [run_warm_op(op, tally, on_start) for op in ops]


def batch_scaled(ops, results: list[OpResult]) -> float:
    return sum(r.scaled for op, r in zip(ops, results) if not op.probe)


def import_pgmlab() -> float:
    """Scaled seconds to import NumPy and pgmlab.cli (once per process).
    The kernel runs after the import, since it needs NumPy."""
    start = time.perf_counter()
    importlib.import_module("numpy")
    importlib.import_module("pgmlab.cli")
    seconds = time.perf_counter() - start
    return seconds * REFERENCE_KERNEL_S / calibrate()


def generate(workload: str, seed: int):
    """Generate the inputs GENERATIONS times; return the operations of the
    last generation and the median scaled generation time."""
    import workloads

    directory = OUT / f"inputs-{workload}"
    directory.mkdir(parents=True, exist_ok=True)
    times = []
    for _ in range(GENERATIONS):
        kernel_s = calibrate()
        start = time.perf_counter()
        ops = workloads.WORKLOADS[workload](seed, directory)
        seconds = time.perf_counter() - start
        times.append(seconds * REFERENCE_KERNEL_S * 2 / (kernel_s + calibrate()))
    return ops, statistics.median(times)


def _p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2]


def warm_run(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    import_s = import_pgmlab()
    ops, generate_s = generate(workload, seed)
    warmup = Tally()
    warmup_s = batch_scaled(ops, run_batch(ops, warmup))

    tally = warmup.carry_checks()
    n_calls = sum(not op.probe for op in ops)
    per_call = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(per_call) < MIN_BATCHES:
        per_call.append(batch_scaled(ops, run_batch(ops, tally)) / n_calls)
    batch_s = tally.median_batch(ops)
    metrics = {
        "setup_s": (import_s + generate_s + warmup_s, "s"),
        "batch_ms": (batch_s * 1e3, "ms"),
        "cli_ms": (batch_s / n_calls * 1e3, "ms"),
        "cli_p75_ms": (_p75(per_call) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"import_s": import_s, "generate_s": generate_s, "warmup_s": warmup_s,
              "calls_per_batch": n_calls, "batches": len(per_call), "per_call_s": per_call}
    return metrics, tally, detail


# -- cold processes --------------------------------------------------------------------------


def child_env() -> dict:
    """The environment of a CLI process: pgmlab from ``src/``, and bytecode
    cached in ``__pycache__`` as in a normal install, even where the caller
    turned that off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_cold_op(op, tally: Tally) -> OpResult:
    """One ``python -m pgmlab.cli`` process, timed from spawn to exit with
    its output read."""
    kernel_s = calibrate()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "pgmlab.cli", *op.argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    result = OpResult(time.perf_counter() - start, (kernel_s + calibrate()) / 2,
                      None if proc.returncode == 0 else f"exit {proc.returncode}", len(out))
    tally.record(op, result)
    if result.failure is None:
        verify(op, tally, text=out)
    return result


def cold_run(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    ops, generate_s = generate(workload, seed)
    # One untimed process first, so that every timed one finds the bytecode
    # compiled and the files cached.
    warmup = Tally()
    run_cold_op(ops[0], warmup)
    tally = warmup.carry_checks()
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < MIN_COLD_PROCESSES:
        times += [run_cold_op(op, tally).scaled for op in ops]
    metrics = {
        "setup_s": (generate_s, "s"),
        "batch_ms": (tally.median_batch(ops) * 1e3, "ms"),
        "cli_ms": (statistics.median(times) * 1e3, "ms"),
        "cli_p75_ms": (_p75(times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    return metrics, tally, {"generate_s": generate_s, "processes": len(times)}
