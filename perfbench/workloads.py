"""The three workloads as lists of operations, each with its correctness check.

An operation is one call of the pgmlab CLI (or, for ``fa_standardise``,
one direct library call).  Its check receives the parsed ``outputs`` of
the result envelope (or the call's return value) and raises
:class:`CheckFailed` when the output disagrees with the benchmark's own
computation in :mod:`reference` or breaks a property the method must have.
Checks compute their references lazily, so that generating inputs stays
cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import models
import reference
from models import derived_seed, stream, write_csv, write_json


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    """``name`` is unique within a workload; ``kind`` groups the attempted
    and failed counts.  A probe is a known-failing operation: it runs once
    per batch and is kept out of the batch time."""

    name: str
    kind: str
    check: Callable[[Any], None]
    argv: list[str] | None = None
    call: Callable[[], Any] | None = None
    probe: bool = False


def _close(actual, expected, what: str, rtol: float = 1e-9, atol: float = 1e-12) -> None:
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape or not np.allclose(a, e, rtol=rtol, atol=atol):
        err = np.max(np.abs(a - e)) if a.shape == e.shape else f"shape {a.shape} != {e.shape}"
        raise CheckFailed(f"{what}: differs from the reference (max abs error {err})")


def _within(value: float, expected: float, tol: float, what: str) -> None:
    if not abs(value - expected) <= tol:
        raise CheckFailed(f"{what}: {value} is not within {tol:.3g} of {expected}")


def _equal(actual, expected, what: str) -> None:
    if actual != expected:
        raise CheckFailed(f"{what}: {actual!r} != {expected!r}")


# -- factor graphs ----------------------------------------------------------------------


def _marginal_check(ch: models.Chain, var: int, evidence: dict[int, int] | None = None):
    def check(out):
        marg, _ = reference.chain_forward_backward(ch.unary, ch.pair, evidence)
        _close(out[f"x{var}"], marg[var], f"marginal of x{var}")
    return check


def _map_check(ch: models.Chain):
    def check(out):
        states = [out["assignment"][n] for n in ch.names]
        best = reference.chain_max_log_score(ch.unary, ch.pair)
        _close(out["log_score"], best, "MAP log score against max-product")
        _close(reference.chain_log_score(ch.unary, ch.pair, states), out["log_score"],
               "MAP log score recomputed at the returned assignment")
    return check


def _chain_logz_check(ch: models.Chain, keep: int):
    def check(out):
        marg, log_z = reference.chain_forward_backward(ch.unary, ch.pair)
        _close(math.log(sum(out["values"])), log_z, "log Z from elimination")
        _close(out[f"x{keep}"], marg[keep], f"eliminated marginal of x{keep}")
    return check


def _loopy_check(g: models.Loopy, keep: int, evidence: dict[int, int], order: list[str]):
    def check(out):
        _close(out[g.names[keep]], reference.loopy_conditional(g.unary, g.edges, g.pair, keep, evidence),
               "eliminated conditional against enumeration")
        observed = {g.names[i] for i in evidence}
        scopes = [{g.names[i]} - observed for i in range(len(g.names))]
        scopes += [{g.names[a], g.names[b]} - observed for a, b in g.edges]
        sizes = reference.elimination_step_sizes([s for s in scopes if s], order, 2)
        _equal(out["step_sizes"], sizes, "elimination step sizes")
        _equal(out["peak_entries"], max(sizes), "peak table entries")
    return check


# -- sequential models ---------------------------------------------------------------------


def _hmm_args(h: models.Hmm):
    return h.prior, h.trans, h.emis, h.obs


def _filter_check(h: models.Hmm):
    def check(out):
        filt, log_lik = reference.hmm_filtered(*_hmm_args(h))
        _close(out["filtered"], filt, "filtered marginals", atol=1e-10)
        _close(out["log_likelihood"], log_lik, "log-likelihood")
    return check


def _smooth_check(h: models.Hmm):
    def check(out):
        _close(out["smoothed"], reference.hmm_smoothed(*_hmm_args(h)), "smoothed marginals", atol=1e-10)
    return check


def _viterbi_check(h: models.Hmm):
    def check(out):
        _close(out["log_score"], reference.hmm_max_log_score(*_hmm_args(h)), "Viterbi log score")
        _close(reference.hmm_path_log_joint(*_hmm_args(h), out["path"]), out["log_score"],
               "log joint of the Viterbi path")
    return check


def _ffbs_check(h: models.Hmm, n_paths: int):
    def check(out):
        paths = out["paths"]
        _equal(len(paths), n_paths, "number of FFBS paths")
        for path in paths:
            _equal(len(path), len(h.obs), "FFBS path length")
            if not math.isfinite(reference.hmm_path_log_joint(*_hmm_args(h), path)):
                raise CheckFailed("an FFBS path has zero posterior probability")
    return check


def _kalman_check(k: models.Kalman):
    def check(out):
        expected = reference.kalman(k.A, k.B, k.C, k.D, k.mean0, k.var0, k.obs)
        got = [(s["mean"], s["var"], s["gain"]) for s in out["steps"]]
        _close(got, expected, "Kalman mean, variance and gain")
    return check


# -- graphs -----------------------------------------------------------------------------------


def _dsep_check(dag: dict, x: str, y: str, given: list[str]):
    def check(out):
        _equal(out["separated"], reference.d_separated(dag["parents"], {x}, {y}, set(given)),
               f"d-separation of {x} and {y} given {given}")
    return check


def _imap_check(dag: dict, order: list[str]):
    def check(out):
        _equal(out["parents"], reference.minimal_imap_parents(dag["parents"], order), "minimal I-map parents")
    return check


# -- learning, sampling and variational inference --------------------------------------------


def _cpt_counts(dag: dict, data: np.ndarray):
    """(ones, zeros) per parent configuration of each node, by bincount."""
    col = {n: i for i, n in enumerate(dag["nodes"])}
    counts = {}
    for node in dag["nodes"]:
        parents = dag["parents"].get(node, [])
        config = sum((2 ** j) * data[:, col[p]] for j, p in enumerate(parents)) if parents else np.zeros(len(data), int)
        child = data[:, col[node]]
        size = 2 ** len(parents)
        counts[node] = (np.bincount(config[child == 1], minlength=size).tolist(),
                        np.bincount(config[child == 0], minlength=size).tolist())
    return counts


def _cpt_mle_check(dag: dict, data: np.ndarray):
    def check(out):
        for node, (ones, zeros) in _cpt_counts(dag, data).items():
            cells = out["cpt"][node]
            _equal([c["ones"] for c in cells], ones, f"ones counts of {node}")
            _equal([c["zeros"] for c in cells], zeros, f"zeros counts of {node}")
            for c, n1, n0 in zip(cells, ones, zeros):
                if n1 + n0 == 0:
                    _equal(c["theta"], None, f"undefined cell of {node}")
                else:
                    _close(c["theta"], n1 / (n1 + n0), f"theta of {node}")
    return check


def _cpt_bayes_check(dag: dict, data: np.ndarray, alpha0: float, beta0: float):
    def check(out):
        for node, (ones, zeros) in _cpt_counts(dag, data).items():
            cells = out["posterior"][node]
            alpha = np.array(ones) + alpha0
            beta = np.array(zeros) + beta0
            _close([c["alpha"] for c in cells], alpha, f"alpha of {node}")
            _close([c["beta"] for c in cells], beta, f"beta of {node}")
            _close([c["predictive"] for c in cells], alpha / (alpha + beta), f"predictive of {node}")
    return check


def _mh_check(samples: int):
    # Random-walk chains on this target keep an effective sample size above
    # samples / 20 (integrated autocorrelation times of about 13 for the
    # mean and 9 for x^2); the tolerance is 6 standard errors at that size.
    ess = samples / 20

    def check(out):
        for j, (m, v) in enumerate(zip(out["mean"], out["variance"])):
            _within(m, 0.0, 6.0 / math.sqrt(ess), f"MH mean of theta{j}")
            _within(v, 1.0, 6.0 * math.sqrt(2.0 / ess), f"MH variance of theta{j}")
    return check


def _rejection_check(samples: int):
    rate = math.sqrt(math.pi / (2.0 * math.e))

    def check(out):
        # n accepted out of a negative-binomial number of proposals.
        _within(out["acceptance_rate"], rate, 6.0 * rate * math.sqrt((1.0 - rate) / samples),
                "rejection acceptance rate")
        _within(out["mean"], 0.0, 6.0 / math.sqrt(samples), "rejection sample mean")
        _within(out["variance"], 1.0, 6.0 * math.sqrt(2.0 / samples), "rejection sample variance")
    return check


def _importance_check():
    exact = 0.5 * math.erfc(5.0 / math.sqrt(2.0))

    def check(out):
        # The weights of the shifted-exponential proposal have a relative
        # standard deviation of 1.39 (by quadrature): 3% is 6.8 standard
        # errors at 100k draws.
        _within(out["estimate"], exact, 0.03 * exact, "importance estimate of P(x > 5)")
    return check


def _gibbs_check(rbm: dict, sweeps: int):
    def check(out):
        m = rbm["rbm"]
        exact = reference.rbm_visible_marginals(np.array(m["W"]), np.array(m["a"]), np.array(m["b"]))
        # Block Gibbs on this small, weakly coupled RBM has an integrated
        # autocorrelation time well below 5.
        for i, (got, p) in enumerate(zip(out["mean_visible"], exact)):
            _within(got, p, 6.0 * math.sqrt(p * (1 - p) * 5.0 / sweeps), f"Gibbs mean of v{i}")
        _equal(sum(out["counts"].values()), sweeps, "Gibbs state counts")
    return check


def _score_matching_check(points: np.ndarray):
    def check(out):
        _close(out["variance"], float(np.mean(points ** 2)), "score-matching variance against mean(x^2)")
    return check


def _ising_check(data: np.ndarray):
    def check(out):
        moment = float(np.mean(data[:, 0] * data[:, 1]))
        _close(out["empirical_moment"], moment, "Ising empirical moment")
        _close(reference.ising2_moment(out["theta"]), moment, "Ising model moment at the fitted theta", atol=1e-8)
    return check


def _meanfield_check(doc: dict):
    def check(out):
        lam = np.array(doc["meanfield"]["precision"])
        eta = np.array(doc["meanfield"]["linear"])
        _close(out["means"], np.linalg.solve(lam, eta), "mean-field means against Lambda^-1 eta", atol=1e-9)
        _close(out["variances"], 1.0 / np.diag(lam), "mean-field variances")
    return check


def _klfit_check(variances: np.ndarray):
    def check(out):
        _close(out["lambda2"], len(variances) / np.sum(1.0 / variances), "klfit against the harmonic mean")
    return check


def _fa_check(F: np.ndarray, C: np.ndarray):
    def check(result):
        _close(result @ result.T, F @ C @ F.T, "F_std F_std^T against F C F^T", rtol=1e-8, atol=1e-10)
    return check


# -- workloads -----------------------------------------------------------------------------------


def _obs(values) -> str:
    # Pass it as --obs=...: a list that starts with a minus sign would
    # otherwise read as an option.
    return ",".join(str(v) for v in values)


def cli_cold(seed: int, d: Path) -> list[Op]:
    """One README-scale command per command group."""
    dag = models.random_dag(stream(seed, "cold.dag"), 8, 2, "n")
    net = write_json(d, "cold_net.json", {"dag": dag})
    x, y, given = models.dsep_query(stream(seed, "cold.query"), dag["nodes"], 1)
    ch = models.chain(stream(seed, "cold.chain"), 4, 2)
    tree = write_json(d, "cold_tree.json", ch.document())
    h = models.hmm(stream(seed, "cold.hmm"), 5)
    hmm_path = write_json(d, "cold_hmm.json", h.document())
    k = models.kalman(stream(seed, "cold.kalman"), 5)
    kf = write_json(d, "cold_kalman.json", k.document())
    cdag = models.random_dag(stream(seed, "cold.cptdag"), 4, 2, "b")
    data = models.binary_data(stream(seed, "cold.cptdata"), cdag, 100)
    cdag_path = write_json(d, "cold_cptdag.json", {"dag": cdag})
    cases = write_csv(d, "cold_cases.csv", cdag["nodes"], data.tolist())
    target = models.meanfield_target(stream(seed, "cold.mf"), 3)
    target_path = write_json(d, "cold_target.json", target)
    mh_seed = str(derived_seed(seed, "cold.mh"))
    return [
        Op("graph_dsep", "graph dsep", _dsep_check(dag, x, y, given),
           ["graph", "dsep", "--model", net, "--x", x, "--y", y, "--given", ",".join(given)]),
        Op("fg_marginal", "fg marginal", _marginal_check(ch, 1), ["fg", "marginal", "--model", tree, "--var", "x1"]),
        Op("hmm_smooth", "hmm smooth", _smooth_check(h), ["hmm", "smooth", "--model", hmm_path, "--obs", _obs(h.obs)]),
        Op("kalman_filter", "kalman filter", _kalman_check(k),
           ["kalman", "filter", "--model", kf, f"--obs={_obs(k.obs)}"]),
        Op("fit_cpt_mle", "fit cpt-mle", _cpt_mle_check(cdag, data),
           ["fit", "cpt-mle", "--model", cdag_path, "--data", cases]),
        Op("sample_mh", "sample mh", _mh_check(2000), ["sample", "mh", "--samples", "2000", "--seed", mh_seed]),
        Op("vi_meanfield", "vi meanfield", _meanfield_check(target), ["vi", "meanfield", "--model", target_path]),
    ]


CHAIN_SIZES = (25, 50, 100, 200)
HMM_SIZES = (100, 300, 1000)
FFBS_SIZES = (50, 100, 200)
FFBS_PATHS = 20


def exact_sweep(seed: int, d: Path) -> list[Op]:
    ops: list[Op] = []
    chains = {}
    for v in CHAIN_SIZES:
        ch = chains[v] = models.chain(stream(seed, f"exact.chain{v}"), v)
        path = write_json(d, f"chain{v}.json", ch.document())
        mid = v // 2
        ops.append(Op(f"fg_marginal.v{v}", "fg marginal", _marginal_check(ch, mid),
                      ["fg", "marginal", "--model", path, "--var", f"x{mid}"]))
        ops.append(Op(f"fg_map.v{v}", "fg map", _map_check(ch), ["fg", "map", "--model", path]))
    # Evidence on an end of the chain leaves a tree: conditioned sum-product.
    ch = chains[100]
    path = str(d / "chain100.json")
    ops.append(Op("fg_marginal_end_evidence.v100", "fg marginal", _marginal_check(ch, 50, {99: 1}),
                  ["fg", "marginal", "--model", path, "--var", "x50", "--evidence", "x99=1"]))
    order = [f"x{i}" for i in range(50)] + [f"x{i}" for i in range(99, 50, -1)]
    ops.append(Op("fg_eliminate.v100", "fg eliminate", _chain_logz_check(ch, 50),
                  ["fg", "eliminate", "--model", path, "--keep", "x50", "--order", ",".join(order)]))

    g = models.grid(stream(seed, "exact.grid"), 3, 4)
    gpath = write_json(d, "grid.json", g.document())
    keep, evidence = 5, {0: 1, 11: 0}
    gorder = [n for i, n in enumerate(g.names) if i != keep and i not in evidence]
    ops.append(Op("fg_eliminate.loopy", "fg eliminate", _loopy_check(g, keep, evidence, gorder),
                  ["fg", "eliminate", "--model", gpath, "--keep", g.names[keep], "--order", ",".join(gorder),
                   "--evidence", ",".join(f"{g.names[i]}={s}" for i, s in evidence.items())]))

    for n in HMM_SIZES:
        h = models.hmm(stream(seed, f"exact.hmm{n}"), n)
        hp = write_json(d, f"hmm{n}.json", h.document())
        obs = _obs(h.obs)
        ops.append(Op(f"hmm_filter.n{n}", "hmm filter", _filter_check(h), ["hmm", "filter", "--model", hp, "--obs", obs]))
        ops.append(Op(f"hmm_smooth.n{n}", "hmm smooth", _smooth_check(h), ["hmm", "smooth", "--model", hp, "--obs", obs]))
        ops.append(Op(f"hmm_viterbi.n{n}", "hmm viterbi", _viterbi_check(h),
                      ["hmm", "viterbi", "--model", hp, "--obs", obs]))
    for n in FFBS_SIZES:
        h = models.hmm(stream(seed, f"exact.ffbs{n}"), n)
        hp = write_json(d, f"ffbs{n}.json", h.document())
        ops.append(Op(f"hmm_ffbs.n{n}", "hmm ffbs", _ffbs_check(h, FFBS_PATHS),
                      ["hmm", "ffbs", "--model", hp, "--obs", _obs(h.obs), "--paths", str(FFBS_PATHS),
                       "--seed", str(derived_seed(seed, f"exact.ffbs{n}"))]))

    k = models.kalman(stream(seed, "exact.kalman"), 100)
    kp = write_json(d, "kalman.json", k.document())
    ops.append(Op("kalman_filter", "kalman filter", _kalman_check(k),
                  ["kalman", "filter", "--model", kp, f"--obs={_obs(k.obs)}"]))

    dag = models.random_dag(stream(seed, "exact.dag"), 30, 3, "d")
    dp = write_json(d, "dag.json", {"dag": dag})
    qrng = stream(seed, "exact.query")
    for n_given in (0, 3):
        x, y, given = models.dsep_query(qrng, dag["nodes"], n_given)
        ops.append(Op(f"graph_dsep.z{n_given}", "graph dsep", _dsep_check(dag, x, y, given),
                      ["graph", "dsep", "--model", dp, "--x", x, "--y", y, "--given", ",".join(given)]))
    small = models.random_dag(stream(seed, "exact.imapdag"), 10, 2, "m")
    sp = write_json(d, "imap_dag.json", {"dag": small})
    imap_order = small["nodes"]
    ops.append(Op("graph_imap", "graph imap", _imap_check(small, imap_order),
                  ["graph", "imap", "--model", sp, "--order", ",".join(imap_order)]))

    # Known-failing probes, on inputs that do not depend on the seed.
    deep = models.chain(stream(models.PROBE_SEED, "probe.deep"), 300)
    deep_path = write_json(d, "probe_chain300.json", deep.document())
    ops.append(Op("probe.fg_marginal.v300", "probe: fg marginal on a 300-variable chain", _marginal_check(deep, 150),
                  ["fg", "marginal", "--model", deep_path, "--var", "x150"], probe=True))
    split = models.chain(stream(models.PROBE_SEED, "probe.split"), 50)
    split_path = write_json(d, "probe_chain50.json", split.document())
    ops.append(Op("probe.fg_marginal_interior_evidence.v50", "probe: fg marginal with interior evidence",
                  _marginal_check(split, 10, {25: 1}),
                  ["fg", "marginal", "--model", split_path, "--var", "x10", "--evidence", "x25=1"], probe=True))
    return ops


MH_SAMPLES = 20_000
REJECTION_SAMPLES = 10_000
IMPORTANCE_SAMPLES = 100_000
GIBBS_SWEEPS = 3_000
SCORE_POINTS = 20_000
FA_LATENT = 40


def stochastic_fit(seed: int, d: Path) -> list[Op]:
    from pgmlab import learning

    def seed_arg(tag: str) -> list[str]:
        return ["--seed", str(derived_seed(seed, f"stochastic.{tag}"))]

    rbm = models.rbm(stream(seed, "stochastic.rbm"), 3, 2)
    rbm_path = write_json(d, "rbm.json", rbm)
    points = np.round(stream(seed, "stochastic.points").normal(0.0, 1.5, SCORE_POINTS), 6)
    points_path = write_csv(d, "points.csv", ["x"], [[p] for p in points])
    dag = models.random_dag(stream(seed, "stochastic.dag"), 6, 2, "b")
    data = models.binary_data(stream(seed, "stochastic.cases"), dag, 2000)
    dag_path = write_json(d, "cpt_dag.json", {"dag": dag})
    cases = write_csv(d, "cases.csv", dag["nodes"], data.tolist())
    spins = models.spins(stream(seed, "stochastic.spins"), 2000)
    spins_path = write_csv(d, "spins.csv", ["x1", "x2"], spins.tolist())
    target = models.meanfield_target(stream(seed, "stochastic.mf"), 8)
    target_path = write_json(d, "target.json", target)
    variances = np.round(stream(seed, "stochastic.kl").uniform(0.2, 5.0, 50), 6)
    frng = stream(seed, "stochastic.fa")
    F = frng.normal(0.0, 1.0, (60, FA_LATENT))
    C = models.spd(frng, FA_LATENT)
    return [
        Op("sample_mh", "sample mh", _mh_check(MH_SAMPLES),
           ["sample", "mh", "--samples", str(MH_SAMPLES)] + seed_arg("mh")),
        Op("sample_rejection", "sample rejection", _rejection_check(REJECTION_SAMPLES),
           ["sample", "rejection", "--samples", str(REJECTION_SAMPLES)] + seed_arg("rejection")),
        Op("sample_importance", "sample importance", _importance_check(),
           ["sample", "importance", "--samples", str(IMPORTANCE_SAMPLES)] + seed_arg("importance")),
        Op("sample_gibbs_rbm", "sample gibbs-rbm", _gibbs_check(rbm, GIBBS_SWEEPS),
           ["sample", "gibbs-rbm", "--model", rbm_path, "--sweeps", str(GIBBS_SWEEPS)] + seed_arg("gibbs")),
        Op("fit_score_matching", "fit score-matching", _score_matching_check(points),
           ["fit", "score-matching", "--data", points_path]),
        Op("fit_cpt_mle", "fit cpt-mle", _cpt_mle_check(dag, data),
           ["fit", "cpt-mle", "--model", dag_path, "--data", cases]),
        Op("fit_cpt_bayes", "fit cpt-bayes", _cpt_bayes_check(dag, data, 1.0, 2.0),
           ["fit", "cpt-bayes", "--model", dag_path, "--data", cases, "--alpha0", "1", "--beta0", "2"]),
        Op("fit_ising2", "fit ising2", _ising_check(spins), ["fit", "ising2", "--data", spins_path]),
        Op("vi_meanfield", "vi meanfield", _meanfield_check(target), ["vi", "meanfield", "--model", target_path]),
        Op("vi_klfit", "vi klfit", _klfit_check(variances), ["vi", "klfit", "--variances", _obs(variances)]),
        Op("fa_standardise", "learning.fa_standardise", _fa_check(F, C), call=lambda: learning.fa_standardise(F, C)),
    ]


WORKLOADS = {"cli_cold": cli_cold, "exact_sweep": exact_sweep, "stochastic_fit": stochastic_fit}
