"""CLI command dispatch, the model file format, and the result envelope."""

import io
import itertools
import json
import math
import os
import resource
import shlex
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest
from numpy.testing import assert_allclose

import pgmlab
from pgmlab import cli, samplers
from pgmlab.errors import ValidationError
from pgmlab.modelio import parse_model, parse_model_dict, serialise_model

TREE_MODEL = {
    "variables": [{"name": f"x{i}", "card": 2} for i in range(1, 6)],
    "factors": [
        {"name": "phiA", "scope": ["x1"], "values": [2, 4]},
        {"name": "phiB", "scope": ["x2"], "values": [4, 4]},
        {"name": "phiC", "scope": ["x1", "x2", "x3"], "values": [4, 2, 2, 6, 2, 6, 6, 4]},
        {"name": "phiD", "scope": ["x3", "x4"], "values": [8, 2, 2, 6]},
        {"name": "phiE", "scope": ["x3", "x5"], "values": [3, 6, 6, 3]},
        {"name": "phiF", "scope": ["x5"], "values": [1, 8]},
    ],
}

LOOP_MODEL = {
    "variables": [{"name": f"x{i}", "card": 2} for i in range(1, 7)],
    "factors": [
        {"name": "phiA", "scope": ["x1", "x2", "x3"], "values": [4, 2, 2, 6, 2, 6, 6, 4]},
        {"name": "phiB", "scope": ["x2", "x3", "x4"], "values": [2, 2, 4, 2, 6, 8, 4, 2]},
        {"name": "phiC", "scope": ["x4", "x5"], "values": [8, 2, 2, 6]},
        {"name": "phiD", "scope": ["x4", "x6"], "values": [3, 6, 6, 3]},
    ],
}

FIVE_NODE = {"dag": {"nodes": ["a", "z", "q", "e", "h"],
                     "parents": {"q": ["a", "z"], "h": ["z"], "e": ["q"]}}}

HMM_MODEL = {
    "hmm": {
        "prior": [0.5, 0.5],
        "transitions": [[0.0, 1.0], [1.0, 0.0]],
        "emissions": [[0.6, 0.4], [0.4, 0.6]],
        "steps": 3,
    }
}

KALMAN_MODEL = {
    "kalman": {
        "A": [1.0, 0.9], "B": [0.0, 0.3], "C": [2.0, 2.0], "D": [0.5, 0.5],
        "prior": {"mean": 0.0, "var": 1.0},
    }
}

MEANFIELD_MODEL = {"meanfield": {"precision": [[2.0, 1.0], [1.0, 2.0]],
                                 "linear": [1.0, 1.0]}}

RBM_MODEL = {"rbm": {"W": [[0.4, -0.2], [0.1, 0.3]], "a": [0.0, 0.1], "b": [-0.1, 0.2]}}


@pytest.fixture
def write_model(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


@pytest.fixture
def schema():
    with open("src/pgmlab/schemas/result_envelope.schema.json") as fh:
        return json.load(fh)


class TestModelDocuments:
    def test_tree_model_parses(self, write_model):
        doc = parse_model(write_model("tree.model", TREE_MODEL))
        assert len(doc.variables) == 5
        assert len(doc.factors) == 6

    def test_round_trip(self, write_model):
        combined = {**TREE_MODEL, **FIVE_NODE, **HMM_MODEL, **KALMAN_MODEL,
                    **MEANFIELD_MODEL, **RBM_MODEL}
        doc = parse_model(write_model("all.model", combined))
        reparsed = parse_model_dict(serialise_model(doc))
        assert serialise_model(reparsed) == serialise_model(doc)

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ValidationError):
            parse_model_dict({"variables": [{"name": "a", "card": 2}], "factors": []})

    def test_undeclared_scope_variable_named(self):
        bad = {"variables": [{"name": "a", "card": 2}],
               "factors": [{"name": "phi", "scope": ["ghost"], "values": [1, 2]}]}
        with pytest.raises(ValidationError, match="ghost"):
            parse_model_dict(bad)

    def test_wrong_table_length_names_the_factor(self):
        bad = {"variables": [{"name": "a", "card": 2}],
               "factors": [{"name": "phi", "scope": ["a"], "values": [1, 2, 3]}]}
        with pytest.raises(ValidationError, match="phi"):
            parse_model_dict(bad)

    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.model"
        path.write_text("{ not json")
        with pytest.raises(ValidationError, match="line"):
            parse_model(str(path))

    def test_integral_float_field_is_accepted(self):
        # JSON has one number type: 2.0 is the integer 2; 2.7 is refused (see
        # test_non_numeric_scalar_names_the_field).
        doc = parse_model_dict({"variables": [{"name": "a", "card": 2.0}],
                                "hmm": {**HMM_MODEL["hmm"], "steps": 3.0}})
        assert doc.variables == [("a", 2)] and type(doc.variables[0][1]) is int
        assert doc.hmm.n_steps == 3

    def test_homogeneous_hmm_needs_steps(self):
        with pytest.raises(ValidationError, match="steps"):
            parse_model_dict({"hmm": {"prior": [1.0], "transitions": [[1.0]],
                                      "emissions": [[1.0]]}})

    def test_per_step_hmm_matrices(self):
        doc = parse_model_dict({
            "hmm": {
                "prior": [0.5, 0.5],
                "transitions": [[[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.3, 0.7]]],
                "emissions": [[0.6, 0.4], [0.4, 0.6]],
            }
        })
        assert doc.hmm.n_steps == 3
        assert doc.hmm.transitions[0][0, 0] == 0.9
        shared_emission = parse_model_dict({
            "hmm": {
                "prior": [0.5, 0.5],
                "transitions": [[0.9, 0.1], [0.2, 0.8]],
                "emissions": [[[0.6, 0.4], [0.4, 0.6]], [[0.5, 0.5], [0.1, 0.9]]],
            }
        })
        assert shared_emission.hmm.n_steps == 2


class TestEnvelopes:
    def test_validates_against_schema(self, write_model, schema):
        env = cli.run(["fg", "marginal", "--model", write_model("t.model", TREE_MODEL),
                       "--var", "x1"])
        jsonschema.validate(env, schema)

    def test_schema_validates_stochastic_commands(self, schema):
        env = cli.run(["sample", "rejection", "--samples", "500", "--seed", "1"])
        jsonschema.validate(env, schema)
        assert env["seed"] == 1

    def test_floats_use_twelve_significant_digits(self, write_model):
        env = cli.run(["fg", "marginal", "--model", write_model("t.model", TREE_MODEL),
                       "--var", "x1"])
        text = json.dumps(env["outputs"])
        assert "0.277591973244" in text

    def test_seed_determinism_modulo_elapsed(self):
        a = cli.run(["sample", "mh", "--target", "normal", "--samples", "500",
                     "--seed", "11", "--warmup", "50"])
        b = cli.run(["sample", "mh", "--target", "normal", "--samples", "500",
                     "--seed", "11", "--warmup", "50"])
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert json.dumps(a) == json.dumps(b)


class TestFactorGraphCommands:
    def test_marginal(self, write_model):
        env = cli.run(["fg", "marginal", "--model", write_model("t.model", TREE_MODEL),
                       "--var", "x1"])
        assert_allclose(env["outputs"]["x1"], [0.2776, 0.7224], atol=1e-4)

    def test_conditioned_marginal(self, write_model):
        env = cli.run(["fg", "marginal", "--model", write_model("t.model", TREE_MODEL),
                       "--var", "x1", "--evidence", "x2=1"])
        assert math.isclose(env["outputs"]["x1"][1], 0.7657, abs_tol=1e-4)

    def test_map(self, write_model):
        env = cli.run(["fg", "map", "--model", write_model("t.model", TREE_MODEL)])
        assert env["outputs"]["assignment"] == {"x1": 1, "x2": 1, "x3": 0, "x4": 0, "x5": 1}

    def test_eliminate(self, write_model):
        env = cli.run(["fg", "eliminate", "--model", write_model("l.model", LOOP_MODEL),
                       "--keep", "x2", "--order", "x5,x4,x3",
                       "--evidence", "x1=0,x6=1"])
        assert_allclose(env["outputs"]["x2"], [0.514, 0.486], atol=1e-3)
        assert env["outputs"]["peak_entries"] == 8
        env2 = cli.run(["fg", "eliminate", "--model", write_model("l.model", LOOP_MODEL),
                        "--keep", "x2", "--order", "x4,x5,x3",
                        "--evidence", "x1=0,x6=1"])
        assert env2["outputs"]["peak_entries"] == 16

    def test_eliminate_default_order_skips_an_unused_variable(self, write_model):
        model = write_model("iso.model", {
            "variables": [{"name": "a", "card": 2}, {"name": "b", "card": 2}, {"name": "u", "card": 3}],
            "factors": [{"name": "f", "scope": ["a", "b"], "values": [1, 2, 3, 4]}]})
        default = cli.run(["fg", "eliminate", "--model", model, "--keep", "a"])
        explicit = cli.run(["fg", "eliminate", "--model", model, "--keep", "a", "--order", "b"])
        assert {**default, "elapsed_seconds": 0} == {**explicit, "elapsed_seconds": 0}
        assert default["outputs"]["a"] == [0.4, 0.6]

    def test_marginal_on_a_forest(self, write_model):
        # u is declared but no factor uses it, so the graph is a forest.
        model = write_model("iso.model", {
            "variables": [{"name": "a", "card": 2}, {"name": "b", "card": 2}, {"name": "u", "card": 3}],
            "factors": [{"name": "f", "scope": ["a", "b"], "values": [1, 2, 3, 4]}]})
        plain = cli.run(["fg", "marginal", "--model", model, "--var", "a"])
        observed = cli.run(["fg", "marginal", "--model", model, "--var", "a", "--evidence", "u=1"])
        assert plain["outputs"] == observed["outputs"] == {"a": [0.4, 0.6]}
        unused = cli.run(["fg", "marginal", "--model", model, "--var", "u"])
        third = float(f"{1 / 3:.12g}")
        assert unused["outputs"] == {"u": [third, third, third]}

    def test_marginal_of_an_observed_or_unknown_variable_exits_2(self, write_model, capsys):
        model = write_model("t.model", TREE_MODEL)
        for argv in (["--var", "x2", "--evidence", "x2=1"], ["--var", "zz"]):
            assert cli.main(["fg", "marginal", "--model", model, *argv]) == 2
        assert capsys.readouterr().err.count("no marginal for") == 2

    def test_condition_emits_reduced_model(self, write_model):
        env = cli.run(["fg", "condition", "--model", write_model("t.model", TREE_MODEL),
                       "--evidence", "x2=1"])
        reduced = parse_model_dict(env["outputs"]["model"])
        assert ("x2", 2) not in reduced.variables
        assert "phiB" not in reduced.factors  # became a constant


class TestGraphCommands:
    def test_dsep(self, write_model):
        path = write_model("g.model", FIVE_NODE)
        env = cli.run(["graph", "dsep", "--model", path, "--x", "q", "--y", "h",
                       "--given", "a,z"])
        assert env["outputs"]["separated"] is True
        env = cli.run(["graph", "dsep", "--model", path, "--x", "a", "--y", "h",
                       "--given", "e"])
        assert env["outputs"]["separated"] is False

    def test_mb_and_moralize(self, write_model):
        path = write_model("g.model", FIVE_NODE)
        env = cli.run(["graph", "mb", "--model", path, "--node", "z"])
        assert env["outputs"]["blanket"] == ["a", "h", "q"]
        env = cli.run(["graph", "moralize", "--model", path])
        assert ["a", "z"] in env["outputs"]["edges"]

    def test_iequiv(self, write_model):
        g1 = {"dag": {"nodes": ["v", "w", "x", "y", "z"],
                      "parents": {"w": ["v"], "x": ["w"], "y": ["x", "z"]}}}
        g2 = {"dag": {"nodes": ["v", "w", "x", "y", "z"],
                      "parents": {"v": ["w"], "w": ["x"], "y": ["x", "z"]}}}
        env = cli.run(["graph", "iequiv", "--model", write_model("a.model", g1),
                       "--other", write_model("b.model", g2)])
        assert env["outputs"]["equivalent"] is True

    def test_imap(self, write_model):
        env = cli.run(["graph", "imap", "--model", write_model("g.model", FIVE_NODE),
                       "--order", "e,h,q,z,a"])
        assert env["outputs"]["parents"] == {
            "h": ["e"], "q": ["e", "h"], "z": ["h", "q"], "a": ["q", "z"]}

    def test_usep(self, write_model):
        model = {"ugm": {"nodes": ["x1", "x2", "x3", "x4", "x5"],
                         "edges": [["x1", "x2"], ["x1", "x3"], ["x1", "x4"],
                                   ["x2", "x3"], ["x2", "x5"], ["x4", "x5"]]}}
        env = cli.run(["graph", "usep", "--model", write_model("u.model", model),
                       "--x", "x1", "--y", "x5", "--given", "x2,x4"])
        assert env["outputs"]["separated"] is True


class TestSequentialCommands:
    def test_hmm_filter_and_predict(self, write_model):
        path = write_model("h.model", HMM_MODEL)
        env = cli.run(["hmm", "filter", "--model", path, "--obs", "1"])
        assert_allclose(env["outputs"]["filtered"][0], [0.4, 0.6], rtol=1e-9)
        env = cli.run(["hmm", "predict-v", "--model", path, "--obs", "1", "--t", "3"])
        assert math.isclose(env["outputs"]["probs"][1], 0.52, rel_tol=1e-9)

    def test_hmm_viterbi_and_smooth(self, write_model):
        path = write_model("h.model", HMM_MODEL)
        env = cli.run(["hmm", "viterbi", "--model", path, "--obs", "1,0,1"])
        assert len(env["outputs"]["path"]) == 3
        env = cli.run(["hmm", "smooth", "--model", path, "--obs", "1,0,1"])
        assert len(env["outputs"]["smoothed"]) == 3

    def test_hmm_ffbs_requires_seed(self, write_model):
        path = write_model("h.model", HMM_MODEL)
        assert cli.main(["hmm", "ffbs", "--model", path, "--obs", "1,0,1"]) == 4
        env = cli.run(["hmm", "ffbs", "--model", path, "--obs", "1,0,1",
                       "--seed", "5", "--paths", "3"])
        assert len(env["outputs"]["paths"]) == 3

    def test_kalman_filter(self, write_model):
        env = cli.run(["kalman", "filter", "--model", write_model("k.model", KALMAN_MODEL),
                       "--obs", "1.0,0.4"])
        assert len(env["outputs"]["steps"]) == 2
        assert env["outputs"]["steps"][0]["var"] > 0


class TestFitCommands:
    def test_cpt_mle_and_bayes(self, write_model, tmp_path):
        dag_model = {"dag": {"nodes": ["a", "s", "c"], "parents": {"c": ["a", "s"]}}}
        path = write_model("dag.model", dag_model)
        data = tmp_path / "cancer.csv"
        data.write_text("a,s,c\n0,1,1\n0,0,0\n1,0,1\n0,0,0\n0,1,0\n")
        env = cli.run(["fit", "cpt-mle", "--model", path, "--data", str(data)])
        cells = env["outputs"]["cpt"]["c"]
        assert [c["theta"] for c in cells] == [0.0, 1.0, 0.5, None]
        env = cli.run(["fit", "cpt-bayes", "--model", path, "--data", str(data),
                       "--alpha0", "1", "--beta0", "1"])
        assert_allclose([c["predictive"] for c in env["outputs"]["posterior"]["c"]],
                        [0.25, 2 / 3, 0.5, 0.5], rtol=1e-12)

    def test_ising(self, tmp_path):
        data = tmp_path / "spins.csv"
        data.write_text("x1,x2\n-1,-1\n-1,1\n1,-1\n")
        env = cli.run(["fit", "ising2", "--data", str(data)])
        assert abs(env["outputs"]["theta"] + 1.0) < 0.05

    def test_score_matching(self, tmp_path):
        data = tmp_path / "values.csv"
        data.write_text("x\n1.0\n-1.0\n")
        env = cli.run(["fit", "score-matching", "--data", str(data)])
        assert math.isclose(env["outputs"]["theta"], -0.5, abs_tol=1e-12)
        assert math.isclose(env["outputs"]["variance"], 1.0, abs_tol=1e-12)


class TestSampleAndViCommands:
    def test_gibbs_rbm(self, write_model):
        env = cli.run(["sample", "gibbs-rbm", "--model", write_model("r.model", RBM_MODEL),
                       "--sweeps", "500", "--seed", "2"])
        assert sum(env["outputs"]["counts"].values()) == 500

    def test_importance(self):
        env = cli.run(["sample", "importance", "--samples", "20000", "--seed", "4"])
        assert 2.0e-7 < env["outputs"]["estimate"] < 4.0e-7

    @pytest.mark.filterwarnings("error")
    def test_saturation_prints_no_warning(self, write_model):
        # exp overflows to inf in both; the sigmoid saturates and the weight
        # vanishes, the intended results, so nothing may reach stderr.
        saturated = {"rbm": {"W": [[1e308, -1e308]], "a": [0.0], "b": [-0.1, 0.2]}}
        env = cli.run(["sample", "gibbs-rbm", "--model", write_model("s.model", saturated), "--seed", "1"])
        assert sum(env["outputs"]["counts"].values()) == 1000
        env = cli.run(["sample", "importance", "--threshold", "1e200", "--seed", "1"])
        assert env["outputs"]["estimate"] == 0.0

    def test_mh_trace_export(self, tmp_path):
        out_csv = tmp_path / "trace.csv"
        out_json = tmp_path / "trace.json"
        env = cli.run(["sample", "mh", "--target", "normal", "--samples", "300",
                       "--seed", "6", "--out-csv", str(out_csv),
                       "--out-json", str(out_json)])
        assert out_csv.exists() and out_json.exists()
        assert len(env["outputs"]["mean"]) == 2

    @pytest.mark.parametrize("dim", [1, 3])
    def test_mh_normal_target_is_the_library_chain(self, tmp_path, dim):
        # The exported trace holds every sample exactly (repr round trip).
        out_csv = tmp_path / "trace.csv"
        cli.run(["sample", "mh", "--samples", "400", "--dim", str(dim), "--vari", "0.7",
                 "--warmup", "30", "--seed", "8", "--out-csv", str(out_csv),
                 "--out-json", str(tmp_path / "trace.json")])
        trace = samplers.mh(samplers.SeededRng(8), lambda th: -0.5 * float(th @ th),
                            [0.0] * dim, 400, 0.7, 30)
        rows = out_csv.read_text().splitlines()[1:]
        assert [[float(v) for v in row.split(",")] for row in rows] == trace.samples.tolist()

    @pytest.mark.parametrize("argv", [
        ["--vari", "1e8", "--samples", "50"],  # every move rejected: a constant chain
        ["--samples", "1"],
    ])
    def test_mh_without_spread_reports_null_ess(self, tmp_path, schema, argv):
        out_json = tmp_path / "trace.json"
        env = cli.run(["sample", "mh", *argv, "--seed", "1", "--out-csv", str(tmp_path / "trace.csv"),
                       "--out-json", str(out_json)])
        jsonschema.validate(env, schema)
        assert env["outputs"]["ess"] == [None, None]
        assert env["outputs"]["variance"] == [0.0, 0.0]
        assert json.loads(out_json.read_text())["ess"] == {"theta0": None, "theta1": None}
        with pytest.raises(ValidationError, match="series is constant|need at least two samples"):
            samplers.ess([0.0] * int(argv[-1]))

    @pytest.mark.parametrize("sidecar, message", [
        (lambda out_csv: out_csv.parent / "absent" / "b.json", "cannot write"),
        (lambda out_csv: out_csv, "cannot both be written"),
    ])
    def test_refused_export_writes_no_file(self, tmp_path, capsys, sidecar, message):
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier trace\n")
        for out_csv in (tmp_path / "new.csv", kept):
            argv = ["sample", "mh", "--seed", "1", "--samples", "20", "--out-csv", str(out_csv),
                    "--out-json", str(sidecar(out_csv))]
            assert cli.main(argv) == 2
            assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]
        assert kept.read_text() == "earlier trace\n"

    def test_export_replaces_a_longer_file(self, tmp_path):
        out_csv, out_json = tmp_path / "trace.csv", tmp_path / "trace.json"
        for samples in ("200", "20"):
            cli.run(["sample", "mh", "--seed", "1", "--samples", samples, "--out-csv", str(out_csv),
                     "--out-json", str(out_json)])
        assert len(out_csv.read_text().splitlines()) == 21
        assert json.loads(out_json.read_text())["seed"] == 1

    def test_export_to_a_device(self):
        argv = ["sample", "mh", "--seed", "1", "--samples", "20", "--out-csv", os.devnull, "--out-json", os.devnull]
        assert cli.main(argv) == 0

    def test_vi_meanfield(self, write_model):
        env = cli.run(["vi", "meanfield", "--model", write_model("m.model", MEANFIELD_MODEL)])
        assert_allclose(env["outputs"]["means"], [1 / 3, 1 / 3], atol=1e-9)
        assert_allclose(env["outputs"]["variances"], [0.5, 0.5])

    def test_vi_klfit(self):
        env = cli.run(["vi", "klfit", "--variances", "1.0,4.0"])
        assert math.isclose(env["outputs"]["lambda2"], 1.6, rel_tol=1e-12)


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("{}")
        assert cli.main(["fg", "marginal", "--model", str(path), "--var", "x1"]) == 2

    def test_numeric_error_is_3(self, write_model):
        model = {
            "variables": [{"name": "a", "card": 2}],
            "factors": [{"name": "f", "scope": ["a"], "values": [1.0, 0.0]}],
        }
        path = write_model("zero.model", model)
        assert cli.main(["fg", "marginal", "--model", path, "--var", "a",
                         "--evidence", "a=1"]) == 3

    def test_zero_mass_in_another_component_is_3(self, write_model, capsys):
        # Evidence b=0 leaves a and c in separate components, and c's has no mass,
        # so p(b=0) = 0: fg marginal refuses it as fg map and fg eliminate do.
        model = {"variables": [{"name": n, "card": 2} for n in "abc"],
                 "factors": [{"name": "fab", "scope": ["a", "b"], "values": [1, 2, 3, 4]},
                             {"name": "fbc", "scope": ["b", "c"], "values": [0, 1, 0, 1]}]}
        path = write_model("zero.model", model)
        for command in (["marginal", "--var", "a"], ["map"], ["eliminate", "--keep", "a"]):
            assert cli.main(["fg", *command, "--model", path, "--evidence", "b=0"]) == 3
        model["factors"][1] = {"name": "fc", "scope": ["c"], "values": [0, 0]}
        assert cli.main(["fg", "marginal", "--model", write_model("zc.model", model), "--var", "a"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_usage_error_is_4(self):
        assert cli.main(["sample", "rejection", "--samples", "10"]) == 4
        assert cli.main(["nonsense"]) == 4

    def test_success_is_0(self, capsys):
        assert cli.main(["vi", "klfit", "--variances", "2.0,2.0"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["outputs"]["lambda2"] == 2.0

    def test_table_output(self, capsys):
        assert cli.main(["--table", "vi", "klfit", "--variances", "2.0,2.0"]) == 0
        out = capsys.readouterr().out
        assert "lambda2" in out and "command" in out

    def test_abbreviated_table_flag(self, capsys):
        # argparse takes --tab for --table, and --var for --variances.
        assert cli.main(["--tab", "vi", "klfit", "--var", "1,4"]) == 0
        assert capsys.readouterr().out == "command: vi klfit\nlambda2: 1.6\n"


def _without_elapsed(out: str) -> dict:
    env = json.loads(out)
    del env["elapsed_seconds"]
    return env


class TestRepeatedMain:
    """One process calls ``cli.main`` again and again, as the tests, the
    benchmark and a notebook do; no call may see what an earlier one parsed."""

    MH = ["sample", "mh", "--samples", "50", "--seed", "3"]
    KLFIT = ["vi", "klfit", "--variances", "1,4"]

    def test_explicit_option_then_default(self, capsys):
        envelopes = []
        for extra in ([], ["--dim", "3"], []):
            assert cli.main(self.MH + extra) == 0
            envelopes.append(_without_elapsed(capsys.readouterr().out))
        assert len(envelopes[1]["outputs"]["mean"]) == 3
        assert len(envelopes[2]["outputs"]["mean"]) == 2
        assert envelopes[2] == envelopes[0]

    def test_usage_error_then_valid_call(self, capsys):
        assert cli.main(self.MH) == 0
        expected = _without_elapsed(capsys.readouterr().out)
        # The bad --seed comes after --dim has been parsed.
        assert cli.main(["sample", "mh", "--dim", "5", "--seed", "x"]) == 4
        assert cli.main(["vi", "klfit"]) == 4
        assert capsys.readouterr().out == ""
        assert cli.main(self.MH) == 0
        assert _without_elapsed(capsys.readouterr().out) == expected

    def test_table_then_json(self, capsys):
        assert cli.main(["--table", *self.KLFIT]) == 0
        assert capsys.readouterr().out == "command: vi klfit\nlambda2: 1.6\n"
        assert cli.main(self.KLFIT) == 0
        assert _without_elapsed(capsys.readouterr().out) == {
            "command": "vi klfit", "inputs": {"variances": [1.0, 4.0]},
            "outputs": {"lambda2": 1.6}, "seed": None}

    def test_help_then_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "mh", "--help"])
        assert exc.value.code == 0 and "--dim" in capsys.readouterr().out
        assert cli.main(["--table", *self.KLFIT]) == 0
        assert capsys.readouterr().out == "command: vi klfit\nlambda2: 1.6\n"

    @pytest.mark.parametrize("table", [[], ["--table"]])
    def test_identical_calls_print_identical_bytes(self, capsys, table):
        outs = []
        for _ in range(2):
            assert cli.main([*table, *self.MH]) == 0
            out = capsys.readouterr().out
            outs.append([line for line in out.splitlines() if '"elapsed_seconds"' not in line])
        assert outs[0] == outs[1]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


CHAIN_MODEL = {
    "variables": [{"name": f"y{i}", "card": 2} for i in range(1, 6)],
    "factors": [{"name": "u1", "scope": ["y1"], "values": [1, 3]},
                {"name": "u4", "scope": ["y4"], "values": [2, 1]}]
               + [{"name": f"g{i}", "scope": [f"y{i}", f"y{i + 1}"], "values": [4, 1, 2, 3]}
                  for i in range(1, 5)],
}


def _chain_joint():
    """The chain's unnormalised joint by enumeration, keyed by (y1, ..., y5)."""
    pair = {(0, 0): 4, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    joint = {}
    for ys in itertools.product((0, 1), repeat=5):
        p = (1, 3)[ys[0]] * (2, 1)[ys[3]]
        for a, b in zip(ys, ys[1:]):
            p *= pair[(a, b)]
        joint[ys] = p
    return joint


class TestSplitTreesAndMalformedInputs:
    def test_marginal_with_interior_evidence(self, write_model):
        env = cli.run(["fg", "marginal", "--model", write_model("c.model", CHAIN_MODEL),
                       "--var", "y5", "--evidence", "y3=1"])
        consistent = {ys: p for ys, p in _chain_joint().items() if ys[2] == 1}
        expected = [sum(p for ys, p in consistent.items() if ys[4] == s) for s in (0, 1)]
        assert_allclose(env["outputs"]["y5"], [e / sum(expected) for e in expected], rtol=1e-9)

    def test_map_with_interior_evidence(self, write_model):
        path = write_model("c.model", CHAIN_MODEL)
        consistent = {ys: p for ys, p in _chain_joint().items() if ys[2] == 1}
        best = max(consistent, key=consistent.get)
        for root in ([], ["--root", "y5"]):
            env = cli.run(["fg", "map", "--model", path, "--evidence", "y3=1", *root])
            assignment = env["outputs"]["assignment"]
            assert assignment == {f"y{i}": best[i - 1] for i in (1, 2, 4, 5)}
            assert math.isclose(env["outputs"]["log_score"], math.log(consistent[best]),
                                rel_tol=1e-12)

    @pytest.mark.parametrize("doc", [{"variables": [1]}, {"factors": ["x"]},
                                     {"kalman": {**KALMAN_MODEL["kalman"], "A": 1.0}},
                                     {"kalman": {**KALMAN_MODEL["kalman"], "B": [0.0, "x"]}},
                                     {"kalman": {**KALMAN_MODEL["kalman"], "C": "2.0"}}])
    def test_non_object_entries_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.model"
        path.write_text(json.dumps(doc))
        assert cli.main(["fg", "marginal", "--model", str(path), "--var", "a"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_nan_variance_exits_2(self):
        assert cli.main(["vi", "klfit", "--variances", "1,nan"]) == 2

    def test_nan_hmm_prior_exits_2(self, write_model):
        model = {"hmm": {**HMM_MODEL["hmm"], "prior": [float("nan"), 1.0]}}
        assert cli.main(["hmm", "filter", "--model", write_model("h.model", model),
                         "--obs", "1"]) == 2

    def test_map_with_every_variable_observed(self, write_model):
        env = cli.run(["fg", "map", "--model", write_model("c.model", CHAIN_MODEL),
                       "--evidence", "y1=1,y2=0,y3=1,y4=1,y5=0"])
        assert env["outputs"]["assignment"] == {}
        assert math.isclose(env["outputs"]["log_score"],
                            math.log(_chain_joint()[(1, 0, 1, 1, 0)]), rel_tol=1e-11)

    def test_non_numeric_float_list_exits_2(self, write_model, capsys):
        kalman = write_model("k.model", KALMAN_MODEL)
        for argv in (["vi", "klfit", "--variances", "1,x"],
                     ["kalman", "filter", "--model", kalman, "--obs=1,x"]):
            assert cli.main(argv) == 2, argv
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0_1", "\u0661"])  # Python's int and float read both as 1
    def test_number_lists_refuse_what_the_csv_reader_refuses(self, write_model, capsys, bad):
        hmm, kalman = write_model("h.model", HMM_MODEL), write_model("k.model", KALMAN_MODEL)
        loop = write_model("l.model", LOOP_MODEL)
        for argv, message in (
                (["hmm", "filter", "--model", hmm, "--obs", f"0,{bad},1"], "observations must be integers"),
                (["fg", "marginal", "--model", loop, "--var", "x2", "--evidence", f"x1={bad}"],
                 f"evidence state in 'x1={bad}' must be an integer"),
                (["kalman", "filter", "--model", kalman, f"--obs=0.5,{bad}"],
                 f"expected comma-separated numbers, got '0.5,{bad}'"),
                (["vi", "klfit", "--variances", f"1,{bad}"], f"expected comma-separated numbers, got '1,{bad}'")):
            assert cli.main(argv) == 2, argv
            assert capsys.readouterr().err == f"validation error: {message}\n"

    @pytest.mark.parametrize("bad", ["1_0", "١"])  # Python's int and float read 10 and 1
    @pytest.mark.parametrize("argv, flag, kind", [
        (["sample", "rejection", "--samples", "10"], "--seed", "int"),
        (["sample", "rejection", "--seed", "1"], "--samples", "int"),
        (["sample", "mh", "--seed", "1", "--samples", "20"], "--vari", "float"),
    ])
    def test_scalar_options_refuse_what_number_lists_refuse(self, capsys, argv, flag, kind, bad):
        assert cli.main([*argv, flag, bad]) == 4
        assert capsys.readouterr().err == (
            f"usage error: argument {flag}: invalid {kind} value: {bad!r}\n")

    def test_scalar_options_keep_python_number_syntax(self, capsys):
        assert cli.main(["sample", "mh", "--seed", " 1", "--samples", "+20", "--vari", "2.5e-1"]) == 0
        envelope = _without_elapsed(capsys.readouterr().out)
        assert (envelope["seed"], envelope["inputs"]["samples"], envelope["inputs"]["vari"]) == (1, 20, 0.25)

    @pytest.mark.parametrize("argv", [["fit", "score-matching"],
                                      ["sample", "mh", "--target", "poisson", "--seed", "1"]])
    def test_bad_csv_row_names_path_and_line(self, tmp_path, capsys, argv):
        data = tmp_path / "rows.csv"
        data.write_text("x,y\n0.5,1\nabc,2\n")
        assert cli.main(argv + ["--data", str(data)]) == 2
        assert f"{data}:3:" in capsys.readouterr().err


def test_stochastic_commands_require_seed(write_model):
    hmm, rbm = write_model("h.model", HMM_MODEL), write_model("r.model", RBM_MODEL)
    for argv in (["hmm", "ffbs", "--model", hmm, "--obs", "1"], ["sample", "mh"],
                 ["sample", "rejection"], ["sample", "importance"],
                 ["sample", "gibbs-rbm", "--model", rbm]):
        assert cli.main(argv) == 4, argv


def _python(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this pgmlab."""
    src = str(Path(pgmlab.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src}).stdout


def test_cli_import_leaves_scipy_unloaded():
    probe = "import sys, pgmlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _python(probe).strip() == "[]"


_GRAPH_UGM = {"ugm": {"nodes": ["x1", "x2", "x3"], "edges": [["x1", "x2"], ["x2", "x3"]]}}


@pytest.mark.parametrize("argv", [
    ["graph", "dsep", "--model", "dag", "--x", "a", "--y", "z", "--given", "e"],
    ["graph", "usep", "--model", "ugm", "--x", "x1", "--y", "x3", "--given", "x2"],
    ["graph", "mb", "--model", "dag", "--node", "z"],
    ["graph", "moralize", "--model", "dag"],
    ["graph", "iequiv", "--model", "dag", "--other", "dag"],
    ["graph", "imap", "--model", "ugm", "--order", "x3,x2,x1"],
])
def test_graph_commands_run_without_numpy(write_model, argv):
    paths = {"dag": write_model("dag.model", FIVE_NODE), "ugm": write_model("ugm.model", _GRAPH_UGM)}
    argv = [paths.get(a, a) for a in argv]
    probe = (
        "import contextlib, io, json, sys\n"
        "from pgmlab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(json.loads(sys.argv[1]))\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    assert _python(probe, json.dumps(argv)).split() == ["0", "False"]


def test_normal_target_mh_leaves_learning_unloaded(tmp_path):
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n0.1,1\n0.5,2\n")
    probe = (
        "import contextlib, io, sys\n"
        "from pgmlab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['sample', 'mh', '--samples', '50', '--seed', '1'])]\n"
        "    loaded = ['pgmlab.learning' in sys.modules]\n"
        "    codes.append(cli.main(['sample', 'mh', '--target', 'poisson', '--data', sys.argv[1],\n"
        "                           '--samples', '50', '--seed', '1']))\n"
        "    loaded.append('pgmlab.learning' in sys.modules)\n"
        "print(*codes, *loaded)\n"
    )
    assert _python(probe, str(data)).split() == ["0", "0", "False", "True"]


def test_package_import_loads_no_submodule():
    probe = "import sys, pgmlab; print(sorted(m for m in sys.modules if m.startswith(('pgmlab.', 'numpy'))))"
    assert _python(probe).strip() == "[]"


def test_lazy_exports_are_the_submodule_objects():
    probe = (
        "import importlib, pgmlab\n"
        "for name in pgmlab.__all__:\n"
        "    home = importlib.import_module(f'pgmlab.{pgmlab._HOME[name]}')\n"
        "    assert getattr(pgmlab, name) is getattr(home, name), name\n"
        "namespace = {}\n"
        "exec('from pgmlab import *', namespace)\n"
        "assert sorted(set(namespace) - {'__builtins__'}) == pgmlab.__all__\n"
        "assert pgmlab.learning is importlib.import_module('pgmlab.learning')\n"
        "print(len(pgmlab.__all__))\n"
    )
    assert _python(probe).strip() == "70"


def test_dir_lists_the_lazy_exports():
    probe = "import pgmlab; missing = set(pgmlab.__all__) - set(dir(pgmlab)); print(sorted(missing))"
    assert _python(probe).strip() == "[]"


def test_unknown_attribute_raises_attribute_error():
    probe = (
        "import pgmlab\n"
        "try:\n"
        "    pgmlab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert _python(probe).strip() == "module 'pgmlab' has no attribute 'no_such_name'"


def test_eliminate_star_rejected_before_allocating(tmp_path):
    # Eliminating the hub of a 28-leaf binary star first needs a 2**29-entry
    # table (4 GiB).  Under a 1.5 GB address-space limit an allocation would
    # fail with a traceback; the pre-flight check exits 2 first.
    leaves = [f"l{i}" for i in range(28)]
    star = {"variables": [{"name": v, "card": 2} for v in ["h", *leaves]],
            "factors": [{"name": f"f{v}", "scope": ["h", v], "values": [1, 2, 3, 4]} for v in leaves]}
    model = tmp_path / "star.model"
    model.write_text(json.dumps(star))
    limit = 1_500_000 * 1024
    proc = _cli_process(
        ["fg", "eliminate", "--model", str(model), "--keep", "l0", "--order", ",".join(["h", *leaves[1:]])],
        capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("validation error: elimination step 1 (variable 'h') would build a table of "
                           "536870912 entries, over the limit of 16777216\n")


@pytest.mark.parametrize("argv, what", [
    (["sample", "gibbs-rbm", "--model", "@rbm", "--sweeps", "1000000000000"],
     "the chain of sweeps x n_visible = 1000000000000 x 2 would have 2000000000000 entries"),
    (["sample", "importance", "--samples", "1000000000000"],
     "the importance sample would have 1000000000000 entries"),
    (["sample", "mh", "--dim", "100000000", "--samples", "2"],
     "the chain of (samples + warmup) x dim = 2 x 100000000 would have 200000000 entries"),
    (["sample", "mh", "--dim", "1000000000000", "--samples", "2"],
     "the chain of (samples + warmup) x dim = 2 x 1000000000000 would have 2000000000000 entries"),
])
def test_sampler_size_rejected_before_allocating(tmp_path, argv, what):
    # Under a 1.5 GB address-space limit an allocation of this size would fail
    # with a traceback (or, for mh, run for minutes); the check exits 2 first.
    limit = 1_500_000 * 1024
    proc = _cli_process([*_resolve(argv, tmp_path), "--seed", "1"], capture_output=True, text=True,
                        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"validation error: {what}, over the limit of 16777216\n"


@pytest.mark.parametrize("doc, argv, field", [
    ({"variables": [{"name": "a", "card": "x"}]}, ["fg", "marginal", "--var", "a"], "'card'"),
    ({"variables": [{"name": "a", "card": 2}],
      "factors": [{"name": "f", "scope": ["a"], "values": ["x", 1]}]},
     ["fg", "marginal", "--var", "a"], "factor 'f'"),
    ({"kalman": {**KALMAN_MODEL["kalman"], "prior": {"mean": "x", "var": 1.0}}},
     ["kalman", "filter", "--obs=1,2"], "'mean'"),
    ({"hmm": {**HMM_MODEL["hmm"], "steps": "x"}}, ["hmm", "filter", "--obs", "1"], "'steps'"),
    ({"rbm": {**RBM_MODEL["rbm"], "W": [["x"]]}}, ["sample", "gibbs-rbm", "--seed", "1"], "W must"),
    ({"rbm": {**RBM_MODEL["rbm"], "W": [[1, 2], [3]]}}, ["sample", "gibbs-rbm", "--seed", "1"], "W must"),
    ({"meanfield": {**MEANFIELD_MODEL["meanfield"], "precision": [["x"]]}}, ["vi", "meanfield"],
     "precision must"),
    ({"meanfield": {**MEANFIELD_MODEL["meanfield"], "precision": [[2.0, 1.0], [1.0]]}}, ["vi", "meanfield"],
     "precision must"),
    ({"dag": {"nodes": 5}}, ["graph", "moralize"], "dag: 'nodes'"),
    ({"dag": {"nodes": ["a"], "parents": ["a"]}}, ["graph", "moralize"], "dag: 'parents'"),
    ({"ugm": {"nodes": 5}}, ["graph", "usep", "--x", "a", "--y", "b"], "ugm: 'nodes'"),
    ({"ugm": {"nodes": ["a", "b"], "edges": [["a"]]}}, ["graph", "usep", "--x", "a", "--y", "b"],
     "ugm: 'edges'"),
    ({"kalman": {**KALMAN_MODEL["kalman"], "A": [1.0, math.nan]}}, ["kalman", "filter", "--obs=1,2"],
     "A must be finite"),
    ({"kalman": {**KALMAN_MODEL["kalman"], "C": [1.0, math.inf]}}, ["kalman", "filter", "--obs=1,2"],
     "C must be finite"),
    # An integer field is checked as given: 2.9 is refused, not truncated to 2.
    ({"hmm": {**HMM_MODEL["hmm"], "steps": 2.9}}, ["hmm", "filter", "--obs", "1"],
     "'steps' must be an integer, got 2.9"),
    ({"variables": [{"name": "a", "card": 2.7}]}, ["fg", "marginal", "--var", "a"],
     "'card' must be an integer, got 2.7"),
    ({"variables": [{"name": "a", "card": math.inf}]}, ["fg", "marginal", "--var", "a"], "'card'"),
])
def test_non_numeric_scalar_names_the_field(write_model, capsys, doc, argv, field):
    path = write_model("bad.model", doc)
    assert cli.main(argv[:2] + ["--model", path] + argv[2:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("card", [-1, 0])
@pytest.mark.parametrize("argv", [["fg", "map"], ["fg", "marginal", "--var", "a", "--evidence", "c=0"],
                                  ["fg", "condition", "--evidence", "c=0"]])
def test_unused_variable_cardinality_exits_2(write_model, capsys, argv, card):
    # No factor mentions b, so only the variable list can refuse its cardinality.
    doc = {"variables": [{"name": "a", "card": 2}, {"name": "b", "card": card}, {"name": "c", "card": 2}],
           "factors": [{"name": "f", "scope": ["a", "c"], "values": [1, 2, 3, 4]}]}
    assert cli.main(argv[:2] + ["--model", write_model("card.model", doc)] + argv[2:]) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: variable 'b': cardinality must be a positive integer, got {card}\n"


def _long_filter(tmp_path, steps: int) -> list[str]:
    """The arguments of a ``steps``-step ``hmm filter`` on HMM_MODEL's chain."""
    model = tmp_path / "long.model"
    model.write_text(json.dumps({"hmm": {**HMM_MODEL["hmm"], "steps": steps}}))
    return ["hmm", "filter", "--model", str(model), "--obs", ",".join("1" * steps)]


def _cli_env() -> dict[str, str]:
    """The environment of a ``python -m pgmlab.cli`` process on this pgmlab.  Its
    standard streams are buffered, as by default, so a missing flush would show."""
    env = {**os.environ, "PYTHONPATH": str(Path(pgmlab.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _cli_process(argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m pgmlab.cli argv`` run to its end."""
    return subprocess.run([sys.executable, "-m", "pgmlab.cli", *argv], env=_cli_env(), timeout=120, **kwargs)


# Both outputs of these filters are far larger than a pipe buffer (64 KiB):
# the table writes about 12 bytes a step, the JSON envelope about 50.
_LONG_OUTPUTS = pytest.mark.parametrize("table, steps", [([], 3000), (["--table"], 20000)], ids=["json", "table"])


@_LONG_OUTPUTS
def test_closed_pipe_exits_1_without_traceback(tmp_path, table, steps):
    proc = subprocess.Popen([sys.executable, "-m", "pgmlab.cli", *table, *_long_filter(tmp_path, steps)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    assert proc.stdout.readline().strip() == (b"command: hmm filter" if table else b"{")
    proc.stdout.close()  # the reader goes away, as `head -1` would
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


@pytest.mark.parametrize("argv", [["--help"], ["hmm", "--help"], ["hmm", "filter", "-h"],
                                  ["vi", "klfit", "--variances", "1,4"]])
def test_output_into_a_pipe_with_no_reader_exits_1_quietly(argv):
    read, write = os.pipe()
    os.close(read)  # the reader has gone before the process starts
    proc = _cli_process(argv, stdout=write, stderr=subprocess.PIPE)
    os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


@_LONG_OUTPUTS
def test_process_writes_a_long_output_whole(tmp_path, capsys, table, steps):
    # The process ends through os._exit, so bytes left unflushed at that point would be lost.
    argv = [*table, *_long_filter(tmp_path, steps)]
    out = tmp_path / "out.txt"
    with out.open("w") as fh:
        proc = _cli_process(argv, stdout=fh, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    text = out.read_text()
    assert len(text) > 64 * 1024
    assert cli.main(argv) == 0
    in_process = capsys.readouterr().out
    assert [line for line in text.splitlines(True) if "elapsed_seconds" not in line] == \
        [line for line in in_process.splitlines(True) if "elapsed_seconds" not in line]
    if not table:
        envelope, expected = json.loads(text), cli.run(argv)
        del envelope["elapsed_seconds"], expected["elapsed_seconds"]
        assert envelope == expected


@pytest.mark.parametrize("argv, code, err", [
    (["hmm", "filter", "--model", "@hmm", "--obs", "0,0_1,1"], 2,
     "validation error: observations must be integers\n"),
    (["kalman", "filter", "--model", "@overflow", "--obs", "1,2"], 3,
     "numeric error: filtered state at step 1 has predicted mean inf and variance inf\n"),
    (["sample", "rejection", "--samples", "1_0", "--seed", "1"], 4,
     "usage error: argument --samples: invalid int value: '1_0'\n"),
])
def test_process_error_exit_writes_its_message_whole(tmp_path, argv, code, err):
    proc = _cli_process(_resolve(argv, tmp_path), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


@pytest.mark.parametrize("argv, code, err", [
    (["vi", "klfit", "--variances", "1,4"], 0, ""),
    (["vi", "klfit", "--variances", "1,x"], 2,
     "validation error: expected comma-separated numbers, got '1,x'\n"),
    (["kalman", "filter", "--model", "@overflow", "--obs", "1,2"], 3,
     "numeric error: filtered state at step 1 has predicted mean inf and variance inf\n"),
    (["vi", "klfit"], 4, "usage error: the following arguments are required: --variances\n"),
    (["--help"], 0, ""),
    (["hmm", "--help"], 0, ""),
    (["hmm", "filter", "-h"], 0, ""),
])
def test_process_started_with_a_closed_stream_keeps_its_exit_code(tmp_path, argv, code, err):
    # A stream closed before the process starts is None in it.  With no standard output a
    # success, help included, exits 1 quietly, as on a closed pipe; an error keeps its own
    # exit code.
    argv = _resolve(argv, tmp_path)
    command = shlex.join([sys.executable, "-m", "pgmlab.cli", *argv])

    def closing(redirect):
        return subprocess.run(["sh", "-c", f"{command} {redirect}"], env=_cli_env(), timeout=120,
                              capture_output=True, text=True)

    no_out = closing(">&-")
    assert (no_out.returncode, no_out.stdout, no_out.stderr) == (code or cli.EXIT_BROKEN_PIPE, "", err)
    no_err = closing("2>&-")
    assert (no_err.returncode, no_err.stderr) == (code, "")
    if code:
        assert no_err.stdout == ""
    elif "--help" in argv or "-h" in argv:
        assert no_err.stdout == closing("").stdout != ""
    else:
        envelope, expected = json.loads(no_err.stdout), cli.run(argv)
        del envelope["elapsed_seconds"], expected["elapsed_seconds"]
        assert envelope == expected


def test_process_closes_its_trace_files(tmp_path):
    # A 5,000-step chain writes far more than one file buffer to the CSV.
    argv = ["sample", "mh", "--samples", "5000", "--seed", "3"]
    files = [tmp_path / name for name in ("a.csv", "a.json", "b.csv", "b.json")]
    proc = _cli_process([*argv, "--out-csv", str(files[0]), "--out-json", str(files[1])],
                        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    rows = files[0].read_text().splitlines()
    assert rows[0] == "theta0,theta1" and len(rows) == 1 + 5000
    assert set(json.loads(files[1].read_text())) == {"seed", "warmup", "acceptance_rate", "ess"}
    cli.run([*argv, "--out-csv", str(files[2]), "--out-json", str(files[3])])
    assert files[0].read_bytes() == files[2].read_bytes()
    assert files[1].read_bytes() == files[3].read_bytes()


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone and which has no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_in_process_closed_pipe_returns_1(write_model, monkeypatch, capsys):
    path = write_model("c.model", CHAIN_MODEL)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main(["fg", "map", "--model", path]) == 1
    monkeypatch.undo()
    assert capsys.readouterr().err == ""


def _chain(n):
    """A binary chain v00000 - v00001 - ...: a prior on v00000 and links whose rows sum to one."""
    names = [f"v{i:05d}" for i in range(n)]
    links = enumerate(zip(names, names[1:]))
    return {"variables": [{"name": v, "card": 2} for v in names],
            "factors": [{"name": "prior", "scope": ["v00000"], "values": [0.3, 0.7]}]
            + [{"name": f"f{i:05d}", "scope": [a, b], "values": [0.9, 0.2, 0.1, 0.8]} for i, (a, b) in links]}


def _star(d):
    """A hub c with d binary leaves whose messages into c alternate [1, 1e-3] and [1e-3, 1]."""
    leaves = [f"l{i:04d}" for i in range(d)]
    return {"variables": [{"name": v, "card": 2} for v in ["c", *leaves]],
            "factors": [{"name": f"f{v}", "scope": ["c", v], "values": [1, 1e-3, 1, 1e-3][::(-1) ** i]}
                        for i, v in enumerate(leaves)]}


_FG_AB = {"variables": [{"name": "a", "card": 2}, {"name": "b", "card": 2}],
          "factors": [{"name": "f", "scope": ["a", "b"], "values": [1, 2, 3, 4]}]}

# Example argument lists for every command in ``cli.COMMANDS``.  A token
# "@name" stands for a file under the test's directory: the files in
# _EXAMPLE_FILES are written first, any other "@name" is a path left absent.
_EXAMPLE_FILES = {
    "@dag": FIVE_NODE, "@ugm": _GRAPH_UGM, "@tree": TREE_MODEL, "@hmm": HMM_MODEL,
    "@kalman": KALMAN_MODEL, "@rbm": RBM_MODEL, "@meanfield": MEANFIELD_MODEL,
    "@cdag": {"dag": {"nodes": ["a", "s", "c"], "parents": {"c": ["a", "s"]}}},
    "@cases": "a,s,c\n0,1,1\n0,0,0\n1,0,1\n0,0,0\n0,1,0\n",
    "@spins": "x1,x2\n-1,-1\n-1,1\n1,-1\n",
    "@values": "x\n1.0\n-1.0\n0.5\n",
    "@xy": "x,y\n0.1,1\n0.5,2\n1.0,3\n-0.5,0\n",
    "@nan_values": "x\n1.0\nnan\n0.5\n",
    "@inf_values": "x\n1.0\n-inf\n0.5\n",
    "@nan_xy": "x,y\n0.1,1\nnan,2\n1.0,3\n",
    "@inf_xy": "x,y\n0.1,1\ninf,2\n1.0,3\n",
    "@overflow": {"kalman": {**KALMAN_MODEL["kalman"], "A": [1e200, 1e200], "prior": {"mean": 1e200, "var": 1.0}}},
    "@net": {"dag": {"nodes": ["t", "s", "d"], "parents": {"d": ["t", "s"]}}}, "@fg": _FG_AB,
    "@readme_rbm": {"rbm": {"W": [[0.4, -0.2]], "a": [0.0], "b": [-0.1, 0.2]}},
    "@crlf_spins": 'x1,x2\r\n-1,-1\r\n\r\n"1",1\r\n1,-1\r\n-1,-1\r\n',
    "@zero": {"hmm": {"prior": [0.5, 0.5, 0.0], "transitions": [[0.9, 0.1, 0.0], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]],
                      "emissions": [[0.7, 0.3], [0.1, 0.9], [0.5, 0.5]], "steps": 3}},
    "@chain": _chain(10_000), "@star300": _star(300), "@star1000": _star(1000),
}

_EXAMPLES = {
    ("graph", "dsep"): ["--model", "@dag", "--x", "a", "--y", "h", "--given", "e"],
    ("graph", "usep"): ["--model", "@ugm", "--x", "x1", "--y", "x3", "--given", "x2"],
    ("graph", "mb"): ["--model", "@dag", "--node", "z"],
    ("graph", "moralize"): ["--model", "@dag"],
    ("graph", "iequiv"): ["--model", "@dag", "--other", "@dag"],
    ("graph", "imap"): ["--model", "@ugm", "--order", "x3,x2,x1"],
    ("fg", "marginal"): ["--model", "@tree", "--var", "x1", "--evidence", "x2=1"],
    ("fg", "map"): ["--model", "@tree"],
    ("fg", "eliminate"): ["--model", "@tree", "--keep", "x2", "--evidence", "x1=0"],
    ("fg", "condition"): ["--model", "@tree", "--evidence", "x2=1"],
    ("hmm", "filter"): ["--model", "@hmm", "--obs", "1,0,1"],
    ("hmm", "smooth"): ["--model", "@hmm", "--obs", "1,0,1"],
    ("hmm", "viterbi"): ["--model", "@hmm", "--obs", "1,0,1"],
    ("hmm", "predict-h"): ["--model", "@hmm", "--obs", "1", "--t", "2"],
    ("hmm", "predict-v"): ["--model", "@hmm", "--obs", "1", "--t", "3"],
    ("hmm", "ffbs"): ["--model", "@hmm", "--obs", "1,0,1", "--paths", "2"],
    ("kalman", "filter"): ["--model", "@kalman", "--obs", "0.5,1.2"],
    ("fit", "cpt-mle"): ["--model", "@cdag", "--data", "@cases"],
    ("fit", "cpt-bayes"): ["--model", "@cdag", "--data", "@cases", "--alpha0", "2"],
    ("fit", "score-matching"): ["--data", "@values"],
    ("fit", "ising2"): ["--data", "@spins"],
    ("sample", "mh"): ["--target", "poisson", "--data", "@xy", "--samples", "200"],
    ("sample", "rejection"): ["--samples", "200"],
    ("sample", "importance"): ["--samples", "1000"],
    ("sample", "gibbs-rbm"): ["--model", "@rbm", "--sweeps", "50"],
    ("vi", "meanfield"): ["--model", "@meanfield"],
    ("vi", "klfit"): ["--variances", "1.0,4.0"],
}


def _resolve(argv, tmp_path):
    out = []
    for arg in argv:
        if arg.startswith("@"):
            path = tmp_path / arg[1:]
            content = _EXAMPLE_FILES.get(arg)
            if content is not None:
                path.write_text(content if isinstance(content, str) else json.dumps(content))
            arg = str(path)
        out.append(arg)
    return out


@pytest.mark.parametrize("spec", cli.COMMANDS, ids=lambda spec: f"{spec.group}-{spec.name}")
def test_every_command_envelope_matches_schema(spec, tmp_path, schema):
    argv = [spec.group, spec.name, *_EXAMPLES[spec.group, spec.name]]
    env = cli.run(_resolve(argv + (["--seed", "9"] if spec.seeded else []), tmp_path))
    jsonschema.validate(env, schema)
    assert env["command"] == f"{spec.group} {spec.name}"
    assert env["seed"] == (9 if spec.seeded else None)
    assert (list(env["inputs"])[0] == "model") == (spec.section is not None)


@pytest.mark.parametrize("argv, path", [
    (["fit", "cpt-mle", "--model", "@cdag", "--data", "@absent.csv"], "absent.csv"),
    (["fit", "cpt-bayes", "--model", "@cdag", "--data", "@absent.csv"], "absent.csv"),
    (["fit", "score-matching", "--data", "@absent.csv"], "absent.csv"),
    (["fit", "ising2", "--data", "@absent.csv"], "absent.csv"),
    (["sample", "mh", "--target", "poisson", "--data", "@absent.csv", "--seed", "1"], "absent.csv"),
    (["sample", "mh", "--samples", "50", "--seed", "1", "--out-csv", "@absent/trace.csv",
      "--out-json", "@trace.json"], "absent/trace.csv"),
    (["sample", "mh", "--samples", "50", "--seed", "1", "--out-csv", "@trace.csv",
      "--out-json", "@absent/trace.json"], "absent/trace.json"),
])
def test_unreadable_or_unwritable_file_exits_2(tmp_path, capsys, argv, path):
    assert cli.main(_resolve(argv, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: cannot ") and str(tmp_path / path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["fit", "cpt-bayes", "--model", "@cdag", "--data", "@cases", "--alpha0", "nan"], "finite"),
    (["fit", "cpt-bayes", "--model", "@cdag", "--data", "@cases", "--alpha0", "inf"], "finite"),
    (["fit", "cpt-bayes", "--model", "@cdag", "--data", "@cases", "--beta0", "nan"], "finite"),
    (["fit", "cpt-bayes", "--model", "@cdag", "--data", "@cases", "--beta0", "inf"], "finite"),
    (["sample", "importance", "--seed", "1", "--threshold", "nan"], "finite"),
    (["sample", "importance", "--seed", "1", "--threshold", "inf"], "finite"),
    (["hmm", "ffbs", "--model", "@hmm", "--obs", "1,0,1", "--paths", "-1", "--seed", "1"], "n_paths"),
    (["hmm", "ffbs", "--model", "@hmm", "--obs", "1,0,1", "--paths", "0", "--seed", "1"], "n_paths"),
    (["sample", "mh", "--dim", "0", "--seed", "1"], "init"),
    (["sample", "mh", "--vari", "nan", "--seed", "1"], "vari must be finite"),
    (["sample", "mh", "--vari", "inf", "--seed", "1"], "vari must be finite"),
    (["sample", "rejection", "--b", "nan", "--seed", "1"], "b must be finite"),
    (["sample", "rejection", "--b", "inf", "--seed", "1"], "b must be finite"),
    (["sample", "rejection", "--b", "0.01", "--seed", "1"], "too small"),
    (["sample", "rejection", "--b", "1e-300", "--seed", "1"], "too small"),
    (["vi", "meanfield", "--model", "@meanfield", "--tol=nan"], "tol must be finite"),
    (["vi", "meanfield", "--model", "@meanfield", "--tol=inf"], "tol must be finite"),
    (["vi", "meanfield", "--model", "@meanfield", "--tol=-1"], "tol must be positive"),
    (["vi", "meanfield", "--model", "@meanfield", "--tol=0"], "tol must be positive"),
    (["sample", "rejection", "--b", "0.1", "--samples", "1", "--seed", "1"], "b=0.1 needs about 4.14e+20 proposals"),
    (["sample", "mh", "--samples", "100", "--seed", "1", "--out-csv", "@trace.csv"], "--out-csv needs --out-json"),
    (["sample", "mh", "--samples", "100", "--seed", "1", "--out-json", "@trace.json"], "--out-json needs --out-csv"),
    (["kalman", "filter", "--model", "@kalman", "--obs=nan,1"], "observations must be finite"),
    (["kalman", "filter", "--model", "@kalman", "--obs=1,-inf"], "observations must be finite"),
    (["fit", "score-matching", "--data", "@nan_values"], "data must be finite"),
    (["fit", "score-matching", "--data", "@inf_values"], "data must be finite"),
    (["sample", "mh", "--target", "poisson", "--data", "@nan_xy", "--seed", "1"], "data must be finite"),
    (["sample", "mh", "--target", "poisson", "--data", "@inf_xy", "--seed", "1"], "data must be finite"),
    (["sample", "mh", "--dim", "-1", "--seed", "1"], "dim must be a non-negative integer, got -1"),
])
def test_non_finite_or_degenerate_option_exits_2(tmp_path, capsys, argv, message):
    assert cli.main(_resolve(argv, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", [spec for spec in cli.COMMANDS if spec.seeded],
                         ids=lambda spec: f"{spec.group}-{spec.name}")
def test_negative_seed_exits_2(spec, tmp_path, capsys):
    argv = [spec.group, spec.name, *_EXAMPLES[spec.group, spec.name], "--seed", "-1"]
    assert cli.main(_resolve(argv, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: seed must be a non-negative integer, got -1")
    assert "Traceback" not in err


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("spec", cli.COMMANDS, ids=lambda spec: f"{spec.group}-{spec.name}")
def test_every_command_prints_strict_json(spec, tmp_path, capsys):
    argv = [spec.group, spec.name, *_EXAMPLES[spec.group, spec.name]]
    assert cli.main(_resolve(argv + (["--seed", "9"] if spec.seeded else []), tmp_path)) == 0
    json.loads(capsys.readouterr().out, parse_constant=_not_json)


_LAYOUT_CHECKED = {("hmm", "filter"), ("hmm", "smooth"), ("hmm", "ffbs"), ("kalman", "filter"),
                   ("fg", "map"), ("sample", "mh")}


@pytest.mark.parametrize("spec", [spec for spec in cli.COMMANDS if (spec.group, spec.name) in _LAYOUT_CHECKED],
                         ids=lambda spec: f"{spec.group}-{spec.name}")
def test_printed_layout_is_json_dumps_layout(spec, tmp_path, capsys):
    argv = [spec.group, spec.name, *_EXAMPLES[spec.group, spec.name]]
    argv = _resolve(argv + (["--seed", "9"] if spec.seeded else []), tmp_path)
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    env = cli.run(argv)
    del env["elapsed_seconds"]
    assert env == _without_elapsed(text)


_WIDE = [f"x{i}" for i in range(70)]


@pytest.mark.parametrize("argv, one_factor_code", [
    (["fg", "marginal", "--var", "x0"], 2),
    (["fg", "map"], 2),
    (["fg", "eliminate", "--keep", "x0", "--order", ",".join(["y", *_WIDE[1:]])], 0),
    (["fg", "condition", "--evidence", "x0=0"], 0),
])
@pytest.mark.parametrize("one_factor", [True, False])
def test_71_variable_model_exits_0_or_2(write_model, capsys, argv, one_factor_code, one_factor):
    # Cardinality-1 x_i keep every table small while a scope outgrows NumPy's axis limit:
    # one factor over all 71 variables, or 70 pair factors whose product over y has 71.
    factors = ([{"name": "f", "scope": [*_WIDE, "y"], "values": [1, 2]}] if one_factor else
               [{"name": f"f{i}", "scope": [x, "y"], "values": [1, 2]} for i, x in enumerate(_WIDE)])
    doc = {"variables": [{"name": x, "card": 1} for x in _WIDE] + [{"name": "y", "card": 2}], "factors": factors}
    code = cli.main([*argv[:2], "--model", write_model("wide.model", doc), *argv[2:]])
    err = capsys.readouterr().err
    assert code == (one_factor_code if one_factor else 0), err
    assert "Traceback" not in err
    if code == 2:
        assert err == "validation error: a factor over 71 variables has no array view (at most 32 axes)\n"


@pytest.mark.parametrize("changes, step", [
    ({"A": [1e200, 1e200], "prior": {"mean": 1e200, "var": 1.0}}, 1),  # the predicted mean overflows
    ({"A": [1.0, 0.0], "B": [0.0, 0.0]}, 2),  # A = B = 0 leaves no variance
    ({"A": [1.0, 0.0], "B": [0.0, 0.0], "D": [0.5, 0.0]}, 2),  # ... and with D = 0 the gain is 0/0
])
def test_kalman_state_faults_are_numeric_errors(write_model, capsys, changes, step):
    path = write_model("k.model", {"kalman": {**KALMAN_MODEL["kalman"], **changes}})
    assert cli.main(["kalman", "filter", "--model", path, "--obs=1,2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: filtered state at step {step} ") and "Traceback" not in err


def test_overflowing_elimination_is_a_numeric_error(write_model, capsys):
    doc = {"variables": [{"name": "a", "card": 2}, {"name": "b", "card": 2}],
           "factors": [{"name": "f", "scope": ["a"], "values": [1e300, 1e300]},
                       {"name": "g", "scope": ["a", "b"], "values": [1e300] * 4}]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["fg", "eliminate", "--model", write_model("big.model", doc), "--keep", "b", "--order", "a"])
    assert code == 3
    assert capsys.readouterr().err == "numeric error: factor product over ['a', 'b'] overflows\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# Every CSV command, as argv with the data path at "@data.csv", and a header it accepts.
_CSV_COMMANDS = {
    "fit-cpt-mle": (["fit", "cpt-mle", "--model", "@cdag", "--data", "@data.csv"], "a,s,c"),
    "fit-cpt-bayes": (["fit", "cpt-bayes", "--model", "@cdag", "--data", "@data.csv"], "a,s,c"),
    "fit-score-matching": (["fit", "score-matching", "--data", "@data.csv"], "x"),
    "fit-ising2": (["fit", "ising2", "--data", "@data.csv"], "x1,x2"),
    "sample-mh-poisson": (["sample", "mh", "--target", "poisson", "--data", "@data.csv", "--seed", "1"], "x,y"),
}


def _csv_command(tmp_path, capsys, command, text):
    argv, _ = _CSV_COMMANDS[command]
    (tmp_path / "data.csv").write_text(text, encoding="utf-8")
    code = cli.main(_resolve(argv, tmp_path))
    return code, capsys.readouterr().err, tmp_path / "data.csv"


@pytest.mark.parametrize("command", sorted(_CSV_COMMANDS))
def test_a_header_without_rows_exits_2(tmp_path, capsys, command):
    code, err, path = _csv_command(tmp_path, capsys, command, _CSV_COMMANDS[command][1] + "\n\r\n\n")
    assert code == 2
    assert err == f"validation error: {path}: no data rows\n"


@pytest.mark.parametrize("cell", ["1.5", "1.0", "1e0"])
@pytest.mark.parametrize("command, text", [
    ("fit-cpt-mle", "a,s,c\n0,1,{}\n"),
    ("fit-ising2", "x1,x2\n-1,{}\n"),
    ("sample-mh-poisson", "x,y\n0.5,{}\n"),
])
def test_an_integer_cell_is_read_as_an_integer(tmp_path, capsys, command, text, cell):
    code, err, path = _csv_command(tmp_path, capsys, command, text.format(cell))
    assert code == 2
    assert err == f"validation error: {path}:2: cannot read row {text.split(chr(10))[1].format(cell)!r}\n"


# Rows the Python row loop read and NumPy's reader refuses.  NumPy's int parser reads
# some non-ASCII letters as digits ("Ǿ" as 462), so a data row must be ASCII.
@pytest.mark.parametrize("command, header, row", [
    ("sample-mh-poisson", "x,y", "0.5,1_0"),
    ("sample-mh-poisson", "x,y", "0.5,١"),
    ("sample-mh-poisson", "x,y", "0.5,Ǿ"),
    ("sample-mh-poisson", "x,y", "0.5,\xa01"),
    ("sample-mh-poisson", "x,y", "0.5,99999999999999999999"),
    ("sample-mh-poisson", "x,y,z", "0.5,1,7"),
    ("fit-score-matching", "x,label", "0.5,a"),
])
def test_rows_numpy_does_not_read_exit_2(tmp_path, capsys, command, header, row):
    code, err, path = _csv_command(tmp_path, capsys, command, f"{header}\n{row}\n")
    assert code == 2
    assert err == f"validation error: {path}:2: cannot read row {row!r}\n"


@pytest.mark.parametrize("command", sorted(_CSV_COMMANDS))
def test_a_data_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    argv, header = _CSV_COMMANDS[command]
    (tmp_path / "data.csv").write_bytes(header.encode() + b"\n\xff\n")
    assert cli.main(_resolve(argv, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and str(tmp_path / "data.csv") in err


_HMM2 = {**HMM_MODEL["hmm"], "transitions": [[0.9, 0.1], [0.2, 0.8]]}
_KALMAN = KALMAN_MODEL["kalman"]
_USEP = ["graph", "usep", "--x", "a", "--y", "b"]
_HMM_FILTER = ["hmm", "filter", "--obs", "0"]
_KALMAN_FILTER = ["kalman", "filter", "--obs", "1,2"]

# Refusals that each exit 2 with one line: id -> (model document or None, argv without
# --model, stderr).  A model document is written to a file and passed as --model.
REFUSALS = {
    "dag duplicate nodes": ({"dag": {"nodes": ["a", "a"]}}, ["graph", "moralize"], "duplicate node names"),
    "dag unknown child": ({"dag": {"nodes": ["a"], "parents": {"b": ["a"]}}}, ["graph", "moralize"],
                          "unknown node 'b' in parent map"),
    "dag duplicate parents": ({"dag": {"nodes": ["a", "b"], "parents": {"b": ["a", "a"]}}}, ["graph", "moralize"],
                              "duplicate parents for 'b'"),
    "dag unknown parent": ({"dag": {"nodes": ["a", "b"], "parents": {"b": ["c"]}}}, ["graph", "moralize"],
                           "unknown parent 'c' of 'b'"),
    "ugm duplicate nodes": ({"ugm": {"nodes": ["a", "a"]}}, _USEP, "duplicate node names"),
    "ugm unknown edge end": ({"ugm": {"nodes": ["a", "b"], "edges": [["a", "c"]]}}, _USEP,
                             "edge ('a', 'c') references unknown node"),
    "mb dag and ugm": ({"dag": {"nodes": ["a"]}, "ugm": {"nodes": ["a"]}}, ["graph", "mb", "--node", "a"],
                       "exactly one of 'dag' or 'ugm' must be present"),
    "hmm prior sum": ({"hmm": {**_HMM2, "prior": [0.5, 0.6]}}, _HMM_FILTER, "prior must sum to 1"),
    "hmm non-square transition": ({"hmm": {**_HMM2, "transitions": [[0.5, 0.5]]}}, _HMM_FILTER,
                                  "transition matrices must be square over the state count"),
    "hmm emission rows": ({"hmm": {**_HMM2, "emissions": [[0.5, 0.5]]}}, _HMM_FILTER,
                          "emission rows must match the state count"),
    "hmm step counts": ({"hmm": {"prior": [0.5, 0.5], "transitions": [_HMM2["transitions"]] * 2,
                                 "emissions": [_HMM2["emissions"]] * 2}}, _HMM_FILTER,
                        "need one emission matrix per step and one transition per gap"),
    "hmm vector transitions": ({"hmm": {**_HMM2, "transitions": [0.5, 0.5]}}, _HMM_FILTER,
                               "hmm: transitions and emissions must be matrices or lists of matrices"),
    "fg duplicate variables": ({**_FG_AB, "variables": [{"name": "a", "card": 2}] * 2}, ["fg", "map"],
                               "duplicate variable names"),
    "fg factor named like a variable": ({**_FG_AB, "factors": [{"name": "a", "scope": ["a"], "values": [1, 2]}]},
                                        ["fg", "map"], "duplicate node id 'a'"),
    "fg variables not a list": ({**_FG_AB, "variables": {"a": 2}}, ["fg", "map"], "'variables' must be a list"),
    "fg document not an object": ([_FG_AB], ["fg", "map"], "model document must be a JSON object"),
    "fg evidence without state": (_FG_AB, ["fg", "map", "--evidence", "b"],
                                  "evidence item 'b' must look like var=state"),
    "fg map unknown root": (_FG_AB, ["fg", "map", "--root", "zz"], "root 'zz' is not a variable"),
    "fg no factors": ({"variables": _FG_AB["variables"]}, ["fg", "map"],
                      "document has an empty or missing 'factors' section"),
    "data duplicate columns": ({"dag": {"nodes": ["a"]}}, ["fit", "cpt-mle", "--data", "@a,a"],
                               "duplicate column names"),
    "kalman unequal lengths": ({"kalman": {**_KALMAN, "A": [1.0]}}, _KALMAN_FILTER,
                               "coefficient lists must be nonempty and of equal length"),
    "kalman negative B": ({"kalman": {**_KALMAN, "B": [0.0, -0.3]}}, _KALMAN_FILTER,
                          "B and D must be non-negative (step 2)"),
    "kalman scalar A": ({"kalman": {**_KALMAN, "A": 1.0}}, _KALMAN_FILTER, "A must be a list of numbers"),
    "rbm W shape": ({"rbm": {**RBM_MODEL["rbm"], "W": [[0.4, -0.2]]}}, ["sample", "gibbs-rbm", "--seed", "1"],
                    "W must be (len(a), len(b))"),
    "meanfield precision shape": ({"meanfield": {**MEANFIELD_MODEL["meanfield"], "linear": [1.0]}},
                                  ["vi", "meanfield"], "precision must be square over the dimension of linear"),
    "mh poisson without data": (None, ["sample", "mh", "--target", "poisson", "--seed", "1"],
                                "--data is required for the poisson target"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_exits_2_with_its_message(write_model, tmp_path, capsys, case):
    doc, argv, message = REFUSALS[case]
    argv = list(argv)
    if "--data" in argv:  # "@<header>": a CSV with that header and one row of zeros
        i = argv.index("--data") + 1
        header = argv[i][1:]
        (tmp_path / "data.csv").write_text(f"{header}\n{','.join('0' for _ in header.split(','))}\n")
        argv[i] = str(tmp_path / "data.csv")
    if doc is not None:
        argv[2:2] = ["--model", write_model("m.model", doc)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"validation error: {message}\n")


# id -> (argv, ..., check): each argv exits 0 within 10 s, printing strict JSON in json.dumps(indent=2)
# layout, and check, if any, holds on their outputs.  A collider's blanket holds the other parent.
CLI_ROWS = {
    "graph imap": (["graph", "imap", "--model", "@net", "--order", "d,s,t"],
                   lambda out: out["parents"] == {"s": ["d"], "t": ["d", "s"]}),
    "graph mb": (["graph", "mb", "--model", "@net", "--node", "t"], lambda out: out["blanket"] == ["d", "s"]),
    "graph moralize": (["graph", "moralize", "--model", "@net"],
                       lambda out: out["edges"] == [["d", "s"], ["d", "t"], ["s", "t"]]),
    "sample gibbs-rbm": (["sample", "gibbs-rbm", "--model", "@readme_rbm", "--sweeps", "2000", "--seed", "1"],
                         lambda out: out["counts"] == {"0": 988, "1": 1012} and out["mean_visible"] == [0.506]),
    # MH draws the whole chain's normals, then its uniforms: every NumPy in the CI matrix gives this chain.
    "sample mh": (["sample", "mh", "--samples", "2000", "--seed", "1"],
                  lambda out: out["acceptance_rate"] == 0.551 and out["mean"] == [-0.0835261449739, -0.0316206803971]),
    "fit ising2 on a CRLF, quoted, blank-line CSV": (["fit", "ising2", "--data", "@crlf_spins"],
                                                     lambda out: out["theta"] == -0.113195229314),
    "fg map": (["fg", "map", "--model", "@fg"], lambda out: out["assignment"] == {"a": 1, "b": 1}),
    "fg eliminate, no --order, 10,000-variable chain": (
        ["fg", "eliminate", "--model", "@chain", "--keep", "v09999"],
        ["fg", "marginal", "--model", "@chain", "--var", "v09999"],
        lambda e, m: all(abs(a - b) <= 1e-9 for a, b in zip(e["v09999"], m["v09999"]))),
    # State 3 is unreachable at step 1, so arrays hold an exact 0.0.
    "hmm filter zero": (["hmm", "filter", "--model", "@zero", "--obs", "0,1,1"], lambda out: out["filtered"][0][2] == 0.0),
    "hmm ffbs zero": (["hmm", "ffbs", "--model", "@zero", "--obs", "0,1,1", "--paths", "3", "--seed", "1"], None),
    # No float holds the product of the messages into the hub unless it is rescaled.
    **{f"fg marginal {var}, {d}-leaf star": (["fg", "marginal", "--model", f"@star{d}", "--var", var],
                                             lambda out, var=var: out[var] == [0.5, 0.5])
       for d in (300, 1000) for var in ("c", "l0000")},
}


@pytest.mark.parametrize("row", sorted(CLI_ROWS))
def test_cli_row(tmp_path, capsys, row):
    *argvs, check = CLI_ROWS[row]
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail(f"{row!r} ran over 10 s"))
    signal.alarm(10)
    try:
        runs = [(cli.main(_resolve(argv, tmp_path)), capsys.readouterr().out) for argv in argvs]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [code for code, _ in runs] == [0] * len(argvs)
    envelopes = [json.loads(text, parse_constant=_not_json) for _, text in runs]
    assert [text for _, text in runs] == [json.dumps(env, indent=2) + "\n" for env in envelopes]
    assert check is None or check(*(env["outputs"] for env in envelopes))
