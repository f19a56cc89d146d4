"""Counting estimators, score matching, the two-variable Ising MLE, and
factor-analysis marginals."""

import csv
import math
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pgmlab import learning
from pgmlab.errors import NumericError, SingularMatrixError, ValidationError
from pgmlab.graphs import Dag
from pgmlab.learning import (
    BinaryDataset,
    bernoulli_mle,
    fa_marginal,
    fa_standardise,
    fit_cpt_bayes,
    fit_cpt_mle,
    gaussian_mean_posterior,
    gaussian_mle,
    gaussian_quadratic_stats,
    ising2_logZ,
    ising2_mle,
    ising2_moment,
    load_spin_csv,
    score_matching_fit,
    score_matching_objective,
)
from pgmlab.sequential import Gaussian1, gaussian_product


@pytest.fixture
def cancer_setup():
    dag = Dag.from_edges(["a", "s", "c"], [("a", "c"), ("s", "c")])
    data = BinaryDataset(["a", "s", "c"],
                         [[0, 1, 1], [0, 0, 0], [1, 0, 1], [0, 0, 0], [0, 1, 0]])
    return dag, data


@pytest.fixture
def breath_setup():
    # four binary symptoms; s depends on (t, b), x on t
    dag = Dag.from_edges(["t", "b", "s", "x"], [("t", "s"), ("b", "s"), ("t", "x")])
    rows = [
        [0, 1, 0, 1], [0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 0, 0],
        [0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 0, 1], [1, 1, 1, 0],
    ]
    return dag, BinaryDataset(["x", "s", "t", "b"], rows)


class TestCptMle:
    def test_cancer_roots(self, cancer_setup):
        dag, data = cancer_setup
        est = fit_cpt_mle(dag, data)
        assert est.table("a")[0].theta == 1 / 5
        assert est.table("s")[0].theta == 2 / 5

    def test_cancer_child_table(self, cancer_setup):
        dag, data = cancer_setup
        cells = fit_cpt_mle(dag, data).table("c")
        # parent configurations enumerate (a, s) with a fastest
        assert cells[0].theta == 0.0
        assert cells[1].theta == 1.0
        assert cells[2].theta == 0.5
        assert cells[3].theta is None and not cells[3].defined
        assert (cells[3].ones, cells[3].zeros) == (0, 0)

    def test_breath_cells(self, breath_setup):
        dag, data = breath_setup
        cells = fit_cpt_mle(dag, data).table("s")
        assert cells[0].theta == 0.0 and cells[0].zeros == 3  # t=0, b=0
        assert cells[1].theta == 1.0 and cells[1].ones == 1   # t=1, b=0

    def test_empty_parent_set_is_plain_bernoulli(self, cancer_setup):
        dag, data = cancer_setup
        assert fit_cpt_mle(dag, data).table("a")[0].theta == bernoulli_mle(data.column("a"))

    def test_column_mismatch(self, cancer_setup):
        dag, _ = cancer_setup
        with pytest.raises(ValidationError):
            fit_cpt_mle(dag, BinaryDataset(["a", "s"], [[0, 1]]))

    def test_defined_cells_maximise_loglik(self, cancer_setup):
        dag, data = cancer_setup
        est = fit_cpt_mle(dag, data)
        grid = np.linspace(0.0005, 0.9995, 1000)
        for node in dag.nodes:
            for cell in est.table(node):
                if not cell.defined or cell.ones + cell.zeros == 0:
                    continue
                def loglik(th):
                    out = 0.0
                    if cell.ones:
                        out += cell.ones * math.log(th)
                    if cell.zeros:
                        out += cell.zeros * math.log(1 - th)
                    return out
                best_grid = max(loglik(t) for t in grid)
                theta = min(max(cell.theta, 1e-12), 1 - 1e-12)
                assert loglik(theta) >= best_grid - 1e-9


class TestCptBayes:
    def test_cancer_predictives(self, cancer_setup):
        dag, data = cancer_setup
        post = fit_cpt_bayes(dag, data, 1.0, 1.0)
        assert post.predictive("a") == (2 / 7,)
        assert post.predictive("s") == (3 / 7,)
        assert post.predictive("c") == (1 / 4, 2 / 3, 1 / 2, 1 / 2)

    def test_breath_posterior_means(self, breath_setup):
        dag, data = breath_setup
        post = fit_cpt_bayes(dag, data, 1.0, 1.0)
        assert post.predictive("s")[0] == 1 / 5
        assert post.predictive("s")[1] == 2 / 3

    def test_no_data_returns_prior_mean(self):
        dag = Dag(["a"], {})
        data = BinaryDataset(["a"], np.empty((0, 1), dtype=int))
        post = fit_cpt_bayes(dag, data, 3.0, 1.0)
        assert post.predictive("a") == (0.75,)

    def test_vanishing_prior_approaches_mle(self, cancer_setup):
        dag, data = cancer_setup
        mle = fit_cpt_mle(dag, data)
        post = fit_cpt_bayes(dag, data, 1e-9, 1e-9)
        for node in dag.nodes:
            for mle_cell, bayes_cell in zip(mle.table(node), post.table(node)):
                if mle_cell.defined:
                    assert math.isclose(bayes_cell.mean, mle_cell.theta, abs_tol=1e-6)

    def test_predictive_equals_posterior_mean(self, cancer_setup):
        dag, data = cancer_setup
        post = fit_cpt_bayes(dag, data, 2.5, 0.5)
        for node in dag.nodes:
            for params in post.table(node):
                assert params.mean == params.alpha / (params.alpha + params.beta)

    def test_bad_hyperparameters(self, cancer_setup):
        dag, data = cancer_setup
        with pytest.raises(ValidationError):
            fit_cpt_bayes(dag, data, 0.0, 1.0)


class TestScalarEstimators:
    def test_bernoulli(self):
        assert bernoulli_mle([1, 0, 1, 1]) == 0.75
        assert bernoulli_mle([1, 1, 1]) == 1.0
        assert bernoulli_mle([0, 0]) == 0.0
        with pytest.raises(ValidationError):
            bernoulli_mle([])

    def test_gaussian(self):
        assert gaussian_mle([0.0, 2.0]) == (1.0, 1.0)
        mean, var = gaussian_mle([3.5, 3.5, 3.5])
        assert mean == 3.5 and var == 0.0

    def test_gaussian_mle_maximises_on_grid(self):
        rng = np.random.default_rng(0)
        data = rng.normal(1.0, 2.0, size=40)
        mean, var = gaussian_mle(data)

        def loglik(mu, v):
            return -0.5 * len(data) * math.log(2 * math.pi * v) \
                - 0.5 * np.sum((data - mu) ** 2) / v

        base = loglik(mean, var)
        for dmu in (-0.05, 0.05):
            for dv in (-0.05, 0.05):
                assert loglik(mean + dmu, max(var + dv, 1e-6)) <= base + 1e-12

    def test_mean_posterior_empty_returns_prior(self):
        prior = Gaussian1(0.4, 2.0)
        assert gaussian_mean_posterior([], 1.0, prior) == prior

    def test_mean_posterior_flat_prior_limit(self):
        data = [1.0, 2.0, 3.0]
        post = gaussian_mean_posterior(data, 2.0, Gaussian1(0.0, 1e12))
        assert math.isclose(post.mean, 2.0, abs_tol=1e-9)
        assert math.isclose(post.var, 2.0 / 3.0, rel_tol=1e-6)

    def test_mean_posterior_is_gaussian_product(self):
        data = [0.3, -0.8, 1.4, 0.2]
        prior = Gaussian1(0.5, 0.7)
        direct = gaussian_mean_posterior(data, 1.3, prior)
        via_product = gaussian_product(prior, Gaussian1(float(np.mean(data)), 1.3 / 4))
        assert math.isclose(direct.mean, via_product.mean, abs_tol=1e-10)
        assert math.isclose(direct.var, via_product.var, abs_tol=1e-10)


class TestScoreMatching:
    def test_gaussian_family_closed_form(self):
        grad, curv = gaussian_quadratic_stats()
        rng = np.random.default_rng(4)
        data = rng.normal(0, 1.7, size=200)
        theta = score_matching_fit(grad, curv, data)
        m2 = float(np.mean(data**2))
        assert math.isclose(theta[0], -1.0 / (2.0 * m2), rel_tol=1e-12)

    def test_two_point_dataset(self):
        grad, curv = gaussian_quadratic_stats()
        theta = score_matching_fit(grad, curv, np.array([1.0, -1.0]))
        assert math.isclose(theta[0], -0.5, abs_tol=1e-12)
        # numeric grid minimisation of the objective agrees
        grid = np.linspace(-2.0, -0.05, 4000)
        values = [score_matching_objective(grad, curv, np.array([1.0, -1.0]), np.array([t]))
                  for t in grid]
        assert abs(grid[int(np.argmin(values))] - theta[0]) < 1e-3

    def test_objective_minimised_at_fit(self):
        grad, curv = gaussian_quadratic_stats()
        rng = np.random.default_rng(5)
        data = rng.normal(0, 0.9, size=50)
        theta = score_matching_fit(grad, curv, data)
        base = score_matching_objective(grad, curv, data, theta)
        for probe in rng.normal(size=(20, 1)):
            assert base <= score_matching_objective(grad, curv, data, probe) + 1e-12

    def test_gram_matrix_is_symmetric_psd(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(30, 1))
        grads = lambda x: np.array([[2 * x[0]], [3 * x[0] ** 2]])
        m = np.zeros((2, 2))
        for x in data:
            k = grads(x)
            m += k @ k.T
        m /= len(data)
        assert_allclose(m, m.T)
        assert np.linalg.eigvalsh(m).min() >= -1e-12

    def test_whole_array_and_per_point_paths_agree(self):
        # The reference: the statistic's K x m gradient and curvature at one
        # point at a time, summed over the points in a loop.
        grad, curv = gaussian_quadratic_stats()
        grad_at, curv_at = (lambda x: np.array([[2.0 * x[0]]])), (lambda x: np.array([[2.0]]))
        rng = np.random.default_rng(8)
        for data in (rng.normal(0, 1.3, size=500), rng.normal(size=(40, 3))):
            points = data.reshape(len(data), -1)
            r = sum(curv_at(x).sum(axis=1) for x in points) / len(points)
            m = sum(grad_at(x) @ grad_at(x).T for x in points) / len(points)
            theta = score_matching_fit(grad, curv, data)
            assert_allclose(theta, np.linalg.solve(m, -r), rtol=1e-12)
            for probe in (theta, np.array([-0.7]), np.array([0.4])):
                assert math.isclose(score_matching_objective(grad, curv, data, probe),
                                    float(probe @ r + 0.5 * probe @ m @ probe), rel_tol=1e-12)

    def test_objective_is_mean_of_per_point_terms(self):
        grads = lambda p: np.stack([2 * p[:, :1], 3 * p[:, :1] ** 2], axis=1)
        curvs = lambda p: np.stack([np.full((len(p), 1), 2.0), 6 * p[:, :1]], axis=1)
        rng = np.random.default_rng(9)
        data, theta = rng.normal(size=(25, 1)), np.array([-0.6, 0.2])
        expected = np.mean([theta @ [2.0, 6 * x[0]] + 0.5 * (theta @ [2 * x[0], 3 * x[0] ** 2]) ** 2
                            for x in data])
        assert math.isclose(score_matching_objective(grads, curvs, data, theta), expected, rel_tol=1e-12)
        grad, curv = gaussian_quadratic_stats()
        data, t = rng.normal(size=30), -0.3
        expected = np.mean([2 * t + 0.5 * (2 * t * x) ** 2 for x in data])
        assert math.isclose(score_matching_objective(grad, curv, data, np.array([t])), expected,
                            rel_tol=1e-12)

    @pytest.mark.parametrize("grad, curv", [
        (lambda p: 2.0 * p[:, :1, None], lambda p: np.full((len(p), 2, 1), 2.0)),
        (lambda p: 2.0 * p[:, 0], lambda p: np.full(len(p), 2.0)),
        (lambda p: 2.0 * p[:1, :1, None], lambda p: np.full((1, 1, 1), 2.0)),
    ], ids=["K differs", "not n x K x m", "one row for two points"])
    def test_whole_array_shape_mismatch_rejected(self, grad, curv):
        with pytest.raises(ValidationError, match="equal shape"):
            score_matching_fit(grad, curv, np.array([1.0, 2.0]))
        with pytest.raises(ValidationError, match="equal shape"):
            score_matching_objective(grad, curv, np.array([1.0, 2.0]), np.array([0.5]))

    def test_each_statistic_is_called_once_on_all_points(self):
        grad, curv = gaussian_quadratic_stats()
        calls = []

        def counted(f, tag):
            def call(points):
                calls.append((tag, points.shape))
                return f(points)
            return call

        data = np.array([1.0, -1.0, 2.0])
        theta = score_matching_fit(counted(grad, "grad"), counted(curv, "curv"), data)
        assert sorted(calls) == [("curv", (3, 1)), ("grad", (3, 1))]
        assert theta[0] == -0.25

    def test_constant_statistic_is_singular(self):
        grads = lambda p: np.stack([2 * p[:, :1], np.zeros((len(p), 1))], axis=1)
        curvs = lambda p: np.stack([np.full((len(p), 1), 2.0), np.zeros((len(p), 1))], axis=1)
        with pytest.raises(SingularMatrixError):
            score_matching_fit(grads, curvs, np.array([1.0, 2.0]))


class TestIsing:
    def test_logZ_closed_form(self):
        for theta in (-2.0, -1.0, 0.0, 0.5, 3.0):
            direct = sum(
                math.exp(theta * a * b + a + b)
                for a in (-1, 1) for b in (-1, 1)
            )
            assert math.isclose(ising2_logZ(theta), math.log(direct), rel_tol=1e-12)

    def test_worked_mle(self):
        data = np.array([[-1, -1], [-1, 1], [1, -1]])
        theta = ising2_mle(data)
        assert abs(theta - (-1.0)) < 0.05  # figure read-off tolerance
        assert abs(ising2_moment(theta) + 1.0 / 3.0) < 1e-9

    def test_zero_moment_root(self):
        data = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        theta = ising2_mle(data)
        assert abs(ising2_moment(theta)) < 1e-9

    def test_moment_strictly_increasing(self):
        grid = np.linspace(-6, 6, 241)
        values = [ising2_moment(t) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_boundary_moment_rejected(self):
        with pytest.raises(NumericError):
            ising2_mle(np.array([[1, 1], [(-1), -1]]))

    def test_bad_entries(self):
        with pytest.raises(ValidationError):
            ising2_mle(np.array([[0, 1]]))

    def test_tol_below_float_spacing_ends(self):
        # Once lo and hi are adjacent floats, hi - lo stops shrinking.
        data = np.array([[1, 1], [1, -1], [-1, -1], [1, 1]])

        def timed_out(*_):
            raise TimeoutError("the bisection did not end")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(3)
        try:
            theta = ising2_mle(data, tol=1e-300)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert abs(theta - ising2_mle(data)) < 1e-9


class TestFactorAnalysis:
    def test_identity_latent_covariance(self):
        rng = np.random.default_rng(7)
        F = rng.normal(size=(4, 2))
        psi = np.array([0.1, 0.2, 0.3, 0.4])
        mean, cov = fa_marginal(F, np.eye(2), psi, np.zeros(4))
        assert_allclose(cov, F @ F.T + np.diag(psi))
        assert_allclose(fa_standardise(F, np.eye(2)), F, atol=1e-9)

    def test_standardise_reconstructs_covariance(self):
        rng = np.random.default_rng(8)
        F = rng.normal(size=(3, 2))
        raw = rng.normal(size=(2, 2))
        C = raw @ raw.T
        Ft = fa_standardise(F, C)
        assert_allclose(Ft @ Ft.T, F @ C @ F.T, atol=1e-9)

    def test_zero_noise_square_loadings(self):
        rng = np.random.default_rng(9)
        F = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        raw = rng.normal(size=(2, 2))
        C = raw @ raw.T + 0.5 * np.eye(2)
        mean, cov = fa_marginal(F, C, np.zeros(2), np.array([1.0, -1.0]))
        assert_allclose(mean, [1.0, -1.0])
        assert_allclose(cov, F @ C @ F.T)

    def test_rejects_non_psd(self):
        with pytest.raises(ValidationError):
            fa_marginal(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
                        np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("eigenvalue, accepted", [(-1e-10, True), (-1e-8, False)])
    def test_marginal_and_standardise_share_the_psd_tolerance(self, eigenvalue, accepted):
        C = np.diag([1.0, eigenvalue])
        for call in (lambda: fa_marginal(np.eye(2), C, np.zeros(2), np.zeros(2)),
                     lambda: fa_standardise(np.eye(2), C)):
            if accepted:
                call()
            else:
                with pytest.raises(ValidationError, match="positive semi-definite"):
                    call()

    @pytest.mark.parametrize("C", [[[1.0, 0.5], [0.0, 1.0]],   # asymmetric
                                   [[1.0, 2.0], [2.0, 1.0]]])  # indefinite
    def test_standardise_rejects_bad_latent_covariance(self, C):
        with pytest.raises(ValidationError):
            fa_standardise(np.eye(2), np.array(C))


class TestCsvLoading:
    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,s,c\n0,1,1\n1,0,0\n")
        data = BinaryDataset.from_csv(path)
        assert data.columns == ("a", "s", "c")
        assert data.rows.tolist() == [[0, 1, 1], [1, 0, 0]]

    def test_binary_rejects_other_values(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\n2\n")
        with pytest.raises(ValidationError):
            BinaryDataset.from_csv(path)

    def test_spin_loader(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n-1,-1\n-1,1\n1,-1\n")
        assert load_spin_csv(path).tolist() == [[-1, -1], [-1, 1], [1, -1]]

    def test_ragged_row_names_path_and_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,s\n0,1\n\n1\n")
        with pytest.raises(ValidationError, match=r"d\.csv:4:"):
            BinaryDataset.from_csv(path)


def reference_read_csv(path, parse_row):
    """The CSV reader as a Python loop over ``csv.reader`` rows, one ``parse_row``
    call per nonempty data row: the reference for ``learning._read_csv``."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append(parse_row(row))
            except (ValueError, IndexError):
                raise ValidationError(f"{path}:{lineno}: cannot read row {','.join(row)!r}") from None
    return [h.strip() for h in header], rows


_POISSON = np.dtype([("x", float), ("y", int)])
# dtype -> (the reference's row parser, a strategy for one column's cell texts)
_CELLS = {
    "int": (lambda row: [int(x) for x in row],
            st.builds(lambda v, fmt: fmt.format(v), st.integers(-2**63, 2**63 - 1),
                      st.sampled_from(["{}", " {}", "{} ", "\t{} ", "+{}"]))),
    "float": (lambda row: [float(x) for x in row],
              st.builds(lambda v, fmt: fmt(v), st.floats(width=64),
                        st.sampled_from([repr, "%.6f".__mod__, "%.17g".__mod__]))),
}
# "\x1c1" and "1\x1f": NumPy pads cells with the ASCII separators, which int() and float() refuse.
_FAULTS = ["abc", "", "1.5", "1.0", "1e0", "1 0", "--1", "0x1", "1,0", "\x1c1", "1\x1f"]


@st.composite
def _csv_files(draw):
    """CSV text of one dtype, with CRLF or LF line ends, blank lines, quoted cells and,
    now and then, a fault: a bad cell or a row of another width."""
    kind = draw(st.sampled_from(["int", "float", "poisson"]))
    width = 2 if kind == "poisson" else draw(st.integers(1, 3))
    columns = [_CELLS["float"][1], _CELLS["int"][1]] if kind == "poisson" else [_CELLS[kind][1]] * width
    rows = draw(st.lists(st.tuples(*columns).map(list), min_size=1, max_size=6))
    if draw(st.booleans()):
        r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
        fault = draw(st.sampled_from(_FAULTS + ["ragged"]))
        rows[r] = rows[r][:c] if fault == "ragged" else rows[r][:c] + [fault] + rows[r][c + 1:]
    lines = [",".join(f"c{k}" for k in range(width))]
    for row in rows:
        lines += [""] * draw(st.integers(0, 1))
        quoted = draw(st.lists(st.booleans(), min_size=len(row), max_size=len(row)))
        lines.append(",".join(f'"{cell}"' if q else cell for cell, q in zip(row, quoted)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    return kind, "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=150, deadline=None)
@given(_csv_files())
@example(("int", 'c0\r\n"1,0"\r\n'))  # a quoted cell that holds the delimiter
@example(("float", 'c0\n1\n\x1d2\n'))
@example(("int", 'c0,c1\n1\n2\n'))  # every row one field short: NumPy reads it as one column
def test_read_csv_matches_the_row_loop(tmp_path_factory, case):
    kind, text = case
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode())
    if kind == "poisson":
        parse_row, dtype = (lambda row: (float(row[0]), int(row[1]))), _POISSON
    else:
        parse_row, dtype = _CELLS[kind][0], np.dtype(kind)
    try:
        header, rows = reference_read_csv(path, parse_row)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            learning._read_csv(path, dtype)
        assert str(info.value) == str(exc)
        return
    if not rows:  # the row loop read a header alone as no data
        with pytest.raises(ValidationError, match=" no data rows$"):
            learning._read_csv(path, dtype)
        return
    got_header, table = learning._read_csv(path, dtype)
    assert got_header == header
    expected = np.array(rows, dtype).reshape(len(rows), -1)
    assert table.dtype == dtype and table.shape == expected.shape
    assert table.tobytes() == expected.tobytes()
