"""Parameter estimation: CPT counting (MLE and Bayesian), Bernoulli and
Gaussian estimators, score matching for log-linear models, the two-variable
Ising MLE, and factor-analysis marginal utilities.

CPT parent configurations are indexed with the first parent varying
fastest, matching the factor-table layout, so a node with parents (p1, p2)
has configuration index s = state(p1) + card(p1) * state(p2).

Data CSVs have a header row and at least one data row, and every cell must
be a number of its column's type, as NumPy's C reader (``numpy.loadtxt``)
reads it: ASCII text, an int cell without point or exponent (``1.0`` is
refused), quoted or not.  Blank lines are skipped.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .errors import NumericError, SingularMatrixError, ValidationError
from .graphs import Dag
from .numerics import entries_in, finite_array, matrix_sqrt_psd, positive, psd_eigendecomposition

if TYPE_CHECKING:
    from .sequential import Gaussian1


@dataclass(frozen=True)
class BinaryDataset:
    """Rectangular 0/1 data with named columns, one row per observation."""

    columns: tuple[str, ...]
    rows: np.ndarray

    def __init__(self, columns: Sequence[str], rows):
        cols = tuple(str(c) for c in columns)
        if len(set(cols)) != len(cols):
            raise ValidationError("duplicate column names")
        arr = entries_in(rows, (0, 1), "entries must be 0 or 1")
        if arr.ndim != 2 or arr.shape[1] != len(cols):
            raise ValidationError("rows must form a rectangular table matching the columns")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "rows", arr)

    @classmethod
    def from_csv(cls, path) -> "BinaryDataset":
        return cls(*_read_csv(path))

    def column(self, name: str) -> np.ndarray:
        try:
            return self.rows[:, self.columns.index(name)]
        except ValueError:
            raise ValidationError(f"no column {name!r}") from None

    def __len__(self) -> int:
        return self.rows.shape[0]


def _read_csv(path, dtype=int) -> tuple[list[str], np.ndarray]:
    """Header names and the data rows as one ``dtype`` table with a row per
    nonempty data row and a column per header field.

    ``csv.reader`` reads the header and NumPy's C reader the rest, in one
    call (see :func:`_loadtxt`); blank lines are skipped.  A structured
    ``dtype`` reads one field per column into a single table column.  A file
    that cannot be opened or decoded, has no header or no data rows, or has a
    row of another width or one that cannot be read raises
    :class:`ValidationError`, naming ``path`` (and ``path:line`` for a row).
    """
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if header is None:
        raise ValidationError(f"{path}: empty file")
    fields = len(np.dtype(dtype).names or ()) or 1  # header columns per table column
    try:
        table = _loadtxt(text, dtype)
    except (ValueError, Warning):
        table = None
    if table is None or table.shape[1] * fields != len(header):
        _first_fault(path, len(header), text, dtype)
        # Reached only if csv.reader and NumPy's reader split the rows differently.
        raise ValidationError(f"{path}: cannot read the data rows")
    return [h.strip() for h in header], table


def _loadtxt(text: str, dtype) -> np.ndarray:
    """NumPy's C reader on the CSV lines ``text``: every cell must be an ASCII
    number of its column's type, quoted or not.  NumPy's int parser reads some
    non-ASCII letters as digits (U+01FE as 462), it pads cells with the ASCII
    separators U+001C-U+001F, which Python's ``int`` and ``float`` refuse, and
    NumPy 1.23-1.26 read ``1.5`` as the int 1 with a DeprecationWarning: all
    are refused, and so is ``text`` with no rows, on which NumPy warns."""
    if not text.isascii() or any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        raise ValueError("non-ASCII or separator character")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(io.StringIO(text, newline=""), dtype, delimiter=",", comments=None,
                          quotechar='"', ndmin=2)


def _first_fault(path, width: int, text: str, dtype) -> None:
    """Raise the first fault of the data rows ``text`` below a header of ``width``
    fields, in file order: they are read again row by row, and line numbers count
    blank lines.  Called only once :func:`_read_csv`'s one-call read has refused them."""
    rows = 0
    for lineno, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=2):
        if not row:
            continue
        if len(row) != width:
            raise ValidationError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        # Each cell quoted, so NumPy reads the cells csv.reader split and no more.
        try:
            _loadtxt(",".join('"' + cell.replace('"', '""') + '"' for cell in row), dtype)
        except (ValueError, Warning):
            raise ValidationError(f"{path}:{lineno}: cannot read row {','.join(row)!r}") from None
        rows += 1
    if not rows:
        raise ValidationError(f"{path}: no data rows")


def load_spin_csv(path) -> np.ndarray:
    """Read a CSV of -1/+1 entries as an int table, one column per header field."""
    _, table = _read_csv(path)
    return entries_in(table, (-1, 1), "spin entries must be -1 or +1")


@dataclass(frozen=True)
class CptCell:
    """Counts and estimate for one (node, parent configuration) cell.

    ``theta`` is None when the parent configuration never occurs, making
    the maximum-likelihood estimate undefined.
    """

    theta: float | None
    ones: int
    zeros: int

    @property
    def defined(self) -> bool:
        return self.theta is not None


@dataclass(frozen=True)
class CptEstimate:
    cells: Mapping[str, tuple[CptCell, ...]]

    def table(self, node: str) -> tuple[CptCell, ...]:
        return self.cells[node]


@dataclass(frozen=True)
class BetaParams:
    """Beta(alpha, beta) parameters; the mean is the posterior predictive."""

    alpha: float
    beta: float

    def __post_init__(self):
        positive(self.alpha, "alpha")
        positive(self.beta, "beta")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


@dataclass(frozen=True)
class CptPosterior:
    cells: Mapping[str, tuple[BetaParams, ...]]

    def table(self, node: str) -> tuple[BetaParams, ...]:
        return self.cells[node]

    def predictive(self, node: str) -> tuple[float, ...]:
        return tuple(c.mean for c in self.cells[node])


def _cell_counts(dag: Dag, data: BinaryDataset) -> dict[str, list[tuple[int, int]]]:
    missing = set(dag.nodes) - set(data.columns)
    if missing:
        raise ValidationError(f"data lacks columns for nodes {sorted(missing)}")
    counts: dict[str, list[tuple[int, int]]] = {}
    for node in dag.nodes:
        parents = dag.parents_of(node)
        # Cell 2 s + x counts the rows with parent configuration s and
        # child x; the first parent varies fastest in s.
        cell = data.column(node) + sum(2 ** (k + 1) * data.column(p) for k, p in enumerate(parents))
        zeros, ones = np.bincount(cell, minlength=2 ** (len(parents) + 1)).reshape(-1, 2).T
        counts[node] = list(zip(ones.tolist(), zeros.tolist()))
    return counts


def fit_cpt_mle(dag: Dag, data: BinaryDataset) -> CptEstimate:
    """Per-cell maximum likelihood ratios n1 / (n1 + n0); cells whose parent
    configuration never occurs stay explicitly undefined."""
    counts = _cell_counts(dag, data)
    cells = {
        node: tuple(
            CptCell(n1 / (n1 + n0) if n1 + n0 > 0 else None, n1, n0)
            for n1, n0 in pairs
        )
        for node, pairs in counts.items()
    }
    return CptEstimate(cells)


def fit_cpt_bayes(dag: Dag, data: BinaryDataset, alpha0: float, beta0: float) -> CptPosterior:
    """Posterior Beta(alpha0 + n1, beta0 + n0) per cell under independent
    Beta priors shared across all cells."""
    positive(alpha0, "alpha0")
    positive(beta0, "beta0")
    counts = _cell_counts(dag, data)
    cells = {
        node: tuple(BetaParams(alpha0 + n1, beta0 + n0) for n1, n0 in pairs)
        for node, pairs in counts.items()
    }
    return CptPosterior(cells)


def bernoulli_mle(data: Sequence[int]) -> float:
    values = entries_in(data, (0, 1), "entries must be 0 or 1")
    if values.size == 0:
        raise ValidationError("empty data")
    return int(values.sum()) / values.size


def gaussian_mle(data: Sequence[float]) -> tuple[float, float]:
    """Sample mean and variance with divisor n (the joint maximiser)."""
    arr = finite_array(list(data), "data")
    if arr.size == 0:
        raise ValidationError("empty data")
    mean = float(arr.mean())
    return mean, float(((arr - mean) ** 2).mean())


def gaussian_mean_posterior(data: Sequence[float], sigma2: float, prior: Gaussian1) -> Gaussian1:
    """Posterior of a Gaussian mean with known observation variance.

    The likelihood contributes an effective Gaussian N(xbar, sigma2/n) that
    multiplies the prior.  Empty data returns the prior unchanged.
    """
    from .sequential import Gaussian1, gaussian_product

    positive(sigma2, "sigma2")
    arr = finite_array(list(data), "data")
    if arr.size == 0:
        return prior
    likelihood = Gaussian1(float(arr.mean()), sigma2 / arr.size)
    return gaussian_product(prior, likelihood)


def _as_points(data) -> np.ndarray:
    """Shape data as (n_points, n_dims); 1-D input means n scalar points."""
    points = finite_array(data, "data")
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ValidationError("data must be a vector or a matrix of points")
    return points


def _score_stats(stat_gradients: Callable, stat_curvatures: Callable, data) -> tuple[np.ndarray, np.ndarray]:
    """The score-matching statistics (r, M): r averages each statistic's
    summed curvatures over the points, M averages the gradient Gram matrix.

    When both callables carry a ``batch`` form (points -> n x K x m arrays)
    it is called once on all points; otherwise each callable is called per
    point and must return a K x m array.
    """
    points = _as_points(data)
    n = points.shape[0]
    if n == 0:
        raise ValidationError("empty data")
    batch_grad = getattr(stat_gradients, "batch", None)
    batch_curv = getattr(stat_curvatures, "batch", None)
    if batch_grad is not None and batch_curv is not None:
        k = np.asarray(batch_grad(points), dtype=float)
        h = np.asarray(batch_curv(points), dtype=float)
    else:
        k = np.stack([np.atleast_2d(np.asarray(stat_gradients(x), dtype=float)) for x in points])
        h = np.stack([np.atleast_2d(np.asarray(stat_curvatures(x), dtype=float)) for x in points])
    if k.ndim != 3 or k.shape != h.shape:
        raise ValidationError("gradient and curvature arrays must have equal shape")
    r = h.sum(axis=(0, 2)) / n
    flat = k.transpose(1, 0, 2).reshape(k.shape[1], -1)
    return r, flat @ flat.T / n


def score_matching_fit(
    stat_gradients: Callable[[np.ndarray], np.ndarray],
    stat_curvatures: Callable[[np.ndarray], np.ndarray],
    data: np.ndarray,
) -> np.ndarray:
    """Fit a log-linear model without its partition function.

    ``stat_gradients(x)`` and ``stat_curvatures(x)`` return K x m arrays of
    first and second coordinate-wise derivatives of the K sufficient
    statistics at one point.  The objective is the quadratic form
    theta.r + theta.M theta / 2 with r the averaged summed curvatures and
    M the averaged gradient Gram matrix; the minimiser solves M theta = -r.
    When both callables carry a ``batch`` attribute mapping an n x m array
    of points to n x K x m arrays, it replaces the per-point calls.
    """
    r, m = _score_stats(stat_gradients, stat_curvatures, data)
    if not np.all(np.isfinite(m)) or np.linalg.matrix_rank(m) < m.shape[0]:
        raise SingularMatrixError("design matrix M is singular")
    return np.linalg.solve(m, -r)


def score_matching_objective(
    stat_gradients: Callable[[np.ndarray], np.ndarray],
    stat_curvatures: Callable[[np.ndarray], np.ndarray],
    data: np.ndarray,
    theta: np.ndarray,
) -> float:
    """Evaluate the quadratic score-matching objective at ``theta``."""
    r, m = _score_stats(stat_gradients, stat_curvatures, data)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return float(theta @ r + 0.5 * theta @ m @ theta)


def gaussian_quadratic_stats() -> tuple[Callable, Callable]:
    """Gradient/curvature evaluators for the single statistic F(x) = x^2.

    Each also carries a ``batch`` form over an n x m array of points."""
    grad = lambda x: np.array([[2.0 * float(np.atleast_1d(x)[0])]])
    curv = lambda x: np.array([[2.0]])
    grad.batch = lambda points: 2.0 * points[:, :1, None]
    curv.batch = lambda points: np.full((points.shape[0], 1, 1), 2.0)
    return grad, curv


# -- two-variable Ising model -------------------------------------------------


def ising2_logZ(theta: float) -> float:
    """Partition function of p(x1,x2) ~ exp(theta x1 x2 + x1 + x2) on {-1,1}^2:
    Z = 2 e^{-theta} + e^{theta+2} + e^{theta-2}, evaluated in the log domain."""
    terms = np.array([-theta + math.log(2.0), theta + 2.0, theta - 2.0])
    peak = terms.max()
    return float(peak + np.log(np.exp(terms - peak).sum()))


def ising2_moment(theta: float) -> float:
    """d logZ / d theta, the model expectation of x1*x2."""
    logz = ising2_logZ(theta)
    return float(
        -2.0 * math.exp(-theta - logz)
        + math.exp(theta + 2.0 - logz)
        + math.exp(theta - 2.0 - logz)
    )


def ising2_mle(data: np.ndarray, lo: float = -20.0, hi: float = 20.0, tol: float = 1e-10) -> float:
    """Maximum likelihood coupling: solve moment(theta) = mean(x1*x2) by
    bisection.  The empirical moment must lie strictly inside (-1, 1); at
    the boundary the MLE diverges."""
    positive(tol, "tol")
    lo, hi = float(finite_array(lo, "lo")), float(finite_array(hi, "hi"))
    arr = entries_in(data, (-1, 1), "entries must be -1 or +1")
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValidationError("data must be nonempty pairs")
    target = float((arr[:, 0] * arr[:, 1]).mean())
    if not -1.0 < target < 1.0:
        raise NumericError(f"empirical moment {target} is on the boundary; the MLE diverges")
    f = lambda th: ising2_moment(th) - target
    flo, fhi = f(lo), f(hi)
    if flo > 0 or fhi < 0:
        raise NumericError("bisection bracket does not enclose the root")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats: tol is below their spacing
            break
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- factor analysis ----------------------------------------------------------


def fa_marginal(F: np.ndarray, C: np.ndarray, psi_diag: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the visibles: (c, F C F^T + diag(psi))."""
    F = finite_array(F, "F")
    C = finite_array(C, "C")
    psi = finite_array(psi_diag, "psi").reshape(-1)
    c = finite_array(c, "c").reshape(-1)
    if F.ndim != 2:
        raise ValidationError("F must be a matrix")
    d, h = F.shape
    if C.shape != (h, h):
        raise ValidationError("C must be square over the latent dimension")
    if psi.size != d or c.size != d:
        raise ValidationError("psi and c must match the visible dimension")
    if np.any(psi < 0):
        raise ValidationError("psi must be non-negative")
    psd_eigendecomposition(C)  # validates C
    return c, F @ C @ F.T + np.diag(psi)


def fa_standardise(F: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Absorb a latent covariance into the loadings: F C^{1/2} reproduces the
    same visible covariance with identity latents."""
    F = finite_array(F, "F")
    C = finite_array(C, "C")
    if F.ndim != 2 or C.shape != (F.shape[1], F.shape[1]):
        raise ValidationError("shape mismatch between F and C")
    return F @ matrix_sqrt_psd(C)

