"""A matrix shared across HMM steps is validated and stored once, with the
same checks and the same results as an explicit per-step list."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from pgmlab import cli
from pgmlab.errors import ValidationError
from pgmlab.modelio import parse_model_dict
from pgmlab.samplers import SeededRng
from pgmlab.sequential import DiscreteHmm, alpha_filter, ffbs_paths, smooth, viterbi

PRIOR = [0.3, 0.7]
GOOD = [[0.9, 0.1], [0.2, 0.8]]
BAD = {
    "row sum": ([[0.9, 0.2], [0.2, 0.8]], "rows of {} must sum to 1"),
    "negative": ([[1.5, -0.5], [0.2, 0.8]], "{} must have finite non-negative entries"),
    "nan": ([[float("nan"), 1.0], [0.2, 0.8]], "{} must have finite non-negative entries"),
}


def _documents(bad, which: str) -> list[dict]:
    """The fully shared and both mixed 2-D/3-D forms, with ``bad`` as the
    shared transition or emission matrix."""
    trans, emis = (bad, GOOD) if which == "transition" else (GOOD, bad)
    docs = [{"prior": PRIOR, "transitions": trans, "emissions": emis, "steps": 4}]
    if which == "transition":
        docs.append({"prior": PRIOR, "transitions": trans, "emissions": [GOOD] * 4})
    else:
        docs.append({"prior": PRIOR, "transitions": [GOOD] * 3, "emissions": emis})
    return docs


@pytest.mark.parametrize("which", ["transition", "emission"])
@pytest.mark.parametrize("kind", sorted(BAD))
def test_shared_matrix_still_rejected(which, kind):
    bad, message = BAD[kind]
    pattern = message.format(f"{which} matrix")
    trans, emis = (bad, GOOD) if which == "transition" else (GOOD, bad)
    with pytest.raises(ValidationError, match=pattern):
        DiscreteHmm.homogeneous(PRIOR, np.array(trans), np.array(emis), 1000)
    for doc in _documents(bad, which):
        with pytest.raises(ValidationError, match=pattern):
            parse_model_dict({"hmm": doc})


def test_one_bad_step_among_shared_ones_is_rejected():
    shared = np.array(GOOD)
    with pytest.raises(ValidationError, match="rows of transition matrix must sum to 1"):
        DiscreteHmm(PRIOR, [shared] * 5 + [BAD["row sum"][0]] + [shared] * 5, [shared] * 12)


def test_generator_inputs_are_accepted():
    rng = np.random.default_rng(3)
    mats = [rng.dirichlet(np.ones(2), size=2) for _ in range(7)]
    # Fresh lists from a generator: each must keep its own values.
    hmm = DiscreteHmm(PRIOR, (m.tolist() for m in mats), (m.tolist() for m in mats + [mats[0]]))
    assert hmm.n_steps == 8
    for got, want in zip(hmm.transitions, mats):
        assert_array_equal(got, want)
    with pytest.raises(ValidationError, match="must sum to 1"):
        DiscreteHmm(PRIOR, (m for m in [GOOD, BAD["row sum"][0]]), (m for m in [GOOD] * 3))


def test_ragged_per_step_emissions_still_filter(tmp_path, capsys):
    path = tmp_path / "ragged.model"
    path.write_text('{"hmm": {"prior": [0.5, 0.5], "transitions": [[0.9, 0.1], [0.2, 0.8]],'
                    ' "emissions": [[[1, 0], [0, 1]], [[0.5, 0.25, 0.25], [0.2, 0.2, 0.6]]]}}')
    assert cli.main(["hmm", "filter", "--model", str(path), "--obs", "0,2"]) == 0
    assert '"log_likelihood"' in capsys.readouterr().out


def test_homogeneous_holds_one_array_per_kind():
    hmm = DiscreteHmm.homogeneous(PRIOR, GOOD, GOOD, 1000)
    assert len({id(t) for t in hmm.transitions}) == 1
    assert len({id(e) for e in hmm.emissions}) == 1
    for doc in [{"prior": PRIOR, "transitions": GOOD, "emissions": GOOD, "steps": 50},
                {"prior": PRIOR, "transitions": GOOD, "emissions": [GOOD] * 50}]:
        parsed = parse_model_dict({"hmm": doc}).hmm
        assert parsed.n_steps == 50
        assert len({id(t) for t in parsed.transitions}) == 1


def test_homogeneous_matches_explicit_per_step_list_bit_for_bit():
    rng = np.random.default_rng(11)
    n, k = 200, 3
    prior = rng.dirichlet(np.ones(k))
    trans = rng.dirichlet(np.ones(k), size=k)
    emis = rng.dirichlet(np.ones(4), size=k)
    shared = DiscreteHmm.homogeneous(prior, trans, emis, n)
    explicit = DiscreteHmm(prior, [trans.copy() for _ in range(n - 1)],
                           [emis.copy() for _ in range(n)])
    obs = rng.integers(0, 4, size=n).tolist()

    (fa, la), (fb, lb) = alpha_filter(shared, obs), alpha_filter(explicit, obs)
    assert la == lb
    assert_array_equal(np.array(fa), np.array(fb))
    assert_array_equal(np.array(smooth(shared, obs)), np.array(smooth(explicit, obs)))
    assert viterbi(shared, obs) == viterbi(explicit, obs)
    assert_array_equal(ffbs_paths(shared, obs, SeededRng(5), 20),
                       ffbs_paths(explicit, obs, SeededRng(5), 20))
