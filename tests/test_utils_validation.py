"""Tests for repro.utils.validation and repro.utils.timing."""

import numpy as np
import pytest

from repro.core import (
    batched_parallel_idla,
    batched_sequential_idla,
    batched_uniform_idla,
    parallel_idla,
    sequential_idla,
    uniform_idla,
)
from repro.graphs import cycle_graph
from repro.utils.rng import spawn_seed_sequences
from repro.utils.timing import Stopwatch
from repro.utils.validation import (
    check_fraction,
    check_index,
    check_limit,
    check_nonnegative,
    check_positive,
    check_probability_vector,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.5)

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", bad)


class TestCheckNonnegative:
    def test_accepts_zero(self):
        check_nonnegative("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative("x", -1e-9)


class TestCheckLimit:
    def test_none_means_no_limit(self):
        assert check_limit("max_steps", None) == float("inf")

    @pytest.mark.parametrize("ok", [0, 5, 2.5, float("inf"), np.int64(3)])
    def test_accepts_nonnegative(self, ok):
        assert check_limit("max_steps", ok) == float(ok)

    @pytest.mark.parametrize("bad", [float("nan"), -1, -0.5, float("-inf")])
    def test_rejects_nan_and_negative(self, bad):
        with pytest.raises(ValueError, match="max_steps must be >= 0"):
            check_limit("max_steps", bad)


def _walk(**kw):
    from repro.walks.single import walk_until_hit

    return walk_until_hit(cycle_graph(8), 0, [4], seed=3, **kw)


#: (kwarg, driver call): every public entry point with a step/round/tick
#: budget, serial and batched.
BUDGETED = [
    ("max_total_steps", lambda **kw: sequential_idla(cycle_graph(8), 0, seed=1, **kw)),
    ("max_rounds", lambda **kw: parallel_idla(cycle_graph(8), 0, seed=1, **kw)),
    ("max_ticks", lambda **kw: uniform_idla(cycle_graph(8), 0, seed=1, **kw)),
    (
        "max_total_steps",
        lambda **kw: batched_sequential_idla(
            cycle_graph(8), reps=70, seed=1, **kw
        ),
    ),
    (
        "max_rounds",
        lambda **kw: batched_parallel_idla(cycle_graph(8), reps=5, seed=1, **kw),
    ),
    (
        "max_ticks",
        lambda **kw: batched_uniform_idla(cycle_graph(8), reps=5, seed=1, **kw),
    ),
    ("max_steps", _walk),
]
BUDGET_IDS = [
    "sequential", "parallel", "uniform", "batched-sequential",
    "batched-parallel", "batched-uniform", "walk_until_hit",
]


@pytest.mark.parametrize("bad", [float("nan"), -1], ids=["nan", "negative"])
@pytest.mark.parametrize("kwarg, run", BUDGETED, ids=BUDGET_IDS)
def test_nan_or_negative_budget_raises_naming_the_kwarg(kwarg, run, bad):
    """A NaN budget used to switch the step guard off (every
    ``count > nan`` is false) and run unbounded."""
    with pytest.raises(ValueError, match=f"{kwarg} must be >= 0"):
        run(**{kwarg: bad})


@pytest.mark.parametrize("kwarg, run", BUDGETED, ids=BUDGET_IDS)
def test_infinite_and_zero_budgets_stay_legal(kwarg, run):
    def plain(out):
        if isinstance(out, list):
            return [r.steps.tobytes() for r in out]
        return out if isinstance(out, int) else out.steps.tobytes()

    assert plain(run(**{kwarg: float("inf")})) == plain(run())
    with pytest.raises(RuntimeError, match=f"{kwarg}=0"):
        run(**{kwarg: 0})


class TestCheckFraction:
    def test_open_interval(self):
        check_fraction("p", 0.5)
        with pytest.raises(ValueError):
            check_fraction("p", 0.0)
        with pytest.raises(ValueError):
            check_fraction("p", 1.0)

    def test_inclusive(self):
        check_fraction("p", 0.0, inclusive=True)
        check_fraction("p", 1.0, inclusive=True)
        with pytest.raises(ValueError):
            check_fraction("p", 1.0001, inclusive=True)


class TestCheckIndex:
    def test_valid(self):
        assert check_index("v", 3, 10) == 3
        assert check_index("v", np.int64(0), 5) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_index("v", 10, 10)
        with pytest.raises(ValueError):
            check_index("v", -1, 10)

    def test_non_integer(self):
        with pytest.raises(ValueError):
            check_index("v", 1.5, 10)


class TestCheckProbabilityVector:
    def test_valid(self):
        out = check_probability_vector("pi", [0.25, 0.75])
        assert out.dtype == np.float64

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            check_probability_vector("pi", [-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            check_probability_vector("pi", [0.3, 0.3])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            check_probability_vector("pi", [[0.5, 0.5]])


class TestStopwatch:
    def test_measures_nonnegative(self):
        with Stopwatch() as sw:
            sum(range(100))
        assert sw.elapsed >= 0.0

    def test_running_state(self):
        sw = Stopwatch()
        assert not sw.running()
        with sw:
            assert sw.running()
        assert not sw.running()
