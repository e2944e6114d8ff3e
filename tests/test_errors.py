"""Every entry point refuses a bad argument with the rule's one check in
gswf.errors: a ValidationError naming the parameter, never a TypeError or
numpy's ValueError, whatever class_table's cache holds."""

import math

import pytest

from gswf import catalog
from gswf.bfn import BooleanFunction
from gswf.dist import EvenProductDistribution
from gswf.errors import CapacityError, ValidationError, check_count, check_same_arity, check_unit
from gswf.rationality import Gswf, w_monte_carlo
from gswf.search import ClassFilter, class_table, extremal_w, random_search
from gswf.theorems import check_fkg, majority_self_correlation, run_all

UNIFORM = EvenProductDistribution.uniform()
BALANCED = ClassFilter(("balanced",))
MONOTONE = ClassFilter(("monotone",))
MAJORITY = Gswf(*(catalog.majority(3),) * 3)


def _search(trials, seed):
    return random_search(2, (BALANCED,) * 3, UNIFORM, "max_w", trials, seed)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("trials", lambda: _search(2.5, 1), id="random_search-trials-2.5"),
        pytest.param("trials", lambda: _search(True, 1), id="random_search-trials-True"),
        pytest.param("seed", lambda: _search(5, -1), id="random_search-seed--1"),
        pytest.param("seed", lambda: _search(5, 1.5), id="random_search-seed-1.5"),
        pytest.param("samples", lambda: w_monte_carlo(MAJORITY, UNIFORM, 2.5, 1),
                     id="w_monte_carlo-samples-2.5"),
        pytest.param("samples", lambda: w_monte_carlo(MAJORITY, UNIFORM, True, 1),
                     id="w_monte_carlo-samples-True"),
        pytest.param("seed", lambda: w_monte_carlo(MAJORITY, UNIFORM, 10, -1),
                     id="w_monte_carlo-seed--1"),
        pytest.param("seed", lambda: run_all(seed=-1, names=["fkg"]), id="run_all-seed--1"),
        pytest.param("arity", lambda: BooleanFunction(True, [0, 1]), id="BooleanFunction-True"),
        pytest.param("arity", lambda: extremal_w(True, BALANCED, BALANCED, BALANCED, UNIFORM, "max_w"),
                     id="extremal_w-True"),
        pytest.param("rho", lambda: majority_self_correlation(3, 2.0), id="majority-rho-2.0"),
        pytest.param("rho", lambda: majority_self_correlation(3, math.nan), id="majority-rho-nan"),
        pytest.param("n", lambda: catalog.eta(2.5, 0.2), id="eta-n-2.5"),
    ],
)
def test_bad_library_arguments_name_the_parameter(name, call, warm):
    class_table.cache_clear()
    if warm:
        for n in (1, 2, 3):
            class_table(n, BALANCED)
            class_table(n, MONOTONE)
    with pytest.raises(ValidationError, match=f"^{name} must"):
        call()


def test_a_warm_class_table_cache_keeps_the_arity_check():
    # 3.0 == 3 and hash equally: an untyped cache would hand back the n = 3 table
    class_table(3, MONOTONE)
    class_table(2, BALANCED)
    with pytest.raises(ValidationError, match="^arity must be an integer, got 3.0"):
        check_fkg(n=3.0)
    with pytest.raises(ValidationError, match="^arity must be an integer, got 2.0"):
        extremal_w(2.0, BALANCED, BALANCED, BALANCED, UNIFORM, "max_w")


@pytest.mark.parametrize(
    "check, args, error, text",
    [
        (check_count, ("trials", 0), ValidationError, "trials must be an integer >= 1, got 0"),
        (check_count, ("seed", -1, 0), ValidationError, "seed must be an integer >= 0, got -1"),
        (check_count, ("seed", False, 0), ValidationError, "seed must be an integer >= 0, got False"),
        (check_count, ("samples", 11, 1, 10), CapacityError, "samples limited to 10, got 11"),
        (check_unit, ("eps", -1.5), ValidationError, "eps must lie in [-1, 1], got -1.5"),
        (check_same_arity, (7, 7, 9), ValidationError, "arities differ: 7, 7, 9"),
    ],
)
def test_each_rule_has_one_message(check, args, error, text):
    with pytest.raises(error) as exc:
        check(*args)
    assert str(exc.value) == text
