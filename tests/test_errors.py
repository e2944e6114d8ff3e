"""Every entry point refuses a bad argument with the rule's one check in
gswf.errors: a ValidationError naming the parameter, never a TypeError or
numpy's ValueError, whatever class_table's cache holds."""

import math

import pytest

from gswf import catalog, theorems
from gswf.bfn import BooleanFunction, evaluate
from gswf.dist import EvenProductDistribution, TripleDistribution
from gswf.errors import (
    CapacityError,
    ValidationError,
    check_below_half,
    check_count,
    check_odd,
    check_open_unit,
    check_range,
    check_same_arity,
    check_unit,
    float_array,
)
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
        pytest.param("tribe_size", lambda: catalog.tribes(4, 2.0), id="tribes-size-2.0"),
        pytest.param("k", lambda: catalog.threshold(3, 2.0), id="threshold-k-2.0"),
        pytest.param("voter", lambda: catalog.dictator(3, True), id="dictator-voter-True"),
        pytest.param("voter", lambda: catalog.dictator(3, 1.0), id="dictator-voter-1.0"),
        pytest.param("bit", lambda: catalog.constant(3, True), id="constant-bit-True"),
        pytest.param("voter", lambda: catalog.preset_gswf("dictator_triple", 3, voter=True),
                     id="dictator_triple-voter-True"),
        pytest.param("x", lambda: evaluate(catalog.majority(3), 2.5), id="evaluate-x-2.5"),
        pytest.param("x", lambda: evaluate(catalog.majority(3), True), id="evaluate-x-True"),
        pytest.param("packed value", lambda: BooleanFunction.from_packed(3, 2.0),
                     id="from_packed-2.0"),
        pytest.param("packed value", lambda: BooleanFunction.from_packed(3, True),
                     id="from_packed-True"),
        pytest.param("n", lambda: theorems.majority_first_level_mass(2.5),
                     id="majority_first_level_mass-2.5"),
        pytest.param("n", lambda: theorems.majority_first_level_mass(-1),
                     id="majority_first_level_mass--1"),
        pytest.param("n", lambda: theorems.w_prime_first_level_bound(2.5),
                     id="w_prime_first_level_bound-2.5"),
        pytest.param("n", lambda: theorems.w_prime_first_level_bound(-3),
                     id="w_prime_first_level_bound--3"),
        pytest.param("n", lambda: theorems.pseudo_extremal_spectra(3.0),
                     id="pseudo_extremal_spectra-3.0"),
        pytest.param("n", lambda: theorems.second_level_example(3.0),
                     id="second_level_example-3.0"),
        # an int past Python's 4300-digit str limit is shown by its bit length
        pytest.param("x", lambda: evaluate(catalog.majority(3), 1 << 20000), id="evaluate-x-huge"),
        pytest.param("voter", lambda: catalog.dictator(3, -(1 << 20000)), id="dictator-voter-huge"),
        pytest.param("n", lambda: catalog.majority(1 << 20000), id="majority-n-huge"),
        # a real-valued parameter past the float range
        pytest.param("alpha", lambda: EvenProductDistribution(1 << 20000, 0, 0),
                     id="EvenProductDistribution-alpha-huge"),
        pytest.param("probabilities", lambda: TripleDistribution([1 << 20000, 0, 0, 0, 0, 0]),
                     id="TripleDistribution-huge"),
        pytest.param("expectation_range", lambda: ClassFilter(("balanced",), (1 << 20000, 1)),
                     id="ClassFilter-window-huge"),
        pytest.param("entropy argument", lambda: catalog.binary_entropy(1 << 20000),
                     id="binary_entropy-huge"),
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
    with pytest.raises(ValidationError, match="^arity must be an integer >= 1, got 3.0"):
        check_fkg(n=3.0)
    with pytest.raises(ValidationError, match="^arity must be an integer >= 1, got 2.0"):
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
        (check_range, ("voter", 0, 1, 3), ValidationError, "voter must be an integer in 1..3, got 0"),
        (check_range, ("voter", 4, 1, 3), ValidationError, "voter must be an integer in 1..3, got 4"),
        (check_odd, ("n", 4), ValidationError, "n must be an odd integer >= 1, got 4"),
        (check_below_half, ("q", 0.5), ValidationError,
         "q must lie strictly between 0 and 1/2, got 0.5"),
        (check_count, ("trials", 1 << 20000, 1, 10), CapacityError,
         "trials limited to 10, got <int of 20001 bits>"),
        (check_open_unit, ("entropy argument", 1.0), ValidationError,
         "entropy argument must be in (0, 1), got 1.0"),
        (float_array, ("alpha", -(1 << 20000)), ValidationError,
         "alpha must lie within the float range, got -<int of 20001 bits>"),
        (float_array, ("expectation_range", (0, 1 << 20000)), ValidationError,
         "expectation_range must lie within the float range, got [0, <int of 20001 bits>]"),
    ],
)
def test_each_rule_has_one_message(check, args, error, text):
    with pytest.raises(error) as exc:
        check(*args)
    assert str(exc.value) == text


def test_a_huge_packed_value_is_refused_without_printing_it():
    # str() of an int of more than 4300 digits raises a bare ValueError
    with pytest.raises(ValidationError, match="^packed value out of range for n=24$"):
        BooleanFunction.from_packed(24, 1 << (1 << 24))
