"""The verification battery: every check runs, reports honestly, and its
witness re-evaluates."""

import inspect
import json
import time
import tracemalloc

import numpy as np
import pytest

from gswf import bfn, theorems
from gswf.bfn import BooleanFunction
from gswf.catalog import eta
from gswf.dist import EvenProductDistribution
from gswf.errors import CapacityError, HypothesisViolation, ValidationError
from gswf.rationality import Gswf, biased_inner_product, w_formula, w_oracle
from gswf.search import ClassFilter, class_table
from gswf.theorems import (
    CHECKS,
    check_alpha_half_ceiling,
    check_arrow_sum_condition,
    check_balanced_bound,
    check_biased_product_sign,
    check_biased_product_sign_demo,
    check_dual_claim,
    check_fkg,
    check_formula_vs_oracle,
    check_instability_example,
    check_lemma_power_sums,
    check_lower_bound_biased,
    check_majority_stability,
    check_monotone_bound,
    check_neutral_symmetric_bound,
    check_w_prime_negative,
    majority_first_level_mass,
    reevaluate_witness,
    run_all,
    suite_passed,
    w_prime_first_level_bound,
)

UNIFORM = EvenProductDistribution.uniform()


def per_call_formula_vs_oracle(n_max, trials, dists, seed):
    """The formula-versus-oracle comparison one triple at a time, drawing
    from the generator in the same order as the check."""
    rng = np.random.default_rng(seed)
    worst, worst_wit = -1.0, None
    for n in range(1, n_max + 1):
        distributions = [
            EvenProductDistribution(*(rng.dirichlet((1.0, 1.0, 1.0)) / 2.0).tolist())
            for _ in range(dists)
        ]
        if n <= 2:
            pool = [BooleanFunction.from_packed(n, v) for v in range(1 << (1 << n))]
            triples = [(a, b, c) for a in pool for b in pool for c in pool]
        else:
            triples = [
                tuple(bfn.random_function(n, rng) for _ in range(3)) for _ in range(trials)
            ]
        for d in distributions:
            for fs in triples:
                diff = abs(w_formula(Gswf(*fs), d).w - w_oracle(Gswf(*fs), d).w)
                if diff > worst:
                    worst, worst_wit = diff, (fs, d)
    (f, g, h), d = worst_wit
    return {
        "name": "formula_vs_oracle",
        "lhs": worst,
        "rhs": 0.0,
        "margin": -worst,
        "tolerance": 1e-12,
        "passed": worst <= 1e-12,
        "inverted": False,
        "witness": {
            "kind": "w_triple",
            "value": w_formula(Gswf(f, g, h), d).w,
            "method": "formula",
            "dist": {"type": "even", "alpha": d.alpha, "beta": d.beta, "gamma": d.gamma},
            "n": f.n,
            "f": f.hex,
            "g": g.hex,
            "h": h.hex,
            "extra": {"worst_abs_diff": worst},
        },
    }


def per_pair_fkg(n):
    """The FKG check one monotone pair at a time, covariance then its
    reversal, the first minimum winning."""
    members = list(class_table(n, ClassFilter(("monotone",)))[0])
    pairs = [(f, g) for f in members for g in members]
    scale = float(1 << n)
    worst = None
    for f, g in pairs:
        ef, eg = bfn.expectation(f), bfn.expectation(g)
        cov = float(np.dot(f.table.astype(np.float64), g.table.astype(np.float64))) / scale
        cov -= ef * eg
        g_dec = BooleanFunction(n, 1 - g.table)
        mixed = float(np.dot(f.table.astype(np.float64), g_dec.table.astype(np.float64))) / scale
        rev = ef * bfn.expectation(g_dec) - mixed
        for orientation, value, other in (("increasing", cov, g), ("reversed", rev, g_dec)):
            if worst is None or value < worst[0]:
                worst = (value, orientation, f, other)
    value, orientation, f, g = worst
    return {
        "name": "fkg",
        "lhs": value,
        "rhs": 0.0,
        "margin": value,
        "tolerance": 1e-12,
        "passed": value >= -1e-12,
        "inverted": False,
        "witness": {
            "kind": "covariance_pair",
            "value": value,
            "n": n,
            "f": f.hex,
            "g": g.hex,
            "orientation": orientation,
            "extra": {"pairs": len(pairs)},
        },
    }


class TestIndividualChecks:
    def test_formula_vs_oracle_equals_per_call_loop(self):
        got = check_formula_vs_oracle(n_max=3, trials=25, dists=5, seed=11).to_json_dict()
        assert got == per_call_formula_vs_oracle(n_max=3, trials=25, dists=5, seed=11)

    def test_formula_vs_oracle_passes(self):
        r = check_formula_vs_oracle(n_max=3, trials=25, dists=5, seed=11)
        assert r.passed and r.lhs <= 1e-12

    @pytest.mark.parametrize(
        "kwargs, text",
        [
            ({"n_max": 9}, "oracle tables for 60 rows at n=9 would exceed 128 MiB"),
            ({"n_max": 3, "trials": 10**6}, "oracle tables for 1000000 rows at n=3 would exceed"),
            ({"dists": 10**9}, "dists limited to 1000, got 1000000000$"),
        ],
    )
    def test_formula_vs_oracle_sizes_every_arity_before_drawing(self, monkeypatch, kwargs, text):
        # the oracle's size rule and the law count are checked for every n
        # before the first draw or oracle call, not when the first oversized
        # n comes up
        def unreachable(*args, **kwargs):
            raise AssertionError("reached past the size check")

        monkeypatch.setattr(theorems, "w_oracle_batch", unreachable)
        monkeypatch.setattr(np.random, "default_rng", unreachable)
        t0 = time.perf_counter()
        with pytest.raises(CapacityError, match=f"^{text}"):
            check_formula_vs_oracle(**kwargs)
        assert time.perf_counter() - t0 < 0.1

    def test_monotone_bound_uniform(self):
        r = check_monotone_bound(n=3)
        assert r.passed
        extra = r.witness["extra"]
        # the bound is tight: independent per-voter dictators sit exactly on it
        assert extra["split_dictators_w_minus_base"] == pytest.approx(0.0, abs=1e-15)
        assert extra["balanced_max_w"] == pytest.approx(0.25, abs=1e-12)
        assert extra["monotone_count"] == 20

    def test_monotone_bound_refuses_outside_hypothesis(self):
        with pytest.raises(HypothesisViolation):
            check_monotone_bound(n=3, d=EvenProductDistribution(0.5, 0.0, 0.0))
        with pytest.raises(HypothesisViolation):
            check_monotone_bound(n=2, d=EvenProductDistribution(0.3, 0.1, 0.1))

    def test_biased_product_sign(self):
        r = check_biased_product_sign(n=3)
        assert r.passed and r.lhs >= -1e-12

    def test_biased_product_sign_past_enumeration_is_a_capacity_error(self):
        # class enumeration refuses n = 5 before it allocates 2^32 tables
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="full enumeration is limited to n <= 4"):
                check_biased_product_sign(n=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_biased_product_sign_demo_finds_violation(self):
        r = check_biased_product_sign_demo()
        assert r.inverted and r.passed
        assert r.lhs == pytest.approx(-0.25, abs=1e-12)  # worst non-monotone pair

    def test_fkg(self):
        r = check_fkg(n=3)
        assert r.passed
        r4 = check_fkg(n=4)
        assert r4.passed

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fkg_equals_per_pair_loop(self, n):
        got = check_fkg(n=n).to_json_dict()
        assert got == per_pair_fkg(n)

    def test_balanced_bound_exhaustive_n2(self):
        r = check_balanced_bound(n=2)
        assert r.passed
        assert r.lhs == pytest.approx(1 / 3, abs=1e-12)  # attained, below 3/8
        extra = r.witness["extra"]
        assert extra["pseudo_extremal_w"] == pytest.approx(3 / 8, abs=1e-12)
        assert extra["first_level_example_w"] == pytest.approx(1 / 3, abs=1e-12)
        assert extra["second_level_example_w"] == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("n, scanned", [(3, 70**3)])
    def test_balanced_bound_scans_every_triple_within_the_budget(self, n, scanned):
        # 70^3 balanced triples fit search.TRIPLE_BUDGET
        r = check_balanced_bound(n=n)
        assert r.passed and r.witness["extra"]["triples_scanned"] == scanned

    @pytest.mark.parametrize("n", [4, 20])
    def test_balanced_bound_past_the_budget_is_refused_at_once(self, n):
        # 12870^3 balanced triples at n = 4 exceed search.TRIPLE_BUDGET, and
        # n = 20 is past class enumeration; neither is sampled instead
        t0 = time.perf_counter()
        with pytest.raises(CapacityError):
            check_balanced_bound(n)
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize(
        "check, params",
        [
            (check_lemma_power_sums, []),
            (check_majority_stability, []),
            (check_neutral_symmetric_bound, ["d"]),
            (check_alpha_half_ceiling, ["seed"]),
            (check_balanced_bound, ["n"]),
        ],
        ids=lambda v: v.__name__ if callable(v) else None,
    )
    def test_battery_grids_are_not_parameters(self, check, params):
        # the grids, sample counts and arity lists are module constants
        assert list(inspect.signature(check).parameters) == params

    def test_lemma_power_sums(self):
        r = check_lemma_power_sums()
        assert r.passed
        assert r.witness["extra"]["boundary_max_dev"] <= 1e-12

    def test_lemma_power_sums_scans_the_per_point_powers(self, monkeypatch):
        # x^e and y^e are gathered from the axis powers; every gap must
        # equal the per-point x^3 + y^3 + z^3 - (x^e + y^e + z^e) bit for bit.
        scanned, first_optimum = [], theorems.first_optimum

        def capture(blocks, maximize):
            blocks = list(blocks)
            scanned.extend(blocks)
            return first_optimum(blocks, maximize)

        monkeypatch.setattr(theorems, "first_optimum", capture)
        check_lemma_power_sums()
        axis = np.arange(-200, 201, dtype=np.float64) / 200
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        Z = 1.0 - X - Y
        ok = np.abs(Z) <= 1.0 + 1e-15
        x, y, z = X[ok], Y[ok], Z[ok]
        cubes = x**3 + y**3 + z**3
        assert [k for k, _ in scanned] == list(range(1, 7))
        for k, gaps in scanned:
            e = 2 * k + 1
            assert gaps.tobytes() == (cubes - (x**e + y**e + z**e)).tobytes()

    def test_lemma_power_sums_report_is_the_per_point_reference(self):
        # each power taken at every grid point, and the first strict minimum
        # over k, then over the grid in C order
        axis = np.arange(-200, 201, dtype=np.float64) / 200
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        Z = 1.0 - X - Y
        ok = np.abs(Z) <= 1.0 + 1e-15
        x, y, z = X[ok], Y[ok], Z[ok]
        cubes = x**3 + y**3 + z**3
        best = None
        for k in range(1, 7):
            e = 2 * k + 1
            gaps = cubes - (x**e + y**e + z**e)
            t = int(np.argmin(gaps))
            if best is None or gaps[t] < best[0]:
                best = (float(gaps[t]), k, t)
        value, k, t = best
        e = 13
        boundary = np.max(np.abs((1.0 + axis**3 + (-axis) ** 3) - (1.0 + axis**e + (-axis) ** e)))
        r = check_lemma_power_sums()
        w = r.witness
        assert sorted(w) == ["extra", "k", "kind", "value", "x", "y", "z"]
        assert r.lhs == r.margin == w["value"] == value
        assert (w["k"], w["x"], w["y"], w["z"]) == (k, float(x[t]), float(y[t]), float(z[t]))
        assert w["extra"] == {"grid_points": len(z), "boundary_max_dev": float(boundary)}
        # the documented witness
        assert (value, k) == (-8.881784197001252e-16, 5)
        assert (w["x"], w["y"], w["z"]) == (-0.995, 1.0, 0.9950000000000001)

    @pytest.mark.parametrize(
        "check, kwargs, name",
        [
            (check_formula_vs_oracle, {"trials": 0}, "trials"),
            (check_formula_vs_oracle, {"n_max": 0}, "n_max"),
            (check_formula_vs_oracle, {"dists": 0}, "dists"),
            (check_formula_vs_oracle, {"dists": 2.0}, "dists"),
        ],
    )
    def test_bad_sizes_name_the_parameter(self, check, kwargs, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer >= 1"):
            check(**kwargs)

    def test_neutral_symmetric_bound_equality_at_three(self):
        r = check_neutral_symmetric_bound()
        assert r.passed
        rows = {row["n"]: row for row in r.witness["extra"]["rows"]}
        assert rows[3]["w"] == pytest.approx(rows[3]["rhs"], abs=1e-12)
        for n, row in rows.items():
            assert row["d_m"] == pytest.approx(row["d_m_spectral"], abs=1e-12)

    def test_neutral_symmetric_bound_degenerate_distribution(self):
        # quarter corner kills the cubic factor, the floor collapses to zero
        r = check_neutral_symmetric_bound(d=EvenProductDistribution(0.25, 0.25, 0.0))
        assert r.passed
        assert r.witness["extra"]["cubic_factor"] == pytest.approx(0.0, abs=1e-12)

    def test_majority_first_level_mass(self):
        assert majority_first_level_mass(3) == pytest.approx(3 / 16, abs=1e-15)

    def test_majority_stability(self):
        r = check_majority_stability()
        assert r.passed is (r.margin >= -r.tolerance)
        errors = r.witness["extra"]["errors"]
        # per-rho error shrinks with the arity
        assert errors["11"][1] < errors["3"][1]

    def test_majority_checks_read_levels(self, butterfly_lengths):
        # Majority's levels come from its weight profile: no dense spectrum
        # is transformed past 64 entries, or held (2^19 float64 = 4 MiB).
        for check in (check_majority_stability, check_neutral_symmetric_bound):
            tracemalloc.start()
            try:
                assert check().passed
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 << 20, check.__name__
        assert max(butterfly_lengths, default=0) <= 64

    def test_dual_claim(self):
        r = check_dual_claim()
        assert r.passed and r.lhs <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lower_bound_biased(self, n):
        r = check_lower_bound_biased(n=n)
        assert r.passed
        extra = r.witness["extra"]
        assert extra["strict_min_nonconstant_interior"] > 0
        assert extra["constant_equality_max_dev"] <= 1e-12
        # the nested strict witness re-evaluates to the strict minimum, bit for bit
        strict = extra["strict_witness"]
        f, g = (BooleanFunction.from_hex(n, strict[k]) for k in "fg")
        p1, p2 = bfn.expectation(f), bfn.expectation(g)
        slack = biased_inner_product(
            bfn.walsh_transform(f), bfn.walsh_transform(g), strict["delta"]
        ) + min(p1 * p2, (1 - p1) * (1 - p2))
        assert slack == extra["strict_min_nonconstant_interior"]

    def test_lower_bound_biased_refuses_n4_before_allocating(self):
        # n = 4 would need a 65536 x 65536 floor matrix (32 GiB)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="n <= 3"):
                check_lower_bound_biased(n=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert check_lower_bound_biased(n=3).passed

    def test_arrow_sum_condition(self):
        r = check_arrow_sum_condition()
        assert r.passed
        # worst eligible triple pinned by the exhaustive scan
        assert r.lhs == pytest.approx(7 / 36, abs=1e-12)

    def test_w_prime_negative_demo(self):
        r = check_w_prime_negative()
        assert r.inverted and r.passed
        assert w_prime_first_level_bound(61) < 0
        assert w_prime_first_level_bound(3) == pytest.approx(5 / 64, abs=1e-12)
        extra = r.witness["extra"]
        assert extra["first_negative_n"] == 57
        assert extra["scan_peak_n"] == 3
        assert extra["decreasing_from_peak_to_min"]

    def test_w_prime_bound_rejects_even_arity(self):
        with pytest.raises(ValidationError):
            w_prime_first_level_bound(10)

    def test_alpha_half_ceiling(self):
        r = check_alpha_half_ceiling(seed=2)
        assert r.passed
        assert r.lhs == pytest.approx(0.5, abs=1e-12)  # equality attained
        assert r.witness["extra"]["equality_attained"]
        assert r.witness["extra"]["class_size"] == 24


class TestInstabilityCheck:
    def test_envelope_and_exponent_parts_hold(self):
        r = check_instability_example()
        extra = r.witness["extra"]
        for row in extra["and_rows"]:
            assert 0 < row["w"] <= row["cap"]
        for row in extra["exponent_rows"]:
            assert row["gap"] > 0
        for row in extra["threshold_rows"]:
            if row["floor_asserted"]:
                assert row["min_expectation"] >= row["eta"]

    def test_ratio_clause_fails_at_documented_steps(self):
        # the realized threshold fraction ceil((1-q) n) / n oscillates, so
        # W / eta is not monotone on this list; the check reports it honestly
        r = check_instability_example()
        assert not r.passed
        failing = {
            (s["from_n"], s["to_n"])
            for s in r.witness["extra"]["ratio_steps"]
            if s["decrease"] <= 0
        }
        assert failing == {(9, 11), (13, 15)}

    def test_ratio_values_pinned(self):
        r = check_instability_example()
        rows = {row["n"]: row for row in r.witness["extra"]["threshold_rows"]}
        assert rows[15]["w"] == pytest.approx(5.204710e-03, rel=1e-5)
        assert rows[15]["eta"] == pytest.approx(eta(15, 0.2), rel=1e-15)
        assert rows[15]["cutoff"] == 12


class TestSuite:
    def test_run_all_sorted_and_deterministic(self):
        reports = run_all(seed=7, names=("dual_claim", "arrow_sum_condition", "balanced_bound"))
        assert [r.name for r in reports] == sorted(r.name for r in reports)
        again = run_all(seed=7, names=("dual_claim", "arrow_sum_condition", "balanced_bound"))
        assert [json.dumps(r.to_json_dict(), sort_keys=True) for r in reports] == [
            json.dumps(r.to_json_dict(), sort_keys=True) for r in again
        ]

    def test_unknown_check_rejected(self):
        with pytest.raises(ValidationError):
            run_all(names=("no_such_check",))

    def test_repeated_check_rejected(self):
        # a check named twice would run twice and print two identical reports
        with pytest.raises(ValidationError, match="more than once: fkg$"):
            run_all(names=("fkg", "dual_claim", "fkg"))

    def test_registry_covers_every_check(self):
        assert set(CHECKS) == {
            "formula_vs_oracle",
            "monotone_bound",
            "biased_product_sign",
            "biased_product_sign_nonmonotone_demo",
            "fkg",
            "balanced_bound",
            "lemma_power_sums",
            "neutral_symmetric_bound",
            "majority_stability",
            "dual_claim",
            "lower_bound_biased",
            "arrow_sum_condition",
            "w_prime_negative_demo",
            "instability_example",
            "alpha_half_ceiling",
        }

    def test_suite_passed_ignores_inverted(self):
        reports = run_all(seed=7, names=("w_prime_negative_demo", "dual_claim"))
        assert suite_passed(reports)

    def test_every_witness_reevaluates(self):
        reports = run_all(seed=7)
        for r in reports:
            recomputed = reevaluate_witness(r)
            claimed = r.witness["value"]
            assert recomputed == pytest.approx(
                claimed, abs=max(r.tolerance, 1e-12)
            ), r.name

    @pytest.mark.parametrize("seed", [3, 7])
    def test_every_witness_reevaluates_exactly(self, seed):
        # every reported value is the re-evaluation of its witness, bit for bit
        for r in run_all(seed=seed):
            assert reevaluate_witness(r) == r.witness["value"], r.name

    def test_pass_iff_margin_clears_tolerance(self):
        for r in run_all(seed=7):
            assert r.passed == (r.margin >= -r.tolerance)

    def test_witness_payloads_are_json_serializable(self):
        for r in run_all(seed=7, names=("balanced_bound", "instability_example")):
            json.dumps(r.to_json_dict())
