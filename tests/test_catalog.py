"""Function families, presets, and the instability floor."""

import math
import tracemalloc

import numpy as np
import pytest

from gswf import bfn
from gswf.catalog import (
    FAMILIES,
    PRESETS,
    FamilySpec,
    binary_entropy,
    conjunction,
    constant,
    dictator,
    disjunction,
    eta,
    instability_cutoff,
    majority,
    make,
    parity,
    parse_function_spec,
    preset_gswf,
    threshold,
    tribes,
)
from gswf.dist import EvenProductDistribution
from gswf.errors import CapacityError, ValidationError
from gswf.rationality import w_formula, w_oracle

from conftest import tribes_table

UNIFORM = EvenProductDistribution.uniform()


class TestFamilies:
    def test_majority3_table(self):
        assert make(FamilySpec("majority", 3)).packed == 0b11101000

    def test_threshold_edges(self):
        assert make(FamilySpec("threshold", 3, threshold=0)).packed == 0xFF
        assert make(FamilySpec("threshold", 3, threshold=4)).packed == 0
        assert make(FamilySpec("and", 3)) == make(FamilySpec("threshold", 3, threshold=3))
        assert majority(5) == threshold(5, 3)

    def test_dictator(self):
        d = dictator(3, 2)
        assert [d(x) for x in range(8)] == [(x >> 1) & 1 for x in range(8)]
        with pytest.raises(ValidationError):
            dictator(3, 4)
        with pytest.raises(ValidationError):
            dictator(3, 0)

    def test_dictator_tables_match_the_shift_formula(self):
        # The table of voter v is bit v-1 of every input mask, byte for byte.
        for n in range(1, 13):
            x = np.arange(1 << n, dtype=np.int64)
            for v in range(1, n + 1):
                table = dictator(n, v).table
                assert table.dtype == np.uint8
                assert table.tobytes() == ((x >> (v - 1)) & 1).astype(np.uint8).tobytes()

    def test_majority_rejects_even(self):
        with pytest.raises(ValidationError):
            majority(4)

    def test_parity_and_constant(self):
        p = parity(2)
        assert [p(x) for x in range(4)] == [0, 1, 1, 0]
        c = make(FamilySpec("constant", 2, bit=1))
        assert c.packed == 0xF

    def test_tribes(self):
        t = tribes(4, 2)  # (x1 & x2) | (x3 & x4)
        expected = [(x & 0b0011) == 0b0011 or (x & 0b1100) == 0b1100 for x in range(16)]
        assert [t(x) for x in range(16)] == [int(v) for v in expected]
        # when the size divides n, within-tribe cycles plus the tribe swap
        # generate a transitive voter group leaving the function fixed
        t6 = tribes(6, 3)
        within = (1, 2, 0, 4, 5, 3)
        swap = (3, 4, 5, 0, 1, 2)
        assert bfn.is_invariant_under(t6, [within, swap])
        # uneven split pads the trailing tribe with the remaining voters
        t5 = tribes(5, 2)
        assert t5(0b10000) == 1  # the singleton last tribe fires on its own voter

    def test_tribes_match_the_masked_definition(self):
        cases = [(n, size) for n in range(1, 17) for size in range(1, n + 1)]
        cases += [(20, size) for size in (1, 3, 4, 20)]
        for n, size in cases:
            table = tribes(n, size).table
            assert table.tobytes() == tribes_table(n, size).tobytes(), (n, size)

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            make(FamilySpec("xor_tree", 3))

    def test_parse_function_spec(self):
        assert parse_function_spec("maj:3") == majority(3)
        assert parse_function_spec("thr:15:12") == threshold(15, 12)
        assert parse_function_spec("dict:4:2") == dictator(4, 2)
        assert parse_function_spec("hex:3:e8") == majority(3)
        with pytest.raises(ValidationError):
            parse_function_spec("maj")
        with pytest.raises(ValidationError):
            parse_function_spec("warp:3")
        with pytest.raises(ValidationError):
            parse_function_spec("thr:15")


class TestRegistry:
    def test_every_family_parses_under_its_head_and_name(self):
        extra = {"voter": 2, "threshold": 3, "tribe_size": 2, "bit": 1}
        for name, fam in FAMILIES.items():
            value = extra.get(fam.field)
            spec = FamilySpec(name, 5, **({} if value is None else {fam.field: value}))
            expected = make(spec)
            tail = "" if value is None else f":{value}"
            for head in (fam.head, name):
                assert parse_function_spec(f"{head}:5{tail}") == expected, (head, name)

    def test_every_listed_preset_builds(self):
        for name in PRESETS:
            assert preset_gswf(name, 5, q=0.2).n == 5

    def test_make_needs_the_family_field(self):
        with pytest.raises(ValidationError, match="dictator requires voter"):
            make(FamilySpec("dictator", 3))
        assert make(FamilySpec("majority", 3, voter=2)) == majority(3)


class TestPresets:
    def test_condorcet_matches_enumeration(self):
        gswf = preset_gswf("condorcet", 3)
        assert w_oracle(gswf, UNIFORM).w == pytest.approx(1 / 18, abs=1e-12)

    def test_split_dictators_base_only(self):
        res = w_formula(preset_gswf("split_dictators", 3), UNIFORM)
        assert res.w == pytest.approx(0.25, abs=1e-15)
        assert res.cross_terms == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_and_dual_majority_expectations(self):
        gswf = preset_gswf("and_dual_majority", 3)
        assert bfn.expectation(gswf.f) == 1 / 8
        assert bfn.expectation(gswf.g) == 7 / 8
        assert bfn.expectation(gswf.h) == 1 / 2
        assert gswf.g == disjunction(3)

    def test_alpha_half_extremal_uniform_value(self):
        assert w_formula(preset_gswf("alpha_half_extremal", 3), UNIFORM).w == pytest.approx(
            1 / 6, abs=1e-12
        )

    def test_structural_claims(self):
        m = majority(5)
        assert bfn.is_balanced(m) and bfn.is_monotone(m)
        assert bfn.is_self_dual(m) and bfn.is_cyclic_invariant(m)
        assert bfn.is_monotone(conjunction(4))
        gswf = preset_gswf("and_dual_majority", 5)
        assert bfn.expectation(gswf.g) == pytest.approx(
            1 - bfn.expectation(gswf.f), abs=1e-15
        )

    def test_threshold_instability_cutoffs(self):
        # ceiling of (1-q) n, guarded against float noise on exact integers
        assert instability_cutoff(5, 0.2) == 4
        assert instability_cutoff(9, 0.2) == 8
        assert instability_cutoff(15, 0.2) == 12
        assert instability_cutoff(20, 0.05) == 19
        gswf = preset_gswf("threshold_instability", 7, q=0.2)
        assert gswf.f == threshold(7, 6)
        assert gswf.g == bfn.dual(gswf.f)

    def test_preset_validation(self):
        with pytest.raises(ValidationError):
            preset_gswf("banzhaf", 3)
        with pytest.raises(ValidationError):
            preset_gswf("threshold_instability", 7, q=0.7)
        with pytest.raises(ValidationError):
            preset_gswf("split_dictators", 2)


class TestEta:
    def test_entropy_values(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy(0.2) == pytest.approx(0.7219280948873623, abs=1e-12)
        with pytest.raises(ValidationError):
            binary_entropy(0.0)

    def test_formula(self):
        for n, q in ((15, 0.2), (7, 0.3), (9, 0.1)):
            expected = 2.0 ** (n * (binary_entropy(q) - 1.0)) / (n + 1)
            assert eta(n, q) == pytest.approx(expected, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValidationError):
            eta(5, 0.5)
        with pytest.raises(ValidationError):
            eta(5, 0.0)
        with pytest.raises(ValidationError):
            eta(0, 0.2)

    def test_small_q_limit_shape(self):
        # as q drops the floor collapses toward 2^-n / (n+1)
        n = 9
        assert eta(n, 1e-9) == pytest.approx(2.0**-n / (n + 1), rel=1e-6)

    def test_expectation_floor_where_entropy_bound_applies(self):
        # the floor holds exactly when qn >= 1; below that the binomial
        # estimate has no content and genuinely fails
        for q in (0.1, 0.2, 0.3, 0.4):
            for n in range(3, 16, 2):
                gswf = preset_gswf("threshold_instability", n, q=q)
                mn = min(bfn.expectation(f) for f in gswf.functions)
                if math.floor(q * n) >= 1:
                    assert mn >= eta(n, q), (q, n)

    def test_floor_counterexamples_below_entropy_range(self):
        # documented small-n failures: qn < 1 at these points
        gswf = preset_gswf("threshold_instability", 3, q=0.2)
        assert min(bfn.expectation(f) for f in gswf.functions) < eta(3, 0.2)
        gswf = preset_gswf("threshold_instability", 7, q=0.1)
        assert min(bfn.expectation(f) for f in gswf.functions) < eta(7, 0.1)


class TestArityCeiling:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: majority(25),
            lambda: preset_gswf("condorcet", 25),
            lambda: threshold(25, 3),
            lambda: conjunction(25),
            lambda: disjunction(25),
            lambda: parity(25),
            lambda: dictator(25, 1),
            lambda: tribes(25, 5),
            lambda: constant(25, 1),
        ],
    )
    def test_rejected_before_any_table_is_allocated(self, build):
        # a 2^25 table would be 32 MiB; the ceiling must fire first
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
