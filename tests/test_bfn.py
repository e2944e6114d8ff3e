"""Truth tables, transforms and structural predicates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gswf import bfn
from gswf.bfn import (
    BooleanFunction,
    PseudoSpectrum,
    WalshSpectrum,
    dual,
    evaluate,
    expectation,
    inverse_walsh_transform,
    is_balanced,
    is_cyclic_invariant,
    is_invariant_under,
    is_monotone,
    is_self_dual,
    level_weights,
    walsh_transform,
    walsh_transform_naive,
)
from gswf.catalog import (
    conjunction,
    constant,
    dictator,
    disjunction,
    majority,
    parity,
    threshold,
    tribes,
)
from gswf.errors import CapacityError, ValidationError

from conftest import (
    fraction_spectrum,
    int32_butterfly,
    invariant_table,
    level_sums_route,
    permuted_inputs,
    random_junta,
    subcube,
)


def all_functions(n):
    return [BooleanFunction.from_packed(n, v) for v in range(1 << (1 << n))]


class TestTables:
    def test_evaluate_examples(self):
        and3 = conjunction(3)
        assert evaluate(and3, 0b111) == 1
        assert evaluate(and3, 0b011) == 0
        ones = BooleanFunction(2, [1, 1, 1, 1])
        assert all(evaluate(ones, x) == 1 for x in range(4))

    def test_evaluate_out_of_range(self):
        with pytest.raises(ValidationError):
            evaluate(conjunction(3), 8)
        with pytest.raises(ValidationError):
            evaluate(conjunction(3), -1)

    def test_table_validation(self):
        with pytest.raises(ValidationError):
            BooleanFunction(2, [0, 1, 2, 0])
        with pytest.raises(ValidationError):
            BooleanFunction(2, [0, 1, 0])
        with pytest.raises(ValidationError):
            BooleanFunction(0, [1])
        with pytest.raises(ValidationError):
            BooleanFunction(1, [0.7, 0.3])  # non-integral values never truncate
        with pytest.raises(ValidationError):
            BooleanFunction(1, [-1, 1])
        assert BooleanFunction(1, [0.0, 1.0]) == BooleanFunction(1, [0, 1])

    def test_arity_ceiling(self, monkeypatch):
        monkeypatch.setattr(bfn, "N_MAX", 3)
        with pytest.raises(CapacityError):
            BooleanFunction(4, np.zeros(16, dtype=np.uint8))

    def test_hex_round_trip(self):
        maj3 = majority(3)
        assert maj3.hex == "e8"
        assert BooleanFunction.from_hex(3, "e8") == maj3
        f = BooleanFunction(1, [1, 0])
        assert BooleanFunction.from_hex(1, f.hex) == f

    def test_packed_round_trip(self):
        for v in range(16):
            assert BooleanFunction.from_packed(2, v).packed == v

    @pytest.mark.parametrize("digits", ["0x7f", "+7f", "7_f", " 7f", "7f\n", "", "\u0667f"])
    def test_from_hex_reads_hex_digits_only(self, digits):
        # int(digits, 16) alone reads every one of these as 0x7f.
        with pytest.raises(ValidationError):
            BooleanFunction.from_hex(3, digits)

    def test_hex_and_hash_read_the_packed_bytes(self, rng):
        assert BooleanFunction(1, [1, 0]).hex == "1"
        assert BooleanFunction(2, [0, 0, 0, 1]).hex == "8"
        assert BooleanFunction(1, [0, 0]) != BooleanFunction(2, [0, 0, 0, 0])
        for n in range(1, 13):
            width = ((1 << n) + 3) // 4
            for _ in range(5):
                f = bfn.random_function(n, rng)
                assert f.hex == format(f.packed, f"0{width}x")
                assert f.packed_bytes == np.packbits(f.table, bitorder="little").tobytes()
                for g in (
                    BooleanFunction.from_hex(n, f.hex),
                    BooleanFunction.from_hex(n, f.hex.upper()),
                    BooleanFunction.from_packed(n, f.packed),
                    BooleanFunction(n, f.table.copy()),
                ):
                    assert g == f and hash(g) == hash(f)
                    assert np.array_equal(g.table, f.table) and not g.table.flags.writeable


def float_reference(tables):
    # The float per-voter pass; products by +-1 are exact, so it adds and
    # subtracts exactly like a float butterfly.
    n = tables.shape[-1].bit_length() - 1
    kernel = [[1.0, 1.0], [-1.0, 1.0]]
    return bfn.per_voter_pass(tables.astype(np.float64), kernel) / float(1 << n)


class TestTransform:
    def test_dictator_n1(self):
        s = walsh_transform(dictator(1, 1))
        assert np.allclose(s.coeffs, [0.5, 0.5], atol=1e-15)

    def test_constant_one_n2(self):
        s = walsh_transform(BooleanFunction(2, [1, 1, 1, 1]))
        assert np.allclose(s.coeffs, [1, 0, 0, 0], atol=1e-15)

    def test_majority3_against_direct_summation(self):
        # independent expected values: exact rational double loop
        maj3 = majority(3)
        expected = [float(c) for c in fraction_spectrum(maj3.table, 3)]
        got = walsh_transform(maj3).coeffs
        assert np.allclose(got, expected, atol=1e-15)
        singles = [got[1 << i] for i in range(3)]
        assert np.allclose(singles, 0.25, atol=1e-15)
        assert got[0b111] == pytest.approx(-0.25, abs=1e-15)
        assert got[0b011] == got[0b101] == got[0b110] == 0.0

    def test_fast_equals_naive_exhaustive_small(self):
        for n in (1, 2, 3):
            for f in all_functions(n):
                fast = walsh_transform(f).coeffs
                naive = walsh_transform_naive(f).coeffs
                assert np.max(np.abs(fast - naive)) < 1e-12

    def test_fast_equals_naive_random_n10(self, rng):
        n = 10
        R = bfn.character_table(n)
        tables = rng.integers(0, 2, size=(1000, 1 << n)).astype(np.float64)
        naive = tables @ R.T / (1 << n)
        for row, expect in zip(tables, naive):
            f = BooleanFunction(n, row.astype(np.uint8))
            assert np.max(np.abs(walsh_transform(f).coeffs - expect)) < 1e-12

    def test_round_trip_exhaustive_small(self):
        for n in (1, 2, 3):
            for f in all_functions(n):
                values = inverse_walsh_transform(walsh_transform(f))
                assert np.max(np.abs(values - f.table)) < 1e-12

    def test_round_trip_random_n12(self, rng):
        f = bfn.random_function(12, rng)
        values = inverse_walsh_transform(walsh_transform(f))
        assert np.max(np.abs(values - f.table)) < 1e-12

    def test_inverse_of_unit_spectra(self):
        # mean-only spectrum gives the all-ones table
        s = PseudoSpectrum(2, [1.0, 0, 0, 0])
        assert np.allclose(inverse_walsh_transform(s), 1.0)
        # top character alone takes values in {-1, 1}
        s = PseudoSpectrum(2, [0, 0, 0, 1.0])
        values = inverse_walsh_transform(s)
        assert sorted(set(values.tolist())) == [-1.0, 1.0]
        # r1 r2 = +1 exactly when the two bits agree
        assert values[0b00] == values[0b11] == 1.0

    @given(st.integers(1, 8), st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_parseval_property(self, n, seed):
        table = np.random.default_rng(seed).integers(0, 2, size=1 << n, dtype=np.uint8)
        f = BooleanFunction(n, table)
        s = walsh_transform(f)
        assert np.max(np.abs(inverse_walsh_transform(s) - table)) < 1e-12
        assert abs(float(np.sum(s.coeffs**2)) - expectation(f)) < 1e-12

    def test_per_voter_pass_is_the_analysis_butterfly(self, rng):
        # The float pass is the independent reference for the integer
        # kernel that walsh_coeffs runs on 0/1 tables.
        for n in range(1, 15):
            for rows in (7, 8):
                tables = rng.integers(0, 2, size=(rows, 1 << n), dtype=np.uint8)
                got = bfn.walsh_coeffs(tables)
                assert got.tobytes() == float_reference(tables).tobytes()
        tables = rng.integers(0, 2, size=(3, 5, 64), dtype=np.uint8)
        expected = float_reference(tables).tobytes()
        assert bfn.walsh_coeffs(tables.astype(bool)).tobytes() == expected
        # nested lists of uint8 rows, as the sampled search stacks them
        assert bfn.walsh_coeffs([list(stack) for stack in tables]).tobytes() == expected

    @pytest.mark.parametrize("n", [23, 24])
    def test_int32_kernel_headroom(self, rng, n):
        # The all-ones table reaches the largest partial sum, 2^n.
        for table in (
            rng.integers(0, 2, size=1 << n, dtype=np.uint8),
            np.ones(1 << n, dtype=np.uint8),
        ):
            expected = (int32_butterfly(table) / float(1 << n)).tobytes()
            assert bfn.walsh_coeffs(table).tobytes() == expected

    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    def test_int16_tier_ends_before_it_could_wrap(self, rng, n):
        # Voters 0..13 run in int16 and the rest in int32; an int32-only
        # butterfly gives the same sums, and the all-ones table reaches the
        # largest, 2^n, in entry 0.
        for tables in (
            np.ones(1 << n, dtype=np.uint8),
            rng.integers(0, 2, size=(3, 1 << n), dtype=np.uint8),
        ):
            expected = int32_butterfly(tables)
            got = bfn.integer_spectrum(tables)
            assert got.dtype == (np.int16 if n <= 14 else np.int32)
            assert got.astype(np.int32).tobytes() == expected.tobytes()
            assert bfn.walsh_coeffs(tables).tobytes() == (expected / float(1 << n)).tobytes()
        assert bfn.integer_spectrum(np.ones(1 << n, dtype=np.uint8))[0] == 1 << n

    def test_integer_entries_outside_zero_one_take_the_float_route(self, butterfly_lengths):
        # 255 * 2^24 would overflow int32; no entry may wrap.
        n = 24
        expected = np.zeros(1 << n)
        expected[0] = 255.0
        got = bfn.walsh_coeffs(np.full(1 << n, 255, dtype=np.uint8))
        assert got.tobytes() == expected.tobytes()
        del got, expected
        row = np.array([-3, 1, 0, -7, 2, 5, -1, 4], dtype=np.int64)
        got = bfn.walsh_coeffs(row)
        assert got.tobytes() == float_reference(row).tobytes()
        assert np.array_equal(got, bfn.character_table(3) @ row / 8.0)
        assert butterfly_lengths == []

    @pytest.mark.parametrize("n", [3, 8, 13, 16, 22])
    def test_float_route_is_the_per_voter_pass(self, rng, n, butterfly_lengths):
        # The float butterfly adds exactly what one +-1 voter pass per voter
        # adds, in the same order, signed zeros included.
        rows = 1 if n == 22 else 3
        stacks = [rng.normal(size=(rows, 1 << n))]
        if n < 22:
            stacks += [
                rng.integers(-9, 10, size=(rows, 1 << n), dtype=np.int64),
                np.full((rows, 1 << n), 255, dtype=np.uint8),
                np.where(rng.random((rows, 1 << n)) < 0.5, -0.0, 0.0),
            ]
        for tables in stacks:
            assert bfn.walsh_coeffs(tables).tobytes() == float_reference(tables).tobytes()
        assert butterfly_lengths == []

    def test_empty_stacks_transform_to_empty_stacks(self):
        for tables in (np.zeros((0, 8), dtype=np.uint8), np.zeros((2, 0, 4))):
            assert bfn.walsh_coeffs(tables).shape == tables.shape

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    @pytest.mark.parametrize("rows", [1, 2, 4097])
    def test_per_voter_pass_stack_is_row_by_row(self, rng, k, rows):
        # The row-major broadcast kernel the stack-major pass replaced: the
        # same elementwise products and sums, so the same bits.
        def row_major(row, kern):
            n = row.size.bit_length() - 1
            cur = row
            for i in range(n):
                v = cur.reshape(1 << (n - i - 1), 2, 1, k**i)
                cur = v[:, 0] * kern[:, :1] + v[:, 1] * kern[:, 1:]
            return cur.ravel()

        kernel = rng.normal(size=(k, 2))
        values = rng.normal(size=(rows, 8))
        got = bfn.per_voter_pass(values, kernel)
        assert got.shape == (rows, k**3) and got.flags.c_contiguous
        for r in range(0, rows, 97):
            one = bfn.per_voter_pass(values[r], kernel)
            assert one.tobytes() == got[r].tobytes() == row_major(values[r], kernel).tobytes()
        # a non-contiguous stack and an integer one go through the same kernel
        wide = np.repeat(values, 2, axis=-1)[:, ::2]
        assert not wide.flags.c_contiguous
        assert bfn.per_voter_pass(wide, kernel).tobytes() == got.tobytes()
        bits = (values > 0).astype(np.uint8)
        assert (
            bfn.per_voter_pass(bits, kernel).tobytes()
            == bfn.per_voter_pass(bits.astype(np.float64), kernel).tobytes()
        )

    def test_per_voter_pass_digit_order(self):
        # a 3x2 kernel on two voters: output digit d_1 + 3 d_2, voter 1 lowest
        kernel = np.array([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
        values = np.array([1.0, 10.0, 100.0, 1000.0])
        got = bfn.per_voter_pass(values, kernel)
        for d1 in range(3):
            for d2 in range(3):
                expect = sum(
                    values[x] * kernel[d1, x & 1] * kernel[d2, x >> 1] for x in range(4)
                )
                assert got[d1 + 3 * d2] == expect
        with pytest.raises(ValidationError):
            bfn.per_voter_pass(values, np.ones((2, 3)))

    def test_boolean_check_on_a_stack_with_two_leading_axes(self, rng):
        spectra = bfn.walsh_coeffs(rng.integers(0, 2, size=(3, 2, 4)))
        spectra[2, 1] = [0.25, 0.5, 0.0, 0.0]
        with pytest.raises(ValidationError, match=r"sum of squares 0\.3125 != mean 0\.25"):
            bfn.check_boolean_spectra(spectra)

    def test_boolean_check_reads_integer_spectra_exactly(self, rng):
        # 2^n times the coefficients: the same refusal, from int64 sums
        spectra = bfn.integer_spectrum(rng.integers(0, 2, size=(3, 2, 4)))
        bfn.check_boolean_spectra(spectra)
        spectra[2, 1] = [1, 2, 0, 0]
        with pytest.raises(ValidationError, match=r"sum of squares 0\.3125 != mean 0\.25"):
            bfn.check_boolean_spectra(spectra)

    def test_walsh_spectrum_rejects_non_boolean_consistency(self):
        with pytest.raises(ValidationError):
            WalshSpectrum(2, [0.5, 0.5, 0.5, 0.5])
        # the same numbers are fine as an unconstrained coefficient vector
        PseudoSpectrum(2, [0.5, 0.5, 0.5, 0.5])

    def test_a_caller_held_array_is_copied(self):
        coeffs = np.array([0.5, 0.5, 0.0, 0.0])
        s = WalshSpectrum(2, coeffs)
        coeffs[:] = 7.0
        assert s.coeffs.tolist() == [0.5, 0.5, 0.0, 0.0]
        assert not s.coeffs.flags.writeable
        # a read-only view is copied too: its base may still be written
        view = np.array([0.0, 0.25, 0.25, 0.0, 0.0])[1:]
        view.setflags(write=False)
        s = PseudoSpectrum(2, view)
        view.base[1:] = 7.0
        assert s.coeffs.tolist() == [0.25, 0.25, 0.0, 0.0]
        # a frozen array that owns its data is kept as it is
        frozen = np.array([0.5, 0.0, 0.5, 0.0])
        frozen.setflags(write=False)
        assert WalshSpectrum(2, frozen).coeffs is frozen


def assert_spectrum_bytes(f):
    # walsh_transform must reproduce the reference butterfly exactly.
    got = walsh_transform(f).coeffs
    assert got.tobytes() == bfn.walsh_coeffs(f.table).tobytes()


class TestStructuredSpectra:
    def test_catalog_families_are_bit_identical(self):
        for n in range(1, 13):
            family = [threshold(n, k) for k in range(n + 2)]
            family += [dual(f) for f in family]
            family += [parity(n), conjunction(n), disjunction(n)]
            family += [dictator(n, v) for v in range(1, n + 1)]
            family += [tribes(n, size) for size in range(1, n + 1)]
            if n % 2:
                family.append(majority(n))
            for f in family:
                assert_spectrum_bytes(f)

    def test_constants(self, butterfly_lengths):
        for n in range(1, 13):
            for bit in (0, 1):
                f = constant(n, bit)
                assert_spectrum_bytes(f)
                coeffs = walsh_transform(f).coeffs
                assert coeffs[0] == bit and not coeffs[1:].any()
                # Up to n = 6 the level sums run the butterfly; past it a
                # constant is read as symmetric and runs none.
                assert level_sums_route([f], butterfly_lengths) == ([1 << n] if n <= 6 else [])

    def test_random_juntas(self, rng):
        for n in range(1, 13):
            for size in range(1, min(4, n) + 1):
                for _ in range(4):
                    voters = sorted(rng.choice(n, size=size, replace=False).tolist())
                    assert_spectrum_bytes(random_junta(n, voters, rng))

    def test_flipped_symmetric_table_takes_the_dense_path(self, rng, butterfly_lengths):
        # One entry of weight 2..n-2 flipped: every voter still matters and
        # the weight profile no longer describes the table.  A constant
        # profile gives a point function, whose one entry may lie past any
        # short prefix.
        for n in range(4, 13):
            for profile in (
                rng.integers(0, 2, size=n + 1, dtype=np.uint8),
                np.zeros(n + 1, dtype=np.uint8),
                np.ones(n + 1, dtype=np.uint8),
            ):
                table = profile[bfn.mask_levels(n)].copy()
                weight = int(rng.integers(2, n - 1))
                x = int(rng.choice(np.flatnonzero(bfn.mask_levels(n) == weight)))
                table[x] ^= 1
                butterfly_lengths.clear()
                assert_spectrum_bytes(BooleanFunction(n, table))
                assert butterfly_lengths == [1 << n, 1 << n]

    def test_random_tables(self, rng):
        for n in range(1, 13):
            for _ in range(6):
                assert_spectrum_bytes(bfn.random_function(n, rng))

    def test_relevant_voters_match_the_flip_rule(self, rng):
        # Voter i is relevant iff table[x] != table[x ^ 2^i] for some x.
        for n in range(7, 15):
            x = np.arange(1 << n)
            fs = [bfn.random_function(n, rng), threshold(n, n // 2), constant(n, 1)]
            for size in range(1, 7):
                voters = sorted(rng.choice(n, size=size, replace=False).tolist())
                fs.append(random_junta(n, voters, rng))
            for f in fs:
                t = f.table
                expected = tuple(i for i in range(n) if np.any(t != t[x ^ (1 << i)]))
                assert bfn.read_structure(f)[1] == expected

    def test_structure_of_symmetric_tables(self):
        for n in range(7, 13):
            for f in (constant(n, 0), constant(n, 1), threshold(n, 3), parity(n)):
                levels, relevant = bfn.read_structure(f)
                coeffs = walsh_transform(f).coeffs
                assert levels.tobytes() == coeffs[(1 << np.arange(n + 1)) - 1].tobytes()
                assert relevant == (() if bfn.is_constant(f) else tuple(range(n)))
        # Up to 64 entries nothing is read.
        assert bfn.read_structure(dictator(6, 2)) == (None, tuple(range(6)))

    def test_symmetric_levels_at_every_arity(self, rng):
        for n in range(1, 13):
            family = [threshold(n, k) for k in range(n + 2)]
            family += [dual(f) for f in family]
            family += [parity(n), conjunction(n), disjunction(n), constant(n, 0), constant(n, 1)]
            if n % 2:
                family.append(majority(n))
            for f in family:
                gathered = bfn.walsh_coeffs(f.table)[(1 << np.arange(n + 1)) - 1]
                assert bfn.symmetric_levels(f).tobytes() == gathered.tobytes()
            others = [dictator(n, v) for v in range(1, n + 1) if n > 1]
            others += [tribes(n, size) for size in range(2, n)]
            others += [bfn.random_function(n, rng) for _ in range(3) if n > 4]
            for f in others:
                assert bfn.symmetric_levels(f) is None, f

    def test_word_symmetry_test_is_the_gather_definition(self, rng):
        # f is symmetric iff its weight profile, gathered by input weight,
        # is its table.  Past 64 entries symmetric_levels compares packed
        # words instead; one flipped bit in the first word, the last word
        # or anywhere must be seen exactly when the gather sees it.
        for n in range(1, 13):
            size = 1 << n
            weights = bfn.mask_levels(n)
            corners = (1 << np.arange(n + 1)) - 1
            profiles = [rng.integers(0, 2, size=n + 1, dtype=np.uint8) for _ in range(4)]
            profiles += [np.zeros(n + 1, dtype=np.uint8), np.ones(n + 1, dtype=np.uint8)]
            for profile in profiles:
                tables = [profile[weights]]
                for lo, hi in ((0, min(64, size)), (max(0, size - 64), size), (0, size)):
                    table = profile[weights].copy()
                    table[int(rng.integers(lo, hi))] ^= 1
                    tables.append(table)
                for table in tables:
                    f = BooleanFunction(n, table)
                    levels = bfn.symmetric_levels(f)
                    gathered = np.array_equal(table[corners][weights], table)
                    assert (levels is not None) == gathered, (n, f)
                    if gathered:
                        expected = bfn.walsh_coeffs(table)[corners]
                        assert levels.tobytes() == expected.tobytes()

    def test_symmetric_function_is_the_gathered_table(self, rng):
        for n in range(1, 15):
            for profile in (
                rng.integers(0, 2, size=n + 1, dtype=np.uint8),
                np.arange(n + 1) & 1,
                np.arange(n + 1) >= n // 2,
                np.zeros(n + 1, dtype=np.uint8),
            ):
                expected = np.asarray(profile, dtype=np.uint8)[bfn.mask_levels(n)]
                f = bfn.symmetric_function(n, profile)
                assert f.table.dtype == np.uint8 and not f.table.flags.writeable
                assert f.table.tobytes() == expected.tobytes()
                assert f.packed_bytes == np.packbits(expected, bitorder="little").tobytes()
                assert f == BooleanFunction(n, expected) and hash(f) == hash(BooleanFunction(n, expected))
        for n, profile in ((3, [0, 1, 1]), (7, [0] * 7), (7, [0, 2, 0, 0, 0, 0, 0, 1]), (7, [0.5] * 8)):
            with pytest.raises(ValidationError):
                bfn.symmetric_function(n, profile)

    def test_fast_paths_skip_the_full_butterfly(self, butterfly_lengths):
        # The level sums of a symmetric function run no butterfly, and those
        # of a dictator one on its restriction to its voter.
        assert level_sums_route([majority(21)], butterfly_lengths) == []
        assert level_sums_route([dictator(20, 7)], butterfly_lengths) == [2]


class TestDerivedQuantities:
    def test_expectation_examples(self):
        assert expectation(conjunction(3)) == 1 / 8
        assert expectation(majority(3)) == 1 / 2
        expected = sum(math.comb(15, j) for j in range(12, 16)) / 2**15
        assert expectation(threshold(15, 12)) == expected
        assert float(walsh_transform(majority(3)).coeffs[0]) == pytest.approx(
            1 / 2, abs=1e-12
        )

    def test_level_weights_examples(self):
        assert np.allclose(
            level_weights(walsh_transform(dictator(3, 1))), [0.25, 0.25, 0, 0], atol=1e-15
        )
        # majority weights derived from its exact spectrum
        s = fraction_spectrum(majority(3).table, 3)
        by_level = [0.0] * 4
        for mask in range(8):
            by_level[bin(mask).count("1")] += float(s[mask]) ** 2
        assert np.allclose(
            level_weights(walsh_transform(majority(3))), by_level, atol=1e-15
        )
        w = level_weights(walsh_transform(parity(2)))
        assert np.allclose(w, [0.25, 0, 0.25], atol=1e-15)

    def test_level_weights_are_the_level_sums_of_the_squares(self, rng):
        spectra = [walsh_transform(bfn.random_function(n, rng)) for n in range(1, 17)]
        for s in spectra + [walsh_transform(tribes(20, 4))]:
            got = level_weights(s)
            assert got.tobytes() == bfn.level_sums(s.coeffs, s.coeffs).tobytes()
            assert got.shape == (s.n + 1,)

    def test_level_weights_sum_to_square_mass(self, rng):
        f = bfn.random_function(6, rng)
        s = walsh_transform(f)
        assert float(level_weights(s).sum()) == pytest.approx(
            float(np.sum(s.coeffs**2)), abs=1e-12
        )


class TestPredicates:
    def test_balanced(self):
        assert is_balanced(majority(3))
        assert not is_balanced(conjunction(3))
        assert is_balanced(dictator(5, 3))

    def test_monotone(self):
        assert is_monotone(conjunction(3))
        assert not is_monotone(parity(2))
        for k in range(0, 5):
            assert is_monotone(threshold(3, k))

    def test_dual_examples(self):
        assert dual(conjunction(3)) == disjunction(3)
        for n in (1, 3, 5):
            assert dual(majority(n)) == majority(n)
        assert dual(dictator(4, 2)) == dictator(4, 2)

    def test_dual_involution_and_expectation(self):
        for f in all_functions(3):
            assert dual(dual(f)) == f
            assert expectation(dual(f)) == pytest.approx(1 - expectation(f), abs=1e-15)
            if is_monotone(f):
                assert is_monotone(dual(f))

    def test_self_dual(self):
        assert is_self_dual(majority(3))
        assert not is_self_dual(conjunction(3))
        assert is_self_dual(dictator(2, 1))

    def test_cyclic_invariance(self):
        assert is_cyclic_invariant(majority(3))
        assert not is_cyclic_invariant(dictator(2, 1))
        assert is_cyclic_invariant(parity(2))

    def test_invariant_under_generators(self):
        maj5 = majority(5)
        swap01 = (1, 0, 2, 3, 4)
        assert is_invariant_under(maj5, [swap01])
        assert not is_invariant_under(dictator(5, 1), [swap01])
        with pytest.raises(ValidationError):
            is_invariant_under(maj5, [(0, 0, 1, 2, 3)])
        with pytest.raises(ValidationError):
            is_invariant_under(majority(3), [(1.0, 2.0, 0.0)])

    def test_dual_spectrum_sign_law_exhaustive(self):
        # coeff'(S) = (-1)^(|S|-1) coeff(S) for nonempty S
        for n in (1, 2, 3):
            signs = np.where(bfn.mask_levels(n) & 1, 1.0, -1.0)
            for f in all_functions(n):
                sf = walsh_transform(f).coeffs
                sd = walsh_transform(dual(f)).coeffs
                dev = np.abs(sd - signs * sf)
                assert float(dev[1:].max(initial=0.0)) < 1e-12

    @given(st.integers(1, 6), st.integers(0, 2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dual_properties_random(self, n, seed):
        f = bfn.random_function(n, np.random.default_rng(seed))
        assert dual(dual(f)) == f
        assert expectation(dual(f)) == pytest.approx(1 - expectation(f), abs=1e-15)


def reference_invariance(tables, generators):
    # The index definition: gather each table at the permuted inputs.
    n = tables.shape[-1].bit_length() - 1
    ok = np.ones(tables.shape[:-1], dtype=bool)
    for perm in generators:
        ok &= np.all(tables[..., permuted_inputs(n, perm)] == tables, axis=-1)
    return ok


class TestCubeAddressing:
    """Voter permutations and restrictions address the ``(2,) * n`` cube of a
    table; they must equal the index-array definitions bit for bit."""

    def test_invariance_matches_the_index_definition(self, rng):
        for n in range(1, 13):
            cyclic = tuple((i + 1) % n for i in range(n))
            perms = [tuple(rng.permutation(n).tolist()) for _ in range(3)]
            tables = [invariant_table(n, p, rng) for p in perms + [cyclic] for _ in range(2)]
            tables += [rng.integers(0, 2, size=1 << n, dtype=np.uint8) for _ in range(2)]
            stack = np.array(tables).reshape(2, -1, 1 << n)
            for generators in [[p] for p in perms] + [[cyclic], perms[:2], []]:
                expected = reference_invariance(stack, generators)
                assert is_invariant_under(stack, generators).tolist() == expected.tolist()
                for table, flag in zip(stack.reshape(-1, 1 << n), expected.ravel()):
                    assert is_invariant_under(table, generators) is bool(flag)
            expected = reference_invariance(stack, [cyclic])
            assert is_cyclic_invariant(stack).tolist() == expected.tolist()

    def test_invariance_at_twenty_voters(self, rng):
        n = 20
        cyclic = tuple((i + 1) % n for i in range(n))
        swap = (1, 0) + tuple(range(2, n))
        table = invariant_table(n, cyclic, rng)
        flipped = table.copy()
        flipped[int(rng.integers(1, (1 << n) - 1))] ^= 1
        for t in (table, flipped):
            for generators in ([cyclic], [swap], [cyclic, swap]):
                expected = bool(reference_invariance(t, generators))
                assert is_invariant_under(BooleanFunction(n, t), generators) is expected
        assert is_cyclic_invariant(BooleanFunction(n, table))
        assert not is_cyclic_invariant(BooleanFunction(n, flipped))

    def test_restrict_matches_the_index_definition(self, rng):
        for n in range(7, 23):
            f = bfn.random_function(n, rng)
            for size in (1, int(rng.integers(2, n)), n):
                voters = sorted(rng.choice(n, size=size, replace=False).tolist())
                got = bfn.restrict(f, voters)
                assert got.n == size
                assert got.table.tobytes() == f.table[subcube(voters)].tobytes()

    def test_junta_spectrum_matches_the_index_definition(self, rng, butterfly_lengths):
        for n in range(7, 23):
            size = int(rng.integers(1, min(n - 1, 12) + 1))
            voters = sorted(rng.choice(n, size=size, replace=False).tolist())
            f = random_junta(n, voters, rng)
            while bfn.is_constant(f):  # a constant takes the symmetric route
                f = random_junta(n, voters, rng)
            relevant = bfn.read_structure(f)[1]
            inside = subcube(relevant)
            expected = np.zeros(1 << n)
            expected[inside] = bfn.walsh_coeffs(f.table[inside])
            assert walsh_transform(f).coeffs.tobytes() == expected.tobytes()
            # the junta route of the level sums: one butterfly, on the restriction
            route = level_sums_route([f], butterfly_lengths)
            assert len(relevant) < n and route == [1 << len(relevant)]

    @pytest.mark.parametrize(
        "voters", [(2, 1), (1, 7), (1, 1), (-1, 2), (1.0, 2), (True, 2), ("1", "2")]
    )
    def test_restrict_rejects_voters_that_are_not_increasing_indices(self, voters):
        with pytest.raises(ValidationError):
            bfn.restrict(dictator(4, 2), voters)
