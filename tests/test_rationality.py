"""Biased inner products, noise averaging, and the W computations."""

import gc
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gswf import bfn, rationality
from gswf.bfn import (
    BooleanFunction,
    PseudoSpectrum,
    is_monotone_values,
    walsh_transform,
)
from gswf.catalog import (
    conjunction,
    constant,
    dictator,
    disjunction,
    majority,
    parity,
    preset_gswf,
    threshold,
    tribes,
)
from gswf.dist import EvenProductDistribution, TripleDistribution, as_triple_distribution
from gswf.errors import CapacityError, ValidationError
from gswf.rationality import (
    ORACLE_BYTES,
    ORACLE_MAX,
    Gswf,
    WResult,
    biased_inner_product,
    check_oracle_size,
    noise_operator_convolution,
    noise_operator_spectral,
    pair_matrix,
    w_batch,
    w_formula,
    w_from_spectra,
    w_monte_carlo,
    w_oracle,
    w_oracle_batch,
    w_prime,
)
from gswf.search import all_tables
from gswf.theorems import pseudo_extremal_spectra

from conftest import (
    TRIPLES,
    brute_force_w,
    digit_voters,
    fraction_biased_product,
    fraction_spectrum,
    level_sums_route,
    random_junta,
    symmetric_w,
)

UNIFORM = EvenProductDistribution.uniform()
EPS_GRID = np.linspace(-1.0, 1.0, 9)


def random_even(rng):
    v = rng.dirichlet(np.ones(3)) / 2
    return EvenProductDistribution(*v)


class TestBatchedKernels:
    def test_w_batch_equals_w_formula_row_by_row(self, rng):
        for _ in range(5):
            d = random_even(rng)
            fs = [[bfn.random_function(3, rng) for _ in range(3)] for _ in range(40)]
            stacks = [np.stack([walsh_transform(row[c]).coeffs for row in fs]) for c in range(3)]
            w = w_batch(*stacks, d)[0]
            for t, row in enumerate(fs):
                assert w[t] == w_formula(Gswf(*row), d).w

    def test_pair_matrix_entries_are_biased_products(self, rng):
        fs = [bfn.random_function(4, rng) for _ in range(12)]
        spectra = [walsh_transform(f) for f in fs]
        S = np.stack([s.coeffs for s in spectra])
        for delta in (-1.0, -1 / 3, 0.0, 0.6):
            M = pair_matrix(S[:5], S, delta)
            assert M.shape == (5, 12)
            for i in range(5):
                for j in range(12):
                    assert M[i, j] == biased_inner_product(spectra[i], spectra[j], delta)

    @pytest.mark.parametrize("n", [4, 13])
    def test_w_batch_row_equals_its_lone_evaluation(self, n, rng):
        # both sides of LEVEL_MATMUL_MAX: a row's bits do not depend on its stack
        assert (n <= bfn.LEVEL_MATMUL_MAX) == (n == 4)
        tables = rng.integers(0, 2, size=(3, 6, 1 << n), dtype=np.uint8)
        stacks = [bfn.walsh_coeffs(t) for t in tables]
        d = random_even(rng)
        w, base, cross = w_batch(*stacks, d)
        for t in range(6):
            lone_w, lone_base, lone_cross = w_batch(*(s[t] for s in stacks), d)
            assert (lone_w, lone_base) == (w[t], base[t])
            assert tuple(c[t] for c in cross) == lone_cross


def integer_level_sums(fa, fb, n):
    # L_k 4^n from integer spectra F = 2^n f_hat: the int64 products summed
    # over the masks of popcount k (a byte table), which a stable sort puts
    # in one run
    masks = np.arange(1 << n)
    byte = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
    order = np.argsort(sum(byte[(masks >> s) & 255] for s in range(0, n, 8)), kind="stable")
    starts = np.cumsum([0] + [math.comb(n, k) for k in range(n)])
    return np.add.reduceat((fa * fb)[..., order], starts, axis=-1)


class TestLevelSums:
    @pytest.mark.parametrize(
        "n, shape",
        [(1, (5,)), (4, (7,)), (7, (3,)), (8, (3,)), (12, (5,)), (13, (5,)), (16, (3,)), (20, (2,)),
         (24, (1,)), (14, (2, 3)), (7, None), (13, None), (20, None)],
        ids=["1-5", "4-7", "7-3", "8-3", "12-5", "13-5", "16-3", "20-2", "24-1", "14-2x3",
             "7-structured", "13-structured", "20-structured"],
    )
    def test_equal_an_integer_reference(self, n, shape, rng):
        # int16 products up to 7 voters, float64 ones above; below and above
        # LEVEL_MATMUL_MAX, with one and two leading stack axes; shape None
        # pairs tribes, a junta and parity, whose spectra leave whole levels
        # empty (parity's at 7 voters is the largest product, 4^7 = 2^14)
        if shape is None:
            fns = [tribes(n, 3), tribes(n, 4), random_junta(n, (0, 5, n - 1), rng), parity(n)]
            rows = np.stack([f.table for f in fns])
            tables = np.stack([rows, np.roll(rows, 1, axis=0)])
        else:
            tables = rng.integers(0, 2, size=(2, *shape, 1 << n), dtype=np.uint8)
        sa, sb = (bfn.walsh_coeffs(t) for t in tables)
        int16 = [bfn.integer_spectrum(t) for t in tables] if n <= 8 else None
        del tables
        fa, fb = (np.rint(s * (1 << n)).astype(np.int64) for s in (sa, sb))
        reference = integer_level_sums(fa, fb, n)
        assert reference.shape == sa.shape[:-1] + (n + 1,)
        assert np.array_equal(bfn.level_sums(sa, sb) * 4.0**n, reference)
        # integer spectra, 2^n times the coefficients, give the integers
        # themselves, as int64 and as integer_spectrum's int16
        assert np.array_equal(bfn.level_sums(fa, fb), reference)
        if int16 is not None:
            assert int16[0].dtype == np.int16
            assert np.array_equal(bfn.level_sums(*int16), reference)

    def test_blocked_sums_read_one_cached_read_only_weight_table(self):
        # the transposed low-voter indicator is built once, not per call
        low = bfn.LEVEL_MATMUL_MAX
        weights = bfn._level_weights(low)
        assert weights is bfn._level_weights(low)
        assert not weights.flags.writeable and weights.flags.c_contiguous
        assert np.array_equal(weights, bfn._level_indicator(low).T)


def unblocked_level_sums(a, b):
    # The level sums above 12 voters as they were before the blocked
    # products: the whole 2^n product at once, summed by the level of its
    # low 12 voters, then grouped by that of its high voters.
    n = a.shape[-1].bit_length() - 1
    low, high = bfn.LEVEL_MATMUL_MAX, n - bfn.LEVEL_MATMUL_MAX
    prod = a * b
    blocks = prod.reshape(-1, 1 << high, 1 << low)
    part = np.einsum("rhx,lx->rhl", blocks, np.eye(low + 1)[bfn.mask_levels(low)].T.copy())
    grouped = np.einsum("hj,rhl->rjl", np.eye(high + 1)[bfn.mask_levels(high)], part)
    sums = np.zeros((len(grouped), n + 1))
    for j in range(high + 1):
        sums[:, j : j + low + 1] += grouped[:, j]
    return sums.reshape(*prod.shape[:-1], n + 1)


class TestBlockedLevelSums:
    @pytest.mark.parametrize("n", [13, 20])
    def test_float_pseudo_spectra_keep_the_unblocked_bytes(self, n, rng):
        # Non-Boolean coefficients round, so the summation order shows.
        sa, sb = (PseudoSpectrum(n, rng.standard_normal(1 << n)) for _ in range(2))
        expected = unblocked_level_sums(sa.coeffs, sb.coeffs)
        assert bfn.level_sums(sa.coeffs, sb.coeffs).tobytes() == expected.tobytes()
        assert bfn.level_weights(sa).tobytes() == unblocked_level_sums(sa.coeffs, sa.coeffs).tobytes()
        stack = rng.standard_normal((2, 3, 1 << n))
        assert bfn.level_sums(*stack).tobytes() == unblocked_level_sums(*stack).tobytes()

    def test_products_are_held_one_block_at_a_time(self, rng):
        n = 20
        a, b = (bfn.integer_spectrum(rng.integers(0, 2, size=1 << n, dtype=np.uint8)) for _ in range(2))
        bfn.level_sums(a, b)
        tracemalloc.start()
        try:
            bfn.level_sums(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2^20 float64 product would be 8 MiB
        assert peak < 2 << 20


class TestBiasedInnerProduct:
    def test_dictator_pair(self):
        s = walsh_transform(dictator(4, 1))
        for delta in (-1.0, -0.25, 0.0, 0.6, 1.0):
            assert biased_inner_product(s, s, delta) == pytest.approx(
                delta / 4, abs=1e-15
            )

    def test_majority3_value_from_exact_spectrum(self):
        # exact reference: fractions straight from the definition
        sm = fraction_spectrum(majority(3).table, 3)
        expected = fraction_biased_product(sm, sm, Fraction(-1, 3))
        assert expected == Fraction(-7, 108)
        s = walsh_transform(majority(3))
        assert biased_inner_product(s, s, -1 / 3) == pytest.approx(
            float(expected), abs=1e-15
        )

    def test_constant_partner_vanishes(self, rng):
        const = walsh_transform(BooleanFunction(3, np.ones(8, dtype=np.uint8)))
        f = walsh_transform(bfn.random_function(3, rng))
        assert biased_inner_product(f, const, -0.7) == 0.0

    def test_validation(self):
        s2 = walsh_transform(dictator(2, 1))
        s3 = walsh_transform(dictator(3, 1))
        with pytest.raises(ValidationError):
            biased_inner_product(s2, s3, 0.5)
        with pytest.raises(ValidationError):
            biased_inner_product(s2, s2, 1.5)


class TestNoiseOperator:
    def test_spectral_identity_and_collapse(self):
        s = walsh_transform(majority(3))
        assert np.allclose(noise_operator_spectral(s, 1.0).coeffs, s.coeffs)
        collapsed = noise_operator_spectral(s, 0.0).coeffs
        assert collapsed[0] == s.coeffs[0] and np.all(collapsed[1:] == 0)

    def test_spectral_negation_on_dictator(self):
        s = walsh_transform(dictator(2, 1))
        flipped = noise_operator_spectral(s, -1.0).coeffs
        negated = BooleanFunction(2, dictator(2, 1).table[::-1])  # f(~x)
        assert np.allclose(flipped, walsh_transform(negated).coeffs, atol=1e-15)

    def test_convolution_endpoints(self, rng):
        f = bfn.random_function(4, rng)
        assert np.allclose(noise_operator_convolution(f, 1.0), f.table)
        assert np.allclose(noise_operator_convolution(f, 0.0), bfn.expectation(f))
        assert np.allclose(noise_operator_convolution(f, -1.0), f.table[::-1])

    def test_rejects_out_of_range(self):
        f = conjunction(2)
        with pytest.raises(ValidationError):
            noise_operator_convolution(f, 1.01)
        with pytest.raises(ValidationError):
            noise_operator_spectral(walsh_transform(f), -1.01)

    def test_spectral_equals_convolution_exhaustive(self):
        for n in (1, 2, 3):
            for packed in range(1 << (1 << n)):
                f = BooleanFunction.from_packed(n, packed)
                s = walsh_transform(f)
                for eps in EPS_GRID:
                    via_spectrum = bfn.inverse_walsh_transform(
                        noise_operator_spectral(s, eps)
                    )
                    direct = noise_operator_convolution(f, eps)
                    assert np.max(np.abs(via_spectrum - direct)) < 1e-12

    def test_monotonicity_transfer(self):
        monotone = [
            f
            for packed in range(1 << 8)
            if bfn.is_monotone(f := BooleanFunction.from_packed(3, packed))
        ]
        for f in monotone:
            for eps in (0.0, 0.3, 0.8, 1.0):
                assert is_monotone_values(noise_operator_convolution(f, eps), atol=1e-12)
            for eps in (-1.0, -0.6, -0.2):
                assert is_monotone_values(
                    noise_operator_convolution(f, eps), decreasing=True, atol=1e-12
                )


class TestWFormula:
    def test_dictator_triple_is_rational(self):
        assert w_formula(preset_gswf("dictator_triple", 3), UNIFORM).w == pytest.approx(
            0.0, abs=1e-12
        )

    def test_first_level_third(self):
        d = dictator(4, 2)
        comp = BooleanFunction(4, 1 - d.table)
        assert w_formula(Gswf(d, d, comp), UNIFORM).w == pytest.approx(1 / 3, abs=1e-12)

    def test_half_corner_split(self):
        gswf = preset_gswf("alpha_half_extremal", 2)
        assert w_formula(gswf, EvenProductDistribution(0.5, 0, 0)).w == pytest.approx(
            0.5, abs=1e-12
        )

    def test_condorcet_value_triangulated(self):
        gswf = preset_gswf("condorcet", 3)
        reference = brute_force_w(
            gswf.f.table.tolist(), gswf.g.table.tolist(), gswf.h.table.tolist(), 3, [1 / 6] * 6
        )
        assert reference == pytest.approx(1 / 18, abs=1e-12)
        assert w_formula(gswf, UNIFORM).w == pytest.approx(reference, abs=1e-12)
        assert w_oracle(gswf, UNIFORM).w == pytest.approx(reference, abs=1e-12)

    def test_result_decomposition(self, rng):
        gswf = Gswf(*(bfn.random_function(3, rng) for _ in range(3)))
        d = random_even(rng)
        res = w_formula(gswf, d)
        assert res.w == pytest.approx(res.base + sum(res.cross_terms), abs=1e-12)
        assert res.deltas == pytest.approx(d.deltas, abs=1e-15)
        assert -1e-12 <= res.w <= 1 + 1e-12

    def test_relabeling_symmetry(self, rng):
        # simultaneous rotation (f,g,h; a,b,c) -> (g,h,f; b,c,a) fixes W
        for _ in range(25):
            f, g, h = (bfn.random_function(3, rng) for _ in range(3))
            v = rng.dirichlet(np.ones(3)) / 2
            d1 = EvenProductDistribution(*v)
            d2 = EvenProductDistribution(v[1], v[2], v[0])
            assert w_formula(Gswf(f, g, h), d1).w == pytest.approx(
                w_formula(Gswf(g, h, f), d2).w, abs=1e-12
            )

    def test_arity_mismatch(self):
        with pytest.raises(ValidationError):
            Gswf(dictator(2, 1), dictator(2, 1), dictator(3, 1))

    def test_an_even_six_value_law_is_its_alpha_form(self, rng):
        gswf = Gswf(*(bfn.random_function(5, rng) for _ in range(3)))
        spectra = [walsh_transform(fn) for fn in gswf.functions]
        for a, b, c in ((0.2, 0.2, 0.1), (1 / 6, 1 / 6, 1 / 6), (0.3, 0.15, 0.05)):
            six, even = TripleDistribution(np.array([a, b, c] * 2)), EvenProductDistribution(a, b, c)
            assert w_formula(gswf, six) == w_formula(gswf, even)
            assert w_from_spectra(*spectra, six) == w_from_spectra(*spectra, even)

    def test_a_law_that_is_not_even_is_refused(self, rng):
        gswf = Gswf(*(bfn.random_function(3, rng) for _ in range(3)))
        skewed = TripleDistribution(np.array([0.3, 0.1, 0.1, 0.1, 0.2, 0.2]))
        with pytest.raises(ValidationError, match="even product"):
            w_formula(gswf, skewed)
        with pytest.raises(ValidationError, match="even product"):
            w_from_spectra(*(walsh_transform(fn) for fn in gswf.functions), skewed)

    def test_repeated_function_equals_three_transforms(self, rng):
        # one transform of a function used three times gives the same bits
        for m in (majority(5), bfn.random_function(6, rng)):
            d = random_even(rng)
            got = w_formula(Gswf(m, m, m), d)
            spectra = [walsh_transform(BooleanFunction(m.n, m.table)) for _ in range(3)]
            assert got == w_from_spectra(*spectra, d)


LAWS = (UNIFORM, EvenProductDistribution(0.2, 0.1, 0.2), EvenProductDistribution(0.3, 0.15, 0.05))


@pytest.fixture
def dense_sizes(monkeypatch):
    # Record the spectrum length of every bfn.integer_spectrum call, which
    # the dense route of cyclic_level_sums makes.
    sizes = []
    dense = bfn.integer_spectrum

    def recording(tables):
        sizes.append(tables.size)
        return dense(tables)

    monkeypatch.setattr(bfn, "integer_spectrum", recording)
    return sizes


def dense_w(gswf, d):
    return w_from_spectra(*(walsh_transform(fn) for fn in gswf.functions), d)


class TestWFormulaRoutes:
    @pytest.mark.parametrize("n", [7, 9, 15, 21, 23])
    @pytest.mark.parametrize("name", ["condorcet", "threshold_instability", "and_dual_majority"])
    def test_level_route_against_exact_rationals(self, name, n, dense_sizes):
        gswf = preset_gswf(name, n, q=0.2)
        profiles = [fn.table[(1 << np.arange(n + 1)) - 1].tolist() for fn in gswf.functions]
        for d in LAWS:
            got = w_formula(gswf, d)
            assert abs(Fraction(got.w) - symmetric_w(profiles, n, d.deltas)) <= 1e-16
            assert got.n == n and got.deltas == d.deltas
        assert dense_sizes == []

    @pytest.mark.parametrize("n", [7, 9, 15, 21, 23])
    @pytest.mark.parametrize("name", ["condorcet", "threshold_instability", "and_dual_majority"])
    def test_level_route_equals_the_dense_path(self, name, n):
        gswf = preset_gswf(name, n, q=0.2)
        spectra = [walsh_transform(fn) for fn in gswf.functions]
        for d in LAWS:
            got, ref = w_formula(gswf, d), w_from_spectra(*spectra, d)
            assert (got.w, got.base, got.cross_terms) == (ref.w, ref.base, ref.cross_terms)

    @pytest.mark.parametrize("n", [7, 10, 16, 22])
    @pytest.mark.parametrize("name", ["split_dictators", "dictator_triple", "alpha_half_extremal"])
    def test_junta_route_is_bit_identical_to_the_dense_path(self, name, n, dense_sizes):
        gswf = preset_gswf(name, n, voter=n)
        spectra = [walsh_transform(fn) for fn in gswf.functions]
        for d in LAWS:
            dense_sizes.clear()
            got = w_formula(gswf, d)
            assert max(dense_sizes) <= 8
            ref = w_from_spectra(*spectra, d)
            assert (got.w, got.base, got.cross_terms, got.n) == (
                ref.w, ref.base, ref.cross_terms, ref.n
            )

    def test_random_juntas_agree_with_the_dense_path(self, rng):
        # At most 6 relevant voters in all, so every triple takes the junta
        # route; the second one holds a constant.
        for n in range(7, 17):
            pool = rng.choice(n, size=int(rng.integers(1, 7)), replace=False)

            def junta():
                size = int(rng.integers(1, pool.size + 1))
                return random_junta(n, rng.choice(pool, size=size, replace=False).tolist(), rng)

            f, g, h = junta(), junta(), junta()
            for gswf in (Gswf(f, g, h), Gswf(constant(n, 1), g, h)):
                for d in LAWS:
                    got, ref = w_formula(gswf, d), dense_w(gswf, d)
                    assert got.n == n
                    assert (got.w, got.base, got.cross_terms) == (ref.w, ref.base, ref.cross_terms)


def w_bytes(r):
    return np.array([r.w, r.base, *r.cross_terms]).tobytes()


class TestIntegerDenseRoute:
    @pytest.mark.parametrize("n", [7, 13, 14, 15, 20])
    def test_bit_identical_to_the_float_spectra(self, n, rng, dense_sizes):
        # Random tables, a symmetric member (threshold, gathered from its
        # levels) and a constant one, with the butterflies each runs.
        triples = [
            ([bfn.random_function(n, rng) for _ in range(3)], 3),
            ([tribes(n, 3), tribes(n, 4), threshold(n, n // 2)], 2),
            ([bfn.random_function(n, rng), constant(n, 1), bfn.random_function(n, rng)], 2),
        ]
        for fns, butterflies in triples:
            spectra = [walsh_transform(fn) for fn in fns]
            for d in (UNIFORM, random_even(rng)):
                dense_sizes.clear()
                got = w_formula(Gswf(*fns), d)
                assert dense_sizes == [1 << n] * butterflies
                assert w_bytes(got) == w_bytes(w_from_spectra(*spectra, d))

    def test_peak_memory_of_a_random_n20_triple(self, rng):
        # Three int32 spectra (12 MiB) and one butterfly's scratch; the
        # float64 spectra and their 2^n products took 32.4 MiB.
        gswf = Gswf(*(bfn.random_function(20, rng) for _ in range(3)))
        w_formula(gswf, UNIFORM)
        tracemalloc.start()
        try:
            w_formula(gswf, UNIFORM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 << 20

    @pytest.mark.parametrize("n", [7, 20])
    def test_an_altered_integer_spectrum_is_refused(self, n, rng, monkeypatch):
        # One entry moved by 1 changes the sum of squares by an odd amount.
        exact = bfn.integer_spectrum

        def altered(tables):
            spectrum = exact(tables)
            spectrum[3] += 1
            return spectrum

        monkeypatch.setattr(bfn, "integer_spectrum", altered)
        gswf = Gswf(*(bfn.random_function(n, rng) for _ in range(3)))
        with pytest.raises(ValidationError, match="not consistent with a Boolean source"):
            w_formula(gswf, UNIFORM)


class TestCyclicLevelSums:
    # level_sums_route checks the means and level sums of cyclic_level_sums,
    # by bytes, against those of the dense walsh_transform spectra.

    @pytest.mark.parametrize("n", [7, 10, 13])
    def test_one_two_and_three_functions(self, n, rng, butterfly_lengths):
        family = [
            threshold(n, n // 2),
            tribes(n, 3),
            random_junta(n, [1, n - 2], rng),
            constant(n, 0),
            constant(n, 1),
            bfn.random_function(n, rng),
        ]
        for m in (1, 2, 3):
            for fns in itertools.product(family, repeat=m):
                level_sums_route(list(fns), butterfly_lengths)

    @pytest.mark.parametrize("n", [7, 13, 21])
    def test_butterflies_of_structured_members(self, n, butterfly_lengths):
        # Tribes makes every voter relevant: the dictator takes the full
        # butterfly and majority's spectrum is gathered from its levels.
        fns = [majority(n), dictator(n, 2), tribes(n, 3)]
        assert level_sums_route(fns, butterfly_lengths) == [1 << n] * 2
        assert level_sums_route(fns[:1] + fns[2:], butterfly_lengths) == [1 << n]
        assert level_sums_route([majority(n), threshold(n, 3), parity(n)], butterfly_lengths) == []

    def test_junta_unions_up_to_22_voters(self, rng, butterfly_lengths):
        for n in range(7, 23):
            pool = rng.choice(n, size=int(rng.integers(1, min(n - 1, 12) + 1)), replace=False)

            def junta():
                size = int(rng.integers(1, pool.size + 1))
                return random_junta(n, sorted(rng.choice(pool, size=size, replace=False)), rng)

            for fns in ([junta()], [junta(), constant(n, 1)], [junta(), junta(), junta()]):
                route = level_sums_route(fns, butterfly_lengths)
                assert max(route, default=0) <= 1 << pool.size

    @pytest.mark.parametrize("fns", [
        (majority(7), majority(9)),
        (tribes(8, 3), majority(9)),
        (dictator(8, 3), dictator(9, 1)),
    ])
    def test_arities_that_differ_are_refused_before_structure_is_read(self, fns, monkeypatch):
        # symmetric, unstructured and junta members: each route would have
        # failed differently, or read two 8-voter dictators
        read, real = [], bfn.read_structure
        monkeypatch.setattr(bfn, "read_structure", lambda fn: read.append(fn) or real(fn))
        with pytest.raises(ValidationError) as exc:
            rationality.cyclic_level_sums(list(fns))
        assert str(exc.value) == f"arities differ: {fns[0].n}, {fns[1].n}"
        assert read == []


class TestWFromSpectra:
    def test_pseudo_extremal_three_eighths(self):
        spectra = pseudo_extremal_spectra(3)
        assert w_from_spectra(*spectra, UNIFORM).w == pytest.approx(3 / 8, abs=1e-12)

    def test_matches_w_formula_on_boolean_spectra(self, rng):
        gswf = Gswf(*(bfn.random_function(3, rng) for _ in range(3)))
        d = random_even(rng)
        spectra = tuple(walsh_transform(f) for f in gswf.functions)
        assert w_from_spectra(*spectra, d).w == w_formula(gswf, d).w

    def test_mean_only_spectra(self):
        flat = PseudoSpectrum(2, [0.5, 0, 0, 0])
        assert w_from_spectra(flat, flat, flat, UNIFORM).w == pytest.approx(
            0.25, abs=1e-15
        )


class TestWOracle:
    def test_handles_general_distributions(self):
        gswf = preset_gswf("condorcet", 3)
        p = np.array([0.3, 0.1, 0.1, 0.2, 0.2, 0.1])
        t = TripleDistribution(p)
        expected = brute_force_w(
            gswf.f.table.tolist(), gswf.g.table.tolist(), gswf.h.table.tolist(), 3, p.tolist()
        )
        assert w_oracle(gswf, t).w == pytest.approx(expected, abs=1e-12)

    def test_dictator_triple_zero_everywhere(self, rng):
        gswf = preset_gswf("dictator_triple", 4, voter=2)
        for _ in range(10):
            assert w_oracle(gswf, random_even(rng)).w == pytest.approx(0.0, abs=1e-12)

    def test_capacity_error_mentions_monte_carlo(self):
        gswf = preset_gswf("condorcet", ORACLE_MAX + 2)
        with pytest.raises(CapacityError, match="monte_carlo"):
            w_oracle(gswf, UNIFORM)

    def test_oracle_max_is_the_largest_row_that_fits(self):
        # one row is 2 * 4^n float64; the arity ceiling follows the byte one
        assert 16 * 4**ORACLE_MAX <= ORACLE_BYTES < 16 * 4 ** (ORACLE_MAX + 1)

    @pytest.mark.parametrize(
        "rows, n, fits",
        [
            (1, ORACLE_MAX, True),
            (1, ORACLE_MAX + 1, False),
            (ORACLE_BYTES // (16 * 4**5), 5, True),
            (ORACLE_BYTES // (16 * 4**5) + 1, 5, False),
        ],
    )
    def test_oracle_size_rule_is_exact_at_the_byte_ceiling(self, rows, n, fits):
        # rows * 16 * 4^n bytes are allowed up to ORACLE_BYTES and not one row more
        if fits:
            check_oracle_size(rows, n)
        else:
            with pytest.raises(CapacityError, match=f"^oracle tables for {rows} rows at n={n} "):
                check_oracle_size(rows, n)

    @pytest.mark.parametrize("law", [UNIFORM, EvenProductDistribution(0.3, 0.15, 0.05)])
    def test_oracle_at_its_ceiling_checks_the_level_route(self, law):
        # majority(11) takes the level route of w_formula
        gswf = preset_gswf("condorcet", ORACLE_MAX)
        assert ORACLE_MAX == 11
        assert abs(w_oracle(gswf, law).w - w_formula(gswf, law).w) <= 1e-12

    def test_batched_path_matches_cached_path(self, rng):
        # n = 7: a single row contracted over 4^7 (x, y) inputs
        gswf = Gswf(*(bfn.random_function(7, rng) for _ in range(3)))
        d = random_even(rng)
        got = w_oracle(gswf, d).w
        assert got == pytest.approx(w_formula(gswf, d).w, abs=1e-12)

    def test_batch_rows_match_brute_force(self, rng):
        p = np.array([0.3, 0.05, 0.15, 0.2, 0.1, 0.2])
        t = TripleDistribution(p)
        for n in (1, 2, 3):
            ft, gt, ht = rng.integers(0, 2, size=(3, 12, 1 << n), dtype=np.uint8)
            got = w_oracle_batch(ft, gt, ht, t)
            for r in range(12):
                expected = brute_force_w(
                    ft[r].tolist(), gt[r].tolist(), ht[r].tolist(), n, p.tolist()
                )
                assert got[r] == pytest.approx(expected, abs=1e-12)

    def test_multi_chunk_stack_matches_w_batch(self, rng):
        # 1000 rows x 6^4 profiles, more than the old 2^20 chunk held; the
        # rows are contracted as one stack and gathered, as in the battery
        n, rows = 4, 1000
        assert rows * 6**n > 1 << 20
        pool = rng.integers(0, 2, size=(50, 1 << n), dtype=np.uint8)
        picks = rng.integers(0, len(pool), size=(3, rows))
        ft, gt, ht = (pool[p] for p in picks)
        d = random_even(rng)
        got = w_oracle_batch(ft, gt, ht, d)
        expected = w_batch(*(bfn.walsh_coeffs(x) for x in (ft, gt, ht)), d)[0]
        assert np.max(np.abs(got - expected)) < 1e-12
        for r in range(0, rows, 97):
            gswf = Gswf(*(BooleanFunction(n, x[r]) for x in (ft, gt, ht)))
            assert got[r] == w_oracle(gswf, d).w

    def test_batch_rows_match_brute_force_n4(self, rng):
        p = np.array([0.05, 0.25, 0.1, 0.3, 0.2, 0.1])
        ft, gt, ht = rng.integers(0, 2, size=(3, 4, 16), dtype=np.uint8)
        got = w_oracle_batch(ft, gt, ht, TripleDistribution(p))
        for r in range(4):
            expected = brute_force_w(
                ft[r].tolist(), gt[r].tolist(), ht[r].tolist(), 4, p.tolist()
            )
            assert abs(got[r] - expected) < 1e-12

    def test_one_voter_pass_per_distinct_h_row(self, rng, monkeypatch):
        # check_formula_vs_oracle's exhaustive n = 2 stack: 4096 rows, 16
        # distinct h tables, and the bits of each row's lone evaluation.
        pool = all_tables(2)
        ft, gt, ht = pool[np.indices((len(pool),) * 3).reshape(3, -1)]
        d = random_even(rng)
        lone = [w_oracle_batch(ft[r : r + 1], gt[r : r + 1], ht[r : r + 1], d)[0] for r in range(len(ft))]
        rows, passes = [], bfn.per_voter_pass

        def recording(values, kernel):
            rows.append(len(values))
            return passes(values, kernel)

        monkeypatch.setattr(bfn, "per_voter_pass", recording)
        got = w_oracle_batch(ft, gt, ht, d)
        assert rows == [16, 16]
        assert got.tobytes() == np.array(lone).tobytes()
        # n = 7: rows of 16 words; the three h tables pairwise share their
        # first or their last word
        ft, gt = rng.integers(0, 2, size=(2, 12, 1 << 7), dtype=np.uint8)
        distinct = np.zeros((3, 1 << 7), dtype=np.uint8)
        distinct[1:, -1] = distinct[2, 0] = 1
        ht = distinct[rng.permutation(np.arange(12) % 3)]
        monkeypatch.undo()
        lone = [w_oracle_batch(ft[r : r + 1], gt[r : r + 1], ht[r : r + 1], d)[0] for r in range(12)]
        monkeypatch.setattr(bfn, "per_voter_pass", recording)
        rows.clear()
        assert w_oracle_batch(ft, gt, ht, d).tobytes() == np.array(lone).tobytes()
        assert rows == [3, 3]

    def test_oracle_needs_no_spectral_code(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle must not use the formula's code")

        for owner, name in (
            (bfn, "walsh_coeffs"),
            (bfn, "integer_spectrum"),
            (bfn, "walsh_transform"),
            (rationality, "w_batch"),
            (rationality, "walsh_transform"),
        ):
            monkeypatch.setattr(owner, name, refuse)
        p = np.array([0.3, 0.05, 0.15, 0.2, 0.1, 0.2])
        ft, gt, ht = rng.integers(0, 2, size=(3, 5, 8), dtype=np.uint8)
        got = w_oracle_batch(ft, gt, ht, TripleDistribution(p))
        for r in range(5):
            expected = brute_force_w(
                ft[r].tolist(), gt[r].tolist(), ht[r].tolist(), 3, p.tolist()
            )
            assert abs(got[r] - expected) < 1e-12

    def test_byte_ceiling_fires_before_allocating(self):
        n = ORACLE_MAX
        rows = ORACLE_BYTES // (2 * 4**n * 8) + 1
        tables = np.zeros((rows, 1 << n), dtype=np.uint8)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="MiB"):
                w_oracle_batch(tables, tables, tables, UNIFORM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_batch_rejects_misaligned_stacks(self):
        tables = np.zeros((2, 4), dtype=np.uint8)
        with pytest.raises(ValidationError):
            w_oracle_batch(tables, tables[:1], tables, UNIFORM)
        with pytest.raises(ValidationError):
            w_oracle_batch(*(np.zeros((2, 6), dtype=np.uint8),) * 3, UNIFORM)

    @pytest.mark.parametrize(
        "tables, message",
        [
            # 1 - 2 wraps to 255 in uint8: W came out as 65029.0
            (np.array([[0, 2]], dtype=np.uint8), "0 or 1"),
            (np.array([[0, -1]], dtype=np.int64), "0 or 1"),
            (np.array([[0.0, 1.0]]), "0 or 1"),
            (np.zeros((0, 4), dtype=np.uint8), "empty"),
            # n = 0: a length-1 table returned W = 1.0
            (np.zeros((3, 1), dtype=np.uint8), "arity"),
        ],
    )
    def test_batch_rejects_non_boolean_stacks(self, tables, message):
        good = np.zeros(tables.shape, dtype=np.uint8)
        for stacks in ((tables, good, good), (good, good, tables), (good, tables, good)):
            with pytest.raises(ValidationError, match=message):
                w_oracle_batch(*stacks, UNIFORM)

    def test_batch_accepts_bool_and_wide_integer_stacks(self, rng):
        ft, gt, ht = rng.integers(0, 2, size=(3, 7, 8), dtype=np.uint8)
        expected = w_oracle_batch(ft, gt, ht, UNIFORM).tobytes()
        for dtype in (bool, np.int64):
            got = w_oracle_batch(*(x.astype(dtype) for x in (ft, gt, ht)), UNIFORM)
            assert got.tobytes() == expected

    @pytest.mark.parametrize("n, rows", [(n, rows) for n in range(1, 7) for rows in (1, 5)] + [(2, 4096)])
    def test_agreement_masks_equal_the_gathered_reference(self, rng, n, rows):
        # The oracle's masks in m's base-4 order: f read at the x voter masks
        # and g at the y voter masks of every entry.
        ft, gt = rng.integers(0, 2, size=(2, rows, 1 << n), dtype=np.uint8)
        xs, ys = digit_voters(n)
        for f, g in ((ft, gt), (1 - ft, 1 - gt)):
            got = rationality._agreement(f, g)
            assert got.flags.c_contiguous
            assert got.tobytes() == (f.take(xs, axis=1) & g.take(ys, axis=1)).tobytes()

    def test_a_call_holds_no_memory_after_it_returns(self, rng):
        # The oracle keeps nothing per arity: one 4^n intp map at n = 8 is 512 KiB.
        ft, gt, ht = rng.integers(0, 2, size=(3, 1, 1 << 8), dtype=np.uint8)
        w_oracle_batch(ft[:, :4], gt[:, :4], ht[:, :4], UNIFORM)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            w_oracle_batch(ft, gt, ht, UNIFORM)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 4**8

    def test_formula_agrees_with_oracle_randomized(self, rng):
        for n in (1, 2, 3, 4):
            for _ in range(40):
                gswf = Gswf(*(bfn.random_function(n, rng) for _ in range(3)))
                d = random_even(rng)
                assert abs(w_formula(gswf, d).w - w_oracle(gswf, d).w) < 1e-12


def choice_masks(t, samples, n, seed):
    # The profiles of rng.choice(6, (samples, n), p=t.p) as the (A,B), (B,C)
    # and (C,A) input masks, by the int64 shift-sums the sampler was first
    # written with.
    draws = np.random.default_rng(seed).choice(6, size=(samples, n), p=t.p)
    trip = np.array(TRIPLES, dtype=np.int64)[draws]
    return [(trip[:, :, k] << np.arange(n)).sum(axis=1) for k in range(3)]


def choice_monte_carlo_w(gswf, t, samples, seed):
    # The reference estimate: the choice profiles, one hit test per profile.
    masks = choice_masks(as_triple_distribution(t), samples, gswf.n, seed)
    a, b, c = (fn.table[m] for fn, m in zip(gswf.functions, masks))
    return int(((a & b & c) | ((1 - a) & (1 - b) & (1 - c))).sum()) / samples


MC_LAWS = {
    "uniform": UNIFORM,
    "gamma0": EvenProductDistribution(0.25, 0.25, 0.0),
    "two_triples": TripleDistribution([0.5, 0, 0, 0.5, 0, 0]),
    "dirichlet": TripleDistribution(np.random.default_rng(2024).dirichlet(np.ones(6))),
}


def word_width(n):
    # The sampler's mask width: the least of 8, 16 and 32 bits holding n voters.
    return 8 if n <= 8 else 16 if n <= 16 else 32


class TestMonteCarlo:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 20, 24])
    @pytest.mark.parametrize("law", MC_LAWS)
    def test_equals_choice_reference_bit_for_bit(self, n, law):
        # three full chunks and a remainder, at each word width and its edges
        samples = 3 * (rationality.MC_CHUNK_DRAWS // word_width(n)) + 17
        rng = np.random.default_rng(n)
        gswf = Gswf(*(bfn.random_function(n, rng) for _ in range(3)))
        for seed in (0, 31):
            got = w_monte_carlo(gswf, MC_LAWS[law], samples=samples, seed=seed).w
            assert got == choice_monte_carlo_w(gswf, MC_LAWS[law], samples, seed)

    @pytest.mark.parametrize("n", [5, 8, 16, 17, 24])
    @pytest.mark.parametrize(
        "p", [*(as_triple_distribution(t).p for t in MC_LAWS.values()), [0, 0.5, 0, 0, 0.5, 0]]
    )
    def test_threshold_decode_is_choice(self, p, n):
        # Decode the package's masks back to triple indices voter by voter:
        # they are the indices rng.choice draws from the same seed, and no
        # bit above voter n - 1 is set.
        t, samples, seed = TripleDistribution(p), 30_011, 4
        chunks = rationality._profile_masks(np.random.default_rng(seed), t, samples, n)
        masks = [np.concatenate(parts).astype(np.int64) for parts in zip(*chunks)]
        assert all(m.max() >> n == 0 for m in masks)
        bits = [(m[:, None] >> np.arange(n)) & 1 for m in masks]
        index_of = np.full(8, -1)
        index_of[[x | y << 1 | z << 2 for x, y, z in TRIPLES]] = np.arange(6)
        decoded = index_of[bits[0] | bits[1] << 1 | bits[2] << 2]
        drawn = np.random.default_rng(seed).choice(6, size=(samples, n), p=t.p)
        assert np.array_equal(decoded, drawn)

    def test_independent_of_chunk_size(self, monkeypatch):
        gswf = preset_gswf("condorcet", 7)
        expected = w_monte_carlo(gswf, UNIFORM, samples=4001, seed=3).w
        for draws in (1, 7, 50):
            monkeypatch.setattr(rationality, "MC_CHUNK_DRAWS", draws)
            assert w_monte_carlo(gswf, UNIFORM, samples=4001, seed=3).w == expected

    @pytest.mark.parametrize("n, parent_kib", [(9, 2413), (15, 1859), (17, 1790), (23, 1569)])
    def test_peak_memory_is_no_more_than_the_strided_sampler(self, n, parent_kib):
        # tracemalloc's peak over one 200 000-sample call, bounded by what the
        # sampler that compared into strided 32-column planes peaked at.
        gswf = preset_gswf("condorcet", n)
        w_monte_carlo(gswf, UNIFORM, samples=100, seed=1)
        tracemalloc.start()
        try:
            w_monte_carlo(gswf, UNIFORM, samples=200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= parent_kib * 1024

    def test_dictator_triple_exact_zero(self):
        gswf = preset_gswf("dictator_triple", 5)
        res = w_monte_carlo(gswf, UNIFORM, samples=2000, seed=123)
        assert res.w == 0.0

    def test_within_four_standard_errors(self):
        gswf = preset_gswf("condorcet", 3)
        res = w_monte_carlo(gswf, UNIFORM, samples=1_000_000, seed=42)
        assert res.stderr > 0
        assert abs(res.w - 1 / 18) <= 4 * res.stderr

    def test_deterministic_per_seed(self):
        gswf = preset_gswf("condorcet", 5)
        a = w_monte_carlo(gswf, UNIFORM, samples=30_000, seed=9)
        b = w_monte_carlo(gswf, UNIFORM, samples=30_000, seed=9)
        assert a.w == b.w and a.stderr == b.stderr
        c = w_monte_carlo(gswf, UNIFORM, samples=30_000, seed=10)
        assert a.w != c.w  # different seed explores different profiles

    def test_records_sampling_metadata(self):
        res = w_monte_carlo(preset_gswf("condorcet", 3), UNIFORM, samples=100, seed=5)
        payload = res.to_json_dict()
        assert payload["samples"] == 100 and payload["seed"] == 5
        assert payload["method"] == "monte_carlo"

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValidationError):
            w_monte_carlo(preset_gswf("condorcet", 3), UNIFORM, samples=0, seed=1)
        with pytest.raises(CapacityError):
            w_monte_carlo(
                preset_gswf("condorcet", 3), UNIFORM, samples=rationality.SAMPLES_MAX + 1, seed=1
            )


class TestWPrime:
    def test_dictator_triple(self):
        assert w_prime(preset_gswf("dictator_triple", 1)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_and_or_majority_exact_value(self):
        # exact rational evaluation straight from the definition
        tables = [conjunction(3).table, disjunction(3).table, majority(3).table]
        spectra = [fraction_spectrum(t, 3) for t in tables]
        base = (
            spectra[0][0] * spectra[1][0] * spectra[2][0]
            + (1 - spectra[0][0]) * (1 - spectra[1][0]) * (1 - spectra[2][0])
        )
        total = base
        for sa, sb in ((spectra[0], spectra[1]), (spectra[1], spectra[2]), (spectra[2], spectra[0])):
            for mask in range(1, 8):
                total -= abs(sa[mask] * sb[mask] * Fraction(-1, 3) ** bin(mask).count("1"))
        assert total == Fraction(5, 216)
        got = w_prime(preset_gswf("and_dual_majority", 3))
        assert got == pytest.approx(float(total), abs=1e-12)
        assert got > 0

    def test_lower_bounds_w_at_uniform(self, rng):
        for _ in range(60):
            gswf = Gswf(*(bfn.random_function(3, rng) for _ in range(3)))
            assert w_prime(gswf) <= w_formula(gswf, UNIFORM).w + 1e-12


class TestWResult:
    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValidationError):
            WResult(w=1.5, base=0.0, method="oracle", n=1)

    def test_json_shape_for_formula(self):
        res = w_formula(preset_gswf("condorcet", 3), UNIFORM)
        payload = res.to_json_dict()
        assert set(payload) == {"w", "base", "method", "n", "cross_terms", "deltas"}
        assert len(payload["cross_terms"]) == 3

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=30, deadline=None)
    def test_w_range_property(self, seed):
        rng = np.random.default_rng(seed)
        gswf = Gswf(*(bfn.random_function(2, rng) for _ in range(3)))
        res = w_formula(gswf, random_even(rng))
        assert -1e-12 <= res.w <= 1 + 1e-12
