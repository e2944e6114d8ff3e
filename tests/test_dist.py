"""Preference distributions and the per-voter coefficient table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gswf.dist import (
    ADMISSIBLE_TRIPLES,
    EvenProductDistribution,
    TripleDistribution,
    even_product_law,
    is_even_product,
    per_voter_spectrum,
)
from gswf.errors import ValidationError

from conftest import TRIPLES


def direct_per_voter_spectrum(p6):
    """Independent 8-point summation of the per-voter coefficients."""
    values = [0.0] * 8
    for (x, y, z), p in zip(TRIPLES, p6):
        values[x | (y << 1) | (z << 2)] = p
    out = []
    for mask in range(8):
        acc = 0.0
        for v in range(8):
            zeros = bin(mask & ~v & 7).count("1")
            acc += values[v] * (-1.0) ** zeros
        out.append(acc / 8.0)
    return out


class TestEvenProduct:
    def test_uniform(self):
        d = EvenProductDistribution.uniform()
        t = d.to_triple_distribution()
        assert np.allclose(t.p, 1 / 6, atol=1e-12)
        assert np.allclose(d.deltas, -1 / 3, atol=1e-12)

    def test_half_corner(self):
        d = EvenProductDistribution(0.5, 0.0, 0.0)
        t = d.to_triple_distribution()
        assert np.allclose(t.p, [0.5, 0, 0, 0.5, 0, 0], atol=1e-15)
        assert d.deltas == (1.0, -1.0, -1.0)

    def test_quarter_case_deltas(self):
        d = EvenProductDistribution(0.25, 0.25, 0.0)
        assert np.allclose(d.deltas, [0.0, 0.0, -1.0], atol=1e-12)

    def test_renormalization_within_tolerance(self):
        d = EvenProductDistribution(1 / 6, 1 / 6, 1 / 6 + 5e-10)
        assert d.alpha + d.beta + d.gamma == pytest.approx(0.5, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            EvenProductDistribution(0.1666, 0.1666, 0.1666)  # off by 2e-4, above tolerance

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            EvenProductDistribution(-0.01, 0.25, 0.26)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            EvenProductDistribution(float("nan"), 0.1, 0.1)

    def test_triple_order_is_canonical(self):
        labels = tuple("".join(map(str, t)) for t in ADMISSIBLE_TRIPLES)
        assert labels == ("110", "011", "101", "001", "100", "010")
        d = EvenProductDistribution(0.0, 0.0, 0.5).to_triple_distribution()
        assert d.as_dict() == {
            "p110": 0.0,
            "p011": 0.0,
            "p101": 0.5,
            "p001": 0.0,
            "p100": 0.0,
            "p010": 0.5,
        }


class TestTripleDistribution:
    def test_rejects_negative_and_bad_sum(self):
        with pytest.raises(ValidationError):
            TripleDistribution(np.array([0.5, 0.5, 0.1, -0.1, 0, 0]))
        with pytest.raises(ValidationError):
            TripleDistribution(np.array([0.5, 0.5, 0.1, 0, 0, 0]))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            TripleDistribution(np.array([np.nan, 0, 0, 0, 0, 1.0]))


class TestPerVoterSpectrum:
    def test_uniform_values(self):
        t = EvenProductDistribution.uniform().to_triple_distribution()
        s = per_voter_spectrum(t)
        assert s[0] == pytest.approx(1 / 8, abs=1e-15)
        for mask in (0b001, 0b010, 0b100, 0b111):
            assert s[mask] == pytest.approx(0.0, abs=1e-15)
        for mask in (0b011, 0b110, 0b101):
            assert s[mask] == pytest.approx(-1 / 24, abs=1e-15)

    def test_even_product_pair_coefficients(self):
        d = EvenProductDistribution(0.3, 0.15, 0.05)
        s = per_voter_spectrum(d.to_triple_distribution())
        a, b, c = d.alpha, d.beta, d.gamma
        assert s[0b011] == pytest.approx((4 * a - 1) / 8, abs=1e-15)
        assert s[0b110] == pytest.approx((4 * b - 1) / 8, abs=1e-15)
        assert s[0b101] == pytest.approx((4 * c - 1) / 8, abs=1e-15)

    def test_half_corner_pairs(self):
        s = per_voter_spectrum(EvenProductDistribution(0.5, 0, 0).to_triple_distribution())
        assert s[0b011] == pytest.approx(1 / 8, abs=1e-15)
        assert s[0b110] == pytest.approx(-1 / 8, abs=1e-15)
        assert s[0b101] == pytest.approx(-1 / 8, abs=1e-15)
        for mask in (1, 2, 4):
            assert s[mask] == pytest.approx(0.0, abs=1e-15)

    def test_non_even_input_against_direct_summation(self):
        p = np.array([1.0, 0, 0, 0, 0, 0])  # all mass on (1,1,0)
        t = TripleDistribution(p)
        got = per_voter_spectrum(t)
        expected = direct_per_voter_spectrum(p)
        assert np.allclose(got, expected, atol=1e-15)
        assert max(abs(got[m]) for m in (1, 2, 4)) > 0.01  # singletons present

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_even_product_iff_singletons_vanish(self, seed):
        # pair-symmetry and vanishing singletons are the same condition,
        # up to a bounded constant between the two tolerance scales
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(6))
        t = TripleDistribution(p)
        s = per_voter_spectrum(t)
        singles = max(abs(s[m]) for m in (1, 2, 4))
        if is_even_product(t):
            assert singles <= 1e-12
        else:
            assert singles > 1e-13

    def test_classifier_on_constructed_cases(self, rng):
        for _ in range(50):
            v = rng.dirichlet(np.ones(3)) / 2
            d = EvenProductDistribution(*v)
            t = d.to_triple_distribution()
            assert is_even_product(t)
            s = per_voter_spectrum(t)
            assert max(abs(s[m]) for m in (1, 2, 4)) <= 1e-15
        # broken symmetry is never classified as even product
        p = np.array([0.3, 0.1, 0.1, 0.2, 0.2, 0.1])
        assert not is_even_product(TripleDistribution(p))

    def test_even_product_law_round_trips_the_six_values(self, rng):
        for _ in range(50):
            d = EvenProductDistribution(*(rng.dirichlet(np.ones(3)) / 2))
            assert even_product_law(d) is d
            assert even_product_law(d.to_triple_distribution()) == d
        p = np.array([0.3, 0.1, 0.1, 0.2, 0.2, 0.1])
        with pytest.raises(ValidationError, match="only applies to even product"):
            even_product_law(TripleDistribution(p))
