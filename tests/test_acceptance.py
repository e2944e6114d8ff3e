"""Acceptance battery: the package's exit criteria.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s``) before asserting, and stated
runtime budgets are enforced.

The ratio clause of criterion 8 asserts that ``W / eta`` decreases strictly
from ``n`` to ``n + 10`` for every odd ``n`` in 19..93, i.e. at a fixed
realized threshold fraction.  Read literally along consecutive odd ``n`` the
clause is false at every scale, because the rounded cutoff makes the ratio
saw-tooth with period 10 and the ``1/(n+1)`` prefactor of ``eta`` lets it
grow up to ``n`` of about 22; see the test's docstring.  That literal clause
stays asserted false by
``test_theorems.py::TestInstabilityCheck::test_ratio_clause_fails_at_documented_steps``.
"""

import math
import time
from fractions import Fraction

import numpy as np

from gswf import bfn
from gswf.bfn import (
    BooleanFunction,
    inverse_walsh_transform,
    is_monotone_values,
    walsh_transform,
    walsh_transform_naive,
)
from gswf.catalog import eta, instability_cutoff, preset_gswf
from gswf.dist import EvenProductDistribution
from gswf.rationality import (
    noise_operator_convolution,
    noise_operator_spectral,
    w_formula,
    w_oracle,
    w_prime,
)
from gswf.search import ClassFilter, random_search
from gswf.theorems import (
    check_alpha_half_ceiling,
    check_balanced_bound,
    check_dual_claim,
    check_fkg,
    check_formula_vs_oracle,
    check_lemma_power_sums,
    check_lower_bound_biased,
    check_monotone_bound,
    check_arrow_sum_condition,
    majority_first_level_mass,
    w_prime_first_level_bound,
)

from conftest import brute_force_w, fraction_spectrum, symmetric_uniform_w

UNIFORM = EvenProductDistribution.uniform()


def report(number, title, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({title}): {tag}  {detail}")
    return ok


def test_criterion_1_formula_matches_enumeration():
    t0 = time.monotonic()
    r = check_formula_vs_oracle(n_max=5, trials=200, dists=20, seed=101)
    elapsed = time.monotonic() - t0
    ok = r.passed and elapsed < 120
    assert report(
        1,
        "closed form vs exhaustive enumeration",
        ok,
        f"worst |diff|={r.lhs:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_condorcet_values():
    t0 = time.monotonic()
    small = preset_gswf("condorcet", 3)
    w_f = w_formula(small, UNIFORM).w
    w_o = w_oracle(small, UNIFORM).w
    ok = abs(w_f - 1 / 18) <= 1e-12 and abs(w_o - 1 / 18) <= 1e-12

    w19 = w_formula(preset_gswf("condorcet", 19), UNIFORM).w
    limit = 0.25 - (3.0 / (2.0 * math.pi)) * math.asin(1.0 / 3.0)
    ok = ok and abs(w19 - limit) <= 0.01
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    assert report(
        2,
        "majority-rule paradox probability",
        ok,
        f"w3={w_f:.12f}, w19={w19:.6f} vs limit {limit:.6f}, {elapsed:.1f}s",
    )


def _quarter_grid():
    steps = np.linspace(0.0, 0.25, 5)
    out = []
    for a in steps:
        for b in steps:
            c = 0.5 - a - b
            if -1e-12 <= c <= 0.25 + 1e-12:
                out.append(EvenProductDistribution(a, b, max(c, 0.0)))
    return out


def test_criterion_3_monotone_bound():
    t0 = time.monotonic()
    grid = _quarter_grid()
    assert len(grid) == 15  # the admissible part of the 5x5 corner grid
    worst = None
    for d in grid:
        r = check_monotone_bound(n=3, d=d)
        if not r.passed:
            worst = (d, r)
            break
    uniform_run = check_monotone_bound(n=3, d=UNIFORM)
    balanced_max = uniform_run.witness["extra"]["balanced_max_w"]
    elapsed = time.monotonic() - t0
    ok = worst is None and abs(balanced_max - 0.25) <= 1e-12 and elapsed < 120
    assert report(
        3,
        "monotone triples never beat the independent base",
        ok,
        f"grid={len(grid)} dists, balanced max W={balanced_max:.12f}, {elapsed:.1f}s",
    )


def test_criterion_4_balanced_bound():
    t0 = time.monotonic()
    r2 = check_balanced_bound(n=2)
    # n = 4 is past extremal_w's budget: 10 000 sampled triples
    r4 = random_search(4, (ClassFilter(("balanced",)),) * 3, UNIFORM, "max_w", 10_000, 404)
    extra = r2.witness["extra"]
    ok = r2.passed and r4.value <= 3 / 8 + 1e-12
    ok = ok and abs(extra["pseudo_extremal_w"] - 3 / 8) <= 1e-12
    ok = ok and abs(extra["first_level_example_w"] - 1 / 3) <= 1e-12
    ok = ok and abs(extra["second_level_example_w"] - 1 / 3) <= 1e-12
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    assert report(
        4,
        "balanced triples capped at 3/8",
        ok,
        f"max W: n2={r2.lhs:.6f}, n4={r4.value:.6f}; pseudo={extra['pseudo_extremal_w']:.6f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_first_level_floor_constant():
    constant = (0.25 - 1.0 / (2.0 * math.pi)) * (8.0 / 9.0)
    ok = abs(constant - 0.0808) <= 2e-4

    w3 = w_formula(preset_gswf("condorcet", 3), UNIFORM).w
    rhs = (0.25 - majority_first_level_mass(3)) * (
        1.0 + sum(x**3 for x in UNIFORM.deltas)
    )
    ok = ok and abs(w3 - rhs) <= 1e-12
    assert report(
        5,
        "first-level floor constant and equality case",
        ok,
        f"constant={constant:.6f} (target 0.0808 +- 2e-4), |w3 - rhs|={abs(w3 - rhs):.2e}",
    )


def test_criterion_6_half_ceiling():
    t0 = time.monotonic()
    corner = EvenProductDistribution(0.5, 0.0, 0.0)
    extremal = w_formula(preset_gswf("alpha_half_extremal", 4), corner).w
    r = check_alpha_half_ceiling(seed=606)
    elapsed = time.monotonic() - t0
    ok = abs(extremal - 0.5) <= 1e-12 and r.passed and elapsed < 120
    assert report(
        6,
        "balanced monotone ceiling of one half",
        ok,
        f"extremal={extremal:.12f}, sampled max={r.lhs:.12f}, {elapsed:.1f}s",
    )


def test_criterion_7_dual_and_lower_bound_suite():
    r_dual = check_dual_claim()
    r_low = check_lower_bound_biased(n=2)
    r_arrow = check_arrow_sum_condition()
    ok = r_dual.passed and r_low.passed and r_arrow.passed

    bound61 = w_prime_first_level_bound(61)
    ok = ok and bound61 < 0

    # value pinned by direct evaluation, exact in rationals: 5/216
    tables = [preset_gswf("and_dual_majority", 3).functions[i].table for i in range(3)]
    spectra = [fraction_spectrum(t, 3) for t in tables]
    pin = (
        spectra[0][0] * spectra[1][0] * spectra[2][0]
        + (1 - spectra[0][0]) * (1 - spectra[1][0]) * (1 - spectra[2][0])
    )
    for sa, sb in ((spectra[0], spectra[1]), (spectra[1], spectra[2]), (spectra[2], spectra[0])):
        for mask in range(1, 8):
            pin -= abs(sa[mask] * sb[mask] * Fraction(-1, 3) ** bin(mask).count("1"))
    assert pin == Fraction(5, 216)
    small = w_prime(preset_gswf("and_dual_majority", 3))
    ok = ok and small > 0 and abs(small - float(pin)) <= 1e-4
    assert report(
        7,
        "dual sign law, biased lower bounds, sign-ignored counterexample",
        ok,
        f"bound(61)={bound61:.2e}<0, w'={small:.6f} (pinned {float(pin):.6f})",
    )


def test_criterion_8_instability_attainable_clauses():
    t0 = time.monotonic()
    ok = True
    details = []
    # decay envelope for the AND / dual / majority family, exact formula
    for n in range(3, 16, 2):
        w = w_formula(preset_gswf("and_dual_majority", n), UNIFORM).w
        ok = ok and 0 < w <= 0.471**n
    details.append("envelope 0<W<=0.471^n on odd 3..15")
    # expectation floor with exact binomial sums, where q n >= 1
    q = 0.2
    for n in range(3, 16, 2):
        gswf = preset_gswf("threshold_instability", n, q=q)
        min_e = min(bfn.expectation(f) for f in gswf.functions)
        if math.floor(q * n) >= 1:
            ok = ok and min_e >= eta(n, q)
        else:
            # documented small-n counterexample: the entropy estimate has no
            # content below q n = 1 and the floor genuinely fails there
            ok = ok and min_e < eta(n, q)
    details.append("floor min E >= eta on odd n with qn>=1 (n=3 is below range)")
    # exponent inequality on the q grid
    for qq in [round(0.05 * i, 2) for i in range(1, 10)]:
        h = -(qq * math.log2(qq) + (1 - qq) * math.log2(1 - qq))
        ok = ok and (qq - 1.08) < (h - 1.0)
    details.append("exponent q-1.08 < H(q)-1 on 0.05..0.45")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120
    assert report(8, "instability family (attainable clauses)", ok, "; ".join(details))


def _instability_profiles(n, q):
    """Weight profiles of the threshold construction: ``f`` cuts at the
    package's ``instability_cutoff``, ``g = dual(f)``, ``h`` is majority."""
    cutoff = instability_cutoff(n, q)
    f = [int(w >= cutoff) for w in range(n + 1)]
    g = [1 - f[n - w] for w in range(n + 1)]
    h = [int(2 * w > n) for w in range(n + 1)]
    return f, g, h


def test_criterion_8_instability_ratio_strict_decrease():
    """Ratio clause: ``W / eta`` decays strictly at a fixed realized fraction.

    ``eta = 2^(n (H(q) - 1)) / (n + 1)`` is the expectation floor of the
    threshold construction at ``q = 0.2``.  Along consecutive odd ``n`` the
    ratio is not monotone in any range, for two reasons unrelated to the
    decay: the realized fraction ``floor(q n) / n`` cycles with period 5 in
    ``n``, so the ratio saw-tooths at every scale; and ``W`` decays with
    exponent about 0.310 bits per voter against 0.278 for ``eta``, while
    the ``1/(n+1)`` of ``eta`` is looser than the ``~1/sqrt(n)`` of the
    tail, so the ratio grows like ``sqrt(n) 2^(-0.03 n)`` up to a peak near
    ``n = 22``.  Comparing ``n`` with ``n + 10`` (same residue mod 5, hence
    the same rounding) removes the first effect; starting past the peak
    removes the second.  The clause asserted is therefore
    ``ratio(n + 10) < ratio(n)`` for every odd ``n`` in 19..93: 38 strict
    steps.  It fails from any earlier start (17 -> 27 rises) and on
    consecutive odd ``n``; the literal odd-``n`` clause stays pinned false
    by ``test_theorems.py::TestInstabilityCheck::
    test_ratio_clause_fails_at_documented_steps``.

    ``W`` comes from ``w_formula`` up to ``n = 21`` and, beyond the dense
    spectra, from the exact Krawtchouk reference in ``conftest``, which is
    first tied to ``brute_force_w``, ``w_oracle`` and ``w_formula``.
    """
    t0 = time.monotonic()
    q = 0.2
    formula_max = 21

    def reference(n):
        return float(symmetric_uniform_w(_instability_profiles(n, q), n))

    small = preset_gswf("threshold_instability", 5, q=q)
    tables = [fn.table for fn in small.functions]
    assert abs(reference(5) - brute_force_w(*tables, 5, [1 / 6] * 6)) <= 1e-12
    mid = preset_gswf("threshold_instability", 7, q=q)
    assert abs(reference(7) - w_oracle(mid, UNIFORM).w) <= 1e-12
    w_by_n = {}
    for n in range(5, formula_max + 1, 2):
        w_by_n[n] = w_formula(preset_gswf("threshold_instability", n, q=q), UNIFORM).w
        assert abs(reference(n) - w_by_n[n]) <= 1e-12

    period = 10  # odd n sharing a residue mod 5, hence the same floor(q n) / n
    starts = range(19, 94, 2)
    ratios = {}
    for n in range(starts[0], starts[-1] + period + 1, 2):
        w = w_by_n[n] if n <= formula_max else reference(n)
        ratios[n] = w / eta(n, q)
    decreasing = all(ratios[n + period] < ratios[n] for n in starts)
    elapsed = time.monotonic() - t0
    report(
        8,
        "instability ratio strictly decreasing at a fixed realized fraction",
        decreasing,
        f"{len(starts)} steps n -> n+{period} on odd n {starts[0]}..{starts[-1]}, "
        f"{elapsed:.1f}s; ratios="
        + ", ".join(f"{n}:{r:.4f}" for n, r in ratios.items()),
    )
    assert decreasing


def test_criterion_9_analytic_property_suites():
    t0 = time.monotonic()
    ok = True
    # noise averaging: spectral attenuation equals the convolution kernel
    eps_grid = np.linspace(-1.0, 1.0, 9)
    for n in (1, 2, 3):
        for packed in range(1 << (1 << n)):
            f = BooleanFunction.from_packed(n, packed)
            s = walsh_transform(f)
            for eps in eps_grid:
                lhs = inverse_walsh_transform(noise_operator_spectral(s, eps))
                rhs = noise_operator_convolution(f, eps)
                ok = ok and float(np.max(np.abs(lhs - rhs))) <= 1e-12
    # monotonicity transfer under both noise signs
    for packed in range(1 << 8):
        f = BooleanFunction.from_packed(3, packed)
        if not bfn.is_monotone(f):
            continue
        for eps in (0.4, 1.0):
            ok = ok and is_monotone_values(noise_operator_convolution(f, eps), atol=1e-12)
        for eps in (-1.0, -0.4):
            ok = ok and is_monotone_values(
                noise_operator_convolution(f, eps), decreasing=True, atol=1e-12
            )
    # nonnegative correlation of monotone pairs
    for n in (1, 2, 3):
        ok = ok and check_fkg(n=n).passed
    # odd-power comparison on the constrained slice
    ok = ok and check_lemma_power_sums().passed
    # transform identities: round trip, squared-mass consistency, two paths
    rng = np.random.default_rng(909)
    for n in (1, 2, 3):
        for packed in range(1 << (1 << n)):
            f = BooleanFunction.from_packed(n, packed)
            s = walsh_transform(f)
            ok = ok and float(np.max(np.abs(inverse_walsh_transform(s) - f.table))) < 1e-12
            ok = ok and abs(float(np.sum(s.coeffs**2)) - bfn.expectation(f)) < 1e-12
            ok = ok and float(
                np.max(np.abs(s.coeffs - walsh_transform_naive(f).coeffs))
            ) < 1e-12
    for n in (10, 12):
        f = bfn.random_function(n, rng)
        s = walsh_transform(f)
        ok = ok and float(np.max(np.abs(inverse_walsh_transform(s) - f.table))) < 1e-12
        ok = ok and abs(float(np.sum(s.coeffs**2)) - bfn.expectation(f)) < 1e-12
    elapsed = time.monotonic() - t0
    assert report(
        9,
        "noise operator, correlation, power sums, transform identities",
        ok,
        f"{elapsed:.1f}s",
    )
