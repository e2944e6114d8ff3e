"""Executable verification of the package's bounds, identities and examples.

Every check evaluates one stated inequality or identity numerically and
returns a :class:`BoundReport`.  Margins are oriented so that
``margin >= -tolerance`` means PASS, and every report carries a re-runnable
witness: enough data to recompute the worst-case quantity from scratch
(see :func:`reevaluate_witness`).

Expected-violation demonstrations (showing that a dropped hypothesis breaks
a bound) are flagged ``inverted``; they pass exactly when the violation is
exhibited.  Suite exit status ignores inverted checks by contract.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import bfn, catalog
from .bfn import BooleanFunction, PseudoSpectrum, mask_levels, walsh_transform
from .dist import EvenProductDistribution
from .errors import CapacityError, HypothesisViolation, ValidationError, check_count, check_odd, check_unit
from .rationality import (
    Gswf,
    biased_inner_product,
    check_oracle_size,
    closed_form,
    cross_term,
    cyclic_level_sums,
    cyclic_spectral_sums,
    pair_matrix,
    w_formula,
    w_from_spectra,
    w_oracle_batch,
    w_prime,
)
from .search import (
    ClassFilter,
    all_tables,
    class_table,
    cross_planes,
    extremal_w,
    first_optimum,
    scan_planes,
)

TOL_EXACT = 1e-12
#: For quantities accumulated over 2^n-term sums at n >= 16.
TOL_BIG_SUM = 1e-9
#: For asymptotic-limit convergence claims.
TOL_LIMIT = 1e-2
#: Numerical floor certifying a strictly positive quantity.
STRICT_FLOOR = 1e-9

_DEFAULT_SEED = 20260810
#: Most laws check_formula_vs_oracle draws per arity, each one oracle call.
FORMULA_DISTS_MAX = 1000

# The battery's fixed grids, depths and arities; the docstring of each check
# names the ones it reads.
_DELTA_GRID = (-1.0, -2.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
_SIGN_DEMO_N = 2
_SIGN_DEMO_DEPTH = 1e-6
_POWER_K_MAX = 6
_POWER_GRID_STEPS = 200
_DUAL_N_MAX = 3
_BOUND_DELTA_GRID = (-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0)
_ARROW_N = 2
_W_PRIME_N_LARGE = 61
_W_PRIME_DEPTH = 1e-21
_W_PRIME_SCAN_MAX = 101
_MAJORITY_N_LIST = (3, 5, 7, 9, 11, 13, 15, 17, 19)
_RHO_GRID = (0.0, 1.0 / 3.0, 0.5, 0.8, 1.0)
_ALPHA_HALF_N = 4
_ALPHA_HALF_TRIALS = 10_000
_GRID_STEPS = 4
_AND_N_LIST = (3, 5, 7, 9, 11, 13, 15)
_THRESHOLD_N_LIST = (5, 7, 9, 11, 13, 15)
_THRESHOLD_Q = 0.2
_EXPONENT_Q_GRID = tuple(round(0.05 * i, 2) for i in range(1, 10))


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound verification.

    ``lhs`` and ``rhs`` are the two sides of the claim at the worst point
    found; ``margin`` is the oriented slack (PASS iff it clears
    ``-tolerance``).  ``witness`` re-evaluates to ``value`` via
    :func:`reevaluate_witness`.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    passed: bool
    witness: dict
    inverted: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


def _report(name, lhs, rhs, margin, tolerance, witness, inverted=False) -> BoundReport:
    return BoundReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        tolerance=float(tolerance),
        passed=bool(margin >= -tolerance),
        witness=witness,
        inverted=inverted,
    )


def _random_even_product(rng: np.random.Generator) -> EvenProductDistribution:
    v = rng.dirichlet((1.0, 1.0, 1.0)) / 2.0
    return EvenProductDistribution(float(v[0]), float(v[1]), float(v[2]))


def _dist_payload(d: EvenProductDistribution) -> dict:
    return {"type": "even", "alpha": d.alpha, "beta": d.beta, "gamma": d.gamma}


def _dist_from_payload(payload: dict) -> EvenProductDistribution:
    return EvenProductDistribution(payload["alpha"], payload["beta"], payload["gamma"])


def _triple_payload(fs) -> dict:
    f, g, h = fs
    return {"n": f.n, "f": f.hex, "g": g.hex, "h": h.hex}


def _triple_witness(value, d: EvenProductDistribution, fs, extra: dict, kind="w_triple") -> dict:
    # A triple's closed-form W under d (a cross_sum_triple: its W - base), as
    # reevaluate_witness reads it; only a w_triple names its method.
    method = {"method": "formula"} if kind == "w_triple" else {}
    return {"kind": kind, "value": value, **method, "dist": _dist_payload(d),
            **_triple_payload(fs), "extra": extra}


def _hex_rows(n: int, tables, *rows) -> dict:
    return {k: BooleanFunction(n, tables[r]).hex for k, r in zip("fgh", rows)}


def _pair_witness(kind, value, n: int, tables, i, j, extra: dict, **fields) -> dict:
    # A pair witness: rows i and j of a table stack as f and g.
    return {"kind": kind, "value": value, "n": n, **_hex_rows(n, tables, i, j), **fields,
            "extra": extra}


def _functions_from_payload(w: dict):
    # a pair witness names f and g, a dual_function witness f alone
    return tuple(BooleanFunction.from_hex(w["n"], w[k]) for k in "fgh" if k in w)


_MONOTONE = ClassFilter(("monotone",))
_BALANCED = ClassFilter(("balanced",))
_BALANCED_MONOTONE = ClassFilter(("balanced", "monotone"))


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def check_formula_vs_oracle(
    n_max: int = 4, trials: int = 60, dists: int = 10, seed: int = _DEFAULT_SEED
) -> BoundReport:
    """Closed form versus exhaustive enumeration.

    Exhaustive over all function triples for n <= 2, random triples above,
    each against random even product distributions.  The claim is exact
    agreement, so the margin is the worst absolute difference; the first
    worst in ``(n, distribution, triple)`` order is the witness.  Every
    arity's oracle call is sized before the first draw.
    """
    check_count("n_max", n_max)
    check_count("trials", trials)
    check_count("dists", dists, high=FORMULA_DISTS_MAX)
    check_count("seed", seed, low=0)
    for n in range(1, n_max + 1):
        check_oracle_size(len(all_tables(n)) ** 3 if n <= 2 else trials, n)
    rng = np.random.default_rng(seed)

    def blocks():
        for n in range(1, n_max + 1):
            distributions = [_random_even_product(rng) for _ in range(dists)]
            if n <= 2:
                pool = all_tables(n)
                tables = pool[np.indices((len(pool),) * 3).reshape(3, -1)]
            else:
                drawn = [rng.integers(0, 2, size=1 << n, dtype=np.uint8) for _ in range(3 * trials)]
                tables = np.stack(drawn).reshape(trials, 3, -1).transpose(1, 0, 2)
            # The means and the level sums do not depend on the law.
            means, sums = cyclic_spectral_sums([bfn.walsh_coeffs(t) for t in tables])
            for d in distributions:
                w = closed_form(means, sums, d.deltas)[0]
                yield (n, d, w, tables), np.abs(w - w_oracle_batch(*tables, d))

    value, (n, d, w, tables), (t,) = first_optimum(blocks(), True)
    fs = tuple(BooleanFunction(n, rows[t]) for rows in tables)
    witness = _triple_witness(float(w[t]), d, fs, {"worst_abs_diff": value})
    return _report(
        "formula_vs_oracle",
        lhs=value,
        rhs=0.0,
        margin=-value,
        tolerance=TOL_EXACT,
        witness=witness,
    )


def check_monotone_bound(n: int = 3, d: EvenProductDistribution | None = None) -> BoundReport:
    """For monotone triples, ``W`` never exceeds the independent-base term.

    Requires ``alpha, beta, gamma <= 1/4`` (all noise parameters
    nonpositive); outside that hypothesis the bound is provably false, so
    the check refuses to run.  For balanced monotone triples the base is
    exactly 1/4, so the same scan certifies that rationality holds with
    probability at least 3/4 there.
    """
    d = d or EvenProductDistribution.uniform()
    if max(d.alpha, d.beta, d.gamma) > 0.25 + TOL_EXACT:
        raise HypothesisViolation(
            "monotone bound requires alpha, beta, gamma <= 1/4; "
            f"got ({d.alpha}, {d.beta}, {d.gamma})"
        )
    members, S = class_table(n, _MONOTONE)
    value, (i, j, k), _ = scan_planes(*cross_planes(S, S, S, d), True)
    worst_triple = (members[i], members[j], members[k])
    bal = extremal_w(n, _BALANCED_MONOTONE, _BALANCED_MONOTONE, _BALANCED_MONOTONE, d, "max_w")
    extra = {
        "balanced_max_w": bal.value,
        "balanced_witness": _triple_payload(bal.witness),
        "balanced_count": len(class_table(n, _BALANCED_MONOTONE)[0]),
        "monotone_count": len(members),
    }
    if n >= 3:
        split = catalog.preset_gswf("split_dictators", n)
        res = w_formula(split, d)
        extra["split_dictators_w_minus_base"] = res.w - res.base
    witness = _triple_witness(value, d, worst_triple, extra, "cross_sum_triple")
    return _report(
        "monotone_bound",
        lhs=value,
        rhs=0.0,
        margin=-value,
        tolerance=TOL_EXACT,
        witness=witness,
    )


def _worst_scaled_pair(n: int, tables, S, extra: dict):
    """Least ``(1/delta) <<f, g>>_delta`` over pairs of rows of ``tables``
    (spectra ``S``) and :data:`_DELTA_GRID`, as ``(value, witness)``; the
    first minimum wins ties."""
    blocks = ((delta, pair_matrix(S, S, delta) / delta) for delta in _DELTA_GRID)
    value, delta, (i, j) = first_optimum(blocks, False)
    return value, _pair_witness("scaled_biased_pair", value, n, tables, i, j, extra, delta=delta)


def check_biased_product_sign(n: int = 3) -> BoundReport:
    """``(1/delta) <<f, g>>_delta >= 0`` for monotone increasing pairs, at
    every ``delta`` of :data:`_DELTA_GRID`."""
    members, S = class_table(n, _MONOTONE)
    extra = {"pairs": len(members) ** 2, "delta_grid": list(_DELTA_GRID)}
    value, witness = _worst_scaled_pair(n, members.tables, S, extra)
    return _report(
        "biased_product_sign",
        lhs=value,
        rhs=0.0,
        margin=value,
        tolerance=TOL_EXACT,
        witness=witness,
    )


def check_biased_product_sign_demo() -> BoundReport:
    """Dropping monotonicity breaks the sign law; exhibit a violation.

    Inverted check: passes when some non-monotone pair on
    :data:`_SIGN_DEMO_N` voters drives the scaled product at least
    :data:`_SIGN_DEMO_DEPTH` below zero at some ``delta`` of
    :data:`_DELTA_GRID`.
    """
    n = _SIGN_DEMO_N
    tables = all_tables(n)
    tables = tables[~bfn.is_monotone(tables)]
    extra = {"required_depth": _SIGN_DEMO_DEPTH}
    value, witness = _worst_scaled_pair(n, tables, bfn.walsh_coeffs(tables), extra)
    return _report(
        "biased_product_sign_nonmonotone_demo",
        lhs=value,
        rhs=-_SIGN_DEMO_DEPTH,
        margin=-_SIGN_DEMO_DEPTH - value,
        tolerance=0.0,
        witness=witness,
        inverted=True,
    )


def check_fkg(n: int = 3) -> BoundReport:
    """Monotone increasing pairs correlate nonnegatively; mixed pairs reverse.

    Exhaustive over every ordered pair of monotone functions, at every
    arity :func:`class_table` enumerates (168^2 pairs at n = 4, one
    168x16 matrix product).  Only the covariances are scanned: a mixed
    pair realizes ``g`` decreasing as ``1 - g``, and
    ``cov(f, 1-g) = -cov(f, g)``, so its reversed inequality is the same
    number (bit for bit, all terms being exact dyadic rationals) and needs
    no scan of its own.
    """
    members = class_table(n, _MONOTONE)[0]
    tables = members.tables.astype(np.int64)
    scale = float(1 << n)
    means = tables.sum(axis=1) / scale
    cov = (tables @ tables.T) / scale - np.multiply.outer(means, means)
    value, _, (i, j) = first_optimum([(None, cov)], False)
    witness = _pair_witness("covariance_pair", value, n, members.tables, i, j,
                            {"pairs": cov.size}, orientation="increasing")
    return _report(
        "fkg",
        lhs=value,
        rhs=0.0,
        margin=value,
        tolerance=TOL_EXACT,
        witness=witness,
    )


def pseudo_extremal_spectra(n: int = 3):
    """Coefficient triple that mimics balanced functions but is not Boolean.

    Means are 1/2 and all other mass sits on the singletons of voters 0, 1
    and 2 with values ``2a, -a, -a`` (rotated per function),
    ``a = 1/(2 sqrt 6)``; the squared mass adds to 1/4 as for a genuine
    balanced function.
    """
    check_count("n", n, low=3, high=bfn.N_MAX)
    a = 1.0 / (2.0 * math.sqrt(6.0))
    out = []
    for lead in range(3):
        coeffs = np.zeros(1 << n)
        coeffs[0] = 0.5
        for voter in range(3):
            coeffs[1 << voter] = 2.0 * a if voter == lead else -a
        out.append(PseudoSpectrum(n, coeffs))
    return tuple(out)


def second_level_example(n: int = 2) -> Gswf:
    """Balanced triple with all nonempty mass on level two: equality of the
    two pairwise choices for voters 1 and 2, used three times."""
    check_count("n", n, low=2, high=bfn.N_MAX)
    f = BooleanFunction(n, np.tile(np.array([1, 0, 0, 1], dtype=np.uint8), 1 << (n - 2)))
    return Gswf(f, f, f)


def first_level_example(n: int = 2) -> Gswf:
    """The triple (x_1, x_1, 1 - x_1), all mass on level one."""
    d = catalog.dictator(n, 1)
    return Gswf(d, d, BooleanFunction(n, 1 - d.table))


def check_balanced_bound(n: int = 2) -> BoundReport:
    """Balanced triples under the uniform distribution satisfy ``W <= 3/8``.

    Every triple is scanned by :func:`extremal_w`, whose budget admits
    ``n <= 3``.  Also evaluates the three reference points: the non-Boolean
    extremal coefficient pattern reaching exactly 3/8, and the two balanced
    Boolean examples (first-level and second-level) reaching exactly 1/3.
    """
    d = EvenProductDistribution.uniform()
    res = extremal_w(n, _BALANCED, _BALANCED, _BALANCED, d, "max_w")
    pseudo_w = w_from_spectra(*pseudo_extremal_spectra(max(n, 3)), d).w
    first_w = w_formula(first_level_example(max(n, 2)), d).w
    second_w = w_formula(second_level_example(max(n, 2)), d).w
    witness = _triple_witness(res.value, d, res.witness, {
        "triples_scanned": res.enumeration_count,
        "pseudo_extremal_w": pseudo_w,
        "first_level_example_w": first_w,
        "second_level_example_w": second_w,
    })
    return _report(
        "balanced_bound",
        lhs=res.value,
        rhs=0.375,
        margin=0.375 - res.value,
        tolerance=TOL_EXACT,
        witness=witness,
    )


def check_lemma_power_sums() -> BoundReport:
    """``x^3+y^3+z^3 >= x^(2k+1)+y^(2k+1)+z^(2k+1)`` on the slice
    ``x+y+z = 1`` of the cube ``[-1,1]^3``, for ``k = 1, ...,``
    :data:`_POWER_K_MAX`.

    Checked on a regular grid (step ``1 /`` :data:`_POWER_GRID_STEPS`); the
    identity is exact on the slice boundary.
    """
    steps = _POWER_GRID_STEPS
    axis = np.arange(-steps, steps + 1, dtype=np.float64) / steps
    # Z[i, j] = (1 - x) - y, rounded in that order, for x = axis[i], y = axis[j]
    Z = (1.0 - axis)[:, None] - axis
    ok = np.abs(Z) <= 1.0 + 1e-15
    ix, iy = np.nonzero(ok)
    z = Z[ok]
    del Z, ok
    zs, iz = np.unique(z, return_inverse=True)

    def power_sum(e):
        # x and y take the 2 steps + 1 axis values, z its distinct values:
        # one power each.
        a = axis**e
        return a[ix] + a[iy] + (zs**e)[iz]

    cubes = power_sum(3)
    value, k, (t,) = first_optimum(
        ((k, cubes - power_sum(2 * k + 1)) for k in range(1, _POWER_K_MAX + 1)), False
    )
    # boundary family x = 1, y = s, z = -s for s on the axis: both sides collapse to 1
    e = 2 * _POWER_K_MAX + 1
    boundary_dev = float(
        np.max(np.abs((1.0 + axis**3 + (-axis) ** 3) - (1.0 + axis**e + (-axis) ** e)))
    )
    witness = {
        "kind": "power_sum_point",
        "value": value,
        "x": float(axis[ix[t]]),
        "y": float(axis[iy[t]]),
        "z": float(z[t]),
        "k": k,
        "extra": {
            "grid_points": len(z),
            "boundary_max_dev": boundary_dev,
        },
    }
    return _report(
        "lemma_power_sums",
        lhs=value,
        rhs=0.0,
        margin=value,
        tolerance=TOL_EXACT,
        witness=witness,
    )


def majority_first_level_mass(n: int) -> float:
    """Exact sum of squared level-1 coefficients of majority on ``n`` voters."""
    check_odd("n", n)
    single = math.comb(n - 1, (n - 1) // 2) / float(1 << n)
    return n * single * single


def check_neutral_symmetric_bound(d: EvenProductDistribution | None = None) -> BoundReport:
    """For the majority triple at each arity of :data:`_MAJORITY_N_LIST`,
    ``W`` dominates the floor ``(1/4 - d_m) (1 + (4a-1)^3 + (4b-1)^3 + (4c-1)^3)``.

    ``d_m`` is majority's level-1 squared mass; at ``n = 3`` under the
    uniform distribution the two sides agree exactly (majority has mass
    only on levels 1 and 3).
    """
    d = d or EvenProductDistribution.uniform()
    d1, d2, d3 = d.deltas
    factor = 1.0 + d1**3 + d2**3 + d3**3
    rows = []
    for n in _MAJORITY_N_LIST:
        dm = majority_first_level_mass(n)
        rows.append({
            "n": n,
            "w": w_formula(catalog.preset_gswf("condorcet", n), d).w,
            "rhs": (0.25 - dm) * factor,
            "d_m": dm,
            "d_m_spectral": float(_majority_sums(n)[1]),
        })
    margin, row, _ = first_optimum(((row, row["w"] - row["rhs"]) for row in rows), False)
    n_star, w_star, rhs_star = row["n"], row["w"], row["rhs"]
    asymptotic = (0.25 - 1.0 / (2.0 * math.pi)) * factor
    witness = {
        "kind": "eq_floor_row",
        "value": w_star,
        "n": n_star,
        "dist": _dist_payload(d),
        "extra": {
            "rows": rows,
            "asymptotic_constant": asymptotic,
            "cubic_factor": factor,
        },
    }
    return _report(
        "neutral_symmetric_bound",
        lhs=w_star,
        rhs=rhs_star,
        margin=margin,
        tolerance=TOL_EXACT,
        witness=witness,
    )


def _majority_sums(n: int) -> np.ndarray:
    return cyclic_level_sums([catalog.majority(n)])[1][0]


def majority_self_correlation(n: int, rho: float) -> float:
    """``<<maj_n, maj_n>>_rho`` from the level coefficients."""
    check_unit("rho", rho)
    return float(cross_term(_majority_sums(n), rho))


def check_majority_stability() -> BoundReport:
    """``<<maj_n, maj_n>>_rho -> arcsin(rho) / (2 pi)``.

    The absolute error at every point of :data:`_RHO_GRID` must not increase
    along :data:`_MAJORITY_N_LIST` and must be at most 0.01 at its last arity.
    """
    ns = _MAJORITY_N_LIST
    errs = {}
    for n in ns:
        sums = _majority_sums(n)
        errs[n] = [
            abs(float(cross_term(sums, r)) - math.asin(r) / (2.0 * math.pi)) for r in _RHO_GRID
        ]
    mono_margin = min(x - y for a, b in zip(ns, ns[1:]) for x, y in zip(errs[a], errs[b]))
    final, _, (j_worst,) = first_optimum([(None, errs[ns[-1]])], True)
    margin = min(mono_margin, TOL_LIMIT - final)
    witness = {
        "kind": "stability_point",
        "value": final,
        "n": ns[-1],
        "rho": _RHO_GRID[j_worst],
        "extra": {
            "errors": {str(n): errs[n] for n in ns},
            "rho_grid": list(_RHO_GRID),
            "monotonicity_margin": mono_margin,
        },
    }
    return _report(
        "majority_stability",
        lhs=final,
        rhs=TOL_LIMIT,
        margin=margin,
        tolerance=TOL_BIG_SUM,
        witness=witness,
    )


def _dual_deviation(n: int, tables) -> np.ndarray:
    """Per row of ``tables``, the largest ``|coeff'(S) - (-1)^(|S|-1) coeff(S)|``
    over nonempty ``S``, ``coeff'`` being the dual function's."""
    signs = np.where(mask_levels(n) & 1, 1.0, -1.0)  # (-1)^(|S|-1)
    dual = 1 - tables[:, ::-1]  # row-wise bfn.dual
    dev = np.abs(bfn.walsh_coeffs(dual) - signs * bfn.walsh_coeffs(tables))
    dev[:, 0] = 0.0
    return dev.max(axis=1)


def check_dual_claim() -> BoundReport:
    """Dual-function spectra obey ``coeff'(S) = (-1)^(|S|-1) coeff(S)``
    for nonempty ``S``; exhaustive over all functions up to
    :data:`_DUAL_N_MAX` voters."""

    def blocks():
        for n in range(1, _DUAL_N_MAX + 1):
            tables = all_tables(n)
            yield (n, tables), _dual_deviation(n, tables)

    value, (n, tables), (t,) = first_optimum(blocks(), True)
    witness = {"kind": "dual_function", "value": value, "n": n, **_hex_rows(n, tables, t)}
    return _report(
        "dual_claim",
        lhs=value,
        rhs=0.0,
        margin=-value,
        tolerance=TOL_EXACT,
        witness=witness,
    )


def check_lower_bound_biased(n: int = 2) -> BoundReport:
    """``<<f, g>>_delta >= -min(p1 p2, (1-p1)(1-p2))`` for Boolean pairs, at
    every ``delta`` of :data:`_BOUND_DELTA_GRID`.

    Equality holds when a function is constant 0 (first form) or constant 1
    (second form).  Strict positivity of the slack is certified for
    non-constant pairs at interior ``delta`` only: at ``|delta| = 1`` the
    noisy average no longer mixes and disjoint-support pairs reach equality
    (e.g. the indicators of ``x = 0`` and ``x = all-ones`` at delta 1).
    """
    if n > 3:
        # n = 4 already means 65536^2 pairs: a 32 GiB floor matrix.
        raise CapacityError("exhaustive pair scan is limited to n <= 3")
    tables = all_tables(n)
    S = bfn.walsh_coeffs(tables)
    p = S[:, 0]
    floor_matrix = np.minimum(np.multiply.outer(p, p), np.multiply.outer(1 - p, 1 - p))
    constant = bfn.is_constant(tables)
    keep = np.flatnonzero(~constant)
    slacks = [(delta, pair_matrix(S, S, delta) + floor_matrix) for delta in _BOUND_DELTA_GRID]
    value, delta, (i, j) = first_optimum(slacks, False)
    strict, strict_delta, (si, sj) = first_optimum(
        ((dl, slack[np.ix_(keep, keep)]) for dl, slack in slacks if abs(dl) < 1.0), False
    )
    equality_dev = max([0.0] + [float(np.abs(slack[constant, :]).max()) for _, slack in slacks])
    margin = min(value, strict - STRICT_FLOOR, TOL_EXACT - equality_dev)
    extra = {
        "strict_min_nonconstant_interior": strict,
        "strict_witness": {**_hex_rows(n, tables, keep[si], keep[sj]), "delta": strict_delta},
        "constant_equality_max_dev": equality_dev,
    }
    witness = _pair_witness("bounded_pair", value, n, tables, i, j, extra, delta=delta)
    return _report(
        "lower_bound_biased",
        lhs=value,
        rhs=0.0,
        margin=margin,
        tolerance=TOL_EXACT,
        witness=witness,
    )


def check_arrow_sum_condition() -> BoundReport:
    """Non-constant triples on :data:`_ARROW_N` voters with
    ``p1 + p2 + p3 <= 1`` have ``W > 0``."""
    d = EvenProductDistribution.uniform()
    members, S = class_table(_ARROW_N, ClassFilter(("non_constant",)))
    p = S[:, 0]
    sum_ok = p[:, None, None] + p[None, :, None] + p[None, None, :] <= 1.0 + 1e-15
    value, (i, j, k), eligible = scan_planes(
        *cross_planes(S, S, S, d), False, means=(p, p, p), allowed=lambda i: sum_ok[i]
    )
    fs = (members[i], members[j], members[k])
    witness = _triple_witness(value, d, fs, {"eligible_triples": eligible})
    return _report(
        "arrow_sum_condition",
        lhs=value,
        rhs=STRICT_FLOOR,
        margin=value - STRICT_FLOOR,
        tolerance=0.0,
        witness=witness,
    )


def w_prime_first_level_bound(n: int) -> float:
    """Upper bound on the sign-ignored ``W`` of the AND / dual / majority
    triple keeping only the base and one first-level cross term:
    ``2^-n (1 - 2^-n) - (n/3) C(n-1, (n-1)/2) 4^-n``.

    Valid because every discarded term is nonpositive; evaluated in
    log space so large arities stay finite.
    """
    check_odd("n", n)
    log2_binom = (math.lgamma(n) - 2.0 * math.lgamma((n + 1) / 2.0)) / math.log(2.0)
    first_level = (n / 3.0) * 2.0 ** (log2_binom - 2.0 * n)
    return 2.0**-n - 4.0**-n - first_level


def check_w_prime_negative() -> BoundReport:
    """The sign-ignored variant of ``W`` goes negative for large arity.

    Inverted check: passes when the first-level bound certifies a value at
    least :data:`_W_PRIME_DEPTH` below zero at :data:`_W_PRIME_N_LARGE`
    while the small-arity value (AND, OR, majority on three voters) stays
    strictly positive.  The scan over the odd arities up to
    :data:`_W_PRIME_SCAN_MAX` records where the bound stops decreasing (it
    bottoms out once the binomial term is overtaken by the base's decay).
    """
    bound_large = w_prime_first_level_bound(_W_PRIME_N_LARGE)
    small = w_prime(catalog.preset_gswf("and_dual_majority", 3))
    scan = [(m, w_prime_first_level_bound(m)) for m in range(3, _W_PRIME_SCAN_MAX + 1, 2)]
    values = [b for _, b in scan]
    peak_idx = int(np.argmax(values))
    min_idx = int(np.argmin(values))
    decreasing_to_min = all(
        values[i] > values[i + 1] for i in range(peak_idx, min_idx)
    )
    margin = min(
        -_W_PRIME_DEPTH - bound_large,
        small - STRICT_FLOOR,
        0.0 if (peak_idx == 0 and decreasing_to_min) else -1.0,
    )
    witness = {
        "kind": "first_level_bound",
        "value": bound_large,
        "n": _W_PRIME_N_LARGE,
        "extra": {
            "w_prime_small_triple": small,
            "scan_peak_n": scan[peak_idx][0],
            "scan_min_n": scan[min_idx][0],
            "first_negative_n": next((m for m, b in scan if b < 0), None),
            "decreasing_from_peak_to_min": decreasing_to_min,
        },
    }
    return _report(
        "w_prime_negative_demo",
        lhs=bound_large,
        rhs=-_W_PRIME_DEPTH,
        margin=margin,
        tolerance=0.0,
        witness=witness,
        inverted=True,
    )


#: The AND / dual / majority triple's ``W`` decays below ``AND_ENVELOPE^n``.
AND_ENVELOPE = 0.471


def instability_row(n: int, q: float) -> dict:
    """The threshold instability construction at ``n`` voters and fraction
    ``q`` under the uniform distribution: its cutoff, ``W``, the expectation
    floor ``eta``, ``W / eta``, the least component expectation, and whether
    the floor is asserted (``q n >= 1``, where the binomial entropy estimate
    has content)."""
    gswf = catalog.preset_gswf("threshold_instability", n, q=q)
    w = w_formula(gswf, EvenProductDistribution.uniform()).w
    e = catalog.eta(n, q)
    return {
        "n": n,
        "cutoff": catalog.instability_cutoff(n, q),
        "w": w,
        "eta": e,
        "ratio": w / e,
        "min_expectation": min(bfn.expectation(fn) for fn in gswf.functions),
        "floor_asserted": math.floor(q * n) >= 1,
    }


def check_instability_example() -> BoundReport:
    """Arbitrarily unstable rules: small ``W`` despite non-trivial margins.

    Three parts: (i) the AND / dual / majority triple has
    ``0 < W <= AND_ENVELOPE^n``; (ii) the threshold construction
    (:func:`instability_row`) keeps every component expectation above
    ``eta = 2^{n (H(q) - 1)} / (n + 1)`` where the floor is asserted, and
    the ratio ``W / eta`` is required to decrease strictly along
    ``5, 7, ..., 15`` at ``q = 0.2``; (iii) the exponent comparison
    ``q - 1.08 < H(q) - 1`` holds on the ``q`` grid ``0.05, ..., 0.45``.

    The strict-decrease clause of (ii) is evaluated exactly as stated even
    though the ceiling in the threshold cutoff makes the realized fraction
    oscillate, which breaks monotonicity at small arity; a failure here is
    reported, not masked.
    """
    d = EvenProductDistribution.uniform()
    margins = []
    # (i) AND / dual / majority decay envelope
    and_rows = []
    for n in _AND_N_LIST:
        w = w_formula(catalog.preset_gswf("and_dual_majority", n), d).w
        cap = AND_ENVELOPE**n
        and_rows.append({"n": n, "w": w, "cap": cap})
        margins.append(w - STRICT_FLOOR)  # strictly positive
        margins.append(cap - w)
    # (ii) threshold construction: expectation floor and ratio decay
    rows = [instability_row(n, _THRESHOLD_Q) for n in _THRESHOLD_N_LIST]
    margins += [row["min_expectation"] - row["eta"] for row in rows if row["floor_asserted"]]
    ratio_steps = []
    for prev, nxt in zip(rows, rows[1:]):
        step = prev["ratio"] - nxt["ratio"]
        ratio_steps.append({"from_n": prev["n"], "to_n": nxt["n"], "decrease": step})
        margins.append(step - 1e-15)
    # (iii) exponent inequality
    exponent_rows = []
    for qq in _EXPONENT_Q_GRID:
        gap = (catalog.binary_entropy(qq) - 1.0) - (qq - 1.08)
        exponent_rows.append({"q": qq, "gap": gap})
        margins.append(gap)
    _, worst_step, _ = first_optimum(((r, r["decrease"]) for r in ratio_steps), False)
    witness = {
        "kind": "instability_ratio_pair",
        "value": worst_step["decrease"],
        "q": _THRESHOLD_Q,
        "from_n": worst_step["from_n"],
        "to_n": worst_step["to_n"],
        "extra": {
            "and_rows": and_rows,
            "threshold_rows": rows,
            "ratio_steps": ratio_steps,
            "exponent_rows": exponent_rows,
        },
    }
    return _report(
        "instability_example",
        lhs=worst_step["decrease"],
        rhs=0.0,
        margin=min(margins),
        tolerance=TOL_EXACT,
        witness=witness,
    )


def _even_product_grid():
    """Even product distributions with alpha, beta on an eighth grid."""
    axis = [i / (2.0 * _GRID_STEPS) for i in range(_GRID_STEPS + 1)]
    return [EvenProductDistribution(a, b, max(0.5 - a - b, 0.0))
            for a in axis for b in axis if 0.5 - a - b >= -1e-12]


def check_alpha_half_ceiling(seed: int = _DEFAULT_SEED) -> BoundReport:
    """Balanced monotone triples never exceed ``W = 1/2`` under any even
    product distribution; the two-dictator rule at ``alpha = 1/2`` attains
    it exactly.

    :data:`_ALPHA_HALF_TRIALS` random triples on :data:`_ALPHA_HALF_N` voters
    are evaluated at every law of the eighth grid (:data:`_GRID_STEPS` steps per axis).
    """
    check_count("seed", seed, low=0)
    n, trials = _ALPHA_HALF_N, _ALPHA_HALF_TRIALS
    rng = np.random.default_rng(seed)
    members, S = class_table(n, _BALANCED_MONOTONE)
    picks = [rng.integers(0, len(members), size=trials) for _ in range(3)]
    means, sums = cyclic_spectral_sums([S[p] for p in picks])
    grid = _even_product_grid()
    value, d, (t,) = first_optimum(((d, closed_form(means, sums, d.deltas)[0]) for d in grid), True)
    fs = tuple(members[int(p[t])] for p in picks)
    corner = EvenProductDistribution(0.5, 0.0, 0.0)
    extremal_gswf = catalog.preset_gswf("alpha_half_extremal", n)
    extremal = w_formula(extremal_gswf, corner).w
    if extremal >= value:
        value, d, fs = extremal, corner, extremal_gswf.functions
    witness = _triple_witness(value, d, fs, {
        "grid_size": len(grid),
        "sampled_triples": trials,
        "extremal_w_at_corner": extremal,
        "equality_attained": abs(extremal - 0.5) <= TOL_EXACT,
        "class_size": len(members),
    })
    return _report(
        "alpha_half_ceiling",
        lhs=value,
        rhs=0.5,
        margin=0.5 - value,
        tolerance=TOL_EXACT,
        witness=witness,
    )


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

CHECKS = {
    "formula_vs_oracle": lambda seed: check_formula_vs_oracle(seed=seed),
    "monotone_bound": lambda seed: check_monotone_bound(),
    "biased_product_sign": lambda seed: check_biased_product_sign(),
    "biased_product_sign_nonmonotone_demo": lambda seed: check_biased_product_sign_demo(),
    "fkg": lambda seed: check_fkg(),
    "balanced_bound": lambda seed: check_balanced_bound(),
    "lemma_power_sums": lambda seed: check_lemma_power_sums(),
    "neutral_symmetric_bound": lambda seed: check_neutral_symmetric_bound(),
    "majority_stability": lambda seed: check_majority_stability(),
    "dual_claim": lambda seed: check_dual_claim(),
    "lower_bound_biased": lambda seed: check_lower_bound_biased(),
    "arrow_sum_condition": lambda seed: check_arrow_sum_condition(),
    "w_prime_negative_demo": lambda seed: check_w_prime_negative(),
    "instability_example": lambda seed: check_instability_example(),
    "alpha_half_ceiling": lambda seed: check_alpha_half_ceiling(seed=seed),
}


def run_all(seed: int = _DEFAULT_SEED, names=None) -> list[BoundReport]:
    """Run the selected checks (all by default), sorted by name; a name may
    be selected once.  ``seed`` is checked even when no selected check reads it."""
    check_count("seed", seed, low=0)
    selected = sorted(CHECKS) if names is None else list(names)
    unknown = [x for x in selected if x not in CHECKS]
    if unknown:
        raise ValidationError(
            f"unknown checks: {', '.join(unknown)}; known: {', '.join(sorted(CHECKS))}"
        )
    repeated = sorted({x for x in selected if selected.count(x) > 1})
    if repeated:
        raise ValidationError(f"checks named more than once: {', '.join(repeated)}")
    return sorted((CHECKS[name](seed) for name in selected), key=lambda r: r.name)


def suite_passed(reports) -> bool:
    """Exit criterion: every non-inverted check passed."""
    return all(r.passed for r in reports if not r.inverted)


# --------------------------------------------------------------------------
# witness re-evaluation
# --------------------------------------------------------------------------


def reevaluate_witness(report: BoundReport) -> float:
    """Recompute the quantity a report's witness claims, from scratch."""
    w = report.witness
    kind = w["kind"]
    if kind in ("w_triple", "cross_sum_triple"):
        res = w_formula(Gswf(*_functions_from_payload(w)), _dist_from_payload(w["dist"]))
        return res.w if kind == "w_triple" else res.w - res.base
    if kind in ("scaled_biased_pair", "bounded_pair"):
        f, g = _functions_from_payload(w)
        value = biased_inner_product(walsh_transform(f), walsh_transform(g), w["delta"])
        if kind == "scaled_biased_pair":
            return value / w["delta"]
        p1, p2 = bfn.expectation(f), bfn.expectation(g)
        return value + min(p1 * p2, (1 - p1) * (1 - p2))
    if kind == "covariance_pair":
        f, g = _functions_from_payload(w)
        efg = float(np.dot(f.table.astype(np.float64), g.table.astype(np.float64))) / (1 << f.n)
        return efg - bfn.expectation(f) * bfn.expectation(g)
    if kind == "power_sum_point":
        x, y, z, k = w["x"], w["y"], w["z"], w["k"]
        e = 2 * k + 1
        return (x**3 + y**3 + z**3) - (x**e + y**e + z**e)
    if kind == "eq_floor_row":
        dst = _dist_from_payload(w["dist"])
        return w_formula(catalog.preset_gswf("condorcet", w["n"]), dst).w
    if kind == "stability_point":
        return abs(
            majority_self_correlation(w["n"], w["rho"])
            - math.asin(w["rho"]) / (2.0 * math.pi)
        )
    if kind == "dual_function":
        (f,) = _functions_from_payload(w)
        return float(_dual_deviation(f.n, f.table[None])[0])
    if kind == "first_level_bound":
        return w_prime_first_level_bound(w["n"])
    if kind == "instability_ratio_pair":
        ratio_from, ratio_to = (instability_row(w[k], w["q"])["ratio"] for k in ("from_n", "to_n"))
        return ratio_from - ratio_to
    raise ValidationError(f"unknown witness kind {kind!r}")
