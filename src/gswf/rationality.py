"""Irrational-outcome probability for three-alternative choice rules.

A rule is a triple ``(f, g, h)`` of equal-arity Boolean functions deciding
the pairs (A,B), (B,C) and (C,A).  A profile produces an irrational
(cyclic) outcome exactly when the three pairwise decisions coincide, and
``W(f, g, h)`` is the probability of that event.

Two independent evaluation paths are provided:

* ``w_formula`` evaluates the closed form
  ``W = p1 p2 p3 + (1-p1)(1-p2)(1-p3)
  + <<f,g>>_{4a-1} + <<g,h>>_{4b-1} + <<h,f>>_{4c-1}``,
  valid for even product distributions, where ``<<.,.>>_d`` is the biased
  inner product of spectra and ``p_i`` are the means.
* ``w_oracle_batch`` sums the probability of every admissible profile
  exactly, for every row of three stacked truth tables, one voter at a
  time (the law of a profile is a product of per-voter laws); ``w_oracle``
  is its one-row view.  It uses no Walsh characters, shares no code with
  the formula path and accepts arbitrary per-voter triple distributions.

A seeded Monte Carlo estimator covers arities beyond the oracle ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bfn
from .bfn import BooleanFunction, PseudoSpectrum, mask_levels, walsh_transform
from .dist import ADMISSIBLE_TRIPLES, EvenProductDistribution, as_triple_distribution
from .errors import CapacityError, ValidationError

#: Ceiling on the oracle's contracted tables, two ``4^n`` float64 tables
#: per row, in bytes; the process peaks at about 2.5 times this.
ORACLE_BYTES = 1 << 27

#: Largest arity accepted by the exact oracle: the largest ``n`` whose one
#: row, ``16 4^n`` bytes, fits in :data:`ORACLE_BYTES`.
ORACLE_MAX = ((ORACLE_BYTES // 16).bit_length() - 1) // 2

#: Largest sample count accepted by the Monte Carlo estimator.
SAMPLES_MAX = 10**9

#: Uniform draws per Monte Carlo chunk; the estimate does not depend on it.
MC_CHUNK_DRAWS = 1 << 16

_TRIPLE_BITS = np.array(ADMISSIBLE_TRIPLES, dtype=np.uint8)

# Per pairwise bit, the i at which the canonical order flips it between
# triples i and i + 1.
_BIT_FLIPS = [np.flatnonzero(bits[1:] != bits[:-1]) for bits in _TRIPLE_BITS.T]


@dataclass(frozen=True, eq=False)
class Gswf:
    """Choice functions for the pairs (A,B), (B,C), (C,A)."""

    f: BooleanFunction
    g: BooleanFunction
    h: BooleanFunction

    def __post_init__(self) -> None:
        if not (self.f.n == self.g.n == self.h.n):
            raise ValidationError(
                f"arities differ: {self.f.n}, {self.g.n}, {self.h.n}"
            )

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def functions(self) -> tuple[BooleanFunction, BooleanFunction, BooleanFunction]:
        return (self.f, self.g, self.h)


@dataclass(frozen=True)
class WResult:
    """Outcome of one irrationality-probability computation.

    ``base`` is ``p1 p2 p3 + (1-p1)(1-p2)(1-p3)``; for ``method="formula"``
    the identity ``w == base + sum(cross_terms)`` holds to 1e-12 and
    ``cross_terms[k]`` pairs with ``deltas[k]`` as (f,g), (g,h), (h,f).
    """

    w: float
    base: float
    method: str
    n: int
    cross_terms: tuple[float, float, float] | None = None
    deltas: tuple[float, float, float] | None = None
    samples: int | None = None
    seed: int | None = None
    stderr: float | None = None

    def __post_init__(self) -> None:
        if not -1e-12 <= self.w <= 1.0 + 1e-12:
            raise ValidationError(f"probability {self.w!r} outside [0, 1]")

    def to_json_dict(self) -> dict:
        out = {
            "w": self.w,
            "base": self.base,
            "method": self.method,
            "n": self.n,
            "cross_terms": list(self.cross_terms) if self.cross_terms else None,
            "deltas": list(self.deltas) if self.deltas else None,
        }
        if self.method == "monte_carlo":
            out.update(samples=self.samples, seed=self.seed, stderr=self.stderr)
        return out


#: Ceiling on any pairwise inner-product matrix, in bytes.
PAIR_CACHE_BYTES = 1 << 30


def _level_powers(n: int, delta: float) -> np.ndarray:
    return np.power(float(delta), np.arange(n + 1, dtype=np.float64))


def _delta_mask_weights(n: int, delta: float) -> np.ndarray:
    # delta^{|S|} per mask with the empty set zeroed out; the n+1 level
    # powers are computed once and gathered.
    weights = _level_powers(n, delta)[mask_levels(n)]
    weights[0] = 0.0
    return weights


def _biased_rows(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # <<a, b>>_delta for each pair of rows along the last axis, given the
    # delta's mask weights.  They broadcast over the rows, so they are
    # applied in place: one product array is alive at a time, whatever the
    # stack's shape.
    prod = a * b
    prod *= weights
    return prod.sum(axis=-1)


def biased_inner_product(sf: PseudoSpectrum, sg: PseudoSpectrum, delta: float) -> float:
    """``sum over nonempty S of sf[S] sg[S] delta^{|S|}``."""
    if sf.n != sg.n:
        raise ValidationError(f"arities differ: {sf.n} != {sg.n}")
    if not -1.0 <= delta <= 1.0:
        raise ValidationError(f"delta must lie in [-1, 1], got {delta!r}")
    return float(_biased_rows(sf.coeffs, sg.coeffs, _delta_mask_weights(sf.n, delta)))


def pair_matrix(sa: np.ndarray, sb: np.ndarray, delta: float) -> np.ndarray:
    """Entry ``[i, j]`` is ``<<sa[i], sb[j]>>_delta`` for two stacks of spectra."""
    if sa.shape[0] * sb.shape[0] * 8 > PAIR_CACHE_BYTES:
        raise CapacityError("pairwise inner-product cache would exceed 1 GiB")
    n = sa.shape[-1].bit_length() - 1
    return (sa * _delta_mask_weights(n, delta)) @ sb.T


def noise_operator_spectral(s: PseudoSpectrum, eps: float) -> PseudoSpectrum:
    """Attenuate level-``k`` coefficients by ``eps^k``."""
    if not -1.0 <= eps <= 1.0:
        raise ValidationError(f"eps must lie in [-1, 1], got {eps!r}")
    return PseudoSpectrum(s.n, s.coeffs * _level_powers(s.n, eps)[mask_levels(s.n)])


def noise_operator_convolution(f: BooleanFunction, eps: float) -> np.ndarray:
    """Exact noisy average ``x -> E[f(x xor y)]``.

    Each coordinate of ``y`` is independently 0 with probability
    ``(1+eps)/2`` and 1 with probability ``(1-eps)/2``; the expectation is
    evaluated by one averaging pass per coordinate.
    """
    if not -1.0 <= eps <= 1.0:
        raise ValidationError(f"eps must lie in [-1, 1], got {eps!r}")
    keep = (1.0 + eps) / 2.0
    flip = (1.0 - eps) / 2.0
    return bfn.per_voter_pass(f.table, [[keep, flip], [flip, keep]])


def _base_term(p1: float, p2: float, p3: float) -> float:
    return p1 * p2 * p3 + (1 - p1) * (1 - p2) * (1 - p3)


def w_batch(sf: np.ndarray, sg: np.ndarray, sh: np.ndarray, d: EvenProductDistribution):
    """The closed form for row-aligned stacks of coefficient vectors.

    Row ``t`` of the three stacks is one triple.  Returns ``(w, base,
    cross)``: ``W`` per row, the base term ``p1 p2 p3 + (1-p1)(1-p2)(1-p3)``
    and the three cross terms (f,g), (g,h), (h,f), with ``w`` summed as
    ``((base + cross[0]) + cross[1]) + cross[2]``.
    """
    base = _base_term(sf[..., 0], sg[..., 0], sh[..., 0])
    n = sf.shape[-1].bit_length() - 1
    pairs = ((sf, sg), (sg, sh), (sh, sf))
    cross = [None] * 3
    # One weight vector per distinct delta (all three are equal under the
    # uniform law), alive only while its cross terms are summed.
    for delta in dict.fromkeys(d.deltas):
        weights = _delta_mask_weights(n, delta)
        for c, (a, b) in enumerate(pairs):
            if d.deltas[c] == delta:
                cross[c] = _biased_rows(a, b, weights)
        del weights
    return base + cross[0] + cross[1] + cross[2], base, tuple(cross)


def level_inner_product(a: np.ndarray, b: np.ndarray, delta: float) -> float:
    """``<<f, g>>_delta`` of two symmetric functions from their level
    coefficients (see :func:`bfn.read_structure`):
    ``sum over k >= 1 of C(n, k) a_k b_k delta^k``, ``O(n)``."""
    if not -1.0 <= delta <= 1.0:
        raise ValidationError(f"delta must lie in [-1, 1], got {delta!r}")
    n = len(a) - 1
    binomials = np.array([math.comb(n, k) for k in range(n + 1)], dtype=np.float64)
    return math.fsum((a * b * binomials * _level_powers(n, delta))[1:])


def w_formula(gswf: Gswf, d: EvenProductDistribution) -> WResult:
    """Closed-form ``W`` for an even product distribution.

    The structure of each distinct function is read once
    (:func:`bfn.read_structure`) and picks the route:

    * all three symmetric: every cross term by :func:`level_inner_product`,
      ``O(n)``, summed ``((base + c0) + c1) + c2`` as in :func:`w_batch`;
    * the union ``J`` of the relevant voters smaller than ``n``: ``W`` of
      the triple restricted to ``J`` (the other voters integrate out of a
      product law), reported at arity ``n``;
    * otherwise the dense spectra, through :func:`w_from_spectra`.
    """
    fns = gswf.functions
    found = {fn: bfn.read_structure(fn) for fn in set(fns)}
    levels = [found[fn][0] for fn in fns]
    if all(a is not None for a in levels):
        base = _base_term(*(a[0] for a in levels))
        pairs = zip(levels, levels[1:] + levels[:1], d.deltas)
        cross = tuple(level_inner_product(a, b, delta) for a, b, delta in pairs)
        w = float(base + cross[0] + cross[1] + cross[2])
        return WResult(w, float(base), "formula", gswf.n, cross, d.deltas)
    union = sorted(set().union(*(relevant for _, relevant in found.values())))
    if len(union) < gswf.n:
        sub = Gswf(*(bfn.restrict(fn, union) for fn in fns))
        return replace(w_formula(sub, d), n=gswf.n)
    spectra = {fn: walsh_transform(fn, s) for fn, s in found.items()}
    return w_from_spectra(*(spectra[fn] for fn in fns), d)


def w_from_spectra(
    sf: PseudoSpectrum,
    sg: PseudoSpectrum,
    sh: PseudoSpectrum,
    d: EvenProductDistribution,
) -> WResult:
    """The same closed form applied to raw coefficient vectors.

    No Booleanity is demanded, so this also evaluates coefficient patterns
    that no genuine Boolean function realizes.
    """
    if not (sf.n == sg.n == sh.n):
        raise ValidationError(f"arities differ: {sf.n}, {sg.n}, {sh.n}")
    w, base, cross = w_batch(sf.coeffs[None], sg.coeffs[None], sh.coeffs[None], d)
    return WResult(
        w=float(w[0]),
        base=float(base[0]),
        method="formula",
        n=sf.n,
        cross_terms=tuple(float(c[0]) for c in cross),
        deltas=d.deltas,
    )


def w_oracle_batch(ft: np.ndarray, gt: np.ndarray, ht: np.ndarray, t) -> np.ndarray:
    """Exact ``W`` per row of three row-aligned ``uint8`` truth-table stacks.

    Accepts any per-voter triple distribution (not only even product ones)
    and shares no code path with :func:`w_formula`.  With the per-voter
    kernel ``K[2x+y, z] = p(x, y, z)`` (0 at the two cyclic corners), one
    pass over ``[h, 1-h]`` gives ``m[(x, y)] = sum_z h(z) P(x, y, z)`` and
    its complement, and ``W = sum f(x) g(y) m + (1-f)(1-g) m'``.
    """
    t = as_triple_distribution(t)
    if not (np.ndim(ft) == 2 and np.shape(ft) == np.shape(gt) == np.shape(ht)):
        raise ValidationError(
            f"expected three equal-shape table stacks, got {np.shape(ft)}, "
            f"{np.shape(gt)}, {np.shape(ht)}"
        )
    rows, size = ft.shape
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValidationError(f"table length {size} is not a power of two")
    if rows * 16 * 4**n > ORACLE_BYTES:
        raise CapacityError(
            f"oracle tables for {rows} rows at n={n} would exceed {ORACLE_BYTES >> 20} MiB "
            f"(one row fits up to n = {ORACLE_MAX}); use w_monte_carlo for larger arities"
        )
    x, y, z = _TRIPLE_BITS.T
    kernel = np.zeros((4, 2))
    kernel[2 * x + y, z] = t.p
    m = bfn.per_voter_pass(np.concatenate([ht, 1 - ht]), kernel)
    # Voter i is digit 2x_i + y_i of m: f spreads over the x bits, g over y.
    fx, gy = ft.reshape(rows, *(2, 1) * n), gt.reshape(rows, *(1, 2) * n)
    agree = np.concatenate([fx & gy, (1 - fx) & (1 - gy)]).reshape(2 * rows, -1)
    w = (m * agree).sum(axis=-1)
    return w[:rows] + w[rows:]


def w_oracle(gswf: Gswf, t) -> WResult:
    """Exact ``W`` of one triple: the one-row view of :func:`w_oracle_batch`."""
    w = w_oracle_batch(*(fn.table[None] for fn in gswf.functions), t)
    p1, p2, p3 = (bfn.expectation(fn) for fn in gswf.functions)
    return WResult(w=float(w[0]), base=_base_term(p1, p2, p3), method="oracle", n=gswf.n)


def _profile_masks(rng: np.random.Generator, t, samples: int, n: int):
    # Yields, chunk by chunk, the (A,B), (B,C) and (C,A) input masks of the
    # profiles of rng.choice(6, (samples, n), p=t.p) as uint32 arrays, voter
    # i at bit i.  Triple j is drawn iff cdf[j-1] <= u < cdf[j], so a pairwise
    # bit is its value at triple 0 XOR u >= cdf[i] at each of its flips i.
    cdf = t.p.cumsum()
    cdf /= cdf[-1]
    starts = np.where(_TRIPLE_BITS[0], (1 << n) - 1, 0).astype(np.uint32)
    rows = max(1, min(samples, MC_CHUNK_DRAWS // n))
    # Plane j holds voter i's u >= cdf[j] in column i, zero padded to 32
    # columns (n <= N_MAX = 24): one flat packbits gives a uint32 per row.
    above = np.zeros((5, rows, 32), dtype=bool)
    for done in range(0, samples, rows):
        m = min(rows, samples - done)
        u = rng.random((m, n))
        for j in range(5):
            np.greater_equal(u, cdf[j], out=above[j, :m, :n])
        words = np.packbits(above[:, :m], bitorder="little").view("<u4").reshape(5, m)
        yield [np.bitwise_xor.reduce(words[flips]) ^ start for flips, start in zip(_BIT_FLIPS, starts)]


def w_monte_carlo(gswf: Gswf, t, samples: int, seed: int) -> WResult:
    """Unbiased sampled estimate of ``W``, deterministic for a given seed.

    The profiles are those of ``rng.choice(6, (samples, n), p=t.p)`` on
    ``numpy.random.default_rng(seed)``: one ``rng.random`` uniform ``u`` per
    voter picks the triple ``#{j : cdf[j] <= u}`` of the normalized
    cumulative law, and the input masks are read off the thresholds
    ``u >= cdf[j]``.  ``rng.random`` fills its output in C order, so the
    estimate does not depend on how the profiles are split into chunks.
    """
    t = as_triple_distribution(t)
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    if samples > SAMPLES_MAX:
        raise CapacityError(f"samples limited to {SAMPLES_MAX}, got {samples}")
    n = gswf.n
    hits = 0
    for masks in _profile_masks(np.random.default_rng(seed), t, samples, n):
        a, b, c = (fn.table[mask] for fn, mask in zip(gswf.functions, masks))
        hits += int(np.count_nonzero((a == b) & (b == c)))
    w = hits / samples
    p1, p2, p3 = (bfn.expectation(fn) for fn in gswf.functions)
    return WResult(
        w=w,
        base=_base_term(p1, p2, p3),
        method="monte_carlo",
        n=n,
        samples=samples,
        seed=seed,
        stderr=float(np.sqrt(w * (1 - w) / samples)),
    )


def _sign_ignored_inner_product(sf: PseudoSpectrum, sg: PseudoSpectrum) -> float:
    # -sum over nonempty S of |sf[S] sg[S] (-1/3)^{|S|}|
    weights = _delta_mask_weights(sf.n, -1.0 / 3.0)
    return -float(np.sum(np.abs(sf.coeffs * sg.coeffs * weights)))


def w_prime(gswf: Gswf) -> float:
    """Sign-ignored variant of the closed form at the uniform distribution.

    Every cross term is replaced by its absolute-value lower bound, so the
    result lower-bounds ``W`` but may itself be negative: the quantity
    witnesses that any bound discarding coefficient signs cannot prove
    nonnegativity of ``W`` in general.
    """
    sf, sg, sh = (walsh_transform(fn) for fn in gswf.functions)
    base = _base_term(sf.mean, sg.mean, sh.mean)
    return (
        base
        + _sign_ignored_inner_product(sf, sg)
        + _sign_ignored_inner_product(sg, sh)
        + _sign_ignored_inner_product(sh, sf)
    )
