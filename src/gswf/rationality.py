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
from dataclasses import dataclass

import numpy as np

from . import bfn
from .bfn import BooleanFunction, PseudoSpectrum, level_sums, mask_levels, walsh_transform
from .dist import ADMISSIBLE_TRIPLES, EvenProductDistribution, as_triple_distribution, even_product_law
from .errors import CapacityError, ValidationError, check_count, check_same_arity, check_unit

#: Ceiling on the oracle's contracted tables, two ``4^n`` float64 tables
#: per row, in bytes; the process peaks at about 2.5 times this.
ORACLE_BYTES = 1 << 27

#: Largest arity accepted by the exact oracle: the largest ``n`` whose one
#: row, ``16 4^n`` bytes, fits in :data:`ORACLE_BYTES`.
ORACLE_MAX = ((ORACLE_BYTES // 16).bit_length() - 1) // 2


def check_oracle_size(rows: int, n: int) -> None:
    """Refuse an oracle call on ``rows`` rows at arity ``n`` past :data:`ORACLE_BYTES`."""
    if rows * 16 * 4**n > ORACLE_BYTES:
        raise CapacityError(
            f"oracle tables for {rows} rows at n={n} would exceed {ORACLE_BYTES >> 20} MiB "
            f"(one row fits up to n = {ORACLE_MAX}); use w_monte_carlo for larger arities"
        )


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
        check_same_arity(self.f.n, self.g.n, self.h.n)

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


def level_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The level sums ``C(n, k) a_k b_k`` of two symmetric functions from
    their level coefficients (see :func:`bfn.symmetric_levels`); exact by the bound
    of :func:`bfn.level_sums`, and its bits on their spectra (+ 0.0 reads -0.0 as 0.0)."""
    n = len(a) - 1
    return np.array([math.comb(n, k) for k in range(n + 1)], dtype=np.float64) * a * b + 0.0


def _horner(level, n: int, delta: float):
    # The one evaluation of every biased inner product: acc = (acc + L_k) delta
    # for k = n..1; + 0.0 reads an all-zero sum as 0.0 whatever delta's sign.
    acc = 0.0
    for k in range(n, 0, -1):
        acc = (acc + level(k)) * delta
    return acc + 0.0


def cross_term(sums: np.ndarray, delta: float):
    """``<<f, g>>_delta = sum over k >= 1 of delta^k L_k`` from level sums
    (:func:`level_sums`), elementwise over the leading axes."""
    return _horner(lambda k: sums[..., k], sums.shape[-1] - 1, delta)


def biased_inner_product(sf: PseudoSpectrum, sg: PseudoSpectrum, delta: float) -> float:
    """``sum over nonempty S of sf[S] sg[S] delta^{|S|}``."""
    check_same_arity(sf.n, sg.n)
    check_unit("delta", delta)
    return float(cross_term(level_sums(sf.coeffs, sg.coeffs), delta))


def pair_matrix(sa: np.ndarray, sb: np.ndarray, delta: float) -> np.ndarray:
    """Entry ``[i, j]`` is ``<<sa[i], sb[j]>>_delta`` for two stacks of spectra,
    equal to :func:`biased_inner_product` of the two rows: the products
    ``sa[:, |S| = k] @ sb[:, |S| = k].T`` are their exact level sums."""
    if sa.shape[0] * sb.shape[0] * 8 > PAIR_CACHE_BYTES:
        raise CapacityError("pairwise inner-product cache would exceed 1 GiB")
    n = sa.shape[-1].bit_length() - 1
    on_level = mask_levels(n) == np.arange(n + 1)[:, None]
    return _horner(lambda k: sa[:, on_level[k]] @ sb[:, on_level[k]].T, n, delta)


def noise_operator_spectral(s: PseudoSpectrum, eps: float) -> PseudoSpectrum:
    """Attenuate level-``k`` coefficients by ``eps^k``."""
    check_unit("eps", eps)
    return PseudoSpectrum(s.n, s.coeffs * np.power(float(eps), mask_levels(s.n)))


def noise_operator_convolution(f: BooleanFunction, eps: float) -> np.ndarray:
    """Exact noisy average ``x -> E[f(x xor y)]``.

    Each coordinate of ``y`` is independently 0 with probability
    ``(1+eps)/2`` and 1 with probability ``(1-eps)/2``; the expectation is
    evaluated by one averaging pass per coordinate.
    """
    check_unit("eps", eps)
    keep = (1.0 + eps) / 2.0
    flip = (1.0 - eps) / 2.0
    return bfn.per_voter_pass(f.table, [[keep, flip], [flip, keep]])


def _base_term(p1: float, p2: float, p3: float) -> float:
    return p1 * p2 * p3 + (1 - p1) * (1 - p2) * (1 - p3)


def closed_form(means, sums, deltas):
    """``(w, base, cross)`` from the means ``(p1, p2, p3)`` and the level
    sums and deltas of the pairs (f,g), (g,h), (h,f): ``base`` is
    ``p1 p2 p3 + (1-p1)(1-p2)(1-p3)``, each cross term :func:`cross_term`,
    and ``w = ((base + cross[0]) + cross[1]) + cross[2]``, all elementwise."""
    base = _base_term(*means)
    c0, c1, c2 = (cross_term(s, delta) for s, delta in zip(sums, deltas))
    return base + c0 + c1 + c2, base, (c0, c1, c2)


def cyclic_spectral_sums(rows, pair=level_sums):
    """``(means, sums)`` of row-aligned coefficient stacks ``(s1, ..., sm)``:
    their entries 0 and ``pair`` of ``(s1, s2), ..., (sm, s1)``."""
    return [s[..., 0] for s in rows], [pair(a, b) for a, b in zip(rows, rows[1:] + rows[:1])]


def w_batch(sf: np.ndarray, sg: np.ndarray, sh: np.ndarray, d: EvenProductDistribution):
    """:func:`closed_form` on the :func:`cyclic_spectral_sums` of row-aligned
    stacks of coefficient vectors; row ``t`` of the three stacks is one triple."""
    return closed_form(*cyclic_spectral_sums([sf, sg, sh]), d.deltas)


def _formula_result(n: int, d: EvenProductDistribution, w, base, cross) -> WResult:
    return WResult(float(w), float(base), "formula", n, tuple(map(float, cross)), d.deltas)


def cyclic_level_sums(fns):
    """``(means, sums)``: the means of ``fns = (f1, ..., fm)`` and the level sums
    of the pairs ``(f1, f2), ..., (fm, f1)`` (of one function, its level weights),
    exact on every route the distinct functions' :func:`bfn.read_structure` picks:

    * all symmetric: :func:`level_products` of the levels, ``O(n)``;
    * the relevant voters' union ``J`` smaller than ``n``: the ``|J| + 1``
      level sums of the functions restricted to ``J`` (the rest are 0);
    * otherwise :func:`cyclic_spectral_sums` of the integer spectra
      (:func:`bfn.integer_spectrum`, a symmetric member's gathered from its
      levels), each under :func:`bfn.check_boolean_spectra`, scaled by
      ``2^-n`` and ``4^-n`` at the end.
    """
    check_same_arity(*(fn.n for fn in fns))
    found = {fn: bfn.read_structure(fn) for fn in set(fns)}
    levels = [found[fn][0] for fn in fns]
    if all(a is not None for a in levels):
        return cyclic_spectral_sums(levels, level_products)
    n = fns[0].n
    union = sorted(set().union(*(relevant for _, relevant in found.values())))
    if len(union) < n:
        return cyclic_level_sums([bfn.restrict(fn, union) for fn in fns])
    spectra = {}
    for fn, (a, _) in found.items():
        if a is None:
            spectra[fn] = bfn.integer_spectrum(fn.table)
        else:  # the integer levels 2^n a, gathered
            spectra[fn] = (a * float(1 << n)).astype(np.int32)[mask_levels(n)]
        bfn.check_boolean_spectra(spectra[fn])
    means, sums = cyclic_spectral_sums([spectra[fn] for fn in fns])
    return [m / float(1 << n) for m in means], [s / 4.0**n for s in sums]


def w_formula(gswf: Gswf, d: EvenProductDistribution) -> WResult:
    """Closed-form ``W`` for an even law: :func:`closed_form` on the
    :func:`cyclic_level_sums` of ``(f, g, h)``."""
    d = even_product_law(d)
    return _formula_result(gswf.n, d, *closed_form(*cyclic_level_sums(gswf.functions), d.deltas))


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
    check_same_arity(sf.n, sg.n, sh.n)
    d = even_product_law(d)
    return _formula_result(sf.n, d, *w_batch(sf.coeffs, sg.coeffs, sh.coeffs, d))


def w_oracle_batch(ft: np.ndarray, gt: np.ndarray, ht: np.ndarray, t) -> np.ndarray:
    """Exact ``W`` per row of three row-aligned 0/1 truth-table stacks.

    Accepts any per-voter triple distribution (not only even product ones)
    and shares no code path with :func:`w_formula`.  With the per-voter
    kernel ``K[2x+y, z] = p(x, y, z)`` (0 at the two cyclic corners), one
    :func:`bfn.per_voter_pass` over ``h`` gives ``m[(x, y)] = sum_z h(z)
    P(x, y, z)``, one over ``1-h`` its complement ``m'``, and
    ``W = sum f(x) g(y) m + (1-f)(1-g) m'``.  The agreement masks
    ``f(x) g(y)`` are the outer products of the tables, with the stack last,
    whose x and y voter axes one transpose interleaves into ``m``'s base-4
    digits.  Tables must be integer or bool stacks of 0 and 1 entries at an
    arity :func:`bfn.check_arity` accepts, with at least one row.
    """
    t = as_triple_distribution(t)
    ft, gt, ht = (np.asarray(x) for x in (ft, gt, ht))
    if not (ft.ndim == 2 and ft.shape == gt.shape == ht.shape):
        raise ValidationError(
            f"expected three equal-shape table stacks, got {ft.shape}, {gt.shape}, {ht.shape}"
        )
    rows, n = len(ft), bfn.arity_of(ft)
    if rows == 0:
        raise ValidationError("the table stacks are empty")
    bfn.check_arity(n)
    check_oracle_size(rows, n)
    for tables in (ft, gt, ht):
        if not bfn.is_zero_one(tables):
            raise ValidationError("table entries must be 0 or 1")
    x, y, z = _TRIPLE_BITS.T
    kernel = np.zeros((4, 2))
    kernel[2 * x + y, z] = t.p
    ft, gt, ht = (tables.astype(np.uint8, copy=False) for tables in (ft, gt, ht))
    # h and 1-h take one pass each, over the distinct h rows, gathered back:
    # the exhaustive n = 2 stack has 16 in 4096.
    first, which = _distinct_rows(ht)
    w = []
    for fv, gv, hv in ((ft, gt, ht[first]), (1 - ft, 1 - gt, 1 - ht[first])):
        agree = _agreement(fv, gv)
        w.append((bfn.per_voter_pass(hv, kernel).take(which, axis=0) * agree).sum(axis=-1))
    return w[0] + w[1]


def _agreement(ft: np.ndarray, gt: np.ndarray) -> np.ndarray:
    # f(x) g(y) per row at every base-4 entry of m, whose digit i is
    # 2 x_i + y_i: the outer product over (x, y) with the stack last, its x
    # and y voter axes interleaved by one transpose (voter n - 1 first), then
    # row-major.  With the stack last the product's inner loop runs over all
    # of g; broadcast straight into the interleaved axes, one row's would run
    # over two entries at a time.
    rows, n = ft.shape[0], bfn.arity_of(ft)
    outer = np.ascontiguousarray(ft.T)[:, None] & np.ascontiguousarray(gt.T)[None]
    voters = [axis for i in range(n) for axis in (i, n + i)]
    cube = outer.reshape((2,) * (2 * n) + (rows,)).transpose(voters + [2 * n])
    return np.ascontiguousarray(cube.reshape(-1, rows).T)


def _distinct_rows(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The first of each distinct row of a uint8 stack and each row's index
    # among them, from one lexsort of the rows read as words: np.unique on
    # rows sorted the n = 2 stack more slowly than the passes it saves.
    words = np.ascontiguousarray(tables).view(f"u{min(tables.shape[1], 8)}")
    order = np.lexsort(words.T)
    new = np.r_[True, (words[order[1:]] != words[order[:-1]]).any(axis=1)]
    which = np.empty(len(tables), dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    return order[new], which


def w_oracle(gswf: Gswf, t) -> WResult:
    """Exact ``W`` of one triple: the one-row view of :func:`w_oracle_batch`."""
    w = w_oracle_batch(*(fn.table[None] for fn in gswf.functions), t)
    p1, p2, p3 = (bfn.expectation(fn) for fn in gswf.functions)
    return WResult(w=float(w[0]), base=_base_term(p1, p2, p3), method="oracle", n=gswf.n)


def _profile_masks(rng: np.random.Generator, t, samples: int, n: int):
    # Yields, chunk by chunk, the (A,B), (B,C) and (C,A) input masks of the
    # profiles of rng.choice(6, (samples, n), p=t.p) as unsigned words of
    # width bits, voter i at bit i.  Triple j is drawn iff
    # cdf[j-1] <= u < cdf[j], so a pairwise bit is its value at triple 0 XOR
    # u >= cdf[i] at each of its flips i.
    cdf = t.p.cumsum()
    cdf /= cdf[-1]
    width = next(w for w in (8, 16, 32) if w >= n)
    dtype = np.dtype(f"<u{width // 8}")
    starts = np.where(_TRIPLE_BITS[0], (1 << n) - 1, 0).astype(dtype)
    rows = max(1, min(samples, MC_CHUNK_DRAWS // width))
    # The draws are copied into rows padded to width columns (n <= N_MAX = 24)
    # with -1.0, below every threshold, so one compare over contiguous rows
    # fills the five planes (plane j holds voter i's u >= cdf[j] in column i,
    # pad bits 0), and one flat packbits makes a word per row.  Chunks of
    # MC_CHUNK_DRAWS // width rows bound every buffer whatever n is.
    u = np.empty((rows, n))
    padded = np.full((rows, width), -1.0)
    above = np.empty((5, rows, width), dtype=bool)
    for done in range(0, samples, rows):
        m = min(rows, samples - done)
        padded[:m, :n] = rng.random(out=u[:m])
        np.greater_equal(padded[None, :m], cdf[:5, None, None], out=above[:, :m])
        words = np.packbits(above[:, :m], bitorder="little").view(dtype).reshape(5, m)
        yield [np.bitwise_xor.reduce(words[flips]) ^ start for flips, start in zip(_BIT_FLIPS, starts)]


def w_monte_carlo(gswf: Gswf, t, samples: int, seed: int) -> WResult:
    """Unbiased sampled estimate of ``W``, deterministic for a given seed.

    The profiles are those of ``rng.choice(6, (samples, n), p=t.p)`` on
    ``numpy.random.default_rng(seed)``: one ``rng.random`` uniform ``u`` per
    voter picks the triple ``#{j : cdf[j] <= u}`` of the normalized
    cumulative law, and the input masks are read off the thresholds
    ``u >= cdf[j]``.  Each chunk's uniforms are copied into rows padded with
    ``-1.0`` to the word width, the least of 8, 16 and 32 bits holding ``n``
    voters, so one compare over contiguous rows gives all five thresholds
    and one ``packbits`` a word per profile.  ``rng.random`` fills its
    output in C order, so the estimate does not depend on how the profiles
    are split into chunks.
    """
    t = as_triple_distribution(t)
    check_count("samples", samples, high=SAMPLES_MAX)
    check_count("seed", seed, low=0)
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


def w_prime(gswf: Gswf) -> float:
    """Sign-ignored variant of the closed form at the uniform distribution.

    Every cross term is replaced by its absolute-value lower bound, so the
    result lower-bounds ``W`` but may itself be negative: the quantity
    witnesses that any bound discarding coefficient signs cannot prove
    nonnegativity of ``W`` in general.
    """
    means, sums = cyclic_spectral_sums([np.abs(walsh_transform(fn).coeffs) for fn in gswf.functions])
    return float(closed_form(means, [-s for s in sums], (1.0 / 3.0,) * 3)[0])
