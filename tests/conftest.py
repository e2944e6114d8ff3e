"""Shared fixtures and independent reference implementations.

The helpers here deliberately avoid the package's own computational paths:
expected values in the tests are produced by plain-Python enumeration and
exact rational arithmetic, then compared against the library.
"""

from fractions import Fraction
from itertools import product as iproduct
from math import comb

import numpy as np
import pytest

from gswf import bfn, rationality
from gswf.bfn import BooleanFunction

# canonical admissible triples (x, y, z), same order the package documents
TRIPLES = ((1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 1), (1, 0, 0), (0, 1, 0))


def brute_force_w(f_table, g_table, h_table, n, probs6):
    """Plain-Python profile enumeration of the irrationality probability."""
    total = 0.0
    for profile in iproduct(range(6), repeat=n):
        x = y = z = 0
        p = 1.0
        for i, digit in enumerate(profile):
            xb, yb, zb = TRIPLES[digit]
            x |= xb << i
            y |= yb << i
            z |= zb << i
            p *= probs6[digit]
        a, b, c = f_table[x], g_table[y], h_table[z]
        if (a and b and c) or (not a and not b and not c):
            total += p
    return total


def fraction_spectrum(table, n):
    """Exact signed-character coefficients by direct double summation."""
    size = 1 << n
    out = []
    for mask in range(size):
        acc = Fraction(0)
        for x in range(size):
            if table[x]:
                zeros = bin(mask & ~x & (size - 1)).count("1")
                acc += Fraction((-1) ** zeros)
        out.append(acc / size)
    return out


def level_sums(profiles, n):
    """Exact integer Krawtchouk level sums of symmetric functions.

    ``profiles`` holds 0/1 lists indexed by Hamming weight ``0..n``.  Every
    coefficient at level ``k`` of a symmetric function equals ``2^-n``
    times ``sum_w F(w) sum_j C(k,j) C(n-k,w-j) (-1)^(k-j)``; entry ``k`` of
    each returned list is that integer sum.
    """
    kraw = [
        [
            sum(
                comb(k, j) * comb(n - k, w - j) * (-1) ** (k - j)
                for j in range(max(0, w - n + k), min(k, w) + 1)
            )
            for w in range(n + 1)
        ]
        for k in range(n + 1)
    ]
    return [
        [sum(prof[w] * kraw[k][w] for w in range(n + 1)) for k in range(n + 1)]
        for prof in profiles
    ]


def symmetric_uniform_w(profiles, n):
    """Exact ``W`` under the uniform distribution for symmetric functions.

    ``profiles`` holds three 0/1 lists indexed by Hamming weight ``0..n``.
    With the level sums of :func:`level_sums` each cross term collapses to
    ``sum_k C(n,k) a_k b_k (-1/3)^k``.  Returns a ``Fraction``.
    """
    levels = level_sums(profiles, n)
    size = 1 << n
    p1, p2, p3 = (Fraction(a[0], size) for a in levels)
    base = p1 * p2 * p3 + (1 - p1) * (1 - p2) * (1 - p3)
    # (-1/3)^k / 4^n over the common denominator 4^n 3^n
    cross = sum(
        comb(n, k) * a[k] * b[k] * (-1) ** k * 3 ** (n - k)
        for a, b in ((levels[0], levels[1]), (levels[1], levels[2]), (levels[2], levels[0]))
        for k in range(1, n + 1)
    )
    return base + Fraction(cross, size * size * 3**n)


def symmetric_w(profiles, n, deltas):
    """Exact ``W`` of three symmetric functions under an even product law.

    As :func:`symmetric_uniform_w`, with each cross term's ``delta`` taken
    as ``Fraction(delta)`` of the given (float) deltas.  Returns a
    ``Fraction``.
    """
    size = 1 << n
    levels = [[Fraction(c, size) for c in a] for a in level_sums(profiles, n)]
    p1, p2, p3 = (a[0] for a in levels)
    total = p1 * p2 * p3 + (1 - p1) * (1 - p2) * (1 - p3)
    pairs = ((levels[0], levels[1]), (levels[1], levels[2]), (levels[2], levels[0]))
    for (a, b), delta in zip(pairs, deltas):
        d = Fraction(delta)
        total += sum(comb(n, k) * a[k] * b[k] * d**k for k in range(1, n + 1))
    return total


def int32_butterfly(tables):
    """Exact ``sum_x v(x) r_S(x)`` of 0/1 tables along the last axis, as
    int32: one plain radix-2 pass per voter, every pass in int32."""
    values = np.array(tables, dtype=np.int32)
    n = values.shape[-1].bit_length() - 1
    for i in range(n):
        v = values.reshape(-1, 2, 1 << i)
        low = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        v[:, 1] -= low
    return values


def digit_voters(n):
    """The x and y voter masks of every base-4 entry, whose digit ``i`` is
    ``2 x_i + y_i``, built by quadrupling: digit ``i`` = 1, 2, 3 repeats the
    entries below ``4^i`` with ``(x_i, y_i)`` = (0, 1), (1, 0), (1, 1)."""
    xs, ys = np.zeros((2, 4**n), dtype=np.intp)
    for i in range(n):
        low = 4**i
        for d in (1, 2, 3):
            part = slice(d * low, (d + 1) * low)
            np.bitwise_or(xs[:low], (d >> 1) << i, out=xs[part])
            np.bitwise_or(ys[:low], (d & 1) << i, out=ys[part])
    return xs, ys


def random_junta(n, voters, rng):
    """A random table on ``len(voters)`` inputs, read off those voters of x."""
    inner = rng.integers(0, 2, size=1 << len(voters), dtype=np.uint8)
    x = np.arange(1 << n)
    y = sum(((x >> v) & 1) << b for b, v in enumerate(voters))
    return BooleanFunction(n, inner[y])


def permuted_inputs(n, perm):
    """Index definition of a voter permutation: entry ``x`` is the input
    whose bit ``perm[i]`` is bit ``i`` of ``x``, so ``table[permuted_inputs]``
    is the table with voter ``i`` moved to ``perm[i]``."""
    x = np.arange(1 << n, dtype=np.int64)
    y = np.zeros_like(x)
    for i, j in enumerate(perm):
        y |= ((x >> i) & 1) << j
    return y


def subcube(voters):
    """Index definition of a face of the cube: the masks inside the
    increasing ``voters`` in order, both the inputs of a restriction to
    them and the subsets ``S`` of them."""
    inside = np.zeros(1, dtype=np.int64)
    for i in voters:
        inside = np.concatenate([inside, inside | (1 << i)])
    return inside


def tribes_table(n, tribe_size):
    """Tribes by one masked compare per tribe over every input mask."""
    x = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.uint8)
    for start in range(0, n, tribe_size):
        width = min(tribe_size, n - start)
        block = ((1 << width) - 1) << start
        out |= ((x & block) == block).astype(np.uint8)
    return out


def invariant_table(n, perm, rng):
    """A random table constant on every orbit of the voter permutation:
    each input takes the bit drawn for the least input of its orbit."""
    moved = permuted_inputs(n, perm)
    least = np.arange(1 << n)
    while True:
        step = np.minimum(least, least[moved])
        if np.array_equal(step, least):
            break
        least = step
    return rng.integers(0, 2, size=1 << n, dtype=np.uint8)[least]


def fraction_biased_product(sa, sb, delta: Fraction):
    """Exact biased inner product from exact spectra."""
    n = (len(sa) - 1).bit_length()
    acc = Fraction(0)
    for mask in range(1, len(sa)):
        acc += sa[mask] * sb[mask] * delta ** bin(mask).count("1")
    return acc


def exact_min_w_non_constant(n):
    """Exact least ``W`` under the uniform law over the triples of
    non-constant functions of arity ``n``, leaving out ``f = g = h`` for a
    dictator or a negated dictator.  Returns ``(Fraction, (f, g, h))`` with
    packed tables; exact ties go to the least packed triple.

    Integer spectra ``F = 2^n f_hat`` come from the signed characters, and
    ``W 24^n = 3^n (P1 P2 P3 + Q1 Q2 Q3)
    + 2^n sum over pairs and nonempty S of (-1)^|S| 3^(n-|S|) F(S) G(S)``
    with ``P`` the count of ones and ``Q = 2^n - P``, all in int64.
    """
    size = 1 << n
    x = np.arange(size)
    packed = np.arange(1, (1 << size) - 1)
    tables = ((packed[:, None] >> x) & 1).astype(np.int64)
    popcount = np.array([bin(s).count("1") for s in range(size)])
    zeros = np.array([[bin(s & ~xi & (size - 1)).count("1") for xi in x] for s in x])
    spectra = tables @ np.where(zeros % 2, -1, 1).T
    weights = np.where(popcount % 2, -1, 1) * 3 ** (n - popcount)
    weights[0] = 0
    pairs = (spectra * weights) @ spectra.T
    ones = tables.sum(axis=1)
    rest = size - ones
    skip = set()
    for voter in range(n):
        dictator = (x >> voter) & 1
        for table in (dictator, 1 - dictator):
            skip.add(int(np.flatnonzero((tables == table).all(axis=1))[0]))
    best = None
    for i in range(len(tables)):
        plane = ones[i] * np.multiply.outer(ones, ones) + rest[i] * np.multiply.outer(rest, rest)
        plane *= 3**n
        plane += size * (pairs[i][:, None] + pairs + pairs[:, i][None, :])
        if i in skip:
            plane[i, i] = np.iinfo(np.int64).max
        j, k = np.unravel_index(int(np.argmin(plane)), plane.shape)
        if best is None or plane[j, k] < best[0]:
            best = (int(plane[j, k]), (i, int(j), int(k)))
    value, triple = best
    return Fraction(value, 24**n), tuple(int(packed[t]) for t in triple)


def level_sums_route(fns, butterfly_lengths):
    """The butterfly lengths that ``cyclic_level_sums(fns)`` runs, after
    checking its means and level sums, by bytes, against ``bfn.level_sums``
    of the dense ``walsh_transform`` spectra; the levels it leaves out
    must be 0 there."""
    butterfly_lengths.clear()
    means, sums = rationality.cyclic_level_sums(fns)
    route = list(butterfly_lengths)
    coeffs = [bfn.walsh_transform(fn).coeffs for fn in fns]
    assert len(means) == len(sums) == len(fns)
    assert [m.tobytes() for m in means] == [c[0].tobytes() for c in coeffs]
    for got, a, b in zip(sums, coeffs, coeffs[1:] + coeffs[:1]):
        ref = bfn.level_sums(a, b)
        assert got.tobytes() == ref[: len(got)].tobytes() and not ref[len(got) :].any()
    return route


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def butterfly_lengths(monkeypatch):
    # Record the length of every array the dense butterfly transforms.
    lengths = []
    dense = bfn.integer_spectrum

    def recording(tables):
        lengths.append(tables.size)
        return dense(tables)

    monkeypatch.setattr(bfn, "integer_spectrum", recording)
    return lengths
