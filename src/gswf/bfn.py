"""Boolean functions on the discrete cube and their Fourier-Walsh spectra.

Index conventions, used identically everywhere in this package:

* An input ``x`` is an integer mask.  Bit ``i`` of ``x`` (least significant
  bit is bit 0) holds the 0/1 preference of voter ``i + 1``.
* A subset ``S`` of voters is a mask with the same convention: bit ``i`` set
  means voter ``i + 1`` belongs to ``S``.
* Characters are signed, ``r_S(x) = prod_{i in S} (2 x_i - 1)``.  Spectra are
  produced and consumed in this signed convention only; in particular
  ``coeffs[0]`` is the plain mean of the function.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_count, check_range

#: Largest supported arity.  The closed form's dense route holds three int32
#: spectra of ``2**24`` entries (64 MiB each) at the default ceiling; raise
#: with care, and never to 27, where their squared sums of up to ``4^n``
#: leave float64's exact integers, or 31, where the butterfly overflows.
N_MAX = 24

#: Absolute tolerance for the sum-of-squares consistency check on spectra of
#: Boolean functions (``sum f_hat(S)^2 == f_hat(empty)``).
PARSEVAL_TOL = 1e-12

#: Largest arity for the dense character-matrix (quadratic) transform.
NAIVE_MAX = 12


def check_arity(n: int) -> None:
    """Reject an arity outside ``1..N_MAX`` before any ``2**n``-sized allocation."""
    check_count("arity", n, high=N_MAX)


@functools.lru_cache(maxsize=None)
def mask_levels(n: int) -> np.ndarray:
    """Popcount of every mask in ``[0, 2**n)`` as a read-only uint8 array."""
    # Doubled in place: the masks with top bit i are those below 2^i plus one.
    levels = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        np.add(levels[: 1 << i], 1, out=levels[1 << i : 2 << i])
    return _frozen(levels)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


#: Largest arity whose level sums are one product with the ``2^n x (n+1)``
#: level indicator.  Above it, the products are formed and summed by the
#: level of their low 12 voters in blocks of ``2^16``, then grouped by the
#: level of their high voters.
LEVEL_MATMUL_MAX = 12


@functools.lru_cache(maxsize=None)
def _level_indicator(n: int) -> np.ndarray:
    # Entry [S, k] is 1.0 iff |S| = k, read-only.
    return _frozen(np.eye(n + 1)[mask_levels(n)])


@functools.lru_cache(maxsize=None)
def _level_weights(n: int) -> np.ndarray:
    # The transposed indicator, C-contiguous and read-only.
    return _frozen(_level_indicator(n).T.copy())


def level_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry ``[..., k]`` is ``L_k = sum over |S| = k of a[..., S] b[..., S]``
    in float64, for row-aligned stacks along the last axis of float spectra
    or of :func:`integer_spectrum`'s, ``4^n`` times the coefficients' sums.
    For Boolean spectra each product is an integer multiple of ``4^-n`` (of 1)
    and, by Cauchy-Schwarz and Parseval, their absolute values sum to at most
    1 (``4^n < 2^53``): no partial sum is rounded, in any order, so a row's
    sums depend neither on its stack nor on its spectra's dtype.  Integer
    spectra of at most 7 voters are multiplied in int16, which holds every
    product (at most ``4^n <= 2^14`` in absolute value) in a quarter of the
    float64 memory."""
    n = a.shape[-1].bit_length() - 1
    if n <= LEVEL_MATMUL_MAX:
        exact = a.dtype.kind == b.dtype.kind == "i" and 2 * n <= _INT16_VOTERS
        return np.multiply(a, b, dtype=np.int16 if exact else np.float64) @ _level_indicator(n)
    low, high = LEVEL_MATMUL_MAX, n - LEVEL_MATMUL_MAX
    # part[r, h, l]: row r's products with high voters h and l low voters,
    # formed 2^16 at a time (16 lines of 2^12), in numpy's own loops: BLAS
    # products this size start threads that spin on after the call.
    lines_a, lines_b = a.reshape(-1, 1 << low), b.reshape(-1, 1 << low)
    part = np.empty((len(lines_a), low + 1))
    weights, step = _level_weights(low), 16
    for i in range(0, len(part), step):
        block = np.multiply(lines_a[i : i + step], lines_b[i : i + step], dtype=np.float64)
        np.einsum("hx,lx->hl", block, weights, out=part[i : i + step])
    part = part.reshape(-1, 1 << high, low + 1)
    grouped = np.einsum("hj,rhl->rjl", _level_indicator(high), part)
    sums = np.zeros((len(grouped), n + 1))
    for j in range(high + 1):
        sums[:, j : j + low + 1] += grouped[:, j]
    return sums.reshape(*a.shape[:-1], n + 1)


class BooleanFunction:
    """A choice function ``f: {0,1}^n -> {0,1}`` stored as a truth table.

    ``table[x]`` is ``f(x)`` for the input mask ``x``.  Instances are
    immutable and safe to share between threads.  The table is packed into
    bytes at most once (:attr:`packed_bytes`), and those bytes into hex at
    most once (:attr:`hex`); equality, hashing and the serialization forms
    all read those bytes.
    """

    __slots__ = ("n", "table", "_bytes", "_hex", "_hash")

    def __init__(self, n: int, table) -> None:
        check_arity(n)
        raw = np.asarray(table)
        if raw.ndim != 1 or raw.size != 1 << n:
            raise ValidationError(
                f"table must have length 2**{n} = {1 << n}, got shape {raw.shape}"
            )
        arr = raw.astype(np.uint8, copy=True)
        if np.any(arr > 1) or (raw.dtype != np.uint8 and np.any(arr != raw)):
            raise ValidationError("table entries must be 0 or 1")
        self.n = n
        self.table = _frozen(arr)
        self._bytes: bytes | None = None
        self._hex: str | None = None
        self._hash: int | None = None

    @classmethod
    def _from_bits(cls, n: int, table: np.ndarray, packed: bytes) -> "BooleanFunction":
        # A fresh uint8 0/1 table that nothing else holds, with its packed
        # bytes: both are kept as they are, unchecked.
        f = cls.__new__(cls)
        f.n, f.table, f._bytes, f._hex, f._hash = n, _frozen(table), packed, None, None
        return f

    @classmethod
    def from_packed(cls, n: int, value: int) -> "BooleanFunction":
        """Build from the packed integer whose bit ``x`` is ``f(x)``."""
        check_arity(n)
        check_count("packed value", value, low=0)
        size = 1 << n
        if value >= 1 << size:
            raise ValidationError(f"packed value out of range for n={n}")
        raw = int(value).to_bytes((size + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return cls._from_bits(n, bits[:size], raw)

    @classmethod
    def from_hex(cls, n: int, digits: str) -> "BooleanFunction":
        """Build from the hex encoding of the packed table, digits only: ``int(text, 16)``
        alone would also read a ``0x``, a sign, underscores and whitespace."""
        if not re.fullmatch("[0-9a-fA-F]+", digits):
            raise ValidationError("a packed table must be hex digits [0-9a-fA-F] only")
        return cls.from_packed(n, int(digits, 16))

    @property
    def packed_bytes(self) -> bytes:
        """The table packed little-endian: bit ``x % 8`` of byte ``x // 8``
        is ``f(x)``.  Computed once."""
        if self._bytes is None:
            self._bytes = np.packbits(self.table, bitorder="little").tobytes()
        return self._bytes

    @property
    def packed(self) -> int:
        """The table packed into an integer, bit ``x`` = ``f(x)``."""
        return int.from_bytes(self.packed_bytes, "little")

    @property
    def hex(self) -> str:
        """Packed table as zero-padded lowercase hex (serialization form).
        Computed once."""
        if self._hex is None:
            width = ((1 << self.n) + 3) // 4
            self._hex = self.packed_bytes[::-1].hex()[-width:]
        return self._hex

    def __call__(self, x: int) -> int:
        return evaluate(self, x)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BooleanFunction)
            and self.n == other.n
            and self.packed_bytes == other.packed_bytes
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.packed_bytes))
        return self._hash

    def __repr__(self) -> str:
        return f"BooleanFunction(n={self.n}, hex='{self.hex}')"


@dataclass(frozen=True, eq=False)
class PseudoSpectrum:
    """A vector of signed-character coefficients with no Booleanity constraint.

    ``coeffs[mask]`` is the coefficient of ``r_S`` for the subset mask.
    An input that is writable, or a view of another array, is copied; a
    read-only array that owns its data is kept as it is.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        check_arity(self.n)
        arr = np.asarray(self.coeffs, dtype=np.float64)
        if arr.flags.writeable or not arr.flags.owndata:
            arr = arr.copy()
        if arr.ndim != 1 or arr.size != 1 << self.n:
            raise ValidationError(
                f"coefficient vector must have length 2**{self.n}, got {arr.shape}"
            )
        object.__setattr__(self, "coeffs", _frozen(arr))


class WalshSpectrum(PseudoSpectrum):
    """Spectrum of a Boolean function.

    On top of the raw coefficient vector this enforces the consistency that
    holds exactly for 0/1-valued sources (see :func:`check_boolean_spectra`).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        check_boolean_spectra(self.coeffs)


def check_boolean_spectra(coeffs: np.ndarray) -> None:
    """Parseval consistency of each spectrum along the last axis.

    For a 0/1-valued source the sum of squared coefficients equals the
    empty-set coefficient, which lies in ``[0, 1]``: within
    :data:`PARSEVAL_TOL` for a float spectrum, exactly in int64 for an
    integer one, ``2^n`` times the coefficients (:func:`integer_spectrum`).
    """
    exact = coeffs.dtype.kind in "iu"
    tol, scale = (0, coeffs.shape[-1]) if exact else (PARSEVAL_TOL, 1)
    squares = np.einsum("...i,...i->...", coeffs, coeffs, dtype=np.int64 if exact else None)
    total, mean = np.atleast_1d(squares), np.atleast_1d(coeffs[..., 0])
    gap = np.abs(total - scale * mean.astype(total.dtype)) > tol
    inside = (mean >= -tol) & (mean <= scale + tol)
    total, mean = total / float(scale) ** 2, mean / float(scale)  # reported as coefficients
    if gap.any():
        # A boolean mask indexes every leading axis; the first bad spectrum
        # in C order is reported.
        raise ValidationError(
            "coefficients are not consistent with a Boolean source: "
            f"sum of squares {float(total[gap][0])!r} != mean {float(mean[gap][0])!r}"
        )
    if not inside.all():
        bad = float(mean[~inside][0])
        raise ValidationError(f"mean coefficient {bad!r} outside [0, 1]")


#: Voters the exact butterfly runs in int16: after voters 0..k-1 every
#: partial sum is at most ``2^k`` in absolute value, and ``2^14`` fits.
_INT16_VOTERS = 14


def integer_spectrum(tables: np.ndarray) -> np.ndarray:
    """``sum_x v(x) r_S(x)``, ``2^n`` times :func:`walsh_coeffs`, for each 0/1
    table ``v`` (unchecked) along the last axis, exactly, in a new integer
    array: voters 0..13 in int16, which halves their passes' memory traffic,
    then the rest in int32; after ``k`` voters every partial sum is at most
    ``2^k`` in absolute value."""
    n = arity_of(tables)
    low = min(n, _INT16_VOTERS)
    values = tables.astype(np.int16, order="C")
    _butterfly_passes(values, 0, low)
    if n > low:
        values = values.astype(np.int32)
        _butterfly_passes(values, low, n)
    return values


def _butterfly_passes(values: np.ndarray, start: int, stop: int) -> None:
    # In place: voters start..stop-1.  Each radix-4 pass takes voters i and
    # i + 1, whose bits pair the quarters a, b, c, d at stride 2^i, through
    # two half-size scratch buffers; an odd count ends with one radix-2
    # pass.  A stack of rows works too: no quadruple straddles two rows.
    # The buffers are halves of one allocation: two separate 32 MiB ones at
    # n = 24, once freed, raise glibc's mmap threshold, and the n = 24
    # formula's peak RSS grew by 12 MiB.
    size = values.size
    scratch = np.empty(size, dtype=values.dtype)
    sums, diffs = scratch[: size >> 1], scratch[size >> 1 :]
    for i in range(start, stop - 1, 2):
        # Quarter-major views, shape (4 or 2, 2^i, blocks).  In memory order
        # numpy's inner loop would run over the 4 contiguous entries of a
        # quarter at stride 4; reading the views in C order runs it over the
        # blocks instead, about twice as fast there.
        v, s, d = (
            a.reshape(size >> (i + 2), parts, 1 << i).transpose(1, 2, 0)
            for a, parts in ((values, 4), (sums, 2), (diffs, 2))
        )
        order = "C" if i == 2 else "K"
        np.add(v[0], v[1], out=s[0], order=order)  # a + b
        np.add(v[2], v[3], out=s[1], order=order)  # c + d
        np.subtract(v[1], v[0], out=d[0], order=order)  # b - a
        np.subtract(v[3], v[2], out=d[1], order=order)  # d - c
        np.add(s[0], s[1], out=v[0], order=order)
        np.add(d[0], d[1], out=v[1], order=order)
        np.subtract(s[1], s[0], out=v[2], order=order)
        np.subtract(d[1], d[0], out=v[3], order=order)
    if (stop - start) % 2:
        i = stop - 1
        v = values.reshape(size >> (i + 1), 2, 1 << i)
        low = sums.reshape(size >> (i + 1), 1 << i)
        np.copyto(low, v[:, 0])
        np.add(v[:, 0], v[:, 1], out=v[:, 0])
        np.subtract(v[:, 1], low, out=v[:, 1])


def per_voter_pass(values, kernel) -> np.ndarray:
    """Apply a ``(k, 2)`` matrix to every voter's bit of each table.

    ``values`` is a table of length ``2^n``, or a stack of them along the
    last axis.  Entry ``d`` of each output row, read as ``n`` base-``k``
    digits with voter 1 the least significant, is
    ``sum_x v(x) prod_i kernel[d_i, x_i]``.

    One pass per voter, stack-major: the stack is the last axis, so pass
    ``i`` works on runs of ``k^i * rows`` entries, and writes one output
    digit at a time, ``out[:, d] = v0 * K[d, 0] + v1 * K[d, 1]`` with scalar
    kernel entries, into an output allocated for the pass; the result is
    transposed back to row-major at the end.  Every entry is computed
    elementwise, so a row comes out the same in any stack.
    """
    kern = np.asarray(kernel, dtype=np.float64)
    if kern.ndim != 2 or kern.shape[1] != 2:
        raise ValidationError(f"kernel must have shape (k, 2), got {kern.shape}")
    arr = np.asarray(values)
    n, k = arity_of(arr), kern.shape[0]
    rows = arr.size >> n
    cur = np.ascontiguousarray(arr.reshape(rows, 1 << n).T, dtype=np.float64)
    for i in range(n):
        # Voters below i are already base-k digits; voter i's bit is axis 1.
        v = cur.reshape(1 << (n - i - 1), 2, k**i * rows)
        # tmp first: the previous pass's tmp is freed before cur is allocated
        tmp = np.empty((v.shape[0], v.shape[2]))
        cur = np.empty((v.shape[0], k, v.shape[2]))
        for d in range(k):
            np.multiply(v[:, 0], kern[d, 0], out=cur[:, d])
            np.multiply(v[:, 1], kern[d, 1], out=tmp)
            np.add(cur[:, d], tmp, out=cur[:, d])
    result = np.ascontiguousarray(cur.reshape(k**n, rows).T)
    return result.reshape(*arr.shape[:-1], k**n)


def is_zero_one(arr: np.ndarray) -> bool:
    """True for a bool array, or an integer one whose entries are all 0 or 1."""
    kind = arr.dtype.kind
    if kind == "b":
        return True
    if kind not in "iu":
        return False
    return not arr.size or (arr.max() <= 1 and (kind == "u" or arr.min() >= 0))


def walsh_coeffs(values) -> np.ndarray:
    """``2^-n sum_x v(x) r_S(x)`` for each 0/1 table ``v`` (bool, or an integer
    dtype, or nested lists of them) along the last axis: one
    :func:`integer_spectrum` butterfly over the whole stack, scaled by ``2^-n``
    once.  Any other table is refused.  No Booleanity check is made;
    :func:`walsh_transform` makes it.
    """
    arr = np.asarray(values)
    n = arity_of(arr)
    if not is_zero_one(arr):
        raise ValidationError("table entries must be 0 or 1")
    return integer_spectrum(arr) / float(1 << n)


@functools.lru_cache(maxsize=None)
def _krawtchouk(n: int) -> np.ndarray:
    # Entry [k, w] = sum_j C(k, j) C(n-k, w-j) (-1)^(k-j), the coefficient of
    # t^w in (t - 1)^k (1 + t)^(n-k): the sum of r_S over the inputs of
    # weight w, for any |S| = k.  Every row sums to at most 2^n in absolute
    # value, so int64 is exact up to N_MAX.
    rows = []
    for k in range(n + 1):
        poly = np.ones(1, dtype=np.int64)
        for factor in [(-1, 1)] * k + [(1, 1)] * (n - k):
            poly = np.convolve(poly, np.array(factor, dtype=np.int64))
        rows.append(poly)
    return _frozen(np.array(rows))


#: Entries in one packed 64-bit word.  The symmetry test and the voter scan
#: compare the first word before the rest, so that a random table is told
#: apart from a structured one in a few tiny checks.  A table of at most
#: one word goes straight to the butterfly, which costs less than the checks.
_PREFIX = 64

# Per voter 0..2, the bits of a packed byte whose partner across that voter
# sits 1, 2 or 4 bits higher in the same byte.
_IN_BYTE = (0x55, 0x33, 0x0F)


def _relevant_voters(f: BooleanFunction) -> tuple[int, ...]:
    # Voter i matters iff table[x] != table[x ^ 2^i] for some x.  On the
    # little-endian packed bytes (n > 6, so at least 16 of them) voters 0..2
    # pair bits inside a byte and voter i >= 3 pairs bytes at stride
    # 2^(i-3).  Pairs among the first _PREFIX entries are compared first.
    packed = np.frombuffer(f.packed_bytes, dtype=np.uint8)
    step = _PREFIX >> 3
    relevant = []
    for i in range(f.n):
        if i < 3:
            shift, low = 1 << i, _IN_BYTE[i]
            moves = any(((p ^ (p >> shift)) & low).any() for p in (packed[:step], packed))
        else:
            v = packed.reshape(-1, 2, 1 << (i - 3))
            head = v[: max(1, step >> (i - 3)), :, :step]
            moves = any(not np.array_equal(u[:, 0], u[:, 1]) for u in (head, v))
        if moves:
            relevant.append(i)
    return tuple(relevant)


def _level_words(profile: np.ndarray) -> np.ndarray:
    # For a weight profile on n >= 6 voters, entry c is the packed word
    # (as "<u8") of the _PREFIX inputs 64 j + l, l < 64, for any j of weight
    # c: bit l is profile[c + |l|].  The symmetric function's table is word
    # |j| at every j.
    n = profile.size - 1
    bits = profile[np.arange(n - 5)[:, None] + mask_levels(6)]
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").ravel()


def symmetric_function(n: int, profile) -> BooleanFunction:
    """The function ``f(x) = profile[|x|]`` for a 0/1 ``profile`` of length ``n + 1``.

    Past 64 entries the table is gathered as packed words, one per block of
    64 inputs and chosen by the block's weight, and unpacked once; those
    words become the function's :attr:`BooleanFunction.packed_bytes`.
    """
    check_arity(n)
    profile = np.asarray(profile)
    if profile.shape != (n + 1,) or not is_zero_one(profile):
        raise ValidationError(f"a weight profile must be n + 1 = {n + 1} entries of 0 or 1")
    profile = profile.astype(np.uint8)
    if n < 6:
        return BooleanFunction(n, profile[mask_levels(n)])
    words = _level_words(profile)[mask_levels(n - 6)]
    table = np.unpackbits(words.view(np.uint8), bitorder="little")
    return BooleanFunction._from_bits(n, table, words.tobytes())


def symmetric_levels(f: BooleanFunction) -> np.ndarray | None:
    """``levels[k]``, the coefficient of every ``|S| = k``, if ``f``
    depends only on the input weight (constants included), else ``None``.

    Past 64 entries the test reads the packed table: word ``j`` must be the
    level word of ``|j|`` (word 0 first), ``2^(n-6)`` comparisons.  The
    levels are one exact integer Krawtchouk product scaled by ``2^-n``, at
    any arity; they are bit-identical to gathering :func:`walsh_coeffs` by
    level.
    """
    n, table = f.n, f.table
    # F[w] = f(1^w 0^(n-w)) describes f iff f depends only on the input weight.
    profile = table[(1 << np.arange(n + 1)) - 1]
    if n < 6:
        symmetric = np.array_equal(profile[mask_levels(n)], table)
    else:
        words, level = np.frombuffer(f.packed_bytes, dtype="<u8"), _level_words(profile)
        symmetric = words[0] == level[0] and np.array_equal(level[mask_levels(n - 6)], words)
    if not symmetric:
        return None
    return _frozen((_krawtchouk(n) @ profile.astype(np.int64)) / float(1 << n))


def read_structure(f: BooleanFunction) -> tuple[np.ndarray | None, tuple[int, ...]]:
    """``(levels, relevant)``: the structure that the level sums of
    :func:`rationality.cyclic_level_sums` are built on.

    ``levels`` is :func:`symmetric_levels`; ``relevant`` is the increasing
    tuple of 0-based voters ``f`` depends on.  A table of at most 64
    entries (``n <= 6``) is not read: ``(None, every voter)``.
    """
    n = f.n
    if (1 << n) <= _PREFIX:
        return None, tuple(range(n))
    levels = symmetric_levels(f)
    if levels is None:
        return None, _relevant_voters(f)
    # Only a constant has no weight on the levels k >= 1.
    return levels, tuple(range(n)) if levels[1:].any() else ()


def _voters(voters, n: int) -> tuple[int, ...]:
    # 0-based voter indices, each an integer (not a bool) in 0..n-1.
    voters = tuple(voters)
    for v in voters:
        check_range("voter", v, 0, n - 1)
    return tuple(map(int, voters))


def _face(n: int, voters) -> tuple:
    # The basic index into a table's (2,) * n cube, whose axis a is voter
    # n - 1 - a, that fixes every voter outside ``voters`` at 0.
    return tuple(slice(None) if n - 1 - a in voters else 0 for a in range(n))


def restrict(f: BooleanFunction, voters) -> BooleanFunction:
    """``f`` on its strictly increasing 0-based ``voters`` (renumbered from 0), the rest 0."""
    n, voters = f.n, _voters(voters, f.n)
    if list(voters) != sorted(set(voters)):
        raise ValidationError(f"a restriction needs strictly increasing voters, got {voters!r}")
    return BooleanFunction(len(voters), f.table.reshape((2,) * n)[_face(n, voters)].ravel())


def walsh_transform(f: BooleanFunction) -> WalshSpectrum:
    """Spectrum of ``f``, ``coeffs[S] = 2^-n sum_x f(x) r_S(x)``: the exact integer
    butterfly of :func:`walsh_coeffs`, which agrees with :func:`walsh_transform_naive`."""
    return WalshSpectrum(f.n, _frozen(walsh_coeffs(f.table)))


def character_table(n: int) -> np.ndarray:
    """Dense matrix of signed characters, entry ``[S, x] = r_S(x)``."""
    check_count("arity", n, high=NAIVE_MAX)
    masks = np.arange(1 << n, dtype=np.int32)
    flipped = masks ^ ((1 << n) - 1)
    # r_S(x) = (-1)^{#(i in S with x_i = 0)}
    zeros_inside = mask_levels(n)[masks[:, None] & flipped[None, :]]
    return np.where(zeros_inside & 1, -1.0, 1.0)


def walsh_transform_naive(f: BooleanFunction) -> WalshSpectrum:
    """Quadratic-time transform straight from the definition.

    Independent of the butterfly path; used to cross-check it.
    """
    coeffs = character_table(f.n) @ f.table.astype(np.float64)
    return WalshSpectrum(f.n, coeffs / float(1 << f.n))


def inverse_walsh_transform(s: PseudoSpectrum) -> np.ndarray:
    """Pointwise values ``sum_S coeffs[S] r_S(x)`` over all inputs ``x``."""
    return per_voter_pass(s.coeffs, [[1.0, -1.0], [1.0, 1.0]])


def evaluate(f: BooleanFunction, x: int) -> int:
    """``f(x)`` for the input mask ``x``."""
    check_range("x", x, 0, (1 << f.n) - 1)
    return int(f.table[x])


def expectation(f: BooleanFunction) -> float:
    """``E[f]`` under the uniform measure, exact as a dyadic rational."""
    return int(f.table.sum()) / float(1 << f.n)


def level_weights(s: PseudoSpectrum) -> np.ndarray:
    """Entry ``k`` is the squared coefficient mass at level ``|S| = k``."""
    return level_sums(s.coeffs, s.coeffs)


def arity_of(tables: np.ndarray) -> int:
    """The arity of tables of length ``2^n`` along the last axis."""
    size = tables.shape[-1]
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValidationError(f"table length {size} is not a power of two")
    return n


def _tables(f) -> np.ndarray:
    # The truth table of a function, or an array of tables along the last axis.
    return f.table if isinstance(f, BooleanFunction) else np.asarray(f)


def _per_table(result):
    # One Python bool for a single table, an array of flags for a stack.
    return bool(result) if np.ndim(result) == 0 else result


def is_balanced(f) -> bool:
    """Exact integer test for ``E[f] = 1/2``.

    Like every predicate below, ``f`` is a function or a stack of truth
    tables along the last axis (one flag per table).
    """
    t = _tables(f)
    return _per_table(t.sum(axis=-1, dtype=np.int64) * 2 == t.shape[-1])


def is_monotone(f) -> bool:
    """True iff setting any single input bit never decreases ``f``."""
    return is_monotone_values(_tables(f))


def is_monotone_values(values, *, decreasing: bool = False, atol: float = 0.0):
    """Coordinate-wise monotonicity test for a real-valued table (or a stack
    of tables along the last axis), whose length ``2^n`` gives the arity.

    ``atol`` absorbs float round-off when the table came from arithmetic
    rather than a genuine truth table.
    """
    arr = np.asarray(values)
    n = arity_of(arr)
    lead = arr.shape[:-1]
    ok = np.ones(lead, dtype=bool)
    for i in range(n):
        v = arr.reshape(*lead, arr.shape[-1] >> (i + 1), 2, 1 << i)
        lower, upper = v[..., 0, :], v[..., 1, :]
        if decreasing:
            lower, upper = upper, lower
        ok &= np.all(lower <= (upper + atol if atol else upper), axis=(-2, -1))
    return _per_table(ok)


def is_constant(f) -> bool:
    t = _tables(f)
    return _per_table(t.all(axis=-1) | ~t.any(axis=-1))


def dual(f: BooleanFunction) -> BooleanFunction:
    """The dual function ``x -> 1 - f(~x)``.

    Reversing the table visits ``~x`` because ``~x = 2^n - 1 - x``.
    """
    return BooleanFunction(f.n, 1 - f.table[::-1])


def is_self_dual(f) -> bool:
    """True iff ``f(~x) = 1 - f(x)`` for every input."""
    t = _tables(f)
    return _per_table(np.all(t[..., ::-1] != t, axis=-1))


def is_invariant_under(f, generators) -> bool:
    """True iff ``f`` is unchanged by each given voter permutation.

    A generator is a tuple ``perm`` of length ``n`` sending voter index ``i``
    (0-based) to ``perm[i]``.  Invariance under a transitive group is only
    certified through explicit generators; this is a sufficient condition,
    not a decision procedure.  Each generator is one transpose of the
    tables' ``(2,) * n`` cubes (axis ``a`` is voter ``n - 1 - a``).
    """
    t = _tables(f)
    n = arity_of(t)
    # Leading stack axes are flattened into one: n + 1 <= 25 axes stay
    # under the 32 that numpy 1.x allows.
    cubes = t.reshape((-1,) + (2,) * n)
    ok = np.ones(len(cubes), dtype=bool)
    for perm in (_voters(p, n) for p in generators):
        if sorted(perm) != list(range(n)):
            raise ValidationError(f"not a voter permutation of 0..{n - 1}: {perm!r}")
        # Axis k of the permuted cube is voter n - 1 - k of x, read off
        # voter perm[n - 1 - k] of the table's input.
        moved = cubes.transpose(0, *(n - perm[n - 1 - k] for k in range(n)))
        ok &= (moved == cubes).reshape(len(cubes), 1 << n).all(axis=1)
    return _per_table(ok.reshape(t.shape[:-1]))


def is_cyclic_invariant(f) -> bool:
    """True iff ``f`` is invariant under the cyclic rotation of voters."""
    n = arity_of(_tables(f))
    return is_invariant_under(f, [tuple((i + 1) % n for i in range(n))])


def random_function(n: int, rng: np.random.Generator) -> BooleanFunction:
    """Uniformly random truth table of arity ``n``."""
    check_arity(n)
    return BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
