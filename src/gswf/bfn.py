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
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError

#: Largest supported arity.  A dense spectrum at the default ceiling is
#: ``2**24`` float64 coefficients (128 MiB); raise with care, and never to
#: 31, where the int32 butterfly's partial sums of up to ``2^n`` overflow.
N_MAX = 24

#: Absolute tolerance for the sum-of-squares consistency check on spectra of
#: Boolean functions (``sum f_hat(S)^2 == f_hat(empty)``).
PARSEVAL_TOL = 1e-12

#: Largest arity for the dense character-matrix (quadratic) transform.
NAIVE_MAX = 12


def check_arity(n: int) -> None:
    """Reject an arity that is not an integer in ``1..N_MAX``, before any
    ``2**n``-sized allocation."""
    if not isinstance(n, (int, np.integer)):
        raise ValidationError(f"arity must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"arity must be >= 1, got {n}")
    if n > N_MAX:
        raise CapacityError(f"arity {n} exceeds N_MAX={N_MAX}")


@functools.lru_cache(maxsize=None)
def mask_levels(n: int) -> np.ndarray:
    """Popcount of every mask in ``[0, 2**n)`` as a read-only uint8 array."""
    levels = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        levels = np.concatenate([levels, levels + 1])
    levels.setflags(write=False)
    return levels


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class BooleanFunction:
    """A choice function ``f: {0,1}^n -> {0,1}`` stored as a truth table.

    ``table[x]`` is ``f(x)`` for the input mask ``x``.  Instances are
    immutable and safe to share between threads.
    """

    __slots__ = ("n", "table", "_packed")

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
        self._packed: int | None = None

    @classmethod
    def from_packed(cls, n: int, value: int) -> "BooleanFunction":
        """Build from the packed integer whose bit ``x`` is ``f(x)``."""
        check_arity(n)
        size = 1 << n
        if not 0 <= value < (1 << size):
            raise ValidationError(f"packed value out of range for n={n}")
        raw = value.to_bytes((size + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return cls(n, bits[:size])

    @classmethod
    def from_hex(cls, n: int, digits: str) -> "BooleanFunction":
        """Build from the lowercase hex encoding of the packed table."""
        return cls.from_packed(n, int(digits, 16))

    @property
    def packed(self) -> int:
        """The table packed into an integer, bit ``x`` = ``f(x)``."""
        if self._packed is None:
            raw = np.packbits(self.table, bitorder="little").tobytes()
            self._packed = int.from_bytes(raw, "little")
        return self._packed

    @property
    def hex(self) -> str:
        """Packed table as zero-padded lowercase hex (serialization form)."""
        width = ((1 << self.n) + 3) // 4
        return format(self.packed, f"0{width}x")

    def __call__(self, x: int) -> int:
        return evaluate(self, x)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BooleanFunction)
            and self.n == other.n
            and self.packed == other.packed
        )

    def __hash__(self) -> int:
        return hash((self.n, self.packed))

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

    @property
    def mean(self) -> float:
        """Coefficient of the empty set, the mean of the represented function."""
        return float(self.coeffs[0])


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
    empty-set coefficient, which lies in ``[0, 1]``.
    """
    total = np.atleast_1d(np.einsum("...i,...i->...", coeffs, coeffs))
    mean = np.atleast_1d(coeffs[..., 0])
    gap = np.abs(total - mean) > PARSEVAL_TOL
    if gap.any():
        # A boolean mask indexes every leading axis; the first bad spectrum
        # in C order is reported.
        raise ValidationError(
            "coefficients are not consistent with a Boolean source: "
            f"sum of squares {float(total[gap][0])!r} != mean {float(mean[gap][0])!r}"
        )
    inside = (mean >= -PARSEVAL_TOL) & (mean <= 1.0 + PARSEVAL_TOL)
    if not inside.all():
        bad = float(mean[~inside][0])
        raise ValidationError(f"mean coefficient {bad!r} outside [0, 1]")


def _analysis_butterfly(values: np.ndarray, n: int) -> None:
    # In place on a C-contiguous int32 array: entry S becomes
    # sum_x v(x) r_S(x).  Each radix-4 pass takes voters i and i + 1,
    # whose bits pair the quarters a, b, c, d at stride 2^i, through two
    # half-size scratch buffers; an odd n ends with one radix-2 pass.  A
    # stack of rows works too: no quadruple straddles two rows.  The
    # buffers are halves of one allocation: two separate 32 MiB ones at
    # n = 24, once freed, raise glibc's mmap threshold, and the n = 24
    # formula's peak RSS grew by 12 MiB.
    size = values.size
    scratch = np.empty(size, dtype=np.int32)
    sums, diffs = scratch[: size >> 1], scratch[size >> 1 :]
    for i in range(0, n - 1, 2):
        v = values.reshape(size >> (i + 2), 4, 1 << i)
        s = sums.reshape(size >> (i + 2), 2, 1 << i)
        d = diffs.reshape(size >> (i + 2), 2, 1 << i)
        np.add(v[:, 0], v[:, 1], out=s[:, 0])  # a + b
        np.add(v[:, 2], v[:, 3], out=s[:, 1])  # c + d
        np.subtract(v[:, 1], v[:, 0], out=d[:, 0])  # b - a
        np.subtract(v[:, 3], v[:, 2], out=d[:, 1])  # d - c
        np.add(s[:, 0], s[:, 1], out=v[:, 0])
        np.add(d[:, 0], d[:, 1], out=v[:, 1])
        np.subtract(s[:, 1], s[:, 0], out=v[:, 2])
        np.subtract(d[:, 1], d[:, 0], out=v[:, 3])
    if n % 2:
        v = values.reshape(size >> n, 2, 1 << (n - 1))
        low = sums.reshape(size >> n, 1 << (n - 1))
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
    kernel entries, into preallocated buffers; the result is transposed
    back to row-major at the end.  Every entry is computed elementwise, so
    a row comes out the same in any stack.
    """
    kern = np.asarray(kernel, dtype=np.float64)
    if kern.ndim != 2 or kern.shape[1] != 2:
        raise ValidationError(f"kernel must have shape (k, 2), got {kern.shape}")
    arr = np.asarray(values)
    n, k = _arity_of(arr), kern.shape[0]
    rows = arr.size >> n
    # sizes[i] is pass i's output; passes alternate between two buffers,
    # the last pass landing in the first.
    sizes = [(k**i << (n - i)) * rows for i in range(1, n + 1)]
    buffers = [np.empty(max(sizes[-1::-2], default=0)), np.empty(max(sizes[-2::-2], default=0))]
    scratch = np.empty(max(sizes, default=0) // k)
    cur = np.ascontiguousarray(arr.reshape(rows, 1 << n).T, dtype=np.float64)
    for i in range(n):
        # Voters below i are already base-k digits; voter i's bit is axis 1.
        v = cur.reshape(1 << (n - i - 1), 2, k**i * rows)
        out = buffers[(n - 1 - i) % 2][: sizes[i]].reshape(1 << (n - i - 1), k, -1)
        tmp = scratch[: sizes[i] // k].reshape(v.shape[0], -1)
        for d in range(k):
            np.multiply(v[:, 0], kern[d, 0], out=out[:, d])
            np.multiply(v[:, 1], kern[d, 1], out=tmp)
            np.add(out[:, d], tmp, out=out[:, d])
        cur = out
    result = np.ascontiguousarray(cur.reshape(k**n, rows).T)
    return result.reshape(*arr.shape[:-1], k**n)


def _zero_one(arr: np.ndarray) -> bool:
    # A bool array, or an integer one whose entries are all 0 or 1.
    kind = arr.dtype.kind
    if kind == "b":
        return True
    if kind not in "iu":
        return False
    return not arr.size or (arr.max() <= 1 and (kind == "u" or arr.min() >= 0))


def walsh_coeffs(values) -> np.ndarray:
    """``2^-n sum_x v(x) r_S(x)`` for each table ``v`` along the last axis.

    A table of 0/1 entries (bool, or an integer dtype, or nested lists of
    them) goes through one exact int32 butterfly over the whole stack:
    every partial sum is an integer of magnitude at most ``2^n``.  The
    result is converted to float64 and scaled by ``2^-n`` once.  Any other
    input, a float table or an integer one with an entry outside {0, 1}
    (whose partial sums could overflow int32), takes the float route
    ``per_voter_pass(values, [[1, 1], [-1, 1]]) / 2^n`` instead.  No
    Booleanity check is made; row by row the result is bit-identical to
    :func:`walsh_transform`.
    """
    arr = np.asarray(values)
    n = _arity_of(arr)
    if not _zero_one(arr):
        return per_voter_pass(arr, [[1.0, 1.0], [-1.0, 1.0]]) / float(1 << n)
    out = arr.astype(np.int32, order="C")
    _analysis_butterfly(out, n)
    return out / float(1 << n)


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


#: Entries compared before a full comparison, so that a random table is
#: told apart from a structured one in a few tiny checks.  A table of at
#: most this many entries goes straight to the butterfly, which costs less
#: than the checks.
_PREFIX = 64

# Per voter 0..2, the bits of a packed byte whose partner across that voter
# sits 1, 2 or 4 bits higher in the same byte.
_IN_BYTE = (0x55, 0x33, 0x0F)


def _relevant_voters(table: np.ndarray, n: int) -> tuple[int, ...]:
    # Voter i matters iff table[x] != table[x ^ 2^i] for some x.  On the
    # little-endian packed bytes (n > 6, so at least 16 of them) voters 0..2
    # pair bits inside a byte and voter i >= 3 pairs bytes at stride
    # 2^(i-3).  Pairs among the first _PREFIX entries are compared first.
    packed = np.packbits(table, bitorder="little")
    step = _PREFIX >> 3
    relevant = []
    for i in range(n):
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


def symmetric_levels(f: BooleanFunction) -> np.ndarray | None:
    """``levels[k]``, the coefficient of every ``|S| = k``, if ``f``
    depends only on the input weight (constants included), else ``None``.

    One exact integer Krawtchouk product scaled by ``2^-n``, at any arity;
    it is bit-identical to gathering :func:`walsh_coeffs` by level.
    """
    n, table = f.n, f.table
    # F[w] = f(1^w 0^(n-w)) describes f iff f depends only on the input weight.
    profile, weights = table[(1 << np.arange(n + 1)) - 1], mask_levels(n)
    if not (
        np.array_equal(profile[weights[:_PREFIX]], table[:_PREFIX])
        and np.array_equal(profile[weights], table)
    ):
        return None
    return _frozen((_krawtchouk(n) @ profile.astype(np.int64)) / float(1 << n))


def read_structure(f: BooleanFunction) -> tuple[np.ndarray | None, tuple[int, ...]]:
    """``(levels, relevant)``: the structure that ``f``'s spectrum and ``W``
    are built on.

    ``levels`` is :func:`symmetric_levels`; ``relevant`` is the increasing
    tuple of 0-based voters ``f`` depends on.  A table of at most 64
    entries (``n <= 6``) is not read: ``(None, every voter)``.
    """
    n = f.n
    if (1 << n) <= _PREFIX:
        return None, tuple(range(n))
    levels = symmetric_levels(f)
    if levels is None:
        return None, _relevant_voters(f.table, n)
    # Only a constant has no weight on the levels k >= 1.
    return levels, tuple(range(n)) if levels[1:].any() else ()


def _subcube(voters) -> np.ndarray:
    # The masks inside the increasing voters: the inputs of a restriction
    # and the subsets S of the voters alike.
    inside = np.zeros(1, dtype=np.int64)
    for i in voters:
        inside = np.concatenate([inside, inside | (1 << i)])
    return inside


def restrict(f: BooleanFunction, voters) -> BooleanFunction:
    """``f`` on its increasing 0-based ``voters`` (renumbered from 0), the rest 0."""
    return BooleanFunction(len(voters), f.table[_subcube(voters)])


def walsh_transform(f: BooleanFunction) -> WalshSpectrum:
    """Spectrum of ``f``: ``coeffs[S] = 2^-n sum_x f(x) r_S(x)``.

    Built on :func:`read_structure`:

    * symmetric ``f``: the level coefficients gathered by level;
    * ``f`` depending only on the voters in ``J``, ``|J| < n``: the
      butterfly runs on the ``2^|J|`` restriction and is scattered onto the
      subsets of ``J``, every other coefficient being 0;
    * otherwise, and for every table of at most 64 entries, the exact
      int32 butterfly of :func:`walsh_coeffs`, ``O(n 2^n)``.

    Every path is bit-identical to ``walsh_coeffs(f.table)``: all partial
    sums are integers of at most ``2^n`` and each path scales once by a
    power of two.  It agrees with :func:`walsh_transform_naive`.
    """
    n, table = f.n, f.table
    levels, relevant = read_structure(f)
    if levels is not None:
        return WalshSpectrum(n, _frozen(levels[mask_levels(n)]))
    if len(relevant) == n:
        return WalshSpectrum(n, _frozen(walsh_coeffs(table)))
    # A constant is symmetric, so here 1 <= |J| < n.
    inside = _subcube(relevant)
    coeffs = np.zeros(1 << n)
    coeffs[inside] = walsh_coeffs(table[inside])
    return WalshSpectrum(n, _frozen(coeffs))


def character_table(n: int) -> np.ndarray:
    """Dense matrix of signed characters, entry ``[S, x] = r_S(x)``."""
    if n > NAIVE_MAX:
        raise CapacityError(f"dense character table limited to n <= {NAIVE_MAX}")
    check_arity(n)
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
    if not 0 <= x < (1 << f.n):
        raise ValidationError(f"input mask {x} out of range for n={f.n}")
    return int(f.table[x])


def expectation(f: BooleanFunction) -> float:
    """``E[f]`` under the uniform measure, exact as a dyadic rational."""
    return int(f.table.sum()) / float(1 << f.n)


def level_weights(s: PseudoSpectrum) -> np.ndarray:
    """Entry ``k`` is the squared coefficient mass at level ``|S| = k``."""
    sq = s.coeffs * s.coeffs
    return np.bincount(mask_levels(s.n), weights=sq, minlength=s.n + 1)


def _arity_of(tables: np.ndarray) -> int:
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
    n = _arity_of(arr)
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


def _permuted_inputs(n: int, perm: tuple[int, ...]) -> np.ndarray:
    # Index array mapping x to the input whose bit perm[i] is bit i of x.
    x = np.arange(1 << n, dtype=np.int64)
    y = np.zeros_like(x)
    for i, j in enumerate(perm):
        y |= ((x >> i) & 1) << j
    return y


def is_invariant_under(f, generators) -> bool:
    """True iff ``f`` is unchanged by each given voter permutation.

    A generator is a tuple ``perm`` of length ``n`` sending voter index ``i``
    (0-based) to ``perm[i]``.  Invariance under a transitive group is only
    certified through explicit generators; this is a sufficient condition,
    not a decision procedure.
    """
    t = _tables(f)
    n = _arity_of(t)
    ok = np.ones(t.shape[:-1], dtype=bool)
    for perm in generators:
        if sorted(perm) != list(range(n)):
            raise ValidationError(f"not a voter permutation of 0..{n - 1}: {perm!r}")
        ok &= np.all(t[..., _permuted_inputs(n, tuple(perm))] == t, axis=-1)
    return _per_table(ok)


def is_cyclic_invariant(f) -> bool:
    """True iff ``f`` is invariant under the cyclic rotation of voters."""
    n = _arity_of(_tables(f))
    return is_invariant_under(f, [tuple((i + 1) % n for i in range(n))])


def random_function(n: int, rng: np.random.Generator) -> BooleanFunction:
    """Uniformly random truth table of arity ``n``."""
    check_arity(n)
    return BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
