"""Named function families and preset choice-function triples."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import bfn
from .bfn import BooleanFunction
from .errors import ValidationError, check_below_half, check_count, check_odd, check_open_unit, check_range
from .rationality import Gswf


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one member of a named family."""

    family: str
    n: int
    voter: int | None = None        # dictator
    threshold: int | None = None    # threshold
    tribe_size: int | None = None   # tribes
    bit: int | None = None          # constant


# Every family checks its arity before it allocates a 2^n-sized table.


def dictator(n: int, voter: int) -> BooleanFunction:
    bfn.check_arity(n)
    check_range("voter", voter, 1, n)
    # Runs of 2^(voter-1) zeros then as many ones, repeated.
    half = np.repeat(np.array([0, 1], dtype=np.uint8), 1 << (voter - 1))
    return BooleanFunction(n, np.tile(half, 1 << (n - voter)))


def threshold(n: int, k: int) -> BooleanFunction:
    """1 exactly on inputs with at least ``k`` ones; monotone by construction."""
    bfn.check_arity(n)
    check_range("k", k, 0, n + 1)
    return bfn.symmetric_function(n, np.arange(n + 1) >= k)


def majority(n: int) -> BooleanFunction:
    check_odd("n", n)
    return threshold(n, (n + 1) // 2)


def conjunction(n: int) -> BooleanFunction:
    return threshold(n, n)


def disjunction(n: int) -> BooleanFunction:
    return threshold(n, 1)


def parity(n: int) -> BooleanFunction:
    bfn.check_arity(n)
    return bfn.symmetric_function(n, np.arange(n + 1) & 1)


def constant(n: int, bit: int) -> BooleanFunction:
    bfn.check_arity(n)
    check_range("bit", bit, 0, 1)
    return BooleanFunction(n, np.full(1 << n, bit, dtype=np.uint8))


def tribes(n: int, tribe_size: int) -> BooleanFunction:
    """OR of ANDs over consecutive voter blocks.

    When ``tribe_size`` does not divide ``n`` the last tribe is simply
    shorter; cyclic invariance holds only in the divisible case.
    """
    bfn.check_arity(n)
    check_range("tribe_size", tribe_size, 1, n)
    # Doubled one tribe at a time: over the next tribe's voters, the table so
    # far repeats while they are not all ones, and is 1 where they are.
    table = np.zeros(1, dtype=np.uint8)
    for start in range(0, n, tribe_size):
        width = min(tribe_size, n - start)
        table = np.concatenate([np.tile(table, (1 << width) - 1), np.ones_like(table)])
    return BooleanFunction(n, table)


@dataclass(frozen=True)
class Family:
    """One row of :data:`FAMILIES`.

    ``build`` takes ``n`` and, when ``field`` names the :class:`FamilySpec`
    field holding it, one extra integer parameter.  ``spec`` is the CLI
    syntax, whose head is also accepted as the family name; ``parameters``
    is what ``gswf catalog list`` shows.
    """

    build: Callable[..., BooleanFunction]
    spec: str
    parameters: tuple[str, ...]
    field: str | None = None

    @property
    def head(self) -> str:
        return self.spec.split(":", 1)[0]


FAMILIES = {
    "dictator": Family(dictator, "dict:<n>:<voter>", ("n", "voter"), "voter"),
    "majority": Family(majority, "maj:<n>", ("n (odd)",)),
    "and": Family(conjunction, "and:<n>", ("n",)),
    "or": Family(disjunction, "or:<n>", ("n",)),
    "threshold": Family(threshold, "thr:<n>:<k>", ("n", "k in 0..n+1"), "threshold"),
    "parity": Family(parity, "parity:<n>", ("n",)),
    "tribes": Family(tribes, "tribes:<n>:<size>", ("n", "tribe size"), "tribe_size"),
    "constant": Family(constant, "const:<n>:<bit>", ("n", "bit"), "bit"),
}

FAMILY_NAMES = tuple(FAMILIES)

# A spec head is a family's short head or its name.
_BY_HEAD = {key: fam for name, fam in FAMILIES.items() for key in (fam.head, name)}


def make(spec: FamilySpec) -> BooleanFunction:
    """Build the truth table described by a family spec."""
    fam = FAMILIES.get(spec.family)
    if fam is None:
        raise ValidationError(f"unknown family {spec.family!r}; known: {', '.join(FAMILY_NAMES)}")
    args = () if fam.field is None else (getattr(spec, fam.field),)
    if None in args:
        raise ValidationError(f"{spec.family} requires {fam.field}")
    return fam.build(spec.n, *args)


def instability_cutoff(n: int, q: float) -> int:
    """Smallest weight counted as a win for the instability threshold.

    Reads ``sum x_i >= (1-q) n`` as the ceiling of ``(1-q) n``; the small
    epsilon keeps decimal float noise from bumping an integer target up.
    """
    return math.ceil((1.0 - q) * n - 1e-9)


#: The parameters ``gswf catalog list`` shows for each preset of :func:`preset_gswf`.
PRESETS = {
    "condorcet": ("n (odd)",),
    "dictator_triple": ("n", "voter"),
    "split_dictators": ("n >= 3",),
    "and_dual_majority": ("n (odd)",),
    "threshold_instability": ("n (odd)", "q in (0, 1/2)"),
    "alpha_half_extremal": ("n >= 2",),
}

PRESET_NAMES = tuple(PRESETS)


def preset_gswf(name: str, n: int, *, voter: int = 1, q: float | None = None) -> Gswf:
    """Build one of the named choice-function triples."""
    if name == "condorcet":
        m = majority(n)
        return Gswf(m, m, m)
    if name == "dictator_triple":
        d = dictator(n, voter)
        return Gswf(d, d, d)
    if name == "split_dictators":
        check_count("n", n, low=3)
        return Gswf(dictator(n, 1), dictator(n, 2), dictator(n, 3))
    if name == "and_dual_majority":
        f = conjunction(n)
        return Gswf(f, bfn.dual(f), majority(n))
    if name == "threshold_instability":
        check_below_half("q", q)
        f = threshold(n, instability_cutoff(n, q))
        return Gswf(f, bfn.dual(f), majority(n))
    if name == "alpha_half_extremal":
        check_count("n", n, low=2)
        d1 = dictator(n, 1)
        return Gswf(d1, d1, dictator(n, 2))
    raise ValidationError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")


def binary_entropy(q: float) -> float:
    """``H(q) = -q log2 q - (1-q) log2 (1-q)`` for ``0 < q < 1``."""
    check_open_unit("entropy argument", q)
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def eta(n: int, q: float) -> float:
    """Expectation floor ``2^{n (H(q) - 1)} / (n + 1)`` for ``0 < q < 1/2``.

    This is ``2^{-eps n} / (n+1)`` with ``eps = 1 - H(q)``, the form the
    instability construction guarantees for its component expectations.
    """
    check_count("n", n)
    check_below_half("q", q)
    return 2.0 ** (n * (binary_entropy(q) - 1.0)) / (n + 1)


def parse_function_spec(text: str) -> BooleanFunction:
    """Parse compact CLI function specs.

    Forms: the ``spec`` of each row of :data:`FAMILIES`, e.g. ``maj:15``,
    ``thr:15:12`` or ``tribes:9:3``, with the family name accepted as the
    head (``majority:15``), and ``hex:3:e8`` (arity, then the packed truth
    table in hex).
    """
    parts = text.split(":")
    head = parts[0].lower()
    try:
        n = int(parts[1])
        if head == "hex":
            (digits,) = parts[2:]
        else:
            args = [int(p) for p in parts[2:]]
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed function spec {text!r}") from exc
    if head == "hex":
        return BooleanFunction.from_hex(n, digits)
    fam = _BY_HEAD.get(head)
    if fam is None:
        raise ValidationError(f"unknown function spec {text!r}")
    if fam.field is None and args:
        raise ValidationError(f"{head} spec takes no extra parameter: {text!r}")
    if fam.field is not None and len(args) != 1:
        raise ValidationError(f"{head} spec needs exactly one parameter: {text!r}")
    return fam.build(n, *args)
