"""Exhaustive and randomized extremal search over Boolean function classes."""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import bfn, catalog
from .bfn import BooleanFunction
from .dist import EvenProductDistribution, even_product_law
from .errors import CapacityError, ValidationError, check_count, check_objective, float_array
from .rationality import pair_matrix, w_batch

#: Largest arity for full class enumeration (2^16 candidate tables at n=4).
ENUM_MAX = 4

#: Ceiling on rows times ``2^n`` of the triples the random search samples
#: or evaluates at once; one row is always allowed.
_SAMPLE_BATCH = 1 << 16

#: Ceiling on |F| * |G| * |H| for the exhaustive triple scan.
TRIPLE_BUDGET = 10**9

#: Ceilings on the random search's trial count (240 MB of up-front draws at
#: n <= ENUM_MAX) and on its work, trials times ``2^n`` table entries (about
#: a minute of sampling and transforms at n = 12, 16 or 20).
TRIALS_MAX = 10**7
TRIAL_WORK_MAX = 1 << 28

PREDICATES = {
    "balanced": bfn.is_balanced,
    "monotone": bfn.is_monotone,
    "self_dual": bfn.is_self_dual,
    "cyclic_invariant": bfn.is_cyclic_invariant,
    "non_constant": lambda f: np.logical_not(bfn.is_constant(f)),
}


@dataclass(frozen=True)
class ClassFilter:
    """Conjunction of named structural predicates, plus an optional
    expectation window (inclusive)."""

    predicates: tuple[str, ...] = ()
    expectation_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        preds = tuple(self.predicates)
        object.__setattr__(self, "predicates", preds)
        for name in preds:
            if name not in PREDICATES:
                raise ValidationError(
                    f"unknown predicate {name!r}; known: {', '.join(sorted(PREDICATES))}"
                )
        if self.expectation_range is not None:
            lo, hi = float_array("expectation_range", self.expectation_range).tolist()
            object.__setattr__(self, "expectation_range", (lo, hi))
            if not lo <= hi:
                raise ValidationError(f"empty expectation range {self.expectation_range}")
        if not preds and self.expectation_range is None:
            raise ValidationError("a class filter needs at least one predicate")

    def accepts(self, f: BooleanFunction) -> bool:
        return self.select(f.table[None]).size == 1

    def select(self, tables: np.ndarray) -> np.ndarray:
        """Ascending indices of the rows of a table stack that pass.

        Each test runs only on the rows that passed the ones before it.
        """
        rows = np.arange(len(tables))
        tests = [PREDICATES[name] for name in self.predicates]
        if self.expectation_range is not None:
            tests.insert(0, self._in_window)
        for test in tests:
            ok = test(tables)
            tables, rows = tables[ok], rows[ok]
        return rows

    def _in_window(self, tables: np.ndarray) -> np.ndarray:
        lo, hi = self.expectation_range
        mean = tables.sum(axis=-1, dtype=np.int64) / float(tables.shape[-1])
        return (lo <= mean) & (mean <= hi)

    def __str__(self) -> str:
        # The CLI spelling, which parse reads back to this filter.
        window = [] if self.expectation_range is None else ["expectation:%r:%r" % self.expectation_range]
        return ",".join([*self.predicates, *window])

    @classmethod
    def parse(cls, text: str) -> "ClassFilter":
        """Parse CLI syntax like ``balanced,monotone,expectation:0.2:0.8``."""
        preds: list[str] = []
        window = None
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            if token.startswith("expectation:"):
                try:
                    _, lo, hi = token.split(":")
                    window = (float(lo), float(hi))
                except ValueError as exc:
                    raise ValidationError(f"malformed expectation window {token!r}") from exc
            else:
                preds.append(token)
        return cls(tuple(preds), window)


@dataclass(frozen=True)
class ExtremalResult:
    """Optimum of ``W`` over a product of function classes; ``trials`` and
    ``seed`` are set exactly when the triples were sampled."""

    objective: str
    value: float
    witness: tuple[BooleanFunction, BooleanFunction, BooleanFunction]
    distribution: EvenProductDistribution
    enumeration_count: int
    trials: int | None = None
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "objective": self.objective,
            "value": self.value,
            "n": self.witness[0].n,
            "witness": {
                "f": self.witness[0].hex,
                "g": self.witness[1].hex,
                "h": self.witness[2].hex,
            },
            "distribution": self.distribution.as_dict(),
            "enumeration_count": self.enumeration_count,
            "tie_break": _TIE_BREAK_NOTE,
            "mode": "exhaustive" if self.trials is None else "random",
            "trials": self.trials,
            "seed": self.seed,
        }


_TIE_BREAK_NOTE = (
    "first optimum in ascending (f, g, h) truth-table order; exact value "
    "ties resolve to the lexicographically least triple"
)


def all_tables(n: int) -> np.ndarray:
    """Every truth table of arity ``n <= ENUM_MAX`` as one ``uint8`` stack.

    Row ``v`` is the function whose packed table is ``v``, so the rows are in
    ascending truth-table order; they are unpacked at once from a counter.
    """
    bfn.check_arity(n)
    if n > ENUM_MAX:
        raise CapacityError(
            f"full enumeration is limited to n <= {ENUM_MAX} "
            f"(2^(2^n) candidates); use random_search for larger arities"
        )
    size = 1 << n
    counter = np.arange(1 << size, dtype=f"<u{max(1, size // 8)}")
    return np.unpackbits(
        counter.view(np.uint8).reshape(counter.size, -1), axis=1, count=size, bitorder="little"
    )


class ClassMembers(Sequence):
    """A read-only stack of truth tables seen as a sequence of functions.

    ``tables`` is the ``uint8`` stack; a :class:`BooleanFunction` is built
    only for a row that is indexed, so a large class costs no objects.
    """

    def __init__(self, n: int, tables: np.ndarray) -> None:
        self.n = n
        self.tables = tables
        tables.setflags(write=False)

    def __len__(self) -> int:
        return len(self.tables)

    def __getitem__(self, i) -> BooleanFunction:
        return BooleanFunction(self.n, self.tables[i])

    def find(self, table) -> int | None:
        """Index of the row equal to ``table``, or None."""
        rows = np.flatnonzero(np.all(self.tables == table, axis=-1))
        return int(rows[0]) if rows.size else None


@functools.lru_cache(maxsize=64, typed=True)
def class_table(n: int, filt: ClassFilter) -> tuple[ClassMembers, np.ndarray]:
    """Members of a class in ascending truth-table order, with their spectra.

    The rows of :func:`all_tables` are filtered as one stack, and only the
    members are transformed, in one butterfly pass; row ``i`` of the
    read-only spectra belongs to member ``i``.
    """
    tables = all_tables(n)
    tables = tables[filt.select(tables)]
    spectra = bfn.walsh_coeffs(tables)
    bfn.check_boolean_spectra(spectra)
    spectra.setflags(write=False)
    return ClassMembers(n, tables), spectra


def first_optimum(blocks, maximize: bool):
    """The first optimum over blocks of values, in scan order.

    ``blocks`` yields ``(key, values)`` pairs and is consumed lazily, in
    order; a block with no entries is skipped.  Returns ``(value, key,
    index)``, ``index`` being the position inside the winning ``values``
    as a tuple.  Ties go to the first block, and inside a block to the
    first entry in C order: a later block wins only with a strict
    improvement.
    """
    pick = np.argmax if maximize else np.argmin
    best = None
    for key, values in blocks:
        values = np.asarray(values)
        if values.size == 0:
            continue
        flat = int(pick(values))
        value = float(values.flat[flat])
        if best is None or (value > best[0] if maximize else value < best[0]):
            best = (value, key, flat, values.shape)
    if best is None:
        raise ValidationError("nothing is left to scan")
    value, key, flat, shape = best
    return value, key, tuple(int(x) for x in np.unravel_index(flat, shape))


def cross_planes(sf, sg, sh, d: EvenProductDistribution):
    """The (f,g), (g,h) and (h,f) biased-product matrices of three spectrum
    stacks under ``d``."""
    d1, d2, d3 = d.deltas
    return pair_matrix(sf, sg, d1), pair_matrix(sg, sh, d2), pair_matrix(sh, sf, d3)


def scan_planes(fg, gh, hf, maximize: bool, *, means=None, allowed=None):
    """Optimum over triples ``(i, j, k)`` of ``base + fg[i,j] + gh[j,k] + hf[k,i]``.

    The triples with first index ``i`` form one plane, summed as
    ``((base + fg) + gh) + hf``.  ``base`` is ``p_i q_j r_k + (1-p_i)(1-q_j)(1-r_k)``
    for ``means = (p, q, r)`` and absent without it.  ``allowed(i)``, if
    given, returns a boolean plane of the triples to consider, or None for
    all.  Returns ``(value, (i, j, k), triples considered)``; the planes go
    through :func:`first_optimum`, so the first optimum in ascending
    ``(i, j, k)`` order wins ties.
    """
    if means is not None:
        p, q, r = means
        ones, zeros = np.multiply.outer(q, r), np.multiply.outer(1 - q, 1 - r)
    considered = 0

    def planes():
        nonlocal considered
        for i in range(fg.shape[0]):
            if means is None:
                plane = fg[i][:, None] + gh
            else:
                plane = p[i] * ones + (1 - p[i]) * zeros
                plane += fg[i][:, None]
                plane += gh
            plane += hf[:, i][None, :]
            mask = None if allowed is None else allowed(i)
            if mask is None:
                considered += plane.size
            elif mask.any():
                considered += int(mask.sum())
                plane = np.where(mask, plane, -np.inf if maximize else np.inf)
            else:
                continue
            yield i, plane

    value, i, (j, k) = first_optimum(planes(), maximize)
    return value, (i, j, k), considered


def extremal_w(
    n: int,
    filter_f: ClassFilter,
    filter_g: ClassFilter,
    filter_h: ClassFilter,
    d: EvenProductDistribution,
    objective: str,
    *,
    exclude_dictator_triples: bool = False,
) -> ExtremalResult:
    """Exact optimum of ``W`` over the filtered triple space.

    ``objective`` is ``min_w`` or ``max_w`` and ``d`` an even law.  Ties
    between equal computed values go to the first optimum in ascending
    ``(f, g, h)`` truth-table order, the lexicographically least witness;
    exact ties that round apart are not settled.
    With ``exclude_dictator_triples`` the scan skips triples ``f = g = h``
    where the common function is a dictator or a negated dictator (the
    always-rational rules).
    """
    maximize = check_objective(objective)
    d = even_product_law(d)
    (F, sf), (G, sg), (H, sh) = (class_table(n, x) for x in (filter_f, filter_g, filter_h))
    count = len(F) * len(G) * len(H)
    if count == 0:
        raise ValidationError("one of the classes is empty")
    if count > TRIPLE_BUDGET:
        raise CapacityError(
            f"triple space of size {count} exceeds the {TRIPLE_BUDGET} budget; "
            "use random_search"
        )
    allowed = None
    if exclude_dictator_triples:
        # Row of F -> (row of G, row of H) for each dictator or negated
        # dictator in all three.
        skip = {}
        for voter in range(1, n + 1):
            table = catalog.dictator(n, voter).table
            for signed in (table, 1 - table):
                i, j, k = (members.find(signed) for members in (F, G, H))
                if None not in (i, j, k):
                    skip[i] = (j, k)

        def allowed(i):
            if i not in skip:
                return None
            mask = np.ones((len(G), len(H)), dtype=bool)
            mask[skip[i]] = False
            return mask

    value, (i, j, k), _ = scan_planes(
        *cross_planes(sf, sg, sh, d),
        maximize,
        means=(sf[:, 0], sg[:, 0], sh[:, 0]),
        allowed=allowed,
    )
    return ExtremalResult(
        objective=objective,
        value=value,
        witness=(F[i], G[j], H[k]),
        distribution=d,
        enumeration_count=count,
    )


def _balanced_only(filt: ClassFilter) -> bool:
    # Every balanced table passes such a filter or none does: its other
    # tests are non-constancy and a window on the mean, which is 1/2.
    return "balanced" in filt.predicates and set(filt.predicates) <= {"balanced", "non_constant"}


def _rejection_error(filt: ClassFilter, n: int) -> CapacityError:
    return CapacityError(
        f"rejection sampling failed for filter {filt} at n={n}; "
        "no direct sampler is available for this class"
    )


def _half_ones(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    # count shuffled half-ones tables; one rng.permuted call draws them
    # exactly as one rng.shuffle per table would, row after row.
    tables = np.zeros((count, 1 << n), dtype=np.uint8)
    tables[:, : 1 << (n - 1)] = 1
    return rng.permuted(tables, axis=1, out=tables)


def _sample_member(n: int, filt: ClassFilter, rng: np.random.Generator) -> np.ndarray:
    # One table of the class by rejection: a shuffled half-ones table for a
    # balanced-only filter, a uniformly random one otherwise.
    balanced_only = _balanced_only(filt)
    for _ in range(min(10_000, TRIAL_WORK_MAX >> n)):
        table = _half_ones(n, 1, rng)[0] if balanced_only else bfn.random_function(n, rng).table
        if filt.select(table[None]).size:
            return table
    raise _rejection_error(filt, n)


def _best_row(values: np.ndarray, triple, maximize: bool) -> int:
    """Row of the optimum of ``values``; exact ties go to the row whose
    ``triple(row)`` has the least packed ``(f, g, h)``."""
    opt = values.max() if maximize else values.min()
    rows = np.flatnonzero(values == opt)
    return int(min(rows, key=lambda r: tuple(f.packed for f in triple(r))))


def _enumerated_blocks(n, filters, trials, rows, rng):
    # Classes are enumerable: member indices are drawn up front, and each
    # block's spectrum rows are gathered into one buffer per class (fresh
    # gathers per block let malloc trim and re-fault pages).
    classes = [class_table(n, filt) for filt in filters]
    for filt, (members, _) in zip(filters, classes):
        if not members:
            raise ValidationError(f"class filter {filt} matches no function")
    picks = [rng.integers(0, len(members), size=trials) for members, _ in classes]
    bufs = [np.empty((min(rows, trials), 1 << n)) for _ in classes]
    for start in range(0, trials, rows):
        idx = [p[start : start + rows] for p in picks]
        gathered = [np.take(spectra, i, axis=0, out=buf[: len(i)])
                    for (_, spectra), i, buf in zip(classes, idx, bufs)]
        yield gathered, lambda t, idx=idx: tuple(
            members[int(i[t])] for (members, _), i in zip(classes, idx))


def _sampled_blocks(n, filters, trials, rows, rng):
    # Each block's tables in trial order (f, g, h): in one draw when every
    # filter is balanced-only, else member by member by rejection.
    one_draw = all(map(_balanced_only, filters))
    for start in range(0, trials, rows):
        m = min(rows, trials - start)
        if one_draw:
            tables = _half_ones(n, 3 * m, rng).reshape(m, 3, -1)
            for c, filt in enumerate(filters):
                if filt.select(tables[:, c]).size < m:
                    raise _rejection_error(filt, n)
        else:
            tables = np.array([[_sample_member(n, filt, rng) for filt in filters] for _ in range(m)])
        spectra = bfn.walsh_coeffs(tables)
        bfn.check_boolean_spectra(spectra)
        yield spectra.transpose(1, 0, 2), lambda t, tables=tables: tuple(
            BooleanFunction(n, table) for table in tables[t])


def random_search(
    n: int,
    filters: tuple[ClassFilter, ClassFilter, ClassFilter],
    d: EvenProductDistribution,
    objective: str,
    trials: int,
    seed: int,
) -> ExtremalResult:
    """Best ``W`` over ``trials`` sampled triples, deterministic per seed.

    ``d`` is an even law.  Ties between equal computed values go to the
    least packed ``(f, g, h)``; exact ties that round apart are not
    settled.  Triples are drawn and evaluated in blocks of
    ``_SAMPLE_BATCH >> n`` rows (at least one).  At ``n <= ENUM_MAX`` each
    function is a uniform member index of its class table; above it, every
    function is drawn in trial order ``(f, g, h)`` by its filter's sampler,
    and a block of balanced-only filters takes one ``rng.permuted`` call,
    which consumes the generator exactly as one ``rng.shuffle`` per table
    does.  So the result does not depend on the block size.
    """
    maximize = check_objective(objective)
    d = even_product_law(d)
    check_count("trials", trials, high=TRIALS_MAX)
    bfn.check_arity(n)
    if trials << n > TRIAL_WORK_MAX:
        raise CapacityError(f"trials * 2^n limited to 2^28: at most {TRIAL_WORK_MAX >> n} at n={n}")
    check_count("seed", seed, low=0)
    rows = max(1, _SAMPLE_BATCH >> n)
    sampler = _enumerated_blocks if n <= ENUM_MAX else _sampled_blocks
    # Each block is evaluated with the best row so far as its last
    # candidate, so one tie-break decides across blocks.
    best_w, best = np.empty(0), None
    for spectra, triple in sampler(n, filters, trials, rows, np.random.default_rng(seed)):
        fresh = w_batch(*spectra, d)[0]

        def row(t):
            # functions are built only for tied rows and the winner
            return best if t == len(fresh) else triple(t)

        values = np.concatenate([fresh, best_w])
        t = _best_row(values, row, maximize)
        best_w, best = values[t : t + 1], row(t)
    return ExtremalResult(
        objective=objective,
        value=float(best_w[0]),
        witness=best,
        distribution=d,
        enumeration_count=trials,
        trials=trials,
        seed=seed,
    )
