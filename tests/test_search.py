"""Class enumeration and extremal search."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gswf import bfn, cli, search
from gswf.catalog import dictator, majority
from gswf.dist import EvenProductDistribution, TripleDistribution
from gswf.errors import CapacityError, ValidationError
from gswf.rationality import Gswf, w_batch, w_formula
from gswf.search import (
    PREDICATES,
    ClassFilter,
    all_tables,
    class_table,
    cross_planes,
    extremal_w,
    first_optimum,
    random_search,
    scan_planes,
)

from conftest import exact_min_w_non_constant

UNIFORM = EvenProductDistribution.uniform()

BALANCED = ClassFilter(("balanced",))
MONOTONE = ClassFilter(("monotone",))
BAL_MONO = ClassFilter(("balanced", "monotone"))
NON_CONST = ClassFilter(("non_constant",))
SELF_DUAL = ClassFilter(("self_dual",))


class TestClassFilter:
    def test_requires_a_predicate(self):
        with pytest.raises(ValidationError):
            ClassFilter(())

    def test_unknown_predicate(self):
        with pytest.raises(ValidationError):
            ClassFilter(("prime",))

    def test_expectation_window(self):
        filt = ClassFilter((), expectation_range=(0.2, 0.8))
        assert filt.accepts(majority(3))
        assert not filt.accepts(bfn.BooleanFunction(3, np.zeros(8, dtype=np.uint8)))

    def test_parse(self):
        filt = ClassFilter.parse("balanced,monotone,expectation:0.4:0.6")
        assert filt.predicates == ("balanced", "monotone")
        assert filt.expectation_range == (0.4, 0.6)
        with pytest.raises(ValidationError):
            ClassFilter.parse("expectation:bad:window")

    @pytest.mark.parametrize(
        "filt",
        [BALANCED, BAL_MONO, ClassFilter((), (0.9, 0.95)), ClassFilter(("non_constant",), (0.1, 1 / 3))],
    )
    def test_str_is_the_spelling_that_parse_reads_back(self, filt):
        assert ClassFilter.parse(str(filt)) == filt

    def test_str_example(self):
        filt = ClassFilter(("balanced", "monotone"), (0.2, 0.8))
        assert str(filt) == "balanced,monotone,expectation:0.2:0.8"


class TestEnumeration:
    def test_known_counts(self):
        assert len(list(class_table(2, BALANCED)[0])) == 6
        assert len(list(class_table(3, MONOTONE)[0])) == 20
        assert len(list(class_table(4, MONOTONE)[0])) == 168
        assert len(list(class_table(4, BAL_MONO)[0])) == 24

    def test_balanced_monotone_n3_contains_dictators(self):
        members = set(class_table(3, BAL_MONO)[0])
        for i in (1, 2, 3):
            assert dictator(3, i) in members
        assert majority(3) in members
        assert len(members) == 4

    def test_ascending_order(self):
        packed = [f.packed for f in class_table(3, MONOTONE)[0]]
        assert packed == sorted(packed)

    def test_enumeration_capacity(self):
        with pytest.raises(CapacityError):
            list(class_table(5, BALANCED)[0])

    def test_witnesses_satisfy_their_filter(self):
        result = extremal_w(3, BAL_MONO, BAL_MONO, BAL_MONO, UNIFORM, "max_w")
        for f in result.witness:
            assert BAL_MONO.accepts(f)


class TestClassTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_tables_in_packed_order(self, n):
        tables = all_tables(n)
        assert tables.dtype == np.uint8 and tables.shape == (1 << (1 << n), 1 << n)
        for v in (0, 1, len(tables) // 3, len(tables) - 1):
            assert np.array_equal(tables[v], bfn.BooleanFunction.from_packed(n, v).table)
        with pytest.raises(CapacityError):
            all_tables(search.ENUM_MAX + 1)

    FILTERS = [ClassFilter((name,)) for name in PREDICATES] + [
        BAL_MONO,
        ClassFilter(("non_constant",), expectation_range=(0.2, 0.7)),
        ClassFilter((), expectation_range=(0.25, 0.5)),
    ]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("filt", FILTERS, ids=str)
    def test_equals_per_function_filter(self, n, filt):
        every = [bfn.BooleanFunction.from_packed(n, v) for v in range(1 << (1 << n))]
        members, spectra = class_table(n, filt)
        assert list(members) == [f for f in every if filt.accepts(f)]
        lo, hi = filt.expectation_range or (0.0, 1.0)
        direct = [
            f for f in every
            if lo <= bfn.expectation(f) <= hi and all(PREDICATES[p](f) for p in filt.predicates)
        ]
        assert list(members) == direct
        expected = np.stack([bfn.walsh_transform(f).coeffs for f in members])
        assert np.array_equal(spectra, expected)

    def test_n4_stacked_butterfly_is_bit_identical(self):
        members, spectra = class_table(4, BALANCED)
        assert len(members) == 12870
        assert np.array_equal(spectra, np.stack([bfn.walsh_transform(f).coeffs for f in members]))
        assert not spectra.flags.writeable

    def test_members_are_built_only_when_indexed(self, monkeypatch):
        built = []

        class Counting(bfn.BooleanFunction):
            __slots__ = ()

            def __init__(self, n, table):
                built.append(n)
                super().__init__(n, table)

        monkeypatch.setattr(search, "BooleanFunction", Counting)
        members, _ = class_table(4, NON_CONST)
        assert len(members) == 65534 and built == []
        # row i is the packed table i + 1: only the all-zero table is missing
        assert members[5] == bfn.BooleanFunction.from_packed(4, 6)
        assert [members[-2].packed, members[-1].packed] == [0xFFFD, 0xFFFE]
        assert built == [4, 4, 4]
        assert members.find(dictator(4, 2).table) == 0xCCCC - 1
        assert members.find(np.zeros(16, dtype=np.uint8)) is None
        assert not members.tables.flags.writeable


# every filter with monotone: with each subset of the other predicates,
# monotone first and last, with and without a window
MONOTONE_FILTERS = sorted(
    {
        ClassFilter(preds, window)
        for r in range(5)
        for rest in itertools.combinations(["balanced", "self_dual", "cyclic_invariant", "non_constant"], r)
        for preds in (("monotone", *rest), (*rest, "monotone"))
        for window in (None, (0.25, 0.75))
    },
    key=str,
)


class TestMonotoneDoubling:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("filt", MONOTONE_FILTERS, ids=str)
    def test_equals_the_filtered_enumeration(self, n, filt):
        tables = all_tables(n)
        expected = tables[filt.select(tables)]
        members, spectra = class_table(n, filt)
        assert members.tables.dtype == np.uint8 and members.tables.shape == expected.shape
        assert members.tables.tobytes() == expected.tobytes()
        assert spectra.tobytes() == bfn.walsh_coeffs(expected).tobytes()

    def test_dedekind_sizes(self):
        assert [len(class_table(n, MONOTONE)[0]) for n in (1, 2, 3, 4)] == [3, 6, 20, 168]

    def test_above_the_enumeration_ceiling_is_refused(self, capsys):
        argv = ["search", "--n", "5", "--class-f", "monotone", "--class-g", "monotone",
                "--class-h", "monotone", "--objective", "max_w", "--uniform"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: full enumeration is limited to n <= 4 (2^(2^n) candidates); "
            "use random_search for larger arities\n"
        )


def full_scan(n, filters, d, objective, exclude):
    """extremal_w's optimum from scan_planes over every plane, as
    (value, witness hex)."""
    (F, sf), (G, sg), (H, sh) = (class_table(n, filt) for filt in filters)
    skip = {}
    for voter in range(1, n + 1) if exclude else ():
        table = dictator(n, voter).table
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
        objective == "max_w",
        means=(sf[:, 0], sg[:, 0], sh[:, 0]),
        allowed=allowed,
    )
    return value, [F[i].hex, G[j].hex, H[k].hex]


WINDOW = ClassFilter((), expectation_range=(0.875, 1.0))
ORBIT_LAWS = [UNIFORM, EvenProductDistribution(0.25, 0.25, 0.0), EvenProductDistribution(0.3, 0.15, 0.05)]


def orbit_cases():
    for n in (1, 2, 3, 4):
        triples = [(MONOTONE,) * 3, (BAL_MONO,) * 3, (SELF_DUAL,) * 3, (WINDOW,) * 3]
        if n <= 3:
            # 65534 non-constant tables at n = 4 are too many planes for the reference
            triples += [(NON_CONST,) * 3, (MONOTONE, NON_CONST, SELF_DUAL)]
        else:
            triples += [(BAL_MONO, MONOTONE, SELF_DUAL)]
        for filters in triples:
            yield pytest.param(n, filters, id=f"{n}-" + "/".join(map(str, filters)))


class TestOrbitScan:
    @pytest.mark.parametrize("n, filters", orbit_cases())
    def test_equals_the_full_scan(self, n, filters):
        # value bits and witness under every law, objective and exclusion
        count = np.prod([len(class_table(n, filt)[0]) for filt in filters])
        for d, objective, exclude in itertools.product(ORBIT_LAWS, ("max_w", "min_w"), (False, True)):
            try:
                value, witness = full_scan(n, filters, d, objective, exclude)
            except ValidationError:
                # every triple is a dictator triple: both scans refuse
                with pytest.raises(ValidationError):
                    extremal_w(n, *filters, d, objective, exclude_dictator_triples=exclude)
                continue
            result = extremal_w(n, *filters, d, objective, exclude_dictator_triples=exclude)
            assert result.value.hex() == value.hex(), (d, objective, exclude)
            assert [f.hex for f in result.witness] == witness, (d, objective, exclude)
            assert result.enumeration_count == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_monotone_planes_are_the_orbit_minima(self, n, monkeypatch):
        # 3, 5, 10 and 30 monotone functions up to voter permutation
        rows, real = [], search.scan_planes
        monkeypatch.setattr(
            search, "scan_planes", lambda *a, **kw: rows.append(kw["rows"]) or real(*a, **kw)
        )
        extremal_w(n, MONOTONE, MONOTONE, MONOTONE, UNIFORM, "max_w")
        (scanned,) = rows
        assert len(scanned) == [3, 5, 10, 30][n - 1]
        members = class_table(n, MONOTONE)[0]
        for i in scanned:
            f = members[i]
            for perm in itertools.permutations(range(n)):
                moved = f.table.reshape((2,) * n).transpose(perm).ravel()
                assert bfn.BooleanFunction(n, moved).packed >= f.packed

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize(
        "names",
        [("cyclic_invariant",) * 3, ("cyclic_invariant,monotone", "monotone", "monotone"),
         ("monotone", "monotone", "cyclic_invariant"), ("balanced,monotone", "cyclic_invariant", "self_dual")],
    )
    def test_a_cyclic_invariant_filter_scans_every_plane(self, n, names, monkeypatch):
        rows, real = [], search.scan_planes
        monkeypatch.setattr(
            search, "scan_planes", lambda *a, **kw: rows.append(kw["rows"]) or real(*a, **kw)
        )
        filters = [ClassFilter.parse(x) for x in names]
        for objective in ("max_w", "min_w"):
            result = extremal_w(n, *filters, UNIFORM, objective)
            value, witness = full_scan(n, filters, UNIFORM, objective, False)
            assert result.value.hex() == value.hex()
            assert [f.hex for f in result.witness] == witness
        assert rows == [None, None]


class TestFirstOptimum:
    def test_ties_go_to_the_first_block(self):
        blocks = [("a", [1.0, 3.0]), ("b", [3.0, 0.0]), ("c", [2.0])]
        assert first_optimum(blocks, True) == (3.0, "a", (1,))
        assert first_optimum(blocks, False) == (0.0, "b", (1,))

    def test_a_later_block_needs_a_strict_improvement(self):
        blocks = [("a", [2.0, 5.0]), ("b", [5.0]), ("c", [5.5]), ("d", [5.5, 6.0])]
        assert first_optimum(blocks, True) == (6.0, "d", (1,))
        assert first_optimum(blocks[:3], True) == (5.5, "c", (0,))
        assert first_optimum([("a", [-1.0]), ("b", [-1.0])], False) == (-1.0, "a", (0,))

    def test_ties_inside_a_block_go_to_the_first_entry_in_c_order(self):
        values = np.array([[0.0, 7.0, 1.0], [7.0, -2.0, 7.0]])
        assert first_optimum([("m", values)], True) == (7.0, "m", (0, 1))
        # the transpose holds 7 at (0, 1), (1, 0) and (2, 1): C order, not column order
        assert first_optimum([("m", values.T)], True) == (7.0, "m", (0, 1))
        assert first_optimum([("m", -values)], False) == (-7.0, "m", (0, 1))

    def test_zero_dimensional_blocks(self):
        blocks = ((k, v) for k, v in [(3, 0.5), (4, np.float64(0.25)), (5, 0.25)])
        value, key, index = first_optimum(blocks, False)
        assert (value, key, index) == (0.25, 4, ())
        assert type(value) is float

    def test_blocks_are_consumed_lazily_and_in_order(self):
        seen = []

        def blocks():
            for k in range(4):
                seen.append(k)
                yield k, np.full((2, 2), float(k % 2))

        it = blocks()
        assert seen == []
        assert first_optimum(it, True) == (1.0, 1, (0, 0))
        assert seen == [0, 1, 2, 3]

    def test_no_blocks_is_an_error(self):
        with pytest.raises(ValidationError):
            first_optimum([], True)
        with pytest.raises(ValidationError):
            first_optimum(iter([("a", np.empty((0, 3)))]), False)


class TestExtremal:
    def test_balanced_monotone_max_is_quarter_at_split_dictators(self):
        result = extremal_w(3, BAL_MONO, BAL_MONO, BAL_MONO, UNIFORM, "max_w")
        assert result.value == pytest.approx(0.25, abs=1e-12)
        assert tuple(f.hex for f in result.witness) == ("aa", "cc", "f0")
        assert result.enumeration_count == 4**3

    def test_balanced_max_n2_is_one_third(self):
        result = extremal_w(2, BALANCED, BALANCED, BALANCED, UNIFORM, "max_w")
        assert result.value == pytest.approx(1 / 3, abs=1e-12)
        assert result.value <= 3 / 8 + 1e-12
        # deterministic witness: ties are bit-equality ties, and the three
        # cross terms of the 1/3 maximizers sum in different orders, so the
        # first strict maximizer wins; it is a one-voter rule pair
        assert tuple(f.packed for f in result.witness) == (0x3, 0xC, 0x3)
        recomputed = w_formula(Gswf(*result.witness), UNIFORM).w
        assert recomputed == pytest.approx(result.value, abs=1e-12)

    def test_min_w_over_non_dictator_triples_positive(self):
        result = extremal_w(
            3, NON_CONST, NON_CONST, NON_CONST, UNIFORM, "min_w",
            exclude_dictator_triples=True,
        )
        # several triples attain the exact minimum 1/36; the witness is the
        # least of them, as the integer scan finds it
        exact, least = exact_min_w_non_constant(3)
        assert exact == Fraction(1, 36)
        assert result.value == pytest.approx(1 / 36, abs=1e-12)
        assert tuple(f.packed for f in result.witness) == least
        assert tuple(f.hex for f in result.witness) == ("01", "17", "7f")
        assert result.value == w_formula(Gswf(*result.witness), UNIFORM).w

    def test_min_w_without_exclusion_is_zero(self):
        result = extremal_w(3, NON_CONST, NON_CONST, NON_CONST, UNIFORM, "min_w")
        assert result.value == pytest.approx(0.0, abs=1e-12)
        f = result.witness[0]
        assert result.witness[1] == f and result.witness[2] == f

    def test_witness_reproduces_value(self):
        result = extremal_w(3, MONOTONE, MONOTONE, MONOTONE, UNIFORM, "max_w")
        recomputed = w_formula(Gswf(*result.witness), UNIFORM).w
        assert recomputed == result.value

    def test_balanced_max_never_exceeds_three_eighths(self):
        # live guardrail: the balanced cap holds on every exhaustive scan
        for n in (2, 3):
            result = extremal_w(n, BALANCED, BALANCED, BALANCED, UNIFORM, "max_w")
            assert result.value <= 3 / 8 + 1e-12

    def test_budget_guard(self):
        with pytest.raises(CapacityError, match="random_search"):
            extremal_w(4, BALANCED, BALANCED, BALANCED, UNIFORM, "max_w")

    def test_objective_validation(self):
        with pytest.raises(ValidationError):
            extremal_w(2, BALANCED, BALANCED, BALANCED, UNIFORM, "median_w")


def half_ones(n, rng):
    """The balanced sampler: a shuffled half-ones table."""
    table = np.zeros(1 << n, dtype=np.uint8)
    table[: 1 << (n - 1)] = 1
    rng.shuffle(table)
    return table


def rejected_until_non_constant(n, rng):
    """The non_constant sampler: uniform tables until one is not constant."""
    while True:
        table = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
        if 0 < table.sum() < table.size:
            return table


def per_trial_search(n, samplers, d, objective, trials, seed):
    """Random search one trial at a time: each of f, g, h is drawn by its
    own sampler in that order, and exact ties go to the least packed
    ``(f, g, h)``."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(trials):
        fs = [bfn.BooleanFunction(n, sample(n, rng)) for sample in samplers]
        w = w_formula(Gswf(*fs), d).w
        rank = (-w if objective == "max_w" else w, tuple(f.packed for f in fs))
        if best is None or rank < best[0]:
            best = (rank, w, fs)
    return best[1], [f.hex for f in best[2]]


class TestRandomSearch:
    @pytest.mark.parametrize(
        "objective, trials, batch",
        [("max_w", 300, None), ("min_w", 300, None), ("max_w", 301, 64 << 5), ("min_w", 100, 8 << 5)],
    )
    def test_sampled_path_matches_per_trial_reference(self, monkeypatch, objective, trials, batch):
        # n = 5 is above the enumeration ceiling; a small batch splits the
        # trials into several batches, the last one partial
        if batch is not None:
            monkeypatch.setattr(search, "_SAMPLE_BATCH", batch)
        d = EvenProductDistribution(0.1, 0.15, 0.25)
        result = random_search(5, (BALANCED,) * 3, d, objective, trials=trials, seed=13)
        value, witness = per_trial_search(5, (half_ones,) * 3, d, objective, trials, 13)
        assert result.value == value
        assert [f.hex for f in result.witness] == witness

    def test_mixed_filters_match_per_trial_reference(self, monkeypatch):
        # a filter that is not balanced-only sends every member through its
        # own rejection loop, interleaved in trial order f, g, h
        monkeypatch.setattr(search, "_SAMPLE_BATCH", 64 << 5)
        d = EvenProductDistribution(0.1, 0.15, 0.25)
        samplers = (half_ones, rejected_until_non_constant, half_ones)
        result = random_search(5, (BALANCED, NON_CONST, BALANCED), d, "max_w", trials=150, seed=21)
        value, witness = per_trial_search(5, samplers, d, "max_w", 150, 21)
        assert result.value == value
        assert [f.hex for f in result.witness] == witness

    def test_enumerated_blocks_equal_one_unblocked_batch(self, monkeypatch):
        # 1050 trials in blocks of 100 rows: the last block is partial, and
        # the blocks' values, from gathered integer spectra, concatenated,
        # are the bytes of one unblocked batch of the float spectra
        values, rows = [], []
        real_closed_form = search.closed_form

        def recording_closed_form(means, sums, deltas):
            rows.append(len(means[0]))
            out = real_closed_form(means, sums, deltas)
            values.append(out[0].copy())
            return out

        monkeypatch.setattr(search, "_SAMPLE_BATCH", 100 << 4)
        monkeypatch.setattr(search, "closed_form", recording_closed_form)
        d = EvenProductDistribution(0.3, 0.15, 0.05)
        filters = (BALANCED, MONOTONE, NON_CONST)
        result = random_search(4, filters, d, "min_w", trials=1050, seed=5)
        assert rows == [100] * 10 + [50]
        rng = np.random.default_rng(5)
        classes = [class_table(4, filt) for filt in filters]
        picks = [rng.integers(0, len(members), size=1050) for members, _ in classes]
        expected = w_batch(*(spectra[p] for (_, spectra), p in zip(classes, picks)), d)[0]
        assert np.concatenate(values).tobytes() == expected.tobytes()
        assert result.value == float(expected.min())

    def test_ties_across_blocks_go_to_the_least_packed_triple(self, monkeypatch):
        # 30 000 balanced monotone triples at n = 4: the 52 rows tied at the
        # optimum span 8 default blocks, and 100-row blocks give the same
        # result, the least packed tied triple of one unblocked batch
        filters = (BAL_MONO,) * 3
        default = random_search(4, filters, UNIFORM, "max_w", trials=30_000, seed=2)
        block_rows = search._SAMPLE_BATCH >> 4
        monkeypatch.setattr(search, "_SAMPLE_BATCH", 100 << 4)
        small = random_search(4, filters, UNIFORM, "max_w", trials=30_000, seed=2)
        rng = np.random.default_rng(2)
        members, spectra = class_table(4, BAL_MONO)
        picks = [rng.integers(0, len(members), size=30_000) for _ in range(3)]
        values = w_batch(*(spectra[p] for p in picks), UNIFORM)[0]
        tied = np.flatnonzero(values == values.max())
        assert len(tied) == 52 and len(set(tied // block_rows)) == 8
        least = min(tied, key=lambda t: tuple(members[int(p[t])].packed for p in picks))
        expected = [members[int(p[least])].hex for p in picks]
        assert expected == ["aaaa", "cccc", "ff00"]
        for result in (default, small):
            assert result.value == float(values.max()) == 0.25
            assert [f.hex for f in result.witness] == expected

    @pytest.mark.parametrize(
        "n, filters, d, seed",
        [
            (4, (BALANCED, MONOTONE, NON_CONST), EvenProductDistribution(0.3, 0.15, 0.05), 9),
            (6, (BALANCED,) * 3, UNIFORM, 3),
        ],
    )
    @pytest.mark.parametrize("objective", ["max_w", "min_w"])
    def test_value_is_w_formula_of_the_witness_bit_for_bit(self, n, filters, d, seed, objective):
        # the enumerated path (n = 4) and the sampled one (n = 6)
        result = random_search(n, filters, d, objective, trials=2000, seed=seed)
        assert result.value == w_formula(Gswf(*result.witness), d).w

    def test_enumerated_path_memory_is_bounded_by_the_block(self):
        # gathering all 200k spectrum rows of f, g and h at once peaked at
        # about 109 MiB; blocks keep the picks, the values and one block
        class_table(4, BALANCED)
        tracemalloc.start()
        try:
            random_search(4, (BALANCED,) * 3, UNIFORM, "max_w", trials=200_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak

    def test_enumerated_path_peak_is_below_the_float_gathers(self):
        # int32 member indices and int16 spectrum rows; with int64 indices
        # and float64 spectrum gathers the same search peaked at 7289 KiB
        random_search(4, (BALANCED,) * 3, UNIFORM, "max_w", trials=1000, seed=1)
        tracemalloc.start()
        try:
            random_search(4, (BALANCED,) * 3, UNIFORM, "max_w", trials=200_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7289 << 10, peak

    @pytest.mark.parametrize("k", [1, 24, 168, 12870])
    def test_int32_member_draws_are_the_int64_stream(self, k):
        # the class sizes the searches draw from: one member, 24 balanced
        # monotone, 168 monotone and 12870 balanced functions at n = 4
        for size in (1, 5001, 200_000):
            a, b = np.random.default_rng(11), np.random.default_rng(11)
            drawn = a.integers(0, k, size, dtype=np.int32)
            assert drawn.dtype == np.int32
            assert np.array_equal(drawn, b.integers(0, k, size))
            assert a.bit_generator.state == b.bit_generator.state

    def test_balanced_window_without_balanced_tables_is_a_capacity_error(self):
        # every balanced table has mean 1/2, so this filter rejects them all
        window = ClassFilter(("balanced",), expectation_range=(0.6, 0.9))
        message = (
            f"rejection sampling failed for filter {window} at n=5; "
            "no direct sampler is available for this class"
        )
        with pytest.raises(CapacityError) as exc:
            random_search(5, (BALANCED, window, BALANCED), UNIFORM, "max_w", trials=10, seed=1)
        assert str(exc.value) == message

    def test_refusals_spell_the_filter_as_the_cli_takes_it(self, monkeypatch):
        window = ClassFilter.parse("expectation:0.9:0.95")
        with pytest.raises(ValidationError) as exc:
            random_search(3, (window, BALANCED, BALANCED), UNIFORM, "max_w", trials=10, seed=1)
        assert str(exc.value) == "class filter expectation:0.9:0.95 matches no function"
        # one rejected 2^20-entry table reaches the work ceiling
        monkeypatch.setattr(search, "TRIAL_WORK_MAX", 1 << 20)
        with pytest.raises(CapacityError) as exc:
            random_search(20, (MONOTONE,) * 3, UNIFORM, "max_w", trials=1, seed=1)
        assert str(exc.value) == (
            "rejection sampling failed for filter monotone at n=20; "
            "no direct sampler is available for this class"
        )

    @pytest.mark.parametrize("cap", [1, 40])
    def test_rejection_stops_at_the_work_ceiling(self, monkeypatch, cap):
        # A random 5-voter table is monotone with probability 7581 / 2^32,
        # so every attempt is rejected; the attempts stop at TRIAL_WORK_MAX
        # table entries instead of 10 000 tables.
        monkeypatch.setattr(search, "TRIAL_WORK_MAX", cap << 5)
        draws, real = [], bfn.random_function
        monkeypatch.setattr(bfn, "random_function", lambda n, rng: draws.append(n) or real(n, rng))
        with pytest.raises(CapacityError, match=r"^rejection sampling failed for filter .* at n=5"):
            random_search(5, (MONOTONE,) * 3, UNIFORM, "max_w", trials=1, seed=1)
        assert draws == [5] * cap

    def test_draws_inside_the_rejection_cap_are_unchanged(self, monkeypatch):
        # About 1 in 100 random tables has a mean of at least 0.7, so members
        # take many attempts; while each is found within the cap, a lower
        # cap draws the same stream.
        heavy = ClassFilter(("non_constant",), expectation_range=(0.7, 1.0))
        filters = (BALANCED, heavy, BALANCED)
        before = random_search(5, filters, UNIFORM, "max_w", trials=20, seed=21)
        monkeypatch.setattr(search, "TRIAL_WORK_MAX", 2000 << 5)
        draws, real = [], bfn.random_function
        monkeypatch.setattr(bfn, "random_function", lambda n, rng: draws.append(n) or real(n, rng))
        after = random_search(5, filters, UNIFORM, "max_w", trials=20, seed=21)
        assert len(draws) > 20 * 10
        assert after.value == before.value and after.witness == before.witness

    def test_deterministic_per_seed(self):
        a = random_search(3, (BALANCED,) * 3, UNIFORM, "max_w", trials=500, seed=4)
        b = random_search(3, (BALANCED,) * 3, UNIFORM, "max_w", trials=500, seed=4)
        assert a.value == b.value
        assert [f.hex for f in a.witness] == [f.hex for f in b.witness]

    def test_single_trial(self):
        result = random_search(2, (BALANCED,) * 3, UNIFORM, "min_w", trials=1, seed=0)
        assert result.enumeration_count == 1
        assert BALANCED.accepts(result.witness[0])

    def test_random_witness_reproduces_value(self):
        result = random_search(3, (MONOTONE,) * 3, UNIFORM, "min_w", trials=300, seed=8)
        recomputed = w_formula(Gswf(*result.witness), UNIFORM).w
        assert recomputed == pytest.approx(result.value, abs=1e-12)

    def test_balanced_n4_capped_by_three_eighths(self):
        result = random_search(4, (BALANCED,) * 3, UNIFORM, "max_w", trials=100_000, seed=1)
        assert result.value <= 3 / 8 + 1e-12

    def test_large_arity_balanced_sampler(self):
        result = random_search(6, (BALANCED,) * 3, UNIFORM, "max_w", trials=40, seed=2)
        for f in result.witness:
            assert bfn.is_balanced(f)

    def test_trials_validation(self):
        with pytest.raises(ValidationError):
            random_search(3, (BALANCED,) * 3, UNIFORM, "max_w", trials=0, seed=1)


class TestEvenLaws:
    # The closed form's entry points take an even six-value law as the
    # (alpha, beta, gamma) form, bit for bit, and refuse any other.
    SIX = TripleDistribution(np.array([0.2, 0.2, 0.1, 0.2, 0.2, 0.1]))
    SKEWED = TripleDistribution(np.array([0.3, 0.1, 0.1, 0.1, 0.2, 0.2]))

    def test_an_even_six_value_law_is_its_alpha_form(self):
        even = EvenProductDistribution(0.2, 0.2, 0.1)
        for d in (self.SIX, even):
            got = extremal_w(2, BALANCED, BALANCED, NON_CONST, d, "min_w").to_json_dict()
            assert got == extremal_w(2, BALANCED, BALANCED, NON_CONST, even, "min_w").to_json_dict()
            for n in (3, 5):
                got = random_search(n, (BALANCED,) * 3, d, "max_w", trials=40, seed=2)
                ref = random_search(n, (BALANCED,) * 3, even, "max_w", trials=40, seed=2)
                assert got.to_json_dict() == ref.to_json_dict()

    def test_a_law_that_is_not_even_is_refused(self):
        with pytest.raises(ValidationError, match="even product"):
            extremal_w(2, BALANCED, BALANCED, BALANCED, self.SKEWED, "max_w")
        with pytest.raises(ValidationError, match="even product"):
            random_search(3, (BALANCED,) * 3, self.SKEWED, "max_w", trials=10, seed=1)
