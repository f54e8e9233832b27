"""Bounded sequences: constructors, level sets, and the fixed corpus."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from idealcore import maps
from idealcore import matrices as mat
from idealcore import sequences as seq
from idealcore import sets as sd


def test_indicator_examples():
    x = seq.indicator(sd.evens())
    assert x(4) == 1.0 and x(5) == 0.0
    assert seq.indicator(sd.explicit()).prefix(50).sum() == 0.0
    xs = seq.indicator(sd.squares())
    assert xs(16) == 1.0 and xs(17) == 0.0


def test_signed_indicator_examples():
    x = seq.signed_indicator(sd.ap(0, 4), sd.ap(2, 4))
    assert (x(0), x(2), x(1)) == (1.0, -1.0, 0.0)
    with pytest.raises(seq.OverlapError):
        seq.signed_indicator(sd.explicit(0), sd.explicit(0))
    alt = seq.signed_indicator(sd.evens(), sd.odds())
    assert [alt(n) for n in range(4)] == [1.0, -1.0, 1.0, -1.0]


def test_signed_equals_indicator_difference():
    f, g = sd.ap(0, 4), sd.ap(2, 4)
    signed = seq.signed_indicator(f, g).prefix(10**4)
    diff = seq.indicator(f).prefix(10**4) - seq.indicator(g).prefix(10**4)
    assert np.array_equal(signed, diff)


def test_affine():
    x = seq.indicator(sd.evens())
    y = seq.affine(x, 2.0, 1.0)
    assert (y(0), y(1)) == (3.0, 1.0)
    assert y.bound == 3.0
    ident = seq.affine(x, 1.0, 0.0)
    assert np.array_equal(ident.prefix(100), x.prefix(100))
    const = seq.affine(x, 0.0, 5.0)
    assert const.level_sets == ((5.0, sd.omega()),)


def test_combine_levels_match_values():
    x = seq.indicator(sd.evens())
    y = seq.indicator(sd.squares())
    z = seq.combine(x, y, "add")
    assert z.bound == 2.0
    values = z.prefix(2000)
    for value, level_set in z.level_sets:
        members = set(level_set.enumerate_prefix(2000))
        for n in range(2000):
            assert (n in members) == (values[n] == value)


def test_corpus_shape():
    entries = seq.corpus()
    assert len(entries) >= 8
    labels = [x.label for x in entries]
    assert len(set(labels)) == len(labels)
    assert "alternating" in labels and "indicator_squares" in labels
    with pytest.raises(KeyError):
        seq.corpus_entry("nope")


def test_corpus_bounds_hold_on_prefix():
    for x in seq.corpus():
        values = x.prefix(10**5)
        assert np.max(np.abs(values)) <= x.bound + 1e-12, x.label


def test_corpus_level_sets_partition_prefix():
    horizon = 10**4
    for x in seq.corpus():
        if x.level_sets is None:
            continue
        values = x.prefix(horizon)
        coverage = np.zeros(horizon, dtype=int)
        for value, level_set in x.level_sets:
            idx = np.fromiter(level_set.enumerate_prefix(horizon), dtype=np.int64)
            if idx.size:
                coverage[idx] += 1
                assert np.allclose(values[idx], value), (x.label, value)
        assert np.all(coverage == 1), x.label


def test_corpus_limits_hold_on_prefix():
    declared = [x for x in seq.corpus() if x.limit is not None]
    assert [x.label for x in declared] == ["alternating_decay"]
    for x in declared:
        assert x.envelope is not None
        x.validate_limit(10**5)


def _decay(limit=0.0, envelope=lambda h: 1.0 / np.arange(1.0, h + 1.0)):
    """(−1)ⁿ/(n+1) with the given declared limit and envelope."""
    rule = seq.corpus_entry("alternating_decay").rule
    return seq.BoundedSequence(lambda n: (-1.0) ** n / (n + 1.0), 1.0, "decay", rule=rule, limit=limit, envelope=envelope)


def test_validate_limit_refuses_a_false_limit_or_envelope():
    _decay().validate_limit(1000)
    with pytest.raises(ValueError, match="exceeds the envelope at n = 1"):
        _decay(limit=0.5).validate_limit(1000)
    with pytest.raises(ValueError, match="exceeds the envelope at n = 1"):
        _decay(envelope=lambda h: 1.0 / np.arange(1.0, h + 1.0) ** 2).validate_limit(1000)
    with pytest.raises(ValueError, match="increases"):
        _decay(envelope=lambda h: np.arange(1.0, h + 1.0)).validate_limit(1000)
    with pytest.raises(ValueError, match="nonnegative"):
        _decay(envelope=lambda h: np.full(h, -1.0)).validate_limit(1000)
    with pytest.raises(ValueError, match="needs a limit"):
        _decay(limit=None)


def test_affine_and_combine_carry_limits_and_envelopes():
    x = seq.corpus_entry("alternating_decay")
    y = seq.affine(x, -2.0, 0.5)
    assert y.limit == 0.5
    y.validate_limit(1000)
    z = seq.combine(x, y, "sub")
    assert z.limit == -0.5
    z.validate_limit(1000)
    assert seq.combine(x, seq.corpus_entry("alternating"), "add").limit is None


def test_prefix_cache_grows():
    x = seq.corpus_entry("alternating")
    a = x.prefix(10)
    b = x.prefix(100)
    assert len(a) == 10 and len(b) == 100
    assert np.array_equal(b[:10], a)


def test_bound_validation():
    with pytest.raises(ValueError):
        seq.BoundedSequence(lambda n: 0.0, bound=-1.0, label="bad")


def _derived():
    rot = seq.corpus_entry("rotation_golden")
    blocks = seq.corpus_entry("indicator_blocks")
    return [
        seq.affine(rot, -2.0, 0.5),
        seq.affine(blocks, 0.0, 3.0),
        seq.affine(blocks, -0.5, 0.25),
        seq.combine(seq.corpus_entry("alternating"), seq.corpus_entry("alternating_decay"), "sub"),
        seq.combine(seq.corpus_entry("indicator_evens"), seq.corpus_entry("indicator_squares"), "add"),
        seq.combine(rot, blocks, "add"),
    ]


@pytest.mark.parametrize("index", range(len(seq.corpus()) + len(_derived())))
def test_prefix_is_bit_identical_to_fn(index):
    x = (seq.corpus() + _derived())[index]
    for horizon in (100, 4097, 200_000):
        values = x.prefix(horizon)
        expected = np.array([x.fn(n) for n in range(horizon)], dtype=np.float64)
        assert np.array_equal(values, expected), (x.label, horizon)
        assert values.tobytes() == expected.tobytes(), (x.label, horizon)
        assert not values.flags.writeable


def test_scalar_prefix_extends_the_cache():
    calls = []

    def fn(n):
        calls.append(n)
        return 1.0 / (n + 2.0)

    x = seq.BoundedSequence(fn, bound=1.0, label="scalar")
    x.prefix(10)
    x.prefix(100)
    x.prefix(50)
    assert calls == list(range(100))
    assert np.array_equal(x.prefix(100), [1.0 / (n + 2.0) for n in range(100)])


@pytest.mark.parametrize(
    "levels",
    [
        ((1.0, sd.evens()), (0.0, sd.ap(0, 3))),  # overlap at multiples of 6, gap at 1 and 5 mod 6
        ((1.0, sd.evens()), (0.0, sd.omega())),  # overlap only
        ((1.0, sd.evens()),),  # gap only
    ],
)
def test_level_sets_must_partition_the_prefix(levels):
    x = seq.BoundedSequence(lambda n: float(n % 2 == 0), bound=1.0, label="bad", level_sets=levels)
    with pytest.raises(seq.LevelSetError, match="partition"):
        x.prefix(100)


def _read_by_index():
    """Every corpus entry, the derived sequences and both indicator kinds."""
    return (
        seq.corpus()
        + _derived()
        + [
            seq.indicator(sd.GeometricBlocks(3, 1, 2), label="indicator_blocks_3"),
            seq.signed_indicator(sd.evens(), sd.ap(1, 4), label="signed_evens_1mod4"),
        ]
    )


_INDEX_ARRAYS = {
    "empty": np.zeros(0, dtype=np.int64),
    "unsorted": np.random.default_rng(0).permutation(5000),
    "repeated": np.array([7, 7, 0, 3, 7, 0, 4096, 3]),
    # The largest index far exceeds the count: read per index, not a prefix.
    "sparse": 7 * np.arange(300, dtype=np.int64)[::-1] ** 2,
    "scattered": np.random.default_rng(1).integers(0, 10**6, 64),
    # A contiguous run far past its count: read as a slice of one prefix.
    "late_run": np.arange(20_000, 20_300, dtype=np.int64),
}


@pytest.mark.parametrize("index", range(len(_read_by_index())))
def test_at_is_bit_identical_to_fn(index):
    # A prefix read from 0 (an indicator's straight from its mask) has the same bits.
    fresh = _read_by_index()[index]
    assert fresh.prefix(5000).tobytes() == np.array([fresh.fn(n) for n in range(5000)]).tobytes(), fresh.label
    x = _read_by_index()[index]
    # One sequence reads every array in turn, so each read meets the prefix
    # that the reads before it left.
    for name, ns in _INDEX_ARRAYS.items():
        values = x.at(ns)
        expected = np.array([x.fn(int(n)) for n in ns], dtype=np.float64)
        assert values.dtype == np.float64 and values.shape == ns.shape, (x.label, name)
        assert values.tobytes() == expected.tobytes(), (x.label, name)


def _counting_rotation():
    """rotation_golden, and the sizes of the index arrays its rule is given."""
    x = seq.corpus_entry("rotation_golden")
    sizes, rule = [], x.rule

    def counted(ns):
        sizes.append(len(ns))
        return rule(ns)

    x.rule = counted
    return x, sizes


def test_growing_a_prefix_evaluates_only_the_new_indices():
    x, sizes = _counting_rotation()
    x.prefix(100)
    x.prefix(250)
    x.prefix(200)
    assert sizes == [100, 150]
    assert x.prefix(250).tobytes() == np.array([x.fn(n) for n in range(250)]).tobytes()


def test_growing_an_indicator_prefix_reads_no_index_alone():
    # The new indices 100 000 … 100 999 are a contiguous run, a slice of one
    # mask, however small the growth against the prefix.
    s = sd.GeometricBlocks(2, 0, 2)
    x = seq.indicator(s)
    x.prefix(100_000)
    with mock.patch.object(sd.GeometricBlocks, "contains", autospec=True, side_effect=sd.GeometricBlocks.contains) as contains:
        values = x.prefix(101_000)
    assert contains.call_count == 0
    assert values.tobytes() == s.mask(101_000).astype(np.float64).tobytes()


def test_a_fresh_indicator_prefix_is_its_mask():
    # A prefix that starts at 0 reads the mask, with no index array.
    s = sd.GeometricBlocks(2, 0, 2)
    x = seq.indicator(s)
    x.rule = lambda ns: pytest.fail("read by index")
    assert x.prefix(10**5).tobytes() == s.mask(10**5).astype(np.float64).tobytes()


def test_a_far_run_is_read_per_index_without_a_long_mask():
    # Dense in its span but 10⁸ out: per index, not a mask of 10⁸ entries.
    s = sd.GeometricBlocks(2, 0, 2)
    ns = np.arange(10**8, 10**8 + 1000, dtype=np.int64)
    tracemalloc.start()
    try:
        values = seq.indicator(s).at(ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.tolist() == [float(s.contains(int(n))) for n in ns]
    assert peak < 2**20


def test_rk_2n_reads_rotation_golden_at_the_selected_indices_only():
    # The rule runs on h(0) … h(H−1), H indices, not on the prefix below 2H−1.
    x, sizes = _counting_rotation()
    values = mat.rk_matrix(maps.affine_map(2)).transform_prefix(x, 5000)
    assert sizes == [5000]
    assert values.tobytes() == np.array([x.fn(2 * n) for n in range(5000)]).tobytes()
