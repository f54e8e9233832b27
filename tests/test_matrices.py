"""Lazy matrices: rows, transforms, norms, algebra, splits, composition."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from idealcore import maps
from idealcore import matrices as mat
from idealcore import sequences as seq
from idealcore import sets as sd
from idealcore import specs


def test_cesaro_rows():
    c = mat.cesaro()
    r1 = c.row(1)
    assert r1.indices.tolist() == [0, 1]
    assert r1.values.tolist() == [0.5, 0.5]
    # row 0 carries weight 1 on column 0 (rows normalized to sum one)
    assert c.row(0).values.tolist() == [1.0]


def test_identity_and_diagonal_rows():
    assert mat.identity().row(7).indices.tolist() == [7]
    d = mat.diagonal(lambda n: 2.0**-n)
    r = d.row(3)
    assert r.indices.tolist() == [3] and r.values.tolist() == [0.125]


def test_transform_examples():
    c = mat.cesaro()
    alt = seq.corpus_entry("alternating")
    # row n averages x_0..x_n
    assert mat.transform(c, alt, 3) == 0.0
    assert mat.transform(c, alt, 4) == pytest.approx(1 / 5)
    x = seq.corpus_entry("indicator_evens")
    assert mat.transform(mat.identity(), x, 6) == 1.0
    rk = mat.rk_matrix(maps.affine_map(2))
    for n in (0, 3, 10):
        assert mat.transform(rk, x, n) == x(2 * n)


def test_norm_estimate():
    sup, certified = mat.norm_estimate(mat.cesaro(), 2000)
    assert sup == 1.0 and certified
    sup, certified = mat.norm_estimate(mat.identity(), 100)
    assert sup == 1.0 and certified
    sup, _ = mat.norm_estimate(mat.scalar_mul(2.0, mat.identity()), 100)
    assert sup == 2.0
    with pytest.raises(ValueError):
        mat.norm_estimate(mat.identity(), 0)


def test_cesaro_row_sums_exact():
    c = mat.cesaro()
    for n in (0, 1, 5, 100, 999):
        r = c.row(n)
        assert math.fsum(r.values.tolist()) == 1.0


def test_linearity():
    x = seq.corpus_entry("alternating")
    y = seq.corpus_entry("indicator_squares")
    combo = seq.BoundedSequence(lambda n: 2.0 * x.fn(n) - 3.0 * y.fn(n), bound=5.0, label="combo")
    for a in (mat.cesaro(), mat.banded([[(0, 1.0), (2, -0.5)]], tail_mode="identity")):
        for n in (0, 1, 17, 500):
            lhs = mat.transform(a, combo, n)
            rhs = 2.0 * mat.transform(a, x, n) - 3.0 * mat.transform(a, y, n)
            assert abs(lhs - rhs) <= 1e-12


def test_transform_bounded_by_rowsum():
    a = mat.cesaro()
    x = seq.corpus_entry("rotation_golden")
    for n in (0, 10, 100):
        assert abs(mat.transform(a, x, n)) <= a.row_abs_sum(n) * x.bound + 1e-12


def test_pos_neg_split():
    a = mat.banded([[(0, 1.0), (1, -2.0)]], tail_mode="zero")
    pos, neg = mat.pos_neg_split(a)
    assert pos.row(0).indices.tolist() == [0] and pos.row(0).values.tolist() == [1.0]
    assert neg.row(0).indices.tolist() == [1] and neg.row(0).values.tolist() == [2.0]
    # nonnegative matrices have an empty negative part
    _, neg_c = mat.pos_neg_split(mat.cesaro())
    assert len(neg_c.row(5).indices) == 0


def _entries(a, rows, cols):
    out = np.zeros((rows, cols))
    for n in range(rows):
        r = a.row(n)
        keep = r.indices < cols
        out[n, r.indices[keep]] = r.values[keep]
    return out


def test_split_reconstruction_window():
    a = mat.banded([[(0, 0.5), (1, -0.25), (3, 1.5)], [(2, -1.0)]], tail_mode="identity")
    pos, neg = mat.pos_neg_split(a)
    window = _entries(a, 100, 100)
    rebuilt = _entries(pos, 100, 100) - _entries(neg, 100, 100)
    assert np.array_equal(window, rebuilt)
    assert np.all(_entries(pos, 100, 100) * _entries(neg, 100, 100) == 0)


def test_matrix_sum_and_scalar():
    a = mat.cesaro()
    assert np.array_equal(_entries(mat.matrix_sum(a, mat.zero_matrix()), 100, 100), _entries(a, 100, 100))
    flipped = mat.scalar_mul(-1.0, a)
    pos, neg = mat.pos_neg_split(flipped)
    assert len(pos.row(5).indices) == 0
    assert np.allclose(_entries(neg, 50, 50), _entries(a, 50, 50))


def test_compose_rk_selects_rows():
    b = mat.rk_matrix(maps.affine_map(2))
    a = mat.cesaro()
    c = mat.compose(b, a)
    for n in (0, 1, 7):
        assert np.array_equal(c.row(n).indices, a.row(2 * n).indices)
        assert np.allclose(c.row(n).values, a.row(2 * n).values)


def test_compose_requires_row_finite_left():
    class TailRow(mat.InfiniteMatrix):
        def _row(self, n):
            return mat.MatrixRow(np.array([n], dtype=np.int64), np.array([1.0]), tail_bound=0.5)

    with pytest.raises(mat.ComposeUnsupportedError):
        mat.compose(TailRow("tail"), mat.identity())


def test_composed_rk_rk_is_rk():
    b = mat.rk_matrix(maps.affine_map(2))
    a = mat.rk_matrix(maps.affine_map(2))
    c = mat.compose(b, a)
    for n in (0, 1, 5):
        assert c.row(n).indices.tolist() == [4 * n]
        assert c.row(n).values.tolist() == [1.0]


def test_banded_tail_modes():
    rows = [[(0, 2.0)]]
    assert mat.banded(rows, "identity").row(5).indices.tolist() == [5]
    assert len(mat.banded(rows, "zero").row(5).indices) == 0
    assert mat.banded(rows, "repeat_last").row(5).values.tolist() == [2.0]
    with pytest.raises(ValueError):
        mat.banded(rows, "bogus")


def test_banded_rejects_negative_and_repeated_columns():
    with pytest.raises(mat.BandedRowError) as err:
        mat.banded([[(0, 1.0)], [(-3, 1.0)]])
    assert err.value.row == 1
    with pytest.raises(mat.BandedRowError) as err:
        mat.banded([[(2, 1.0), (0, 0.5), (2, 0.5)]])
    assert err.value.row == 0
    with pytest.raises(specs.ConfigError) as err:
        specs.parse_matrix({"type": "banded", "rows": [[[0, 1]], [[-3, 1]]]})
    assert err.value.path == "matrix.rows[1]"
    with pytest.raises(specs.ConfigError) as err:
        specs.parse_matrix({"type": "banded", "rows": [[[1, 1], [1, 2]]]})
    assert err.value.path == "matrix.rows[0]"


def _dict_merge(pairs, tail_bound=0.0):
    """Reference row merge: accumulate each column's values in a dict, in input order."""
    merged = {}
    for k, v in pairs:
        merged[k] = merged.get(k, 0.0) + v
    items = sorted(merged.items())
    return [k for k, _ in items], [v for _, v in items], tail_bound


def _row_triple(r):
    return r.indices.tolist(), r.values.tolist(), r.tail_bound


def test_row_merge_matches_dict_reference():
    # Overlapping columns, zeros (also -0.0) and negative values; the sums must
    # agree bit for bit, so the values are chosen where addition order shows.
    idx = np.array([3, 1, 3, 0, 3, 1, 7], dtype=np.int64)
    val = np.array([0.1, 0.0, 0.2, -0.0, -0.3, -1e16, 1e-16])
    got = mat._merged_row(idx, val, 0.25)
    assert _row_triple(got) == _dict_merge(zip(idx.tolist(), val.tolist()), 0.25)
    assert got.indices.dtype == np.int64 and got.values.dtype == np.float64
    empty = mat._merged_row(np.zeros(0, dtype=np.int64), np.zeros(0))
    assert empty.indices.dtype == np.int64 and empty.values.dtype == np.float64 and empty.values.size == 0

    rng = np.random.default_rng(5)

    def random_rows(count):
        rows = []
        for _ in range(count):
            cols = rng.choice(12, size=int(rng.integers(0, 8)), replace=False)
            vals = rng.choice([0.0, -0.0, 0.1, 0.2, -0.3, 1e16, -1e16, 1.0 / 3.0], size=cols.size)
            rows.append([(int(k), float(v)) for k, v in zip(cols, vals)])
        return rows

    a = mat.banded(random_rows(20), tail_mode="zero")
    b = mat.banded(random_rows(20), tail_mode="identity")
    s = mat.matrix_sum(a, b)
    c = mat.compose(a, b)
    for n in range(25):
        ra, rb = a.row(n), b.row(n)
        pairs = list(zip(ra.indices.tolist(), ra.values.tolist())) + list(zip(rb.indices.tolist(), rb.values.tolist()))
        assert _row_triple(s.row(n)) == _dict_merge(pairs, ra.tail_bound + rb.tail_bound), n
        products = [
            (k, bval * aval)
            for j, bval in zip(ra.indices.tolist(), ra.values.tolist())
            for k, aval in zip(b.row(j).indices.tolist(), b.row(j).values.tolist())
        ]
        assert _row_triple(c.row(n)) == _dict_merge(products), n


def test_bulk_paths_match_scalar():
    x = seq.corpus_entry("alternating")
    for a in (mat.cesaro(), mat.rk_matrix(maps.affine_map(3, 1)), mat.banded([[(0, 1.0), (4, -2.0)]])):
        bulk = a.transform_prefix(x, 50)
        scalar = np.array([mat.transform(a, x, n) for n in range(50)])
        assert np.allclose(bulk, scalar, atol=1e-12)
        masked = a.masked_row_sums(sd.evens(), 50, absolute=True)
        want = []
        for n in range(50):
            r = a.row(n)
            want.append(sum(abs(v) for k, v in zip(r.indices, r.values) if k % 2 == 0))
        assert np.allclose(masked, np.array(want), atol=1e-12)


@pytest.mark.parametrize(
    "h",
    [
        maps.identity_map(),
        maps.affine_map(3, 2),
        maps.enumeration_map(sd.evens()),
        maps.enumeration_map(sd.squares()),
        maps.enumeration_map(sd.GeometricBlocks(2, 1, 2)),
        maps.IndexMap(lambda n: n // 2, "halve"),
    ],
    ids=lambda h: h.label,
)
def test_index_map_prefix_equals_fn(h):
    for horizon in (0, 1, 100, 5000):
        values = h.prefix(horizon)
        assert values.dtype == np.int64
        assert np.array_equal(values, np.array([h.fn(n) for n in range(horizon)], dtype=np.int64))


@pytest.mark.parametrize(
    "spec",
    [
        "identity",
        "zero",
        {"type": "diagonal", "values": {"kind": "constant", "value": -0.3}},
        {"type": "diagonal", "values": {"kind": "harmonic"}},
        {"type": "diagonal", "values": {"kind": "geometric", "ratio": 0.7}},
    ],
)
def test_diagonal_prefix_is_bit_identical_to_entries(spec):
    a = specs.parse_matrix(spec)
    expected = np.array([float(a.diag(n)) for n in range(4097)])
    assert a._diag_prefix(4097).tobytes() == expected.tobytes()


def test_rk_over_sparse_map_reads_the_image_only():
    # rk(enumeration(squares)) selects columns up to ~H^2; neither the transform
    # nor the masked row sums may materialize a prefix up to the largest one
    # (4e8 floats at H = 20k).
    horizon = 20_000
    a = mat.rk_matrix(maps.enumeration_map(sd.squares()))
    x = seq.corpus_entry("periodic_three_level")
    columns = sd.ap(1, 3)
    hs = a.h.prefix(horizon)
    tracemalloc.start()
    try:
        values = a.transform_prefix(x, horizon)
        sums = a.masked_row_sums(columns, horizon, absolute=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert np.array_equal(values, [x.fn(int(k)) for k in hs])
    assert np.array_equal(sums, [float(columns.contains(int(k))) for k in hs])


def test_find_negative_entry():
    assert mat.find_negative_entry(mat.cesaro(), 100) is None
    a = mat.banded([[(0, 1.0)], [(3, -0.1)]], tail_mode="identity")
    assert mat.find_negative_entry(a, 100) == (1, 3, -0.1)


def test_tail_bounds_enter_absolute_sums():
    class TailRow(mat.InfiniteMatrix):
        def _row(self, n):
            return mat.MatrixRow(np.array([n], dtype=np.int64), np.array([0.5]), tail_bound=0.25)

    a = TailRow("tails")
    assert a.row_abs_sum(3) == 0.75
    sup, certified = mat.norm_estimate(a, 10)
    assert sup == 0.75 and not certified
    assert np.allclose(a.masked_row_sums(None, 10, absolute=True), 0.75)
    # raw sums ignore the unknown tail
    assert np.allclose(a.row_sums(10), 0.5)


def test_row_cache_thread_safe():
    a = mat.cesaro()
    with ThreadPoolExecutor(max_workers=8) as pool:
        rows = list(pool.map(lambda n: a.row(n % 50), range(400)))
    for n, r in enumerate(rows):
        assert len(r.indices) == (n % 50) + 1
