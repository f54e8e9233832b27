"""Lazy matrices: rows, transforms, norms, algebra, splits, composition."""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idealcore import ideals as ide
from idealcore import maps
from idealcore import matrices as mat
from idealcore import regularity as reg
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
    abs_sums = a.row_sums(101, absolute=True)
    for n in (0, 10, 100):
        assert abs(mat.transform(a, x, n)) <= abs_sums[n] * x.bound + 1e-12


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


def test_a_diagonal_left_factor_acts_on_the_right_factors_values(monkeypatch):
    # Diagonal matrices are row-finite, so Id·Cesàro scales Cesàro's closed
    # form, as rk(identity)·Cesàro does, and builds no row of the product.
    a = mat.compose(mat.identity(), mat.cesaro())
    b = mat.compose(mat.rk_matrix(maps.identity_map()), mat.cesaro())
    x = seq.corpus_entry("rotation_golden")
    monkeypatch.setattr(mat._ComposedMatrix, "_row", lambda self, n: pytest.fail("a row of the product was built"))
    assert a.row_sums(3000).tobytes() == b.row_sums(3000).tobytes() == np.ones(3000).tobytes()
    assert a.row_sums(3000, absolute=True).tobytes() == np.ones(3000).tobytes()
    assert a.transform_prefix(x, 3000).tobytes() == b.transform_prefix(x, 3000).tobytes()


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


def _unique_merge(indices, values):
    """The row merge that sorted from scratch: ``np.unique`` for the columns
    and their inverse, then ``bincount``."""
    cols, inv = np.unique(indices, return_inverse=True)
    return cols, np.bincount(inv, weights=values, minlength=cols.size)


def test_row_merge_of_sorted_runs_matches_the_unique_merge():
    # Rows arrive as concatenated sorted operand rows that share columns; the
    # merge must give the columns and the bits of the merge by ``np.unique``.
    rng = np.random.default_rng(17)
    for _ in range(300):
        runs = [
            np.sort(rng.choice(40, size=int(rng.integers(0, 16)), replace=False))
            for _ in range(int(rng.integers(1, 5)))
        ]
        idx = np.concatenate(runs).astype(np.int64)
        val = rng.choice([0.0, -0.0, 0.1, 0.2, -0.3, 1e16, -1e16, 1.0 / 3.0], size=idx.size)
        got = mat._merged_row(idx, val)
        cols, sums = _unique_merge(idx, val)
        assert np.array_equal(got.indices, cols)
        assert got.values.tobytes() == sums.tobytes()


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


_SELECTIONS = {
    "2n": lambda: maps.affine_map(2),
    "2n+1": lambda: maps.affine_map(2, 1),
    "enumeration(evens)": lambda: maps.enumeration_map(sd.evens()),
    "enumeration(ap(1,3))": lambda: maps.enumeration_map(sd.ap(1, 3)),
    "enumeration(squares)": lambda: maps.enumeration_map(sd.squares()),
}


@pytest.mark.parametrize("h", sorted(_SELECTIONS))
def test_rk_transform_is_a_gather_from_a_long_prefix(h):
    # rk(h)·x reads x at h(0) … h(H−1); a fresh copy of x gives the prefix up
    # to the largest of them (1e6 for the squares at H = 1000).
    horizon = 1000
    a = mat.rk_matrix(_SELECTIONS[h]())
    rows = a.h.prefix(horizon)
    for x in seq.corpus():
        long = seq.corpus_entry(x.label).prefix(int(rows.max()) + 1)
        assert a.transform_prefix(x, horizon).tobytes() == long[rows].tobytes(), x.label


def test_find_negative_entry():
    assert mat.find_negative_entry(mat.cesaro(), 100) is None
    a = mat.banded([[(0, 1.0)], [(3, -0.1)]], tail_mode="identity")
    assert mat.find_negative_entry(a, 100) == (1, 3, -0.1)


def test_tail_bounds_enter_absolute_sums():
    class TailRow(mat.InfiniteMatrix):
        def _row(self, n):
            return mat.MatrixRow(np.array([n], dtype=np.int64), np.array([0.5]), tail_bound=0.25)

    a = TailRow("tails")
    assert a.row_sums(10, absolute=True)[3] == 0.75
    sup, certified = mat.norm_estimate(a, 10)
    assert sup == 0.75 and not certified
    assert np.allclose(a.masked_row_sums(None, 10, absolute=True), 0.75)
    # raw sums ignore the unknown tail
    assert np.allclose(a.row_sums(10), 0.5)


# -- bulk row reductions: bit-identical to each row's own sum ---------------------


class _TailRows(mat.InfiniteMatrix):
    """Rows of growing length whose tails carry unknown mass."""

    def _row(self, n):
        k = n % 5
        return mat.MatrixRow(
            np.arange(k, dtype=np.int64), np.linspace(-0.3, 0.7, k), tail_bound=0.1 * (n % 3)
        )


class _TailFrom(mat.InfiniteMatrix):
    """The identity, with unknown mass beyond every row from ``first`` on."""

    def __init__(self, first):
        super().__init__("tail-from", nonnegative=True)
        self.first = first

    def _row(self, n):
        return mat.MatrixRow(np.array([n], dtype=np.int64), np.array([1.0]), 0.5 if n >= self.first else 0.0)


def _signed_rows():
    rng = np.random.default_rng(5)
    long_row = [(int(k), float(v)) for k, v in zip(rng.choice(400, 140, replace=False), rng.normal(size=140))]
    return [[(0, 0.1), (2, -0.2), (1, 0.3)], [], [(3, -1.5)], [(1, 0.7), (4, 0.2)], long_row]


def _composite_kinds():
    """Products, sums, multiples and parts, whose CSR is the row path's."""
    rk_2n = mat.rk_matrix(maps.affine_map(2))
    mixed = mat.matrix_sum(mat.matrix_sum(mat.cesaro(), mat.identity()), mat.scalar_mul(-0.3, mat.cesaro()))
    banded_mixed = mat.compose(mat.banded(_signed_rows(), tail_mode="repeat_last"), mixed)
    pos, neg = mat.pos_neg_split(banded_mixed)
    # Row 1 is -1 times a row of zeros: the products are -0.0, which merging turns into 0.0.
    negative_zero = mat.compose(
        mat.banded([[(0, -1.0), (1, 2.0)], [(1, -1.0)]], tail_mode="zero"),
        mat.banded([[(0, 0.0)], [(0, 0.0), (3, 1.0)]], tail_mode="identity"),
    )
    return {
        "sum": mat.matrix_sum(mat.cesaro(), mat.banded(_signed_rows(), tail_mode="identity")),
        "negative_multiple": mat.scalar_mul(-0.3, mat.cesaro()),
        "compose_rk_cesaro": mat.compose(rk_2n, mat.cesaro()),
        "compose_cesaro_rk": mat.compose(mat.cesaro(), rk_2n),
        "compose_cesaro_cesaro": mat.compose(mat.cesaro(), mat.cesaro()),
        "compose_rk_rk": mat.compose(rk_2n, mat.rk_matrix(maps.affine_map(3, 1))),
        # Diagonal left factors are row-finite: B acts on A's values.
        "compose_identity_cesaro": mat.compose(mat.identity(), mat.cesaro()),
        "compose_diagonal_cesaro": mat.compose(mat.diagonal(lambda n: (-1.0) ** n / (n + 1)), mat.cesaro()),
        "compose_banded_mixed": banded_mixed,
        "product_positive_part": pos,
        "product_negative_part": neg,
        "compose_negative_zero": negative_zero,
        # Nonnegative, with tails from row 100 on: absolute sums add them up.
        "compose_with_tails": mat.compose(
            mat.cesaro(), mat.matrix_sum(_TailFrom(100), mat.scalar_mul(0.5, mat.identity()))
        ),
    }


@functools.cache
def _matrix_kinds():
    """One instance per kind for the whole module, so the row paths that the
    references read fill each row cache once."""
    evens = maps.enumeration_map(sd.evens())
    rk_2n = mat.rk_matrix(maps.affine_map(2))
    signed = {tail: mat.banded(_signed_rows(), tail_mode=tail) for tail in ("identity", "zero", "repeat_last")}
    pos, neg = mat.pos_neg_split(signed["repeat_last"])
    return {
        **_composite_kinds(),
        "cesaro": mat.cesaro(),
        "identity": mat.identity(),
        "diagonal": mat.diagonal(lambda n: 0.0 if n % 3 == 0 else (-1.0) ** n / (n + 1)),
        "rk_affine": rk_2n,
        "rk_enumeration": mat.rk_matrix(evens),
        **{f"banded_{tail}": m for tail, m in signed.items()},
        "positive_part": pos,
        "negative_part": neg,
        "tail_bound": _TailRows("tails"),
    }


def _row_reference_sums(a, columns, horizon, absolute, total=math.fsum):
    """``masked_row_sums`` from ``row``: ``total`` of each row's entries times
    the 0/1 mask, by default exactly rounded (``math.fsum``)."""
    out = []
    for n in range(horizon):
        r = a.row(n)
        vals = np.abs(r.values) if absolute else r.values
        if columns is not None:
            vals = vals * np.array([columns.contains(k) for k in r.indices.tolist()], dtype=bool)
        out.append(total(vals) + r.tail_bound if absolute else total(vals))
    return np.array(out)


# Absolute row sums that come from a closed form of many-entry rows, or from
# the operands of a nonnegative composite without tails, rather than from the entries.
_ABS_SUMS_BY_OPERANDS = {
    "cesaro",
    "compose_rk_cesaro",
    "compose_cesaro_rk",
    "compose_cesaro_cesaro",
    "compose_rk_rk",
    "compose_identity_cesaro",
}


@pytest.mark.parametrize("kind", sorted(_matrix_kinds()))
def test_row_abs_sums_match_row_abs_sum(kind):
    # ``row_sums(absolute=True)`` equals each row's own absolute sum bit for bit
    # where it reads the entries, and agrees with the exactly rounded sum to
    # 1e-12 where it does not.
    a = _matrix_kinds()[kind]
    horizon = 300
    got = a.row_sums(horizon, absolute=True)
    if kind in _ABS_SUMS_BY_OPERANDS:
        want = _row_reference_sums(a, None, horizon, True)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    else:
        assert got.tobytes() == _row_reference_sums(a, None, horizon, True, np.sum).tobytes()


def test_row_abs_sums_past_the_flat_limit(monkeypatch):
    a = mat.matrix_sum(mat.cesaro(), mat.banded(_signed_rows(), tail_mode="repeat_last"))
    expected = _row_reference_sums(a, None, 200, True, np.sum)
    monkeypatch.setattr(mat, "_FLAT_NNZ_LIMIT", 50)
    assert _gathered(a._flat(200)) < 200
    assert a.row_sums(200, absolute=True).tobytes() == expected.tobytes()


def _gathered(flat):
    """The number of rows a CSR holds."""
    return flat[2].size - 1


def test_bulk_calls_past_the_flat_limit_build_each_row_once(monkeypatch):
    # Past the nnz limit the CSR keeps the rows it gathered, up to the one at
    # which the support passed the limit, and a bulk call builds only the rows
    # after those: each row once (rows past 1024 entries are not cached), with
    # the bits of the full CSR.
    horizon = 60
    xs = seq.corpus_entry("rotation_golden").prefix(horizon)
    ones = seq.indicator(sd.omega()).prefix(horizon)
    bulk_calls = {
        "abs_sums": lambda a: a.row_sums(horizon, absolute=True),
        "sums": lambda a: mat.InfiniteMatrix._apply(a, ones, horizon),
        "apply": lambda a: mat.InfiniteMatrix._apply(a, xs, horizon),
        "max_support": lambda a: np.array([mat.InfiniteMatrix.max_support(a, horizon)]),
    }

    def build():
        return mat.matrix_sum(mat.identity(), mat.scalar_mul(-0.3, mat.cesaro()))

    want = {name: call(build()).tobytes() for name, call in bulk_calls.items()}
    calls = []
    row = mat._SumMatrix._row
    monkeypatch.setattr(mat._SumMatrix, "_row", lambda self, n: calls.append(n) or row(self, n))
    monkeypatch.setattr(mat, "_CACHE_SUPPORT_LIMIT", -1)
    monkeypatch.setattr(mat, "_FLAT_NNZ_LIMIT", 200)
    for name, call in bulk_calls.items():
        a = build()
        calls.clear()
        assert call(a).tobytes() == want[name], name
        assert calls == list(range(horizon)), name
        gathered = _gathered(a._flat(horizon))
        assert 0 < gathered < horizon and a._flat(horizon)[2][-2] <= 200 < a._flat(horizon)[2][-1]
        calls.clear()
        assert call(a).tobytes() == want[name], name
        assert calls == list(range(gathered, horizon)), name


def _mixed_length_csr():
    """A CSR whose rows, shuffled, have lengths 0 to 5000 (most lengths on many
    rows, 129 on more than one chunk's worth) and values of both signs,
    magnitudes 1e-8 to 1e8 and some -0.0, among them rows of -0.0 alone."""
    rng = np.random.default_rng(11)
    lengths = rng.permutation(
        np.repeat([0, 1, 2, 3, 8, 9, 128, 129, 5000], [5, 40, 40, 30, 700, 600, 20, 600, 3])
    )
    ptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    values = rng.standard_normal(int(ptr[-1])) * 10.0 ** rng.integers(-8, 9, size=int(ptr[-1]))
    values[::97] = -0.0
    for length in (1, 2, 9):  # rows whose entries are all -0.0
        n = int(np.flatnonzero(lengths == length)[0])
        values[ptr[n] : ptr[n + 1]] = -0.0
    return values, ptr


class _MixedRows(mat.InfiniteMatrix):
    """The rows of ``_mixed_length_csr``, with tail bounds."""

    def __init__(self):
        super().__init__("mixed")
        self.values, self.ptr = _mixed_length_csr()

    def _row(self, n):
        vals = self.values[self.ptr[n] : self.ptr[n + 1]]
        return mat.MatrixRow(np.arange(vals.size, dtype=np.int64), vals, tail_bound=0.25 * (n % 3))


@pytest.mark.parametrize("chunk", [None, 7])
def test_segment_sums_match_per_row_sums(chunk, monkeypatch):
    if chunk is not None:  # blocks of one row, and blocks cut short at the end of a length
        monkeypatch.setattr(mat, "_MERGE_CHUNK", chunk)
    values, ptr = _mixed_length_csr()
    expected = np.array([np.sum(values[ptr[n] : ptr[n + 1]]) for n in range(ptr.size - 1)])
    assert mat._segment_sums(values, ptr).tobytes() == expected.tobytes()
    assert mat._segment_sums(values[:0], ptr[:1]).size == 0
    # Rows of -0.0 alone, of one entry or more, sum to 0.0 as ``np.sum`` gives it.
    zeros = mat._segment_sums(np.array([-0.0, -0.0, -0.0]), np.array([0, 1, 1, 3]))
    assert zeros.tolist() == [0.0, 0.0, 0.0] and not np.signbit(zeros).any()


def test_row_abs_sums_with_tails_over_mixed_lengths():
    a = _MixedRows()
    horizon = a.ptr.size - 1
    expected = _row_reference_sums(a, None, horizon, True, np.sum)
    assert a.row_sums(horizon, absolute=True).tobytes() == expected.tobytes()


def _first_negative(a, horizon):
    for n in range(horizon):
        r = a.row(n)
        for k, v in zip(r.indices.tolist(), r.values.tolist()):
            if v < 0.0:
                return n, k, v
    return None


@pytest.mark.parametrize("kind", sorted(_matrix_kinds()))
def test_find_negative_entry_matches_row_scan(kind):
    a = _matrix_kinds()[kind]
    assert mat.find_negative_entry(a, 300) == _first_negative(a, 300)


def test_find_negative_entry_late_and_past_the_flat_limit(monkeypatch):
    late = mat.banded([[(0, 1.0)]] * 7 + [[], [(2, 0.5), (9, -0.25)]], tail_mode="zero")
    assert mat.find_negative_entry(late, 100) == (8, 9, -0.25) == _first_negative(late, 100)
    assert mat.find_negative_entry(late, 8) is None
    a = mat.matrix_sum(mat.cesaro(), mat.scalar_mul(-1.0, mat.identity()))
    expected = _first_negative(a, 200)
    monkeypatch.setattr(mat, "_FLAT_NNZ_LIMIT", 50)
    assert mat.find_negative_entry(a, 200) == expected


def _row_assembly(a, horizon):
    """The uncached CSR of the rows below the horizon, read with ``row`` one row
    at a time: what a composite's CSR is and every closed-form gather reproduces."""
    return mat.InfiniteMatrix._gather(a, horizon)


@pytest.mark.parametrize("tail", ["identity", "zero", "repeat_last"])
@pytest.mark.parametrize("horizon", [0, 3, 5, 6, 250])
def test_banded_flat_matches_row_assembly(tail, horizon):
    a = mat.banded(_signed_rows(), tail_mode=tail)
    closed, generic = a._flat(horizon), _row_assembly(a, horizon)
    for got, want in zip(closed, generic):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_banded_flat_respects_the_nnz_limit(monkeypatch):
    # Past the limit the closed-form gathers stop at the row the row assembly
    # stops at, in the explicit rows or in the tail.
    for limit in (0, 3, 60):
        monkeypatch.setattr(mat, "_FLAT_NNZ_LIMIT", limit)
        matrices = [mat.banded(_signed_rows(), tail_mode=tail) for tail in ("identity", "repeat_last")]
        for a in matrices + [mat.diagonal(lambda n: float(n % 3), rule=lambda h: np.arange(h) % 3.0)]:
            flat = a._flat(150)
            _assert_same_flat(flat, _row_assembly(a, 150))
            assert _gathered(flat) < 150 and flat[2][-2] <= limit < flat[2][-1]


@pytest.mark.parametrize(
    "rows, tails, nonnegative",
    [
        ([], ["identity", "zero"], True),
        ([[(0, 0.5), (1, 0.0)], []], ["identity", "zero", "repeat_last"], True),
        ([[(0, 0.5)], [(1, -0.0)]], ["identity", "zero", "repeat_last"], True),
        ([[(0, 0.5)], [(1, -1e-300)]], ["identity", "zero", "repeat_last"], None),
        (_signed_rows(), ["identity", "zero", "repeat_last"], None),
    ],
)
def test_banded_nonnegative_flag(rows, tails, nonnegative):
    for tail in tails:
        a = mat.banded(rows, tail_mode=tail)
        assert a.nonnegative is nonnegative
        assert (_first_negative(a, 50) is None) == (nonnegative is True)


def _assert_same_flat(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("horizon", [0, 1, 7, 300])
@pytest.mark.parametrize("kind", sorted(_composite_kinds()))
def test_composite_flat_matches_row_assembly(kind, horizon):
    # The CSR of a fresh composite equals the one read from warm row caches.
    want = _row_assembly(_matrix_kinds()[kind], horizon)
    _assert_same_flat(_composite_kinds()[kind]._flat(horizon), want)


@pytest.mark.parametrize("limit", [0, 3, 60, 1500, 20_000])
def test_composite_flat_none_decision_matches_row_assembly(limit, monkeypatch):
    monkeypatch.setattr(mat, "_FLAT_NNZ_LIMIT", limit)
    for kind in sorted(_composite_kinds()):
        want = _row_assembly(_composite_kinds()[kind], 50)
        _assert_same_flat(_composite_kinds()[kind]._flat(50), want)


@pytest.mark.parametrize("part", ["scaled", "positive", "negative"])
def test_nested_fallback_builds_rows_once(part, monkeypatch):
    # A composite's CSR is the row path's alone: past the nnz limit no operand
    # CSR is gathered, and the rows of the inner product are built as often
    # as the row assembly builds them.
    def build():
        product = mat.compose(mat.cesaro(), mat.cesaro())
        if part == "scaled":
            return mat.scalar_mul(-1.0, product)
        return mat.pos_neg_split(product)[part == "negative"]

    calls = []
    row = mat.InfiniteMatrix.row
    monkeypatch.setattr(mat.InfiniteMatrix, "row", lambda self, n: calls.append((self.label, n)) or row(self, n))
    monkeypatch.setattr(mat, "_CACHE_SUPPORT_LIMIT", -1)
    monkeypatch.setattr(mat, "_FLAT_NNZ_LIMIT", 500)
    want = _row_assembly(build(), 60)
    row_path_calls, calls[:] = sorted(calls), []
    _assert_same_flat(build()._flat(60), want)
    assert sorted(calls) == row_path_calls
    assert sum(label == "(Cesaro.Cesaro)" for label, _ in calls) > 1


@pytest.mark.parametrize("wrap", ["product", "sum_of_product", "product_of_product"])
def test_left_factor_tail_raises_the_row_path_error(wrap, monkeypatch):
    def build():
        product = mat.compose(_TailFrom(5), mat.cesaro())
        if wrap == "sum_of_product":
            return mat.matrix_sum(mat.identity(), product)
        if wrap == "product_of_product":
            return mat.compose(mat.cesaro(), product)
        return product

    with pytest.raises(mat.ComposeUnsupportedError) as row_path:
        _row_assembly(build(), 50)
    with pytest.raises(mat.ComposeUnsupportedError) as bulk:
        build()._flat(50)
    assert str(bulk.value) == str(row_path.value) and "row 5" in str(row_path.value)
    # Row sums and transforms do not act through a left factor with tails.
    x = seq.corpus_entry("alternating")
    for bulk_sum in (lambda a: a.row_sums(50), lambda a: a.transform_prefix(x, 50)):
        with pytest.raises(mat.ComposeUnsupportedError) as bulk:
            bulk_sum(build())
        assert str(bulk.value) == str(row_path.value)
    # A limit passed before the faulty row cuts the CSR short of it, on both
    # paths, and the row loop after the CSR raises the same error.
    monkeypatch.setattr(mat, "_FLAT_NNZ_LIMIT", 3)
    flat = build()._flat(50)
    _assert_same_flat(flat, _row_assembly(build(), 50))
    assert _gathered(flat) <= 5
    with pytest.raises(mat.ComposeUnsupportedError) as bulk:
        build().row_sums(50, absolute=True)
    assert str(bulk.value) == str(row_path.value)


def test_tail_bounds_of_a_product_match_the_row_path():
    a = mat.compose(mat.banded(_signed_rows(), tail_mode="zero"), mat.matrix_sum(_TailRows("tails"), mat.identity()))
    _assert_same_flat(a._flat(40), _row_assembly(a, 40))
    assert a._flat(40)[3].any()


@pytest.mark.parametrize(
    "h",
    [
        maps.IndexMap(lambda n: 7 * (n // 2) ** 2, "sparse-repeats"),  # sparse repeated columns
        maps.IndexMap(lambda n: 2**62 + n % 3, "huge"),  # (row, column) keys past int64
    ],
    ids=lambda h: h.label,
)
def test_sparse_column_merges_match_row_assembly(h):
    a = mat.compose(mat.cesaro(), mat.rk_matrix(h))
    _assert_same_flat(a._flat(40), _row_assembly(a, 40))


def test_product_flat_memory_is_bounded():
    # The product's CSR costs a small multiple of its own size: the cached rows
    # and their concatenation.
    a = mat.compose(mat.rk_matrix(maps.affine_map(2)), mat.cesaro())
    tracemalloc.start()
    try:
        flat = a._flat(1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * sum(part.nbytes for part in flat)


# -- masked row sums: A applied to an indicator, or the entries -------------------

_COLUMN_SETS = {"all": None, "evens": sd.evens(), "squares": sd.squares(), "explicit": sd.explicit(*range(10))}
_FLAGS = (False, True)


def _indicator(columns):
    return seq.indicator(sd.omega() if columns is None else columns)


def _linear_route(a, absolute):
    """Whether ``masked_row_sums`` takes A·1_E rather than the entries."""
    return not absolute or a.abs_sums_are_sums


@pytest.mark.parametrize("kind", sorted(_matrix_kinds()) + ["rk_squares"])
def test_masked_row_sums_are_the_indicators_transform(kind):
    a = _matrix_kinds()[kind] if kind in _matrix_kinds() else mat.rk_matrix(maps.enumeration_map(sd.squares()))
    horizon = 300
    for absolute, columns in itertools.product(_FLAGS, _COLUMN_SETS.values()):
        if _linear_route(a, absolute):
            got = a.masked_row_sums(columns, horizon, absolute=absolute)
            assert got.tobytes() == a.transform_prefix(_indicator(columns), horizon).tobytes(), (columns, absolute)


@pytest.mark.parametrize("kind", sorted(_composite_kinds()))
def test_composite_sums_and_transforms_match_the_rows(kind):
    # Sums that read the entries (absolute sums of a signed composite or one
    # with tails) equal each row's own ``np.sum`` bit for bit.  The rest agree
    # with each row's exactly rounded sum to 1e-12 relative.
    a = _matrix_kinds()[kind]
    horizon = 300
    for absolute, (name, columns) in itertools.product(_FLAGS, _COLUMN_SETS.items()):
        got = a.masked_row_sums(columns, horizon, absolute=absolute)
        if not _linear_route(a, absolute):
            csr = _row_reference_sums(a, columns, horizon, absolute, np.sum)
            assert got.tobytes() == csr.tobytes(), (name, absolute)
        else:
            want = _row_reference_sums(a, columns, horizon, absolute)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=f"{name} {absolute}")
    for label in ("alternating", "rotation_golden", "indicator_squares"):
        x = seq.corpus_entry(label)
        want = [mat.transform(a, x, n) for n in range(horizon)]
        np.testing.assert_allclose(a.transform_prefix(x, horizon), want, rtol=1e-12, atol=1e-12, err_msg=label)


@pytest.mark.parametrize("kind", ["sum", "compose_banded_mixed"])
def test_csr_sums_are_each_rows_own_sum(kind, monkeypatch):
    # Every row is summed on its own, so no rounding carries from one row into
    # the next, and the row loop past the nnz limit gives the same bits.
    horizon = 300
    reference = _matrix_kinds()[kind]
    cases = list(itertools.product(_FLAGS, _COLUMN_SETS.values()))
    want = [_row_reference_sums(reference, columns, horizon, absolute, np.sum) for absolute, columns in cases]
    support = reference.max_support(horizon)
    xs = seq.corpus_entry("rotation_golden").prefix(support)
    want_ax = np.array([np.sum(r.values * xs[r.indices]) for r in map(reference.row, range(horizon))])
    for limit in (mat._FLAT_NNZ_LIMIT, 50):
        monkeypatch.setattr(mat, "_FLAT_NNZ_LIMIT", limit)
        a = _composite_kinds()[kind]
        assert (_gathered(a._flat(horizon)) < horizon) == (limit == 50)
        for (absolute, columns), sums in zip(cases, want):
            if absolute:  # a signed matrix: its absolute sums read the CSR
                got = a.masked_row_sums(columns, horizon, absolute=True)
            else:  # the CSR applied to the indicator's values
                got = mat.InfiniteMatrix._apply(a, _indicator(columns).prefix(support), horizon)
            assert got.tobytes() == sums.tobytes(), (limit, columns, absolute)
        assert mat.InfiniteMatrix._apply(a, xs, horizon).tobytes() == want_ax.tobytes(), limit


def test_product_sums_are_exact_and_read_no_csr(monkeypatch):
    def refuse(*args):
        raise AssertionError("a composite's CSR was gathered")

    monkeypatch.setattr(mat.InfiniteMatrix, "_gather", refuse)
    horizon = 1000
    a = mat.compose(mat.rk_matrix(maps.affine_map(2)), mat.cesaro())
    # Row n averages columns 0 … 2n, of which n + 1 are even.
    want = np.array([float(Fraction(n + 1, 2 * n + 1)) for n in range(horizon)])
    assert a.masked_row_sums(sd.evens(), horizon).tobytes() == want.tobytes()
    for absolute in _FLAGS:
        sums = a.masked_row_sums(sd.evens(), horizon, absolute=absolute)
        assert sums.tobytes() == want.tobytes()
    assert a.row_sums(horizon).tobytes() == np.ones(horizon).tobytes()
    assert a.row_sums(horizon, absolute=True).tobytes() == np.ones(horizon).tobytes()
    x = seq.corpus_entry("alternating")
    assert a.transform_prefix(x, horizon).tobytes() == (1.0 / (2.0 * np.arange(horizon) + 1.0)).tobytes()
    # Signed products and products of products act through their factors too.
    for b in (_composite_kinds()["compose_banded_mixed"], mat.compose(mat.cesaro(), a)):
        assert b.transform_prefix(x, horizon).shape == (horizon,)
        assert b.masked_row_sums(sd.squares(), horizon).shape == (horizon,)


def test_sparse_left_factor_keeps_the_csr_route():
    # rk(enumeration(squares)) reaches column (H-1)^2: B cannot act on A's
    # values without A reading that long a prefix, so the product's CSR decides.
    horizon = 40
    a = mat.compose(mat.rk_matrix(maps.enumeration_map(sd.squares())), mat.cesaro())
    assert a._left_support(horizon) is None
    assert a.max_support(horizon) == (horizon - 1) ** 2 + 1
    for columns in (None, sd.ap(1, 3)):
        got = a.masked_row_sums(columns, horizon)
        csr = mat.InfiniteMatrix._apply(a, _indicator(columns).prefix(a.max_support(horizon)), horizon)
        assert got.tobytes() == csr.tobytes()
        want = _row_reference_sums(a, columns, horizon, False)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    x = seq.corpus_entry("rotation_golden")
    got = a.transform_prefix(x, horizon)
    assert got.tobytes() == mat.InfiniteMatrix._apply(a, x.prefix(a.max_support(horizon)), horizon).tobytes()
    np.testing.assert_allclose(got, [mat.transform(a, x, n) for n in range(horizon)], rtol=0, atol=1e-10)


def test_banded_rows_are_merged_rows():
    rows = _signed_rows() + [[(4, -0.0), (1, 0.25)], [(2, 1.0), (0, -0.5)]]
    a = mat.banded(rows, tail_mode="zero")
    for n, r in enumerate(rows):
        want = mat._merged_row(np.array([k for k, _ in r], dtype=np.int64), np.array([v for _, v in r]))
        got = a.row(n)
        assert got.indices.dtype == np.int64 and got.values.dtype == np.float64
        assert got.indices.tobytes() == want.indices.tobytes() and got.values.tobytes() == want.values.tobytes()


def test_banded_error_names_the_first_bad_row():
    with pytest.raises(mat.BandedRowError) as err:
        mat.banded([[(0, 1.0)], [(3, 1.0), (1, 1.0), (3, 2.0)], [(-1, 1.0)]])
    assert err.value.row == 1 and str(err.value) == "row 1: columns must be distinct naturals, got [3, 1, 3]"
    with pytest.raises(mat.BandedRowError) as err:
        mat.banded([[(0, 1.0)], [], [(2, 1.0), (-4, 1.0)], [(1, 1.0), (1, 1.0)]])
    assert err.value.row == 2 and str(err.value) == "row 2: columns must be distinct naturals, got [2, -4]"
    with pytest.raises(mat.BandedRowError) as err:
        mat.banded([[(0, 1.0)], [(1, 0.5), (2, math.nan)], [(0, math.inf)]])
    assert err.value.row == 1 and str(err.value) == "row 1: entries must be finite, got [0.5, nan]"


# Explicit rows for the banded kinds: an empty row, a row with −0.0 and a far
# column (read pointwise by the structure, as a mask by the bulk path).
_BANDED_ROWS = {
    "nonnegative": [[(0, 0.5), (1, 0.5)], [], [(2, 0.75), (0, 0.25)], [(4, -0.0), (1, 1.0)], [(50_000, 1.0)]],
    "signed": _signed_rows() + [[(4, -0.0), (1, -0.25)], [(50_000, 2.0), (0, -0.5)]],
}
_STRUCTURED = {
    "identity": mat.identity,
    "rk_affine": lambda: mat.rk_matrix(maps.affine_map(2)),
    "rk_enumeration": lambda: mat.rk_matrix(maps.enumeration_map(sd.evens())),
    "rk_squares": lambda: mat.rk_matrix(maps.enumeration_map(sd.squares())),
    "cesaro": mat.cesaro,
    **{
        f"banded_{sign}_{tail}": functools.partial(mat.banded, rows, tail_mode=tail)
        for sign, rows in _BANDED_ROWS.items()
        for tail in ("identity", "zero", "repeat_last")
    },
}


@pytest.mark.parametrize("kind", sorted(_STRUCTURED))
def test_sum_structure_matches_the_row_sums(kind):
    # The head and then the level sets on the rows past it partition the rows
    # and rebuild the sums bit for bit; a limit is the density of the columns;
    # ``row_sum`` is each row's sum.
    a, horizon = _STRUCTURED[kind](), 2000
    for absolute, columns in itertools.product(_FLAGS, _COLUMN_SETS.values()):
        structure = a.masked_sum_structure(columns, absolute=absolute)
        sums = a.masked_row_sums(columns, horizon, absolute=absolute)
        if structure.levels is None:
            assert kind == "cesaro" and columns is not None
            assert structure.limit == float(columns.density_bounds().value)
            assert abs(sums[-1] - structure.limit) < 0.05
        else:
            rebuilt = np.full(horizon, np.nan)
            rebuilt[: len(structure.head)] = structure.head
            for value, level_set in structure.levels:
                rows = level_set.mask(horizon).copy()
                rows[: len(structure.head)] = False
                assert np.all(np.isnan(rebuilt[rows]))
                rebuilt[rows] = value
            assert rebuilt.tobytes() == sums.tobytes(), (columns, absolute)
        for n in (0, 1, 7, horizon - 1):
            assert np.float64(structure.row_sum(n)).tobytes() == sums[n].tobytes(), (columns, n)


# Signed rows past a horizon of 500, so the head is cut at the horizon.
_LONG_BANDED = [[(n, 1.0), (n + 1, -0.5 * (n % 2))] for n in range(600)]


@pytest.mark.parametrize("kind", sorted(_STRUCTURED) + ["banded_longer_than_the_horizon"])
def test_exact_deviation_count_counts_the_row_sums_off_target(kind):
    # An exact limit condition counts the rows below the horizon whose sum is
    # off the target, head rows and level rows alike.  (The rk image of the
    # squares leaves its levels over evens and squares undecided.)
    a = mat.banded(_LONG_BANDED) if kind not in _STRUCTURED else _STRUCTURED[kind]()
    cfg, compared = reg.CheckConfig(horizon=500), 0
    for absolute, columns in itertools.product(_FLAGS, _COLUMN_SETS.values()):
        sums = a.masked_row_sums(columns, cfg.horizon, absolute=absolute)
        for target in (0.0, 0.5, 1.0):
            c = reg._lim_condition("L", a, columns, absolute, target, ide.fin(), cfg)
            if c.method != "exact" or "deviation_count" not in c.details:
                continue
            want = np.count_nonzero(np.abs(sums - target) > cfg.tol)
            assert c.details["deviation_count"] == want, (columns, absolute, target)
            compared += 1
    assert compared >= (6 if kind == "cesaro" else 12)


def test_scaled_identity_and_ruleless_diagonal_state_no_structure():
    evens = sd.evens()
    for a in (mat.scalar_mul(1.0, mat.identity()), mat.diagonal(lambda n: 1.0)):
        assert a.masked_sum_structure(evens) is None, a.label
    # Cesàro has no limit over a set without a density.
    assert mat.cesaro().masked_sum_structure(sd.GeometricBlocks(2, 0, 2)) is None


def test_banded_structure_reads_a_far_column_pointwise(monkeypatch):
    # A column near 10¹⁵ would need a mask of that length; the structure asks
    # the set about that column alone.
    monkeypatch.setattr(sd.SetDescription, "mask", lambda self, horizon: pytest.fail(f"mask({horizon})"))
    a = mat.banded([[(10**15, 1.0), (1, 0.5)], [(3, 1.0)]], tail_mode="repeat_last")
    structure = a.masked_sum_structure(sd.evens())
    assert [structure.row_sum(n) for n in (0, 1, 10**6)] == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("kind", sorted(_STRUCTURED))
def test_the_norm_bound_dominates_every_absolute_row_sum(kind):
    a = _STRUCTURED[kind]()
    assert np.max(a.row_sums(2000, absolute=True)) <= a.norm_bound


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 60), st.floats(-5, 5), max_size=6).map(lambda d: list(d.items())), max_size=8
    ),
    st.sampled_from(["identity", "zero", "repeat_last"]),
)
def test_a_banded_norm_bound_is_its_largest_absolute_row_sum(rows, tail):
    assume(rows or tail != "repeat_last")
    a = mat.banded(rows, tail_mode=tail)
    assert a.norm_bound == np.max(a.row_sums(2000, absolute=True))
