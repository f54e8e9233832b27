"""Constructions: RK matrices, perturbations, images A·x and core-equality experiments."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealcore import asymptotics as asy
from idealcore import constructions as con
from idealcore import ideals as ide
from idealcore import maps
from idealcore import matrices as mat
from idealcore import regularity as reg
from idealcore import sequences as seq
from idealcore import sets as sd

FIN = ide.fin()
Z = ide.density_zero()
FO_EVENS = ide.fin_oplus_full(sd.evens())
CORE = asy.CoreConfig(horizon=10**5)
FAST_CORE = asy.CoreConfig(horizon=10**4)


# -- rk matrices -----------------------------------------------------------------


def test_rk_rows_and_transform():
    a = mat.rk_matrix(maps.affine_map(2))
    assert a.row(3).indices.tolist() == [6]
    x = seq.corpus_entry("indicator_squares")
    for n in (0, 2, 8, 50):
        assert mat.transform(a, x, n) == x(2 * n)


def test_rk_constant_map_not_regular():
    constant = maps.IndexMap(lambda n: 0, "constant0")
    a = mat.rk_matrix(constant)
    assert a.row(9).indices.tolist() == [0]
    verdict = reg.silverman_toeplitz_check(a, FIN, FIN, cfg=reg.CheckConfig(horizon=2000))
    assert verdict.status is reg.Status.VIOLATED


def test_enumeration_map_matches_affine_for_evens():
    h = maps.enumeration_map(sd.evens())
    assert [h(n) for n in range(6)] == [0, 2, 4, 6, 8, 10]
    h.validate_flags(2000)


@pytest.mark.parametrize("offset,step", [(0, 1), (0, 2), (1, 2), (1, 3), (5, 7)])
def test_enumeration_of_a_progression_is_its_affine_map(offset, step):
    before = sd._cached_mask.cache_info()
    h = maps.enumeration_map(sd.ap(offset, step), label="enum")
    expected = maps.affine_map(step, offset).prefix(5000)
    values = h.prefix(5000)
    assert values.dtype == expected.dtype and values.tobytes() == expected.tobytes()
    assert (h.affine, h.label, h(4999)) == ((step, offset), "enum", int(expected[-1]))
    after = sd._cached_mask.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)  # no mask read or built


def test_enumeration_map_of_sparse_union_keeps_no_mask():
    # The 20 000th member is near 4e8; a mask up to that horizon would take ~400 MB.
    h = maps.enumeration_map(sd.Union(sd.squares(), sd.explicit(2, 3)))
    tracemalloc.start()
    try:
        values = h.prefix(20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.tolist() == sorted([k * k for k in range(19_998)] + [2, 3])
    assert peak < 10 * 2**20


# -- level sets of A·x ------------------------------------------------------------

_FINITELY_VALUED = [x.label for x in seq.corpus() if x.level_sets is not None]
_ROW_SELECTIONS = {
    "identity": mat.identity,
    "rk(2n)": lambda: mat.rk_matrix(maps.affine_map(2)),
    "rk(2n+1)": lambda: mat.rk_matrix(maps.affine_map(2, 1)),
    "rk(enumeration(evens))": lambda: mat.rk_matrix(maps.enumeration_map(sd.evens())),
    "rk(enumeration(squares))": lambda: mat.rk_matrix(maps.enumeration_map(sd.squares())),
}


@pytest.mark.parametrize("kind", sorted(_ROW_SELECTIONS))
def test_row_selection_level_sets_rebuild_the_transform(kind):
    # A·x = x∘h takes the value v exactly on h⁻¹(S_v), so the preimages
    # partition every prefix and rebuild the transform bit for bit.
    assert len(_FINITELY_VALUED) == 7
    horizon = 5000
    tracemalloc.start()
    try:
        for label in _FINITELY_VALUED:
            a, x = _ROW_SELECTIONS[kind](), seq.corpus_entry(label)
            ax = con.transformed_sequence(a, x, horizon)
            assert ax.level_sets is not None and len(ax.level_sets) == len(x.level_sets), label
            rebuilt = np.full(horizon, np.nan)
            covered = np.zeros(horizon, dtype=int)
            for value, level_set in ax.level_sets:
                mask = level_set.mask(horizon)
                rebuilt[mask] = value
                covered += mask
            assert np.all(covered == 1), label
            want = a.transform_prefix(x, horizon)
            assert np.array_equal(rebuilt.view(np.int64), want.view(np.int64)), label
            assert np.array_equal(ax.prefix(horizon).view(np.int64), want.view(np.int64)), label
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # h(4999) is about 2.5e7 for the squares: no mask or prefix reaches it.
    assert peak < 10 * 2**20


def test_only_row_selections_keep_level_sets():
    x = seq.corpus_entry("indicator_evens")
    for a in (mat.cesaro(), mat.scalar_mul(1.0, mat.identity()), mat.diagonal(lambda n: 1.0)):
        assert a.row_selection() is None
        assert con.transformed_sequence(a, x, 1000).level_sets is None, a.label
    # A sequence without level sets, or with a predicate level set, keeps the value path.
    predicate = seq.indicator(sd.Predicate(lambda n: n % 3 == 0), label="thirds")
    for y in (seq.corpus_entry("rotation_golden"), predicate):
        assert con.transformed_sequence(mat.identity(), y, 1000).level_sets is None


def _undeclared(x):
    """x with its equidistribution hidden, and its rule kept, so its core and
    its images take the value path."""
    return seq.BoundedSequence(x.fn, x.bound, f"{x.label}(numeric)", rule=x.rule)


def test_value_path_extends_with_the_bits_of_transform_prefix():
    # A·x built at one horizon and read past it gives the bulk transform's
    # bits, not a per-index ``math.fsum``.
    a, x = mat.cesaro(), _undeclared(seq.corpus_entry("rotation_golden"))
    ax = con.transformed_sequence(a, x, 1000)
    want = a.transform_prefix(x, 3000)
    assert ax.prefix(1000).tobytes() == want[:1000].tobytes()
    assert ax.prefix(3000).tobytes() == want.tobytes()


_ONE_READ_MATRICES = {
    "identity": mat.identity,
    "rk_2n": lambda: mat.rk_matrix(maps.affine_map(2)),
    "cesaro": mat.cesaro,
    "cesaro+identity": lambda: con.perturb_identity(mat.cesaro()),
    "rk_2n.cesaro": lambda: mat.compose(mat.rk_matrix(maps.affine_map(2)), mat.cesaro()),
}
# Every index below 64, then a stride through the rest, and the last one:
# one ax(n) computes A·x below n + 1, so not every index is read.
_ONE_READ_INDICES = np.unique(np.r_[0:64, 64:3000:23, 2999]).tolist()


@pytest.mark.parametrize("kind", sorted(_ONE_READ_MATRICES))
def test_a_value_of_ax_is_its_prefix_value(kind):
    # fn reads one index on the bulk path that its rule and prefix read, so
    # ax(n) has the bits of ax.prefix(H)[n], not those of a compensated sum.
    for x in seq.corpus():
        ax = con.transformed_sequence(_ONE_READ_MATRICES[kind](), x, 1000)
        prefix = ax.prefix(3000)
        got = np.array([ax(n) for n in _ONE_READ_INDICES])
        assert got.tobytes() == prefix[_ONE_READ_INDICES].tobytes(), x.label


_CATALOG = [
    FIN,
    Z,
    ide.erdos_ulam(),
    ide.summable(),
    FO_EVENS,
    ide.countably_generated([sd.evens()]),
    ide.fin_times_empty(),
]
_THEORY_CORE = asy.CoreConfig(horizon=20_000)


def _core_outcome(x, ideal):
    try:
        c = asy.core(x, ideal, _THEORY_CORE)
    except asy.InconclusiveCellsError as exc:
        return type(exc).__name__
    return c.lo, c.hi, c.method


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_CATALOG), st.sampled_from([x.label for x in seq.corpus()]))
def test_identity_keeps_every_core(ideal, label):
    x = seq.corpus_entry(label)
    ax = con.transformed_sequence(mat.identity(), x, _THEORY_CORE.horizon)
    assert _core_outcome(ax, ideal) == _core_outcome(x, ideal)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_FINITELY_VALUED))
def test_rk_over_the_evens_carries_the_trace_core_to_fin(label):
    # Thm 2.5: core_{Ax}(Fin) = core_x(Fin ⊕ P(ω) copy) for A = rk(enumeration(evens)).
    # Both sides are decided exactly.
    x = seq.corpus_entry(label)
    a = mat.rk_matrix(maps.enumeration_map(sd.evens()))
    image = _core_outcome(con.transformed_sequence(a, x, _THEORY_CORE.horizon), FIN)
    assert image == _core_outcome(x, FO_EVENS)
    assert image[2] == "exact"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_CATALOG), st.sampled_from(_FINITELY_VALUED))
def test_image_cores_read_no_sequence_prefix(ideal, label):
    # The image cores of the two tests above finish, with the same answers,
    # when no sequence may build a prefix.
    images = [(mat.identity, ideal), (lambda: mat.rk_matrix(maps.enumeration_map(sd.evens())), FIN)]

    def outcomes():
        x = seq.corpus_entry(label)
        return [_core_outcome(con.transformed_sequence(a(), x, _THEORY_CORE.horizon), j) for a, j in images]

    want = outcomes()
    with mock.patch.object(seq.BoundedSequence, "prefix", side_effect=AssertionError("prefix read")):
        assert outcomes() == want


# -- exact limits ------------------------------------------------------------------

_KEEP_LIMITS = {
    "identity": mat.identity,
    "rk(2n)": lambda: mat.rk_matrix(maps.affine_map(2)),
    "cesaro": mat.cesaro,
    "banded(identity tail)": lambda: mat.banded([[(0, 0.5), (1, -0.5)], [(3, 2.0)]]),
}
# Cesàro's limits of the finitely-valued entries whose level sets have densities.
_CESARO_LIMITS = {
    "alternating": 0.0,
    "indicator_evens": 0.5,
    "indicator_squares": 0.0,
    "periodic_three_level": 0.5,
    "blockwise_three_level": 4 / 9,
}


@pytest.mark.parametrize("ideal", _CATALOG, ids=lambda i: i.label)
def test_a_declared_limit_is_the_exact_core_and_matrices_that_keep_limits_keep_it(ideal):
    x = seq.corpus_entry("alternating_decay")
    assert _core_outcome(x, ideal) == (0.0, 0.0, "exact")
    for name, a in _KEEP_LIMITS.items():
        assert a().keeps_limits, name
        assert _core_outcome(con.transformed_sequence(a(), x, _THEORY_CORE.horizon), ideal) == (0.0, 0.0, "exact")


@pytest.mark.parametrize("ideal", _CATALOG, ids=lambda i: i.label)
def test_cesaro_images_of_level_sets_with_densities_have_exact_limits(ideal):
    # Knopp: Cesàro sends x to Σ v·d_v when each level set S_v has density d_v.
    for label, limit in _CESARO_LIMITS.items():
        ax = con.transformed_sequence(mat.cesaro(), seq.corpus_entry(label), _THEORY_CORE.horizon)
        assert ax.limit == limit, label
        assert _core_outcome(ax, ideal) == (limit, limit, "exact"), label
    # The blocks' level sets have no density, so their images stay numeric.
    for label in ("signed_blocks", "indicator_blocks"):
        assert con.transformed_sequence(mat.cesaro(), seq.corpus_entry(label), 1000).limit is None


@pytest.mark.parametrize("ideal", _CATALOG, ids=lambda i: i.label)
def test_cesaro_image_of_a_constant_has_its_exact_limit(ideal):
    # A constant's one level set is ω, where Cesàro's sums are exactly 1 and
    # so also tend to 1: A·x tends to the constant.
    x = seq.affine(seq.corpus_entry("indicator_evens"), 0.0, 0.3)
    ax = con.transformed_sequence(mat.cesaro(), x, _THEORY_CORE.horizon)
    assert ax.limit == 0.3
    assert _core_outcome(ax, ideal) == (0.3, 0.3, "exact")


def test_exact_image_limits_read_no_sequence_prefix():
    images = [(a, "alternating_decay") for a in _KEEP_LIMITS.values()]
    images += [(mat.cesaro, label) for label in _CESARO_LIMITS]
    with mock.patch.object(seq.BoundedSequence, "prefix", side_effect=AssertionError("prefix read")):
        for a, label in images:
            ax = con.transformed_sequence(a(), seq.corpus_entry(label), _THEORY_CORE.horizon)
            assert asy.core(ax, Z, _THEORY_CORE).method == "exact", (a, label)


def test_composite_images_of_level_sets_have_the_limits_of_their_row_sums():
    # rk(2n)·Cesàro keeps Cesàro's limit over each level set and a multiple
    # scales it, so A·x has an exact limit and core; Cesàro + Id sums over a
    # level set to its density plus its indicator, which has no limit.
    x = seq.corpus_entry("indicator_evens")
    limits = [
        (mat.compose(mat.rk_matrix(maps.affine_map(2)), mat.cesaro()), 0.5),
        (mat.scalar_mul(-0.3, mat.cesaro()), -0.15),
    ]
    with mock.patch.object(seq.BoundedSequence, "prefix", side_effect=AssertionError("prefix read")):
        for a, limit in limits:
            ax = con.transformed_sequence(a, x, _THEORY_CORE.horizon)
            assert ax.limit == limit, a.label
            assert _core_outcome(ax, FIN) == (limit, limit, "exact"), a.label
    assert con.transformed_sequence(mat.matrix_sum(mat.cesaro(), mat.identity()), x, 1000).limit is None


def test_other_matrices_keep_the_value_path():
    # A matrix not known to keep limits gives A·x no limit, even for a regular one.
    x = seq.corpus_entry("alternating_decay")
    for a in (
        mat.compose(mat.rk_matrix(maps.affine_map(2)), mat.cesaro()),
        mat.rk_matrix(maps.IndexMap(lambda n: n // 2, "halves")),
        mat.scalar_mul(2.0, mat.identity()),
    ):
        assert not a.keeps_limits, a.label
        ax = con.transformed_sequence(a, x, 1000)
        assert ax.limit is None and _core_outcome(ax, FIN)[2] == "numeric", a.label


# -- equidistributed sequences -------------------------------------------------------

# One ideal per case of the hit-set rules: a density (Fin, Z, log, summable,
# and Fin×∅ through Z) or a trace that is an arithmetic progression or the squares.
_EQUIDISTRIBUTED_CASES = [*_CATALOG, ide.fin_oplus_full(sd.ap(1, 3)), ide.fin_oplus_full(sd.squares())]


def _rotation_images():
    """rotation_golden and its rk(a·n + c) images, a in 1..5 and c in {0, 1},
    each equidistributed on [0, 1) along every polynomial subsequence (Weyl)."""
    x = seq.corpus_entry("rotation_golden")
    images = {"rotation_golden": x}
    for a in range(1, 6):
        for c in (0, 1):
            images[f"rk({a}n+{c})"] = con.transformed_sequence(mat.rk_matrix(maps.affine_map(a, c)), x, 1000)
    return images


@pytest.mark.parametrize("ideal", _EQUIDISTRIBUTED_CASES, ids=lambda i: i.label)
def test_equidistributed_cores_are_exact(ideal):
    # Each catalog ideal decides every hit set positive, whatever its
    # subinterval, so the core is [0, 1], read with no prefix.
    images = _rotation_images()
    with mock.patch.object(seq.BoundedSequence, "prefix", side_effect=AssertionError("prefix read")):
        for name, x in images.items():
            assert x.equidistributed == (0.0, 1.0) and x.level_sets is None, name
            assert _core_outcome(x, ideal) == (0.0, 1.0, "exact"), name
            for lo, hi in ((0.0, 0.01), (0.37, 0.38), (0.99, 1.0), (0.0, 1.0)):
                assert ideal.decide_in(x.hits(lo, hi)) is False, (name, lo, hi)


# (mul, add) with mul > 0 and the image range [mul·lo + add, mul·hi + add) of
# rotation_golden's [0, 1).
_AFFINE_IMAGES = [(2.0, -1.0, (-1.0, 1.0)), (3.0, 0.1, (0.1, 3.1)), (0.5, 0.0, (0.0, 0.5))]


@pytest.mark.parametrize("ideal", _EQUIDISTRIBUTED_CASES, ids=lambda i: i.label)
def test_affine_images_keep_an_equidistribution(ideal):
    # mul·x + add with mul > 0 is equidistributed on the image range, so its
    # core is that range, read with no prefix.
    x = seq.corpus_entry("rotation_golden")
    with mock.patch.object(seq.BoundedSequence, "prefix", side_effect=AssertionError("prefix read")):
        for mul, add, want in _AFFINE_IMAGES:
            y = seq.affine(x, mul, add)
            assert y.equidistributed == want, (mul, add)
            assert _core_outcome(y, ideal) == (*want, "exact"), (mul, add)


@pytest.mark.parametrize("mul, add, want", _AFFINE_IMAGES)
def test_affine_image_values_lie_in_the_declared_range(mul, add, want):
    # No value rounds onto the open end of the declared range.
    values = seq.affine(seq.corpus_entry("rotation_golden"), mul, add).at(np.arange(10**5))
    assert np.all((want[0] <= values) & (values < want[1]))


@pytest.mark.parametrize("mul, add", [(1.0, 0.4), (-1.0, 0.0)])
def test_affine_images_that_may_reach_an_open_end_declare_nothing(mul, add):
    # A shift by 0.4 would round 1 − 2⁻⁵³ onto 1.4 itself, and mul < 0 maps
    # [0, 1) onto a range open at its lower end: both keep the value path.
    assert seq.affine(seq.corpus_entry("rotation_golden"), mul, add).equidistributed is None


@pytest.mark.parametrize("name", sorted(_rotation_images()))
def test_numeric_cores_of_equidistributed_sequences_lie_near_the_exact_one(name):
    # Where the estimator decides, the undeclared copy's core at H = 10⁵ lies
    # inside [0, 1], within two grid cells of its ends.  Along the squares the
    # tail window [H/2, H) holds only 93 indices, whose values leave gaps of
    # a few hundredths: there the ends lie within 0.05.
    x = _undeclared(_rotation_images()[name])
    decided = 0
    for ideal, got in zip(_EQUIDISTRIBUTED_CASES, asy.cores(x, _EQUIDISTRIBUTED_CASES, CORE)):
        if isinstance(got, asy.InconclusiveCellsError):
            continue
        tol = 0.05 if getattr(ideal, "trace", None) == sd.squares() else 2 * CORE.grid
        assert got.method == "numeric", (name, ideal.label)
        assert 0.0 <= got.lo <= tol and 1.0 - tol <= got.hi <= 1.0, (name, ideal.label, got)
        decided += 1
    assert decided == len(_EQUIDISTRIBUTED_CASES) - 1, name  # all but summable's


def test_cesaro_means_of_equidistributed_sequences_tend_to_the_middle():
    # Cesàro·x has the exact limit 1/2, and the means over [H/4, H) at
    # H = 2²⁰ lie within 10⁻³ of it.
    horizon = 2**20
    for name, x in _rotation_images().items():
        assert con.transformed_sequence(mat.cesaro(), x, 1000).limit == 0.5, name
        means = mat.cesaro().transform_prefix(x, horizon)[horizon // 4 :]
        assert np.max(np.abs(means - 0.5)) <= 1e-3, name


def test_an_undeclared_sequence_keeps_the_value_path(monkeypatch):
    # Every catalog ideal decides the hit sets of rotation_golden, so its
    # cores read no cell table.  With its equidistribution hidden, its cores
    # go through the grid: one cell table, built only when such a sequence is
    # read and shared by every ideal read on it.
    x = seq.corpus_entry("rotation_golden")
    tables, hit_cells = [], asy._hit_cells
    monkeypatch.setattr(asy, "_hit_cells", lambda *args: tables.append(args) or hit_cells(*args))
    assert [c.method for c in asy.cores(x, [FIN, Z, FO_EVENS], FAST_CORE)] == ["exact"] * 3
    assert tables == []
    log = ide.erdos_ulam()
    got = asy.cores(_undeclared(x), [FIN, log, Z, log], FAST_CORE)
    assert [c.method for c in got] == ["numeric"] * 4 and len(tables) == 1
    assert got[1] == got[3]
    for c in got:
        assert abs(c.lo - 0.0) <= 2 * FAST_CORE.grid and abs(c.hi - 1.0) <= 2 * FAST_CORE.grid, c


# -- perturbation ----------------------------------------------------------------


def test_perturb_identity():
    b = con.perturb_identity(mat.zero_matrix())
    assert b.row(4).indices.tolist() == [4] and b.row(4).values.tolist() == [1.0]
    d = con.perturb_identity(mat.diagonal(lambda n: 2.0**-n))
    r = d.row(2)
    assert r.indices.tolist() == [2] and r.values.tolist() == [1.25]
    base = mat.diagonal(lambda n: 2.0**-n)
    sums = con.perturb_identity(base).row_sums(100)
    assert np.allclose(sums, base.row_sums(100) + 1.0)


# -- distinct values ------------------------------------------------------------------


def test_distinct_values_are_found_without_np_unique(monkeypatch):
    # np.unique, and np.union1d through it, hashes in numpy 2.4: the union
    # enumeration and the injectivity check sort instead (``sets._distinct``),
    # with the same results.
    blocks = sd.GeometricBlocks(2, 1, 2)
    union = sd.Union(blocks, sd.explicit(0, 2, 3, 5000))
    want = np.union1d(blocks.enumerate_prefix(5000), [0, 2, 3])

    def refuse(*args, **kwargs):
        raise AssertionError("hashed")

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(np, "union1d", refuse)
    got = union.enumerate_prefix(5000)
    assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
    assert sd.Union(sd.explicit(), sd.explicit()).enumerate_prefix(10).tolist() == []
    maps.enumeration_map(sd.squares()).validate_flags(2000)
    with pytest.raises(ValueError, match="repeats a value"):
        maps.IndexMap(lambda n: n // 2, "halves", injective=True).validate_flags(100)


# -- core equality experiments -----------------------------------------------------------


def test_experiment_rk_construction_zero_deviation():
    a = mat.rk_matrix(maps.enumeration_map(sd.evens()))
    report = con.core_equality_experiment(a, FO_EVENS, FIN, seq.corpus(), CORE)
    assert report.max_deviation <= 1e-2


def test_experiment_cesaro_detects_deviation():
    report = con.core_equality_experiment(
        mat.cesaro(), FIN, FIN, [seq.corpus_entry("alternating")], FAST_CORE
    )
    row = report.rows[0]
    assert row.core_x.as_tuple() == (-1.0, 1.0)
    assert abs(row.core_ax.lo) <= 0.02 and abs(row.core_ax.hi) <= 0.02
    assert report.max_deviation >= 0.9


def test_experiment_identity_zero_deviation_across_ideals():
    for ideal in (FIN, Z, FO_EVENS):
        report = con.core_equality_experiment(
            mat.identity(), ideal, ideal,
            [seq.corpus_entry(l) for l in ("alternating", "indicator_evens", "periodic_three_level")],
            FAST_CORE,
        )
        assert report.max_deviation == 0.0, ideal.label


_EXPERIMENT_PAIRS = {
    "fin": (FIN, FIN),
    "z": (Z, Z),
    "log": (ide.erdos_ulam(), ide.erdos_ulam()),
    "fin-oplus-evens,fin": (FO_EVENS, FIN),
    "fin-times-empty": (ide.fin_times_empty(), ide.fin_times_empty()),
}


def _outcome(compute):
    try:
        return compute()
    except asy.InconclusiveCellsError as exc:
        return type(exc).__name__, str(exc)


def test_the_identity_image_core_is_the_core_of_x(monkeypatch):
    built = con.transformed_sequence
    transform_calls = []
    monkeypatch.setattr(con, "transformed_sequence", lambda *args: transform_calls.append(args))
    identity, suite_memo = mat.identity(), reg.CheckMemo()
    for name, (ideal_i, ideal_j) in _EXPERIMENT_PAIRS.items():
        for x in seq.corpus():
            # The experiment reads core(x, I) before core(A·x, J), so an error of either shows.
            want = _outcome(lambda: (asy.core(x, ideal_i, _THEORY_CORE), asy.core(x, ideal_j, _THEORY_CORE))[1])
            # The A·x the identity used to build has that core too.
            assert _outcome(lambda: asy.core(built(identity, x, _THEORY_CORE.horizon), ideal_j, _THEORY_CORE)) == want
            for memo in (suite_memo, None):
                got = _outcome(
                    lambda: con.core_equality_experiment(
                        identity, ideal_i, ideal_j, [x], _THEORY_CORE, memo=memo
                    ).rows[0].core_ax
                )
                assert got == want, (name, x.label)
    assert transform_calls == []


def test_rk_cluster_transfer():
    a = mat.rk_matrix(maps.enumeration_map(sd.evens()))
    for label in ("alternating", "periodic_three_level", "blockwise_three_level", "indicator_blocks"):
        x = seq.corpus_entry(label)
        source = asy.cluster_points(x, FO_EVENS, CORE)
        ax = con.transformed_sequence(a, x, CORE.horizon)
        image = asy.cluster_points(ax, FIN, CORE)
        assert len(source.points) == len(image.points), label
        for (lo_a, hi_a), (lo_b, hi_b) in zip(source.points, image.points):
            assert abs(lo_a - lo_b) <= CORE.grid and abs(hi_a - hi_b) <= CORE.grid, label


def test_perturbation_preserves_cores_for_null_transform():
    base = mat.diagonal(lambda n: 2.0**-n, norm_bound=1.0)
    b = con.perturb_identity(base)
    report = con.core_equality_experiment(
        b, FIN, FIN,
        [seq.corpus_entry(l) for l in ("alternating", "indicator_evens", "rotation_golden")],
        FAST_CORE,
    )
    assert report.max_deviation <= 1e-2


def test_composition_transfer():
    # I = trace-finite over multiples of 4, J = trace-finite over evens:
    # doubling witnesses I below J and J below Fin, and the composed matrix
    # carries cores all the way to the classical case.
    ideal_i = ide.fin_oplus_full(sd.ap(0, 4))
    b = mat.rk_matrix(maps.affine_map(2))
    a = mat.rk_matrix(maps.affine_map(2))
    c = mat.compose(b, a)
    for n in (0, 1, 5):
        assert c.row(n).indices.tolist() == [4 * n]
    report = con.core_equality_experiment(c, ideal_i, FIN, seq.corpus(), CORE)
    assert report.max_deviation <= 1e-2


def test_experiment_report_serialization():
    report = con.core_equality_experiment(
        mat.identity(), FIN, FIN, [seq.corpus_entry("alternating")], FAST_CORE
    )
    d = report.to_dict()
    assert d["rows"][0]["label"] == "alternating"
    assert set(d["rows"][0]) == {
        "label", "core_x_lo", "core_x_hi", "core_ax_lo", "core_ax_hi", "core_x_method", "core_ax_method", "deviation"
    }
