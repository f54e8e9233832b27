"""Cluster sets, ideal limsup/liminf, cores, and the symbolic oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealcore import asymptotics as asy
from idealcore import ideals as ide
from idealcore import sequences as seq
from idealcore import sets as sd

FIN = ide.fin()
Z = ide.density_zero()
FO_EVENS = ide.fin_oplus_full(sd.evens())
FO_ROOT = ide.fin_oplus_full(sd.RootBlocks(0, 2))

CFG = asy.CoreConfig(horizon=10**5, grid=1e-2, theta=1e-3)
FAST = asy.CoreConfig(horizon=10**4, grid=1e-2, theta=1e-3)

STRUCTURED = [
    "alternating",
    "indicator_evens",
    "indicator_squares",
    "signed_blocks",
    "periodic_three_level",
    "blockwise_three_level",
    "indicator_blocks",
]


def _strip_levels(x):
    """``x`` with its level sets and its declared limit hidden, so its core
    takes the value-prefix path."""
    return seq.BoundedSequence(x.fn, x.bound, f"{x.label}(numeric)", level_sets=None, limit=None)


def test_cluster_points_examples():
    cs = asy.cluster_points(seq.corpus_entry("alternating"), FIN, FAST)
    assert len(cs.points) == 2
    assert cs.points[0] == (-1.0, -1.0) and cs.points[1] == (1.0, 1.0)

    cs = asy.cluster_points(seq.corpus_entry("indicator_squares"), Z, FAST)
    assert len(cs.points) == 1 and cs.points[0] == (0.0, 0.0)

    cs = asy.cluster_points(seq.corpus_entry("rotation_golden"), FIN, CFG)
    assert len(cs.points) == 1
    lo, hi = cs.points[0]
    assert lo <= 0.01 and hi >= 0.99


def test_cluster_three_level():
    cs = asy.cluster_points(seq.corpus_entry("blockwise_three_level"), FIN, FAST)
    assert len(cs.points) == 3
    mids = [(lo + hi) / 2 for lo, hi in cs.points]
    assert mids == pytest.approx([0.0, 1 / 3, 1.0], abs=1e-2)


def test_limsup_examples():
    assert asy.ideal_limsup(seq.corpus_entry("alternating"), FIN, FAST) == 1.0
    assert asy.ideal_limsup(seq.corpus_entry("indicator_squares"), Z, FAST) == 0.0
    assert asy.ideal_limsup(seq.corpus_entry("indicator_evens"), Z, FAST) == 1.0
    assert asy.ideal_liminf(seq.corpus_entry("alternating"), FIN, FAST) == -1.0


def test_core_examples():
    assert asy.core(seq.corpus_entry("alternating"), FIN, FAST).as_tuple() == (-1.0, 1.0)
    assert asy.core(seq.corpus_entry("indicator_evens"), Z, FAST).as_tuple() == (0.0, 1.0)
    assert asy.core(seq.corpus_entry("indicator_squares"), Z, FAST).as_tuple() == (0.0, 0.0)


def test_oracle_core_examples():
    assert asy.oracle_core(seq.corpus_entry("indicator_evens"), Z).as_tuple() == (0.0, 1.0)
    assert asy.oracle_core(seq.corpus_entry("indicator_squares"), Z).as_tuple() == (0.0, 0.0)
    x = seq.signed_indicator(sd.evens(), sd.odds())
    assert asy.oracle_core(x, FIN).as_tuple() == (-1.0, 1.0)
    assert asy.oracle_core(x, FIN).method == "exact"


def test_oracle_core_reports_mixed_provenance():
    # The geometric blocks meet the trace, square-root blocks, in sets the
    # symbolic analysis cannot decide (two families of long runs), so those
    # levels fall back to the numeric estimator, whose prefix and threshold
    # the result records.
    blocks = seq.corpus_entry("indicator_blocks")
    mixed = asy.oracle_core(blocks, FO_ROOT, theta=2e-3)
    assert (mixed.method, mixed.horizon, mixed.theta, mixed.grid) == ("mixed", asy._ORACLE_HORIZON, 2e-3, None)
    assert asy.cluster_points(blocks, FO_ROOT, FAST).exact is False
    alternating = seq.corpus_entry("alternating")
    exact = asy.oracle_core(alternating, FIN)
    assert (exact.method, exact.horizon, exact.theta, exact.grid) == ("exact", None, None, None)
    assert asy.cluster_points(alternating, FIN, FAST).exact is True


def test_union_level_sets_meeting_the_trace_are_decided_exactly():
    # The level set of 0, the odd blocks ∪ {0}, meets the evens in the union of
    # (odd blocks ∩ evens), infinite, and ({0} ∩ evens), finite.
    blocks = seq.corpus_entry("indicator_blocks")
    for c in (asy.oracle_core(blocks, FO_EVENS), asy.core(blocks, FO_EVENS, FAST)):
        assert (c.lo, c.hi, c.method) == (0.0, 1.0, "exact")


def test_a_level_set_and_its_complement_on_its_own_trace_are_decided_exactly():
    # Under Fin ⊕ P(squares) the zero level, the non-squares, meets the trace
    # in nothing: it is null, and the squares lie in the dual filter.
    core = asy.oracle_core(seq.corpus_entry("indicator_squares"), ide.fin_oplus_full(sd.squares()))
    assert (core.lo, core.hi, core.method) == (1.0, 1.0, "exact")


def test_classify_levels_reports_provenance():
    ideal = ide.fin_times_empty()
    levels = [
        (0.0, sd.explicit(1, 2, 3)),  # finite: decided symbolically
        (1.0, sd.Predicate(lambda n: n % 2 == 0)),  # predicate: fresh columns keep appearing
        (2.0, ideal.generator(0)),  # one column: the estimator cannot tell
    ]
    assert asy.classify_levels(levels, ideal, 10_000, 1e-3) == [
        (0.0, "null", True),
        (1.0, "pos", False),
        (2.0, "inc", False),
    ]


def test_oracle_refuses_unstructured():
    with pytest.raises(asy.UnsupportedInstanceError):
        asy.oracle_core(seq.corpus_entry("rotation_golden"), FIN)
    predicate_levels = seq.indicator(sd.Predicate(lambda n: n % 2 == 0))
    with pytest.raises(asy.UnsupportedInstanceError):
        asy.oracle_core(predicate_levels, FIN)


def test_oracle_equivalence_production_path():
    for label in STRUCTURED:
        x = seq.corpus_entry(label)
        for ideal in (FIN, Z, FO_EVENS):
            numeric = asy.core(x, ideal, CFG)
            oracle = asy.oracle_core(x, ideal)
            assert abs(numeric.lo - oracle.lo) <= CFG.grid, (label, ideal.label)
            assert abs(numeric.hi - oracle.hi) <= CFG.grid, (label, ideal.label)


def test_oracle_equivalence_forced_numeric():
    # The grid + positivity-estimator route, with level sets and limits
    # stripped, against the symbolic oracle.  Pairs whose level sets have slowly decaying sparse
    # counts (the squares under the density ideal at this horizon) sit inside
    # the estimator's documented uncertainty band and are excluded.
    for label in STRUCTURED:
        x = seq.corpus_entry(label)
        for ideal in (FIN, Z, FO_EVENS):
            if label == "indicator_squares" and ideal is not FIN:
                continue
            numeric = asy.core(_strip_levels(x), ideal, CFG)
            oracle = asy.oracle_core(x, ideal)
            assert abs(numeric.lo - oracle.lo) <= CFG.grid, (label, ideal.label)
            assert abs(numeric.hi - oracle.hi) <= CFG.grid, (label, ideal.label)


def test_core_monotone_in_ideal():
    # Fin ⊆ Z, so the density core sits inside the classical core.  The
    # density estimator may refuse outright on slowly decaying numeric-only
    # entries (its uncertainty band); a refusal is not a violation.
    checked = 0
    for x in seq.corpus():
        try:
            a = asy.core(x, Z, FAST)
        except asy.InconclusiveCellsError:
            continue
        b = asy.core(x, FIN, FAST)
        assert a.lo >= b.lo - FAST.grid and a.hi <= b.hi + FAST.grid, x.label
        checked += 1
    assert checked >= 7


def test_reflection_and_translation():
    for label in ("alternating", "periodic_three_level", "rotation_golden"):
        x = seq.corpus_entry(label)
        base = asy.core(x, FIN, FAST)
        refl = asy.core(seq.affine(x, -1.0, 0.0), FIN, FAST)
        assert refl.lo == pytest.approx(-base.hi, abs=FAST.grid)
        assert refl.hi == pytest.approx(-base.lo, abs=FAST.grid)
        shifted = asy.core(seq.affine(x, 1.0, 0.4), FIN, FAST)
        assert shifted.lo == pytest.approx(base.lo + 0.4, abs=FAST.grid)
        assert shifted.hi == pytest.approx(base.hi + 0.4, abs=FAST.grid)


def test_cluster_nonempty_across_catalog():
    ideals = [FIN, Z, FO_EVENS, ide.erdos_ulam("log"), ide.summable()]
    for x in seq.corpus():
        for ideal in ideals:
            cs = asy.cluster_points(x, ideal, FAST)
            assert cs.points or cs.inconclusive, (x.label, ideal.label)


def test_inconclusive_cells_propagate():
    # A predicate set with density inside the uncertainty band puts the top
    # value cell in doubt, so the limsup refuses to answer.
    band = sd.Predicate(lambda n: n % 3000 == 0, name="band")
    x = seq.indicator(band)
    x = seq.BoundedSequence(x.fn, 1.0, "band", level_sets=None)
    with pytest.raises(asy.InconclusiveCellsError):
        asy.ideal_limsup(x, Z, CFG)
    # the liminf side is unaffected: the zero cell is decisively positive
    assert asy.ideal_liminf(x, Z, CFG) == pytest.approx(0.0, abs=1e-2)


def test_ideal_lim_check():
    values = 1.0 / (np.arange(10**4) + 1.0)
    ok, info = asy.ideal_lim_check(values, 0.0, 1e-2, FIN)
    assert ok is True and info["deviation_count"] == 99
    ok, info = asy.ideal_lim_check(np.ones(10**4), 0.0, 1e-2, FIN)
    assert ok is False and "witness_index" in info
    alternating = np.where(np.arange(10**4) % 2 == 0, 1.0, 0.0)
    ok, _ = asy.ideal_lim_check(alternating, 1.0, 1e-2, Z)
    assert ok is False


def test_config_validation():
    with pytest.raises(ValueError):
        asy.CoreConfig(horizon=10)
    with pytest.raises(ValueError):
        asy.CoreConfig(grid=0.0)


def test_core_interval_records_method():
    # Finitely-valued: read off the level decisions, so exact or mixed.
    c = asy.core(seq.corpus_entry("alternating"), FIN, FAST)
    assert c.method == "exact" and c.horizon == FAST.horizon and c.grid == FAST.grid
    assert asy.core(seq.corpus_entry("indicator_blocks"), FO_ROOT, FAST).method == "mixed"
    # A value prefix goes through the grid.
    c = asy.core(seq.corpus_entry("rotation_golden"), FIN, FAST)
    assert c.method == "numeric" and c.horizon == FAST.horizon and c.grid == FAST.grid


# -- the vectorized cell search against a per-cell scan ---------------------------


def _per_cell_cluster(values, ideal, cfg, bound=None):
    """``cluster_of_values`` with two ``searchsorted`` calls per cell of the range."""
    values = np.asarray(values, dtype=np.float64)
    if bound is None:
        bound = float(np.max(np.abs(values))) if values.size else 0.0
    order = np.argsort(values, kind="stable")
    sv = values[order]
    cells = []
    for i in asy._cell_range(bound, cfg.grid):
        a = int(np.searchsorted(sv, (i - asy._ENLARGE) * cfg.grid, side="left"))
        b = int(np.searchsorted(sv, (i + 1 + asy._ENLARGE) * cfg.grid, side="right"))
        if a == b:
            cells.append((i, "null", 0.0, 0.0))
            continue
        verdict, support = ideal.positivity(np.sort(order[a:b]), len(values), cfg.theta)
        if verdict is ide.PositivityResult.POSITIVE:
            witness = values[support]
            cells.append((i, "pos", float(witness.min()), float(witness.max())))
        else:
            cells.append((i, "inc" if verdict is ide.PositivityResult.INCONCLUSIVE else "null", 0.0, 0.0))
    points, inconclusive = asy._merge(cells, cfg.grid)
    if not points and not inconclusive:
        raise asy.InconclusiveCellsError("no cell survived; sequence prefix may be empty")
    return asy.ClusterSet(points, inconclusive, exact=False)


_CATALOG = [
    ide.fin(),
    ide.density_zero(),
    ide.erdos_ulam("log"),
    ide.summable(),
    ide.fin_oplus_full(sd.evens()),
    ide.countably_generated([sd.evens()]),
    ide.fin_times_empty(),
]


def _step(n, head, band, every=25, spread=0.0, rng=None):
    """In grid units: the first half of the prefix at ``head``, the rest at
    ``head - 6`` except every ``every``-th value, which lies in [band - spread, band]."""
    values = np.where(np.arange(n) < n // 2, head, head - 6.0)
    tail = values[n // 2 :: every]
    tail[:] = band - spread * (rng or np.random.default_rng(0)).random(tail.size)
    return values


@st.composite
def _value_prefixes(draw, grid):
    """Values near a few levels (one of them only on a sparse or finite set), with
    noise; a monotone decaying prefix; or a ``_step`` whose sparse tail band sits
    near the head's cell, or its mirror image.  Any may carry a sparse band of
    values around its top.  The density and summable estimators leave such
    bands inconclusive, so inconclusive runs sit above, at and next to the
    extreme positive cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 400))
    shape = draw(st.sampled_from(["levels", "decay", "step"]))
    if shape == "decay":
        power = draw(st.sampled_from([0.3, 1.0, 2.0]))
        values = draw(st.floats(-1.0, 1.0)) + draw(st.floats(-2.0, 2.0)) * (np.arange(n) + 1.0) ** -power
    elif shape == "step":
        p = draw(st.integers(-5, 5))
        head, band = p + draw(st.floats(0.25, 0.75)), p + draw(st.floats(-0.5, 2.0))
        every, spread = draw(st.sampled_from([12, 25, 50])), draw(st.sampled_from([0.0, 2.0]))
        values = _step(n, head, band, every, spread, rng) * draw(st.sampled_from([grid, -grid]))
    else:
        levels = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)))
        noise = draw(st.sampled_from([0.0, 1e-3, 0.02, 0.3]))
        values = levels[rng.integers(0, levels.size, n)] + noise * rng.standard_normal(n)
    rare = draw(st.sampled_from([None, "head", "squares", "band"]))
    if rare == "head":
        values[: min(n, 5)] = 2.5
    elif rare == "squares":
        values[np.arange(int(np.sqrt(n))) ** 2] = -2.5
    elif rare == "band" and n:
        step = draw(st.sampled_from([12, 25, 50]))
        values[::step] = values.max() + draw(st.floats(-0.05, 0.3)) + 0.01 * rng.standard_normal(values[::step].size)
    return values


_GRIDDED_PREFIXES = st.one_of(st.sampled_from([0.01, 0.1, 0.25]), st.floats(0.004, 0.6)).flatmap(
    lambda grid: st.tuples(_value_prefixes(grid), st.just(grid))
)


@settings(max_examples=150, deadline=None)
@given(
    _GRIDDED_PREFIXES,
    st.sampled_from(_CATALOG),
    st.sampled_from([None, 0.5, 1.0, 1.7]),
    st.sampled_from([1e-3, 0.05]),
)
def test_cluster_of_values_matches_per_cell_scan(gridded, ideal, bound_scale, theta):
    values, grid = gridded
    cfg = asy.CoreConfig(horizon=100, grid=grid, theta=theta)
    bound = None
    if bound_scale is not None:
        bound = bound_scale * (float(np.max(np.abs(values))) if values.size else 1.0)
    try:
        expected = _per_cell_cluster(values, ideal, cfg, bound)
    except asy.InconclusiveCellsError as exc:
        with pytest.raises(asy.InconclusiveCellsError) as got:
            asy.cluster_of_values(values, ideal, cfg, bound)
        assert (str(got.value), got.value.cells) == (str(exc), exc.cells)
        return
    assert asy.cluster_of_values(values, ideal, cfg, bound) == expected


def _outcome(thunk):
    """``thunk()``, or the message and cells of the ``InconclusiveCellsError`` it raises."""
    try:
        return thunk()
    except asy.InconclusiveCellsError as exc:
        return ("raised", str(exc), exc.cells)


def _assert_ends_match_full_scan(values, ideal, cfg, bound):
    """The limsup of ``values``, and the limsup, liminf and core of a sequence
    without level sets whose prefix repeats them, equal what the per-cell scan
    gives, errors included."""
    assert _outcome(lambda: asy.limsup_of_values(values, ideal, cfg, bound)) == _outcome(
        lambda: asy._sup_of(_per_cell_cluster(values, ideal, cfg, bound))
    )
    prefix = np.resize(values, cfg.horizon) if values.size else np.zeros(cfg.horizon)
    x = seq.BoundedSequence(lambda n: float(prefix[n]), bound, "drawn", rule=lambda h: prefix[:h])

    def reference(read):
        return _outcome(lambda: read(_per_cell_cluster(prefix, ideal, cfg, bound)))

    assert _outcome(lambda: asy.ideal_limsup(x, ideal, cfg)) == reference(asy._sup_of)
    assert _outcome(lambda: asy.ideal_liminf(x, ideal, cfg)) == reference(asy._inf_of)
    assert _outcome(lambda: asy.core(x, ideal, cfg).as_tuple()) == reference(
        lambda cluster: (asy._inf_of(cluster), asy._sup_of(cluster))
    )


@settings(max_examples=200, deadline=None)
@given(
    _GRIDDED_PREFIXES,
    st.sampled_from(_CATALOG),
    st.sampled_from([1.0, 1.7]),
    st.sampled_from([1e-3, 0.05]),
)
def test_end_scans_match_per_cell_scan(gridded, ideal, bound_scale, theta):
    values, grid = gridded
    cfg = asy.CoreConfig(horizon=max(100, values.size), grid=grid, theta=theta)
    bound = bound_scale * (float(np.max(np.abs(values))) if values.size else 1.0)
    _assert_ends_match_full_scan(values, ideal, cfg, bound)


_ABOVE = "inconclusive cells above the largest surviving value"


@pytest.mark.parametrize(
    "step, blocking",
    [
        # the band's cell, just below the head's, is inconclusive and ends above every band value
        ((2.5, 1.9), ((1, 2),)),
        # the same run, spread over two cells
        ((2.5, 1.9, 25, 2.0), ((0, 2),)),
        # the band's cells lie above the head's
        ((2.5, 4.0), ((3, 5),)),
        # the band's cell ends below the head, so nothing blocks
        ((2.5, 1.6), ()),
    ],
)
def test_end_scans_read_blocking_runs(step, blocking):
    # Density-zero at theta 0.05 leaves a band of one value in 25 inconclusive.
    cfg = asy.CoreConfig(horizon=400, grid=0.1, theta=0.05)
    values = _step(400, *step) * cfg.grid
    expected = ("raised", _ABOVE, tuple((a * cfg.grid, b * cfg.grid) for a, b in blocking))
    assert _outcome(lambda: asy._sup_of(_per_cell_cluster(values, Z, cfg))) == (
        expected if blocking else step[0] * cfg.grid
    )
    for mirror in (values, -values):  # the mirror image reads the same at the liminf
        _assert_ends_match_full_scan(mirror, Z, cfg, float(np.max(np.abs(values))))


class _CountingFin(ide.FinIdeal):
    """Fin, recording the hits of every positivity call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def positivity(self, hits, horizon, theta):
        self.calls.append(hits.tobytes())
        return super().positivity(hits, horizon, theta)


def test_end_scans_decide_few_cells():
    horizon = 20_000
    x = seq.BoundedSequence(math.sin, 1.0, "sin", rule=lambda h: np.sin(np.arange(h, dtype=np.float64)))
    cfg = asy.CoreConfig(horizon=horizon)
    fin = _CountingFin()
    assert asy.core(x, fin, cfg).as_tuple() == pytest.approx((-1.0, 1.0), abs=1e-3)
    assert len(fin.calls) <= 6 and len(set(fin.calls)) == len(fin.calls)
    # the full scan decides every hit cell, once
    fin = _CountingFin()
    asy.cluster_of_values(x.prefix(horizon), fin, cfg, bound=x.bound)
    hit_cells = asy._hit_cells(np.sort(x.prefix(horizon)), x.bound, cfg.grid)[0]
    assert len(fin.calls) == len(set(fin.calls)) == len(hit_cells) > 200
    # a top value in the middle of its cell hits no other cell; the next hit cell
    # down is not adjacent, so the limsup decides the top cell alone
    fin = _CountingFin()
    assert asy.limsup_of_values(np.tile([0.505, -0.505], 500), fin, cfg) == 0.505
    assert len(fin.calls) == 1


def _core_outcome(thunk):
    """``thunk()``, or the type, message and cells of the exception it raises."""
    try:
        return thunk()
    except Exception as exc:  # every outcome is compared
        return (type(exc), str(exc), getattr(exc, "cells", None))


def _kept_outcome(result):
    """An outcome of ``cores`` in the form ``_core_outcome`` gives."""
    if isinstance(result, Exception):
        return (type(result), str(result), getattr(result, "cells", None))
    return result


_ENTRIES = [*seq.corpus(), *(_strip_levels(x) for x in seq.corpus())]


@st.composite
def _sequences(draw):
    """A corpus entry, its copy with the structure hidden, or a sequence
    without structure that repeats a drawn value prefix."""
    if draw(st.booleans()):
        return _ENTRIES[draw(st.integers(0, len(_ENTRIES) - 1))]
    values, grid = draw(_GRIDDED_PREFIXES)
    prefix = np.resize(values, 4000) if values.size else np.zeros(4000)
    bound = float(np.max(np.abs(prefix))) + grid
    return seq.BoundedSequence(lambda n: float(prefix[n]), bound, "drawn", rule=lambda h: prefix[:h])


@settings(max_examples=80, deadline=None)
@given(
    _sequences(),
    st.lists(st.sampled_from(_CATALOG), min_size=1, max_size=8),
    st.sampled_from([(1000, 0.01), (1000, 0.1), (4000, 0.05)]),
    st.sampled_from([1e-3, 0.05]),
)
def test_batched_cores_match_each_core(x, ideals, truncation, theta):
    """``cores`` gives, ideal by ideal, what ``core`` gives alone: the same
    interval, or the same exception with the same message and cells."""
    horizon, grid = truncation
    cfg = asy.CoreConfig(horizon=horizon, grid=grid, theta=theta)
    alone = [_core_outcome(lambda: asy.core(x, ideal, cfg)) for ideal in ideals]
    assert [_kept_outcome(r) for r in asy.cores(x, ideals, cfg)] == alone


@pytest.mark.parametrize("x", _ENTRIES, ids=lambda x: x.label)
def test_batched_cores_match_each_core_on_the_corpus(x):
    """Every corpus entry and its copy with the structure hidden, under the
    whole catalog at once."""
    cfg = asy.CoreConfig(horizon=2000, grid=0.01, theta=0.05)
    alone = [_core_outcome(lambda: asy.core(x, ideal, cfg)) for ideal in _CATALOG]
    assert [_kept_outcome(r) for r in asy.cores(x, _CATALOG, cfg)] == alone


def test_batched_cores_report_inconclusive_cells():
    # The band of test_inconclusive_cells_propagate: Z leaves its top cell
    # undecided, so its core raises, and Fin's does not.
    band = sd.Predicate(lambda n: n % 3000 == 0, name="band")
    x = seq.BoundedSequence(seq.indicator(band).fn, 1.0, "band")
    fin_core, z_error = asy.cores(x, [FIN, Z], CFG)
    assert fin_core == asy.core(x, FIN, CFG)
    assert isinstance(z_error, asy.InconclusiveCellsError) and z_error.__traceback__ is None
    with pytest.raises(asy.InconclusiveCellsError) as alone:
        asy.core(x, Z, CFG)
    assert (str(z_error), z_error.cells) == (str(alone.value), alone.value.cells) != (str(alone.value), ())
