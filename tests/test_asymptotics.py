"""Cluster sets, ideal limsup/liminf, cores, and the symbolic oracle."""

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
    return seq.BoundedSequence(x.fn, x.bound, f"{x.label}(numeric)", level_sets=None)


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
    # The trace-finite ideal cannot decide the level set of 0 (the odd blocks)
    # symbolically, so that level falls back to the numeric estimator, whose
    # prefix and threshold the result records.
    blocks = seq.corpus_entry("indicator_blocks")
    mixed = asy.oracle_core(blocks, FO_EVENS, theta=2e-3)
    assert (mixed.method, mixed.horizon, mixed.theta, mixed.grid) == ("mixed", asy._ORACLE_HORIZON, 2e-3, None)
    assert asy.cluster_points(blocks, FO_EVENS, FAST).exact is False
    alternating = seq.corpus_entry("alternating")
    exact = asy.oracle_core(alternating, FIN)
    assert (exact.method, exact.horizon, exact.theta, exact.grid) == ("exact", None, None, None)
    assert asy.cluster_points(alternating, FIN, FAST).exact is True


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
    # The grid + positivity-estimator route, with level sets stripped, against
    # the symbolic oracle.  Pairs whose level sets have slowly decaying sparse
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
    assert asy.core(seq.corpus_entry("indicator_blocks"), FO_EVENS, FAST).method == "mixed"
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


@st.composite
def _value_prefixes(draw):
    """Values near a few levels (one of them only on a sparse or finite set), with noise."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 400))
    levels = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)))
    noise = draw(st.sampled_from([0.0, 1e-3, 0.02, 0.3]))
    values = levels[rng.integers(0, levels.size, n)] + noise * rng.standard_normal(n)
    rare = draw(st.sampled_from([None, "head", "squares"]))
    if rare == "head":
        values[: min(n, 5)] = 2.5
    elif rare == "squares":
        values[np.arange(int(np.sqrt(n))) ** 2] = -2.5
    return values


@settings(max_examples=150, deadline=None)
@given(
    _value_prefixes(),
    st.sampled_from(_CATALOG),
    st.one_of(st.sampled_from([0.01, 0.1, 0.25]), st.floats(0.004, 0.6)),
    st.sampled_from([None, 0.5, 1.0, 1.7]),
    st.sampled_from([1e-3, 0.05]),
)
def test_cluster_of_values_matches_per_cell_scan(values, ideal, grid, bound_scale, theta):
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
