"""Ideal catalog: membership decisions, densities, classification, RK witnesses."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealcore import ideals as ide
from idealcore import maps
from idealcore import sequences as seq
from idealcore import sets as sd
from idealcore import specs
from idealcore.ideals import MembershipResult as MR
from idealcore.ideals import PositivityResult as PR

EVENS = sd.evens()
ODDS = sd.odds()
SQUARES = sd.squares()

FIN = ide.fin()
Z = ide.density_zero()
EU = ide.erdos_ulam()
SUM = ide.summable()
FO_EVENS = ide.fin_oplus_full(EVENS)


# -- membership ----------------------------------------------------------------


@pytest.mark.parametrize(
    "s,ideal,expected",
    [
        (sd.explicit(1, 5, 9), FIN, MR.IN_IDEAL),
        (SQUARES, Z, MR.IN_IDEAL),
        (EVENS, Z, MR.POSITIVE),
        (EVENS, ide.fin_oplus_full(ODDS), MR.IN_IDEAL),
        (sd.complement(SQUARES), Z, MR.IN_DUAL_FILTER),
        (SQUARES, FIN, MR.POSITIVE),
        (sd.complement(sd.explicit(3)), FIN, MR.IN_DUAL_FILTER),
        (SQUARES, FO_EVENS, MR.POSITIVE),
        (sd.ap(1, 4), FO_EVENS, MR.IN_IDEAL),
        (SQUARES, SUM, MR.IN_IDEAL),
        (EVENS, SUM, MR.POSITIVE),
        (SQUARES, EU, MR.IN_IDEAL),
        (sd.GeometricBlocks(2, 0, 2), EU, MR.POSITIVE),
        (sd.GeometricBlocks(2, 0, 2), Z, MR.POSITIVE),
    ],
)
def test_membership_exact(s, ideal, expected):
    assert ide.membership(s, ideal) is expected


def test_membership_predicate_numeric():
    sparse = sd.Predicate(lambda n: n > 0 and set(str(n)) <= {"0", "1"} and str(n).count("1") == 1
                          and len(str(n)) % 2 == 1, name="powers_of_100")
    assert ide.membership(sparse, Z) is MR.IN_IDEAL
    # density right inside the uncertainty band stays inconclusive
    band = sd.Predicate(lambda n: n % 3000 == 0, name="band")
    assert ide.membership(band, Z) is MR.INCONCLUSIVE
    halfish = sd.Predicate(lambda n: (n * 2654435761) % 2**32 < 2**31, name="hash_half")
    assert ide.membership(halfish, Z) is MR.POSITIVE
    assert ide.membership(halfish, FIN) is MR.POSITIVE


def test_countably_generated_membership():
    gen = ide.countably_generated([ODDS])
    assert ide.membership(sd.ap(1, 4), gen) is MR.IN_IDEAL
    # the complement of a generator lies in the dual filter
    assert ide.membership(EVENS, gen) is MR.IN_DUAL_FILTER
    assert ide.membership(sd.ap(0, 4), gen) is MR.POSITIVE
    assert ide.membership(sd.Union(ODDS, sd.explicit(0, 2)), gen) is MR.IN_IDEAL
    # Fin as the empty-generator ideal
    fin_like = ide.countably_generated([])
    assert ide.membership(sd.explicit(5), fin_like) is MR.IN_IDEAL
    assert ide.membership(EVENS, fin_like) is MR.POSITIVE


def test_construction_validation():
    with pytest.raises(ValueError):
        ide.fin_oplus_full(sd.explicit(1, 2))
    with pytest.raises(ValueError):
        ide.countably_generated([sd.complement(sd.explicit(0))])


# -- ideal axioms on exact decisions --------------------------------------------

_POOL = [
    sd.explicit(0, 1, 2),
    EVENS,
    ODDS,
    SQUARES,
    sd.ap(0, 3),
    sd.GeometricBlocks(2, 0, 2),
    sd.RootBlocks(0, 3),
    sd.Union(sd.ap(0, 4), SQUARES),
]
_IDEALS = [FIN, Z, FO_EVENS, SUM, EU]


def _is_in(s, ideal):
    return ide.membership(s, ideal) is MR.IN_IDEAL


def test_finite_union_axiom():
    for ideal in _IDEALS:
        members = [s for s in _POOL if _is_in(s, ideal)]
        for a in members:
            for b in members:
                assert _is_in(sd.Union(a, b), ideal), (ideal.label, a, b)


def test_subset_monotonicity_via_intersection():
    # S ∩ X ⊆ S, so membership of S forces membership of the intersection.
    for ideal in _IDEALS:
        for s in _POOL:
            if not _is_in(s, ideal):
                continue
            for x in _POOL:
                verdict = ide.membership(sd.Intersection(s, x), ideal)
                assert verdict is MR.IN_IDEAL, (ideal.label, s, x, verdict)


def test_fin_subset_of_density_zero():
    for s in _POOL + [sd.Intersection(EVENS, ODDS)]:
        if _is_in(s, FIN):
            assert _is_in(s, Z)


def test_duality_iff():
    for ideal in _IDEALS:
        for s in _POOL:
            m = ide.membership(s, ideal)
            mc = ide.membership(sd.complement(s), ideal)
            assert (m is MR.IN_DUAL_FILTER) == (mc is MR.IN_IDEAL), (ideal.label, s, m, mc)


# -- densities -------------------------------------------------------------------


def test_exact_density_examples():
    assert ide.exact_density(EVENS) == 0.5
    assert ide.exact_density(SQUARES) == 0
    assert ide.exact_density(sd.Union(sd.ap(0, 4), sd.ap(1, 4))) == 0.5
    lo, hi = ide.exact_density(sd.GeometricBlocks(2, 0, 2))
    assert (float(lo), float(hi)) == pytest.approx((1 / 3, 2 / 3))
    with pytest.raises(ide.UnsupportedSetError):
        ide.exact_density(sd.Predicate(lambda n: True))


def test_empirical_density_examples():
    lo, hi = ide.empirical_density(EVENS, 10**5)
    assert abs(lo - 0.5) <= 1e-4 and abs(hi - 0.5) <= 1e-4
    _, hi = ide.empirical_density(sd.explicit(*range(10)), 10**5)
    assert hi <= 2e-4
    _, hi = ide.empirical_density(SQUARES, 10**4)
    assert hi <= 0.02
    with pytest.raises(ValueError):
        ide.empirical_density(EVENS, 1)


def _empirical_density_reference(s, horizon):
    """The counting ratio at every n in [horizon/2, horizon], from a full mask."""
    hits = np.flatnonzero(s.mask(horizon + 1))
    ns = np.arange(horizon // 2, horizon + 1, dtype=np.int64)
    ratios = np.searchsorted(hits, ns, side="left") / ns
    return float(np.min(ratios)), float(np.max(ratios))


@pytest.mark.parametrize(
    "s", [SQUARES, EVENS, sd.ap(1, 3), sd.GeometricBlocks(2, 0, 2), sd.explicit(0, 1, 5, 6, 7, 50, 51, 4096)]
)
def test_empirical_density_matches_every_window_ratio(s):
    for horizon in (2, 3, 10, 101, 1000, 4097, 65536):
        assert ide.empirical_density(s, horizon) == _empirical_density_reference(s, horizon), horizon


def test_empirical_density_reads_members_only():
    tracemalloc.start()
    try:
        lo, hi = ide.empirical_density(SQUARES, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert 0.0 < lo <= hi < 1e-3


def test_empirical_sandwiched_by_exact():
    for s in _POOL:
        d = s.density_bounds()
        for horizon in (10**3, 10**4, 10**5):
            lo, hi = ide.empirical_density(s, horizon)
            if horizon == 10**5:
                assert float(d.lower) - 0.02 <= lo <= hi <= float(d.upper) + 0.02, (s, lo, hi)


# -- positivity estimators --------------------------------------------------------


def test_fin_positivity_tail_rule():
    horizon = 10**4
    early = np.arange(100, dtype=np.int64)
    verdict, _ = FIN.positivity(early, horizon, ide.DEFAULT_THETA)
    assert verdict is PR.NULL
    spread = np.arange(0, horizon, 7, dtype=np.int64)
    verdict, support = FIN.positivity(spread, horizon, ide.DEFAULT_THETA)
    assert verdict is PR.POSITIVE
    assert support.min() >= horizon // 2


def test_density_zero_positivity_bands():
    horizon = 10**5
    evens_hits = np.arange(0, horizon, 2, dtype=np.int64)
    assert Z.positivity(evens_hits, horizon, ide.DEFAULT_THETA)[0] is PR.POSITIVE
    tiny = np.array([0, 1, 2], dtype=np.int64)
    assert Z.positivity(tiny, horizon, ide.DEFAULT_THETA)[0] is PR.NULL
    # ~3e-4 density sits inside the uncertainty band (theta/10, theta)
    band = np.arange(0, horizon, 3000, dtype=np.int64)
    assert Z.positivity(band, horizon, ide.DEFAULT_THETA)[0] is PR.INCONCLUSIVE


def test_pair_columns_match_scalar_inverse():
    ns = np.arange(10**6 + 1, dtype=np.int64)
    expected = np.fromiter((ide._pair_column(n) for n in range(10**6 + 1)), dtype=np.int64)
    assert np.array_equal(ide._pair_columns(ns), expected)


@pytest.mark.parametrize("horizon", [1, 2, 3, 100, 1000, 20000])
def test_pair_column_table_matches_pair_columns(horizon):
    table = ide._pair_column_table(horizon)
    assert np.array_equal(table, ide._pair_columns(np.arange(horizon, dtype=np.int64)))
    assert table.dtype == np.int64 and not table.flags.writeable
    assert ide._pair_column_table.cache_info().maxsize <= 4


def test_fin_times_empty_reads_a_hit_at_the_last_index():
    fte, horizon = ide.fin_times_empty(), 1000
    assert ide._pair_column(horizon - 1) == 9 == ide._pair_column(54)
    # Index H-1 opens column 9, which no head hit reached.
    verdict, support = fte.positivity(np.array([0, 1, horizon - 1]), horizon, ide.DEFAULT_THETA)
    assert verdict is PR.POSITIVE and support.tolist() == [horizon - 1]
    # With index 54 in the head, column 9 is no longer fresh.
    verdict, _ = fte.positivity(np.array([0, 54, horizon - 1]), horizon, ide.DEFAULT_THETA)
    assert verdict is PR.INCONCLUSIVE


# -- positivity in closed form ---------------------------------------------------

FTE = ide.fin_times_empty()
# Sets that the closed-form rules decide Fin×∅-positive: the squares and the
# infinite {n : a·n + c is a square} by the Pell argument, the others as sets
# that are not density-null.
_FTE_POSITIVE = {
    "squares": SQUARES,
    **{
        f"squares@{a}n+{c}": sd.preimage(SQUARES, maps.affine_map(a, c))
        for a, c in ((2, 0), (2, 1), (3, 1), (8, 0), (8, 4))
    },
    "rotation_golden hits [0, 1/2)": seq.corpus_entry("rotation_golden").hits(0.0, 0.5),
    "ap(1,3)": sd.ap(1, 3),
    "root_blocks(1,3)": sd.RootBlocks(1, 3),
    "geometric_blocks(2,0,2)": sd.GeometricBlocks(2, 0, 2),
    "co-squares": sd.complement(SQUARES),
    "geometric_blocks(2,1,2)@2n": sd.preimage(sd.GeometricBlocks(2, 1, 2), maps.affine_map(2)),
    "root_blocks(0,3)@3n+1": sd.preimage(sd.RootBlocks(0, 3), maps.affine_map(3, 1)),
}


@pytest.mark.parametrize("name", sorted(_FTE_POSITIVE))
def test_fin_times_empty_positive_sets_meet_ever_more_columns(name):
    # K columns cover no set that meets more than K of them.  Each set decided
    # positive meets more columns below H as H doubles from 2^12 to 2^20: over
    # every two doublings, the period of the geometric blocks, which open no
    # column in the octaves between their blocks.
    s = _FTE_POSITIVE[name]
    assert FTE.decide_in(s) is False
    hits = s.enumerate_prefix(2**20)
    _, first = np.unique(ide._pair_columns(hits), return_index=True)
    opened = np.sort(hits[first])  # the member that first meets each column
    counts = np.searchsorted(opened, [2**k for k in range(12, 21)])
    assert np.all(counts[2:] > counts[:-2]), counts


@pytest.mark.parametrize("m", [1, 2, 3])
def test_column_zero_is_not_decided_positive(m):
    # {n : 8m²n + m² is a square} = {n : 8n + 1 is a square} is the triangular
    # numbers, column 0 of the pairing, so it lies in Fin×∅ although it is an
    # infinite preimage of the squares.
    s = sd.preimage(SQUARES, maps.affine_map(8 * m * m, m * m))
    assert set(ide._pair_columns(s.enumerate_prefix(10**5)).tolist()) == {0}
    assert s.cardinality() is sd.Cardinality.INFINITE
    assert FTE.decide_in(s) is True


_NON_AFFINE = [maps.enumeration_map(s) for s in (SQUARES, sd.GeometricBlocks(2, 0, 2), sd.RootBlocks(1, 3))]
_FAR_PREIMAGES = st.builds(
    sd.Preimage,
    st.sampled_from([sd.ap(2, 5), EVENS, SQUARES, sd.GeometricBlocks(2, 0, 2), sd.RootBlocks(0, 3)]),
    st.sampled_from(_NON_AFFINE),
)
_FINITE = st.lists(st.integers(0, 50), max_size=4).map(lambda e: sd.explicit(*e))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        _FAR_PREIMAGES,
        st.builds(sd.complement, _FAR_PREIMAGES),
        st.builds(sd.Union, _FAR_PREIMAGES, _FINITE),
        st.builds(sd.Difference, _FAR_PREIMAGES, _FINITE),
    )
)
@example(sd.Preimage(sd.ap(2, 5), maps.enumeration_map(SQUARES)))
def test_an_inexact_upper_bound_decides_no_set_positive(s):
    # Preimages under maps that are not affine have the bounds [0, 1], inexact,
    # which show nothing: no square is 2 mod 5, so the first example is empty.
    d = s.density_bounds()
    assert not d.exact and d.lower == 0
    for ideal in (FTE, Z, SUM):
        assert ideal.decide_in(s) is not False, (ideal.label, s)


def test_affine_preimages_of_blocks_are_positive_on_both_sides():
    # Their bounds are those of the block family, exact: neither the set nor
    # its complement is null under Z, log, Fin×∅ or the summable ideal.
    for family, (a, c) in itertools.product(
        (sd.GeometricBlocks(2, 0, 2), sd.RootBlocks(2, 3), sd.complement(sd.GeometricBlocks(3, 1, 2))),
        ((2, 0), (5, 1)),
    ):
        s = sd.preimage(family, maps.affine_map(a, c))
        for ideal in (Z, EU, FTE, SUM):
            assert ide.decide_membership(s, ideal) is MR.POSITIVE, (ideal.label, family, a, c)


@pytest.mark.parametrize(
    "family",
    [sd.GeometricBlocks(2, 0, 2), sd.GeometricBlocks(2, 1, 2), sd.RootBlocks(0, 3), sd.RootBlocks(1, 3), sd.RootBlocks(2, 3)],
    ids=["gb(2,0,2)", "gb(2,1,2)", "rb(0,3)", "rb(1,3)", "rb(2,3)"],
)
def test_affine_preimages_of_blocks_keep_the_family_bounds(family):
    # {n : a·n + c ∈ S} reads S's counting ratio at multiples of a, up to the
    # o(1) that S's runs add.  Over [2^12, 2^17], 2.5 periods of the geometric
    # blocks, the extremes of the running ratio meet S's exact bounds up to
    # 10^-3, or for the root blocks up to the O(1/√N) swing of their count.
    want = family.density_bounds()
    tol = 1e-3 if isinstance(family, sd.GeometricBlocks) else 2**-6
    for a, c in itertools.product((2, 3, 4, 5), (0, 1)):
        p = sd.preimage(family, maps.affine_map(a, c))
        assert p.density_bounds() == want and want.exact, (a, c)
        extremes = [ide.empirical_density(p, 2**k) for k in range(13, 18)]
        assert abs(min(lo for lo, _ in extremes) - float(want.lower)) <= tol, (a, c)
        assert abs(max(hi for _, hi in extremes) - float(want.upper)) <= tol, (a, c)


@pytest.mark.parametrize("horizon", [2, 3, 100, 1001, 20000])
def test_weight_totals_match_cumsum(horizon):
    table = ide._harmonic_weights(horizon)
    weights = 1.0 / (np.arange(horizon, dtype=np.float64) + 1.0)
    assert table.shape == (2, horizon) and not table.flags.writeable
    assert np.array_equal(table[0], weights)
    assert np.array_equal(table[1], np.cumsum(weights))
    assert ide._harmonic_weights.cache_info().maxsize <= 4
    rng = np.random.default_rng(horizon)
    for density in (0.0, 0.001, 0.1, 0.9):
        hits = np.flatnonzero(rng.random(horizon) < density)
        hits = np.union1d(hits, [horizon - 1]) if density else hits
        c0, c1 = np.searchsorted(hits, (horizon // 2, horizon))
        got = ide._max_running_ratio(hits, int(c0), int(c1), horizon, table)
        assert got == _running_ratio_by_mask(hits, horizon, np.array(table[0]))


# The estimators as boolean masks over the hits, the form they had before they
# split the sorted hits by position; the kernels must match them bit for bit.


def _tail_by_mask(hits, horizon):
    return hits[hits >= horizon // 2]


def _support_by_mask(hits, horizon):
    tail = _tail_by_mask(hits, horizon)
    return tail if tail.size else hits


def _running_ratio_by_mask(hits, horizon, weights=None):
    """The (weighted) upper-density estimate, with the running totals of
    ``weights`` summed on every call."""
    n0 = horizon // 2
    if weights is None:
        c0 = int(np.searchsorted(hits, n0, side="left"))
        best = c0 / n0 if n0 > 0 else 0.0
        window = hits[(hits >= n0) & (hits < horizon)]
        if window.size:
            counts = np.searchsorted(hits, window, side="left") + 1
            best = max(best, float(np.max(counts / (window + 1))))
        return best
    totals = np.cumsum(weights)
    hit_weights = np.cumsum(weights[hits]) if hits.size else np.zeros(0)
    c0 = int(np.searchsorted(hits, n0, side="left"))
    mass0 = float(hit_weights[c0 - 1]) if c0 > 0 else 0.0
    best = mass0 / float(totals[n0 - 1]) if n0 > 0 else 0.0
    window_idx = np.nonzero((hits >= n0) & (hits < horizon))[0]
    if window_idx.size:
        best = max(best, float(np.max(hit_weights[window_idx] / totals[hits[window_idx]])))
    return best


def _density_by_mask(hits, horizon, theta, weights=None):
    support = _support_by_mask(hits, horizon)
    if hits.size == 0:
        return PR.NULL, support
    est = _running_ratio_by_mask(hits, horizon, weights)
    if est > theta:
        return PR.POSITIVE, support
    if est < theta / 10.0:
        return PR.NULL, support
    return PR.INCONCLUSIVE, support


def _fin_by_mask(hits, horizon):
    tail = _tail_by_mask(hits, horizon)
    return (PR.POSITIVE if tail.size else PR.NULL), _support_by_mask(hits, horizon)


def _positivity_by_mask(ideal, hits, horizon, theta):
    if isinstance(ideal, ide.FinIdeal):
        return _fin_by_mask(hits, horizon)
    if isinstance(ideal, ide.DensityZeroIdeal):
        return _density_by_mask(hits, horizon, theta)
    if isinstance(ideal, ide.ErdosUlamIdeal):
        return _density_by_mask(hits, horizon, theta, ide._harmonic_weights(horizon)[0])
    if isinstance(ideal, ide.SummableIdeal):
        support = _support_by_mask(hits, horizon)
        if hits.size == 0:
            return PR.NULL, support
        total = float(np.sum(ide._harmonic_weights(horizon)[0][hits]))
        return (PR.POSITIVE if total > ideal.cutoff else PR.INCONCLUSIVE), support
    if isinstance(ideal, ide.TraceFinIdeal):
        mask = ideal.trace.mask(horizon)
        return _fin_by_mask(hits[mask[hits]] if hits.size else hits, horizon)
    assert isinstance(ideal, ide.ColumnBlockIdeal)
    support = _support_by_mask(hits, horizon)
    if hits.size == 0:
        return PR.NULL, support
    cols = ide._pair_column_table(horizon)[hits]
    if _tail_by_mask(hits, horizon).size == 0:
        return PR.NULL, support
    head_max = int(cols[hits < horizon // 2].max()) if np.any(hits < horizon // 2) else -1
    tail_max = int(cols[hits >= horizon // 2].max())
    return (PR.POSITIVE if tail_max > head_max else PR.INCONCLUSIVE), support


_KERNEL_IDEALS = {
    "fin": FIN,
    "z": Z,
    "log": EU,
    "summable": SUM,
    # A cutoff the harmonic sums below these horizons can pass, so POSITIVE is reached.
    "summable(cutoff 2)": ide.summable(cutoff=2.0),
    "fin-oplus-evens": FO_EVENS,
    "fin-times-empty": ide.fin_times_empty(),
}
# Where the hits lie: every index, the head below H/2, the tail from H/2 on.
_REGIONS = {"all": lambda h: (0, h), "head": lambda h: (0, h // 2), "tail": lambda h: (h // 2, h)}


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(_KERNEL_IDEALS)),
    horizon=st.sampled_from([2, 3, 1001, 20000]),
    region=st.sampled_from(sorted(_REGIONS)),
    density=st.sampled_from([0.0, 1e-4, 5e-4, 2e-3, 0.05, 0.5, 1.0]),
    last=st.booleans(),
    theta=st.sampled_from([ide.DEFAULT_THETA, 0.05, 0.3]),
    seed=st.integers(0, 2**16),
)
@example(name="fin-times-empty", horizon=2, region="all", density=0.0, last=False, theta=1e-3, seed=0)
@example(name="z", horizon=20000, region="tail", density=1.0, last=True, theta=1e-3, seed=0)
@example(name="log", horizon=3, region="head", density=1.0, last=True, theta=1e-3, seed=0)
def test_positivity_kernels_match_the_mask_formulas(name, horizon, region, density, last, theta, seed):
    # Hits as every caller passes them: ascending, distinct, below the horizon.
    lo, hi = _REGIONS[region](horizon)
    picked = np.random.default_rng(seed).random(hi - lo) < density
    hits = np.flatnonzero(picked) + lo
    if last:
        hits = np.union1d(hits, [horizon - 1])
    ideal = _KERNEL_IDEALS[name]
    verdict, support = ideal.positivity(hits, horizon, theta)
    want_verdict, want_support = _positivity_by_mask(ideal, hits, horizon, theta)
    assert verdict is want_verdict
    assert support.tolist() == want_support.tolist()


def test_positivity_is_defined_once_and_returns_a_verdict_and_its_support():
    # Profilers wrap ``positivity`` on every class that defines it and read
    # ``result[0].value``: one definition is counted once per call.
    assert [cls for cls in vars(ide).values() if isinstance(cls, type) and "positivity" in vars(cls)] == [ide.Ideal]
    horizon = 1000
    for ideal in _KERNEL_IDEALS.values():
        for hits in (np.zeros(0, dtype=np.int64), np.arange(0, 300), np.arange(0, horizon, 3)):
            result = ideal.positivity(hits, horizon, ide.DEFAULT_THETA)
            assert isinstance(result, tuple) and len(result) == 2
            assert isinstance(result[0], PR) and isinstance(result[1], np.ndarray)


def test_trace_positivity_filters():
    horizon = 10**4
    odd_hits = np.arange(1, horizon, 2, dtype=np.int64)
    verdict, support = FO_EVENS.positivity(odd_hits, horizon, ide.DEFAULT_THETA)
    assert verdict is PR.NULL and support.size == 0
    all_hits = np.arange(horizon, dtype=np.int64)
    verdict, support = FO_EVENS.positivity(all_hits, horizon, ide.DEFAULT_THETA)
    assert verdict is PR.POSITIVE
    assert np.all(support % 2 == 0)


def test_summable_positivity_is_heuristic():
    horizon = 10**5
    hits = np.arange(horizon, dtype=np.int64)
    # harmonic partial sums at desk horizons stay far below the cutoff
    assert SUM.positivity(hits, horizon, ide.DEFAULT_THETA)[0] is PR.INCONCLUSIVE
    assert SUM.positivity(np.zeros(0, dtype=np.int64), horizon, ide.DEFAULT_THETA)[0] is PR.NULL


# -- classification ----------------------------------------------------------------


def test_classification_flags():
    assert FIN.classify().is_tall is False
    assert FIN.classify().is_p_plus_ideal is True
    z = Z.classify()
    assert z.is_p_ideal and z.is_tall and not z.is_p_plus_ideal
    assert Z.classify().summary().startswith("P-ideal, tall")
    fo = FO_EVENS.classify()
    assert fo.canonical_form == "Fin(+)P(omega) copy"
    assert fo.is_p_ideal and fo.is_p_plus_ideal and fo.is_nowhere_tall
    fte = ide.fin_times_empty().classify()
    assert fte.is_p_plus_ideal and not fte.is_p_ideal and fte.is_countably_generated
    s = SUM.classify()
    assert s.is_p_ideal and s.is_p_plus_ideal and s.is_tall
    gen = ide.countably_generated([ODDS]).classify()
    assert gen.canonical_form == "Fin(+)P(omega) copy"


def test_core_preserving_flag_consistency():
    # Only the trace-finite family (and Fin itself) carries the flag profile
    # required of ideals admitting a core-preserving matrix into Fin.
    def profile(ideal):
        c = ideal.classify()
        return c.is_p_ideal and c.is_p_plus_ideal and c.is_nowhere_tall

    assert profile(FIN)
    assert profile(FO_EVENS)
    assert profile(ide.countably_generated([ODDS]))
    assert not profile(Z)
    assert not profile(EU)
    assert not profile(SUM)
    assert not profile(ide.fin_times_empty())


# -- Rudin-Keisler comparisons ----------------------------------------------------


def test_rk_below_trace_to_fin():
    # Generated by the odds over Fin is the trace-finite copy on the evens.
    for ideal in (FO_EVENS, ide.countably_generated([ODDS])):
        result = ide.rk_below(ideal, FIN)
        assert result.has_witness
        assert [result.witness(n) for n in range(5)] == [0, 2, 4, 6, 8]


def test_rk_below_fin_identity():
    result = ide.rk_below(FIN, FIN)
    assert result.has_witness
    assert result.witness(17) == 17


def test_rk_below_unknowns():
    assert not ide.rk_below(Z, FIN).has_witness
    eu_pair = ide.rk_below(EU, ide.erdos_ulam())
    assert not eu_pair.has_witness
    assert "known to exist" in eu_pair.note
    assert not ide.rk_below(SUM, Z).has_witness


def test_ideal_json_roundtrip():
    catalog = [FIN, Z, EU, SUM, FO_EVENS, ide.fin_times_empty()]
    for ideal in catalog + [ide.countably_generated([]), ide.countably_generated([ODDS])]:
        spec = ide.ideal_to_dict(ideal)
        rebuilt = specs.parse_ideal(spec)
        assert type(rebuilt) is type(ideal)
        assert rebuilt.label == ideal.label
        assert ide.ideal_to_dict(rebuilt) == spec
        # The positivity threshold belongs to the run, not to the ideal.
        assert "theta" not in spec and not hasattr(ideal, "theta")
    with pytest.raises(ValueError, match="cfg.theta or --theta"):
        specs.parse_ideal({"type": "density_zero", "theta": 0.2})


def test_countably_generated_is_the_trace_finite_copy_of_the_complement():
    gen = ide.countably_generated([ODDS])
    assert isinstance(gen, ide.TraceFinIdeal)
    assert ide.ideal_to_dict(gen) == ide.ideal_to_dict(ide.fin_oplus_full(sd.complement(ODDS)))
    for s in [EVENS, ODDS, SQUARES, sd.ap(0, 4), sd.ap(1, 4), sd.explicit(2, 4), sd.Union(ODDS, sd.explicit(0, 2))]:
        assert ide.membership(s, gen) is ide.membership(s, FO_EVENS), s
    assert gen.classify() == FO_EVENS.classify()
    hits = np.array([0, 3, 520, 601, 998])
    assert gen.positivity(hits, 1000, 1e-3)[1].tolist() == FO_EVENS.positivity(hits, 1000, 1e-3)[1].tolist()
    assert ide.countably_generated([]).classify().canonical_form == "Fin"
    # A spec of the countably generated kind parses to the same trace-finite ideal.
    spec = {"type": "countably_generated", "generators": [{"type": "ap", "offset": 1, "step": 2}]}
    assert ide.ideal_to_dict(specs.parse_ideal(spec)) == ide.ideal_to_dict(gen)


# -- value semantics -------------------------------------------------------------

# Each catalog ideal, built by its constructor, then under every spelling the
# spec parser accepts for it.
_SPELLINGS = {
    "fin": [FIN, "fin", "Fin", {"type": "fin"}],
    "z": [Z, "z", "density_zero", "density-zero", {"type": "density_zero"}, {"type": "z"}],
    "erdos_ulam_log": [
        EU,
        "erdos_ulam_log",
        "erdos-ulam-log",
        {"type": "erdos_ulam"},
        {"type": "erdos_ulam", "weights": "log"},
    ],
    "summable": [
        SUM,
        "summable_harmonic",
        {"type": "summable"},
        {"type": "summable", "weights": "harmonic", "cutoff": 1000},
        {"type": "summable_harmonic"},
    ],
    "fin_oplus_evens": [
        FO_EVENS,
        "fin_oplus_evens",
        "fin-oplus-evens",
        {"type": "fin_oplus_full", "trace": {"type": "ap", "offset": 0, "step": 2}},
    ],
    "fin_oplus_complement_of_odds": [
        ide.countably_generated([ODDS]),
        ide.fin_oplus_full(sd.complement(ODDS)),
        {"type": "countably_generated", "generators": [{"type": "arithmetic_progression", "offset": 1, "step": 2}]},
    ],
    "fin_times_empty": [ide.fin_times_empty(), "fin_times_empty", "fin-times-empty", {"type": "fin_times_empty"}],
}


def _built(spelling):
    return spelling if isinstance(spelling, ide.Ideal) else specs.parse_ideal(spelling)


@pytest.mark.parametrize("name", sorted(_SPELLINGS))
def test_every_spelling_of_an_ideal_is_one_value(name):
    built = [_built(spelling) for spelling in _SPELLINGS[name]]
    for ideal in built:
        assert ideal == built[0] and hash(ideal) == hash(built[0])
        assert {ideal: name}[built[0]] == name
    others = [_built(spelling) for other, spellings in _SPELLINGS.items() if other != name for spelling in spellings]
    assert all(ideal != other for ideal in built for other in others)


def test_encoded_ideals_parse_back_equal():
    catalog = [spellings[0] for spellings in _SPELLINGS.values()]
    for ideal in catalog + [ide.countably_generated([]), ide.summable(cutoff=2.0)]:
        rebuilt = specs.parse_ideal(ide.ideal_to_dict(ideal))
        assert rebuilt == ideal and hash(rebuilt) == hash(ideal)


def test_ideals_of_different_definitions_are_unequal():
    pairs = [
        (FIN, ide.countably_generated([])),  # the same sets, but another kind
        (EU, SUM),
        (FO_EVENS, ide.fin_oplus_full(ODDS)),
        (FO_EVENS, ide.fin_oplus_full(sd.ap(0, 4))),
        (SUM, ide.summable(cutoff=2.0)),
        (ide.summable(cutoff=2.0), ide.summable(cutoff=3.0)),
    ]
    for a, b in pairs:
        assert a != b and b != a
    assert FIN != "fin" and FIN != None  # noqa: E711


@pytest.mark.parametrize("cutoff", [-5, 0, -0.0, float("nan")])
def test_summable_cutoff_must_be_positive(cutoff):
    """A cutoff of -5 read explicit(3) as positive, against the exact in-ideal."""
    with pytest.raises(ValueError, match="cutoff must be positive"):
        ide.summable(cutoff=cutoff)
