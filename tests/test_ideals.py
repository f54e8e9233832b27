"""Ideal catalog: membership decisions, densities, classification, RK witnesses."""

import numpy as np
import pytest

from idealcore import ideals as ide
from idealcore import sets as sd
from idealcore.ideals import MembershipResult as MR
from idealcore.ideals import PositivityResult as PR

EVENS = sd.evens()
ODDS = sd.odds()
SQUARES = sd.squares()

FIN = ide.fin()
Z = ide.density_zero()
EU = ide.erdos_ulam("log")
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
    with pytest.raises(ValueError):
        ide.erdos_ulam("bogus")


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


def _max_running_ratio_reference(hits, horizon, weights):
    """The weighted estimate with the running totals summed on every call."""
    n0 = horizon // 2
    totals = np.cumsum(weights)
    hit_weights = np.cumsum(weights[hits]) if hits.size else np.zeros(0)
    c0 = int(np.searchsorted(hits, n0, side="left"))
    best = (float(hit_weights[c0 - 1]) if c0 > 0 else 0.0) / float(totals[n0 - 1]) if n0 > 0 else 0.0
    window_idx = np.nonzero((hits >= n0) & (hits < horizon))[0]
    if window_idx.size:
        best = max(best, float(np.max(hit_weights[window_idx] / totals[hits[window_idx]])))
    return best


@pytest.mark.parametrize("horizon", [2, 3, 100, 1001, 20000])
def test_weight_totals_match_cumsum(horizon):
    table = ide._harmonic_weights(horizon)
    weights = 1.0 / (np.arange(horizon, dtype=np.float64) + 1.0)
    assert table.shape == (2, horizon) and not table.flags.writeable
    assert np.array_equal(table[0], weights)
    assert np.array_equal(table[1], np.cumsum(weights))
    assert ide._harmonic_weights.cache_info().maxsize <= 4
    custom = ide.erdos_ulam(lambda n: 1.0 + (n % 7))._weight_table(horizon)
    assert np.array_equal(custom[1], np.cumsum(custom[0]))
    rng = np.random.default_rng(horizon)
    for density in (0.0, 0.001, 0.1, 0.9):
        hits = np.flatnonzero(rng.random(horizon) < density)
        hits = np.union1d(hits, [horizon - 1]) if density else hits
        for t in (table, custom):
            got = ide._max_running_ratio(hits, horizon, t)
            assert got == _max_running_ratio_reference(hits, horizon, np.array(t[0]))


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
    result = ide.rk_below(FO_EVENS, FIN)
    assert result.has_witness
    assert [result.witness(n) for n in range(5)] == [0, 2, 4, 6, 8]


def test_rk_below_fin_identity():
    result = ide.rk_below(FIN, FIN)
    assert result.has_witness
    assert result.witness(17) == 17


def test_rk_below_unknowns():
    assert not ide.rk_below(Z, FIN).has_witness
    eu_pair = ide.rk_below(EU, ide.erdos_ulam("log"))
    assert not eu_pair.has_witness
    assert "known to exist" in eu_pair.note
    assert not ide.rk_below(SUM, Z).has_witness


def test_custom_weight_sequences():
    counting = ide.summable(lambda n: 1.0, cutoff=100.0)
    assert ide.membership(EVENS, counting) is MR.POSITIVE
    assert ide.membership(sd.explicit(1, 2, 3), counting) is MR.IN_IDEAL
    eu = ide.erdos_ulam(lambda n: 1.0 / (n + 1))
    assert ide.membership(EVENS, eu) is MR.POSITIVE
    with pytest.raises(ValueError):
        ide.ideal_to_dict(eu)
    bad = ide.erdos_ulam(lambda n: -1.0)
    with pytest.raises(ValueError):
        ide.membership(sd.Predicate(lambda n: n % 2 == 0), bad)


def test_ideal_json_roundtrip():
    for ideal in [FIN, Z, EU, SUM, FO_EVENS, ide.countably_generated([ODDS]), ide.fin_times_empty()]:
        spec = ide.ideal_to_dict(ideal)
        rebuilt = ide.ideal_from_dict(spec)
        assert type(rebuilt) is type(ideal)
        assert rebuilt.label == ideal.label
        # The positivity threshold belongs to the run, not to the ideal.
        assert "theta" not in spec and not hasattr(ideal, "theta")
    with pytest.raises(ValueError, match="cfg.theta or --theta"):
        ide.ideal_from_dict({"type": "density_zero", "theta": 0.2})
