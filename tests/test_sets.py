"""Set-description algebra: membership, enumeration, densities, cardinality."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealcore import maps
from idealcore import sets as sd
from idealcore import specs

EVENS = sd.evens()
ODDS = sd.odds()
SQUARES = sd.squares()
GB = sd.GeometricBlocks(2, 0, 2)
RB = sd.RootBlocks(1, 3)


def brute_prefix(s, horizon):
    return tuple(n for n in range(horizon) if s.contains(n))


# -- construction validation -------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        sd.ArithmeticProgression(0, 0)
    with pytest.raises(ValueError):
        sd.ArithmeticProgression(-1, 2)
    with pytest.raises(ValueError):
        sd.Blocks(((5, 3),))
    with pytest.raises(ValueError):
        sd.Blocks(((0, 4), (2, 6)))
    with pytest.raises(ValueError):
        sd.GeometricBlocks(1, 0, 2)
    with pytest.raises(ValueError):
        sd.RootBlocks(3, 3)


def test_explicit_normalizes():
    s = sd.Explicit((5, 1, 5, 3))
    assert s.elements == (1, 3, 5)


# -- membership and enumeration ----------------------------------------------


@pytest.mark.parametrize(
    "s",
    [
        sd.explicit(0, 7, 19),
        EVENS,
        sd.ap(3, 5),
        SQUARES,
        sd.Blocks(((2, 5), (10, 12))),
        GB,
        sd.GeometricBlocks(3, 1, 2),
        RB,
        sd.Union(EVENS, SQUARES),
        sd.Intersection(sd.ap(0, 3), EVENS),
        sd.Difference(EVENS, SQUARES),
        sd.complement(SQUARES),
        sd.Predicate(lambda n: n % 7 == 1, name="one_mod_seven"),
    ],
)
def test_enumerate_matches_membership(s):
    members = s.enumerate_prefix(2000)
    assert members.dtype == np.int64
    assert tuple(members.tolist()) == brute_prefix(s, 2000)
    mask = s.mask(2000)
    assert mask.dtype == bool and not mask.flags.writeable
    assert tuple(np.flatnonzero(mask).tolist()) == brute_prefix(s, 2000)


def test_geometric_blocks_membership():
    # Blocks [1,2), [4,8), [16,32), ... for base 2, even exponents.
    members = {1, 4, 5, 6, 7, 16, 31}
    non_members = {0, 2, 3, 8, 15, 32, 63}
    assert all(GB.contains(n) for n in members)
    assert not any(GB.contains(n) for n in non_members)


@pytest.mark.parametrize("base", [2, 3, 10])
def test_geometric_blocks_membership_at_every_power(base):
    # ``contains`` reads the exponent in constant time; it must agree with the
    # mask on both sides of every power, and with base^e <= n < base^(e+1) past it.
    horizon = 2_000_000
    for residue in range(2):
        s = sd.GeometricBlocks(base, residue, 2)
        mask = s.mask(horizon)
        powers = [base**k for k in range(1, 80) if base**k < 10**40]
        for p in powers:
            for n in (p - 1, p, p + 1):
                if n < horizon:
                    assert s.contains(n) == mask[n], (base, residue, n)
                e = s._exponent(n)
                assert base**e <= n < base ** (e + 1), (base, n)


def test_root_blocks_membership():
    # isqrt(n) % 3 == 1 means n in [1,4) or [16,25) or ...
    assert tuple(RB.enumerate_prefix(30).tolist()) == (1, 2, 3, 16, 17, 18, 19, 20, 21, 22, 23, 24)


# -- exact densities -----------------------------------------------------------


def test_ap_density():
    d = EVENS.density_bounds()
    assert d.exact and d.value == Fraction(1, 2)


def test_squares_density_zero_against_counting_oracle():
    horizon = 10**6
    count = len(SQUARES.enumerate_prefix(horizon))
    assert count <= math.isqrt(horizon) + 1
    assert SQUARES.density_bounds().value == 0


def test_union_inclusion_exclusion():
    u = sd.Union(sd.ap(0, 4), sd.ap(1, 4))
    d = u.density_bounds()
    assert d.exact and d.value == Fraction(1, 2)
    # counting oracle
    count = len(u.enumerate_prefix(10**5))
    assert abs(count / 10**5 - 0.5) < 1e-3


def test_geometric_blocks_oscillation_exact():
    d = GB.density_bounds()
    assert d.exact and (d.lower, d.upper) == (Fraction(1, 3), Fraction(2, 3))
    # counting oracle at block boundaries: ratio at the end of an included
    # block approaches the upper density, at the start the lower density.
    for m in (8, 9, 10):
        end_of_block = 2 ** (2 * m + 1)
        count = len(GB.enumerate_prefix(end_of_block))
        assert abs(count / end_of_block - 2 / 3) < 1e-4
        start_of_block = 2 ** (2 * m)
        count = len(GB.enumerate_prefix(start_of_block))
        assert abs(count / start_of_block - 1 / 3) < 1e-4


def test_root_blocks_density_exact():
    d = RB.density_bounds()
    assert d.exact and d.value == Fraction(1, 3)
    count = len(RB.enumerate_prefix(10**6))
    assert abs(count / 10**6 - 1 / 3) < 1e-2


def test_complement_density():
    d = sd.complement(GB).density_bounds()
    assert d.exact and (d.lower, d.upper) == (Fraction(1, 3), Fraction(2, 3))


def test_null_absorption_keeps_exactness():
    d = sd.Union(EVENS, SQUARES).density_bounds()
    assert d.exact and d.value == Fraction(1, 2)
    d2 = sd.Intersection(EVENS, sd.complement(SQUARES)).density_bounds()
    assert d2.exact and d2.value == Fraction(1, 2)


def test_interval_bounds_are_sound():
    s = sd.Union(GB, sd.ap(0, 3))
    d = s.density_bounds()
    assert not d.exact
    assert 0 <= d.lower <= d.upper <= 1
    count = len(s.enumerate_prefix(10**5))
    assert d.lower - 0.02 <= count / 10**5 <= d.upper + 0.02


def test_predicate_blocks_density():
    p = sd.Predicate(lambda n: n % 7 == 0, name="sevens")
    assert p.density_bounds() is None
    assert sd.Union(p, EVENS).density_bounds() is None
    assert sd.contains_predicate(sd.Union(p, EVENS))
    assert not sd.contains_predicate(sd.Union(EVENS, SQUARES))


# -- cardinality ---------------------------------------------------------------


@pytest.mark.parametrize(
    "s,expected",
    [
        (sd.explicit(1, 2, 3), sd.Cardinality.FINITE),
        (sd.Blocks(((0, 10),)), sd.Cardinality.FINITE),
        (EVENS, sd.Cardinality.INFINITE),
        (SQUARES, sd.Cardinality.INFINITE),
        (GB, sd.Cardinality.INFINITE),
        (sd.Intersection(EVENS, ODDS), sd.Cardinality.FINITE),
        (sd.Intersection(sd.ap(0, 6), sd.ap(3, 6)), sd.Cardinality.FINITE),
        (sd.Intersection(sd.ap(0, 6), sd.ap(0, 4)), sd.Cardinality.INFINITE),
        (sd.Intersection(SQUARES, EVENS), sd.Cardinality.INFINITE),
        # squares are never 3 mod 4
        (sd.Intersection(SQUARES, sd.ap(3, 4)), sd.Cardinality.FINITE),
        (sd.Intersection(GB, EVENS), sd.Cardinality.INFINITE),
        (sd.Intersection(RB, sd.ap(1, 7)), sd.Cardinality.INFINITE),
        (sd.Intersection(GB, sd.GeometricBlocks(2, 1, 2)), sd.Cardinality.FINITE),
        (sd.Intersection(RB, sd.RootBlocks(0, 3)), sd.Cardinality.FINITE),
        (sd.complement(sd.explicit(1, 2)), sd.Cardinality.INFINITE),
        (sd.complement(SQUARES), sd.Cardinality.INFINITE),
        (sd.Difference(EVENS, sd.explicit(0, 2, 4)), sd.Cardinality.INFINITE),
        (sd.Difference(sd.explicit(0, 2, 4), EVENS), sd.Cardinality.FINITE),
        # nested chain: odds ∩ evens ∩ anything is finite
        (
            sd.Intersection(ODDS, sd.Intersection(EVENS, sd.complement(SQUARES))),
            sd.Cardinality.FINITE,
        ),
        # a set meets its own complement nowhere, in either order and inside a chain
        (sd.Intersection(sd.complement(SQUARES), SQUARES), sd.Cardinality.FINITE),
        (sd.Intersection(SQUARES, sd.complement(SQUARES)), sd.Cardinality.FINITE),
        (sd.Intersection(sd.Intersection(GB, SQUARES), sd.complement(GB)), sd.Cardinality.FINITE),
        # the complement of a block family keeps the other blocks
        (sd.Intersection(SQUARES, sd.complement(RB)), sd.Cardinality.INFINITE),
    ],
)
def test_cardinality_rules(s, expected):
    assert s.cardinality() is expected


@pytest.mark.parametrize(
    "s,expected",
    [
        # (odd blocks ∪ {0}) ∩ evens: the blocks' half is infinite.
        (sd.Intersection(sd.Union(sd.GeometricBlocks(2, 1, 2), sd.explicit(0)), EVENS), sd.Cardinality.INFINITE),
        # Both halves are finite: squares are never 3 mod 4.
        (sd.Intersection(sd.ap(3, 4), sd.Union(SQUARES, sd.explicit(0))), sd.Cardinality.FINITE),
        # A union factor inside a chain of intersections.
        (
            sd.Intersection(sd.Intersection(sd.Union(SQUARES, sd.explicit(0)), sd.ap(1, 2)), sd.ap(3, 4)),
            sd.Cardinality.FINITE,
        ),
        # Neither half decided (blocks of another base): the union stays unknown.
        (sd.Intersection(sd.Union(GB, RB), sd.GeometricBlocks(3, 0, 2)), sd.Cardinality.UNKNOWN),
    ],
)
def test_cardinality_distributes_over_a_union_factor(s, expected):
    assert s.cardinality() is expected


def test_cardinality_squares_qr_rule_matches_enumeration():
    # 3 mod 4 is not a quadratic residue; 1 mod 8 is.
    assert tuple(sd.Intersection(SQUARES, sd.ap(3, 4)).enumerate_prefix(10**5).tolist()) == ()
    hit = sd.Intersection(SQUARES, sd.ap(1, 8))
    assert hit.cardinality() is sd.Cardinality.INFINITE
    assert len(hit.enumerate_prefix(10**5)) > 10


# Blocks of one base, or root blocks, meet in the blocks whose index solves both
# congruences: by the CRT infinitely many blocks, or none.
_CONGRUENCES = [(r1, m1, r2, m2) for m1 in range(2, 7) for m2 in range(2, 7) for r1 in range(m1) for r2 in range(m2)]


def _blocks_meet(r1, m1, r2, m2) -> bool:
    """Whether some block index solves both congruences, searched over one period."""
    return any(e % m1 == r1 and e % m2 == r2 for e in range(math.lcm(m1, m2)))


@pytest.mark.parametrize(
    "family",
    [lambda r, m: sd.GeometricBlocks(2, r, m), lambda r, m: sd.GeometricBlocks(3, r, m), sd.RootBlocks],
    ids=["geometric_base_2", "geometric_base_3", "root"],
)
def test_same_base_blocks_intersect_by_the_crt(family):
    for r1, m1, r2, m2 in _CONGRUENCES:
        s = sd.Intersection(family(r1, m1), family(r2, m2))
        met = _blocks_meet(r1, m1, r2, m2)
        assert s.cardinality() is (sd.Cardinality.INFINITE if met else sd.Cardinality.FINITE), (r1, m1, r2, m2)
        if not met:
            assert not s.mask(5000).any()


# Geometric blocks of bases c^k1 and c^k2 are sets of base-c exponents: base
# c^k covers exponent e of base c in its block e // k.
_POWER_BASES = [(2, 1, 2), (2, 2, 1), (2, 1, 3), (2, 2, 3), (2, 3, 4), (3, 1, 2), (3, 2, 3)]
_SMALL_CONGRUENCES = [(r1, m1, r2, m2) for m1 in range(2, 5) for m2 in range(2, 5) for r1 in range(m1) for r2 in range(m2)]


def _exponents_meet(k1, r1, m1, k2, r2, m2) -> bool:
    """Whether some base-c exponent lies in both families, searched over one period."""
    period = math.lcm(k1 * m1, k2 * m2)
    return any((e // k1) % m1 == r1 and (e // k2) % m2 == r2 for e in range(period))


@pytest.mark.parametrize("c,k1,k2", _POWER_BASES, ids=[f"{c}^{k1}_{c}^{k2}" for c, k1, k2 in _POWER_BASES])
def test_blocks_of_power_related_bases_intersect_by_the_crt(c, k1, k2):
    for r1, m1, r2, m2 in _SMALL_CONGRUENCES:
        s = sd.Intersection(sd.GeometricBlocks(c**k1, r1, m1), sd.GeometricBlocks(c**k2, r2, m2))
        met = _exponents_meet(k1, r1, m1, k2, r2, m2)
        assert s.cardinality() is (sd.Cardinality.INFINITE if met else sd.Cardinality.FINITE), (r1, m1, r2, m2)
        if not met:
            assert not s.mask(2**16).any()


def test_blocks_of_unrelated_bases_stay_undecided():
    # 2 and 6, or 4 and 8 against 3: no base has both as powers.
    for b1, b2 in ((2, 3), (2, 6), (4, 3), (8, 12)):
        s = sd.Intersection(sd.GeometricBlocks(b1, 0, 2), sd.GeometricBlocks(b2, 1, 2))
        assert s.cardinality() is sd.Cardinality.UNKNOWN, (b1, b2)


def test_an_empty_intersection_of_power_related_blocks_has_no_enumeration_map():
    # Base-2 exponents ≡ 2 (mod 4) against base-4 blocks covering the base-2
    # exponents ≡ 0, 1 (mod 4).  The map is refused at construction, never
    # called: a lazy search would double its horizon towards 2^40.
    empty = sd.Intersection(sd.GeometricBlocks(2, 2, 4), sd.GeometricBlocks(4, 0, 2))
    assert empty.cardinality() is sd.Cardinality.FINITE
    with pytest.raises(ValueError, match="finite"):
        maps.enumeration_map(empty)


# -- hypothesis: random expression trees ---------------------------------------

_atoms = st.sampled_from(
    [
        sd.explicit(0, 3, 9),
        EVENS,
        ODDS,
        sd.ap(2, 5),
        SQUARES,
        GB,
        RB,
        sd.Blocks(((3, 8),)),
    ]
)


def _trees(depth=2):
    if depth == 0:
        return _atoms
    sub = _trees(depth - 1)
    return st.one_of(
        _atoms,
        st.builds(sd.Union, sub, sub),
        st.builds(sd.Intersection, sub, sub),
        st.builds(sd.Difference, sub, sub),
        st.builds(sd.complement, sub),
    )


@settings(max_examples=60, deadline=None)
@given(_trees())
def test_tree_enumeration_matches_membership(s):
    assert tuple(s.enumerate_prefix(400).tolist()) == brute_prefix(s, 400)


_ODD_CUBES = sd.Predicate(lambda n: n % 2 == 1 and round(n ** (1 / 3)) ** 3 == n, name="odd_cubes")


@settings(max_examples=60, deadline=None)
@given(_trees(), st.sampled_from([None, "union", "difference"]), st.sampled_from([0, 1, 400, 1025]))
def test_tree_mask_matches_membership(s, with_predicate, horizon):
    if with_predicate == "union":
        s = sd.Union(s, _ODD_CUBES)
    elif with_predicate == "difference":
        s = sd.Difference(s, _ODD_CUBES)
    mask = s.mask(horizon)
    assert len(mask) == horizon
    members = tuple(np.flatnonzero(mask).tolist())
    assert members == tuple(s.enumerate_prefix(horizon).tolist()) == brute_prefix(s, horizon)


@settings(max_examples=60, deadline=None)
@given(_trees())
def test_tree_density_bounds_sound(s):
    d = s.density_bounds()
    assert d is not None
    assert 0 <= d.lower <= d.upper <= 1
    horizon = 4000
    ratio = len(s.enumerate_prefix(horizon)) / horizon
    assert d.lower - 0.2 <= ratio <= d.upper + 0.2


@settings(max_examples=60, deadline=None)
@given(_trees())
def test_tree_json_roundtrip(s):
    assert specs.parse_set(sd.set_to_dict(s)) == s


# -- preimages along affine maps ------------------------------------------------

_preimage_leaves = st.one_of(
    st.builds(sd.ap, st.integers(0, 10), st.integers(1, 7)),
    st.lists(st.integers(0, 60), max_size=6).map(lambda e: sd.explicit(*e)),
    st.just(SQUARES),
    st.sampled_from([GB, RB, sd.Blocks(((3, 8), (20, 31)))]),
)
_preimage_inners = st.one_of(
    _preimage_leaves,
    st.builds(sd.Union, _preimage_leaves, _preimage_leaves),
    st.builds(sd.complement, _preimage_leaves),
    st.builds(sd.complement, st.builds(sd.Union, _preimage_leaves, _preimage_leaves)),
)


@settings(max_examples=150, deadline=None)
@given(_preimage_inners, st.integers(1, 7), st.integers(0, 10))
def test_affine_preimage_rules_agree_with_its_mask(inner, mul, add):
    # Both the rewritten preimage and the bare node, whose own rules then apply
    # to the whole inner tree.
    h = maps.affine_map(mul, add)
    horizon = 6000
    brute = np.array([inner.contains(mul * n + add) for n in range(horizon)])
    for p in (sd.preimage(inner, h), sd.Preimage(inner, h)):
        mask = p.mask(horizon)
        assert np.array_equal(mask, brute)
        assert all(p.contains(n) == brute[n] for n in range(0, horizon, 37))
        rf = sd._residue_form(p)
        if rf is not None:
            tail = np.arange(rf.start, horizon)
            assert np.array_equal(mask[rf.start :], np.isin(tail % rf.modulus, list(rf.residues)))
        d = p.density_bounds()
        assert d is not None and 0 <= d.lower <= d.upper <= 1
        ratio = np.count_nonzero(mask) / horizon
        assert float(d.lower) - 0.1 <= ratio <= float(d.upper) + 0.1
        if d.upper == 0:
            assert d.exact and ratio < 0.05
        card = p.cardinality()
        if card is sd.Cardinality.FINITE:
            assert not mask[horizon // 2 :].any()
        elif card is sd.Cardinality.INFINITE:
            assert mask[horizon // 2 :].any()


def test_preimage_structure():
    double, shifted = maps.affine_map(2), maps.affine_map(3, 1)
    assert sd.preimage(GB, maps.identity_map()) is GB
    assert sd.preimage(EVENS, double) == sd.omega()
    assert sd.preimage(ODDS, double) == sd.explicit()
    assert sd.preimage(sd.ap(5, 4), shifted) == sd.ap(4, 4)  # 3n + 1 ≡ 1 (mod 4), n >= 4/3
    assert sd.preimage(sd.explicit(1, 4, 9, 10), shifted) == sd.explicit(0, 1, 3)
    assert sd.preimage(EVENS | SQUARES, double) == sd.Union(sd.omega(), sd.Preimage(SQUARES, double))
    assert sd.preimage(~SQUARES, double) == sd.complement(sd.Preimage(SQUARES, double))
    # An enumeration of a progression is affine; one of the squares is not.
    assert sd.preimage(ODDS, maps.enumeration_map(sd.ap(1, 4))) == sd.omega()
    enum_squares = maps.enumeration_map(SQUARES)
    assert sd.preimage(EVENS, enum_squares) == sd.Preimage(EVENS, enum_squares)
    assert sd.preimage(sd.explicit(9), enum_squares).cardinality() is sd.Cardinality.FINITE
    # Every total map pulls ω back to ω.
    assert sd.preimage(sd.omega(), enum_squares) == sd.omega()
    # (h⁻¹ X)ᶜ = h⁻¹(Xᶜ): the other blocks of GB meet every affine image.
    assert sd.complement(sd.Preimage(GB, double)).cardinality() is sd.Cardinality.INFINITE
    # Two is a square modulo 7 (3² = 9) but not modulo 3.
    assert sd.Preimage(SQUARES, maps.affine_map(7, 2)).cardinality() is sd.Cardinality.INFINITE
    assert sd.Preimage(SQUARES, maps.affine_map(3, 2)).cardinality() is sd.Cardinality.FINITE
    with pytest.raises(ValueError, match="no JSON encoding"):
        sd.set_to_dict(sd.Preimage(SQUARES, double))


def test_the_squares_rule_for_blocks_does_not_reach_their_preimages():
    # A preimage under a·n + c keeps long runs, but those of the root blocks
    # shrink to about 2√(n/a), shorter than the gaps between squares:
    # isqrt(4j²) = 2j is even, so no square lies in this preimage.
    p = sd.preimage(sd.RootBlocks(1, 2), maps.affine_map(4))
    assert sd._has_long_runs(p) and sd._has_long_runs(sd.complement(p))
    s = sd.Intersection(SQUARES, p)
    assert s.enumerate_prefix(10**5).size == 0
    assert s.cardinality() is not sd.Cardinality.INFINITE
    # Residue classes still meet it: a run longer than the modulus holds each residue.
    assert sd.Intersection(sd.ap(1, 7), p).cardinality() is sd.Cardinality.INFINITE


def test_sparse_preimage_mask_reads_members_pointwise():
    # h(19 999) is about 4e8: the mask reads the evens at h's values, never a prefix that long.
    p = sd.Preimage(EVENS, maps.enumeration_map(SQUARES))
    tracemalloc.start()
    try:
        mask = p.mask(20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(mask, np.arange(20_000) % 2 == 0)
    assert peak < 10 * 2**20


def test_predicate_not_serializable():
    with pytest.raises(ValueError):
        sd.set_to_dict(sd.Predicate(lambda n: True))


def test_operator_sugar():
    s = (EVENS | SQUARES) & ~sd.explicit(0)
    assert s.contains(4) and not s.contains(0)
    assert (EVENS - SQUARES).contains(2)
