"""Symbolic subsets of the naturals with exact density and cardinality analysis.

A :class:`SetDescription` is an immutable expression tree over ω = {0, 1, 2, …}.
Every description answers membership queries and materializes its prefix
``{n < N : n ∈ S}`` in two forms: ``enumerate_prefix(N)``, the members as a
sorted int64 array, and ``mask(N)``, a boolean array.  Each node builds the
form that fits its shape and derives the other from it.  The block families
and complements build the mask (slices, or ``~``), and their enumeration is
the mask's nonzero indices; an arithmetic progression builds both, a slice
and an ``arange``.  Explicit sets, squares, finite block lists and
predicates list their members, and their mask scatters the list; a
predicate's list is the one scalar path (``contains`` per index).  Unions,
intersections and differences build both: the masks combine with ``| & &~``
and the member lists with sorted-array set operations, so
``enumerate_prefix`` stays the sparse path.  A tree of sparse sets such as
``squares ∪ {2, 3}`` enumerates toward horizons far beyond any mask, as
enumeration maps need.  Masks are cached (prefix consumers such as level-set
sequences, membership estimates and masked row sums read them repeatedly);
enumerations are not.

``preimage(S, h)`` pulls a set back along an index map h: ω → ω, to
h⁻¹(S) = {n : h(n) ∈ S}.  It distributes over the set operations and, for an
affine h(n) = a·n + b, turns arithmetic progressions and explicit sets into
sets of the same kind; every other leaf becomes a ``Preimage`` node, whose
mask reads the leaf at h's values and which keeps exact residue-form, density
and cardinality rules under an affine h.  This is how a row-selection matrix
keeps a sequence's level sets: (A x)_n = x_{h(n)} takes the value v exactly
on h⁻¹(S_v), so ``constructions.transformed_sequence`` gives A·x the
preimages of x's level sets for the identity and rk matrices (and for no
other matrix).

``Hits`` is the set where an equidistributed sequence falls in a subinterval
of its range (``BoundedSequence.hits``): its mask reads the sequence's values,
and it states its exact density and that it meets every infinite residue
class and the squares infinitely often.

Every non-predicate description additionally supports an exact density
analysis: the asymptotic density exists and is a rational, or the set
oscillates and its exact lower/upper densities are known (block families), or
only sound interval bounds on the lower/upper densities can be derived from
the components.

The analysis backs the exact membership decisions of the ideal catalog, so the
rules here are conservative: a value is reported as exact only when it is
provable from the structure of the description.
"""

from __future__ import annotations

import bisect
import enum
import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import TYPE_CHECKING, Callable

import numpy as np

from .records import record

if TYPE_CHECKING:
    from .maps import IndexMap

__all__ = [
    "Cardinality",
    "DensityBounds",
    "SetDescription",
    "Explicit",
    "ArithmeticProgression",
    "Squares",
    "Blocks",
    "GeometricBlocks",
    "RootBlocks",
    "Union",
    "Intersection",
    "Difference",
    "Complement",
    "Predicate",
    "Preimage",
    "Hits",
    "ap",
    "evens",
    "odds",
    "omega",
    "explicit",
    "squares",
    "complement",
    "union_all",
    "preimage",
    "contains_predicate",
    "set_to_dict",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Residue-form moduli beyond this are not worth materializing.
_LCM_CAP = 10**6

# Masks kept by ``SetDescription.mask``; at a 200k horizon each takes 200 kB.
_MASK_CACHE_SIZE = 64

# ``_at_rows`` reads pointwise once the span of the rows exceeds this multiple
# of their number (a sparse image, such as that of the squares' enumeration).
_SPARSE_IMAGE_FACTOR = 16

# Rows dense in their span but far from 0 read a prefix longer than
# ``_SPARSE_IMAGE_FACTOR`` times their number only up to this length.
_FAR_PREFIX_CAP = 1 << 22


class Cardinality(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    UNKNOWN = "unknown"


@record(frozen=True)
class DensityBounds:
    """Lower/upper asymptotic density information.

    When ``exact`` is true, ``lower`` and ``upper`` are the true lower and
    upper densities of the set.  Otherwise they are sound outer bounds:
    ``lower <= d_lower(S)`` and ``d_upper(S) <= upper``.
    """

    lower: Fraction
    upper: Fraction
    exact: bool

    @property
    def has_limit(self) -> bool:
        return self.exact and self.lower == self.upper

    @property
    def value(self) -> Fraction:
        if not self.has_limit:
            raise ValueError("asymptotic density limit is not available")
        return self.lower


@record(frozen=True)
class ResidueForm:
    """Eventually periodic normal form.

    For every ``n >= start``: ``n ∈ S`` iff ``n % modulus ∈ residues``.
    Below ``start`` membership is decided by the description itself.
    """

    modulus: int
    residues: frozenset[int]
    start: int

    def lift(self, modulus: int) -> "ResidueForm":
        if modulus % self.modulus != 0:
            raise ValueError("can only lift to a multiple of the modulus")
        factor = modulus // self.modulus
        residues = frozenset(
            r + i * self.modulus for r in self.residues for i in range(factor)
        )
        return ResidueForm(modulus, residues, self.start)


class SetDescription:
    """Base class for symbolic subsets of ω.

    Every node overrides at least one of ``_enumerate`` and ``_mask``; each
    default derives its form from the other.
    """

    def contains(self, n: int) -> bool:
        raise NotImplementedError

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def enumerate_prefix(self, horizon: int) -> np.ndarray:
        """Return exactly ``{n < horizon : n ∈ S}`` as a sorted int64 array."""
        horizon = int(horizon)
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        return self._enumerate(horizon)

    def _enumerate(self, horizon: int) -> np.ndarray:
        return np.flatnonzero(self.mask(horizon))

    def mask(self, horizon: int) -> np.ndarray:
        """Read-only bool array of length ``horizon`` with ``mask[n]`` iff ``n ∈ S``."""
        return _cached_mask(self, int(horizon))

    def _mask(self, horizon: int) -> np.ndarray:
        out = np.zeros(horizon, dtype=bool)
        out[self._enumerate(horizon)] = True
        return out

    def density_bounds(self) -> DensityBounds | None:
        """Density analysis; ``None`` when a predicate blocks it."""
        return _density(self)

    def cardinality(self) -> Cardinality:
        return _cardinality(self)

    # Set algebra sugar, mirroring the usual operator conventions.
    def __or__(self, other: "SetDescription") -> "SetDescription":
        return Union(self, other)

    def __and__(self, other: "SetDescription") -> "SetDescription":
        return Intersection(self, other)

    def __sub__(self, other: "SetDescription") -> "SetDescription":
        return Difference(self, other)

    def __invert__(self) -> "SetDescription":
        return complement(self)


@record(frozen=True)
class Explicit(SetDescription):
    """A finite, explicitly listed set."""

    elements: tuple[int, ...]

    def __post_init__(self):
        elements = tuple(sorted(set(self.elements)))
        if elements and elements[0] < 0:
            raise ValueError("elements must be naturals")
        object.__setattr__(self, "elements", elements)

    def contains(self, n: int) -> bool:
        return n in self.elements

    def _enumerate(self, horizon: int) -> np.ndarray:
        return np.array(self.elements[: bisect.bisect_left(self.elements, horizon)], dtype=np.int64)


@record(frozen=True)
class ArithmeticProgression(SetDescription):
    """``{offset, offset + step, offset + 2·step, …}``."""

    offset: int
    step: int

    def __post_init__(self):
        if self.offset < 0 or self.step < 1:
            raise ValueError("need offset >= 0 and step >= 1")

    def contains(self, n: int) -> bool:
        return n >= self.offset and (n - self.offset) % self.step == 0

    def _enumerate(self, horizon: int) -> np.ndarray:
        return np.arange(self.offset, horizon, self.step, dtype=np.int64)

    def _mask(self, horizon: int) -> np.ndarray:
        out = np.zeros(horizon, dtype=bool)
        out[self.offset :: self.step] = True
        return out


@record(frozen=True)
class Squares(SetDescription):
    """The perfect squares {0, 1, 4, 9, …}."""

    def contains(self, n: int) -> bool:
        return n >= 0 and math.isqrt(n) ** 2 == n

    def _enumerate(self, horizon: int) -> np.ndarray:
        roots = math.isqrt(horizon - 1) + 1 if horizon else 0
        return np.arange(roots, dtype=np.int64) ** 2


@record(frozen=True)
class Blocks(SetDescription):
    """A finite union of half-open integer intervals ``[lo, hi)``."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ivs = tuple((int(a), int(b)) for a, b in self.intervals)
        for a, b in ivs:
            if a < 0 or b <= a:
                raise ValueError(f"bad interval [{a}, {b})")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 < b0:
                raise ValueError("intervals must be sorted and disjoint")
        object.__setattr__(self, "intervals", ivs)

    def contains(self, n: int) -> bool:
        return any(a <= n < b for a, b in self.intervals)

    def _enumerate(self, horizon: int) -> np.ndarray:
        runs = [np.arange(a, min(b, horizon), dtype=np.int64) for a, b in self.intervals if a < horizon]
        return np.concatenate(runs) if runs else np.zeros(0, dtype=np.int64)


@record(frozen=True)
class GeometricBlocks(SetDescription):
    """Exponential block family ``∪ { [base^i, base^(i+1)) : i ≡ residue (mod modulus) }``.

    The counting ratio oscillates between the exact lower density
    ``(base−1)/(base^modulus − 1)`` (just before an included block starts) and
    the exact upper density ``(base−1)·base^(modulus−1)/(base^modulus − 1)``
    (at the end of an included block).  Note 0 is never a member.
    """

    base: int
    residue: int
    modulus: int

    def __post_init__(self):
        if self.base < 2 or self.modulus < 2 or not 0 <= self.residue < self.modulus:
            raise ValueError("need base >= 2, modulus >= 2, 0 <= residue < modulus")

    def _exponent(self, n: int) -> int:
        """The e with base^e <= n < base^(e+1), for n >= 1."""
        if self.base == 2:
            return n.bit_length() - 1
        # The float logarithm may round across a power of the base; one step fixes it.
        e = int(math.log(n, self.base))
        p = self.base**e
        if p > n:
            return e - 1
        return e + 1 if p * self.base <= n else e

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        return self._exponent(n) % self.modulus == self.residue

    def _mask(self, horizon: int) -> np.ndarray:
        out = np.zeros(horizon, dtype=bool)
        i = self.residue
        while self.base**i < horizon:
            out[self.base**i : self.base ** (i + 1)] = True
            i += self.modulus
        return out

    def exact_bounds(self) -> tuple[Fraction, Fraction]:
        b, m = self.base, self.modulus
        lower = Fraction(b - 1, b**m - 1)
        upper = Fraction((b - 1) * b ** (m - 1), b**m - 1)
        return lower, upper


@record(frozen=True)
class RootBlocks(SetDescription):
    """Square-root block family ``{n : isqrt(n) ≡ residue (mod modulus)}``.

    Block lengths grow like 2·isqrt(n), so the set has exact asymptotic
    density ``1/modulus`` while still containing arbitrarily long runs.
    """

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2 or not 0 <= self.residue < self.modulus:
            raise ValueError("need modulus >= 2, 0 <= residue < modulus")

    def contains(self, n: int) -> bool:
        return n >= 0 and math.isqrt(n) % self.modulus == self.residue

    def _mask(self, horizon: int) -> np.ndarray:
        out = np.zeros(horizon, dtype=bool)
        i = self.residue
        while i * i < horizon:
            out[i * i : (i + 1) * (i + 1)] = True
            i += self.modulus
        return out


@record(frozen=True)
class Union(SetDescription):
    left: SetDescription
    right: SetDescription

    def contains(self, n: int) -> bool:
        return self.left.contains(n) or self.right.contains(n)

    def _enumerate(self, horizon: int) -> np.ndarray:
        left, right = self.left.enumerate_prefix(horizon), self.right.enumerate_prefix(horizon)
        return _distinct(np.concatenate((left, right)))

    def _mask(self, horizon: int) -> np.ndarray:
        return self.left.mask(horizon) | self.right.mask(horizon)


@record(frozen=True)
class Intersection(SetDescription):
    left: SetDescription
    right: SetDescription

    def contains(self, n: int) -> bool:
        return self.left.contains(n) and self.right.contains(n)

    def _enumerate(self, horizon: int) -> np.ndarray:
        left, right = self.left.enumerate_prefix(horizon), self.right.enumerate_prefix(horizon)
        return np.intersect1d(left, right, assume_unique=True)

    def _mask(self, horizon: int) -> np.ndarray:
        return self.left.mask(horizon) & self.right.mask(horizon)


@record(frozen=True)
class Difference(SetDescription):
    left: SetDescription
    right: SetDescription

    def contains(self, n: int) -> bool:
        return self.left.contains(n) and not self.right.contains(n)

    def _enumerate(self, horizon: int) -> np.ndarray:
        left, right = self.left.enumerate_prefix(horizon), self.right.enumerate_prefix(horizon)
        return np.setdiff1d(left, right, assume_unique=True)

    def _mask(self, horizon: int) -> np.ndarray:
        return self.left.mask(horizon) & ~self.right.mask(horizon)


@record(frozen=True)
class Complement(SetDescription):
    inner: SetDescription

    def contains(self, n: int) -> bool:
        return not self.inner.contains(n)

    def _mask(self, horizon: int) -> np.ndarray:
        return ~self.inner.mask(horizon)


@record(frozen=True, eq=False)
class Predicate(SetDescription):
    """Membership given only by a total function; no exact density derivable."""

    fn: Callable[[int], bool]
    name: str = "predicate"

    def contains(self, n: int) -> bool:
        return bool(self.fn(n))

    def _enumerate(self, horizon: int) -> np.ndarray:
        return np.fromiter((n for n in range(horizon) if self.contains(n)), dtype=np.int64)


@record(frozen=True)
class Preimage(SetDescription):
    """``h⁻¹(inner) = {n : h(n) ∈ inner}`` for an index map h (``preimage`` builds it).

    The mask reads ``inner`` at h(0) … h(H−1) (``_at_rows``), so a sparse
    image never makes a mask that reaches the largest of them.
    """

    inner: SetDescription
    h: "IndexMap"

    def contains(self, n: int) -> bool:
        return self.inner.contains(self.h(n))

    def _mask(self, horizon: int) -> np.ndarray:
        return _at_rows(self.h.prefix(horizon), self.inner.mask, self.inner.contains, bool)


@record(frozen=True)
class Hits(SetDescription):
    """``{n : lo <= x_n < hi}`` for a sequence x that declares itself
    equidistributed on ``span`` = [start, stop) along every integer-polynomial
    subsequence (``BoundedSequence.equidistributed``), with
    start <= lo < hi <= stop; ``values`` is x's index rule.

    Along every polynomial subsequence p(0), p(1), … the share of hits tends
    to (hi − lo)/(stop − start).  So the set has that exact density, and it
    meets every infinite residue class (a linear polynomial) and the squares
    infinitely often.  These facts read only that hi > lo: every rule decides
    the hit sets of all subintervals of the span alike.
    """

    values: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    span: tuple[float, float]

    def __post_init__(self):
        start, stop = self.span
        if not start <= self.lo < self.hi <= stop:
            raise ValueError(f"[{self.lo}, {self.hi}) is not a subinterval of [{start}, {stop})")

    def contains(self, n: int) -> bool:
        return self.lo <= float(self.values(np.array([n], dtype=np.int64))[0]) < self.hi

    def _mask(self, horizon: int) -> np.ndarray:
        values = self.values(np.arange(horizon, dtype=np.int64))
        return (values >= self.lo) & (values < self.hi)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: a sort and a mask of the first of each
    run.  ``np.unique`` (and ``np.union1d``, which calls it) hashes in numpy
    2.4: the union of ``GeometricBlocks(2, 1, 2)`` and {0} below 2²⁰, 699 051
    members, took 0.74 s there against 11 ms here, on a 2-vCPU machine."""
    ascending = np.sort(values)
    first = np.ones(ascending.size, dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=first[1:])
    return ascending[first]


def _at_rows(rows: np.ndarray, prefix: Callable, point: Callable, dtype) -> np.ndarray:
    """``prefix(support)[rows]``, where support is 1 + the largest row.

    When the rows are sparse (e.g. the image of the squares) their span, from
    the smallest to the largest, far exceeds their count, so ``point(n)`` is
    read per row instead of a prefix that long.  Rows dense in their span
    but far from 0, such as the indices that grow a prefix by a little, read
    the prefix up to them when it is at most ``_FAR_PREFIX_CAP`` long, and
    per row beyond, so a far shift such as n ↦ n + 10⁹ builds no such
    prefix.  A contiguous ascending run [a, b) is a copy of the slice
    ``prefix(b)[a:b]``.
    """
    if not rows.size:
        return prefix(0)[rows]
    lo, hi = int(rows.min()), int(rows.max())
    dense = _SPARSE_IMAGE_FACTOR * rows.size
    if hi - lo + 1 > dense or hi >= max(dense, _FAR_PREFIX_CAP):
        return np.fromiter((point(n) for n in rows.tolist()), dtype=dtype, count=rows.size)
    if hi - lo + 1 == rows.size and not np.count_nonzero(rows[1:] <= rows[:-1]):
        return prefix(hi + 1)[lo:].copy()
    return prefix(hi + 1)[rows]


# ---------------------------------------------------------------------------
# Construction helpers


def ap(offset: int, step: int) -> ArithmeticProgression:
    return ArithmeticProgression(offset, step)


def evens() -> ArithmeticProgression:
    return ArithmeticProgression(0, 2)


def odds() -> ArithmeticProgression:
    return ArithmeticProgression(1, 2)


def omega() -> ArithmeticProgression:
    return ArithmeticProgression(0, 1)


def explicit(*elements: int) -> Explicit:
    return Explicit(tuple(elements))


def squares() -> Squares:
    return Squares()


def complement(s: SetDescription) -> SetDescription:
    """Complement with double-negation elimination."""
    if isinstance(s, Complement):
        return s.inner
    return Complement(s)


def union_all(sets: list[SetDescription]) -> SetDescription:
    if not sets:
        return Explicit(())
    out = sets[0]
    for s in sets[1:]:
        out = Union(out, s)
    return out


def preimage(s: SetDescription, h: "IndexMap") -> SetDescription:
    """``h⁻¹(S) = {n : h(n) ∈ S}``.

    Distributes over unions, intersections, differences and complements.
    ω pulls back to ω along every h.  Under an affine h(n) = a·n + b
    (``h.affine``) the identity returns S, an arithmetic progression becomes
    one (or the empty set) and an explicit set its solutions; every other leaf
    becomes a ``Preimage`` node.
    """
    if h.affine == (1, 0) or s == omega():
        return s
    if isinstance(s, (Union, Intersection, Difference)):
        return type(s)(preimage(s.left, h), preimage(s.right, h))
    if isinstance(s, Complement):
        return complement(preimage(s.inner, h))
    if h.affine is not None:
        a, b = h.affine
        if isinstance(s, Explicit):
            return Explicit(tuple((e - b) // a for e in s.elements if e >= b and (e - b) % a == 0))
        if isinstance(s, ArithmeticProgression):
            return _affine_preimage_of_ap(s, a, b)
    return Preimage(s, h)


def _affine_preimage_of_ap(s: ArithmeticProgression, a: int, b: int) -> SetDescription:
    """``{n : a·n + b ∈ s}``: the n >= ceil((offset − b)/a) that solve
    a·n ≡ offset − b (mod step), an arithmetic progression of step step/g
    where g = gcd(a, step), or the empty set when g does not divide offset − b."""
    g = math.gcd(a, s.step)
    if (s.offset - b) % g:
        return Explicit(())
    step = s.step // g
    root = (s.offset - b) // g * pow(a // g, -1, step) % step
    lo = max(0, -((b - s.offset) // a))
    return ArithmeticProgression(lo + (root - lo) % step, step)


def contains_predicate(s: SetDescription) -> bool:
    """True when a Predicate leaf blocks exact analysis anywhere in the tree."""
    if isinstance(s, Predicate):
        return True
    if isinstance(s, (Union, Intersection, Difference)):
        return contains_predicate(s.left) or contains_predicate(s.right)
    if isinstance(s, (Complement, Preimage)):
        return contains_predicate(s.inner)
    return False


# ---------------------------------------------------------------------------
# Mask cache


@lru_cache(maxsize=_MASK_CACHE_SIZE)
def _cached_mask(s: SetDescription, horizon: int) -> np.ndarray:
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    out = s._mask(horizon)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Residue normal forms

# The residue-form, density and cardinality analyses are pure functions of a
# frozen tree, and each recurses into its subtrees: a bounded cache per
# analysis answers a subtree that an earlier query (or the same one, through
# another analysis) has already analysed.
_ANALYSIS_CACHE_SIZE = 4096


@lru_cache(maxsize=_ANALYSIS_CACHE_SIZE)
def _residue_form(s: SetDescription) -> ResidueForm | None:
    if isinstance(s, Explicit):
        start = (max(s.elements) + 1) if s.elements else 0
        return ResidueForm(1, frozenset(), start)
    if isinstance(s, Blocks):
        start = max((b for _, b in s.intervals), default=0)
        return ResidueForm(1, frozenset(), start)
    if isinstance(s, ArithmeticProgression):
        return ResidueForm(s.step, frozenset({s.offset % s.step}), s.offset)
    if isinstance(s, Complement):
        rf = _residue_form(s.inner)
        if rf is None:
            return None
        return ResidueForm(rf.modulus, frozenset(range(rf.modulus)) - rf.residues, rf.start)
    if isinstance(s, (Union, Intersection, Difference)):
        ra = _residue_form(s.left)
        rb = _residue_form(s.right)
        if ra is None or rb is None:
            return None
        m = math.lcm(ra.modulus, rb.modulus)
        if m > _LCM_CAP:
            return None
        ra, rb = ra.lift(m), rb.lift(m)
        if isinstance(s, Union):
            residues = ra.residues | rb.residues
        elif isinstance(s, Intersection):
            residues = ra.residues & rb.residues
        else:
            residues = ra.residues - rb.residues
        return ResidueForm(m, residues, max(ra.start, rb.start))
    if isinstance(s, Preimage) and s.h.affine is not None:
        rf = _residue_form(s.inner)
        if rf is None:
            return None
        # For n >= start', h(n) = a·n + b >= start, where the inner form holds.
        a, b = s.h.affine
        residues = frozenset(r for r in range(rf.modulus) if (a * r + b) % rf.modulus in rf.residues)
        return ResidueForm(rf.modulus, residues, max(0, -((b - rf.start) // a)))
    return None


# ---------------------------------------------------------------------------
# Density analysis


def _bounds(lower: Fraction, upper: Fraction, exact: bool) -> DensityBounds:
    return DensityBounds(lower, upper, exact)


def _is_null(d: DensityBounds | None) -> bool:
    return d is not None and d.upper == 0


def _is_full(d: DensityBounds | None) -> bool:
    return d is not None and d.lower == 1


@lru_cache(maxsize=_ANALYSIS_CACHE_SIZE)
def _density(s: SetDescription) -> DensityBounds | None:
    rf = _residue_form(s)
    if rf is not None:
        d = Fraction(len(rf.residues), rf.modulus)
        return _bounds(d, d, True)
    if isinstance(s, Squares):
        return _bounds(_ZERO, _ZERO, True)
    if isinstance(s, GeometricBlocks):
        lower, upper = s.exact_bounds()
        return _bounds(lower, upper, True)
    if isinstance(s, RootBlocks):
        d = Fraction(1, s.modulus)
        return _bounds(d, d, True)
    if isinstance(s, Hits):
        start, stop = s.span
        d = (Fraction(s.hi) - Fraction(s.lo)) / (Fraction(stop) - Fraction(start))
        return _bounds(d, d, True)
    if isinstance(s, Complement):
        d = _density(s.inner)
        if d is None:
            return None
        return _bounds(_ONE - d.upper, _ONE - d.lower, d.exact)
    if isinstance(s, Union):
        da, db = _density(s.left), _density(s.right)
        if da is None or db is None:
            return None
        # A symmetric difference with a null set leaves both densities intact.
        if _is_null(db):
            return da
        if _is_null(da):
            return db
        if _is_full(da) or _is_full(db):
            return _bounds(_ONE, _ONE, True)
        return _bounds(max(da.lower, db.lower), min(_ONE, da.upper + db.upper), False)
    if isinstance(s, Intersection):
        da, db = _density(s.left), _density(s.right)
        if da is None or db is None:
            return None
        if _is_null(da) or _is_null(db):
            return _bounds(_ZERO, _ZERO, True)
        if _is_full(db):
            return da
        if _is_full(da):
            return db
        return _bounds(max(_ZERO, da.lower + db.lower - 1), min(da.upper, db.upper), False)
    if isinstance(s, Difference):
        da, db = _density(s.left), _density(s.right)
        if da is None or db is None:
            return None
        if _is_null(db):
            return da
        if _is_null(da) or _is_full(db):
            return _bounds(_ZERO, _ZERO, True)
        return _bounds(max(_ZERO, da.lower - db.upper), min(da.upper, _ONE - db.lower), False)
    if isinstance(s, Preimage):
        d = _density(s.inner)
        if d is None:
            return None
        if s.h.affine is None:
            return _bounds(_ZERO, _ONE, False)
        if _has_long_runs(s.inner):
            # A run of length L holds L/a values of a·n + b, up to one, and S
            # has o(N) runs below a·N + b, so {n < N : a·n + b ∈ S} counts
            # |S ∩ [0, a·N)|/a + o(N): the ratios of S read at multiples of
            # a, with the same extremes.
            return d
        # {n < N : a·n + b ∈ S} has at most |S ∩ [0, a·N + b)| members.
        upper = min(_ONE, s.h.affine[0] * d.upper)
        return _bounds(_ZERO, upper, upper == 0)
    return None


# ---------------------------------------------------------------------------
# Cardinality analysis


def _is_block_family(s: SetDescription) -> bool:
    """The block families and their complements, whose blocks [b^i, b^(i+1))
    or [k², (k+1)²) are those of the other residues."""
    if isinstance(s, Complement):
        s = s.inner
    return isinstance(s, (GeometricBlocks, RootBlocks))


def _has_long_runs(s: SetDescription) -> bool:
    """True when the set and its complement are unions of o(N) runs below N
    whose lengths grow without bound: the block families, their complements
    and their preimages under affine maps, which divide each run by the
    multiplier."""
    if isinstance(s, Complement):
        s = s.inner
    if isinstance(s, Preimage) and s.h.affine is not None:
        return _has_long_runs(s.inner)
    return _is_block_family(s)


def _squares_hit_residues(rf: ResidueForm) -> bool:
    return any((x * x) % rf.modulus in rf.residues for x in range(rf.modulus))


@lru_cache(maxsize=_ANALYSIS_CACHE_SIZE)
def _cardinality(s: SetDescription) -> Cardinality:
    rf = _residue_form(s)
    if rf is not None:
        return Cardinality.INFINITE if rf.residues else Cardinality.FINITE
    d = _density(s)
    if d is not None and d.lower > 0:
        return Cardinality.INFINITE
    if isinstance(s, (Squares, GeometricBlocks, RootBlocks)):
        return Cardinality.INFINITE
    if isinstance(s, (Explicit, Blocks)):
        return Cardinality.FINITE
    if isinstance(s, Complement):
        if _cardinality(s.inner) is Cardinality.FINITE:
            return Cardinality.INFINITE
        if isinstance(s.inner, Preimage):  # (h⁻¹ X)ᶜ = h⁻¹(Xᶜ)
            return _preimage_cardinality(Preimage(complement(s.inner.inner), s.inner.h))
        return Cardinality.UNKNOWN
    if isinstance(s, Union):
        ca, cb = _cardinality(s.left), _cardinality(s.right)
        if Cardinality.INFINITE in (ca, cb):
            return Cardinality.INFINITE
        if ca is cb is Cardinality.FINITE:
            return Cardinality.FINITE
        return Cardinality.UNKNOWN
    if isinstance(s, Difference):
        return _cardinality(Intersection(s.left, complement(s.right)))
    if isinstance(s, Intersection):
        return _intersection_cardinality(s.left, s.right)
    if isinstance(s, Preimage):
        return _preimage_cardinality(s)
    return Cardinality.UNKNOWN


def _preimage_cardinality(s: Preimage) -> Cardinality:
    if s.h.injective and _cardinality(s.inner) is Cardinality.FINITE:
        return Cardinality.FINITE
    if s.h.affine is None:
        return Cardinality.UNKNOWN
    a, b = s.h.affine
    # A run longer than a holds a value of a·n + b, and the runs grow without bound.
    if _has_long_runs(s.inner):
        return Cardinality.INFINITE
    # a·n + b = k² has a solution n >= 0 for infinitely many k iff r² ≡ b (mod a) for some r.
    if isinstance(s.inner, Squares):
        return Cardinality.INFINITE if any((r * r - b) % a == 0 for r in range(a)) else Cardinality.FINITE
    return Cardinality.UNKNOWN


def _intersection_factors(s: SetDescription) -> list[SetDescription]:
    if isinstance(s, Intersection):
        return _intersection_factors(s.left) + _intersection_factors(s.right)
    return [s]


def _power_root(base: int) -> tuple[int, int]:
    """(c, k) with base = c**k and k as large as it goes."""
    for k in range(base.bit_length() - 1, 1, -1):
        c = round(base ** (1.0 / k))
        for root in (c - 1, c, c + 1):
            if root >= 2 and root**k == base:
                return root, k
    return base, 1


def _intersection_cardinality(a: SetDescription, b: SetDescription) -> Cardinality:
    ca, cb = _cardinality(a), _cardinality(b)
    if Cardinality.FINITE in (ca, cb):
        return Cardinality.FINITE
    if a == b:
        return ca
    # Flatten nested intersections and combine the residue-form factors, so
    # chains like odds ∩ evens ∩ X come out finite regardless of X; a factor
    # next to its own complement makes the intersection empty.
    factors = _intersection_factors(a) + _intersection_factors(b)
    if any(isinstance(f, Complement) and f.inner in factors for f in factors):
        return Cardinality.FINITE
    combined: ResidueForm | None = None
    rest: list[SetDescription] = []
    for f in factors:
        rf = _residue_form(f)
        if rf is None:
            rest.append(f)
            continue
        if combined is None:
            combined = rf
        else:
            m = math.lcm(combined.modulus, rf.modulus)
            if m > _LCM_CAP:
                rest.append(f)
                continue
            lifted_a, lifted_b = combined.lift(m), rf.lift(m)
            combined = ResidueForm(
                m, lifted_a.residues & lifted_b.residues, max(lifted_a.start, lifted_b.start)
            )
    if combined is not None:
        if not combined.residues:
            return Cardinality.FINITE
        if not rest:
            return Cardinality.INFINITE
        if len(rest) == 1:
            y = rest[0]
            # Residue-class tails meet every set with unbounded runs, and hold
            # hits of an equidistributed sequence with positive density.
            if _has_long_runs(y) or isinstance(y, Hits):
                return Cardinality.INFINITE
            if isinstance(y, Squares):
                return Cardinality.INFINITE if _squares_hit_residues(combined) else Cardinality.FINITE
    # A root block [k², (k+1)²) starts at a square, a geometric block is
    # longer than the gaps 2k + 1 between the squares near it, and the squares
    # are a polynomial subsequence, along which hits have positive density.
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Squares) and (_is_block_family(y) or isinstance(y, Hits)):
            return Cardinality.INFINITE
    # Root blocks meet exactly in the blocks whose index solves both
    # congruences, infinitely many by the CRT or none.
    if isinstance(a, RootBlocks) and isinstance(b, RootBlocks):
        solvable = (a.residue - b.residue) % math.gcd(a.modulus, b.modulus) == 0
        return Cardinality.INFINITE if solvable else Cardinality.FINITE
    # Geometric blocks whose bases are powers of one base c are sets of base-c
    # exponents: exponent e of base c^k covers the base-c exponents
    # ke … ke+k−1, so a family (c^k, r, m) is the k families of base c with
    # modulus km and residues kr … kr+k−1.  Two families meet iff one residue
    # of each agrees modulo the gcd of their moduli (the CRT).
    if isinstance(a, GeometricBlocks) and isinstance(b, GeometricBlocks):
        (ca, ka), (cb, kb) = _power_root(a.base), _power_root(b.base)
        if ca == cb:
            g = math.gcd(ka * a.modulus, kb * b.modulus)
            residues_a = {(ka * a.residue + j) % g for j in range(ka)}
            solvable = any((kb * b.residue + j) % g in residues_a for j in range(kb))
            return Cardinality.INFINITE if solvable else Cardinality.FINITE
    # Distribute over a union factor: (U ∪ V) ∩ X = (U ∩ X) ∪ (V ∩ X).  Each
    # step removes one union node, so the recursion ends.
    for i, f in enumerate(factors):
        if isinstance(f, Union):
            others = factors[:i] + factors[i + 1 :]
            return _cardinality(Union(*(reduce(Intersection, others, part) for part in (f.left, f.right))))
    return Cardinality.UNKNOWN


# ---------------------------------------------------------------------------
# JSON encoding (tagged union; Predicate sets are deliberately not serializable).
# ``specs.parse_set`` decodes it.


def set_to_dict(s: SetDescription) -> dict:
    if isinstance(s, Explicit):
        return {"type": "explicit", "elements": list(s.elements)}
    if isinstance(s, ArithmeticProgression):
        return {"type": "arithmetic_progression", "offset": s.offset, "step": s.step}
    if isinstance(s, Squares):
        return {"type": "squares"}
    if isinstance(s, Blocks):
        return {"type": "blocks", "intervals": [list(iv) for iv in s.intervals]}
    if isinstance(s, GeometricBlocks):
        return {"type": "geometric_blocks", "base": s.base, "residue": s.residue, "modulus": s.modulus}
    if isinstance(s, RootBlocks):
        return {"type": "root_blocks", "residue": s.residue, "modulus": s.modulus}
    if isinstance(s, Union):
        return {"type": "union", "left": set_to_dict(s.left), "right": set_to_dict(s.right)}
    if isinstance(s, Intersection):
        return {"type": "intersection", "left": set_to_dict(s.left), "right": set_to_dict(s.right)}
    if isinstance(s, Difference):
        return {"type": "difference", "left": set_to_dict(s.left), "right": set_to_dict(s.right)}
    if isinstance(s, Complement):
        return {"type": "complement", "of": set_to_dict(s.inner)}
    raise ValueError(f"{type(s).__name__} has no JSON encoding")
