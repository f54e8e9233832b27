"""Bounded real sequences as lazy total functions, plus the standard test corpus.

A :class:`BoundedSequence` carries a declared sup-norm bound (violations are
test failures, never silently clamped) and, when the sequence takes finitely
many values on symbolically described index sets, an optional level-set map
``value -> SetDescription``.  Level sets are what make exact core computations
possible downstream.

A sequence that converges may declare its exact ``limit`` L together with an
``envelope`` r(n), nonincreasing to 0, with |x_n − L| <= r(n) for every n;
``validate_limit`` checks both on a prefix.  Every catalog ideal contains Fin,
so such a sequence has core {L} under each of them, and ``asymptotics`` reads
that core off the declared limit, before any prefix or level set.  ``affine``
and ``combine`` carry limits and envelopes, and
``constructions.transformed_sequence`` gives A·x the limit that a theorem
fixes (there with no envelope).  The corpus entry ``alternating_decay``
declares limit 0 with envelope 1/(n+1).

A sequence may instead declare that it is ``equidistributed`` on [lo, hi)
along every integer-polynomial subsequence, as ``rotation_golden`` is on
[0, 1) by Weyl's theorem.  Its hit sets {n : a <= x_n < b}
(``BoundedSequence.hits``, ``sets.Hits``) then have the exact density
(b − a)/(hi − lo) and meet every infinite residue class and the squares
infinitely often, so ``asymptotics`` reads its core [lo, hi] off one hit
set's decision; ``constructions.transformed_sequence`` keeps the declaration
through rk(h) with h affine and gives Cesàro·x the limit (lo + hi)/2, and
``affine`` with mul > 0 moves it to the image range.

``BoundedSequence.at`` is the one index read: the values at an int64 index
array, in any order and with repeats.  A sequence with a closed form states
it pointwise as its ``rule`` (indices -> values): the corpus's closed forms,
``indicator`` (its set's mask read at the indices) and the pointwise
``affine``/``combine`` operations, which read their operands with ``at``.  A
sequence that states no rule but carries level sets free of predicates gets
one from them (``_level_rule``): ``out[S ∋ n] = value`` per level, each set
read at the indices through ``sets._at_rows``, after checking that the level
sets partition the indices read.  A sequence without a rule is read through
``sets._at_rows``: a gather from its prefix, or ``fn`` per index when the
indices are sparse.

``BoundedSequence.prefix`` materializes ``x_0 … x_{H-1}`` and keeps it; a
longer prefix extends the kept one.  Both routes are bit-identical to calling
``fn`` per index:

* ``at`` on the new indices when the sequence has a rule (a contiguous run,
  so an ``indicator`` or a level set reads a slice of its mask);
* otherwise the scalar path, ``fn`` per index from the kept length on.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import sets as sd
from .records import field, record
from .sets import SetDescription

__all__ = [
    "BoundedSequence",
    "OverlapError",
    "LevelSetError",
    "indicator",
    "signed_indicator",
    "affine",
    "combine",
    "corpus",
    "corpus_entry",
]

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class OverlapError(ValueError):
    """Raised when the two parts of a signed indicator share an element."""


class LevelSetError(ValueError):
    """Raised when the level sets of a sequence do not partition a prefix."""


@record(eq=False)
class BoundedSequence:
    """A total map ω → ℝ with declared bound ``|x_n| <= bound`` and a label.

    ``rule``, when given, maps an int64 index array to a new float64 array of
    the values ``fn`` gives at those indices, bit for bit; a sequence whose
    level sets hold no predicate has one from them when none is given.
    ``limit``, when given, is the exact limit L of x_n;
    ``envelope``, when given, maps a horizon H to r(0) … r(H-1), a bound
    |x_n − L| <= r(n) that decreases to 0.  A declared limit comes with its
    envelope; a limit derived from how the sequence was built may have none.
    ``equidistributed``, when given, is an interval [lo, hi) that holds every
    value and on which x is equidistributed along every integer-polynomial
    subsequence p(0), p(1), …; its hit sets (``hits``) read the values
    through ``rule``, which it needs.
    """

    fn: Callable[[int], float]
    bound: float
    label: str
    level_sets: tuple[tuple[float, SetDescription], ...] | None = None
    rule: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    limit: float | None = None
    envelope: Callable[[int], np.ndarray] | None = field(default=None, repr=False)
    equidistributed: tuple[float, float] | None = None
    _cache: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be nonnegative")
        if self.envelope is not None and self.limit is None:
            raise ValueError("an envelope needs a limit")
        if self.rule is None and self.level_sets is not None and not any(
            sd.contains_predicate(s) for _, s in self.level_sets
        ):
            self.rule = _level_rule(self.level_sets, self.label)
        if self.equidistributed is not None:
            lo, hi = self.equidistributed
            if self.rule is None:
                raise ValueError("an equidistribution needs a rule")
            if not -self.bound <= lo < hi <= self.bound:
                raise ValueError(f"equidistribution range [{lo}, {hi}) is empty or exceeds the bound")

    def __call__(self, n: int) -> float:
        return float(self.fn(n))

    def at(self, ns: np.ndarray) -> np.ndarray:
        """Values x_n at the int64 indices ``ns``: the rule where there is one,
        else a gather from the prefix, or ``fn`` per index when the indices
        are sparse (``sets._at_rows``)."""
        ns = np.asarray(ns, dtype=np.int64)
        if self.rule is not None:
            return np.asarray(self.rule(ns), dtype=np.float64)
        return sd._at_rows(ns, self.prefix, self.fn, np.float64)

    def prefix(self, horizon: int) -> np.ndarray:
        """Values ``x_0 … x_{horizon-1}``; cached and grown monotonically."""
        cache = self._cache
        if cache is None or len(cache) < horizon:
            start = 0 if cache is None else len(cache)
            if self.rule is not None:
                arr = self.at(np.arange(start, horizon))
            else:
                arr = np.fromiter(
                    (self.fn(n) for n in range(start, horizon)), dtype=np.float64, count=horizon - start
                )
            if start:
                arr = np.concatenate((cache, arr))
            arr.setflags(write=False)
            self._cache = arr
        return self._cache[:horizon]

    def validate_limit(self, horizon: int = 10_000) -> None:
        """Check the declared limit and envelope on a prefix: r is finite,
        nonnegative and nonincreasing, and |x_n − L| <= r(n) up to a few ulps
        of rounding; raises ``ValueError`` on a counterexample."""
        if self.envelope is None:
            return
        r = np.asarray(self.envelope(horizon), dtype=np.float64)
        if r.shape != (horizon,) or not np.all(np.isfinite(r)) or np.any(r < 0.0):
            raise ValueError(f"{self.label}: envelope is not a finite nonnegative prefix")
        if np.any(r[1:] > r[:-1]):
            raise ValueError(f"{self.label}: envelope increases at {int(np.argmax(r[1:] > r[:-1])) + 1}")
        values = self.prefix(horizon)
        # A derived sequence (``affine``, ``combine``) carries the rounding of
        # the operations that built its values and its limit.
        slack = 4.0 * np.finfo(np.float64).eps * (np.abs(values) + abs(self.limit))
        outside = np.flatnonzero(np.abs(values - self.limit) > r + slack)
        if outside.size:
            raise ValueError(f"{self.label}: |x_n - {self.limit}| exceeds the envelope at n = {outside[0]}")

    def seed_prefix(self, values: np.ndarray) -> "BoundedSequence":
        """Keep ``values``, a new float64 array of x_0 … x_{H-1} that the
        caller hands over, as the prefix cache: made read-only, not copied."""
        arr = np.asarray(values, dtype=np.float64)
        arr.setflags(write=False)
        if self._cache is None or len(self._cache) < len(arr):
            self._cache = arr
        return self

    def hits(self, lo: float, hi: float) -> SetDescription:
        """``{n : lo <= x_n < hi}`` for [lo, hi) inside the declared
        equidistribution range, with its exact density (``sets.Hits``)."""
        return sd.Hits(self.rule, lo, hi, self.equidistributed)

    @property
    def structured(self) -> bool:
        return self.level_sets is not None


def indicator(s: SetDescription, label: str | None = None) -> BoundedSequence:
    """Characteristic sequence of the set: 1 on S, 0 elsewhere."""
    levels = ((1.0, s), (0.0, sd.complement(s)))
    return BoundedSequence(
        fn=lambda n: 1.0 if s.contains(n) else 0.0,
        bound=1.0,
        label=label or "indicator",
        level_sets=levels,
        rule=lambda ns: sd._at_rows(ns, s.mask, s.contains, bool).astype(np.float64),
    )


def _level_rule(
    levels: tuple[tuple[float, SetDescription], ...], label: str
) -> Callable[[np.ndarray], np.ndarray]:
    """The rule of a sequence given by its level sets: value v where S_v holds
    the index, each set read at the indices (``sets._at_rows``); raises
    :class:`LevelSetError` unless the sets partition the indices read."""

    def rule(ns: np.ndarray) -> np.ndarray:
        out = np.full(ns.size, np.nan)
        covered = 0
        for value, level_set in levels:
            hit = sd._at_rows(ns, level_set.mask, level_set.contains, bool)
            out[hit] = value
            covered += int(np.count_nonzero(hit))
        if covered != ns.size or np.isnan(out).any():
            raise LevelSetError(f"{label}: level sets do not partition the indices read")
        return out

    return rule


def signed_indicator(
    f: SetDescription,
    g: SetDescription,
    label: str | None = None,
    check_horizon: int = 10_000,
    zero_set: SetDescription | None = None,
) -> BoundedSequence:
    """+1 on F, −1 on G, 0 elsewhere.  F and G must be disjoint.

    Disjointness is verified on the prefix below ``check_horizon``; a common
    element raises :class:`OverlapError`.  ``zero_set`` may name the
    complement of F ∪ G symbolically when the caller knows a sharper
    description than the generic complement node.
    """
    common = np.flatnonzero(f.mask(check_horizon) & g.mask(check_horizon))
    if common.size:
        raise OverlapError(f"sets share element {common[0]}")
    zero = zero_set if zero_set is not None else sd.complement(sd.Union(f, g))
    levels = ((1.0, f), (-1.0, g), (0.0, zero))

    def fn(n: int) -> float:
        if f.contains(n):
            return 1.0
        if g.contains(n):
            return -1.0
        return 0.0

    return BoundedSequence(fn=fn, bound=1.0, label=label or "signed_indicator", level_sets=levels)


def affine(x: BoundedSequence, mul: float, add: float, label: str | None = None) -> BoundedSequence:
    """Pointwise ``mul * x_n + add``; the declared bound follows the triangle
    inequality, and a limit L and envelope r become mul·L + add and |mul|·r.

    An equidistribution on [lo, hi) moves to [mul·lo + add, mul·hi + add) when
    mul > 0 and the largest float below hi maps below mul·hi + add: rounding
    is monotone, so then no value maps onto the open end.  For mul < 0 the
    image is open at its lower end, and the sequence is read by its values."""
    levels = limit = envelope = equidistributed = None
    if x.equidistributed is not None and mul > 0.0:
        lo, hi = x.equidistributed
        if mul * np.nextafter(hi, -np.inf) + add < mul * hi + add:
            equidistributed = (mul * lo + add, mul * hi + add)
    if x.limit is not None:
        limit = mul * x.limit + add
        if x.envelope is not None:
            envelope = lambda horizon: abs(mul) * x.envelope(horizon)
    if x.level_sets is not None:
        if mul == 0.0:
            levels = ((float(add), sd.omega()),)
        else:
            levels = tuple((mul * v + add, s) for v, s in x.level_sets)
    return BoundedSequence(
        fn=lambda n: mul * x.fn(n) + add,
        bound=abs(mul) * x.bound + abs(add),
        label=label or f"{mul}*{x.label}+{add}",
        level_sets=levels,
        rule=lambda ns: mul * x.at(ns) + add,
        limit=limit,
        envelope=envelope,
        equidistributed=equidistributed,
    )


def combine(x: BoundedSequence, y: BoundedSequence, op: str, label: str | None = None) -> BoundedSequence:
    """Pointwise sum or difference; level sets, limits and envelopes compose
    when both sides have them."""
    if op not in ("add", "sub"):
        raise ValueError("op must be 'add' or 'sub'")
    sign = 1.0 if op == "add" else -1.0
    levels = None
    if x.level_sets is not None and y.level_sets is not None:
        merged: dict[float, list[SetDescription]] = {}
        for vx, sx in x.level_sets:
            for vy, sy in y.level_sets:
                merged.setdefault(vx + sign * vy, []).append(sd.Intersection(sx, sy))
        levels = tuple(sorted((v, sd.union_all(parts)) for v, parts in merged.items()))
    limit = envelope = None
    if x.limit is not None and y.limit is not None:
        limit = x.limit + sign * y.limit
        if x.envelope is not None and y.envelope is not None:
            envelope = lambda horizon: x.envelope(horizon) + y.envelope(horizon)
    return BoundedSequence(
        fn=lambda n: x.fn(n) + sign * y.fn(n),
        bound=x.bound + y.bound,
        label=label or f"{x.label}{'+' if op == 'add' else '-'}{y.label}",
        level_sets=levels,
        rule=lambda ns: x.at(ns) + sign * y.at(ns),
        limit=limit,
        envelope=envelope,
    )


# ---------------------------------------------------------------------------
# The fixed corpus.  Labels are the stable CLI-addressable names.


def _alternating() -> BoundedSequence:
    x = signed_indicator(sd.evens(), sd.odds(), label="alternating")
    return x


def _signed_blocks() -> BoundedSequence:
    pos = sd.GeometricBlocks(2, 0, 2)
    neg = sd.GeometricBlocks(2, 1, 2)
    # The two parities cover [1, ∞), so the zero set is exactly {0}.
    return signed_indicator(pos, neg, label="signed_blocks", zero_set=sd.explicit(0))


def _periodic_three() -> BoundedSequence:
    values = (0.0, 0.5, 1.0)
    levels = tuple((values[r], sd.ap(r, 3)) for r in range(3))
    return BoundedSequence(
        fn=lambda n: values[n % 3],
        bound=1.0,
        label="periodic_three_level",
        level_sets=levels,
    )


def _blockwise_three() -> BoundedSequence:
    values = (0.0, 1.0 / 3.0, 1.0)
    levels = tuple((values[r], sd.RootBlocks(r, 3)) for r in range(3))
    return BoundedSequence(
        fn=lambda n: values[math.isqrt(n) % 3],
        bound=1.0,
        label="blockwise_three_level",
        level_sets=levels,
    )


def _indicator_blocks() -> BoundedSequence:
    blocks = sd.GeometricBlocks(2, 0, 2)
    off = sd.Union(sd.GeometricBlocks(2, 1, 2), sd.explicit(0))
    levels = ((1.0, blocks), (0.0, off))
    return BoundedSequence(
        fn=lambda n: 1.0 if blocks.contains(n) else 0.0,
        bound=1.0,
        label="indicator_blocks",
        level_sets=levels,
    )


def _rotation_golden_values(ns: np.ndarray) -> np.ndarray:
    # For v >= 0, v − floor(v) is exact (Sterbenz), so it has the bits of
    # math.modf(v)[0], in half the time of np.modf.
    v = ns * GOLDEN
    v -= np.floor(v)
    return v


def _rotation_golden() -> BoundedSequence:
    """{nα} for the golden ratio α.  α is irrational, so by Weyl (1916) p(n)α
    mod 1 is equidistributed on [0, 1) for every integer polynomial p of
    positive degree: so is every polynomial subsequence of {nα}."""
    return BoundedSequence(
        fn=lambda n: math.modf(n * GOLDEN)[0],
        bound=1.0,
        label="rotation_golden",
        rule=_rotation_golden_values,
        equidistributed=(0.0, 1.0),
    )


def _alternating_decay_values(ns: np.ndarray) -> np.ndarray:
    return np.where(ns % 2, -1.0, 1.0) / (ns + 1.0)


def _alternating_decay() -> BoundedSequence:
    """(−1)ⁿ/(n+1): limit 0, with |x_n| = 1/(n+1) as its envelope."""
    return BoundedSequence(
        fn=lambda n: (-1.0) ** (n % 2) / (n + 1.0),
        bound=1.0,
        label="alternating_decay",
        rule=_alternating_decay_values,
        limit=0.0,
        envelope=lambda horizon: 1.0 / np.arange(1.0, horizon + 1.0),
    )


def corpus() -> list[BoundedSequence]:
    """The documented fixed corpus of bounded test sequences."""
    return [
        _alternating(),
        indicator(sd.evens(), label="indicator_evens"),
        indicator(sd.squares(), label="indicator_squares"),
        _signed_blocks(),
        _periodic_three(),
        _blockwise_three(),
        _indicator_blocks(),
        _rotation_golden(),
        _alternating_decay(),
    ]


def corpus_entry(label: str) -> BoundedSequence:
    for x in corpus():
        if x.label == label:
            return x
    raise KeyError(f"no corpus entry labeled {label!r}")
