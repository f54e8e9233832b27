"""The ideal catalog: exact membership decisions plus numeric positivity estimators.

Each catalog ideal pairs two decision channels:

* ``decide_in(S)``: a tri-state *exact* decision (``True``/``False``/``None``)
  on a :class:`~idealcore.sets.SetDescription`, derived from the structural
  density/cardinality analysis.  ``None`` means "not derivable", never a guess.
* ``positivity(hits, horizon, theta)``: a numeric estimator on an index prefix
  (the indices below the horizon where some event happened), used by the
  cluster-point machinery and by membership queries on predicate sets.  Its
  rules are finite-horizon approximations and are documented per ideal.  The
  threshold ``theta`` is a run setting (``cfg.theta``, ``--theta``).  The
  hits are ascending, distinct and below the horizon, as every caller passes
  them (``asymptotics.cluster_of_values`` and ``ideal_lim_check``,
  ``estimate_membership``, ``TraceFinIdeal``'s trace filter), so each
  estimator splits them at H/2 and H by position instead of by a mask.

``membership`` combines both channels into the four-way verdict
in-ideal / positive / in-dual-filter / inconclusive.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from . import sets as sd
from .maps import IndexMap, enumeration_map, identity_map
from .records import record
from .sets import Cardinality, SetDescription

__all__ = [
    "MembershipResult",
    "PositivityResult",
    "ClassificationReport",
    "Ideal",
    "FinIdeal",
    "DensityZeroIdeal",
    "ErdosUlamIdeal",
    "SummableIdeal",
    "TraceFinIdeal",
    "ColumnBlockIdeal",
    "fin",
    "density_zero",
    "erdos_ulam",
    "summable",
    "fin_oplus_full",
    "countably_generated",
    "fin_times_empty",
    "membership",
    "decide_membership",
    "estimate_membership",
    "exact_density",
    "empirical_density",
    "classify",
    "rk_below",
    "RkResult",
    "ideal_to_dict",
    "UnsupportedSetError",
    "DEFAULT_THETA",
]

DEFAULT_THETA = 1e-3
SUMMABLE_CUTOFF = 1e3


class UnsupportedSetError(ValueError):
    """Raised when an exact analysis is requested for a predicate set."""


class MembershipResult(enum.Enum):
    IN_IDEAL = "in_ideal"
    POSITIVE = "positive"
    IN_DUAL_FILTER = "in_dual_filter"
    INCONCLUSIVE = "inconclusive"


class PositivityResult(enum.Enum):
    POSITIVE = "positive"
    NULL = "null"
    INCONCLUSIVE = "inconclusive"


@record(frozen=True)
class ClassificationReport:
    """Catalog metadata; the flags are known facts, not searched properties."""

    is_p_ideal: bool
    is_p_plus_ideal: bool
    is_tall: bool
    is_nowhere_tall: bool
    is_countably_generated: bool
    canonical_form: str

    def summary(self) -> str:
        parts = [
            "P-ideal" if self.is_p_ideal else "not a P-ideal",
            "tall" if self.is_tall else "not tall",
            "P+-ideal" if self.is_p_plus_ideal else "not a P+-ideal",
            "nowhere tall" if self.is_nowhere_tall else "somewhere tall",
            "countably generated" if self.is_countably_generated else "not countably generated",
        ]
        return ", ".join(parts) + f"; canonical form: {self.canonical_form}"


def _split(hits: np.ndarray, horizon: int) -> tuple[int, int]:
    """Where H/2 and H fall in the hits: ``hits[:c0]`` is the head below H/2 and
    ``hits[c0:c1]`` the tail window [H/2, H)."""
    c0, c1 = np.searchsorted(hits, (horizon // 2, horizon))
    return int(c0), int(c1)


def _tail(hits: np.ndarray, horizon: int) -> np.ndarray:
    c0, c1 = _split(hits, horizon)
    return hits[c0:c1]


def _support(hits: np.ndarray, horizon: int) -> np.ndarray:
    """The tail window when it holds a hit, else every hit."""
    tail = _tail(hits, horizon)
    return tail if tail.size else hits


def _max_running_ratio(hits: np.ndarray, horizon: int, weight_table: np.ndarray | None = None) -> float:
    """Max over n in [horizon/2, horizon) of (weighted) count of hits in [0, n) over the
    (weighted) measure of [0, n).  This is the documented upper-density estimate.

    ``weight_table``, when given, holds two rows: the weights below the horizon
    and their running totals (``_with_totals``).
    """
    n0 = horizon // 2
    c0, c1 = _split(hits, horizon)
    if weight_table is None:
        best = c0 / n0 if n0 > 0 else 0.0
        if c1 > c0:
            # The running ratio peaks right after each hit h, at n = h + 1, where
            # the count is h's position plus one.
            counts = np.arange(c0 + 1, c1 + 1)
            best = max(best, float(np.max(counts / (hits[c0:c1] + 1))))
        return best
    weights, totals = weight_table
    hit_weights = np.cumsum(weights[hits]) if hits.size else np.zeros(0)
    mass0 = float(hit_weights[c0 - 1]) if c0 > 0 else 0.0
    best = mass0 / float(totals[n0 - 1]) if n0 > 0 else 0.0
    if c1 > c0:
        ratios = hit_weights[c0:c1] / totals[hits[c0:c1]]
        best = max(best, float(np.max(ratios)))
    return best


def _density_positivity(hits: np.ndarray, horizon: int, theta: float, weight_table=None):
    """The (weighted, when ``weight_table`` maps a horizon to the weight table) upper-density
    estimate against the band: above ``theta`` positive, below ``theta/10`` null,
    in between inconclusive."""
    support = _support(hits, horizon)
    if hits.size == 0:
        return PositivityResult.NULL, support
    est = _max_running_ratio(hits, horizon, weight_table(horizon) if weight_table else None)
    if est > theta:
        return PositivityResult.POSITIVE, support
    if est < theta / 10.0:
        return PositivityResult.NULL, support
    return PositivityResult.INCONCLUSIVE, support


def _with_totals(w: np.ndarray) -> np.ndarray:
    """The weights ``w`` and their running totals, as the two rows of one read-only array."""
    table = np.stack((w, np.cumsum(w)))
    table.setflags(write=False)
    return table


_KEPT_TABLES = 4  # weight tables kept per weight sequence, one per horizon


@lru_cache(maxsize=_KEPT_TABLES)
def _harmonic_weights(horizon: int) -> np.ndarray:
    """``_with_totals`` of the weights 1/(n+1) below the horizon."""
    return _with_totals(1.0 / (np.arange(horizon, dtype=np.float64) + 1.0))


class Ideal:
    """Base class for catalog ideals."""

    kind: str = "abstract"
    # Ideals are values: equal, and hash equal, when of the same class and
    # equal in these attributes, however they were built, spelled or parsed.
    _defined_by: tuple[str, ...] = ()

    def __init__(self, label: str):
        self.label = label

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return all(getattr(self, name) == getattr(other, name) for name in self._defined_by)
        return NotImplemented

    def __hash__(self):
        return hash((self.__class__, *(getattr(self, name) for name in self._defined_by)))

    def decide_in(self, s: SetDescription) -> bool | None:
        """Exact tri-state decision of ``S ∈ I``; ``None`` when underivable."""
        raise NotImplementedError

    def positivity(
        self, hits: np.ndarray, horizon: int, theta: float
    ) -> tuple[PositivityResult, np.ndarray]:
        """Numeric positivity of an index prefix at threshold ``theta`` (ignored by rules
        without one); returns (verdict, supporting hits).  ``hits`` must be
        ascending, distinct and below ``horizon``."""
        raise NotImplementedError

    def classify(self) -> ClassificationReport:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Ideal {self.label}>"

    # Generic sound propagation through the boolean structure.  Used by the
    # density-style ideals; the trace ideals reduce to cardinality instead.
    def _propagate(self, s: SetDescription) -> bool | None:
        if isinstance(s, sd.Union):
            a, b = self.decide_in(s.left), self.decide_in(s.right)
            if a is False or b is False:
                return False
            if a is True and b is True:
                return True
        elif isinstance(s, sd.Intersection):
            if self.decide_in(s.left) is True or self.decide_in(s.right) is True:
                return True
            # Distribute over a union factor: A ∩ (U ∪ V) = (A ∩ U) ∪ (A ∩ V).
            for first, second in ((s.left, s.right), (s.right, s.left)):
                if isinstance(second, sd.Union):
                    distributed = sd.Union(
                        sd.Intersection(first, second.left),
                        sd.Intersection(first, second.right),
                    )
                    r = self.decide_in(distributed)
                    if r is not None:
                        return r
        elif isinstance(s, sd.Difference):
            a = self.decide_in(s.left)
            if a is True:
                return True
            if a is False and self.decide_in(s.right) is True:
                return False
        elif isinstance(s, sd.Complement):
            if self.decide_in(s.inner) is True:
                return False
        return None


class FinIdeal(Ideal):
    """Finite sets.  Numeric rule: positive iff a hit lands in the tail window."""

    kind = "fin"

    def __init__(self):
        super().__init__("Fin")

    def decide_in(self, s: SetDescription) -> bool | None:
        card = s.cardinality()
        if card is Cardinality.FINITE:
            return True
        if card is Cardinality.INFINITE:
            return False
        return None

    def positivity(self, hits, horizon, theta):
        tail = _tail(hits, horizon)
        if tail.size:
            return PositivityResult.POSITIVE, tail
        return PositivityResult.NULL, tail

    def classify(self) -> ClassificationReport:
        return ClassificationReport(True, True, False, True, True, "Fin")


class DensityZeroIdeal(Ideal):
    """Sets of asymptotic density zero (the statistical-null ideal).

    Numeric rule: the upper-density estimate over the tail half-window is
    compared against the positivity threshold; estimates above ``theta`` are
    positive, below ``theta/10`` null, in between inconclusive.
    """

    kind = "density_zero"

    def __init__(self):
        super().__init__("DensityZero")

    def decide_in(self, s: SetDescription) -> bool | None:
        if s.cardinality() is Cardinality.FINITE:
            return True
        d = s.density_bounds()
        if d is not None:
            if d.upper == 0:
                return True
            if d.exact or d.lower > 0:
                return d.upper == 0 if d.exact else False
        return self._propagate(s)

    def positivity(self, hits, horizon, theta):
        return _density_positivity(hits, horizon, theta)

    def classify(self) -> ClassificationReport:
        return ClassificationReport(True, False, True, False, False, "Z")


class _WeightedIdeal(Ideal):
    """An ideal defined by a weight sequence: the named preset (weights 1/(n+1))
    or a custom callable, whose evaluated prefix must be positive.  Two custom
    weights are equal iff they are the same callable."""

    _defined_by = ("weights", "weight_fn")

    def __init__(self, label: str, weights: str | Callable[[int], float], preset: str):
        if callable(weights):
            self.weight_fn, self.weights = weights, "custom"
        elif weights == preset:
            self.weight_fn, self.weights = None, preset
        else:
            raise ValueError(f"weights must be {preset!r} or a callable")
        self._tables: dict[int, np.ndarray] = {}  # a custom weight table per horizon
        super().__init__(f"{label}({self.weights})")

    def _weight_table(self, horizon: int) -> np.ndarray:
        """The weights below the horizon and their running totals (``_with_totals``).

        A custom callable is evaluated once per index and horizon: the ideal
        keeps the tables of ``_KEPT_TABLES`` horizons, dropping the oldest
        first, as ``_harmonic_weights`` keeps the preset's.  A prefix with a
        weight that is not positive raises each time and is not kept."""
        if self.weight_fn is None:
            return _harmonic_weights(horizon)
        table = self._tables.get(horizon)
        if table is None:
            w = np.fromiter((self.weight_fn(n) for n in range(horizon)), dtype=np.float64, count=horizon)
            if np.any(w <= 0):
                raise ValueError("weights must be positive")
            if len(self._tables) >= _KEPT_TABLES:
                del self._tables[next(iter(self._tables))]
            table = self._tables[horizon] = _with_totals(w)
        return table


class ErdosUlamIdeal(_WeightedIdeal):
    """Weighted-density-zero ideal for a divergent weight sequence.

    The ``log`` preset (weights 1/(n+1)) is the logarithmic-density ideal; for
    it, exact decisions are available whenever the natural density limit
    exists, since the logarithmic density then agrees with it.  Custom weight
    callables get numeric decisions only; divergence of their sum is the
    caller's contract (presets are known divergent), positivity of the
    evaluated prefix is checked.
    """

    kind = "erdos_ulam"

    def __init__(self, weights: str | Callable[[int], float] = "log"):
        super().__init__("ErdosUlam", weights, "log")

    def decide_in(self, s: SetDescription) -> bool | None:
        if s.cardinality() is Cardinality.FINITE:
            return True
        if self.weights == "log":
            d = s.density_bounds()
            if d is not None and d.has_limit:
                return d.value == 0
            if isinstance(s, sd.GeometricBlocks) or (
                isinstance(s, sd.Complement) and isinstance(s.inner, sd.GeometricBlocks)
            ):
                # Blocks carry logarithmic mass 1/modulus, and their
                # complement the rest, so neither is null.
                return False
        return self._propagate(s)

    def positivity(self, hits, horizon, theta):
        return _density_positivity(hits, horizon, theta, self._weight_table)

    def classify(self) -> ClassificationReport:
        return ClassificationReport(True, False, True, False, False, f"Erdos-Ulam({self.weights})")


class SummableIdeal(_WeightedIdeal):
    """Sets whose weight series converges (harmonic preset: sum of 1/(n+1)).

    Numeric rule (a documented heuristic): a partial sum above the divergence
    cutoff counts as positive; otherwise the estimator is inconclusive, since
    convergence cannot be witnessed on a prefix.
    """

    kind = "summable"
    _defined_by = ("weights", "weight_fn", "cutoff")

    def __init__(self, weights: str | Callable[[int], float] = "harmonic", cutoff: float = SUMMABLE_CUTOFF):
        super().__init__("Summable", weights, "harmonic")
        self.cutoff = float(cutoff)
        if not self.cutoff > 0:
            raise ValueError(f"cutoff must be positive, got {cutoff!r}")

    def decide_in(self, s: SetDescription) -> bool | None:
        if s.cardinality() is Cardinality.FINITE:
            return True
        if self.weights != "harmonic":
            return None  # custom weights decide numerically only
        if isinstance(s, sd.Squares):
            return True
        d = s.density_bounds()
        if d is not None:
            # A harmonically summable set must have upper density zero.
            if d.exact and d.upper > 0:
                return False
            if d.lower > 0:
                return False
        if isinstance(s, (sd.GeometricBlocks, sd.RootBlocks)):
            return False
        return self._propagate(s)

    def positivity(self, hits, horizon, theta):
        support = _support(hits, horizon)
        if hits.size == 0:
            return PositivityResult.NULL, support
        total = float(np.sum(self._weight_table(horizon)[0][hits]))
        if total > self.cutoff:
            return PositivityResult.POSITIVE, support
        return PositivityResult.INCONCLUSIVE, support

    def classify(self) -> ClassificationReport:
        return ClassificationReport(True, True, True, False, False, "summable(harmonic)")


class TraceFinIdeal(Ideal):
    """Sets with finite trace on a fixed infinite set T (a Fin⊕P(ω) copy, or Fin
    when T is cofinite); ``countably_generated`` builds one from its generators."""

    kind = "fin_oplus_full"
    _defined_by = ("trace",)

    def __init__(self, trace: SetDescription):
        if trace.cardinality() is not Cardinality.INFINITE:
            raise ValueError("trace set must be certifiably infinite")
        super().__init__("FinOplusFull")
        self.trace = trace

    def decide_in(self, s: SetDescription) -> bool | None:
        card = sd.Intersection(s, self.trace).cardinality()
        if card is Cardinality.FINITE:
            return True
        if card is Cardinality.INFINITE:
            return False
        return None

    def positivity(self, hits, horizon, theta):
        mask = self.trace.mask(horizon)
        traced = hits[mask[hits]] if hits.size else hits
        tail = _tail(traced, horizon)
        if tail.size:
            return PositivityResult.POSITIVE, tail
        return PositivityResult.NULL, tail

    def classify(self) -> ClassificationReport:
        cofinite = sd.complement(self.trace).cardinality() is Cardinality.FINITE
        form = "Fin" if cofinite else "Fin(+)P(omega) copy"
        return ClassificationReport(True, True, False, True, True, form)


def _pair_column(n: int) -> int:
    """First coordinate of the Cantor pairing inverse."""
    w = (math.isqrt(8 * n + 1) - 1) // 2
    t = w * (w + 1) // 2
    return n - t


def _pair_columns(ns: np.ndarray) -> np.ndarray:
    """``_pair_column`` of each entry: a float square root, then an exact integer fix-up.

    ``w`` must be the largest integer with ``w(w+1)/2 <= n``; the float root
    is off by at most one, so one step either way restores it.
    """
    ns = np.asarray(ns, dtype=np.int64)
    w = ((np.sqrt(8.0 * ns + 1.0) - 1.0) // 2.0).astype(np.int64)
    w -= w * (w + 1) // 2 > ns
    w += (w + 1) * (w + 2) // 2 <= ns
    return ns - w * (w + 1) // 2


@lru_cache(maxsize=4)
def _pair_column_table(horizon: int) -> np.ndarray:
    """``_pair_columns`` of every index below the horizon, read-only."""
    cols = _pair_columns(np.arange(horizon))
    cols.setflags(write=False)
    return cols


class ColumnBlockIdeal(Ideal):
    """Sets covered by finitely many columns of the Cantor pairing (a Fin×{∅} copy).

    Exact decisions are limited to finite sets; coverage by infinitely many
    generators cannot be certified structurally, so most queries come back
    inconclusive.  The entry exists mainly for its classification metadata.
    """

    kind = "fin_times_empty"

    def __init__(self):
        super().__init__("FinTimesEmpty")

    def generator(self, column: int) -> SetDescription:
        return sd.Predicate(lambda n, c=column: _pair_column(n) == c, name=f"column_{column}")

    def decide_in(self, s: SetDescription) -> bool | None:
        if s.cardinality() is Cardinality.FINITE:
            return True
        return None

    def positivity(self, hits, horizon, theta):
        c0, c1 = _split(hits, horizon)
        tail = hits[c0:c1]
        if tail.size == 0:
            return PositivityResult.NULL, hits
        cols = _pair_column_table(horizon)
        head_max = int(cols[hits[:c0]].max()) if c0 else -1
        if int(cols[tail].max()) > head_max:
            # Fresh columns keep appearing: not coverable by the ones seen so far.
            return PositivityResult.POSITIVE, tail
        return PositivityResult.INCONCLUSIVE, tail

    def classify(self) -> ClassificationReport:
        return ClassificationReport(False, True, False, True, True, "Fin×{∅} copy")


# ---------------------------------------------------------------------------
# Catalog constructors


def fin() -> FinIdeal:
    return FinIdeal()


def density_zero() -> DensityZeroIdeal:
    return DensityZeroIdeal()


def erdos_ulam(weights: str | Callable[[int], float] = "log") -> ErdosUlamIdeal:
    return ErdosUlamIdeal(weights)


def summable(weights: str | Callable[[int], float] = "harmonic", cutoff: float = SUMMABLE_CUTOFF) -> SummableIdeal:
    return SummableIdeal(weights, cutoff)


def fin_oplus_full(trace: SetDescription) -> TraceFinIdeal:
    return TraceFinIdeal(trace)


def countably_generated(generators: list[SetDescription]) -> TraceFinIdeal:
    """The ideal generated by finitely many sets together with Fin.

    ``S ∈ I`` iff ``S \\ (G_0 ∪ … ∪ G_m)`` is finite, so I is the trace-finite
    ideal of the complement of the union; the union must be co-infinite,
    otherwise the ideal would be improper.
    """
    trace = sd.complement(sd.union_all(list(generators)))
    if trace.cardinality() is not Cardinality.INFINITE:
        raise ValueError("generator union must be co-infinite (proper ideal)")
    return TraceFinIdeal(trace)


def fin_times_empty() -> ColumnBlockIdeal:
    return ColumnBlockIdeal()


# ---------------------------------------------------------------------------
# Operations


def decide_membership(s: SetDescription, ideal: Ideal) -> MembershipResult | None:
    """Symbolic half of :func:`membership`: ``decide_in`` on S and its complement.

    ``None`` when neither decision is derivable.
    """
    a = ideal.decide_in(s)
    if a is True:
        return MembershipResult.IN_IDEAL
    if ideal.decide_in(sd.complement(s)) is True:
        return MembershipResult.IN_DUAL_FILTER
    if a is False:
        return MembershipResult.POSITIVE
    return None


def estimate_membership(
    s: SetDescription, ideal: Ideal, horizon: int, theta: float = DEFAULT_THETA
) -> MembershipResult:
    """Numeric half of :func:`membership`: positivity of S and its complement
    on the prefix below ``horizon`` at threshold ``theta``."""
    mask = s.mask(horizon)
    vs, _ = ideal.positivity(np.flatnonzero(mask), horizon, theta)
    if vs is PositivityResult.NULL:
        return MembershipResult.IN_IDEAL
    vc, _ = ideal.positivity(np.flatnonzero(~mask), horizon, theta)
    if vc is PositivityResult.NULL:
        return MembershipResult.IN_DUAL_FILTER
    if vs is PositivityResult.POSITIVE:
        return MembershipResult.POSITIVE
    return MembershipResult.INCONCLUSIVE


def membership(
    s: SetDescription, ideal: Ideal, horizon: int = 100_000, theta: float = DEFAULT_THETA
) -> MembershipResult:
    """Four-way membership verdict of S against the ideal.

    Exact whenever the structural analysis decides both S and its complement;
    otherwise falls back to the numeric positivity estimator on the prefix
    below ``horizon`` at threshold ``theta`` (possible for predicate sets),
    which can return inconclusive.
    """
    verdict = decide_membership(s, ideal)
    return verdict if verdict is not None else estimate_membership(s, ideal, horizon, theta)


def exact_density(s: SetDescription):
    """Exact density: a Fraction when the limit exists, else (lower, upper).

    Raises :class:`UnsupportedSetError` when a predicate blocks the analysis.
    """
    d = s.density_bounds()
    if d is None:
        raise UnsupportedSetError("exact density is not derivable for predicate sets")
    if d.has_limit:
        return d.value
    return (d.lower, d.upper)


def empirical_density(s: SetDescription, horizon: int) -> tuple[float, float]:
    """(min, max) of the counting ratio |S ∩ [0, n)| / n over n in [horizon/2, horizon].

    The count rises by one just past each member k and the ratio falls in
    between, so the extremes lie at the window's ends and at k and k + 1 for
    the members k in the window: only those n are evaluated.
    """
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    lo = horizon // 2
    hits = s.enumerate_prefix(horizon + 1)
    near = hits[np.searchsorted(hits, lo) :]
    ns = np.concatenate(([lo, horizon], near, near + 1))
    ns = ns[ns <= horizon]
    counts = np.searchsorted(hits, ns, side="left")
    ratios = counts / ns
    return float(np.min(ratios)), float(np.max(ratios))


def classify(ideal: Ideal) -> ClassificationReport:
    return ideal.classify()


@record(frozen=True)
class RkResult:
    """Outcome of a Rudin–Keisler comparison query against the catalog."""

    status: str  # "witness" | "unknown"
    witness: IndexMap | None
    note: str

    @property
    def has_witness(self) -> bool:
        return self.status == "witness"


def rk_below(ideal_i: Ideal, ideal_j: Ideal) -> RkResult:
    """Witnessing map for I ≤_RK J, for the catalog pairs with a known construction.

    Returns the increasing enumeration of the trace set for (trace-finite, Fin)
    pairs and the identity for (Fin, Fin); every other pair is reported
    unknown rather than fabricating a map.
    """
    if isinstance(ideal_i, FinIdeal) and isinstance(ideal_j, FinIdeal):
        return RkResult("witness", identity_map(), "identity map")
    if isinstance(ideal_i, TraceFinIdeal) and isinstance(ideal_j, FinIdeal):
        h = enumeration_map(ideal_i.trace, label="trace-enumeration")
        return RkResult("witness", h, "increasing enumeration of the trace set")
    if isinstance(ideal_i, ErdosUlamIdeal) and isinstance(ideal_j, ErdosUlamIdeal):
        return RkResult(
            "unknown",
            None,
            "a witnessing map is known to exist for weighted-density pairs, "
            "but no construction is part of the catalog",
        )
    if isinstance(ideal_i, DensityZeroIdeal) and isinstance(ideal_j, FinIdeal):
        return RkResult("unknown", None, "no core-preserving matrix exists for this pair")
    return RkResult("unknown", None, "no witnessing map in the catalog for this pair")


# ---------------------------------------------------------------------------
# JSON encoding; ``specs.parse_ideal`` decodes it.


def ideal_to_dict(ideal: Ideal) -> dict:
    if isinstance(ideal, FinIdeal):
        return {"type": "fin"}
    if isinstance(ideal, DensityZeroIdeal):
        return {"type": "density_zero"}
    if isinstance(ideal, ErdosUlamIdeal):
        if ideal.weights == "custom":
            raise ValueError("custom weight callables have no JSON encoding")
        return {"type": "erdos_ulam", "weights": ideal.weights}
    if isinstance(ideal, SummableIdeal):
        if ideal.weights == "custom":
            raise ValueError("custom weight callables have no JSON encoding")
        return {"type": "summable", "weights": ideal.weights, "cutoff": ideal.cutoff}
    if isinstance(ideal, TraceFinIdeal):
        return {"type": "fin_oplus_full", "trace": sd.set_to_dict(ideal.trace)}
    if isinstance(ideal, ColumnBlockIdeal):
        return {"type": "fin_times_empty"}
    raise ValueError(f"{type(ideal).__name__} has no JSON encoding")
