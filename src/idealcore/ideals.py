"""The ideal catalog: exact membership decisions plus numeric positivity estimators.

Each catalog ideal pairs two decision channels:

* ``decide_in(S)``: a tri-state *exact* decision (``True``/``False``/``None``)
  on a :class:`~idealcore.sets.SetDescription`, derived from the structural
  density/cardinality analysis.  ``None`` means "not derivable", never a guess.
* ``positivity(hits, horizon, theta)``: a numeric estimator on an index prefix
  (the indices below the horizon where some event happened, ascending and
  distinct).  ``Ideal.positivity`` keeps the hits the ideal counts
  (``_counted``), splits them once at H/2 and H, c0 of them below H/2 and c1
  below H, and returns the ideal's verdict (``_judge``) with one support: the
  counted hits in the tail window [H/2, H) when it holds one, else every
  counted hit.  An empty prefix is null.  ``theta`` is a run setting:
  - Fin, and the trace-finite ideals on the hits in their trace: positive iff
    c1 > c0, else null.
  - Z and Erdős–Ulam: the upper-density estimate ``_max_running_ratio``, with
    the log weights 1/(n+1) for Erdős–Ulam, in the band ``_band``: above
    theta positive, below theta/10 null, in between inconclusive.
  - Summable: a sum of the weights 1/(n+1) above the cutoff is positive, else
    inconclusive.
  - Fin×∅: null with no tail hit, positive when a tail hit opens a column of
    the pairing that no head hit reached (a fresh column), else inconclusive.

``membership`` combines both channels into the four-way verdict
in-ideal / positive / in-dual-filter / inconclusive.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache

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


def _max_running_ratio(
    hits: np.ndarray, c0: int, c1: int, horizon: int, weight_table: np.ndarray | None = None
) -> float:
    """Max over n in [horizon/2, horizon) of (weighted) count of hits in [0, n) over the
    (weighted) measure of [0, n).  This is the documented upper-density estimate.

    ``hits[:c0]`` lie below horizon/2 and ``hits[c0:c1]`` in the tail window.
    ``weight_table``, when given, holds two rows: the weights below the horizon
    and their running totals (``_harmonic_weights``).
    """
    n0 = horizon // 2
    if weight_table is None:
        best = c0 / n0 if n0 > 0 else 0.0
        if c1 > c0:
            # The running ratio peaks right after each hit h, at n = h + 1, where
            # the count is h's position plus one.
            counts = np.arange(c0 + 1, c1 + 1)
            best = max(best, float(np.max(counts / (hits[c0:c1] + 1))))
        return best
    weights, totals = weight_table
    hit_weights = np.cumsum(weights[hits])
    mass0 = float(hit_weights[c0 - 1]) if c0 > 0 else 0.0
    best = mass0 / float(totals[n0 - 1]) if n0 > 0 else 0.0
    if c1 > c0:
        ratios = hit_weights[c0:c1] / totals[hits[c0:c1]]
        best = max(best, float(np.max(ratios)))
    return best


def _band(estimate: float, theta: float) -> PositivityResult:
    """Above ``theta`` positive, below ``theta/10`` null, in between inconclusive."""
    if estimate > theta:
        return PositivityResult.POSITIVE
    if estimate < theta / 10.0:
        return PositivityResult.NULL
    return PositivityResult.INCONCLUSIVE


def _not_null(d: sd.DensityBounds | None) -> bool:
    """The bounds show a positive upper density: a lower bound above 0, or an
    exact upper bound above 0 (an inexact upper bound shows nothing)."""
    return d is not None and (d.lower > 0 or (d.exact and d.upper > 0))


_KEPT_TABLES = 4  # harmonic weight tables kept, one per horizon


@lru_cache(maxsize=_KEPT_TABLES)
def _harmonic_weights(horizon: int) -> np.ndarray:
    """The weights 1/(n+1) below the horizon and their running totals, as the
    two rows of one read-only array."""
    w = 1.0 / (np.arange(horizon, dtype=np.float64) + 1.0)
    table = np.stack((w, np.cumsum(w)))
    table.setflags(write=False)
    return table


class Ideal:
    """Base class for catalog ideals."""

    kind: str = "abstract"
    label: str = "abstract"
    # Ideals are values: equal, and hash equal, when of the same class and
    # equal in these attributes, however they were built, spelled or parsed.
    _defined_by: tuple[str, ...] = ()

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
        without one); returns (verdict, support), the support being the counted
        hits of the tail window [H/2, H) when it holds one, else every counted
        hit.  ``hits`` must be ascending, distinct and below ``horizon``."""
        hits = self._counted(hits, horizon)
        if not hits.size:
            return PositivityResult.NULL, hits
        c0, c1 = (int(c) for c in np.searchsorted(hits, (horizon // 2, horizon)))
        return self._judge(hits, c0, c1, horizon, theta), hits[c0:c1] if c1 > c0 else hits

    def _counted(self, hits: np.ndarray, horizon: int) -> np.ndarray:
        """The hits the rule reads."""
        return hits

    def _judge(self, hits: np.ndarray, c0: int, c1: int, horizon: int, theta: float) -> PositivityResult:
        """The ideal's rule on nonempty counted hits, ``hits[:c0]`` below H/2 and
        ``hits[c0:c1]`` in the tail window."""
        raise NotImplementedError

    def classify(self) -> ClassificationReport:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Ideal {self.label}>"

    # Generic sound propagation through the boolean structure.  Used by the
    # density-style ideals and Fin×∅; the trace ideals reduce to cardinality
    # instead.
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
    label = "Fin"

    def decide_in(self, s: SetDescription) -> bool | None:
        card = s.cardinality()
        if card is Cardinality.FINITE:
            return True
        if card is Cardinality.INFINITE:
            return False
        return None

    def _judge(self, hits, c0, c1, horizon, theta):
        return PositivityResult.POSITIVE if c1 > c0 else PositivityResult.NULL

    def classify(self) -> ClassificationReport:
        return ClassificationReport(True, True, False, True, True, "Fin")


class DensityZeroIdeal(Ideal):
    """Sets of asymptotic density zero (the statistical-null ideal)."""

    kind = "density_zero"
    label = "DensityZero"

    def decide_in(self, s: SetDescription) -> bool | None:
        if s.cardinality() is Cardinality.FINITE:
            return True
        d = s.density_bounds()
        if d is not None and d.upper == 0:
            return True
        if _not_null(d):
            return False
        return self._propagate(s)

    def _judge(self, hits, c0, c1, horizon, theta):
        return _band(_max_running_ratio(hits, c0, c1, horizon), theta)

    def classify(self) -> ClassificationReport:
        return ClassificationReport(True, False, True, False, False, "Z")


class ErdosUlamIdeal(Ideal):
    """The logarithmic-density ideal: the Erdős–Ulam ideal of the weights 1/(n+1).

    Exact decisions are available whenever the natural density limit exists,
    since the logarithmic density then agrees with it, and a set of lower
    density above 0 is positive.
    """

    kind = "erdos_ulam"
    weights = "log"
    label = f"ErdosUlam({weights})"

    def decide_in(self, s: SetDescription) -> bool | None:
        if s.cardinality() is Cardinality.FINITE:
            return True
        d = s.density_bounds()
        if d is not None and d.has_limit:
            return d.value == 0
        if d is not None and d.lower > 0:
            # The lower logarithmic density is at least the lower natural one.
            return False
        return self._propagate(s)

    def _judge(self, hits, c0, c1, horizon, theta):
        return _band(_max_running_ratio(hits, c0, c1, horizon, _harmonic_weights(horizon)), theta)

    def classify(self) -> ClassificationReport:
        return ClassificationReport(True, False, True, False, False, f"Erdos-Ulam({self.weights})")


class SummableIdeal(Ideal):
    """Sets whose harmonic series (the sum of 1/(n+1) over the set) converges.

    Its numeric rule is a heuristic: convergence cannot be witnessed on a
    prefix, so no nonempty prefix is null.
    """

    kind = "summable"
    weights = "harmonic"
    label = f"Summable({weights})"
    _defined_by = ("cutoff",)

    def __init__(self, cutoff: float = SUMMABLE_CUTOFF):
        self.cutoff = float(cutoff)
        if not self.cutoff > 0:
            raise ValueError(f"cutoff must be positive, got {cutoff!r}")

    def decide_in(self, s: SetDescription) -> bool | None:
        if s.cardinality() is Cardinality.FINITE:
            return True
        if isinstance(s, sd.Squares):
            return True
        # A harmonically summable set must have upper density zero.
        if _not_null(s.density_bounds()):
            return False
        return self._propagate(s)

    def _judge(self, hits, c0, c1, horizon, theta):
        total = float(np.sum(_harmonic_weights(horizon)[0][hits]))
        return PositivityResult.POSITIVE if total > self.cutoff else PositivityResult.INCONCLUSIVE

    def classify(self) -> ClassificationReport:
        return ClassificationReport(True, True, True, False, False, f"summable({self.weights})")


class TraceFinIdeal(Ideal):
    """Sets with finite trace on a fixed infinite set T (a Fin⊕P(ω) copy, or Fin
    when T is cofinite); ``countably_generated`` builds one from its generators."""

    kind = "fin_oplus_full"
    label = "FinOplusFull"
    _defined_by = ("trace",)

    def __init__(self, trace: SetDescription):
        if trace.cardinality() is not Cardinality.INFINITE:
            raise ValueError("trace set must be certifiably infinite")
        self.trace = trace

    def decide_in(self, s: SetDescription) -> bool | None:
        card = sd.Intersection(s, self.trace).cardinality()
        if card is Cardinality.FINITE:
            return True
        if card is Cardinality.INFINITE:
            return False
        return None

    _judge = FinIdeal._judge

    def _counted(self, hits, horizon):
        """The hits on the trace."""
        return hits[self.trace.mask(horizon)[hits]] if hits.size else hits

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

    Exact decisions: finite sets are in the ideal; a set that the density
    analysis shows not to be density-null (a lower bound above 0, or an exact
    upper bound above 0) is positive, as are the squares and each infinite
    {n : a·n + c is a square} but the triangular numbers (a = 8m², c = m²),
    which are column 0 and in the ideal; unions, differences and complements
    propagate.  No other infinite set is decided in the ideal, since coverage
    by finitely many columns cannot be certified structurally.
    """

    kind = "fin_times_empty"
    label = "FinTimesEmpty"

    def generator(self, column: int) -> SetDescription:
        return sd.Predicate(lambda n, c=column: _pair_column(n) == c, name=f"column_{column}")

    def decide_in(self, s: SetDescription) -> bool | None:
        if s.cardinality() is Cardinality.FINITE:
            return True
        # Fin×∅ ⊆ Z: K columns hold at most K·√(2N) members below N, so a set
        # that is not density-null is covered by no finite set of columns.  A
        # square s² in column k solves the Pell equation (2w+1)² − 8s² = 1 − 8k,
        # whose solutions grow geometrically: K columns hold O(K·log N) of the
        # √N squares below N, so the squares meet infinitely many columns.
        if _not_null(s.density_bounds()) or isinstance(s, sd.Squares):
            return False
        if isinstance(s, sd.Preimage) and isinstance(s.inner, sd.Squares) and s.h.affine is not None:
            # E = {n : a·n + c is a square}, infinite here, has of the order
            # of √N members below N.  A member n = w(w+1)/2 + k of column k
            # solves 8s² − a(2w+1)² = 8c + a(8k − 1).  When 2a is not a
            # square this is Pell-type, with O(log N) solutions below N per
            # k; when 2a = (2u)² the left side is 2(2s − u(2w+1))(2s + u(2w+1)),
            # and a right side other than 0 has finitely many solutions.
            # Either way K columns hold o(√N) members of E below N: E is
            # positive.  The right side is 0 only for k = 0, a = 8m² and
            # c = m², where 8n + 1 = (s/m)² makes E the triangular numbers,
            # column 0 itself.
            a, c = s.h.affine
            return a == 8 * c and math.isqrt(c) ** 2 == c
        return self._propagate(s)

    def _judge(self, hits, c0, c1, horizon, theta):
        if c1 == c0:
            return PositivityResult.NULL
        cols = _pair_column_table(horizon)
        head_max = int(cols[hits[:c0]].max()) if c0 else -1
        if int(cols[hits[c0:c1]].max()) > head_max:
            # Fresh columns keep appearing: not coverable by the ones seen so far.
            return PositivityResult.POSITIVE
        return PositivityResult.INCONCLUSIVE

    def classify(self) -> ClassificationReport:
        return ClassificationReport(False, True, False, True, True, "Fin×{∅} copy")


# ---------------------------------------------------------------------------
# Catalog constructors


def fin() -> FinIdeal:
    return FinIdeal()


def density_zero() -> DensityZeroIdeal:
    return DensityZeroIdeal()


def erdos_ulam() -> ErdosUlamIdeal:
    return ErdosUlamIdeal()


def summable(cutoff: float = SUMMABLE_CUTOFF) -> SummableIdeal:
    return SummableIdeal(cutoff)


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
        return {"type": "erdos_ulam", "weights": ideal.weights}
    if isinstance(ideal, SummableIdeal):
        return {"type": "summable", "weights": ideal.weights, "cutoff": ideal.cutoff}
    if isinstance(ideal, TraceFinIdeal):
        return {"type": "fin_oplus_full", "trace": sd.set_to_dict(ideal.trace)}
    if isinstance(ideal, ColumnBlockIdeal):
        return {"type": "fin_times_empty"}
    raise ValueError(f"{type(ideal).__name__} has no JSON encoding")
