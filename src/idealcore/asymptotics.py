"""Ideal limsup/liminf, cluster sets, and cores of bounded sequences.

A sequence with a declared limit L (``BoundedSequence.limit``) has the one
cluster point L under every catalog ideal: each is proper and contains Fin,
so for every ε the set {n : |x_n − L| > ε} is finite, hence in the ideal,
and its complement is not.  ``cluster_points``, and so ``core``,
``ideal_limsup`` and ``ideal_liminf``, read that limit first, before any
prefix or level set, and answer [L, L] with method ``exact``.

A sequence equidistributed on [lo, hi) along every integer-polynomial
subsequence (``BoundedSequence.equidistributed``) has every point of [lo, hi]
as a cluster point under each ideal that decides a hit set of it positive:
the rules that decide one (``sets.Hits``) decide them all alike.  Fin, Z,
log, summable and Fin×∅ read the hit set's exact positive density, and a
trace ideal whose trace is an arithmetic progression or the squares reads
that the hit set meets it infinitely often.  ``cluster_points`` and ``core``
answer [lo, hi] with method ``exact`` then, and read no prefix.  A sequence
that declares no equidistribution, or an ideal that leaves the hit set
undecided, takes the value-prefix path below.

A finitely-valued sequence (one that carries its level sets) has as cluster
points exactly the values whose level sets are positive, so its cluster set is
read off one decision per level, with no grid.  ``classify_levels`` is the one
place where level sets are decided: symbolically when the structural analysis
applies, by the numeric estimator at the run's ``theta`` otherwise, and each
decision says which.  ``core`` and ``cluster_points`` read finitely-valued
sequences through it, and the checkers read the level sets of a row
selection's row sums through it (``regularity``).

A core names only the settings it rests on: an ``exact`` one none, a
``mixed`` one the horizon and theta its estimated levels were judged at, and
a ``numeric`` one the horizon, grid and theta of its value prefix.

Value prefixes go through the numeric engine: it partitions the value range
into grid cells of width ``grid`` and keeps a cell iff the index set hitting
its slightly enlarged window (width 1.5·grid, so boundary values are never
lost to discretization) is judged positive by the ideal's estimator.  Reported
interval endpoints come from the values attained on the supporting hits, not
from cell boundaries, which keeps the discretization error well inside the
grid resolution.

A core reads only the two ends of the cluster set, and a limsup or liminf only
one, so ``core``, ``ideal_limsup``, ``ideal_liminf`` and ``limsup_of_values``
decide cells from the ends of the value range inward (``_scan_end``) and leave
the cells between undecided; their answers and errors are those of the full
scan.  ``cluster_points`` and ``cluster_of_values`` decide every cell.  The hits
of a cell's window are read off the prefix in index order, with no sort of it.

``cluster_points`` and ``core`` choose among the limit, the levels, the
equidistribution and the value prefix in one place, ``_cluster_reader``.
The per-prefix work does not depend on the ideal: a ``_CellTable`` sorts the
prefix and finds its hit cells once, and reads each decided cell's hits once.
``cores(x, ideals, cfg)`` reads x's core under several ideals from one table,
each ideal with its own end scans and estimator, and returns each ideal's
interval or the exception it raised; ``core`` and ``cluster_of_values`` are
its one-ideal case, the same code with a table of their own.  No table
outlives the call that built it.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Callable

import numpy as np

from .ideals import DEFAULT_THETA, Ideal, MembershipResult, PositivityResult
from .ideals import decide_membership, estimate_membership
from .records import record
from .sequences import BoundedSequence
from .sets import _distinct

__all__ = [
    "CoreConfig",
    "CoreInterval",
    "ClusterSet",
    "InconclusiveCellsError",
    "classify_levels",
    "cluster_points",
    "cluster_of_values",
    "ideal_limsup",
    "ideal_liminf",
    "limsup_of_values",
    "core",
    "cores",
    "ideal_lim_check",
]


class InconclusiveCellsError(RuntimeError):
    """The positivity estimator was inconclusive where it changes the answer."""

    def __init__(self, message: str, cells: tuple[tuple[float, float], ...] = ()):
        super().__init__(message)
        self.cells = cells


@record(frozen=True)
class CoreConfig:
    """Truncation parameters for the numeric engine."""

    horizon: int = 100_000
    grid: float = 0.01
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if self.horizon < 100:
            raise ValueError("horizon must be at least 100")
        if not math.isfinite(self.grid):
            raise ValueError("grid resolution must be finite")
        if self.grid <= 0:
            raise ValueError("grid resolution must be positive")
        if not 0 < self.theta < 1:
            raise ValueError("theta must lie in (0, 1)")


@record(frozen=True)
class ClusterSet:
    """Disjoint closed intervals approximating the cluster-point set."""

    points: tuple[tuple[float, float], ...]
    inconclusive: tuple[tuple[float, float], ...]
    exact: bool  # every level set was decided symbolically

    @property
    def sup(self) -> float:
        return max(hi for _, hi in self.points)

    @property
    def inf(self) -> float:
        return min(lo for lo, _ in self.points)


@record(frozen=True)
class CoreInterval:
    lo: float
    hi: float
    # "exact" (a declared limit, or every level set decided symbolically),
    # "mixed" (some level sets decided by the numeric estimator), "numeric"
    # (a value prefix on the grid); the settings below are those the method
    # rests on, and None where it rests on none
    method: str
    horizon: int | None = None
    grid: float | None = None
    theta: float | None = None

    def as_tuple(self) -> tuple[float, float]:
        return (self.lo, self.hi)


_ENLARGE = 0.25  # each cell window is extended by this fraction of the grid step per side


def _cell_range(bound: float, grid: float) -> range:
    lo = math.floor(-bound / grid) - 1
    hi = math.ceil(bound / grid) + 1
    return range(lo, hi)


def _hit_cells(sv: np.ndarray, bound: float, grid: float):
    """The cells of the range whose window holds a value of the sorted prefix
    ``sv``, ascending, with the float bounds ``lo`` and ``hi`` of each window.

    The candidate cells are searched with two vectorized ``searchsorted``
    calls in all.  A range no longer than the prefix is searched whole, with
    no temporary the size of the prefix.  In a longer one, a value v lies only
    in the windows of the cells next to ``floor(v / grid)``, so only those
    cells are searched; the other cells of the range hold no value.
    """
    span = _cell_range(bound, grid)
    if len(span) <= sv.size:
        cand = np.arange(span.start, span.stop, dtype=np.float64)
    else:
        near = sv / grid
        np.floor(near, out=near)  # ascending, like sv
        cand = _distinct((_distinct(near)[:, None] + np.arange(-2.0, 3.0)).ravel())
        cand = cand[(cand >= span.start) & (cand < span.stop)]
    lo = (cand - _ENLARGE) * grid
    hi = (cand + 1 + _ENLARGE) * grid
    hit = np.searchsorted(sv, lo, side="left") < np.searchsorted(sv, hi, side="right")
    return cand[hit].astype(np.int64).tolist(), lo[hit].tolist(), hi[hit].tolist()


def _merge(cells: list[tuple[int, PositivityResult, float, float]], grid: float):
    """Merge runs of adjacent cells ``(index, verdict, wmin, wmax)`` of one verdict,
    given in ascending index order (a missing index splits a run): the value
    range of each positive run, the cell range of each inconclusive run."""
    points: list[tuple[float, float]] = []
    inconclusive: list[tuple[float, float]] = []
    # along a run of adjacent cells, index minus list position stays the same
    for (verdict, _), group in groupby(enumerate(cells), key=lambda pc: (pc[1][1], pc[1][0] - pc[0])):
        run = [cell for _, cell in group]
        if verdict is PositivityResult.POSITIVE:
            points.append((min(c[2] for c in run), max(c[3] for c in run)))
        elif verdict is PositivityResult.INCONCLUSIVE:
            inconclusive.append((run[0][0] * grid, (run[-1][0] + 1) * grid))
    return tuple(points), tuple(inconclusive)


def _scan_end(decide, cells: list[int], order: range) -> None:
    """Decide the hit cells in ``order``, from one end, up to the first positive
    cell p; then go on past p while the next cell is adjacent, and stop after
    the first one that is not inconclusive.

    A cell two or more past p has its window beyond every value of p's, so only
    p and its neighbour can hold the extreme witness, and only the inconclusive
    run that starts at that neighbour can block the extreme from past p; it is
    read to its end.  With no positive cell the scan reaches the other end.
    """
    steps = iter(order)
    for k in steps:
        if decide(k) is PositivityResult.POSITIVE:
            break
    else:
        return
    for k in steps:
        if abs(cells[k] - cells[k - order.step]) != 1 or decide(k) is not PositivityResult.INCONCLUSIVE:
            return


class _CellTable:
    """The hit cells of one value prefix (``_hit_cells``), sorted and gridded
    once, and the hits of each cell's window once read, for every ideal that
    decides cells of it: each ideal keeps its own verdicts and witnesses.
    """

    def __init__(self, values: np.ndarray, bound: float, grid: float):
        self.values, self.grid = values, grid
        self.cells, self.lo, self.hi = _hit_cells(np.sort(values), bound, grid)
        self._hits: list[np.ndarray | None] = [None] * len(self.cells)

    def hits(self, k: int) -> np.ndarray:
        """The hits of cell k's window in index order, without an argsort of
        the prefix; read-only, as every ideal reads the same array."""
        hits = self._hits[k]
        if hits is None:
            values = self.values
            hits = self._hits[k] = np.flatnonzero((values >= self.lo[k]) & (values <= self.hi[k]))
            hits.setflags(write=False)
        return hits

    def cluster(self, ideal: Ideal, theta: float, ends: str | None = None) -> ClusterSet:
        """The cluster set under ``ideal`` (see ``cluster_of_values``)."""
        values, cells = self.values, self.cells
        decided: dict[int, tuple[int, PositivityResult, float, float]] = {}

        def decide(k: int) -> PositivityResult:
            if k not in decided:
                verdict, support = ideal.positivity(self.hits(k), len(values), theta)
                if verdict is PositivityResult.POSITIVE:
                    witness = values[support]
                    decided[k] = (cells[k], verdict, float(witness.min()), float(witness.max()))
                else:
                    decided[k] = (cells[k], verdict, 0.0, 0.0)
            return decided[k][1]

        if ends is None:
            for k in range(len(cells)):
                decide(k)
        if ends in ("hi", "both"):
            _scan_end(decide, cells, range(len(cells) - 1, -1, -1))
        if ends in ("lo", "both"):
            _scan_end(decide, cells, range(len(cells)))
        points, inconclusive = _merge([decided[k] for k in sorted(decided)], self.grid)
        if not points and not inconclusive:
            raise InconclusiveCellsError("no cell survived; sequence prefix may be empty")
        return ClusterSet(points, inconclusive, exact=False)


def cluster_of_values(
    values: np.ndarray,
    ideal: Ideal,
    cfg: CoreConfig,
    bound: float | None = None,
    *,
    ends: str | None = None,
) -> ClusterSet:
    """Numeric cluster-set estimate from a value prefix.

    Without ``ends`` every hit cell is decided.  With ``ends`` ``"hi"``,
    ``"lo"`` or ``"both"`` only the cells that can change the sup, the inf or
    both are decided, scanning from that end (``_scan_end``), each at most
    once: the result has the sup, the inf and the blocking inconclusive runs
    of the full cluster set, but lacks the cells between the ends.
    """
    values = np.asarray(values, dtype=np.float64)
    if bound is None:
        bound = float(np.max(np.abs(values))) if values.size else 0.0
    return _CellTable(values, bound, cfg.grid).cluster(ideal, cfg.theta, ends)


_LEVEL_STATUS = {
    MembershipResult.IN_IDEAL: PositivityResult.NULL,
    MembershipResult.POSITIVE: PositivityResult.POSITIVE,
    MembershipResult.IN_DUAL_FILTER: PositivityResult.POSITIVE,
    MembershipResult.INCONCLUSIVE: PositivityResult.INCONCLUSIVE,
}


def classify_levels(levels, ideal: Ideal, horizon: int, theta: float) -> list[tuple[float, PositivityResult, bool]]:
    """Decide each ``(value, level set)`` pair: ``(value, verdict, exact)`` per level.

    The verdict is the level set's positivity, in the estimator's vocabulary:
    ``POSITIVE`` when it is positive or in the dual filter, ``NULL`` when it
    lies in the ideal, ``INCONCLUSIVE`` when neither is decided.  ``exact``
    says the symbolic analysis (``decide_membership``) decided the level;
    otherwise ``estimate_membership`` judged the level set and its complement
    with the ideal's ``positivity`` on the prefix below ``horizon`` at ``theta``.
    """
    out = []
    for value, level_set in levels:
        verdict = decide_membership(level_set, ideal)
        exact = verdict is not None
        if not exact:
            verdict = estimate_membership(level_set, ideal, horizon, theta)
        out.append((value, _LEVEL_STATUS[verdict], exact))
    return out


_MAX_LEVELS = 64  # finitely-valued sequences with more levels take the value-prefix path


def _finitely_valued(x: BoundedSequence) -> bool:
    return x.level_sets is not None and len(x.level_sets) <= _MAX_LEVELS


def _level_cluster(x: BoundedSequence, ideal: Ideal, horizon: int, theta: float) -> ClusterSet:
    """Cluster set of a finitely-valued sequence, one decision per level.

    The values of positive levels are the cluster points; the values of
    undecided levels (and of no positive one) are inconclusive points.
    ``exact`` says every level was decided symbolically.
    """
    decisions = classify_levels(x.level_sets, ideal, horizon, theta)
    positive = {v for v, verdict, _ in decisions if verdict is PositivityResult.POSITIVE}
    undecided = {v for v, verdict, _ in decisions if verdict is PositivityResult.INCONCLUSIVE} - positive
    if not positive and not undecided:
        raise InconclusiveCellsError("no positively attained value")
    return ClusterSet(
        points=tuple((v, v) for v in sorted(positive)),
        inconclusive=tuple((v, v) for v in sorted(undecided)),
        exact=all(e for _, _, e in decisions),
    )


def _equidistributed_cluster(x: BoundedSequence, ideal: Ideal) -> ClusterSet | None:
    """[lo, hi], exactly, when x is equidistributed on [lo, hi) and the ideal
    decides the hit set of a subinterval positive; else None.

    Every value lies in [lo, hi), so no cluster point lies outside [lo, hi].
    The rules that decide a hit set read only that its subinterval is not
    empty (``sets.Hits``), so the ideal decides the hit set of every
    subinterval positive: every point of [lo, hi] is a cluster point.
    """
    if x.equidistributed is None:
        return None
    lo, hi = x.equidistributed
    if ideal.decide_in(x.hits(lo, (lo + hi) / 2)) is False:
        return ClusterSet(((lo, hi),), (), exact=True)
    return None


def _cluster_reader(
    x: BoundedSequence, cfg: CoreConfig, ends: str | None
) -> tuple[str, Callable[[Ideal], ClusterSet]]:
    """The function that reads x's cluster set under one ideal, and the
    method of a cluster set it reads that is not exact.

    A declared limit L is the one cluster point, exactly.  A finitely-valued
    sequence is read one decision per level (``_level_cluster``, method
    ``mixed``).  Otherwise the range of an equidistribution the ideal decides
    is the cluster set, exactly (``_equidistributed_cluster``), and else the
    value prefix is (method ``numeric``): it is sorted and gridded, once, into
    the ``_CellTable`` that every ideal read by the function shares, when the
    first ideal that needs it is read, and each ideal decides the cells that
    ``ends`` asks for (``_CellTable.cluster``); the table goes with the
    function.
    """
    if x.limit is not None:
        found = ClusterSet(((x.limit, x.limit),), (), exact=True)
        return "exact", lambda ideal: found
    if _finitely_valued(x):
        return "mixed", lambda ideal: _level_cluster(x, ideal, cfg.horizon, cfg.theta)
    table = None

    def cluster(ideal: Ideal) -> ClusterSet:
        nonlocal table
        found = _equidistributed_cluster(x, ideal)
        if found is None:
            if table is None:
                table = _CellTable(x.prefix(cfg.horizon), x.bound, cfg.grid)
            found = table.cluster(ideal, cfg.theta, ends)
        return found

    return "numeric", cluster


def cluster_points(
    x: BoundedSequence, ideal: Ideal, cfg: CoreConfig | None = None, *, ends: str | None = None
) -> ClusterSet:
    """Cluster-point intervals of the sequence under the ideal
    (``_cluster_reader``); ``ends`` reaches the value-prefix path, as in
    ``cluster_of_values``, and the level path decides every level."""
    return _cluster_reader(x, cfg or CoreConfig(), ends)[1](ideal)


def _sup_of(cluster: ClusterSet) -> float:
    if not cluster.points:
        raise InconclusiveCellsError("only inconclusive cells survived", cluster.inconclusive)
    top = cluster.sup
    blocking = tuple(w for w in cluster.inconclusive if w[1] > top)
    if blocking:
        raise InconclusiveCellsError("inconclusive cells above the largest surviving value", blocking)
    return top


def _inf_of(cluster: ClusterSet) -> float:
    if not cluster.points:
        raise InconclusiveCellsError("only inconclusive cells survived", cluster.inconclusive)
    bottom = cluster.inf
    blocking = tuple(w for w in cluster.inconclusive if w[0] < bottom)
    if blocking:
        raise InconclusiveCellsError("inconclusive cells below the smallest surviving value", blocking)
    return bottom


def ideal_limsup(x: BoundedSequence, ideal: Ideal, cfg: CoreConfig | None = None) -> float:
    return _sup_of(cluster_points(x, ideal, cfg, ends="hi"))


def ideal_liminf(x: BoundedSequence, ideal: Ideal, cfg: CoreConfig | None = None) -> float:
    return _inf_of(cluster_points(x, ideal, cfg, ends="lo"))


def limsup_of_values(
    values: np.ndarray, ideal: Ideal, cfg: CoreConfig, bound: float | None = None
) -> float:
    """Ideal limsup estimate for a derived value prefix (row sums and the like)."""
    return _sup_of(cluster_of_values(values, ideal, cfg, bound=bound, ends="hi"))


def _core_reader(x: BoundedSequence, cfg: CoreConfig) -> Callable[[Ideal], CoreInterval]:
    """The function that reads x's core under one ideal: the two ends of its
    cluster set, from one ``_cluster_reader`` for every ideal it reads."""
    method, cluster = _cluster_reader(x, cfg, "both")

    def read(ideal: Ideal) -> CoreInterval:
        found = cluster(ideal)
        lo, hi = _inf_of(found), _sup_of(found)
        if found.exact:
            return CoreInterval(lo, hi, "exact")
        return CoreInterval(lo, hi, method, cfg.horizon, cfg.grid if method == "numeric" else None, cfg.theta)

    return read


def core(x: BoundedSequence, ideal: Ideal, cfg: CoreConfig | None = None) -> CoreInterval:
    """The core interval [ideal liminf, ideal limsup] at the configured truncation."""
    return _core_reader(x, cfg or CoreConfig())(ideal)


def cores(x: BoundedSequence, ideals: list[Ideal], cfg: CoreConfig | None = None) -> list[CoreInterval | Exception]:
    """``core(x, ideal, cfg)`` for each of ``ideals``, in order: its interval,
    or the exception it raises, without the frames it was raised through (so
    a kept exception keeps no sequence or prefix alive).  A value prefix is
    sorted and gridded at most once for all the ideals, and each cell's hits
    are read once; each ideal then decides the cells its end scans reach."""
    read = _core_reader(x, cfg or CoreConfig())
    out: list[CoreInterval | Exception] = []
    for ideal in ideals:
        try:
            out.append(read(ideal))
        except Exception as exc:
            out.append(exc.with_traceback(None))
    return out


def ideal_lim_check(
    values: np.ndarray,
    target: float,
    tol: float,
    ideal: Ideal,
    theta: float = DEFAULT_THETA,
) -> tuple[bool | None, dict]:
    """Does the ideal limit of the value prefix equal ``target`` within ``tol``?

    The deviation index set {n : |v_n − target| > tol} is judged by the
    ideal's positivity estimator: a null deviation set confirms the limit, a
    positive one refutes it (with a witness index), otherwise inconclusive.
    """
    values = np.asarray(values, dtype=np.float64)
    horizon = len(values)
    deviations = np.abs(values - target)
    dev_idx = np.nonzero(deviations > tol)[0]
    verdict, support = ideal.positivity(dev_idx, horizon, theta)
    info: dict = {
        "target": target,
        "tol": tol,
        "deviation_count": int(dev_idx.size),
        "horizon": horizon,
    }
    if verdict is PositivityResult.NULL:
        info["max_tail_deviation"] = float(deviations[horizon // 2 :].max()) if horizon else 0.0
        return True, info
    if verdict is PositivityResult.POSITIVE:
        witness = int(support[np.argmax(deviations[support])])
        info["witness_index"] = witness
        info["witness_value"] = float(values[witness])
        info["witness_deviation"] = float(deviations[witness])
        return False, info
    return None, info
