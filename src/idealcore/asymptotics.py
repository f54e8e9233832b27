"""Ideal limsup/liminf, cluster sets, and cores of bounded sequences.

A finitely-valued sequence (one that carries its level sets) has as cluster
points exactly the values whose level sets are positive, so its cluster set is
read off one decision per level, with no grid.  ``classify_levels`` is the one
place where level sets are decided: symbolically when the structural analysis
applies, by the numeric estimator at the run's ``theta`` otherwise, and each
decision says which.  ``core``, ``cluster_points`` and ``oracle_core`` all read
finitely-valued sequences through it.

Value prefixes go through the numeric engine: it partitions the value range
into grid cells of width ``grid`` and keeps a cell iff the index set hitting
its slightly enlarged window (width 1.5·grid, so boundary values are never
lost to discretization) is judged positive by the ideal's estimator.  Reported
interval endpoints come from the values attained on the supporting hits, not
from cell boundaries, which keeps the discretization error well inside the
grid resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .ideals import DEFAULT_THETA, Ideal, MembershipResult, PositivityResult
from .ideals import decide_membership, estimate_membership
from .sequences import BoundedSequence
from .sets import contains_predicate

__all__ = [
    "CoreConfig",
    "CoreInterval",
    "ClusterSet",
    "InconclusiveCellsError",
    "UnsupportedInstanceError",
    "classify_levels",
    "cluster_points",
    "cluster_of_values",
    "ideal_limsup",
    "ideal_liminf",
    "limsup_of_values",
    "core",
    "oracle_core",
    "ideal_lim_check",
]


class InconclusiveCellsError(RuntimeError):
    """The positivity estimator was inconclusive where it changes the answer."""

    def __init__(self, message: str, cells: tuple[tuple[float, float], ...] = ()):
        super().__init__(message)
        self.cells = cells


class UnsupportedInstanceError(ValueError):
    """The symbolic oracle does not apply to this sequence/ideal pair."""


@dataclass(frozen=True)
class CoreConfig:
    """Truncation parameters for the numeric engine."""

    horizon: int = 100_000
    grid: float = 0.01
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if self.horizon < 100:
            raise ValueError("horizon must be at least 100")
        if self.grid <= 0:
            raise ValueError("grid resolution must be positive")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CoreInterval:
    lo: float
    hi: float
    # "exact" (every level set decided symbolically), "mixed" (some level sets
    # decided by the numeric estimator), "numeric" (a value prefix on the grid)
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


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array (``np.unique`` without its
    hash table, which costs about 1 MB per call)."""
    first = np.ones(ascending.size, dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=first[1:])
    return ascending[first]


def _hit_cells(sv: np.ndarray, bound: float, grid: float):
    """The cells of the range whose window holds a value of the sorted prefix
    ``sv``, ascending, each with the slice ``[a, b)`` of ``sv`` in its window.

    A value v lies only in the windows of the cells next to ``floor(v / grid)``,
    so only those cells are searched, two vectorized ``searchsorted`` calls in
    all; the other cells of the range hold no value.
    """
    span = _cell_range(bound, grid)
    near = sv / grid
    np.floor(near, out=near)  # ascending, like sv
    cand = _distinct(np.sort((_distinct(near)[:, None] + np.arange(-2.0, 3.0)).ravel()))
    cand = cand[(cand >= span.start) & (cand < span.stop)]
    a = np.searchsorted(sv, (cand - _ENLARGE) * grid, side="left")
    b = np.searchsorted(sv, (cand + 1 + _ENLARGE) * grid, side="right")
    hit = a < b
    return cand[hit].astype(np.int64).tolist(), a[hit].tolist(), b[hit].tolist()


def _merge(cells: list[tuple[int, str, float, float]], grid: float):
    """Merge runs of adjacent cells ``(index, status, wmin, wmax)`` of one status:
    the value range of each positive run, the cell range of each inconclusive run."""
    points: list[tuple[float, float]] = []
    inconclusive: list[tuple[float, float]] = []
    for status, group in groupby(cells, key=lambda cell: cell[1]):
        run = list(group)
        if status == "pos":
            points.append((min(c[2] for c in run), max(c[3] for c in run)))
        elif status == "inc":
            inconclusive.append((run[0][0] * grid, (run[-1][0] + 1) * grid))
    return tuple(points), tuple(inconclusive)


def cluster_of_values(
    values: np.ndarray, ideal: Ideal, cfg: CoreConfig, bound: float | None = None
) -> ClusterSet:
    """Numeric cluster-set estimate from a value prefix."""
    values = np.asarray(values, dtype=np.float64)
    if bound is None:
        bound = float(np.max(np.abs(values))) if values.size else 0.0
    horizon = len(values)
    order = np.argsort(values, kind="stable")
    sv = values[order]
    cells: list[tuple[int, str, float, float]] = []
    for i, a, b in zip(*_hit_cells(sv, bound, cfg.grid)):
        if cells and cells[-1][0] != i - 1:  # an empty cell in between splits the runs
            cells.append((i - 1, "null", 0.0, 0.0))
        verdict, support = ideal.positivity(np.sort(order[a:b]), horizon, cfg.theta)
        if verdict is PositivityResult.POSITIVE:
            witness = values[support]
            cells.append((i, "pos", float(witness.min()), float(witness.max())))
        else:
            cells.append((i, "inc" if verdict is PositivityResult.INCONCLUSIVE else "null", 0.0, 0.0))
    points, inconclusive = _merge(cells, cfg.grid)
    if not points and not inconclusive:
        raise InconclusiveCellsError("no cell survived; sequence prefix may be empty")
    return ClusterSet(points, inconclusive, exact=False)


_LEVEL_STATUS = {
    MembershipResult.IN_IDEAL: "null",
    MembershipResult.POSITIVE: "pos",
    MembershipResult.IN_DUAL_FILTER: "pos",
    MembershipResult.INCONCLUSIVE: "inc",
}


def classify_levels(levels, ideal: Ideal, horizon: int, theta: float) -> list[tuple[float, str, bool]]:
    """Decide each ``(value, level set)`` pair: ``(value, status, exact)`` per level.

    ``status`` is ``"pos"`` (positive, or in the dual filter), ``"null"`` (in
    the ideal) or ``"inc"`` (undecided).  ``exact`` says the symbolic analysis
    decided the level; otherwise the ideal's positivity estimator judged the
    level set and its complement on the prefix below ``horizon`` at ``theta``.
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
    positive = {v for v, status, _ in decisions if status == "pos"}
    undecided = {v for v, status, _ in decisions if status == "inc"} - positive
    if not positive and not undecided:
        raise InconclusiveCellsError("no positively attained value")
    return ClusterSet(
        points=tuple((v, v) for v in sorted(positive)),
        inconclusive=tuple((v, v) for v in sorted(undecided)),
        exact=all(e for _, _, e in decisions),
    )


def cluster_points(x: BoundedSequence, ideal: Ideal, cfg: CoreConfig | None = None) -> ClusterSet:
    """Cluster-point intervals of the sequence under the ideal."""
    cfg = cfg or CoreConfig()
    if _finitely_valued(x):
        return _level_cluster(x, ideal, cfg.horizon, cfg.theta)
    return cluster_of_values(x.prefix(cfg.horizon), ideal, cfg, bound=x.bound)


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
    return _sup_of(cluster_points(x, ideal, cfg))


def ideal_liminf(x: BoundedSequence, ideal: Ideal, cfg: CoreConfig | None = None) -> float:
    return _inf_of(cluster_points(x, ideal, cfg))


def limsup_of_values(
    values: np.ndarray, ideal: Ideal, cfg: CoreConfig, bound: float | None = None
) -> float:
    """Ideal limsup estimate for a derived value prefix (row sums and the like)."""
    return _sup_of(cluster_of_values(values, ideal, cfg, bound=bound))


def core(x: BoundedSequence, ideal: Ideal, cfg: CoreConfig | None = None) -> CoreInterval:
    """The core interval [ideal liminf, ideal limsup] at the configured truncation."""
    cfg = cfg or CoreConfig()
    cluster = cluster_points(x, ideal, cfg)
    return CoreInterval(
        lo=_inf_of(cluster),
        hi=_sup_of(cluster),
        method=("exact" if cluster.exact else "mixed") if _finitely_valued(x) else "numeric",
        horizon=cfg.horizon,
        grid=cfg.grid,
        theta=cfg.theta,
    )


_ORACLE_HORIZON = 100_000  # prefix for the levels the symbolic analysis leaves open


def oracle_core(x: BoundedSequence, ideal: Ideal, theta: float = DEFAULT_THETA) -> CoreInterval:
    """Core of a finitely-valued sequence, read off its level-set decisions.

    Independent of the grid: a value is a cluster point iff its level set is
    positive.  The method is ``"exact"`` when every level set was decided
    symbolically and ``"mixed"`` when the numeric estimator decided some of
    them on the prefix below ``_ORACLE_HORIZON`` at threshold ``theta``; a
    mixed result records that horizon and threshold.  Raises
    :class:`UnsupportedInstanceError` for unstructured sequences, predicate
    level sets and undecided level sets.
    """
    if x.level_sets is None:
        raise UnsupportedInstanceError(f"{x.label}: no level-set structure")
    for value, level_set in x.level_sets:
        if contains_predicate(level_set):
            raise UnsupportedInstanceError(f"{x.label}: predicate level set for value {value}")
    try:
        cluster = _level_cluster(x, ideal, _ORACLE_HORIZON, theta)
    except InconclusiveCellsError:
        raise UnsupportedInstanceError(f"{x.label}: no positively attained value") from None
    if cluster.inconclusive:
        raise UnsupportedInstanceError(
            f"{x.label}: membership of the level set of {cluster.inconclusive[0][0]} is undecided"
        )
    if cluster.exact:
        return CoreInterval(lo=cluster.inf, hi=cluster.sup, method="exact")
    return CoreInterval(lo=cluster.inf, hi=cluster.sup, method="mixed", horizon=_ORACLE_HORIZON, theta=theta)


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
