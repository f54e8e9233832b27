"""Verdict-producing checkers for the matrix characterizations.

Every "for all sets E" quantifier is approximated by a finite, exactly
classified test family, so a Satisfied verdict means "no violation found over
the family at the horizon"; the checkers are falsifiers/corroborators, and
each verdict records the horizon and tolerances it used.

A limit or limsup condition on the row sums over E is judged exactly where the
matrix states their structure (``InfiniteMatrix.masked_sum_structure``) and
that structure decides it.  A row selection's sums over E are the indicator
of h⁻¹(E), whose J-cluster points are the values of its J-positive level sets,
each decided symbolically by ``ideals.decide_membership``; Cesàro's
sums over E tend to the density of E where it exists, the one J-cluster point
under every catalog ideal, since each contains Fin.  A banded matrix's explicit
rows are the structure's finite head, and its closed-form tail states the
levels: the identity's, the zero tail's 0 or the repeated last row's sum.  So
the J-limit is the target iff every cluster point lies within ``tol`` of it,
and the J-limsup is the largest cluster point.  Every other condition, and one
whose level sets the symbolic analysis leaves undecided, is judged on the value
prefix of the row sums: limit conditions through the ideal-limit deviation
test, limsup conditions through the same cluster estimator that powers the
core computations.  Each condition says which (``method``: ``exact`` or
``numeric``), and a verdict is exact when all of its conditions are.

Checks of one matrix share work through a :class:`CheckMemo` passed as
``memo``: the default family per (ideal, seed), the Silverman–Toeplitz verdict
that every characterization's regularity condition reads, the Allen verdict,
and each family condition (T3, A3, C2, L2: the row sums over one family set,
judged under J).  A condition is judged once per matrix, set, J and config
and handed to each checker under its own name, so CFO's C2 and Leo's L2 of a
nonnegative matrix, whose absolute row sums are its row sums, are one
computation, and Allen's A3 is Leo's L2 under (Fin, Fin).  The core equality
experiments read corpus entries' cores through the same memo.  Memo keys are
values, ideals included.  A memo changes no result; a caller without one
makes its own.
"""

from __future__ import annotations

import copy
import enum
import math
import random
from typing import Callable

import numpy as np

from . import sets as sd
from .asymptotics import (
    CoreConfig,
    CoreInterval,
    InconclusiveCellsError,
    cores,
    ideal_lim_check,
    limsup_of_values,
)
from .ideals import (
    DEFAULT_THETA,
    FinIdeal,
    Ideal,
    MembershipResult,
    decide_membership,
    membership,
)
from .matrices import InfiniteMatrix, SumStructure, find_negative_entry
from .records import record
from .sequences import BoundedSequence
from .sets import Cardinality, SetDescription

__all__ = [
    "CheckConfig",
    "Status",
    "ConditionReport",
    "Verdict",
    "TestFamily",
    "FamilyMisclassifiedError",
    "NegativeEntryError",
    "default_family",
    "silverman_toeplitz_check",
    "allen_check",
    "cfo_check",
    "leo_check",
    "CHECKS",
]


# Uncertified row-sum sups above this flag a boundedness violation.
_NORM_CAP = 1e3


class FamilyMisclassifiedError(ValueError):
    """A family set fails the membership slot it was claimed for."""


class NegativeEntryError(ValueError):
    def __init__(self, row: int, col: int, value: float):
        super().__init__(f"negative entry a[{row},{col}] = {value}")
        self.row, self.col, self.value = row, col, value


class Status(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@record(frozen=True)
class CheckConfig:
    horizon: int = 10_000
    tol: float = 1e-2
    theta: float = DEFAULT_THETA
    grid: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.tol):
            raise ValueError("tol must be finite")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")

    def core_config(self) -> CoreConfig:
        return CoreConfig(horizon=self.horizon, grid=self.grid, theta=self.theta)


@record(frozen=True)
class ConditionReport:
    name: str
    ok: bool | None  # None = inconclusive
    margin: float
    details: dict
    witness_set: SetDescription | None = None
    witness_row: int | None = None
    # "exact" (decided symbolically) or "numeric" (decided at the horizon)
    method: str = "numeric"

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "ok": self.ok,
            "margin": self.margin,
            "method": self.method,
            "details": {k: v for k, v in sorted(self.details.items())},
        }
        if self.witness_set is not None:
            out["witness_set"] = sd.set_to_dict(self.witness_set)
        if self.witness_row is not None:
            out["witness_row"] = self.witness_row
        return out


@record(frozen=True)
class Verdict:
    status: Status
    conditions: tuple[ConditionReport, ...]
    witness_set: SetDescription | None
    witness_row: int | None
    notes: tuple[str, ...]
    horizon: int
    tol: float

    @property
    def method(self) -> str:
        """``exact`` when every condition is, else ``numeric``."""
        return "exact" if all(c.method == "exact" for c in self.conditions) else "numeric"

    def to_dict(self) -> dict:
        out = {
            "status": self.status.value,
            "method": self.method,
            "conditions": [c.to_dict() for c in self.conditions],
            "notes": list(self.notes),
            "horizon": self.horizon,
            "tol": self.tol,
        }
        if self.witness_set is not None:
            out["witness"] = {"kind": "set", "set": sd.set_to_dict(self.witness_set)}
        elif self.witness_row is not None:
            out["witness"] = {"kind": "row", "row": self.witness_row}
        else:
            out["witness"] = None
        return out


@record(frozen=True)
class TestFamily:
    """Finite stand-ins for the theorem quantifiers, exactly classified."""

    sets_in_ideal: tuple[SetDescription, ...]
    sets_positive: tuple[SetDescription, ...]
    sets_infinite: tuple[SetDescription, ...]

    def validate(self, ideal: Ideal) -> None:
        for s in self.sets_in_ideal:
            if membership(s, ideal) is not MembershipResult.IN_IDEAL:
                raise FamilyMisclassifiedError(f"{sd.set_to_dict(s)} is not in the ideal")
        for s in self.sets_positive:
            if membership(s, ideal) not in (
                MembershipResult.POSITIVE,
                MembershipResult.IN_DUAL_FILTER,
            ):
                raise FamilyMisclassifiedError(f"{sd.set_to_dict(s)} is not positive")
        for s in self.sets_infinite:
            if s.cardinality() is not Cardinality.INFINITE:
                raise FamilyMisclassifiedError(f"{sd.set_to_dict(s)} is not certifiably infinite")


def _default_pool(seed: int) -> list[SetDescription]:
    pool: list[SetDescription] = [
        sd.omega(),
        sd.evens(),
        sd.odds(),
        sd.squares(),
        sd.ap(0, 3),
        sd.ap(1, 3),
        sd.ap(1, 4),
        sd.GeometricBlocks(2, 0, 2),
        sd.explicit(0),
        sd.explicit(*range(10)),
        sd.explicit(5, 25, 125),
    ]
    rng = random.Random(seed)
    for _ in range(5):
        step = rng.choice([5, 6, 7, 9, 10, 11])
        count = rng.randint(1, step - 1)
        residues = sorted(rng.sample(range(step), count))
        pool.append(sd.union_all([sd.ap(r, step) for r in residues]))
    return pool


def default_family(ideal: Ideal, seed: int = 0) -> TestFamily:
    """Pool sets sorted into the family slots by :func:`~idealcore.ideals.membership`.

    ``membership`` decides a set symbolically when the structural analysis
    applies and otherwise falls back to the ideal's numeric estimator on the
    prefix below 100 000.  Under each catalog ideal, ``fin_times_empty``
    included, every pool set is decided symbolically.  Only sets whose verdict
    is inconclusive are left out of the in-ideal and positive slots.  Every
    certifiably infinite pool set is listed as infinite.
    """
    in_ideal, positive, infinite = [], [], []
    for s in _default_pool(seed):
        verdict = membership(s, ideal)
        if verdict is MembershipResult.IN_IDEAL:
            in_ideal.append(s)
        elif verdict in (MembershipResult.POSITIVE, MembershipResult.IN_DUAL_FILTER):
            positive.append(s)
        if s.cardinality() is Cardinality.INFINITE:
            infinite.append(s)
    return TestFamily(tuple(in_ideal), tuple(positive), tuple(infinite))


class CheckMemo:
    """Results that several checks and experiments of a suite share.

    ``families`` holds the default family per (ideal, seed) and ``cores`` the
    core of a sequence per (sequence, ideal, config); ``results`` holds the
    Silverman–Toeplitz and Allen verdicts per (matrix, ideals, family,
    config) and the family conditions per (judge, matrix, absoluteness, J,
    config, target), as a table by family set (see ``_family_conditions``).
    Keys are the values themselves: equal ideals, however spelled or parsed,
    share entries, and a memo keeps its matrix, sets and sequences alive, so
    ``harness.run_suite`` gives each matrix its own memo over one suite-wide
    ``families`` and ``cores``.  A caller without a memo makes a fresh one,
    so a direct call computes everything itself.  The cores of A·x
    (``image_cores``) are not kept: an experiment asks for each (matrix,
    entry, J) once.  The memo keeps intervals only, never a sequence or a
    cell table; a result that raises is returned, not kept.
    """

    def __init__(self, families: dict | None = None, cores: dict | None = None):
        self.families = {} if families is None else families
        self.cores = {} if cores is None else cores
        self.results = {}

    def family(self, ideal: Ideal, seed: int) -> TestFamily:
        key = (ideal, seed)
        if key not in self.families:
            self.families[key] = default_family(ideal, seed)
        return self.families[key]

    def result(self, key: tuple, compute: Callable[[], Verdict | dict]) -> Verdict | dict:
        result = self.results.get(key)
        if result is None:
            result = self.results[key] = compute()
        return result

    def cores_of(self, x: BoundedSequence, ideals: list[Ideal], cfg: CoreConfig) -> list[CoreInterval | Exception]:
        """x's core under each of ``ideals``, or the exception it raised, from
        the suite-wide ``cores`` where kept; the missing ones from one
        ``asymptotics.cores`` call, so a value prefix is gridded once for all
        of them.  Intervals are kept, exceptions only returned."""
        missing = list(dict.fromkeys(i for i in ideals if (x, i, cfg) not in self.cores))
        found = dict(zip(missing, cores(x, missing, cfg))) if missing else {}
        self.cores.update(((x, i, cfg), c) for i, c in found.items() if not isinstance(c, Exception))
        return [found[i] if i in found else self.cores[x, i, cfg] for i in ideals]

    def image_cores(
        self,
        a: InfiniteMatrix,
        x: BoundedSequence,
        ideals: list[Ideal],
        cfg: CoreConfig,
        build: Callable[[], BoundedSequence],
    ) -> list[CoreInterval | Exception]:
        """The core of A·x under each of ``ideals``, or the exception it raised:
        A·x is built by ``build()`` once and read in one ``asymptotics.cores``
        call over the distinct ideals, and neither it nor its cores are kept.
        Where A selects rows by the identity map, A·x is x bit for bit, so its
        cores are read from the suite-wide ``cores`` and no A·x is built."""
        h = a.row_selection()
        if h is not None and h.affine == (1, 0):
            return self.cores_of(x, ideals, cfg)
        distinct = list(dict.fromkeys(ideals))
        try:
            found = dict(zip(distinct, cores(build(), distinct, cfg)))
        except Exception as exc:  # ``build()`` raised
            return [exc.with_traceback(None)] * len(ideals)
        return [found[ideal] for ideal in ideals]


def _resolve_family(family: TestFamily | None, ideal: Ideal, seed: int, memo: CheckMemo) -> TestFamily:
    """The caller's family, validated against the ideal, or else the default
    family, which its construction classifies already."""
    if family is None:
        return memo.family(ideal, seed)
    family.validate(ideal)
    return family


def _set_label(s: SetDescription) -> str:
    d = sd.set_to_dict(s)
    kind = d["type"]
    if kind == "arithmetic_progression":
        return f"ap({d['offset']},{d['step']})"
    if kind == "explicit":
        els = d["elements"]
        return f"explicit[{els[0]}..{els[-1]}]" if len(els) > 2 else f"explicit{els}"
    if kind == "geometric_blocks":
        return f"gblocks({d['base']},{d['residue']},{d['modulus']})"
    if kind == "union":
        return "union(...)"
    return kind


def _exact_points(
    a: InfiniteMatrix, columns: SetDescription | None, absolute: bool, ideal_j: Ideal
) -> tuple[list[float], SumStructure] | None:
    """The J-cluster points of A's row sums over ``columns``, ascending, read
    off their structure, with that structure; None where A states none, where
    a level set is not decided symbolically, or where no level is positive."""
    structure = a.masked_sum_structure(columns, absolute=absolute)
    if structure is None:
        return None
    if structure.levels is None:
        return [structure.limit], structure
    points = []
    for value, level_set in structure.levels:
        verdict = decide_membership(level_set, ideal_j)
        if verdict is None:
            return None
        if verdict is not MembershipResult.IN_IDEAL:
            points.append(value)
    if not points:
        return None
    points.sort()
    return points, structure


def _lim_condition(
    name: str,
    a: InfiniteMatrix,
    columns: SetDescription | None,
    absolute: bool,
    target: float,
    ideal_j: Ideal,
    cfg: CheckConfig,
    witness_set: SetDescription | None = None,
) -> ConditionReport:
    """Is the J-limit of A's (absolute) row sums over ``columns`` the target?"""
    exact = _exact_points(a, columns, absolute, ideal_j)
    if exact is not None:
        points, structure = exact
        deviation = max(abs(v - target) for v in points)
        ok = deviation <= cfg.tol
        details = {
            "target": target,
            "tol": cfg.tol,
            "cluster_points": points,
            "horizon": cfg.horizon,
            "value_at_horizon": structure.row_sum(cfg.horizon - 1),
        }
        if structure.levels is not None:
            details["deviation_count"] = structure.count_deviations(target, cfg.tol, cfg.horizon)
        return ConditionReport(
            name, ok, 0.0 if ok else deviation, details, None if ok else witness_set, method="exact"
        )
    values = a.masked_row_sums(columns, cfg.horizon, absolute=absolute)
    ok, info = ideal_lim_check(values, target, cfg.tol, ideal_j, cfg.theta)
    margin = float(info.get("witness_deviation", 0.0)) if ok is False else 0.0
    info["value_at_horizon"] = float(values[-1]) if len(values) else 0.0
    return ConditionReport(
        name=name,
        ok=ok,
        margin=margin,
        details=info,
        witness_set=witness_set if ok is False else None,
        witness_row=info.get("witness_index") if ok is False else None,
    )


def _limsup_condition(
    name: str,
    a: InfiniteMatrix,
    columns: SetDescription | None,
    absolute: bool,
    target: float,
    ideal_j: Ideal,
    cfg: CheckConfig,
    witness_set: SetDescription,
) -> ConditionReport:
    """Is the J-limsup of A's (absolute) row sums over ``columns`` the target?"""
    exact = _exact_points(a, columns, absolute, ideal_j)
    if exact is not None:
        points, structure = exact
        details = {
            "limsup": points[-1],
            "horizon": cfg.horizon,
            "value_at_horizon": structure.row_sum(cfg.horizon - 1),
        }
        deviation = abs(points[-1] - target)
        ok = deviation <= cfg.tol
        return ConditionReport(
            name, ok, 0.0 if ok else deviation, details, None if ok else witness_set, method="exact"
        )
    values = a.masked_row_sums(columns, cfg.horizon, absolute=absolute)
    details = {
        "value_at_horizon": float(values[-1]) if len(values) else 0.0,
        "horizon": len(values),
    }
    try:
        est = limsup_of_values(values, ideal_j, cfg.core_config())
    except InconclusiveCellsError as exc:
        details["inconclusive_cells"] = [list(w) for w in exc.cells]
        return ConditionReport(name=name, ok=None, margin=0.0, details=details)
    deviation = abs(est - target)
    ok = deviation <= cfg.tol
    details["limsup_estimate"] = float(est)
    return ConditionReport(
        name=name,
        ok=ok,
        margin=(deviation if not ok else 0.0),
        details=details,
        witness_set=witness_set if not ok else None,
    )


_STATUS_OK = {Status.SATISFIED: True, Status.VIOLATED: False, Status.INCONCLUSIVE: None}


def _regular_condition(
    name: str,
    a: InfiniteMatrix,
    ideal_i: Ideal,
    ideal_j: Ideal,
    family: TestFamily,
    cfg: CheckConfig,
    memo: CheckMemo,
) -> ConditionReport:
    """The regularity condition of a characterization: the Silverman–Toeplitz
    verdict folded into one condition that carries its strongest witness."""
    base = _silverman_toeplitz(a, ideal_i, ideal_j, family, cfg, memo)
    return ConditionReport(
        name=name,
        ok=_STATUS_OK[base.status],
        margin=max((c.margin for c in base.conditions if c.ok is False), default=0.0),
        details={"status": base.status.value},
        witness_set=base.witness_set,
        witness_row=base.witness_row,
        method=base.method,
    )


def _family_conditions(
    prefix: str,
    judge: Callable[..., ConditionReport],
    target: float,
    a: InfiniteMatrix,
    sets: tuple[SetDescription, ...],
    ideal_j: Ideal,
    cfg: CheckConfig,
    memo: CheckMemo,
    absolute: bool = True,
) -> list[ConditionReport]:
    """One condition ``prefix[E]`` per family set E, judging the row sums of A
    over the columns in E: ``judge(name, a, E, absolute, target, ideal_j, cfg,
    witness_set=E)``, where ``judge`` is ``_lim_condition`` (their J-limit is
    the target) or ``_limsup_condition`` (their J-limsup is).

    Each condition is judged once per memo, keyed by everything the judge
    reads: the memo holds one table of judged sets per (judge, matrix,
    absoluteness, J, config, target), where the absolute flag drops out if
    A's absolute row sums are its row sums bit for bit.  Every caller gets
    its own report, named by its prefix, with its own copy of the details.
    """
    absolute = absolute and not a.abs_sums_are_sums
    judged = memo.result(("conditions", judge, a, absolute, ideal_j, cfg, target), dict)
    reports = []
    for e in sets:
        name = f"{prefix}[{_set_label(e)}]"
        shared = judged.get(e)
        if shared is None:
            shared = judged[e] = judge(name, a, e, absolute, target, ideal_j, cfg, e)
        # Scalars are immutable; the lists (inconclusive cells, cluster points) are copied.
        details = {k: copy.deepcopy(v) if isinstance(v, list) else v for k, v in shared.details.items()}
        reports.append(ConditionReport(
            name, shared.ok, shared.margin, details, shared.witness_set, shared.witness_row, shared.method
        ))
    return reports


def _assemble(
    conditions: list[ConditionReport],
    guard_ok: bool,
    notes: list[str],
    cfg: CheckConfig,
) -> Verdict:
    violated = [c for c in conditions if c.ok is False]
    witness_set = witness_row = None
    if violated:
        strongest = max(violated, key=lambda c: c.margin)
        witness_set, witness_row = strongest.witness_set, strongest.witness_row
        status = Status.VIOLATED
    elif any(c.ok is None for c in conditions):
        status = Status.INCONCLUSIVE
        notes = notes + ["some conditions were numerically inconclusive"]
    elif not guard_ok:
        status = Status.INCONCLUSIVE
    else:
        status = Status.SATISFIED
    if not guard_ok and status is Status.VIOLATED:
        # Conditions fail, but without the applicability guard the failure
        # does not refute the semantic property the theorem characterizes.
        status = Status.INCONCLUSIVE
    return Verdict(
        status=status,
        conditions=tuple(conditions),
        witness_set=witness_set,
        witness_row=witness_row,
        notes=tuple(notes),
        horizon=cfg.horizon,
        tol=cfg.tol,
    )


def silverman_toeplitz_check(
    a: InfiniteMatrix,
    ideal_i: Ideal,
    ideal_j: Ideal,
    family: TestFamily | None = None,
    cfg: CheckConfig | None = None,
    *,
    memo: CheckMemo | None = None,
) -> Verdict:
    """Regularity conditions: bounded norm, row sums with ideal limit 1, and
    vanishing ideal limit of absolute row sums over every family set in I.

    The characterization is only asserted under its applicability guard
    (nonnegative matrix, or I = Fin, or countably generated J); otherwise the
    conditions are still reported but the verdict is stamped inconclusive.
    """
    cfg = cfg or CheckConfig()
    memo = memo or CheckMemo()
    family = _resolve_family(family, ideal_i, cfg.seed, memo)
    return _silverman_toeplitz(a, ideal_i, ideal_j, family, cfg, memo)


def _silverman_toeplitz(
    a: InfiniteMatrix, ideal_i: Ideal, ideal_j: Ideal, family: TestFamily, cfg: CheckConfig, memo: CheckMemo
) -> Verdict:
    """``silverman_toeplitz_check`` on a family that is already classified,
    computed once per memo."""
    key = ("st", a, ideal_i, ideal_j, family, cfg)
    return memo.result(key, lambda: _silverman_toeplitz_conditions(a, ideal_i, ideal_j, family, cfg, memo))


def _silverman_toeplitz_conditions(
    a: InfiniteMatrix, ideal_i: Ideal, ideal_j: Ideal, family: TestFamily, cfg: CheckConfig, memo: CheckMemo
) -> Verdict:
    notes: list[str] = []
    guard_ok = (
        ideal_j.classify().is_countably_generated
        or isinstance(ideal_i, FinIdeal)
        or find_negative_entry(a, cfg.horizon) is None
    )
    if not guard_ok:
        notes.append(
            "applicability guard unmet (need a nonnegative matrix, I = Fin, or a "
            "countably generated J); conditions reported without the equivalence claim"
        )
    conditions: list[ConditionReport] = []

    abs_sums = a.row_sums(cfg.horizon, absolute=True)
    sup, certified = float(np.max(abs_sums)), a.norm_bound is not None
    t1_ok = certified or sup <= _NORM_CAP
    conditions.append(
        ConditionReport(
            name="T1(bounded-norm)",
            ok=t1_ok,
            margin=(sup - _NORM_CAP) if not t1_ok else 0.0,
            details={"sup_rowsum": sup, "certified": certified, "cap": _NORM_CAP},
            witness_row=None if t1_ok else int(np.argmax(abs_sums)),
            method="exact" if certified else "numeric",
        )
    )

    conditions.append(_lim_condition("T2(row-sums)", a, None, False, 1.0, ideal_j, cfg))

    conditions += _family_conditions("T3", _lim_condition, 0.0, a, family.sets_in_ideal, ideal_j, cfg, memo)
    return _assemble(conditions, guard_ok, notes, cfg)


def allen_check(
    a: InfiniteMatrix,
    family: TestFamily | None = None,
    cfg: CheckConfig | None = None,
    *,
    memo: CheckMemo | None = None,
) -> Verdict:
    """Knopp-core preservation conditions for the classical (Fin, Fin) case:
    regularity, absolute row sums converging to 1, and limsup of absolute row
    sums equal to 1 along every infinite family set."""
    cfg = cfg or CheckConfig()
    memo = memo or CheckMemo()
    family = _resolve_family(family, FinIdeal(), cfg.seed, memo)
    return memo.result(("allen", a, family, cfg), lambda: _allen_conditions(a, family, cfg, memo))


def _allen_conditions(a: InfiniteMatrix, family: TestFamily, cfg: CheckConfig, memo: CheckMemo) -> Verdict:
    fin_ideal = FinIdeal()
    conditions = [
        _regular_condition("A1(regular)", a, fin_ideal, fin_ideal, family, cfg, memo),
        _lim_condition("A2(abs-row-sums)", a, None, True, 1.0, fin_ideal, cfg),
    ]
    conditions += _family_conditions("A3", _limsup_condition, 1.0, a, family.sets_infinite, fin_ideal, cfg, memo)
    return _assemble(conditions, True, [], cfg)


def cfo_check(
    a: InfiniteMatrix,
    ideal_i: Ideal,
    ideal_j: Ideal,
    family: TestFamily | None = None,
    cfg: CheckConfig | None = None,
    *,
    memo: CheckMemo | None = None,
) -> Verdict:
    """Core preservation conditions for nonnegative matrices: regularity plus
    limsup of row sums over every positive family set equal to 1."""
    cfg = cfg or CheckConfig()
    memo = memo or CheckMemo()
    neg = find_negative_entry(a, cfg.horizon)
    if neg is not None:
        raise NegativeEntryError(*neg)
    family = _resolve_family(family, ideal_i, cfg.seed, memo)
    conditions = [_regular_condition("C1(regular)", a, ideal_i, ideal_j, family, cfg, memo)]
    conditions += _family_conditions(
        "C2", _limsup_condition, 1.0, a, family.sets_positive, ideal_j, cfg, memo, absolute=False
    )
    return _assemble(conditions, True, [], cfg)


def leo_check(
    a: InfiniteMatrix,
    ideal_i: Ideal,
    ideal_j: Ideal,
    family: TestFamily | None = None,
    cfg: CheckConfig | None = None,
    *,
    memo: CheckMemo | None = None,
) -> Verdict:
    """Core preservation conditions for general matrices: regularity plus
    limsup of absolute row sums over every positive family set equal to 1.

    The conditions characterize core preservation when J is countably
    generated, and also for nonnegative matrices with arbitrary J.  Outside
    those cases (the characterization is known to fail when both ideals are
    the density-zero ideal) the verdict is stamped inconclusive and the
    conditions are reported as evidence only.
    """
    cfg = cfg or CheckConfig()
    memo = memo or CheckMemo()
    family = _resolve_family(family, ideal_i, cfg.seed, memo)
    guard_ok = ideal_j.classify().is_countably_generated or find_negative_entry(a, cfg.horizon) is None
    notes: list[str] = []
    if not guard_ok:
        notes.append(
            "the limsup conditions are not a characterization for this ideal pair "
            "(needs a countably generated J or a nonnegative matrix); "
            "verdict stamped inconclusive-as-characterization"
        )
    conditions = [_regular_condition("L1(regular)", a, ideal_i, ideal_j, family, cfg, memo)]
    conditions += _family_conditions("L2", _limsup_condition, 1.0, a, family.sets_positive, ideal_j, cfg, memo)
    return _assemble(conditions, guard_ok, notes, cfg)


# Theorem name -> checker, called as ``check(a, ideal_i, ideal_j, family=None,
# cfg=None, memo=None)``.  The entries look the checkers up when called, so a
# rebinding of the module attributes (a wrapper, a mock) reaches every caller of
# the registry.
CHECKS: dict[str, Callable[..., Verdict]] = {
    "st": lambda a, i, j, family=None, cfg=None, memo=None: silverman_toeplitz_check(
        a, i, j, family=family, cfg=cfg, memo=memo
    ),
    "allen": lambda a, i, j, family=None, cfg=None, memo=None: allen_check(a, family=family, cfg=cfg, memo=memo),
    "cfo": lambda a, i, j, family=None, cfg=None, memo=None: cfo_check(a, i, j, family=family, cfg=cfg, memo=memo),
    "leo": lambda a, i, j, family=None, cfg=None, memo=None: leo_check(a, i, j, family=family, cfg=cfg, memo=memo),
}
