"""Verdict-producing checkers for the matrix characterizations.

Every "for all sets E" quantifier is approximated by a finite, exactly
classified test family, so a Satisfied verdict means "no violation found over
the family at the horizon"; the checkers are falsifiers/corroborators, and
each verdict records the horizon and tolerances it used.  Limit conditions are
decided through the ideal-limit deviation test, limsup conditions through the
same cluster estimator that powers the core computations.

Checks of one matrix share work through a :class:`CheckMemo` passed as
``memo``: the default family per (ideal, seed), the Silverman–Toeplitz verdict
that every characterization's regularity condition reads, and the Allen
verdict.  The core equality experiment shares its cores through the same memo.
A memo changes no result; a caller without one makes its own.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import sets as sd
from .asymptotics import (
    CoreConfig,
    CoreInterval,
    InconclusiveCellsError,
    core,
    ideal_lim_check,
    limsup_of_values,
)
from .ideals import (
    DEFAULT_THETA,
    FinIdeal,
    GeneratedIdeal,
    Ideal,
    MembershipResult,
    TraceFinIdeal,
    ideal_to_dict,
    membership,
)
from .matrices import InfiniteMatrix, find_negative_entry, norm_estimate
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


@dataclass(frozen=True)
class CheckConfig:
    horizon: int = 10_000
    tol: float = 1e-2
    theta: float = DEFAULT_THETA
    grid: float = 1e-2
    seed: int = 0
    norm_cap: float = 1e3  # uncertified row-sum sups above this flag a boundedness violation

    def core_config(self) -> CoreConfig:
        return CoreConfig(horizon=self.horizon, grid=self.grid, theta=self.theta)


@dataclass(frozen=True)
class ConditionReport:
    name: str
    ok: bool | None  # None = inconclusive
    margin: float
    details: dict
    witness_set: SetDescription | None = None
    witness_row: int | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "ok": self.ok,
            "margin": self.margin,
            "details": {k: v for k, v in sorted(self.details.items())},
        }
        if self.witness_set is not None:
            out["witness_set"] = sd.set_to_dict(self.witness_set)
        if self.witness_row is not None:
            out["witness_row"] = self.witness_row
        return out


@dataclass(frozen=True)
class Verdict:
    status: Status
    conditions: tuple[ConditionReport, ...]
    witness_set: SetDescription | None
    witness_row: int | None
    notes: tuple[str, ...]
    horizon: int
    tol: float

    def to_dict(self) -> dict:
        out = {
            "status": self.status.value,
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


@dataclass(frozen=True)
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
    prefix below 100 000; under ``fin_times_empty`` most sets of the pool are
    classified that way.  Only sets whose verdict is inconclusive are left out
    of the in-ideal and positive slots.  Every certifiably infinite pool set is
    listed as infinite.
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


def _ideal_key(ideal: Ideal):
    """An ideal as a memo key: its JSON encoding, so that equal ideals parsed
    apart (or built by ``allen_check``) share entries; an ideal without an
    encoding is its own key."""
    try:
        return json.dumps(ideal_to_dict(ideal), sort_keys=True)
    except ValueError:
        return ideal


@dataclass
class CheckMemo:
    """Results that several checks and experiments of a suite share.

    ``families`` holds the default family per (ideal, seed) and ``cores`` the
    core of a sequence per (sequence, ideal, config); ``results`` holds the
    Silverman–Toeplitz and Allen verdicts per (matrix, ideals, family,
    config) and the core of A·x per (matrix, x, ideal, config).  Keys hold the
    matrix and the sequence themselves, so a memo keeps them alive:
    ``harness.run_suite`` gives each matrix its own memo over one suite-wide
    ``families`` and ``cores``.  A caller without a memo makes a fresh one,
    so a direct call computes everything itself.  A result that raises is not
    kept.
    """

    families: dict = field(default_factory=dict)
    cores: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)

    def family(self, ideal: Ideal, seed: int) -> TestFamily:
        key = (_ideal_key(ideal), seed)
        if key not in self.families:
            self.families[key] = default_family(ideal, seed)
        return self.families[key]

    def core(self, x: BoundedSequence, ideal: Ideal, cfg: CoreConfig) -> CoreInterval:
        key = (x, _ideal_key(ideal), cfg)
        if key not in self.cores:
            self.cores[key] = core(x, ideal, cfg)
        return self.cores[key]

    def result(self, key: tuple, compute: Callable[[], Verdict | CoreInterval]) -> Verdict | CoreInterval:
        if key not in self.results:
            self.results[key] = compute()
        return self.results[key]

    def image_core(
        self,
        a: InfiniteMatrix,
        x: BoundedSequence,
        ideal: Ideal,
        cfg: CoreConfig,
        compute: Callable[[], CoreInterval],
    ) -> CoreInterval:
        """The core of A·x under ``ideal``, from ``compute()``.  Keyed by x, not
        by A·x, so A·x is built only when the core is computed and is never kept."""
        return self.result(("core", a, x, _ideal_key(ideal), cfg), compute)


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


def _is_countably_generated(ideal: Ideal) -> bool:
    return isinstance(ideal, (FinIdeal, TraceFinIdeal, GeneratedIdeal))


def _matrix_nonnegative(a: InfiniteMatrix, horizon: int) -> bool:
    if a.nonnegative:
        return True
    return find_negative_entry(a, horizon) is None


def _lim_condition(
    name: str,
    values: np.ndarray,
    target: float,
    ideal_j: Ideal,
    cfg: CheckConfig,
    witness_set: SetDescription | None = None,
) -> ConditionReport:
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
    values: np.ndarray,
    ideal_j: Ideal,
    cfg: CheckConfig,
    witness_set: SetDescription,
) -> ConditionReport:
    details = {
        "value_at_horizon": float(values[-1]) if len(values) else 0.0,
        "horizon": len(values),
    }
    try:
        est = limsup_of_values(values, ideal_j, cfg.core_config())
    except InconclusiveCellsError as exc:
        details["inconclusive_cells"] = [list(w) for w in exc.cells]
        return ConditionReport(name=name, ok=None, margin=0.0, details=details)
    deviation = abs(est - 1.0)
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
    )


def _family_conditions(
    prefix: str,
    a: InfiniteMatrix,
    sets: tuple[SetDescription, ...],
    cfg: CheckConfig,
    judge: Callable[..., ConditionReport],
    absolute: bool = True,
) -> list[ConditionReport]:
    """One condition ``prefix[E]`` per family set E, judging the row sums of A
    over the columns in E: ``judge(name, row_sums, witness_set=E)``."""
    return [
        judge(
            f"{prefix}[{_set_label(e)}]",
            a.masked_row_sums(e, cfg.horizon, absolute=absolute),
            witness_set=e,
        )
        for e in sets
    ]


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
    key = ("st", a, _ideal_key(ideal_i), _ideal_key(ideal_j), family, cfg)
    return memo.result(key, lambda: _silverman_toeplitz_conditions(a, ideal_i, ideal_j, family, cfg))


def _silverman_toeplitz_conditions(
    a: InfiniteMatrix, ideal_i: Ideal, ideal_j: Ideal, family: TestFamily, cfg: CheckConfig
) -> Verdict:
    notes: list[str] = []
    guard_ok = (
        _is_countably_generated(ideal_j)
        or isinstance(ideal_i, FinIdeal)
        or _matrix_nonnegative(a, cfg.horizon)
    )
    if not guard_ok:
        notes.append(
            "applicability guard unmet (need a nonnegative matrix, I = Fin, or a "
            "countably generated J); conditions reported without the equivalence claim"
        )
    conditions: list[ConditionReport] = []

    sup, certified = norm_estimate(a, cfg.horizon)
    t1_ok = certified or sup <= cfg.norm_cap
    t1_row = None
    if not t1_ok:
        t1_row = int(np.argmax(a.row_abs_sums(cfg.horizon)))
    conditions.append(
        ConditionReport(
            name="T1(bounded-norm)",
            ok=t1_ok,
            margin=(sup - cfg.norm_cap) if not t1_ok else 0.0,
            details={"sup_rowsum": float(sup), "certified": certified, "cap": cfg.norm_cap},
            witness_row=t1_row,
        )
    )

    row_sums = a.row_sums(cfg.horizon)
    conditions.append(_lim_condition("T2(row-sums)", row_sums, 1.0, ideal_j, cfg))

    judge = partial(_lim_condition, target=0.0, ideal_j=ideal_j, cfg=cfg)
    conditions += _family_conditions("T3", a, family.sets_in_ideal, cfg, judge)
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
        _lim_condition("A2(abs-row-sums)", a.row_sums(cfg.horizon, absolute=True), 1.0, fin_ideal, cfg),
    ]
    judge = partial(_limsup_condition, ideal_j=fin_ideal, cfg=cfg)
    conditions += _family_conditions("A3", a, family.sets_infinite, cfg, judge)
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
    neg = None if a.nonnegative else find_negative_entry(a, cfg.horizon)
    if neg is not None:
        raise NegativeEntryError(*neg)
    family = _resolve_family(family, ideal_i, cfg.seed, memo)
    conditions = [_regular_condition("C1(regular)", a, ideal_i, ideal_j, family, cfg, memo)]
    judge = partial(_limsup_condition, ideal_j=ideal_j, cfg=cfg)
    conditions += _family_conditions("C2", a, family.sets_positive, cfg, judge, absolute=False)
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
    guard_ok = _is_countably_generated(ideal_j) or _matrix_nonnegative(a, cfg.horizon)
    notes: list[str] = []
    if not guard_ok:
        notes.append(
            "the limsup conditions are not a characterization for this ideal pair "
            "(needs a countably generated J or a nonnegative matrix); "
            "verdict stamped inconclusive-as-characterization"
        )
    conditions = [_regular_condition("L1(regular)", a, ideal_i, ideal_j, family, cfg, memo)]
    judge = partial(_limsup_condition, ideal_j=ideal_j, cfg=cfg)
    conditions += _family_conditions("L2", a, family.sets_positive, cfg, judge)
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
