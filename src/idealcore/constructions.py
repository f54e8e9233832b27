"""Explicit constructions and proof-derived quantitative certificates.

* ``rk_matrix`` turns a Rudin–Keisler witnessing map into the single-entry
  row-selection matrix, the construction behind core equality across distinct
  ideals.
* ``core_stability_check`` verifies that two sequences whose difference has
  ideal limit zero share the same core.
* ``sufficiency_certificate`` reproduces, at a finite horizon, the
  quantitative bookkeeping that makes the limsup conditions sufficient for
  core preservation: the threshold sets, the row sets where the positive-part
  mass concentrates, and the residual-mass bounds.
* ``core_equality_experiment`` measures core deviation across the corpus.
  Given a ``regularity.CheckMemo`` it reads core(x, I) and core(A·x, J)
  from the memo and computes each only when missing; A·x is built only for a
  missing core and dropped as soon as that core is known, so the memo holds
  intervals, never transformed sequences.  ``harness.run_suite`` passes one
  memo per matrix over suite-wide cores, so each core(x, I) is computed once
  per suite and each core(A·x, J) once per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sets as sd
from .asymptotics import (
    CoreConfig,
    CoreInterval,
    UnsupportedInstanceError,
    classify_levels,
    core,
    ideal_lim_check,
    ideal_limsup,
    oracle_core,
)
from .ideals import Ideal
from .matrices import InfiniteMatrix, identity, matrix_sum, rk_matrix, transform
from .regularity import CheckConfig, CheckMemo, Status, Verdict, leo_check
from .sequences import BoundedSequence, affine, combine

__all__ = [
    "rk_matrix",
    "perturb_identity",
    "StabilityReport",
    "core_stability_check",
    "Certificate",
    "CertificateViolationError",
    "sufficiency_certificate",
    "ExperimentRow",
    "ExperimentReport",
    "core_equality_experiment",
    "transformed_sequence",
]


def perturb_identity(a: InfiniteMatrix) -> InfiniteMatrix:
    """The generic perturbation A + Id."""
    return matrix_sum(a, identity())


def transformed_sequence(a: InfiniteMatrix, x: BoundedSequence, horizon: int) -> BoundedSequence:
    """A·x as a bounded sequence, with the prefix below the horizon materialized.

    The declared bound is the certified matrix norm times the bound of x when
    available, otherwise the at-horizon row-sum sup (recorded in the label).
    """
    values = a.transform_prefix(x, horizon)
    if a.norm_bound is not None:
        bound = a.norm_bound * x.bound
    else:
        sup = float(np.max(a.row_abs_sums(horizon)))
        bound = max(sup * x.bound, float(np.max(np.abs(values))) if len(values) else 0.0)
    ax = BoundedSequence(
        fn=lambda n: transform(a, x, n),
        bound=bound,
        label=f"{a.label}[{x.label}]",
    )
    return ax.seed_prefix(values)


# ---------------------------------------------------------------------------
# Core stability under ideal-null perturbations


@dataclass(frozen=True)
class StabilityReport:
    status: str  # "confirmed" | "refuted" | "not_applicable"
    core_x: CoreInterval | None
    core_y: CoreInterval | None
    deviation: float | None
    note: str

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "core_x": self.core_x.as_tuple() if self.core_x else None,
            "core_y": self.core_y.as_tuple() if self.core_y else None,
            "deviation": self.deviation,
            "note": self.note,
        }


def _difference_is_null(d: BoundedSequence, ideal: Ideal, cfg: CoreConfig, tol: float) -> bool | None:
    """Is the ideal limit of the difference sequence 0 (within tol)?"""
    if d.level_sets is not None:
        big = [(value, level_set) for value, level_set in d.level_sets if abs(value) > tol]
        statuses = {status for _, status, _ in classify_levels(big, ideal, cfg.horizon, cfg.theta)}
        if "pos" in statuses:
            return False
        if statuses <= {"null"}:
            return True
    ok, _ = ideal_lim_check(d.prefix(cfg.horizon), 0.0, tol, ideal, cfg.theta)
    return ok


def core_stability_check(
    x: BoundedSequence,
    y: BoundedSequence,
    ideal: Ideal,
    cfg: CoreConfig | None = None,
    tol: float = 1e-2,
) -> StabilityReport:
    """Confirm that cores agree whenever the difference has ideal limit zero.

    Not applicable when the difference test fails or is inconclusive.  A
    refutation on a structured instance with exact oracles indicates an
    implementation bug, since the underlying statement is a theorem.
    """
    cfg = cfg or CoreConfig()
    diff = combine(x, y, "sub", label=f"{x.label}-{y.label}")
    null = _difference_is_null(diff, ideal, cfg, tol)
    if null is False:
        return StabilityReport("not_applicable", None, None, None, "difference is not ideal-null")
    if null is None:
        return StabilityReport("not_applicable", None, None, None, "difference test inconclusive")
    cx = core(x, ideal, cfg)
    cy = core(y, ideal, cfg)
    deviation = max(abs(cx.lo - cy.lo), abs(cx.hi - cy.hi))
    if deviation <= tol:
        return StabilityReport("confirmed", cx, cy, deviation, "cores agree within tolerance")
    return StabilityReport("refuted", cx, cy, deviation, "cores deviate beyond tolerance")


# ---------------------------------------------------------------------------
# Sufficiency certificate


class CertificateViolationError(RuntimeError):
    """A certificate inequality failed beyond numeric tolerance."""


@dataclass(frozen=True)
class Certificate:
    """Finite-horizon witness data for the sufficiency argument.

    All quantities are in translated coordinates (the sequence is shifted by
    ``kappa`` so the upper core endpoint ``eta`` is positive; ``eta_original``
    is the untranslated value).  ``delta`` is exactly
    ``min(eps / (2 + eta + 4*bound), 1)``.
    """

    eps: float
    eta: float
    eta_original: float
    kappa: float
    delta: float
    bound: float
    upper_threshold_set: sd.SetDescription
    lower_threshold_set: sd.SetDescription
    s_rows: tuple[int, ...]
    s_prime_rows: tuple[int, ...]
    lower_margin: float | None
    upper_margin: float | None
    neg_mass_margin: float | None
    off_support_margin: float | None
    status: str  # "verified" | "empty-witness-set"
    horizon: int

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "eta": self.eta,
            "eta_original": self.eta_original,
            "kappa": self.kappa,
            "delta": self.delta,
            "bound": self.bound,
            "s_rows_count": len(self.s_rows),
            "s_prime_rows_count": len(self.s_prime_rows),
            "lower_margin": self.lower_margin,
            "upper_margin": self.upper_margin,
            "neg_mass_margin": self.neg_mass_margin,
            "off_support_margin": self.off_support_margin,
            "status": self.status,
            "horizon": self.horizon,
        }


_FLOAT_SLACK = 1e-9


def _threshold_set(x: BoundedSequence, threshold: float, upper: bool) -> sd.SetDescription:
    """{k : x_k >= threshold} (or <=), symbolically when level sets exist."""
    if x.level_sets is not None:
        keep = [s for v, s in x.level_sets if (v >= threshold if upper else v <= threshold)]
        if keep:
            return sd.union_all(keep)
        return sd.explicit()
    if upper:
        return sd.Predicate(lambda n: x.fn(n) >= threshold, name=f"x>={threshold:.6g}")
    return sd.Predicate(lambda n: x.fn(n) <= threshold, name=f"x<={threshold:.6g}")


def sufficiency_certificate(
    a: InfiniteMatrix,
    x: BoundedSequence,
    eps: float,
    ideal_i: Ideal,
    ideal_j: Ideal,
    cfg: CheckConfig | None = None,
    core_cfg: CoreConfig | None = None,
    leo_verdict: Verdict | None = None,
) -> Certificate:
    """Materialize and verify the quantitative sufficiency data at a horizon.

    Checks, for every discovered row in the concentration sets, the
    transformed-value bounds ``eta − eps <= (A x)_n`` / ``(A x)_n <= eta + eps``
    and the residual-mass bounds (negative-part mass and off-threshold
    positive mass both at most ``2·delta``).  An empty concentration set below
    the horizon is a distinct non-failure outcome, since positivity of the row
    set gives no effective bound on its first element.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cfg = cfg or CheckConfig()
    core_cfg = core_cfg or CoreConfig(horizon=max(cfg.horizon, 100))
    if leo_verdict is None:
        leo_verdict = leo_check(a, ideal_i, ideal_j, cfg=cfg)
    if leo_verdict.status is Status.VIOLATED:
        raise ValueError("matrix violates the limsup conditions; no certificate exists")

    try:
        eta = oracle_core(x, ideal_i, core_cfg.theta).hi
    except UnsupportedInstanceError:
        eta = ideal_limsup(x, ideal_i, core_cfg)
    # Translate only when the upper endpoint is not safely positive; the
    # shrinkage chain needs eta - delta >= 0.
    delta_probe = min(eps / (2.0 + max(eta, 0.0) + 4.0 * x.bound), 1.0)
    if eta <= delta_probe:
        kappa = x.bound + 1.0
        shifted = affine(x, 1.0, kappa, label=f"{x.label}+{kappa}")
        eta = eta + kappa
    else:
        kappa = 0.0
        shifted = x
    bound = shifted.bound
    delta = min(eps / (2.0 + eta + 4.0 * bound), 1.0)

    upper_set = _threshold_set(shifted, eta - delta, upper=True)
    lower_set = _threshold_set(shifted, eta + delta, upper=False)

    horizon = cfg.horizon

    pos_total = a.row_sums(horizon, absolute=False)
    abs_total = a.row_sums(horizon, absolute=True)
    pos_part_total = a.masked_row_sums(None, horizon, positive_part=True)
    neg_part_total = pos_part_total - pos_total
    pos_on_e = a.masked_row_sums(upper_set, horizon, positive_part=True)
    pos_on_e2 = a.masked_row_sums(lower_set, horizon, positive_part=True)

    in_s = (pos_on_e >= 1.0 - delta - _FLOAT_SLACK) & (abs_total <= 1.0 + delta + _FLOAT_SLACK)
    in_s2 = (pos_on_e2 >= 1.0 - delta - _FLOAT_SLACK) & (abs_total <= 1.0 + delta + _FLOAT_SLACK)
    s_rows = np.nonzero(in_s)[0]
    s2_rows = np.nonzero(in_s2)[0]

    ax = a.transform_prefix(shifted, horizon)

    lower_margin = upper_margin = None
    if s_rows.size:
        lower_margin = float(np.min(ax[s_rows] - (eta - eps)))
        if lower_margin < -_FLOAT_SLACK:
            raise CertificateViolationError(f"lower bound fails by {-lower_margin}")
    if s2_rows.size:
        upper_margin = float(np.min((eta + eps) - ax[s2_rows]))
        if upper_margin < -_FLOAT_SLACK:
            raise CertificateViolationError(f"upper bound fails by {-upper_margin}")

    neg_mass_margin = off_support_margin = None
    all_rows = np.union1d(s_rows, s2_rows)
    if all_rows.size:
        neg_mass_margin = float(2.0 * delta - np.max(neg_part_total[all_rows]))
        if neg_mass_margin < -_FLOAT_SLACK:
            raise CertificateViolationError(f"negative-part mass bound fails by {-neg_mass_margin}")
        off_values = []
        if s_rows.size:
            off_values.append(np.max(pos_part_total[s_rows] - pos_on_e[s_rows]))
        if s2_rows.size:
            off_values.append(np.max(pos_part_total[s2_rows] - pos_on_e2[s2_rows]))
        off_support_margin = float(2.0 * delta - max(off_values))
        if off_support_margin < -_FLOAT_SLACK:
            raise CertificateViolationError(f"off-threshold mass bound fails by {-off_support_margin}")

    status = "verified" if s_rows.size else "empty-witness-set"
    return Certificate(
        eps=float(eps),
        eta=float(eta),
        eta_original=float(eta - kappa),
        kappa=float(kappa),
        delta=float(delta),
        bound=float(bound),
        upper_threshold_set=upper_set,
        lower_threshold_set=lower_set,
        s_rows=tuple(int(n) for n in s_rows),
        s_prime_rows=tuple(int(n) for n in s2_rows),
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        neg_mass_margin=neg_mass_margin,
        off_support_margin=off_support_margin,
        status=status,
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# Core equality experiments


@dataclass(frozen=True)
class ExperimentRow:
    label: str
    core_x: CoreInterval
    core_ax: CoreInterval
    deviation: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "core_x_lo": self.core_x.lo,
            "core_x_hi": self.core_x.hi,
            "core_ax_lo": self.core_ax.lo,
            "core_ax_hi": self.core_ax.hi,
            "deviation": self.deviation,
        }


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ExperimentRow, ...]
    max_deviation: float
    worst_label: str

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "max_deviation": self.max_deviation,
            "worst_label": self.worst_label,
        }


def _image_core(a: InfiniteMatrix, x: BoundedSequence, ideal: Ideal, cfg: CoreConfig) -> CoreInterval:
    """core(A·x, J); A·x lives only in this call."""
    return core(transformed_sequence(a, x, cfg.horizon), ideal, cfg)


def core_equality_experiment(
    a: InfiniteMatrix,
    ideal_i: Ideal,
    ideal_j: Ideal,
    corpus_entries: list[BoundedSequence],
    cfg: CoreConfig | None = None,
    *,
    memo: CheckMemo | None = None,
) -> ExperimentReport:
    """Compare core(x, I) against core(A x, J) across the corpus.

    Rows are ordered by corpus label; the summary flags the largest endpoint
    deviation.  Cores already in ``memo`` are read from it.
    """
    cfg = cfg or CoreConfig()
    memo = memo or CheckMemo()
    rows: list[ExperimentRow] = []
    for x in sorted(corpus_entries, key=lambda s: s.label):
        cx = memo.core(x, ideal_i, cfg)
        cax = memo.image_core(a, x, ideal_j, cfg, lambda: _image_core(a, x, ideal_j, cfg))
        deviation = max(abs(cx.lo - cax.lo), abs(cx.hi - cax.hi))
        rows.append(ExperimentRow(x.label, cx, cax, deviation))
    worst = max(rows, key=lambda r: r.deviation)
    return ExperimentReport(tuple(rows), worst.deviation, worst.label)
