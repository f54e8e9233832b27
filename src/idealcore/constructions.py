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
* ``transformed_sequence`` builds A·x.  Where the limit of A·x is known
  exactly it says so (``BoundedSequence.limit``), and core(A·x, J) is read
  from it: x has a limit and A keeps limits (Cesàro, and the identity and rk
  matrices of injective maps), or Cesàro acts on x whose level sets have
  densities.  Row-selection matrices (the identity and rk matrices,
  ``InfiniteMatrix.row_selection``) keep x's level sets as their preimages
  h⁻¹(S) (``sets.preimage``), so core(A·x, J) is one decision per level, as
  core(x, I) is.  Every other A·x (under diagonals other than the identity,
  banded matrices, sums, multiples and products, and Cesàro on the rest)
  is a value prefix, read on the grid.
* ``core_equality_experiments`` measures core deviation across the corpus
  for several ideal pairs of one matrix, entry by entry: for each corpus
  entry x, core(x, I) under the distinct I of the live pairs, then one A·x
  for all of them and core(A·x, J) under their distinct J, and A·x is dropped
  before the next entry.  ``core_equality_experiment`` is its one-pair case.
  Given a ``regularity.CheckMemo`` it reads core(x, I) from the memo's
  suite-wide cores and computes it only when missing.  A call visits each
  (entry, J) once, so core(A·x, J) is computed once per (matrix, entry, J)
  and is not kept: the memo holds the intervals of corpus entries, never a
  transformed sequence or its cores.  ``harness.run_suite`` runs each
  matrix's pairs in one call, with one memo per matrix over suite-wide cores,
  so each core(x, I) is computed once per suite and each A·x once per matrix.
  The identity's A·x is x, so its core(A·x, J) is core(x, J), read from the
  suite-wide cores: it builds no A·x and decides no level set twice.
"""

from __future__ import annotations

from fractions import Fraction

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
from .matrices import InfiniteMatrix, identity, matrix_sum, pos_neg_split, rk_matrix, transform
from .records import record
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
    "core_equality_experiments",
    "transformed_sequence",
]


def perturb_identity(a: InfiniteMatrix) -> InfiniteMatrix:
    """The generic perturbation A + Id."""
    return matrix_sum(a, identity())


def transformed_sequence(a: InfiniteMatrix, x: BoundedSequence, horizon: int) -> BoundedSequence:
    """A·x as a bounded sequence labelled ``A[x]``.

    A·x gets an exact limit, and no prefix is built here, in two cases:

    * x has a limit L and A keeps limits (``InfiniteMatrix.keeps_limits``:
      Cesàro, a row selection by an injective map, and a banded matrix with
      an identity tail): A·x tends to L;
    * each level set S_v of x has a row-sum limit ``a.masked_sum_structure(S_v)``
      (Cesàro over a set with a density d_v): A·x tends to Σ v·d_v, summed
      exactly, so the order of the levels cannot move a bit.

    When A selects rows, (A x)_n = x_{h(n)} (``row_selection``: the identity
    and rk matrices), and x carries level sets free of predicates, A·x takes
    the value v exactly on h⁻¹(S_v): it carries those preimages as its level
    sets, so its core is one decision per level, and it builds no prefix
    here.  In these cases a prefix is read, when asked for, from
    ``a.transform_prefix``.  For every other matrix or sequence the prefix
    below the horizon is materialized, and a longer one comes from
    ``a.transform_prefix`` too, with the same bits.

    The declared bound is x's bound for a row selection, else the certified
    matrix norm times x's bound when A has one, else the larger of the row-sum
    sup below the horizon times x's bound and the largest |value| of the prefix.
    """
    h, levels = a.row_selection(), x.level_sets
    label = f"{a.label}[{x.label}]"
    selects = h is not None and levels is not None and not any(sd.contains_predicate(s) for _, s in levels)
    limit = _image_limit(a, x)
    bound = x.bound if h is not None else None if a.norm_bound is None else a.norm_bound * x.bound
    if bound is not None and (selects or limit is not None):
        return BoundedSequence(
            fn=lambda n: transform(a, x, n),
            bound=bound,
            label=label,
            level_sets=tuple((v, sd.preimage(s, h)) for v, s in levels) if selects else None,
            rule=lambda n: a.transform_prefix(x, n),
            limit=limit,
        )
    values = a.transform_prefix(x, horizon)
    if bound is None:
        sup = float(np.max(a.row_sums(horizon, absolute=True)))
        bound = max(sup * x.bound, float(np.max(np.abs(values))) if len(values) else 0.0)
    ax = BoundedSequence(
        fn=lambda n: transform(a, x, n),
        bound=bound,
        label=label,
        rule=lambda n: a.transform_prefix(x, n),
        limit=limit,
    )
    return ax.seed_prefix(values)


def _image_limit(a: InfiniteMatrix, x: BoundedSequence) -> float | None:
    """The exact limit of A·x where ``transformed_sequence`` knows it, else None."""
    if x.limit is not None:
        return x.limit if a.keeps_limits else None
    if x.level_sets is None:
        return None
    total = Fraction(0)
    for value, level_set in x.level_sets:
        structure = a.masked_sum_structure(level_set)
        if structure is None or structure.limit is None:
            return None
        total += Fraction(value) * Fraction(structure.limit)
    return float(total)


# ---------------------------------------------------------------------------
# Core stability under ideal-null perturbations


@record(frozen=True)
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


@record(frozen=True)
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

    positive = a if a.nonnegative else pos_neg_split(a)[0]
    pos_total = a.row_sums(horizon, absolute=False)
    abs_total = a.row_sums(horizon, absolute=True)
    pos_part_total = positive.row_sums(horizon)
    neg_part_total = pos_part_total - pos_total
    pos_on_e = positive.masked_row_sums(upper_set, horizon)
    pos_on_e2 = positive.masked_row_sums(lower_set, horizon)

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


@record(frozen=True)
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
            "core_x_method": self.core_x.method,
            "core_ax_method": self.core_ax.method,
            "deviation": self.deviation,
        }


@record(frozen=True)
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


def core_equality_experiments(
    a: InfiniteMatrix,
    pairs: list[tuple[Ideal, Ideal]],
    corpus_entries: list[BoundedSequence],
    cfg: CoreConfig | None = None,
    *,
    memo: CheckMemo | None = None,
) -> list[ExperimentReport | Exception]:
    """``core_equality_experiment`` for each ideal pair (I, J), run entry by
    entry: the report of each pair, or the first exception its cores raised.

    For each corpus entry x, in label order, x's cores are read under the
    distinct I of the pairs still live, then A·x is built once and its cores
    are read under the distinct J of the pairs still live after that; A·x is
    dropped before the next entry.  A pair whose core raised is dropped from
    later entries, so it computes only the cores its own experiment would,
    cx before cax.  Cores already in ``memo`` are read from it.
    """
    cfg = cfg or CoreConfig()
    memo = memo or CheckMemo()
    rows: list[list[ExperimentRow]] = [[] for _ in pairs]
    failed: list[Exception | None] = [None] * len(pairs)
    for x in sorted(corpus_entries, key=lambda s: s.label):
        live = [p for p, exc in enumerate(failed) if exc is None]
        cxs = memo.cores_of(x, [pairs[p][0] for p in live], cfg)
        for p, cx in zip(live, cxs):
            if isinstance(cx, Exception):
                failed[p] = cx
        live_cx = [(p, cx) for p, cx in zip(live, cxs) if failed[p] is None]
        if not live_cx:
            continue
        caxs = memo.image_cores(
            a, x, [pairs[p][1] for p, _ in live_cx], cfg, lambda: transformed_sequence(a, x, cfg.horizon)
        )
        for (p, cx), cax in zip(live_cx, caxs):
            if isinstance(cax, Exception):
                failed[p] = cax
            else:
                deviation = max(abs(cx.lo - cax.lo), abs(cx.hi - cax.hi))
                rows[p].append(ExperimentRow(x.label, cx, cax, deviation))
    return [exc if exc is not None else _report(r) for exc, r in zip(failed, rows)]


def _report(rows: list[ExperimentRow]) -> ExperimentReport:
    worst = max(rows, key=lambda r: r.deviation)
    return ExperimentReport(tuple(rows), worst.deviation, worst.label)


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
    deviation.  Cores already in ``memo`` are read from it.  The one-pair case
    of ``core_equality_experiments``; raises the first exception of its cores.
    """
    (report,) = core_equality_experiments(a, [(ideal_i, ideal_j)], corpus_entries, cfg, memo=memo)
    if isinstance(report, Exception):
        raise report
    return report
