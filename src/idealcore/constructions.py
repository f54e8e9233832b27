"""Explicit constructions of summability matrices and the core-equality
experiments that measure them.

* ``rk_matrix`` turns a Rudin–Keisler witnessing map into the single-entry
  row-selection matrix, the construction behind core equality across distinct
  ideals; ``perturb_identity`` adds the identity to a matrix.
* ``transformed_sequence`` builds A·x.  Where the limit of A·x is known
  exactly it says so (``BoundedSequence.limit``), and core(A·x, J) is read
  from it: x has a limit and A keeps limits (Cesàro, and the identity and rk
  matrices of injective maps), or Cesàro acts on x whose level sets have
  densities or is equidistributed.  Row-selection matrices (the identity and
  rk matrices, ``InfiniteMatrix.row_selection``) keep x's level sets as their
  preimages h⁻¹(S) (``sets.preimage``), so core(A·x, J) is one decision per
  level, as core(x, I) is, and an affine one keeps x's equidistribution.
  Every other A·x (under diagonals other than the identity, banded matrices,
  sums, multiples and products, and Cesàro on the rest) is a value prefix,
  read on the grid.
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
from .asymptotics import CoreConfig, CoreInterval
from .ideals import Ideal
from .matrices import InfiniteMatrix, identity, matrix_sum, rk_matrix, transform
from .records import record
from .regularity import CheckMemo
from .sequences import BoundedSequence

__all__ = [
    "rk_matrix",
    "perturb_identity",
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

    A·x gets an exact limit, and no prefix is built here, in three cases:

    * x has a limit L and A keeps limits (``InfiniteMatrix.keeps_limits``:
      Cesàro, a row selection by an injective map, and a banded matrix with
      an identity tail): A·x tends to L;
    * each level set S_v of x has a row-sum limit ``a.masked_sum_structure(S_v)``
      (Cesàro over a set with a density d_v): A·x tends to Σ v·d_v, summed
      exactly, so the order of the levels cannot move a bit;
    * x is equidistributed on [lo, hi) and A is Cesàro (``_image_limit``):
      A·x tends to (lo + hi)/2.

    When A selects rows, (A x)_n = x_{h(n)} (``row_selection``: the identity
    and rk matrices), and x carries level sets free of predicates, A·x takes
    the value v exactly on h⁻¹(S_v): it carries those preimages as its level
    sets, so its core is one decision per level, and it builds no prefix
    here.  In these cases values are read, when asked for, from
    ``a.transform_prefix`` below the largest index read.  When h is affine
    and x is equidistributed, so is A·x, on the same range: it declares so,
    builds no prefix, and reads x at h(n) in closed form.  For every other
    matrix or sequence the prefix below the horizon is materialized and kept
    as it is (``seed_prefix``), and the values of a longer one come from
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

    if h is not None and h.affine is not None and x.equidistributed is not None:
        # A polynomial subsequence of x∘h is one of x, since h is affine.
        (mul, add), rule = h.affine, x.rule
        return BoundedSequence(
            fn=lambda n: transform(a, x, n),
            bound=bound,
            label=label,
            rule=lambda ns: rule(mul * ns + add),
            equidistributed=x.equidistributed,
        )

    def values_at(ns: np.ndarray) -> np.ndarray:
        return a.transform_prefix(x, int(ns.max()) + 1)[ns] if ns.size else np.zeros(0)

    if bound is not None and (selects or limit is not None):
        return BoundedSequence(
            fn=lambda n: transform(a, x, n),
            bound=bound,
            label=label,
            level_sets=tuple((v, sd.preimage(s, h)) for v, s in levels) if selects else None,
            rule=values_at,
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
        rule=values_at,
        limit=limit,
    )
    return ax.seed_prefix(values)


def _image_limit(a: InfiniteMatrix, x: BoundedSequence) -> float | None:
    """The exact limit of A·x where ``transformed_sequence`` knows it, else None."""
    if x.limit is not None:
        return x.limit if a.keeps_limits else None
    if x.equidistributed is not None:
        # Step functions on hit sets approximate x uniformly, so a
        # nonnegative matrix that keeps limits and sums each hit set to its
        # share in the limit (Cesàro: its density) averages x to the middle
        # of its range.  Its rule for a hit set reads only that share, so one
        # subinterval speaks for all (``sets.Hits``).
        lo, hi = x.equidistributed
        half = x.hits(lo, (lo + hi) / 2)
        structure = a.masked_sum_structure(half) if a.nonnegative and a.keeps_limits else None
        if structure is not None and structure.limit == float(half.density_bounds().value):
            return (lo + hi) / 2
        return None
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
