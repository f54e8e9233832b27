"""Lazy infinite real matrices with sparse rows.

Rows are materialized on demand and cached (small rows only; uniform rows like
the Cesàro means are cheap to rebuild and would dominate memory).  Bulk prefix
computations read all rows below a horizon at once: closed forms where the
matrix has one, otherwise one concatenated CSR of the rows (``_flat``), which
banded matrices build in closed form.  ``row_abs_sums`` and
``find_negative_entry`` return exactly what the scalar row methods
(``row_abs_sum``, ``row``) give, bit for bit; the masked and transformed row
sums use cumulative sums, whose error at the sizes involved here is far below
every stated tolerance.  ``transform`` computes one entry of A·x with
``math.fsum``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .maps import IndexMap
from .sequences import BoundedSequence
from .sets import SetDescription

__all__ = [
    "MatrixRow",
    "InfiniteMatrix",
    "ComposeUnsupportedError",
    "BandedRowError",
    "cesaro",
    "identity",
    "zero_matrix",
    "diagonal",
    "rk_matrix",
    "banded",
    "matrix_sum",
    "scalar_mul",
    "compose",
    "pos_neg_split",
    "transform",
    "norm_estimate",
    "find_negative_entry",
]

_CACHE_SUPPORT_LIMIT = 1024
_FLAT_NNZ_LIMIT = 4_000_000
# A row-selection matrix reads sequences and column sets pointwise on the image
# of h once the largest selected column exceeds this multiple of the horizon.
_SPARSE_IMAGE_FACTOR = 16


class ComposeUnsupportedError(ValueError):
    """Raised when the left factor of a composition has an infinite-support row."""


class BandedRowError(ValueError):
    """An explicit banded row with a negative or repeated column; ``row`` is its index."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row, self.reason = row, reason


@dataclass(frozen=True)
class MatrixRow:
    """A sparse row: sorted column indices, aligned values, and a tail bound.

    ``tail_bound`` dominates the absolute sum of all entries beyond the stored
    support; it is 0 for finitely supported rows.
    """

    indices: np.ndarray
    values: np.ndarray
    tail_bound: float = 0.0


_EMPTY_ROW = MatrixRow(np.zeros(0, dtype=np.int64), np.zeros(0))


def _abs_segment_sums(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """``np.sum(np.abs(values[ptr[n]:ptr[n + 1]]))`` for every n, bit for bit.

    Segments of at most two entries are summed in one vectorized pass.  numpy
    sums longer ones pairwise, which neither ``np.add.reduceat`` nor cumulative
    sums reproduce, so those are summed one slice at a time (which also keeps
    an ``abs`` copy of all the values out of memory).
    """
    starts, lengths = ptr[:-1], np.diff(ptr)
    out = np.zeros(lengths.size)
    nonempty = lengths > 0
    out[nonempty] = np.abs(values[starts[nonempty]])
    pairs = lengths == 2
    out[pairs] += np.abs(values[starts[pairs] + 1])
    for n in np.flatnonzero(lengths > 2).tolist():
        out[n] = np.sum(np.abs(values[ptr[n] : ptr[n + 1]]))
    return out


def _merged_row(indices: np.ndarray, values: np.ndarray, tail_bound: float = 0.0) -> MatrixRow:
    """The row with the values that share a column summed, columns sorted.

    ``bincount`` adds each column's values in input order starting from 0.0,
    so the sums are the ones an entry-by-entry accumulation would give.
    """
    cols, inv = np.unique(indices, return_inverse=True)
    sums = np.bincount(inv, weights=values, minlength=cols.size)
    return MatrixRow(cols.astype(np.int64, copy=False), sums.astype(np.float64, copy=False), tail_bound)


class InfiniteMatrix:
    """Base class; subclasses define ``_row`` and may override the bulk paths."""

    def __init__(self, label: str, norm_bound: float | None = None, nonnegative: bool | None = None):
        self.label = label
        self.norm_bound = norm_bound  # certified sup_n (sum_k |a_nk| + tail); None if unknown
        self.nonnegative = nonnegative
        self._row_cache: dict[int, MatrixRow] = {}
        self._flat_cache: dict[int, tuple | None] = {}
        self._cache_lock = threading.Lock()  # for callers that share a matrix across threads

    def _row(self, n: int) -> MatrixRow:
        raise NotImplementedError

    def row(self, n: int) -> MatrixRow:
        if n < 0:
            raise ValueError("row index must be a natural")
        with self._cache_lock:
            cached = self._row_cache.get(n)
        if cached is not None:
            return cached
        r = self._row(n)
        if len(r.indices) <= _CACHE_SUPPORT_LIMIT:
            with self._cache_lock:
                self._row_cache.setdefault(n, r)
        return r

    def row_abs_sum(self, n: int) -> float:
        r = self.row(n)
        return float(np.sum(np.abs(r.values))) + r.tail_bound

    def max_support(self, horizon: int) -> int:
        """1 + the largest column index on rows below the horizon."""
        flat = self._flat(horizon)
        if flat is not None:
            idx = flat[0]
            return int(idx.max()) + 1 if idx.size else 0
        best = 0
        for n in range(horizon):
            r = self.row(n)
            if len(r.indices):
                best = max(best, int(r.indices[-1]) + 1)
        return best

    # -- bulk prefix computations -------------------------------------------

    def row_abs_sums(self, horizon: int) -> np.ndarray:
        """``row_abs_sum(n)`` for every row n below the horizon, bit for bit."""
        flat = self._flat(horizon)
        if flat is None:
            return np.fromiter((self.row_abs_sum(n) for n in range(horizon)), dtype=np.float64, count=horizon)
        _, val, ptr, tails = flat
        return _abs_segment_sums(val, ptr) + tails

    def _flat(self, horizon: int):
        """Concatenated (indices, values, row pointers, tails) for rows below the
        horizon, or None when the total support is too large to materialize."""
        with self._cache_lock:
            if horizon in self._flat_cache:
                return self._flat_cache[horizon]
        flat = self._build_flat(horizon)
        with self._cache_lock:
            if len(self._flat_cache) > 4:
                self._flat_cache.clear()
            self._flat_cache[horizon] = flat
        return flat

    def _build_flat(self, horizon: int):
        """The uncached ``_flat``, assembled row by row."""
        idx_parts, val_parts = [], []
        ptr = np.zeros(horizon + 1, dtype=np.int64)
        tails = np.zeros(horizon, dtype=np.float64)
        nnz = 0
        for n in range(horizon):
            r = self.row(n)
            nnz += len(r.indices)
            if nnz > _FLAT_NNZ_LIMIT:
                return None
            idx_parts.append(r.indices)
            val_parts.append(r.values)
            ptr[n + 1] = nnz
            tails[n] = r.tail_bound
        idx = np.concatenate(idx_parts) if idx_parts else np.zeros(0, dtype=np.int64)
        val = np.concatenate(val_parts) if val_parts else np.zeros(0)
        return idx, val, ptr, tails

    def row_sums(self, horizon: int, absolute: bool = False) -> np.ndarray:
        return self.masked_row_sums(None, horizon, absolute=absolute)

    def masked_row_sums(
        self,
        columns: SetDescription | None,
        horizon: int,
        absolute: bool = False,
        positive_part: bool = False,
    ) -> np.ndarray:
        """Per-row sums of a_nk (optionally |a_nk| or a_nk^+) over the columns k in the set
        (all columns when ``columns`` is None).

        Tail bounds are added for absolute sums (they dominate the missing mass)
        and ignored otherwise.
        """
        mask = columns.mask(self.max_support(horizon)) if columns is not None else None
        flat = self._flat(horizon)
        if flat is not None:
            idx, val, ptr, tails = flat
            if positive_part:
                sel = np.clip(val, 0.0, None)
            elif absolute:
                sel = np.abs(val)
            else:
                sel = val
            if mask is not None:
                sel = sel * mask[idx]
            cum = np.concatenate(([0.0], np.cumsum(sel)))
            out = cum[ptr[1:]] - cum[ptr[:-1]]
            return out + tails if absolute else out
        out = np.empty(horizon, dtype=np.float64)
        for n in range(horizon):
            r = self.row(n)
            vals = r.values
            if mask is not None:
                vals = vals[mask[r.indices]] if len(r.indices) else vals[:0]
            if positive_part:
                vals = np.clip(vals, 0.0, None)
            elif absolute:
                vals = np.abs(vals)
            out[n] = np.sum(vals) + (r.tail_bound if absolute else 0.0)
        return out

    def transform_prefix(self, x: BoundedSequence, horizon: int) -> np.ndarray:
        """The transformed values (A x)_n for n below the horizon."""
        flat = self._flat(horizon)
        if flat is not None:
            idx, val, ptr, _ = flat
            xs = x.prefix(int(idx.max()) + 1) if idx.size else np.zeros(0)
            cum = np.concatenate(([0.0], np.cumsum(val * xs[idx])))
            return cum[ptr[1:]] - cum[ptr[:-1]]
        support = self.max_support(horizon)
        xs = x.prefix(support) if support else np.zeros(0)
        out = np.empty(horizon, dtype=np.float64)
        for n in range(horizon):
            r = self.row(n)
            out[n] = np.dot(r.values, xs[r.indices]) if len(r.indices) else 0.0
        return out


class _CesaroMatrix(InfiniteMatrix):
    """Row n averages x_0 … x_n with uniform weight 1/(n+1)."""

    def __init__(self):
        super().__init__("Cesaro", norm_bound=1.0, nonnegative=True)

    def _row(self, n: int) -> MatrixRow:
        w = 1.0 / (n + 1.0)
        return MatrixRow(np.arange(n + 1, dtype=np.int64), np.full(n + 1, w))

    def row_abs_sum(self, n: int) -> float:
        # Uniform rational rows sum to 1 exactly.
        return 1.0

    def row_abs_sums(self, horizon: int) -> np.ndarray:
        return np.ones(horizon, dtype=np.float64)

    def max_support(self, horizon: int) -> int:
        return horizon

    def masked_row_sums(self, columns, horizon, absolute=False, positive_part=False):
        ns = np.arange(1, horizon + 1, dtype=np.float64)
        if columns is None:
            return np.ones(horizon, dtype=np.float64)
        counts = np.cumsum(columns.mask(horizon).astype(np.float64))
        return counts / ns

    def transform_prefix(self, x: BoundedSequence, horizon: int) -> np.ndarray:
        xs = x.prefix(horizon)
        return np.cumsum(xs) / np.arange(1, horizon + 1, dtype=np.float64)


class _DiagonalMatrix(InfiniteMatrix):
    """Diagonal entries ``diag(n)``; ``rule``, when given, maps a horizon H to the
    array ``diag(0) … diag(H-1)`` and must agree with ``diag`` bit for bit."""

    def __init__(self, diag: Callable[[int], float], label: str,
                 norm_bound: float | None = None, nonnegative: bool | None = None,
                 rule: Callable[[int], np.ndarray] | None = None):
        super().__init__(label, norm_bound=norm_bound, nonnegative=nonnegative)
        self.diag = diag
        self.rule = rule

    def _row(self, n: int) -> MatrixRow:
        v = float(self.diag(n))
        if v == 0.0:
            return _EMPTY_ROW
        return MatrixRow(np.array([n], dtype=np.int64), np.array([v]))

    def _diag_prefix(self, horizon: int) -> np.ndarray:
        if self.rule is not None:
            return self.rule(horizon)
        return np.fromiter((self.diag(n) for n in range(horizon)), dtype=np.float64, count=horizon)

    def max_support(self, horizon: int) -> int:
        return horizon

    def row_abs_sums(self, horizon: int) -> np.ndarray:
        return np.abs(self._diag_prefix(horizon))

    def masked_row_sums(self, columns, horizon, absolute=False, positive_part=False):
        d = self._diag_prefix(horizon)
        if positive_part:
            d = np.clip(d, 0.0, None)
        elif absolute:
            d = np.abs(d)
        if columns is None:
            return d
        return d * columns.mask(horizon)

    def transform_prefix(self, x: BoundedSequence, horizon: int) -> np.ndarray:
        return self._diag_prefix(horizon) * x.prefix(horizon)


class _RkMatrix(InfiniteMatrix):
    """Row n carries a single 1 in column h(n)."""

    def __init__(self, h: IndexMap):
        super().__init__(f"Rk[{h.label}]", norm_bound=1.0, nonnegative=True)
        self.h = h

    def _row(self, n: int) -> MatrixRow:
        return MatrixRow(np.array([self.h(n)], dtype=np.int64), np.array([1.0]))

    def row_abs_sum(self, n: int) -> float:
        return 1.0

    def row_abs_sums(self, horizon: int) -> np.ndarray:
        return np.ones(horizon, dtype=np.float64)

    def max_support(self, horizon: int) -> int:
        return int(self.h.prefix(horizon).max()) + 1 if horizon else 0

    def _on_image(self, horizon: int, prefix: Callable, point: Callable, dtype) -> np.ndarray:
        """``prefix(support)[h(n)]`` for the rows n below the horizon.

        When the image is sparse (e.g. the squares) the largest selected column
        far exceeds the horizon, so ``point(h(n))`` is read per row instead of a
        prefix the size of that column.
        """
        hs = self.h.prefix(horizon)
        support = int(hs.max()) + 1 if horizon else 0
        if support > _SPARSE_IMAGE_FACTOR * horizon:
            return np.fromiter((point(int(k)) for k in hs), dtype=dtype, count=horizon)
        return prefix(support)[hs]

    def masked_row_sums(self, columns, horizon, absolute=False, positive_part=False):
        if columns is None:
            return np.ones(horizon, dtype=np.float64)
        return self._on_image(horizon, columns.mask, columns.contains, bool).astype(np.float64)

    def transform_prefix(self, x: BoundedSequence, horizon: int) -> np.ndarray:
        return self._on_image(horizon, x.prefix, x.fn, np.float64)


class _BandedMatrix(InfiniteMatrix):
    """Finitely many explicit rows with a declared continuation rule.

    The tail rows add only 1s (identity), nothing (zero) or copies of the last
    explicit row, so the matrix is nonnegative iff its explicit entries are.
    """

    def __init__(self, rows: list[list[tuple[int, float]]], tail_mode: str = "identity", label: str = "Banded"):
        if tail_mode not in ("identity", "zero", "repeat_last"):
            raise ValueError("tail_mode must be identity, zero or repeat_last")
        if tail_mode == "repeat_last" and not rows:
            raise ValueError("repeat_last needs at least one explicit row")
        explicit_rows = []
        for i, r in enumerate(rows):
            cols = np.array([k for k, _ in r], dtype=np.int64)
            if np.any(cols < 0) or np.unique(cols).size != cols.size:
                raise BandedRowError(i, f"columns must be distinct naturals, got {cols.tolist()}")
            explicit_rows.append(_merged_row(cols, np.array([v for _, v in r], dtype=np.float64)))
        nonneg = all(bool(np.all(r.values >= 0.0)) for r in explicit_rows)
        super().__init__(label, nonnegative=True if nonneg else None)
        self.explicit_rows = explicit_rows
        self.tail_mode = tail_mode

    def _row(self, n: int) -> MatrixRow:
        if n < len(self.explicit_rows):
            return self.explicit_rows[n]
        if self.tail_mode == "identity":
            return MatrixRow(np.array([n], dtype=np.int64), np.array([1.0]))
        if self.tail_mode == "zero":
            return _EMPTY_ROW
        return self.explicit_rows[-1]

    def _build_flat(self, horizon: int):
        """The explicit rows below the horizon, then the tail rows in closed form."""
        head = self.explicit_rows[:horizon]
        rest = horizon - len(head)
        pattern = self.explicit_rows[-1] if self.tail_mode == "repeat_last" else _EMPTY_ROW
        tail_len = 1 if self.tail_mode == "identity" else len(pattern.indices)
        head_len = [len(r.indices) for r in head]
        if sum(head_len) + tail_len * rest > _FLAT_NNZ_LIMIT:
            return None
        lengths = np.concatenate((np.array(head_len, dtype=np.int64), np.full(rest, tail_len, dtype=np.int64)))
        ptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lengths)))
        if self.tail_mode == "identity":
            tail_idx, tail_val = np.arange(len(head), horizon, dtype=np.int64), np.ones(rest)
        else:
            tail_idx, tail_val = np.tile(pattern.indices, rest), np.tile(pattern.values, rest)
        idx = np.concatenate([r.indices for r in head] + [tail_idx])
        val = np.concatenate([r.values for r in head] + [tail_val])
        return idx, val, ptr, np.zeros(horizon, dtype=np.float64)


class _SumMatrix(InfiniteMatrix):
    def __init__(self, a: InfiniteMatrix, b: InfiniteMatrix):
        bound = None
        if a.norm_bound is not None and b.norm_bound is not None:
            bound = a.norm_bound + b.norm_bound
        nonneg = True if (a.nonnegative and b.nonnegative) else None
        super().__init__(f"({a.label}+{b.label})", norm_bound=bound, nonnegative=nonneg)
        self.a, self.b = a, b

    def _row(self, n: int) -> MatrixRow:
        ra, rb = self.a.row(n), self.b.row(n)
        return _merged_row(
            np.concatenate((ra.indices, rb.indices)),
            np.concatenate((ra.values, rb.values)),
            ra.tail_bound + rb.tail_bound,
        )


class _ScaledMatrix(InfiniteMatrix):
    def __init__(self, c: float, a: InfiniteMatrix):
        bound = abs(c) * a.norm_bound if a.norm_bound is not None else None
        nonneg = True if (a.nonnegative and c >= 0) else None
        super().__init__(f"{c}*{a.label}", norm_bound=bound, nonnegative=nonneg)
        self.c, self.a = float(c), a

    def _row(self, n: int) -> MatrixRow:
        r = self.a.row(n)
        return MatrixRow(r.indices, self.c * r.values, abs(self.c) * r.tail_bound)


class _ComposedMatrix(InfiniteMatrix):
    """B·A for row-finite B: row n of BA = sum_j b_nj * (row j of A)."""

    def __init__(self, b: InfiniteMatrix, a: InfiniteMatrix):
        bound = None
        if a.norm_bound is not None and b.norm_bound is not None:
            bound = a.norm_bound * b.norm_bound
        nonneg = True if (a.nonnegative and b.nonnegative) else None
        super().__init__(f"({b.label}.{a.label})", norm_bound=bound, nonnegative=nonneg)
        self.b, self.a = b, a
        self._probe()

    def _probe(self):
        r0 = self.b.row(0)
        if r0.tail_bound != 0.0:
            raise ComposeUnsupportedError("left factor has an infinite-support row (row 0)")

    def _row(self, n: int) -> MatrixRow:
        rb = self.b.row(n)
        if rb.tail_bound != 0.0:
            raise ComposeUnsupportedError(f"left factor has an infinite-support row (row {n})")
        rows = [self.a.row(j) for j in rb.indices.tolist()]
        tail = sum((abs(bval) * ra.tail_bound for bval, ra in zip(rb.values.tolist(), rows)), 0.0)
        if not rows:
            return MatrixRow(np.zeros(0, dtype=np.int64), np.zeros(0), tail)
        lengths = [len(ra.indices) for ra in rows]
        return _merged_row(
            np.concatenate([ra.indices for ra in rows]),
            np.repeat(rb.values, lengths) * np.concatenate([ra.values for ra in rows]),
            tail,
        )


class _EntrywisePart(InfiniteMatrix):
    """Positive or negative part of a base matrix, entrywise."""

    def __init__(self, base: InfiniteMatrix, positive: bool):
        sign = "+" if positive else "-"
        super().__init__(f"{base.label}{sign}", norm_bound=base.norm_bound, nonnegative=True)
        self.base = base
        self.positive = positive

    def _row(self, n: int) -> MatrixRow:
        r = self.base.row(n)
        if self.positive:
            keep = r.values > 0.0
            vals = r.values[keep]
        else:
            keep = r.values < 0.0
            vals = -r.values[keep]
        return MatrixRow(r.indices[keep], vals, r.tail_bound)


# ---------------------------------------------------------------------------
# Factories and operations


def cesaro() -> InfiniteMatrix:
    return _CesaroMatrix()


def identity() -> InfiniteMatrix:
    return _DiagonalMatrix(lambda n: 1.0, "Identity", norm_bound=1.0, nonnegative=True, rule=np.ones)


def zero_matrix() -> InfiniteMatrix:
    return _DiagonalMatrix(lambda n: 0.0, "Zero", norm_bound=0.0, nonnegative=True, rule=np.zeros)


def diagonal(values: Callable[[int], float], label: str = "Diagonal",
             norm_bound: float | None = None, nonnegative: bool | None = None,
             rule: Callable[[int], np.ndarray] | None = None) -> InfiniteMatrix:
    """Diagonal matrix with entries ``values(n)``; ``rule`` is its optional array form."""
    return _DiagonalMatrix(values, label, norm_bound=norm_bound, nonnegative=nonnegative, rule=rule)


def rk_matrix(h: IndexMap) -> InfiniteMatrix:
    """The row-selection matrix: (A x)_n = x_{h(n)}.  Always bounded (norm 1)."""
    return _RkMatrix(h)


def banded(rows: list[list[tuple[int, float]]], tail_mode: str = "identity", label: str = "Banded") -> InfiniteMatrix:
    return _BandedMatrix(rows, tail_mode, label)


def matrix_sum(a: InfiniteMatrix, b: InfiniteMatrix) -> InfiniteMatrix:
    return _SumMatrix(a, b)


def scalar_mul(c: float, a: InfiniteMatrix) -> InfiniteMatrix:
    return _ScaledMatrix(c, a)


def compose(b: InfiniteMatrix, a: InfiniteMatrix) -> InfiniteMatrix:
    """The product B·A; requires every row of B to have finite support."""
    return _ComposedMatrix(b, a)


def pos_neg_split(a: InfiniteMatrix) -> tuple[InfiniteMatrix, InfiniteMatrix]:
    """Entrywise split A = A⁺ − A⁻ with A⁺, A⁻ >= 0 and disjoint supports."""
    return _EntrywisePart(a, True), _EntrywisePart(a, False)


def transform(a: InfiniteMatrix, x: BoundedSequence, n: int) -> float:
    """(A x)_n over the stored support, compensated; error is at most tail * bound."""
    r = a.row(n)
    return math.fsum(v * x.fn(int(k)) for k, v in zip(r.indices.tolist(), r.values.tolist()))


def norm_estimate(a: InfiniteMatrix, horizon: int) -> tuple[float, bool]:
    """(sup of row absolute sums below the horizon, certified?).

    The flag is true only when the matrix carries a declared global bound; a
    finite-horizon sup alone never certifies membership in the bounded class.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    return float(np.max(a.row_abs_sums(horizon))), a.norm_bound is not None


def find_negative_entry(a: InfiniteMatrix, horizon: int) -> tuple[int, int, float] | None:
    """First (row, column, value) with a negative entry below the horizon, if any."""
    if a.nonnegative:
        return None
    flat = a._flat(horizon)
    if flat is None:
        for n in range(horizon):
            r = a.row(n)
            neg = np.flatnonzero(r.values < 0.0)
            if neg.size:
                j = int(neg[0])
                return n, int(r.indices[j]), float(r.values[j])
        return None
    idx, val, ptr, _ = flat
    neg = np.flatnonzero(val < 0.0)
    if not neg.size:
        return None
    j = int(neg[0])
    return int(np.searchsorted(ptr, j, side="right")) - 1, int(idx[j]), float(val[j])
