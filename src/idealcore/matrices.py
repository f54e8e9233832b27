"""Lazy infinite real matrices with sparse rows.

Rows are materialized on demand and cached (small rows only; uniform rows like
the Cesàro means are cheap to rebuild and would dominate memory).  Bulk prefix
computations read all rows below a horizon at once: closed forms where the
matrix has one, otherwise one concatenated CSR of the rows (``_flat``).
Diagonal and banded matrices gather that CSR in closed form, bit for bit equal
to the row-by-row assembly (``InfiniteMatrix._gather``) that every other
matrix uses.

Every row sum comes from ``masked_row_sums``, defined once in the base class.
A masked row sum is A applied to an indicator, A·1_E, so the signed sums, and
absolute sums where the flag cannot change them (``abs_sums_are_sums``), are
``transform_prefix`` of ``sequences.indicator(E)``.  Each matrix thus has one
bulk path, ``_apply(read, H)``, where ``read`` maps an int64 index array to
the values of x there; ``transform_prefix(x, H)`` is ``_apply(x.at, H)``,
defined in the base class alone.  Cesàro and diagonal matrices read x at
0 … H−1 and apply their closed forms; rk(h) reads x at h(0) … h(H−1) alone,
never x's prefix below the largest of them; sums and multiples take their
operands' paths ((A+B)·x = A·x + B·x, (cA)·x = c·(A·x)); a product whose left
factor is known to be row-finite and selects no columns past
``_SPARSE_IMAGE_FACTOR`` times the horizon hands B the reader of A's values;
and the CSR reads x below ``max_support(H)``.  The other
absolute sums (signed matrices, rows with tails) read the entries: |a_nk|
times the mask from the CSR, plus the tail bounds.  On the CSR each row is
summed on its own (``_segment_sums``), bit for bit as ``np.sum`` sums that row
alone.  Past ``_FLAT_NNZ_LIMIT`` the CSR holds the rows up to the one at which
the support passes the limit, and a bulk computation reads the rows after
those one at a time with the same bits, so one bulk call builds each row once.
``row_selection`` names the map h of a matrix with (A x)_n = x_{h(n)} (rk
matrices and the identity), through which A·x keeps the level sets of x.
``keeps_limits`` says A·x is known to converge to the limit of every
convergent x: true for Cesàro, for a row selection by an injective map and
for a banded matrix with an identity tail.  ``masked_sum_structure`` states
what is known exactly of the row sums over a set E without summing a row: the
level sets h⁻¹(E) (value 1) and its complement (value 0) for a row selection,
the density of E as their limit for Cesàro (over ω also the one level 1), and
for a banded matrix its explicit row sums as a finite head in front of the
level sets of its closed-form tail.  Composites state theirs from their
operands': a multiple scales them, a sum adds them on the intersections of
the level sets (a limit added to levels gives levels that are limits along
their sets), and a product in which one factor selects rows reads the other
factor's at h(n) (rk(h)·A) or over h⁻¹(E) (B·rk(h)).  None for other products,
diagonal matrices other than the identity, and absolute sums that read the
entries.  A banded matrix also declares its norm, the largest
absolute row sum of its explicit rows and its tail.
``find_negative_entry`` reads entries.  ``transform`` computes one entry of
A·x from row n with ``math.fsum``: the compensated reference that tests
compare the bulk path against; the program reads A·x through ``_apply``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .maps import IndexMap, identity_map
from .records import record
from .sequences import BoundedSequence, indicator
from .sets import _SPARSE_IMAGE_FACTOR, SetDescription, _at_rows, complement, omega, preimage

__all__ = [
    "MatrixRow",
    "SumStructure",
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
    "transform",
    "norm_estimate",
    "find_negative_entry",
]

_CACHE_SUPPORT_LIMIT = 1024
_FLAT_NNZ_LIMIT = 4_000_000
# Entries that ``_segment_sums`` gathers into one block of equal-length rows.
_MERGE_CHUNK = 1 << 16
# The relative margin of a multiple's norm bound over |c|·‖A‖: 256 units of
# roundoff (see ``_ScaledMatrix.__init__``).
_SCALED_NORM_SLACK = 2.0**-45


class ComposeUnsupportedError(ValueError):
    """Raised when the left factor of a composition has an infinite-support row."""


class BandedRowError(ValueError):
    """An explicit banded row with a negative or repeated column or a non-finite
    entry; ``row`` is its index."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row, self.reason = row, reason


@record(frozen=True)
class MatrixRow:
    """A sparse row: sorted column indices, aligned values, and a tail bound.

    ``tail_bound`` dominates the absolute sum of all entries beyond the stored
    support; it is 0 for finitely supported rows.
    """

    indices: np.ndarray
    values: np.ndarray
    tail_bound: float = 0.0


_EMPTY_ROW = MatrixRow(np.zeros(0, dtype=np.int64), np.zeros(0))


@record(frozen=True)
class SumStructure:
    """What is known exactly of the row sums s_n of a matrix over a set of columns.

    ``head`` holds s_0 … s_{m−1}, m = len(head).  From row m on the sums take
    the value v exactly on the rows of each level set (``levels``: pairs
    (v, S_v) whose sets partition ω), or they converge to ``limit``, or both.
    Every catalog ideal contains Fin, so a finite head never moves a J-cluster
    point: the levels alone decide the cluster points and the limit.
    ``row_sum(n)`` is s_n with the bits of the bulk path.  With
    ``levels_are_limits`` each value v is the limit of the sums along its set
    rather than the sums themselves (a limit added to levels): the J-cluster
    points are the same, but no row is known to be off a target.
    """

    levels: tuple[tuple[float, SetDescription], ...] | None
    limit: float | None
    row_sum: Callable[[int], float]
    head: tuple[float, ...] = ()
    levels_are_limits: bool = False

    def count_deviations(self, target: float, tol: float, horizon: int) -> int:
        """How many rows n < horizon have |s_n − target| > tol: the head rows,
        then the level rows from len(head) on (``levels`` must be given, and
        be the sums themselves)."""
        m = min(len(self.head), horizon)
        count = sum(abs(v - target) > tol for v in self.head[:m])
        for v, s in self.levels:
            if abs(v - target) > tol:
                count += int(np.count_nonzero(s.enumerate_prefix(horizon) >= m))
        return count


def _segment_sums(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """``np.sum(values[ptr[n]:ptr[n + 1]])`` for every n, bit for bit.

    numpy sums a row pairwise, which neither ``np.add.reduceat`` nor cumulative
    sums reproduce (a running sum also carries each row's rounding into the
    next), but ``sum(axis=1)`` of a C-ordered 2-D block adds each of its rows
    exactly as the 1-D ``np.sum`` does.  So rows of equal length are gathered
    into blocks of at most ``_MERGE_CHUNK`` entries (or one row) and summed a
    block at a time.  A row of one entry is that entry plus 0.0, as ``np.sum``
    gives it (−0.0 becomes 0.0), and an empty row sums to 0.0.
    """
    lengths = np.diff(ptr)
    out = np.zeros(lengths.size)
    single = lengths == 1
    out[single] = values[ptr[:-1][single]] + 0.0
    longer = np.flatnonzero(lengths > 1)
    order = longer[np.argsort(lengths[longer])]
    by_length, first = np.unique(lengths[order], return_index=True)
    ends = np.append(first[1:], order.size)
    for length, lo, hi in zip(by_length.tolist(), first.tolist(), ends.tolist()):
        step = max(1, _MERGE_CHUNK // length)
        for r0 in range(lo, hi, step):
            rows = order[r0 : min(r0 + step, hi)]
            if rows.size == 1:  # a view, without the index array of a gather
                start = int(ptr[rows[0]])
                block = values[start : start + length].reshape(1, length)
            else:
                block = values[ptr[rows, None] + np.arange(length)]
            out[rows] = block.sum(axis=1)
    return out


def _gathered_rows(lengths: np.ndarray) -> int:
    """How many of the rows with these lengths a CSR holds: all of them, or
    those up to the first at which the running support passes
    ``_FLAT_NNZ_LIMIT``."""
    over = np.flatnonzero(np.cumsum(lengths) > _FLAT_NNZ_LIMIT)
    return int(over[0]) + 1 if over.size else lengths.size


def _pointers(lengths: np.ndarray) -> np.ndarray:
    """CSR row pointers for the given row lengths."""
    ptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return ptr


def _merged_row(indices: np.ndarray, values: np.ndarray, tail_bound: float = 0.0) -> MatrixRow:
    """The row with the values that share a column summed, columns sorted.

    ``indices`` concatenates sorted operand rows, which a stable sort merges
    run by run, with no sort from scratch.  ``bincount`` adds each column's
    values in input order starting from 0.0, so the sums are the ones an
    entry-by-entry accumulation would give.
    """
    order = np.argsort(indices, kind="stable")
    ordered = indices[order]
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    column_of = np.empty(ordered.size, dtype=np.intp)
    column_of[order] = np.cumsum(first) - 1
    cols = ordered[first]
    sums = np.bincount(column_of, weights=values, minlength=cols.size)
    return MatrixRow(cols.astype(np.int64, copy=False), sums.astype(np.float64, copy=False), tail_bound)


def _meet(s: SetDescription, t: SetDescription) -> SetDescription:
    """S ∩ T, with an ω left out."""
    if s == omega():
        return t
    return s if t == omega() else s & t


class InfiniteMatrix:
    """Base class; subclasses define ``_row`` and may override ``_apply`` and ``_gather``."""

    # True where every row is known to carry a zero tail bound.
    _row_finite = False

    def __init__(self, label: str, norm_bound: float | None = None, nonnegative: bool | None = None):
        self.label = label
        self.norm_bound = norm_bound  # certified sup_n (sum_k |a_nk| + tail); None if unknown
        self.nonnegative = nonnegative
        self._row_cache: dict[int, MatrixRow] = {}
        self._flat_cache: dict[int, tuple] = {}

    @property
    def abs_sums_are_sums(self) -> bool:
        """Whether absolute masked row sums are known to equal the signed ones bit
        for bit: true for a nonnegative matrix whose rows carry no tail bound
        and no −0.0 entry (which ``np.abs`` would turn into 0.0).  Only a
        diagonal rule or a subclass's own rows can hold −0.0 in a nonnegative
        matrix; banded rows and merged composite rows add 0.0 to theirs."""
        return bool(self.nonnegative) and self._row_finite

    def row_selection(self) -> IndexMap | None:
        """The map h with (A x)_n = x_{h(n)} for every x when A is known to be
        one (rk matrices and the identity), else None."""
        return None

    @property
    def keeps_limits(self) -> bool:
        """Whether A·x is known to converge to L for every x that converges to
        L (A is regular in the Silverman–Toeplitz sense): Cesàro, a row
        selection by an injective map h, where h(n) → ∞, and a banded matrix
        with an identity tail.  False for every other matrix, regular or not."""
        h = self.row_selection()
        return h is not None and h.injective

    def masked_sum_structure(self, columns: SetDescription | None, absolute: bool = False) -> SumStructure | None:
        """The structure of ``masked_row_sums(columns, ·, absolute)``, or None
        when none is known (Cesàro and banded matrices state their own).

        A row selection sums a row over E to 1 where h(n) ∈ E and to 0
        elsewhere: its level sets are h⁻¹(E) and the complement.  Absolute
        sums have the structure of the sums where they are the sums
        (``abs_sums_are_sums``), and none otherwise.  Every other matrix
        states none.
        """
        h = self.row_selection()
        if h is None or (absolute and not self.abs_sums_are_sums):
            return None
        e = omega() if columns is None else columns
        ones = preimage(e, h)
        return SumStructure(((1.0, ones), (0.0, complement(ones))), None, lambda n: float(e.contains(h(n))))

    def _row(self, n: int) -> MatrixRow:
        raise NotImplementedError

    def row(self, n: int) -> MatrixRow:
        if n < 0:
            raise ValueError("row index must be a natural")
        cached = self._row_cache.get(n)
        if cached is not None:
            return cached
        r = self._row(n)
        if len(r.indices) <= _CACHE_SUPPORT_LIMIT:
            self._row_cache[n] = r
        return r

    def max_support(self, horizon: int) -> int:
        """1 + the largest column index on rows below the horizon (a product
        may return a larger bound; see ``_ComposedMatrix.max_support``)."""
        idx, _, ptr, _ = self._flat(horizon)
        best = int(idx.max()) + 1 if idx.size else 0
        for _, r in self._rows_past(ptr, horizon):
            if len(r.indices):
                best = max(best, int(r.indices[-1]) + 1)
        return best

    # -- bulk prefix computations -------------------------------------------

    def _flat(self, horizon: int):
        """Concatenated (indices, values, row pointers, tails) of the first rows
        below the horizon: all of them, or, when their total support passes
        ``_FLAT_NNZ_LIMIT``, those up to the first row at which it does.  A bulk
        computation reads the rest one at a time (``_rows_past``)."""
        if horizon in self._flat_cache:
            return self._flat_cache[horizon]
        flat = self._gather(horizon)
        if len(self._flat_cache) > 4:
            self._flat_cache.clear()
        self._flat_cache[horizon] = flat
        return flat

    def _gather(self, horizon: int):
        """The CSR that ``_flat`` returns, uncached.

        This one reads ``row`` per row, so the rows it stops after are the ones
        it has built, and none is built again; diagonal and banded matrices
        gather the same rows in closed form, bit for bit.
        """
        idx_parts, val_parts, lengths, tails = [], [], [], []
        nnz = 0
        for n in range(horizon):
            if nnz > _FLAT_NNZ_LIMIT:
                break
            r = self.row(n)
            nnz += len(r.indices)
            idx_parts.append(r.indices)
            val_parts.append(r.values)
            lengths.append(len(r.indices))
            tails.append(r.tail_bound)
        idx = np.concatenate(idx_parts) if idx_parts else np.zeros(0, dtype=np.int64)
        val = np.concatenate(val_parts) if val_parts else np.zeros(0)
        return idx, val, _pointers(np.array(lengths, dtype=np.int64)), np.array(tails, dtype=np.float64)

    def _rows_past(self, ptr: np.ndarray, horizon: int):
        """(n, row n) for the rows below the horizon that the CSR with row
        pointers ``ptr`` leaves out, built one at a time."""
        return ((n, self.row(n)) for n in range(ptr.size - 1, horizon))

    def row_sums(self, horizon: int, absolute: bool = False) -> np.ndarray:
        return self.masked_row_sums(None, horizon, absolute=absolute)

    def masked_row_sums(self, columns: SetDescription | None, horizon: int, absolute: bool = False) -> np.ndarray:
        """Per-row sums of a_nk (|a_nk| when ``absolute``) over the columns k in
        the set (all columns when ``columns`` is None).

        Signed sums are A·1_E, the transform of the set's indicator; so are
        absolute sums where the flag cannot change them
        (``abs_sums_are_sums``).  Other absolute sums read the entries: each
        row's ``np.sum`` of |a_nk| times the 0/1 mask, from the CSR or row by
        row alike, plus its tail bound (which dominates the missing mass).
        """
        e = omega() if columns is None else columns
        if not absolute or self.abs_sums_are_sums:
            return self.transform_prefix(indicator(e), horizon)
        mask = e.mask(self.max_support(horizon))
        idx, val, ptr, tails = self._flat(horizon)
        out = np.empty(horizon, dtype=np.float64)
        out[: ptr.size - 1] = _segment_sums(np.abs(val) * mask[idx], ptr) + tails
        for n, r in self._rows_past(ptr, horizon):
            out[n] = np.sum(np.abs(r.values) * mask[r.indices]) + r.tail_bound
        return out

    def transform_prefix(self, x: BoundedSequence, horizon: int) -> np.ndarray:
        """The transformed values (A x)_n for n below the horizon."""
        return self._apply(x.at, horizon)

    def _apply(self, read: Callable[[np.ndarray], np.ndarray], horizon: int) -> np.ndarray:
        """(A x)_n for n below the horizon, where ``read`` maps an int64 index
        array to the values of x there.  The CSR reads x below
        ``max_support(horizon)``."""
        idx, val, ptr, _ = self._flat(horizon)
        xs = read(np.arange(self.max_support(horizon)))
        out = np.empty(horizon, dtype=np.float64)
        out[: ptr.size - 1] = _segment_sums(val * xs[idx], ptr)
        for n, r in self._rows_past(ptr, horizon):
            out[n] = np.sum(r.values * xs[r.indices])
        return out


class _CesaroMatrix(InfiniteMatrix):
    """Row n averages x_0 … x_n with uniform weight 1/(n+1)."""

    _row_finite = True

    def __init__(self):
        super().__init__("Cesaro", norm_bound=1.0, nonnegative=True)

    def _row(self, n: int) -> MatrixRow:
        w = 1.0 / (n + 1.0)
        return MatrixRow(np.arange(n + 1, dtype=np.int64), np.full(n + 1, w))

    def max_support(self, horizon: int) -> int:
        return horizon

    @property
    def keeps_limits(self) -> bool:
        return True

    def masked_sum_structure(self, columns: SetDescription | None, absolute: bool = False) -> SumStructure | None:
        """Row n sums to |E ∩ [0, n]|/(n+1) (its own absolute sum): exactly 1
        over ω, and tending to the density of E where it exists."""
        e = omega() if columns is None else columns

        def row_sum(n: int) -> float:
            return np.count_nonzero(e.mask(n + 1)) / (n + 1.0)

        if e == omega():
            return SumStructure(((1.0, e),), 1.0, row_sum)
        d = e.density_bounds()
        if d is None or not d.has_limit:
            return None
        return SumStructure(None, float(d.value), row_sum)

    def _apply(self, read: Callable[[np.ndarray], np.ndarray], horizon: int) -> np.ndarray:
        return np.cumsum(read(np.arange(horizon))) / np.arange(1, horizon + 1, dtype=np.float64)


class _DiagonalMatrix(InfiniteMatrix):
    """Diagonal entries ``diag(n)``; ``rule``, when given, maps a horizon H to the
    array ``diag(0) … diag(H-1)`` and must agree with ``diag`` bit for bit."""

    _row_finite = True

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

    @property
    def abs_sums_are_sums(self) -> bool:
        # No row has a tail; of the rules, those of the identity and the zero
        # matrix are the ones known to give no −0.0.
        return bool(self.nonnegative) and self.rule in (np.ones, np.zeros)

    def row_selection(self) -> IndexMap | None:
        return identity_map() if self.rule is np.ones else None

    def _gather(self, horizon: int):
        d = self._diag_prefix(horizon)
        keep = d != 0.0
        rows = _gathered_rows(keep)
        d, keep = d[:rows], keep[:rows]
        return np.flatnonzero(keep), d[keep], _pointers(keep), np.zeros(rows)

    def max_support(self, horizon: int) -> int:
        return horizon

    def _apply(self, read: Callable[[np.ndarray], np.ndarray], horizon: int) -> np.ndarray:
        return self._diag_prefix(horizon) * read(np.arange(horizon))


class _RkMatrix(InfiniteMatrix):
    """Row n carries a single 1 in column h(n)."""

    _row_finite = True

    def __init__(self, h: IndexMap):
        super().__init__(f"Rk[{h.label}]", norm_bound=1.0, nonnegative=True)
        self.h = h

    def _row(self, n: int) -> MatrixRow:
        return MatrixRow(np.array([self.h(n)], dtype=np.int64), np.array([1.0]))

    def row_selection(self) -> IndexMap:
        return self.h

    def max_support(self, horizon: int) -> int:
        return int(self.h.prefix(horizon).max()) + 1 if horizon else 0

    def _apply(self, read: Callable[[np.ndarray], np.ndarray], horizon: int) -> np.ndarray:
        return read(self.h.prefix(horizon))


class _BandedMatrix(InfiniteMatrix):
    """Finitely many explicit rows with a declared continuation rule.

    The tail rows add only 1s (identity), nothing (zero) or copies of the last
    explicit row, so the matrix is nonnegative iff its explicit entries are.
    """

    _row_finite = True

    def __init__(self, rows: list[list[tuple[int, float]]], tail_mode: str = "identity", label: str = "Banded"):
        if tail_mode not in ("identity", "zero", "repeat_last"):
            raise ValueError("tail_mode must be identity, zero or repeat_last")
        if tail_mode == "repeat_last" and not rows:
            raise ValueError("repeat_last needs at least one explicit row")
        counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        cols = np.array([k for r in rows for k, _ in r], dtype=np.int64)
        vals = np.array([v for r in rows for _, v in r], dtype=np.float64)
        ptr = _pointers(counts)
        row_of = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
        order = np.lexsort((cols, row_of))
        sorted_cols, sorted_rows = cols[order], row_of[order]
        repeated = (sorted_cols[1:] == sorted_cols[:-1]) & (sorted_rows[1:] == sorted_rows[:-1])
        bad = np.concatenate((row_of[cols < 0], sorted_rows[1:][repeated]))
        if bad.size:
            i = int(bad.min())
            raise BandedRowError(i, f"columns must be distinct naturals, got {cols[ptr[i] : ptr[i + 1]].tolist()}")
        infinite = row_of[~np.isfinite(vals)]
        if infinite.size:
            i = int(infinite.min())
            raise BandedRowError(i, f"entries must be finite, got {vals[ptr[i] : ptr[i + 1]].tolist()}")
        # Sorted rows, with 0.0 added as ``_merged_row`` adds it (−0.0 becomes 0.0).
        self._cols, self._vals, self._ptr = sorted_cols, vals[order] + 0.0, ptr
        nonneg = bool(np.all(self._vals >= 0.0))
        # The norm is the largest absolute row sum: of the explicit rows, and 1
        # for an identity tail (a repeated last row is one of the explicit rows).
        abs_sums = _segment_sums(np.abs(self._vals), ptr)
        norm = max(float(abs_sums.max()) if abs_sums.size else 0.0, 1.0 if tail_mode == "identity" else 0.0)
        super().__init__(label, norm_bound=norm, nonnegative=True if nonneg else None)
        self.tail_mode = tail_mode

    @property
    def keeps_limits(self) -> bool:
        # With an identity tail the matrix differs from the identity in finitely many rows.
        return self.tail_mode == "identity"

    def masked_sum_structure(self, columns: SetDescription | None, absolute: bool = False) -> SumStructure | None:
        """The explicit rows' sums over E are the head; the tail rows sum to 1
        on E and 0 on Eᶜ (identity tail, the identity's own levels), to 0
        (zero tail) or to the last explicit row's sum (repeated last row).
        The head has the bits of ``masked_row_sums``.  E is read at the
        explicit columns alone, pointwise where they reach far past their count
        (``_at_rows``), so a far column builds no long mask."""
        e = omega() if columns is None else columns
        hits = _at_rows(self._cols, e.mask, e.contains, bool)
        # |a_nk| times the mask for absolute sums that differ; the rows have no tails.
        vals = np.abs(self._vals) if absolute and not self.abs_sums_are_sums else self._vals
        head = tuple(_segment_sums(vals * hits, self._ptr).tolist())
        if self.tail_mode == "identity":
            levels = ((1.0, e), (0.0, complement(e)))
        else:
            levels = ((head[-1] if self.tail_mode == "repeat_last" else 0.0, omega()),)

        def row_sum(n: int) -> float:
            if n < len(head):
                return head[n]
            return float(e.contains(n)) if self.tail_mode == "identity" else levels[0][0]

        return SumStructure(levels, None, row_sum, head)

    def _explicit_row(self, n: int) -> MatrixRow:
        p, q = self._ptr[n], self._ptr[n + 1]
        return MatrixRow(self._cols[p:q], self._vals[p:q])

    def _row(self, n: int) -> MatrixRow:
        n_explicit = self._ptr.size - 1
        if n < n_explicit:
            return self._explicit_row(n)
        if self.tail_mode == "identity":
            return MatrixRow(np.array([n], dtype=np.int64), np.array([1.0]))
        if self.tail_mode == "zero":
            return _EMPTY_ROW
        return self._explicit_row(n_explicit - 1)

    def _gather(self, horizon: int):
        """The explicit rows below the horizon, then the tail rows in closed form."""
        n_explicit = self._ptr.size - 1
        pattern = self._explicit_row(n_explicit - 1) if self.tail_mode == "repeat_last" else _EMPTY_ROW
        tail_len = 1 if self.tail_mode == "identity" else pattern.indices.size
        n_tail = max(horizon - n_explicit, 0)
        if tail_len:  # past this many tail rows the support has passed the limit
            n_tail = min(n_tail, _FLAT_NNZ_LIMIT + 1)
        lengths = np.concatenate(
            (np.diff(self._ptr[: min(horizon, n_explicit) + 1]), np.full(n_tail, tail_len, dtype=np.int64))
        )
        rows = _gathered_rows(lengths)
        k, n_tail = min(rows, n_explicit), max(rows - n_explicit, 0)
        nnz = int(self._ptr[k])
        if self.tail_mode == "identity":
            tail_idx, tail_val = np.arange(k, rows, dtype=np.int64), np.ones(n_tail)
        else:
            tail_idx, tail_val = np.tile(pattern.indices, n_tail), np.tile(pattern.values, n_tail)
        idx = np.concatenate((self._cols[:nnz], tail_idx))
        val = np.concatenate((self._vals[:nnz], tail_val))
        return idx, val, _pointers(lengths[:rows]), np.zeros(rows)


class _SumMatrix(InfiniteMatrix):
    def __init__(self, a: InfiniteMatrix, b: InfiniteMatrix):
        bound = None
        if a.norm_bound is not None and b.norm_bound is not None:
            bound = a.norm_bound + b.norm_bound
        nonneg = True if (a.nonnegative and b.nonnegative) else None
        super().__init__(f"({a.label}+{b.label})", norm_bound=bound, nonnegative=nonneg)
        self.a, self.b = a, b
        self._row_finite = a._row_finite and b._row_finite

    @property
    def abs_sums_are_sums(self) -> bool:
        return self.a.abs_sums_are_sums and self.b.abs_sums_are_sums

    def masked_sum_structure(self, columns: SetDescription | None, absolute: bool = False) -> SumStructure | None:
        """The operands' structures added, as the bulk path adds their sums.

        Two sets of levels give v_a + v_b on the intersections of their level
        sets, after the longer of the two heads; two limits add; levels and a
        limit L give the levels v + L, limits along their sets, for which a
        head says nothing.  Absolute sums that read the entries state none.
        """
        if absolute and not self.abs_sums_are_sums:
            return None
        sa, sb = self.a.masked_sum_structure(columns), self.b.masked_sum_structure(columns)
        if sa is None or sb is None:
            return None
        limit = None if sa.limit is None or sb.limit is None else sa.limit + sb.limit

        def row_sum(n: int) -> float:
            return sa.row_sum(n) + sb.row_sum(n)

        if sa.levels is None and sb.levels is None:
            return SumStructure(None, limit, row_sum)
        if sa.levels is not None and sb.levels is not None:
            levels = tuple((va + vb, _meet(ea, eb)) for va, ea in sa.levels for vb, eb in sb.levels)
            along = sa.levels_are_limits or sb.levels_are_limits
        else:
            leveled, other = (sa, sb) if sa.levels is not None else (sb, sa)
            levels, along = tuple((v + other.limit, e) for v, e in leveled.levels), True
        head = () if along else tuple(map(row_sum, range(max(len(sa.head), len(sb.head)))))
        return SumStructure(levels, limit, row_sum, head, along)

    def _row(self, n: int) -> MatrixRow:
        ra, rb = self.a.row(n), self.b.row(n)
        return _merged_row(
            np.concatenate((ra.indices, rb.indices)),
            np.concatenate((ra.values, rb.values)),
            ra.tail_bound + rb.tail_bound,
        )

    def max_support(self, horizon: int) -> int:
        return max(self.a.max_support(horizon), self.b.max_support(horizon))

    def _apply(self, read: Callable[[np.ndarray], np.ndarray], horizon: int) -> np.ndarray:
        return self.a._apply(read, horizon) + self.b._apply(read, horizon)


class _ScaledMatrix(InfiniteMatrix):
    def __init__(self, c: float, a: InfiniteMatrix):
        """c·A, whose norm bound is |c|·‖A‖ rounded up by ``_SCALED_NORM_SLACK``.

        Where c < 0 its absolute row sums read the entries: each row adds the
        rounded |c·a_nk|, each up to one unit of roundoff over its exact
        value, and numpy's pairwise sum of m of them errs by at most about
        (log₂ m + 11) units of the sum.  So the sums can pass |c|·‖A‖ itself
        (−0.3·Cesàro reaches 0.30000000000000016, 3 ulps over 0.3), and no
        fixed number of ``math.nextafter`` steps covers every c; the slack
        covers any row that fits in memory, and the rounding of the bound.
        """
        bound = abs(c) * a.norm_bound * (1.0 + _SCALED_NORM_SLACK) if a.norm_bound is not None else None
        nonneg = True if (a.nonnegative and c >= 0) else None
        super().__init__(f"{c}*{a.label}", norm_bound=bound, nonnegative=nonneg)
        self.c, self.a = float(c), a
        self._row_finite = a._row_finite

    @property
    def abs_sums_are_sums(self) -> bool:
        return bool(self.nonnegative) and self.a.abs_sums_are_sums

    def masked_sum_structure(self, columns: SetDescription | None, absolute: bool = False) -> SumStructure | None:
        """A's structure times c: the values c·v, the limit c·L and the head
        c·s_n, as the bulk path scales A's sums.  Absolute sums that read the
        entries (c < 0, or signed A) state none."""
        if absolute and not self.abs_sums_are_sums:
            return None
        s, c = self.a.masked_sum_structure(columns), self.c
        if s is None:
            return None
        return SumStructure(
            None if s.levels is None else tuple((c * v, e) for v, e in s.levels),
            None if s.limit is None else c * s.limit,
            lambda n: c * s.row_sum(n),
            tuple(c * v for v in s.head),
            s.levels_are_limits,
        )

    def _row(self, n: int) -> MatrixRow:
        r = self.a.row(n)
        return MatrixRow(r.indices, self.c * r.values, abs(self.c) * r.tail_bound)

    def max_support(self, horizon: int) -> int:
        return self.a.max_support(horizon)

    def _apply(self, read: Callable[[np.ndarray], np.ndarray], horizon: int) -> np.ndarray:
        return self.c * self.a._apply(read, horizon)


class _ComposedMatrix(InfiniteMatrix):
    """B·A for row-finite B: row n of BA = sum_j b_nj * (row j of A)."""

    def __init__(self, b: InfiniteMatrix, a: InfiniteMatrix):
        bound = None
        if a.norm_bound is not None and b.norm_bound is not None:
            bound = a.norm_bound * b.norm_bound
        nonneg = True if (a.nonnegative and b.nonnegative) else None
        super().__init__(f"({b.label}.{a.label})", norm_bound=bound, nonnegative=nonneg)
        self.b, self.a = b, a
        self._row_finite = a._row_finite and b._row_finite
        self._probe()

    @property
    def abs_sums_are_sums(self) -> bool:
        # A diagonal factor whose rule may hold −0.0 would carry it into the
        # product's values on the operand path.
        return bool(self.nonnegative) and self.a.abs_sums_are_sums and self.b.abs_sums_are_sums

    def masked_sum_structure(self, columns: SetDescription | None, absolute: bool = False) -> SumStructure | None:
        """Where one factor selects rows and B acts on A's values at every
        horizon (``_on_values``), so that the product's sums are B applied to
        A's sums, bit for bit.

        rk(h)·A sums row n as A sums row h(n): A's level sets pulled back by
        h, A's limit (an affine h is injective), and A's head rows read at the
        n with h(n) below its length.  B·rk(h) sums over E as B sums over
        h⁻¹(E).  Other products, and absolute sums that read the entries,
        state none.
        """
        if (absolute and not self.abs_sums_are_sums) or not self._on_values():
            return None
        e = omega() if columns is None else columns
        h = self.b.row_selection()
        if h is None:
            g = self.a.row_selection()
            return None if g is None else self.b.masked_sum_structure(preimage(e, g))
        s = self.a.masked_sum_structure(e)
        if s is None:
            return None
        (mul, add), head = h.affine, len(s.head)
        return SumStructure(
            None if s.levels is None else tuple((v, preimage(level, h)) for v, level in s.levels),
            s.limit,
            lambda n: s.row_sum(h(n)),
            tuple(s.row_sum(h(n)) for n in range(max(0, -(-(head - add) // mul)))),
            s.levels_are_limits,
        )

    def _on_values(self) -> bool:
        """Whether B acts on A's values at every horizon, which
        ``_left_support`` then grants without a look at the horizon: B is
        Cesàro or diagonal (columns below the horizon), or selects rows by
        n ↦ mul·n + add with mul and add + 1 at most ``_SPARSE_IMAGE_FACTOR``,
        whose columns stay below that factor times every horizon."""
        if isinstance(self.b, (_CesaroMatrix, _DiagonalMatrix)):
            return True
        h = self.b.row_selection()
        if h is None or h.affine is None:
            return False
        mul, add = h.affine
        return mul <= _SPARSE_IMAGE_FACTOR and add < _SPARSE_IMAGE_FACTOR

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

    def _left_support(self, horizon: int) -> int | None:
        """``b.max_support(horizon)`` where B may act on A's values in place of
        the product's CSR, else None.

        B must be known row-finite, or a tail that the row path rejects would
        pass unseen, and its columns must reach no further than
        ``_SPARSE_IMAGE_FACTOR`` times the horizon (a sparse image, such as
        rk(enumeration(squares))), or A would be read on a longer prefix than
        the CSR path reads.  Where ``_on_values`` holds, B acts on A's values
        at this horizon too, as the product's sum structure assumes.
        """
        if self._on_values():
            return self.b.max_support(horizon)
        if not self.b._row_finite:
            return None
        support = self.b.max_support(horizon)
        return support if support <= _SPARSE_IMAGE_FACTOR * horizon else None

    def max_support(self, horizon: int) -> int:
        """A's support over the rows below B's: at least the product's own,
        and what ``_apply`` reads."""
        support = self._left_support(horizon)
        return super().max_support(horizon) if support is None else self.a.max_support(support)

    def _apply(self, read: Callable[[np.ndarray], np.ndarray], horizon: int) -> np.ndarray:
        support = self._left_support(horizon)
        if support is None:
            return super()._apply(read, horizon)
        return self.b._apply(self.a._apply(read, support).__getitem__, horizon)


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


def transform(a: InfiniteMatrix, x: BoundedSequence, n: int) -> float:
    """(A x)_n over the stored support, compensated; error is at most tail * bound.

    The reference that tests compare the bulk path (``transform_prefix``)
    against; nothing in the program reads A·x through it."""
    r = a.row(n)
    return math.fsum(v * x.fn(int(k)) for k, v in zip(r.indices.tolist(), r.values.tolist()))


def norm_estimate(a: InfiniteMatrix, horizon: int) -> tuple[float, bool]:
    """(sup of row absolute sums below the horizon, certified?).

    The flag is true only when the matrix carries a declared global bound; a
    finite-horizon sup alone never certifies membership in the bounded class.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    return float(np.max(a.row_sums(horizon, absolute=True))), a.norm_bound is not None


def find_negative_entry(a: InfiniteMatrix, horizon: int) -> tuple[int, int, float] | None:
    """First (row, column, value) with a negative entry below the horizon, if any."""
    if a.nonnegative:
        return None
    idx, val, ptr, _ = a._flat(horizon)
    neg = np.flatnonzero(val < 0.0)
    if neg.size:
        j = int(neg[0])
        return int(np.searchsorted(ptr, j, side="right")) - 1, int(idx[j]), float(val[j])
    for n, r in a._rows_past(ptr, horizon):
        neg = np.flatnonzero(r.values < 0.0)
        if neg.size:
            j = int(neg[0])
            return n, int(r.indices[j]), float(r.values[j])
    return None
