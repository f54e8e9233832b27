"""Total maps ω → ω used as Rudin–Keisler witnesses and matrix row selectors.

``IndexMap.prefix`` is the one way to materialize ``h(0) … h(H-1)``.  The
identity and affine maps carry closed-form array rules, and an enumeration map
slices the int64 array of the elements it has discovered.  A map built from a
bare callable takes the scalar path, ``fn`` per index.

``affine = (mul, add)`` declares h(n) = mul·n + add.  The identity and the
affine maps carry it, and so does the enumeration of an arithmetic
progression, which is the affine map n -> step·n + offset under the
enumeration's label; ``sets.preimage`` reads it to pull sets back along h
exactly.  A row-selection matrix reads x at the values of its map's prefix
(``BoundedSequence.at``), so a map's prefix is all of the map that A·x reads.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .records import field, record
from .sets import ArithmeticProgression, Cardinality, SetDescription, _distinct

__all__ = ["IndexMap", "identity_map", "affine_map", "enumeration_map"]


@record(frozen=True, eq=False)
class IndexMap:
    """A deterministic total map h: ω → ω with declared structural flags.

    ``rule``, when given, maps a horizon H to the int64 array ``h(0) … h(H-1)``
    and must agree with ``fn``.  ``affine``, when given, is ``(mul, add)`` with
    h(n) = mul·n + add, mul >= 1 and add >= 0.
    """

    fn: Callable[[int], int]
    label: str
    injective: bool = False
    affine: tuple[int, int] | None = None
    rule: Callable[[int], np.ndarray] | None = field(default=None, repr=False)

    def __call__(self, n: int) -> int:
        return int(self.fn(n))

    def prefix(self, horizon: int) -> np.ndarray:
        """Values ``h(0), …, h(horizon−1)`` as an int64 array."""
        if self.rule is not None:
            return self.rule(horizon)
        return np.fromiter((self.fn(n) for n in range(horizon)), dtype=np.int64, count=horizon)

    def validate_flags(self, horizon: int = 10_000) -> None:
        """Check the declared flags on a prefix; raises on a counterexample."""
        values = self.prefix(horizon)
        if np.any(values < 0):
            raise ValueError(f"{self.label}: negative value on prefix")
        if self.injective and len(_distinct(values)) != horizon:
            raise ValueError(f"{self.label}: declared injective but repeats a value")
        if self.affine is not None:
            mul, add = self.affine
            if not np.array_equal(values, mul * np.arange(horizon, dtype=np.int64) + add):
                raise ValueError(f"{self.label}: declared affine {self.affine} but differs on prefix")


def identity_map() -> IndexMap:
    return IndexMap(
        lambda n: n, "identity", injective=True, affine=(1, 0),
        rule=lambda horizon: np.arange(horizon, dtype=np.int64),
    )


def affine_map(mul: int, add: int = 0) -> IndexMap:
    if mul < 1 or add < 0:
        raise ValueError("need mul >= 1 and add >= 0")
    return _affine(mul, add, f"n -> {mul}*n+{add}")


def _affine(mul: int, add: int, label: str) -> IndexMap:
    return IndexMap(
        lambda n: mul * n + add,
        label,
        injective=True,
        affine=(mul, add),
        rule=lambda horizon: mul * np.arange(horizon, dtype=np.int64) + add,
    )


def enumeration_map(target: SetDescription, label: str | None = None) -> IndexMap:
    """The increasing enumeration ``n -> t_n`` of an infinite set.

    The enumeration of an arithmetic progression is the affine map
    ``n -> step·n + offset``, with its rule and this map's label, and reads
    no set.  For any other set, elements are discovered lazily by doubling
    the enumeration horizon, so the map stays cheap for structured sets while
    remaining total for any infinite description.  The search reads
    ``enumerate_prefix`` and keeps the int64 array it returns, never a mask:
    for a sparse set such as the squares, or a union of sparse sets, the
    horizon runs far ahead of the count, and only the members found are
    stored.  A target that is provably finite is refused with ``ValueError``.
    """
    if isinstance(target, ArithmeticProgression):
        return _affine(target.step, target.offset, label or "enumeration")
    if target.cardinality() is Cardinality.FINITE:
        raise ValueError(f"enumeration target {target!r} is finite")
    state = {"horizon": 1024, "found": np.zeros(0, dtype=np.int64)}

    def first(count: int) -> np.ndarray:
        """The ``count`` smallest elements, as a read-only int64 array."""
        while len(state["found"]) < count:
            horizon = state["horizon"]
            found = target.enumerate_prefix(horizon)
            if len(found) > len(state["found"]):
                found.setflags(write=False)
                state["found"] = found
            if len(state["found"]) < count:
                state["horizon"] = horizon * 2
                if state["horizon"] > 2**40:
                    raise RuntimeError("enumeration horizon exhausted; set looks finite")
        return state["found"][:count]

    return IndexMap(lambda n: int(first(n + 1)[n]), label or "enumeration", injective=True, rule=first)
