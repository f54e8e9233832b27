"""Total maps ω → ω used as Rudin–Keisler witnesses and matrix row selectors."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sets import SetDescription

__all__ = ["IndexMap", "identity_map", "affine_map", "enumeration_map"]


@dataclass(frozen=True, eq=False)
class IndexMap:
    """A deterministic total map h: ω → ω with declared structural flags."""

    fn: Callable[[int], int]
    label: str
    injective: bool = False

    def __call__(self, n: int) -> int:
        return int(self.fn(n))

    def prefix(self, horizon: int) -> np.ndarray:
        """Values ``h(0), …, h(horizon−1)`` as an int64 array."""
        return np.fromiter((self.fn(n) for n in range(horizon)), dtype=np.int64, count=horizon)

    def validate_flags(self, horizon: int = 10_000) -> None:
        """Check the declared flags on a prefix; raises on a counterexample."""
        values = self.prefix(horizon)
        if np.any(values < 0):
            raise ValueError(f"{self.label}: negative value on prefix")
        if self.injective and len(np.unique(values)) != horizon:
            raise ValueError(f"{self.label}: declared injective but repeats a value")


def identity_map() -> IndexMap:
    return IndexMap(lambda n: n, "identity", injective=True)


def affine_map(mul: int, add: int = 0) -> IndexMap:
    if mul < 1 or add < 0:
        raise ValueError("need mul >= 1 and add >= 0")
    return IndexMap(lambda n: mul * n + add, f"n -> {mul}*n+{add}", injective=True)


def enumeration_map(target: SetDescription, label: str | None = None) -> IndexMap:
    """The increasing enumeration ``n -> t_n`` of an infinite set.

    Elements are discovered lazily by doubling the enumeration horizon, so the
    map stays cheap for structured sets while remaining total for any infinite
    description.
    """
    cache: list[int] = []
    lock = threading.Lock()  # for callers that share the map across threads
    state = {"horizon": 1024}

    def fn(n: int) -> int:
        with lock:
            while len(cache) <= n:
                horizon = state["horizon"]
                found = target.enumerate_prefix(horizon)
                if len(found) > len(cache):
                    cache.clear()
                    cache.extend(found)
                if len(cache) <= n:
                    state["horizon"] = horizon * 2
                    if state["horizon"] > 2**40:
                        raise RuntimeError("enumeration horizon exhausted; set looks finite")
            return cache[n]

    return IndexMap(fn, label or "enumeration", injective=True)
