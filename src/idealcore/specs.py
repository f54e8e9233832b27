"""Parsing of JSON specs for sets, ideals, index maps, matrices, and suite configs.

Every parse error is reported as a :class:`ConfigError` carrying the path of
the offending field (e.g. ``matrices[1].map.set.step``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import ideals as ide
from . import maps
from . import matrices as mat
from . import sets as sd
from .constructions import perturb_identity
from .regularity import CHECKS

__all__ = [
    "ConfigError",
    "parse_set",
    "parse_ideal",
    "parse_index_map",
    "parse_matrix",
    "ExperimentConfig",
    "parse_experiment_config",
]


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return obj[key]


def _number(obj: dict, key: str, path: str, convert=float, default=None):
    """``convert(obj[key])`` (``default`` when absent, if given); a missing required
    field or a non-number or non-finite number is a :class:`ConfigError` at ``path.key``."""
    raw = _require(obj, key, path) if default is None else obj.get(key, default)
    try:
        value = convert(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.{key}", f"must be a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}", f"must be finite, got {raw!r}")
    return value


def parse_set(obj: Any, path: str = "set") -> sd.SetDescription:
    if not isinstance(obj, dict):
        raise ConfigError(path, "set spec must be an object")
    try:
        return sd.set_from_dict(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


_IDEAL_SHORTHAND = {
    "fin": {"type": "fin"},
    "z": {"type": "density_zero"},
    "density_zero": {"type": "density_zero"},
    "erdos_ulam_log": {"type": "erdos_ulam", "weights": "log"},
    "summable_harmonic": {"type": "summable"},
    "fin_oplus_evens": {
        "type": "fin_oplus_full",
        "trace": {"type": "arithmetic_progression", "offset": 0, "step": 2},
    },
    "fin_times_empty": {"type": "fin_times_empty"},
}


def parse_ideal(obj: Any, path: str = "ideal") -> ide.Ideal:
    if isinstance(obj, str):
        key = obj.strip().lower().replace("-", "_")
        if key not in _IDEAL_SHORTHAND:
            raise ConfigError(path, f"unknown ideal name {obj!r}; known: {sorted(_IDEAL_SHORTHAND)}")
        obj = _IDEAL_SHORTHAND[key]
    if not isinstance(obj, dict):
        raise ConfigError(path, "ideal spec must be a name or an object")
    try:
        return ide.ideal_from_dict(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_index_map(obj: Any, path: str = "map") -> maps.IndexMap:
    if not isinstance(obj, dict):
        raise ConfigError(path, "index map spec must be an object")
    kind = obj.get("type")
    if kind == "identity":
        return maps.identity_map()
    if kind == "affine":
        try:
            return maps.affine_map(int(_require(obj, "mul", path)), int(obj.get("add", 0)))
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    if kind == "enumeration":
        return maps.enumeration_map(parse_set(_require(obj, "set", path), f"{path}.set"))
    raise ConfigError(f"{path}.type", f"unknown index map type {kind!r}")


def _parse_diagonal_values(obj: Any, path: str):
    """(entry function, array rule or None, norm bound) of a diagonal values spec."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "diagonal values spec must be an object")
    kind = obj.get("kind")
    if kind == "constant":
        value = _number(obj, "value", path)
        return (lambda n: value), (lambda horizon: np.full(horizon, value)), abs(value)
    if kind == "geometric":
        ratio = _number(obj, "ratio", path)
        if not 0 <= abs(ratio) <= 1:
            raise ConfigError(f"{path}.ratio", "ratio must lie in [-1, 1] for a bounded matrix")
        # No array rule: ratio ** np.arange(H) can differ from ratio**n in the last ulp.
        return (lambda n: ratio**n), None, 1.0
    if kind == "harmonic":
        return (lambda n: 1.0 / (n + 1.0)), (lambda horizon: 1.0 / (np.arange(horizon) + 1.0)), 1.0
    raise ConfigError(f"{path}.kind", f"unknown diagonal kind {kind!r}")


def parse_matrix(obj: Any, path: str = "matrix") -> mat.InfiniteMatrix:
    if isinstance(obj, str):
        key = obj.strip().lower()
        if key not in ("cesaro", "identity", "zero"):
            raise ConfigError(path, f"unknown matrix name {obj!r}; known: cesaro, identity, zero")
        obj = {"type": key}
    if not isinstance(obj, dict):
        raise ConfigError(path, "matrix spec must be a name or an object")
    kind = obj.get("type")
    if kind == "cesaro":
        return mat.cesaro()
    if kind == "identity":
        return mat.identity()
    if kind == "zero":
        return mat.zero_matrix()
    if kind == "scaled_identity":
        return mat.scalar_mul(_number(obj, "factor", path), mat.identity())
    if kind == "diagonal":
        values, rule, bound = _parse_diagonal_values(_require(obj, "values", path), f"{path}.values")
        return mat.diagonal(values, label="Diagonal", norm_bound=bound, rule=rule)
    if kind == "rk":
        return mat.rk_matrix(parse_index_map(_require(obj, "map", path), f"{path}.map"))
    if kind == "banded":
        rows = _require(obj, "rows", path)
        if not isinstance(rows, list):
            raise ConfigError(f"{path}.rows", "must be a list of rows")
        parsed_rows = []
        for i, row in enumerate(rows):
            try:
                parsed_rows.append([(int(k), float(v)) for k, v in row])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}.rows[{i}]", f"row must be [[col, value], ...]: {exc}") from exc
        tail = obj.get("tail", "identity")
        try:
            return mat.banded(parsed_rows, tail_mode=tail)
        except mat.BandedRowError as exc:
            raise ConfigError(f"{path}.rows[{exc.row}]", exc.reason) from exc
        except ValueError as exc:
            raise ConfigError(f"{path}.tail", str(exc)) from exc
    if kind == "sum":
        terms = _require(obj, "terms", path)
        if not isinstance(terms, list) or len(terms) < 2:
            raise ConfigError(f"{path}.terms", "need at least two terms")
        out = parse_matrix(terms[0], f"{path}.terms[0]")
        for i, term in enumerate(terms[1:], start=1):
            out = mat.matrix_sum(out, parse_matrix(term, f"{path}.terms[{i}]"))
        return out
    if kind == "scaled":
        return mat.scalar_mul(_number(obj, "factor", path), parse_matrix(_require(obj, "of", path), f"{path}.of"))
    if kind == "compose":
        left = parse_matrix(_require(obj, "left", path), f"{path}.left")
        right = parse_matrix(_require(obj, "right", path), f"{path}.right")
        try:
            return mat.compose(left, right)
        except mat.ComposeUnsupportedError as exc:
            raise ConfigError(path, str(exc)) from exc
    if kind == "perturb_identity":
        return perturb_identity(parse_matrix(_require(obj, "of", path), f"{path}.of"))
    raise ConfigError(f"{path}.type", f"unknown matrix type {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved suite configuration; identical configs give identical reports."""

    matrices: tuple[Any, ...]
    ideal_pairs: tuple[tuple[Any, Any], ...]
    theorems: tuple[str, ...]
    corpus_labels: tuple[str, ...]
    core_equality: bool
    check_horizon: int
    core_horizon: int
    tol: float
    grid: float
    theta: float
    seed: int

    def resolved(self) -> dict:
        return {
            "matrices": list(self.matrices),
            "ideal_pairs": [list(p) for p in self.ideal_pairs],
            "theorems": list(self.theorems),
            "corpus_labels": list(self.corpus_labels),
            "core_equality": self.core_equality,
            "cfg": {
                "check_horizon": self.check_horizon,
                "core_horizon": self.core_horizon,
                "tol": self.tol,
                "grid": self.grid,
                "theta": self.theta,
                "seed": self.seed,
            },
        }


def parse_experiment_config(obj: Any, default_horizon: int | None = None) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config", "must be a JSON object")
    matrices = obj.get("matrices", [])
    if not isinstance(matrices, list) or not matrices:
        raise ConfigError("config.matrices", "need a nonempty list of matrix specs")
    for i, m in enumerate(matrices):
        parse_matrix(m, f"config.matrices[{i}]")
    pairs = obj.get("ideal_pairs", [])
    if not isinstance(pairs, list) or not pairs:
        raise ConfigError("config.ideal_pairs", "need a nonempty list of [ideal_i, ideal_j] pairs")
    for i, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"config.ideal_pairs[{i}]", "must be a two-element pair")
        parse_ideal(pair[0], f"config.ideal_pairs[{i}][0]")
        parse_ideal(pair[1], f"config.ideal_pairs[{i}][1]")
    theorems = obj.get("theorems", [])
    if not isinstance(theorems, list):
        raise ConfigError("config.theorems", "must be a list")
    for i, t in enumerate(theorems):
        if t not in CHECKS:
            raise ConfigError(f"config.theorems[{i}]", f"unknown theorem {t!r}; known: {tuple(CHECKS)}")
    core_equality = bool(obj.get("core_equality", False))
    if not theorems and not core_equality:
        raise ConfigError("config", "nothing to run: no theorems and core_equality is false")
    labels = obj.get("corpus_labels", ["all"])
    if not isinstance(labels, list) or not labels:
        raise ConfigError("config.corpus_labels", "must be a nonempty list of labels")
    cfg = obj.get("cfg", {})
    if not isinstance(cfg, dict):
        raise ConfigError("config.cfg", "must be an object")
    check_horizon = _number(cfg, "check_horizon", "config.cfg", int, default_horizon or 10_000)
    core_horizon = _number(cfg, "core_horizon", "config.cfg", int, default_horizon or 100_000)
    if check_horizon < 100 or core_horizon < 100:
        raise ConfigError("config.cfg", "horizons must be at least 100")
    return ExperimentConfig(
        matrices=tuple(matrices),
        ideal_pairs=tuple((p[0], p[1]) for p in pairs),
        theorems=tuple(theorems),
        corpus_labels=tuple(labels),
        core_equality=core_equality,
        check_horizon=check_horizon,
        core_horizon=core_horizon,
        tol=_number(cfg, "tol", "config.cfg", float, 1e-2),
        grid=_number(cfg, "grid", "config.cfg", float, 1e-2),
        theta=_number(cfg, "theta", "config.cfg", float, ide.DEFAULT_THETA),
        seed=_number(cfg, "seed", "config.cfg", int, 0),
    )
