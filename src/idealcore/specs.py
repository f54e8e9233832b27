"""The one decoder of outside JSON: sets, ideals, index maps, matrices, test
families and suite configs.

Each kind has a single ``parse_*`` function, and every error it finds is a
:class:`ConfigError` whose ``path`` names the offending field, e.g.
``config.matrices[1].map.set.step``.  Integer fields take integers (an
integral float or a numeric string reads as its integer), never a number with
a fractional part; numeric fields take finite numbers.  The encoders
(``sets.set_to_dict``, ``ideals.ideal_to_dict``) live beside their types,
since they never see outside input.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from . import ideals as ide
from . import maps
from . import matrices as mat
from . import sets as sd
from .constructions import perturb_identity
from .asymptotics import CoreConfig
from .records import record
from .regularity import CHECKS, CheckConfig, TestFamily

__all__ = [
    "ConfigError",
    "parse_set",
    "parse_ideal",
    "parse_index_map",
    "parse_matrix",
    "parse_family",
    "ExperimentConfig",
    "parse_experiment_config",
]


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(obj: dict, key: str, path: str, default=None) -> Any:
    """``obj[key]``; when absent, ``default``, or an error if there is none."""
    if key in obj:
        return obj[key]
    if default is None:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return default


def _integral(raw) -> int:
    """``int(raw)``, except that a number with a fractional part is a ValueError
    (``int`` would truncate 1.7 to 1)."""
    if isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"{raw!r} is not an integer")
    return int(raw)


def _convert(raw, path: str, convert=float):
    """``convert(raw)``; a value it rejects, or a non-finite one, is a
    :class:`ConfigError` at ``path``."""
    try:
        value = convert(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        kind = "an integer" if convert is _integral else "a number"
        raise ConfigError(path, f"must be {kind}, got {raw!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, f"must be finite, got {raw!r}")
    return value


def _number(obj: dict, key: str, path: str, convert=float, default=None):
    """``_require(obj, key, path, default)`` through :func:`_convert`; ``convert``
    is ``float`` or ``_integral``."""
    return _convert(_require(obj, key, path, default), f"{path}.{key}", convert)


def _integers(obj: dict, path: str, *keys: str) -> tuple[int, ...]:
    return tuple(_number(obj, key, path, _integral) for key in keys)


def _list(obj: dict, key: str, path: str, default=None) -> list | tuple:
    """``_require(obj, key, path, default)``, which must be a list."""
    raw = _require(obj, key, path, default)
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{path}.{key}", f"must be a list, got {raw!r}")
    return raw


def _kind(obj: Any, path: str, not_an_object: str) -> str:
    """The ``type`` of an object spec; ``not_an_object`` is the error for anything else."""
    if not isinstance(obj, dict):
        raise ConfigError(path, not_an_object)
    kind = _require(obj, "type", path)
    if not isinstance(kind, str):
        raise ConfigError(f"{path}.type", f"must be a string, got {kind!r}")
    return kind


def _build(make, path: str, *args):
    """``make(*args)``; a ValueError it raises is a :class:`ConfigError` at ``path``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


_SET_PAIRS = {"union": sd.Union, "intersection": sd.Intersection, "difference": sd.Difference}


def parse_set(obj: Any, path: str = "set") -> sd.SetDescription:
    kind = _kind(obj, path, "set spec must be an object")
    if kind in ("arithmetic_progression", "ap"):
        return _build(sd.ArithmeticProgression, path, *_integers(obj, path, "offset", "step"))
    if kind == "explicit":
        elements = _list(obj, "elements", path)
        return _build(
            sd.Explicit,
            f"{path}.elements",
            tuple(_convert(e, f"{path}.elements[{i}]", _integral) for i, e in enumerate(elements)),
        )
    if kind == "squares":
        return sd.Squares()
    if kind == "blocks":
        intervals = []
        for i, iv in enumerate(_list(obj, "intervals", path)):
            at = f"{path}.intervals[{i}]"
            if not isinstance(iv, (list, tuple)) or len(iv) != 2:
                raise ConfigError(at, f"must be a [lo, hi] pair, got {iv!r}")
            intervals.append(tuple(_convert(b, f"{at}[{j}]", _integral) for j, b in enumerate(iv)))
        return _build(sd.Blocks, f"{path}.intervals", tuple(intervals))
    if kind == "geometric_blocks":
        return _build(sd.GeometricBlocks, path, *_integers(obj, path, "base", "residue", "modulus"))
    if kind == "root_blocks":
        return _build(sd.RootBlocks, path, *_integers(obj, path, "residue", "modulus"))
    if kind in _SET_PAIRS:
        left = parse_set(_require(obj, "left", path), f"{path}.left")
        return _SET_PAIRS[kind](left, parse_set(_require(obj, "right", path), f"{path}.right"))
    if kind == "complement":
        return sd.complement(parse_set(_require(obj, "of", path), f"{path}.of"))
    raise ConfigError(f"{path}.type", f"unknown set type {kind!r}")


# Ideal names, accepted wherever an ideal spec is; a name that stands for a bare
# type (such as "z") is accepted as that ideal's "type" too.
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


# The fields each ideal type reads; a spec with any other field is refused.
_IDEAL_FIELDS = {
    "fin": ("type",),
    "density_zero": ("type",),
    "erdos_ulam": ("type", "weights"),
    "summable": ("type", "weights", "cutoff"),
    "fin_oplus_full": ("type", "trace"),
    "countably_generated": ("type", "generators"),
    "fin_times_empty": ("type",),
}
# The one weight sequence of each weighted ideal type.
_WEIGHTS = {cls.kind: cls.weights for cls in (ide.ErdosUlamIdeal, ide.SummableIdeal)}


def parse_ideal(obj: Any, path: str = "ideal") -> ide.Ideal:
    if isinstance(obj, str):
        key = obj.strip().lower().replace("-", "_")
        if key not in _IDEAL_SHORTHAND:
            raise ConfigError(path, f"unknown ideal name {obj!r}; known: {sorted(_IDEAL_SHORTHAND)}")
        obj = _IDEAL_SHORTHAND[key]
    kind = _kind(obj, path, "ideal spec must be a name or an object")
    if "theta" in obj:
        raise ConfigError(f"{path}.theta", "theta is a run setting, not part of an ideal: set cfg.theta or --theta")
    if _IDEAL_SHORTHAND.get(kind, {}).keys() == {"type"}:
        kind = _IDEAL_SHORTHAND[kind]["type"]
    fields = _IDEAL_FIELDS.get(kind)
    if fields is None:
        raise ConfigError(f"{path}.type", f"unknown ideal type {kind!r}")
    for key in obj:
        if key not in fields:
            raise ConfigError(f"{path}.{key}", f"unknown field; {kind} ideals read only: {', '.join(fields)}")
    if "weights" in obj and obj["weights"] != _WEIGHTS[kind]:
        raise ConfigError(f"{path}.weights", f"must be {_WEIGHTS[kind]!r}, got {obj['weights']!r}")
    if kind == "fin":
        return ide.fin()
    if kind == "density_zero":
        return ide.density_zero()
    if kind == "erdos_ulam":
        return ide.erdos_ulam()
    if kind == "summable":
        return _build(ide.summable, f"{path}.cutoff", _number(obj, "cutoff", path, float, ide.SUMMABLE_CUTOFF))
    if kind == "fin_oplus_full":
        trace = parse_set(_require(obj, "trace", path), f"{path}.trace")
        return _build(ide.fin_oplus_full, f"{path}.trace", trace)
    if kind == "countably_generated":
        generators = [
            parse_set(g, f"{path}.generators[{i}]") for i, g in enumerate(_list(obj, "generators", path, ()))
        ]
        return _build(ide.countably_generated, f"{path}.generators", generators)
    return ide.fin_times_empty()  # the one type left


def parse_index_map(obj: Any, path: str = "map") -> maps.IndexMap:
    kind = _kind(obj, path, "index map spec must be an object")
    if kind == "identity":
        return maps.identity_map()
    if kind == "affine":
        mul, add = _number(obj, "mul", path, _integral), _number(obj, "add", path, _integral, 0)
        return _build(maps.affine_map, path, mul, add)
    if kind == "enumeration":
        target = f"{path}.set"
        return _build(maps.enumeration_map, target, parse_set(_require(obj, "set", path), target))
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
    kind = _kind(obj, path, "matrix spec must be a name or an object")
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
        parsed_rows = []
        for i, row in enumerate(_list(obj, "rows", path)):
            try:
                parsed_rows.append([(_integral(k), float(v)) for k, v in row])
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


def parse_family(obj: Any, path: str = "family") -> TestFamily:
    """A test family: lists of set specs ``sets_in_ideal``, ``sets_positive`` and
    ``sets_infinite``, each optional."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "family spec must be an object")
    slots = ("sets_in_ideal", "sets_positive", "sets_infinite")
    return TestFamily(
        *(tuple(parse_set(s, f"{path}.{key}[{i}]") for i, s in enumerate(_list(obj, key, path, ()))) for key in slots)
    )


@record(frozen=True)
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

    def check_config(self) -> CheckConfig:
        return CheckConfig(horizon=self.check_horizon, tol=self.tol, theta=self.theta, grid=self.grid, seed=self.seed)

    def core_config(self) -> CoreConfig:
        return CoreConfig(horizon=self.core_horizon, grid=self.grid, theta=self.theta)

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
    config = ExperimentConfig(
        matrices=tuple(matrices),
        ideal_pairs=tuple((p[0], p[1]) for p in pairs),
        theorems=tuple(theorems),
        corpus_labels=tuple(labels),
        core_equality=core_equality,
        check_horizon=_number(cfg, "check_horizon", "config.cfg", _integral, default_horizon or 10_000),
        core_horizon=_number(cfg, "core_horizon", "config.cfg", _integral, default_horizon or 100_000),
        tol=_number(cfg, "tol", "config.cfg", float, 1e-2),
        grid=_number(cfg, "grid", "config.cfg", float, 1e-2),
        theta=_number(cfg, "theta", "config.cfg", float, ide.DEFAULT_THETA),
        seed=_number(cfg, "seed", "config.cfg", _integral, 0),
    )
    try:  # the configs the suite runs on hold the rules for its settings
        config.check_config().core_config()
        config.core_config()
    except ValueError as exc:
        raise ConfigError("config.cfg", str(exc)) from None
    return config
