"""The value classes: equality, hashing, reprs, immutability and identity.

These pin the semantics the classes had as dataclasses, so that the way they
are generated can change without any caller noticing.
"""

import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from idealcore import asymptotics as asy
from idealcore import constructions as con
from idealcore import harness, maps, specs
from idealcore import ideals as ide
from idealcore import matrices as mat
from idealcore import regularity as reg
from idealcore import sequences as seq
from idealcore import sets as sd

_EVENS = sd.ArithmeticProgression(0, 2)
_ODDS = sd.ArithmeticProgression(1, 2)
_H = maps.affine_map(2, 1)
_CORE = asy.CoreInterval(0.0, 1.0, "exact")
_INDICES, _VALUES = np.arange(3, dtype=np.int64), np.full(3, 1 / 3)


def _row_sum(n: int) -> float:
    return 1.0


def _halves(ns: np.ndarray) -> np.ndarray:
    return ns % 2 / 2


# Per value class, the fields of one instance in declaration order, built
# afresh on each call (leaves with identity equality are shared).
_FIELDS = {
    sd.DensityBounds: lambda: dict(lower=Fraction(1, 3), upper=Fraction(1, 2), exact=False),
    sd.ResidueForm: lambda: dict(modulus=4, residues=frozenset({0, 3}), start=2),
    sd.Explicit: lambda: dict(elements=(1, 4, 9)),
    sd.ArithmeticProgression: lambda: dict(offset=1, step=3),
    sd.Squares: lambda: dict(),
    sd.Blocks: lambda: dict(intervals=((0, 2), (5, 9))),
    sd.GeometricBlocks: lambda: dict(base=2, residue=1, modulus=3),
    sd.RootBlocks: lambda: dict(residue=0, modulus=2),
    sd.Union: lambda: dict(left=sd.ArithmeticProgression(0, 2), right=sd.Squares()),
    sd.Intersection: lambda: dict(left=sd.ArithmeticProgression(0, 2), right=sd.Squares()),
    sd.Difference: lambda: dict(left=sd.ArithmeticProgression(0, 2), right=sd.Squares()),
    sd.Complement: lambda: dict(inner=sd.Explicit((0, 5))),
    sd.Preimage: lambda: dict(inner=sd.ArithmeticProgression(0, 3), h=_H),
    sd.Hits: lambda: dict(values=_halves, lo=0.25, hi=0.75, span=(0.0, 1.0)),
    con.ExperimentRow: lambda: dict(label="x", core_x=_CORE, core_ax=_CORE, deviation=0.0),
    con.ExperimentReport: lambda: dict(
        rows=(con.ExperimentRow("x", _CORE, _CORE, 0.0),), max_deviation=0.0, worst_label="x"
    ),
    harness.ReportBundle: lambda: dict(
        items=({"status": "ok"},), resolved_config={"seed": 0}, summary={}, timings=()
    ),
    asy.CoreConfig: lambda: dict(horizon=1000, grid=0.05, theta=0.01),
    asy.ClusterSet: lambda: dict(points=((0.0, 0.0), (1.0, 1.0)), inconclusive=(), exact=True),
    asy.CoreInterval: lambda: dict(lo=-1.0, hi=2.5, method="numeric", horizon=1000, grid=0.01, theta=0.001),
    specs.ExperimentConfig: lambda: dict(
        matrices=("cesaro",), ideal_pairs=(("fin", "fin"),), theorems=("st",), corpus_labels=(),
        core_equality=False, check_horizon=1000, core_horizon=2000, tol=0.01, grid=0.01, theta=0.001, seed=3,
    ),
    mat.MatrixRow: lambda: dict(indices=_INDICES, values=_VALUES, tail_bound=0.5),
    mat.SumStructure: lambda: dict(
        levels=((1.0, sd.omega()),), limit=1.0, row_sum=_row_sum, head=(0.5, 1.0), levels_are_limits=True
    ),
    ide.ClassificationReport: lambda: dict(
        is_p_ideal=True, is_p_plus_ideal=True, is_tall=False, is_nowhere_tall=True,
        is_countably_generated=True, canonical_form="Fin",
    ),
    ide.RkResult: lambda: dict(status="witness", witness=_H, note="affine"),
    reg.CheckConfig: lambda: dict(horizon=500, tol=0.05, theta=0.002, grid=0.02, seed=7),
    reg.ConditionReport: lambda: dict(
        name="T1", ok=False, margin=0.5, details={"horizon": 500}, witness_set=_EVENS, witness_row=4,
        method="exact",
    ),
    reg.Verdict: lambda: dict(
        status=reg.Status.SATISFIED, conditions=(), witness_set=None, witness_row=None, notes=("a",),
        horizon=500, tol=0.01,
    ),
    reg.TestFamily: lambda: dict(sets_in_ideal=(sd.Explicit((1,)),), sets_positive=(_EVENS,), sets_infinite=(_ODDS,)),
}

# Fields that hold a dict or an array make these unhashable, as they were.
_UNHASHABLE = {harness.ReportBundle, mat.MatrixRow, reg.ConditionReport}
_CLASSES = list(_FIELDS)


def _build(cls):
    return cls(**_FIELDS[cls]())


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_equal_values_are_equal_records(cls):
    a, b = _build(cls), _build(cls)
    assert a is not b
    assert a == b and not a != b
    fields = _FIELDS[cls]()
    assert tuple(getattr(a, name) for name in fields) == tuple(fields.values())
    assert cls(*fields.values()) == a


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_equality_needs_the_same_type(cls):
    a = _build(cls)
    fields = _FIELDS[cls]()
    sub = type("Sub" + cls.__name__, (cls,), {})(**fields)
    assert a != sub and sub != a
    assert a != tuple(fields.values())
    if len(fields) == 1:
        assert a != next(iter(fields.values()))


@pytest.mark.parametrize("cls", [c for c in _CLASSES if c not in _UNHASHABLE], ids=lambda c: c.__name__)
def test_equal_records_hash_equal(cls):
    a, b = _build(cls), _build(cls)
    assert hash(a) == hash(b)
    # The hash is that of the tuple of fields, so sets and dicts of records
    # iterate in the same order as before.
    assert hash(a) == hash(tuple(_FIELDS[cls]().values()))
    assert len({a, b}) == 1


class _CountedHash:
    """A field value that counts how often it is hashed."""

    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 7


def test_a_frozen_record_hashes_its_fields_once():
    leaf = _CountedHash()
    node = sd.Union(leaf, sd.Squares())
    first = hash(node)
    assert [hash(node) for _ in range(3)] == [first] * 3
    assert leaf.calls == 1
    assert first == hash((leaf, sd.Squares()))


@pytest.mark.parametrize("cls", [c for c in _CLASSES if c not in _UNHASHABLE], ids=lambda c: c.__name__)
def test_a_hashed_record_equals_an_unhashed_equal_one(cls):
    hashed, fresh = _build(cls), _build(cls)
    hash(hashed)
    assert hashed == fresh and fresh == hashed
    assert len({hashed, fresh}) == 1 and hash(fresh) == hash(hashed)


_PICKLED = [
    sd.Union(sd.ArithmeticProgression(1, 3), sd.Complement(sd.Explicit((0, 5)))),
    sd.GeometricBlocks(2, 1, 3),
    asy.CoreConfig(horizon=1000, grid=0.05, theta=0.01),
    reg.CheckConfig(horizon=500, tol=0.05, theta=0.002, grid=0.02, seed=7),
    asy.CoreInterval(-1.0, 2.5, "numeric", 1000, 0.01, 0.001),
]


@pytest.mark.parametrize("value", _PICKLED, ids=lambda v: type(v).__name__)
def test_pickle_round_trips_a_record_and_its_hash(value):
    h = hash(value)  # kept on the value from here on
    again = pickle.loads(pickle.dumps(value))
    # The kept hash is not state: a process with other str hashes recomputes it.
    assert "_record_hash" not in vars(again)
    assert again == value and hash(again) == h and repr(again) == repr(value)


@pytest.mark.parametrize("cls", sorted(_UNHASHABLE, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_records_holding_mutable_values_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(_build(cls))


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    a = _build(cls)
    for name in list(_FIELDS[cls]()) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == _build(cls)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_repr_lists_the_fields_in_order(cls):
    a = _build(cls)
    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in _FIELDS[cls]())
    assert repr(a) == f"{cls.__name__}({fields})"


def test_reprs_keep_the_dataclass_text():
    assert repr(sd.ArithmeticProgression(0, 2)) == "ArithmeticProgression(offset=0, step=2)"
    assert repr(sd.Squares()) == "Squares()"
    assert repr(sd.Explicit((3, 1, 3))) == "Explicit(elements=(1, 3))"
    assert repr(sd.evens() | sd.squares()) == "Union(left=ArithmeticProgression(offset=0, step=2), right=Squares())"
    assert repr(asy.CoreConfig()) == "CoreConfig(horizon=100000, grid=0.01, theta=0.001)"
    assert repr(reg.CheckConfig()) == "CheckConfig(horizon=10000, tol=0.01, theta=0.001, grid=0.01, seed=0)"
    assert repr(asy.CoreInterval(0.3, 0.3, "exact")) == (
        "CoreInterval(lo=0.3, hi=0.3, method='exact', horizon=None, grid=None, theta=None)"
    )


def test_defaults_fill_trailing_fields():
    assert asy.CoreConfig() == asy.CoreConfig(100_000, 0.01, ide.DEFAULT_THETA)
    assert reg.CheckConfig(horizon=20) == reg.CheckConfig(20, 1e-2, ide.DEFAULT_THETA, 1e-2, 0)
    assert mat.MatrixRow(_INDICES, _VALUES).tail_bound == 0.0
    assert mat.SumStructure(None, 1.0, _row_sum) == mat.SumStructure(None, 1.0, _row_sum, (), False)
    assert reg.ConditionReport("T", None, 0.0, {}).method == "numeric"
    with pytest.raises(TypeError):
        asy.CoreInterval(0.0, 1.0)
    with pytest.raises(TypeError):
        sd.ArithmeticProgression(0, 2, 4)


def test_lru_cache_hits_on_an_equal_separately_built_node():
    horizon = 1237
    first = sd.Union(sd.ArithmeticProgression(0, 3), sd.Blocks(((2, 40),))).mask(horizon)
    hits = sd._cached_mask.cache_info().hits
    again = sd.Union(sd.ArithmeticProgression(0, 3), sd.Blocks(((2, 40),))).mask(horizon)
    assert sd._cached_mask.cache_info().hits == hits + 1
    assert again is first
    other = sd.Intersection(sd.ArithmeticProgression(0, 3), sd.Blocks(((2, 40),))).mask(horizon)
    assert not np.array_equal(other, first)


_IDENTITY_RECORDS = {
    "IndexMap": lambda: maps.IndexMap(abs, "abs", True, (1, 0), rule=lambda h: np.arange(h)),
    "Predicate": lambda: sd.Predicate(abs, "nonzero"),
    "BoundedSequence": lambda: seq.BoundedSequence(abs, 1.0, "x", rule=lambda ns: np.zeros(len(ns))),
}


@pytest.mark.parametrize("build", _IDENTITY_RECORDS.values(), ids=_IDENTITY_RECORDS.keys())
def test_identity_records_compare_by_identity(build):
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2


def test_identity_record_reprs_leave_out_hidden_fields():
    h = maps.IndexMap(abs, "abs", rule=lambda n: np.arange(n))
    assert repr(h) == f"IndexMap(fn={abs!r}, label='abs', injective=False, affine=None)"
    assert repr(sd.Predicate(abs)) == f"Predicate(fn={abs!r}, name='predicate')"
    x = seq.BoundedSequence(abs, 2.0, "y", limit=0.0, envelope=lambda n: np.ones(n))
    x.prefix(4)
    want = f"BoundedSequence(fn={abs!r}, bound=2.0, label='y', level_sets=None, limit=0.0, equidistributed=None)"
    assert repr(x) == want


def test_frozen_identity_records_refuse_assignment_and_sequences_accept_it():
    with pytest.raises(AttributeError):
        maps.identity_map().label = "other"
    with pytest.raises(AttributeError):
        sd.Predicate(bool).name = "other"
    x = seq.BoundedSequence(float, 1.0, "x")
    x.label = "renamed"
    assert x.label == "renamed"


def test_import_leaves_dataclasses_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import idealcore, idealcore.harness, idealcore.specs; "
        "print('dataclasses' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
