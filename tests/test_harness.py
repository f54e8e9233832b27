"""Suite execution, report determinism, config validation, CLI surface."""

import collections
import csv
import enum
import hashlib
import importlib.resources
import io
import json
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealcore import asymptotics, cli, constructions, harness, ideals, regularity, sequences, specs
from idealcore.cli import main
from idealcore.regularity import CHECKS
from tests.test_asymptotics import _strip_levels


def _bundled_path(name):
    return importlib.resources.files("idealcore").joinpath(f"configs/{name}")


def _bundled(name):
    return json.loads(_bundled_path(name).read_text())


@pytest.fixture(scope="module")
def bundled_runs():
    """Each bundled suite run once: config name -> (bundle, wall time of run_suite)."""
    runs = {}
    for name in ("knopp.json", "thm25.json"):
        config = specs.parse_experiment_config(_bundled(name))
        t0 = time.perf_counter()
        bundle = harness.run_suite(config)
        runs[name] = (bundle, time.perf_counter() - t0)
    return runs


# -- config parsing ---------------------------------------------------------------


def test_config_errors_carry_paths():
    with pytest.raises(specs.ConfigError) as err:
        specs.parse_experiment_config({"matrices": [], "ideal_pairs": [["fin", "fin"]], "theorems": ["st"]})
    assert err.value.path == "config.matrices"
    with pytest.raises(specs.ConfigError) as err:
        specs.parse_experiment_config(
            {"matrices": ["cesaro"], "ideal_pairs": [["fin", "fin"]], "theorems": ["nope"]}
        )
    assert err.value.path == "config.theorems[0]"
    with pytest.raises(specs.ConfigError) as err:
        specs.parse_experiment_config(
            {"matrices": [{"type": "rk"}], "ideal_pairs": [["fin", "fin"]], "theorems": ["st"]}
        )
    assert "map" in err.value.path


def test_parse_matrix_shorthand_and_json():
    assert specs.parse_matrix("cesaro").label == "Cesaro"
    m = specs.parse_matrix({"type": "scaled_identity", "factor": 2.0})
    assert m.row(3).values.tolist() == [2.0]
    with pytest.raises(specs.ConfigError):
        specs.parse_matrix("mystery")
    with pytest.raises(specs.ConfigError):
        specs.parse_ideal("mystery")


@pytest.mark.parametrize(
    "spec, path",
    [
        ({"type": "scaled", "factor": "two", "of": "cesaro"}, "matrix.factor"),
        ({"type": "scaled_identity", "factor": None}, "matrix.factor"),
        ({"type": "scaled_identity", "factor": float("nan")}, "matrix.factor"),
        ({"type": "diagonal", "values": {"kind": "constant", "value": [1]}}, "matrix.values.value"),
        ({"type": "diagonal", "values": {"kind": "geometric", "ratio": "half"}}, "matrix.values.ratio"),
    ],
)
def test_numeric_matrix_fields_are_config_errors(spec, path):
    with pytest.raises(specs.ConfigError) as err:
        specs.parse_matrix(spec)
    assert err.value.path == path


@pytest.mark.parametrize("key", ["check_horizon", "core_horizon", "tol", "grid", "theta", "seed"])
def test_numeric_cfg_fields_are_config_errors(key):
    raw = {"matrices": ["cesaro"], "ideal_pairs": [["fin", "fin"]], "theorems": ["st"], "cfg": {key: "x"}}
    with pytest.raises(specs.ConfigError) as err:
        specs.parse_experiment_config(raw)
    assert err.value.path == f"config.cfg.{key}"


def test_ideal_spec_theta_is_a_config_error():
    with pytest.raises(specs.ConfigError, match="cfg.theta or --theta") as err:
        specs.parse_ideal({"type": "density_zero", "theta": 0.001}, "config.ideal_pairs[0][0]")
    assert err.value.path == "config.ideal_pairs[0][0].theta"


@pytest.mark.parametrize(
    "spec, preset",
    [
        ({"type": "erdos_ulam", "weights": "bogus"}, "log"),
        ({"type": "summable", "weights": "log"}, "harmonic"),
    ],
)
def test_ideal_spec_weights_name_the_one_preset(spec, preset):
    with pytest.raises(specs.ConfigError) as err:
        specs.parse_ideal(spec)
    assert str(err.value) == f"ideal.weights: must be {preset!r}, got {spec['weights']!r}"


# Each catalog ideal type, the fields of a spec of it that parses, and the
# fields the type reads.
_IDEAL_FIELDS = {
    "fin": ({}, ("type",)),
    "density_zero": ({}, ("type",)),
    "erdos_ulam": ({"weights": "log"}, ("type", "weights")),
    "summable": ({"weights": "harmonic", "cutoff": 5}, ("type", "weights", "cutoff")),
    "fin_oplus_full": ({"trace": {"type": "ap", "offset": 0, "step": 2}}, ("type", "trace")),
    "countably_generated": ({"generators": [{"type": "squares"}]}, ("type", "generators")),
    "fin_times_empty": ({}, ("type",)),
}


@pytest.mark.parametrize("kind", sorted(_IDEAL_FIELDS))
def test_ideal_specs_refuse_fields_their_type_does_not_read(kind):
    # A misspelt or misplaced field used to be dropped, so {"type":
    # "summable", "cutof": 5} read as the cutoff 1000.
    fields, accepted = _IDEAL_FIELDS[kind]
    spec = {"type": kind, **fields}
    specs.parse_ideal(spec)
    for stray in ("cutof", "weigths", "weights", "cutoff", "trace", "generators"):
        if stray in accepted:
            continue
        with pytest.raises(specs.ConfigError) as err:
            specs.parse_ideal({**spec, stray: 5}, "config.ideal_pairs[0][1]")
        assert err.value.path == f"config.ideal_pairs[0][1].{stray}"
        assert str(err.value).endswith(f"{kind} ideals read only: {', '.join(accepted)}")


_AP_NO_STEP = {"type": "arithmetic_progression", "offset": 1}
_EVENS_AND_ODDS = {
    "type": "intersection",
    "left": {"type": "ap", "offset": 0, "step": 2},
    "right": {"type": "ap", "offset": 1, "step": 2},
}
# Empty, though no residue form shows it: block exponents (or roots) ≡ 0 mod 2 and ≡ 1 mod 4.
_EMPTY_BLOCKS = {
    "type": "intersection",
    "left": {"type": "geometric_blocks", "base": 2, "residue": 0, "modulus": 2},
    "right": {"type": "geometric_blocks", "base": 2, "residue": 1, "modulus": 4},
}
_EMPTY_ROOTS = {
    "type": "intersection",
    "left": {"type": "root_blocks", "residue": 0, "modulus": 2},
    "right": {"type": "root_blocks", "residue": 1, "modulus": 4},
}
# Base-2 exponents ≡ 2 (mod 4) against base-4 blocks, which cover the base-2
# exponents ≡ 0, 1 (mod 4).
_EMPTY_POWER_BLOCKS = {
    "type": "intersection",
    "left": {"type": "geometric_blocks", "base": 2, "residue": 2, "modulus": 4},
    "right": {"type": "geometric_blocks", "base": 4, "residue": 0, "modulus": 2},
}
_SUITE = {"matrices": ["cesaro"], "ideal_pairs": [["fin", "fin"]], "theorems": ["st"]}


@pytest.mark.parametrize(
    "parse, spec, path",
    [
        # sets
        (specs.parse_set, "evens", "set"),
        (specs.parse_set, {"offset": 0, "step": 1}, "set.type"),
        (specs.parse_set, {"type": 3}, "set.type"),
        (specs.parse_set, {"type": "cantor"}, "set.type"),
        (specs.parse_set, {"type": "explicit", "elements": "12"}, "set.elements"),
        (specs.parse_set, {"type": "explicit", "elements": [1, 2.5]}, "set.elements[1]"),
        (specs.parse_set, {"type": "explicit", "elements": [-1]}, "set.elements"),
        (specs.parse_set, {"type": "ap", "offset": 1.7, "step": 2}, "set.offset"),
        (specs.parse_set, _AP_NO_STEP, "set.step"),
        (specs.parse_set, {**_AP_NO_STEP, "step": "two"}, "set.step"),
        (specs.parse_set, {**_AP_NO_STEP, "step": float("inf")}, "set.step"),
        (specs.parse_set, {"type": "blocks", "intervals": [[2, 5], [7]]}, "set.intervals[1]"),
        (specs.parse_set, {"type": "blocks", "intervals": [[2, 5.5]]}, "set.intervals[0][1]"),
        (specs.parse_set, {"type": "blocks", "intervals": [[5, 9], [2, 3]]}, "set.intervals"),
        (specs.parse_set, {"type": "geometric_blocks", "base": 2, "modulus": 2}, "set.residue"),
        (specs.parse_set, {"type": "root_blocks", "residue": 1, "modulus": 2.5}, "set.modulus"),
        (specs.parse_set, {"type": "union", "left": {"type": "squares"}}, "set.right"),
        (specs.parse_set, {"type": "union", "left": _AP_NO_STEP, "right": {"type": "squares"}}, "set.left.step"),
        (
            specs.parse_set,
            {"type": "intersection", "left": {"type": "squares"}, "right": {"type": "explicit", "elements": "3"}},
            "set.right.elements",
        ),
        (specs.parse_set, {"type": "complement"}, "set.of"),
        (specs.parse_set, {"type": "complement", "of": {"type": None}}, "set.of.type"),
        # ideals
        (specs.parse_ideal, 3, "ideal"),
        (specs.parse_ideal, "mystery", "ideal"),
        (specs.parse_ideal, {"type": "hausdorff"}, "ideal.type"),
        (specs.parse_ideal, {"type": "z", "theta": 0.1}, "ideal.theta"),
        (specs.parse_ideal, {"type": "erdos_ulam", "weights": "sqrt"}, "ideal.weights"),
        (specs.parse_ideal, {"type": "summable", "weights": "log"}, "ideal.weights"),
        (specs.parse_ideal, {"type": "summable", "cutoff": "big"}, "ideal.cutoff"),
        (specs.parse_ideal, {"type": "fin_oplus_full"}, "ideal.trace"),
        (specs.parse_ideal, {"type": "fin_oplus_full", "trace": {"type": "explicit", "elements": [1]}}, "ideal.trace"),
        (specs.parse_ideal, {"type": "fin_oplus_full", "trace": _AP_NO_STEP}, "ideal.trace.step"),
        (specs.parse_ideal, {"type": "countably_generated", "generators": {"type": "squares"}}, "ideal.generators"),
        (
            specs.parse_ideal,
            {"type": "countably_generated", "generators": [{"type": "squares"}, _AP_NO_STEP]},
            "ideal.generators[1].step",
        ),
        (
            specs.parse_ideal,
            {"type": "countably_generated", "generators": [{"type": "complement", "of": {"type": "explicit", "elements": [0]}}]},
            "ideal.generators",
        ),
        # index maps, as a matrix reads them
        (specs.parse_matrix, {"type": "rk"}, "matrix.map"),
        (specs.parse_matrix, {"type": "rk", "map": "affine"}, "matrix.map"),
        (specs.parse_matrix, {"type": "rk", "map": {"type": "shift"}}, "matrix.map.type"),
        (specs.parse_matrix, {"type": "rk", "map": {"type": "affine"}}, "matrix.map.mul"),
        (specs.parse_matrix, {"type": "rk", "map": {"type": "affine", "mul": "x"}}, "matrix.map.mul"),
        (specs.parse_matrix, {"type": "rk", "map": {"type": "affine", "mul": 2.5}}, "matrix.map.mul"),
        (specs.parse_matrix, {"type": "rk", "map": {"type": "affine", "mul": 2, "add": 0.5}}, "matrix.map.add"),
        (specs.parse_matrix, {"type": "rk", "map": {"type": "affine", "mul": 0}}, "matrix.map"),
        (specs.parse_matrix, {"type": "rk", "map": {"type": "enumeration"}}, "matrix.map.set"),
        (specs.parse_matrix, {"type": "rk", "map": {"type": "enumeration", "set": _AP_NO_STEP}}, "matrix.map.set.step"),
        (specs.parse_matrix, {"type": "banded", "rows": [[[1.5, 1.0]]]}, "matrix.rows[0]"),
        (specs.parse_matrix, {"type": "banded", "rows": [[[0, 1.0]], [[1, float("inf")]]]}, "matrix.rows[1]"),
        (specs.parse_matrix, {"type": "banded", "rows": [[[0, float("nan")]]]}, "matrix.rows[0]"),
        (specs.parse_matrix, {"type": "banded", "rows": [[[0, "-inf"]]], "tail": "repeat_last"}, "matrix.rows[0]"),
        # check --family lists
        (specs.parse_family, [], "family"),
        (specs.parse_family, {"sets_positive": {"type": "squares"}}, "family.sets_positive"),
        (
            specs.parse_family,
            {"sets_in_ideal": [{"type": "squares"}, {"type": "explicit", "elements": "12"}]},
            "family.sets_in_ideal[1].elements",
        ),
        (specs.parse_family, {"sets_infinite": [{"type": "bogus"}]}, "family.sets_infinite[0].type"),
        # suite configs
        (specs.parse_experiment_config, {**_SUITE, "cfg": {"check_horizon": 1000.7}}, "config.cfg.check_horizon"),
        (specs.parse_experiment_config, {**_SUITE, "cfg": {"seed": 1.5}}, "config.cfg.seed"),
        (
            specs.parse_experiment_config,
            {**_SUITE, "matrices": ["cesaro", {"type": "rk", "map": {"type": "enumeration", "set": _AP_NO_STEP}}]},
            "config.matrices[1].map.set.step",
        ),
        (
            specs.parse_experiment_config,
            {**_SUITE, "ideal_pairs": [["fin", {"type": "fin_oplus_full", "trace": _AP_NO_STEP}]]},
            "config.ideal_pairs[0][1].trace.step",
        ),
        # a provably finite set has no enumeration map
        (specs.parse_matrix, {"type": "rk", "map": {"type": "enumeration", "set": _EVENS_AND_ODDS}}, "matrix.map.set"),
        (
            specs.parse_matrix,
            {"type": "rk", "map": {"type": "enumeration", "set": {"type": "explicit", "elements": [1, 2, 3]}}},
            "matrix.map.set",
        ),
        # blocks of one base, or root blocks, with congruences no block index solves
        (specs.parse_matrix, {"type": "rk", "map": {"type": "enumeration", "set": _EMPTY_BLOCKS}}, "matrix.map.set"),
        (specs.parse_matrix, {"type": "rk", "map": {"type": "enumeration", "set": _EMPTY_ROOTS}}, "matrix.map.set"),
        # blocks of bases that are powers of one base, with no base exponent in both
        (specs.parse_matrix, {"type": "rk", "map": {"type": "enumeration", "set": _EMPTY_POWER_BLOCKS}}, "matrix.map.set"),
        # a summable cutoff must be positive
        (specs.parse_ideal, {"type": "summable", "cutoff": -5}, "ideal.cutoff"),
        (specs.parse_ideal, {"type": "summable", "cutoff": 0}, "ideal.cutoff"),
    ],
)
def test_malformed_specs_name_the_field(parse, spec, path):
    with pytest.raises(specs.ConfigError) as err:
        parse(spec)
    assert err.value.path == path


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"check_horizon": 50}, "horizon must be at least 100"),
        ({"core_horizon": 99}, "horizon must be at least 100"),
        ({"theta": -1}, "theta must lie in (0, 1)"),
        ({"theta": 1}, "theta must lie in (0, 1)"),
        ({"tol": -0.5}, "tol must be nonnegative"),
        ({"grid": 0}, "grid resolution must be positive"),
    ],
    ids=["check_horizon", "core_horizon", "theta-negative", "theta-one", "tol", "grid"],
)
def test_out_of_range_cfg_values_are_config_errors(cfg, message):
    with pytest.raises(specs.ConfigError) as err:
        specs.parse_experiment_config({**_SUITE, "cfg": cfg})
    assert err.value.path == "config.cfg"
    assert str(err.value) == f"config.cfg: {message}"


def test_integral_values_and_numeric_strings_parse_as_integers():
    assert specs.parse_set({"type": "ap", "offset": "1", "step": 2.0}) == specs.parse_set(
        {"type": "arithmetic_progression", "offset": 1, "step": 2}
    )
    assert specs.parse_set({"type": "explicit", "elements": [3.0, "1"]}).elements == (1, 3)
    assert specs.parse_index_map({"type": "affine", "mul": "3", "add": 1.0}).prefix(3).tolist() == [1, 4, 7]
    config = specs.parse_experiment_config({**_SUITE, "cfg": {"check_horizon": 1000.0, "seed": "2"}})
    assert (config.check_horizon, config.seed) == (1000, 2)
    assert type(config.check_horizon) is int and type(config.seed) is int


def test_readme_json_specs_parse():
    """Every concrete one-line spec in the README's JSON formats section parses."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## JSON formats\n", 1)[1].split("\n## ", 1)[0]
    parsers = {"Sets": specs.parse_set, "Ideals": specs.parse_ideal, "Matrices": specs.parse_matrix}
    parse, parsed = None, collections.Counter()
    for line in section.splitlines():
        if line.startswith("**"):
            parse = parsers.get(line[2:].split("**", 1)[0])
        elif line.startswith("{") and "..." not in line and "|" not in line:
            parse(json.loads(line))
            parsed[parse.__name__] += 1
    assert parsed == {"parse_set": 6, "parse_ideal": 7, "parse_matrix": 4}


def test_parse_ideal_shorthands():
    assert specs.parse_ideal("fin").kind == "fin"
    assert specs.parse_ideal("z").kind == "density_zero"
    assert specs.parse_ideal("fin-oplus-evens").kind == "fin_oplus_full"


# -- suite runs -------------------------------------------------------------------


def test_knopp_suite(bundled_runs):
    bundle, _ = bundled_runs["knopp.json"]
    assert bundle.summary["exit_code"] == 1
    check = next(i for i in bundle.items if i["kind"] == "check")
    assert check["status"] == "violated"
    assert check["verdict"]["witness"]["set"] == {"type": "squares"}
    experiment = next(i for i in bundle.items if i["kind"] == "experiment")
    assert experiment["experiment"]["max_deviation"] >= 0.9


def test_thm25_suite(bundled_runs):
    bundle, _ = bundled_runs["thm25.json"]
    assert bundle.summary["exit_code"] == 0
    assert all(i["status"] == "satisfied" for i in bundle.items)
    experiment = next(i for i in bundle.items if i["kind"] == "experiment")
    assert experiment["experiment"]["max_deviation"] <= 1e-2


def test_thm25_grids_no_value_prefix(monkeypatch):
    # Every core of Thm 2.5's experiment is exact, rotation_golden's and its
    # image's by their equidistribution, so no value prefix is gridded.
    monkeypatch.setattr(asymptotics, "_hit_cells", lambda *args: pytest.fail("a value prefix was gridded"))
    bundle = harness.run_suite(specs.parse_experiment_config(_bundled("thm25.json")))
    assert [i["status"] for i in bundle.items] == ["satisfied", "satisfied"]


def test_suite_timings_are_per_item(bundled_runs):
    # Items run one at a time, so their own times cannot add up to more than
    # the suite's wall time.
    bundle, wall = bundled_runs["thm25.json"]
    assert [name for name, _ in bundle.timings] == [f"item{i}" for i in range(len(bundle.items))]
    assert sum(elapsed for _, elapsed in bundle.timings) <= wall


def test_experiment_rows_say_how_each_core_was_decided(bundled_runs):
    # Thm 2.5 on the corpus: level-set entries, alternating_decay, which
    # declares its limit, and rotation_golden, which declares its
    # equidistribution, are decided exactly on both sides.
    bundle, _ = bundled_runs["thm25.json"]
    rows = next(i for i in bundle.items if i["kind"] == "experiment")["experiment"]["rows"]
    methods = {r["label"]: (r["core_x_method"], r["core_ax_method"]) for r in rows}
    assert set(methods.values()) == {("exact", "exact")}
    assert {"alternating_decay", "rotation_golden"} <= set(methods)
    csv_rows = [r for r in csv.DictReader(io.StringIO(harness.render_csv(bundle))) if r["kind"] == "experiment"]
    assert [(r["corpus_label"], r["core_x_method"], r["core_ax_method"]) for r in csv_rows] == [
        (r["label"], r["core_x_method"], r["core_ax_method"]) for r in rows
    ]


# sha256 of the (json, csv) reports of the bundled configs.  Only a deliberate
# change of results, noted in CHANGES.md, may update these hashes.
_REPORT_SHA256 = {
    "knopp.json": (
        "e1fa7b9941685a93dbe25f28f8a06ea6ce490c23e7c22a43cc51c8bd11982933",
        "83602321aa034f630aad5f2b3eafc37af599005f07d2295c7f3a4bc229c11723",
    ),
    "thm25.json": (
        "244f5b284a119ffb17447863639e4bc91152b700450b6021a3592ee65a7284cf",
        "48fcd258d796acec027a8fa491b1641caf44107d08bdbd65dc8906896a602e4d",
    ),
}


@pytest.mark.parametrize("name", sorted(_REPORT_SHA256))
def test_bundled_reports_are_pinned(bundled_runs, name):
    bundle, _ = bundled_runs[name]
    rendered = (harness.render_json(bundle), harness.render_csv(bundle))
    assert tuple(hashlib.sha256(r.encode()).hexdigest() for r in rendered) == _REPORT_SHA256[name]


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")])
    | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
    | st.text()
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class _Mode(str, enum.Enum):
    """A str subclass whose ``str()`` is not its string data."""

    ON = "on"


# Scalars of every kind ``dumps`` dispatches on, as dict values and list items:
# exact types, a float and a str subclass, NaN and ±inf.
_SCALARS = ["text", "é", 0.1, -0.0, 3, True, False, None, np.float64(0.25), np.float64("nan"),
            float("inf"), -float("inf"), float("nan"), np.float64("-inf"), _Mode.ON]


@settings(max_examples=100, deadline=None)
@given(_JSON_VALUES)
@example({f"k{i}": v for i, v in enumerate(_SCALARS)})
@example(_SCALARS)
@example((_SCALARS, {"nested": tuple(_SCALARS)}))
@example({_Mode.ON: _Mode.ON, "a": [_Mode.ON], "z": {_Mode.ON: 1}})
def test_dumps_writes_what_json_writes(value):
    # Empty and nested containers, tuples, -0.0, NaN, ±inf, numpy floats,
    # (str, Enum) members and non-ASCII text, as dict keys and values and as
    # list items.
    assert harness.dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_dumps_refuses_what_it_cannot_write():
    # json refuses sets and other objects; reports key every dict by str, so
    # dumps refuses other keys too, where json would convert them.
    for value in ({1: "int key"}, {"set": {1}}, object()):
        with pytest.raises(TypeError):
            harness.dumps(value)


_RK_2N = {"type": "rk", "map": {"type": "affine", "mul": 2}}
# Composed and summed matrices take the generic row path (row merges and the
# flat CSR arrays), which the closed-form matrices of the bundled configs skip;
# the banded matrix is judged from its closed form.
_GENERIC_SUITE = {
    "matrices": [
        {"type": "compose", "left": _RK_2N, "right": "cesaro"},
        {"type": "compose", "left": "cesaro", "right": _RK_2N},
        {"type": "perturb_identity", "of": "cesaro"},
        {
            "type": "banded",
            "rows": [[[2, 0.5], [0, 0.5]], [[1, 0.25], [0, 0.25], [3, 0.5]], [[1, 1.0]]],
            "tail": "identity",
        },
    ],
    "ideal_pairs": [["fin", "fin"]],
    "theorems": ["st", "leo"],
    "core_equality": False,
    "cfg": {"check_horizon": 300, "core_horizon": 300, "tol": 0.01, "grid": 0.01, "theta": 0.001, "seed": 0},
}
_GENERIC_SHA256 = (
    "91faccf430cd7e266c0defad029ff4a4470bc1dd38768b7e915c5b662a566964",
    "ed159a0349772696433b686c9ad5aadffa2746e23305dfff9443d742369545e8",
)
# Per item of the generic suite: (status, label of the witness set, witness
# row), both witnesses from the strongest violated condition as the verdict
# picks it.  A re-pin of _GENERIC_SHA256 for moved values must leave these as
# they are.  Every row sum of Cesaro + Id is exactly 2, so its T2 deviations
# tie and the witness is the first row of the tail window.
_GENERIC_VERDICTS = [
    ("violated", "explicit[0..9]", 150),
    ("violated", "squares", None),
    ("violated", "explicit[0..9]", 150),
    ("violated", "ap(1,2)", None),
    ("violated", None, 150),
    ("violated", None, 150),
    ("satisfied", None, None),
    ("satisfied", None, None),
]


@pytest.fixture(scope="module")
def generic_bundle():
    return harness.run_suite(specs.parse_experiment_config(_GENERIC_SUITE))


def test_generic_matrix_reports_are_pinned(generic_bundle):
    rendered = (harness.render_json(generic_bundle), harness.render_csv(generic_bundle))
    assert tuple(hashlib.sha256(r.encode()).hexdigest() for r in rendered) == _GENERIC_SHA256


def test_generic_matrix_verdicts_are_pinned(generic_bundle):
    got = []
    for item in generic_bundle.items:
        violated = [c for c in item["verdict"]["conditions"] if c["ok"] is False]
        strongest = max(violated, key=lambda c: c["margin"], default={})
        witness_set = strongest.get("witness_set")
        label = regularity._set_label(specs.parse_set(witness_set)) if witness_set else None
        got.append((item["status"], label, strongest.get("witness_row")))
    assert got == _GENERIC_VERDICTS


# Signed banded rows reach the checkers' negative-entry search (cfo items end in
# NegativeEntryError), the applicability-guard notes, and a certified norm
# bound above the cap of an uncertified row-sum sup; identity and Cesaro reach
# the closed forms.
_SIGNED_SUITE = {
    "matrices": [
        {
            "type": "banded",
            "rows": [[[0, 0.5], [1, -0.25], [2, 0.75]], [[1, 501.0], [3, -500.0]], [[2, 1.0]]],
            "tail": "zero",
        },
        {
            "type": "banded",
            "rows": [[[0, 1.0]], [[0, 0.1], [2, -0.2], [1, 0.3], [4, 0.8]]],
            "tail": "repeat_last",
        },
        "identity",
        "cesaro",
    ],
    "ideal_pairs": [["z", "z"], ["erdos-ulam-log", "erdos-ulam-log"], ["fin-oplus-evens", "fin"]],
    "theorems": ["st", "allen", "cfo", "leo"],
    "core_equality": False,
    "cfg": {"check_horizon": 300, "core_horizon": 300, "tol": 0.01, "grid": 0.01, "theta": 0.001, "seed": 0},
}
_SIGNED_SHA256 = (
    "803b7135e4351b90fc0e526394d0b0aa6d9651d7e1ee8d56370136b613357b99",
    "c5a9833d2a6023bdd13cea1886bf3fddeff3d4f5652acf30dac7ce18378e854e",
)


def test_signed_matrix_reports_are_pinned():
    bundle = harness.run_suite(specs.parse_experiment_config(_SIGNED_SUITE))
    rendered = (harness.render_json(bundle), harness.render_csv(bundle))
    assert tuple(hashlib.sha256(r.encode()).hexdigest() for r in rendered) == _SIGNED_SHA256


def test_shared_work_changes_no_item():
    """Each item of a suite equals the item of a one-item suite with the same
    matrix, pair and theorem (or experiment), whose parse, family and verdicts
    are its own."""
    pairs = [
        ["fin", "fin"],
        ["fin-times-empty", "fin-times-empty"],
        ["fin-oplus-evens", "fin"],
        ["z", "z"],
        ["erdos-ulam-log", "erdos-ulam-log"],
    ]
    suite = {**_SIGNED_SUITE, "ideal_pairs": pairs, "core_equality": True}
    items = harness.run_suite(specs.parse_experiment_config(suite)).items
    tasks = [{"theorems": [t], "core_equality": False} for t in suite["theorems"]]
    tasks.append({"theorems": [], "core_equality": True})
    alone = [
        harness.run_suite(
            specs.parse_experiment_config({**suite, "matrices": [m], "ideal_pairs": [pair], **task})
        ).items[0]
        for m in suite["matrices"]
        for pair in pairs
        for task in tasks
    ]
    assert [{**item, "item": 0} for item in items] == alone
    assert any(item.get("error", "").startswith("NegativeEntryError") for item in items)
    assert any("experiment" in item for item in items)


def test_a_matrix_is_released_when_its_group_ends(monkeypatch):
    refs, released = [], []

    def watched_parse(spec, *args):
        if refs:
            released.append(refs[-1]() is None)
        a = specs.parse_matrix(spec, *args)
        refs.append(weakref.ref(a))
        return a

    monkeypatch.setattr(harness, "parse_matrix", watched_parse)
    harness.run_suite(specs.parse_experiment_config(_SIGNED_SUITE))
    assert released == [True] * (len(_SIGNED_SUITE["matrices"]) - 1)


_EXPERIMENT_SUITE = {
    "matrices": ["identity", {"type": "rk", "map": {"type": "affine", "mul": 2}}, "cesaro"],
    "ideal_pairs": [
        ["fin", "fin"],
        ["fin-oplus-evens", "fin"],
        ["erdos-ulam-log", "erdos-ulam-log"],
        [{"type": "fin"}, "fin"],
    ],
    "theorems": [],
    "core_equality": True,
    "cfg": {"check_horizon": 2000, "core_horizon": 20000, "tol": 0.01, "grid": 0.01, "theta": 0.001, "seed": 0},
}


def test_a_suite_computes_each_core_once(monkeypatch):
    core_calls, transform_calls = [], []
    cores = regularity.cores
    transformed = constructions.transformed_sequence

    def counting_cores(x, ideals, cfg):
        core_calls.extend((x.label, ideal.label) for ideal in ideals)
        return cores(x, ideals, cfg)

    def counting_transform(a, x, horizon):
        transform_calls.append((a.label, x.label, horizon))
        return transformed(a, x, horizon)

    monkeypatch.setattr(regularity, "cores", counting_cores)
    monkeypatch.setattr(constructions, "transformed_sequence", counting_transform)
    bundle = harness.run_suite(specs.parse_experiment_config(_EXPERIMENT_SUITE))
    assert {i["status"] for i in bundle.items} <= {"satisfied", "violated"}
    labels = [x.label for x in sequences.corpus()]
    x_calls = [call for call in core_calls if call[0] in labels]
    image_calls = [call for call in core_calls if call[0] not in labels]
    # core(x, I) once per (corpus entry, I) for the whole suite: I is Fin, Fin ⊕ P(evens) or log.
    assert len(x_calls) == len(set(x_calls)) == 3 * len(labels)
    # core(A·x, J) once per (matrix, entry, J), J being Fin or log, for the rk and Cesàro
    # matrices, whose experiments run entry by entry: one A·x per (matrix, entry) serves
    # every pair.  The identity reads core(x, J) from the suite's cores and builds no A·x.
    assert len(image_calls) == len(set(image_calls)) == 2 * 2 * len(labels)
    per_row = collections.Counter(transform_calls)
    assert len(per_row) == (len(_EXPERIMENT_SUITE["matrices"]) - 1) * len(labels)
    assert set(per_row.values()) == {1}

    # A direct call has no memo to read from and computes every core itself.
    a, fin = specs.parse_matrix("cesaro"), specs.parse_ideal("fin")
    corpus, cfg = sequences.corpus(), asymptotics.CoreConfig(horizon=2000)
    core_calls.clear()
    transform_calls.clear()
    for _ in range(2):
        constructions.core_equality_experiment(a, fin, fin, corpus, cfg)
    assert len(core_calls) == 2 * len(transform_calls) == 4 * len(labels)


# The benchmark's experiments suite: three matrices, five pairs, the whole corpus.
_ENTRY_BY_ENTRY_SUITE = {
    "matrices": [
        "identity",
        {
            "type": "rk",
            "map": {"type": "enumeration", "set": {"type": "arithmetic_progression", "offset": 0, "step": 2}},
        },
        "cesaro",
    ],
    "ideal_pairs": [
        ["fin", "fin"],
        ["z", "z"],
        ["erdos-ulam-log", "erdos-ulam-log"],
        ["fin-oplus-evens", "fin"],
        ["fin-times-empty", "fin-times-empty"],
    ],
    "theorems": [],
    "core_equality": True,
    "cfg": {"check_horizon": 20000, "core_horizon": 20000, "tol": 0.01, "grid": 0.01, "theta": 0.001, "seed": 0},
}


def test_experiments_share_each_image_and_cell_table(monkeypatch):
    """Run entry by entry, a matrix's experiments build one A·x per corpus
    entry for all its pairs, and the cores of one value prefix under several
    ideals share one cell table."""
    counts, z_images = collections.Counter(), []
    for module, name in [(constructions, "transformed_sequence"), (asymptotics, "_hit_cells")]:
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, _name=name, _f=original: counts.update([_name]) or _f(*args)
        )
    cores = regularity.cores

    def watched_cores(x, ideals, cfg):
        if x.label.startswith("Cesaro["):
            z_images.extend(x.label for ideal in ideals if ideal.kind == "density_zero")
        return cores(x, ideals, cfg)

    monkeypatch.setattr(regularity, "cores", watched_cores)
    bundle = harness.run_suite(specs.parse_experiment_config(_ENTRY_BY_ENTRY_SUITE))
    statuses = collections.Counter(item["status"] for item in bundle.items)
    assert statuses == {"violated": 9, "satisfied": 5, "inconclusive": 1}
    # 2 matrices that build A·x (rk and Cesàro) times 9 entries, against 67 with
    # one A·x per (matrix, entry, J); 2 value prefixes (the Cesàro images of
    # the two block entries) against 7 with one table per (prefix, ideal).
    assert counts == {"transformed_sequence": 18, "_hit_cells": 2}
    # Cesàro's (z, z) pair raises at indicator_blocks, the fourth entry by label,
    # and reads no Z-core of a later entry's image.
    labels = sorted(x.label for x in sequences.corpus())
    assert z_images == [f"Cesaro[{label}]" for label in labels[: labels.index("indicator_blocks") + 1]]


def test_experiments_estimate_no_level(monkeypatch):
    """The benchmark's experiments suite decides every level set in closed
    form, {2j²} under fin_times_empty included: the estimator never runs."""
    estimated = []
    original = asymptotics.estimate_membership
    monkeypatch.setattr(
        asymptotics,
        "estimate_membership",
        lambda s, ideal, *args: estimated.append((s, ideal.label)) or original(s, ideal, *args),
    )
    harness.run_suite(specs.parse_experiment_config(_ENTRY_BY_ENTRY_SUITE))
    assert estimated == []


# The benchmark's checks suite at a smaller horizon: 4 matrices, 4 pairs, 4 theorems.
_CHECKS_SUITE = {
    "matrices": [
        "cesaro",
        "identity",
        _ENTRY_BY_ENTRY_SUITE["matrices"][1],
        {"type": "banded", "rows": [[[0, 0.5], [1, 0.5]], [[1, 1.0]], [[0, 0.25], [2, 0.75]]], "tail": "identity"},
    ],
    "ideal_pairs": [["fin", "fin"], ["z", "z"], ["erdos-ulam-log", "erdos-ulam-log"], ["fin-oplus-evens", "fin"]],
    "theorems": ["st", "allen", "cfo", "leo"],
    "cfg": {"check_horizon": 2000, "tol": 0.01, "grid": 0.01, "theta": 0.001, "seed": 0},
}


def test_memo_keys_hold_ideals_and_no_image_core(monkeypatch):
    """Memo keys hold the ideals themselves, so running the benchmark's
    experiments suite and a checks-shaped suite encodes no ideal as JSON, and
    no memo keeps a core of A·x, which each experiment computes once."""
    encoded, memos = [], []
    for module in (ideals, regularity, constructions, harness, specs):
        if hasattr(module, "ideal_to_dict"):
            original = module.ideal_to_dict
            monkeypatch.setattr(module, "ideal_to_dict", lambda ideal, _f=original: encoded.append(ideal) or _f(ideal))
    experiments = harness.core_equality_experiments

    def watched(a, pairs, corpus_entries, cfg, *, memo):
        memos.append(memo)
        return experiments(a, pairs, corpus_entries, cfg, memo=memo)

    monkeypatch.setattr(harness, "core_equality_experiments", watched)
    for suite in (_ENTRY_BY_ENTRY_SUITE, _CHECKS_SUITE):
        harness.run_suite(specs.parse_experiment_config(suite))
    assert encoded == []
    assert len(memos) == len(_ENTRY_BY_ENTRY_SUITE["matrices"])
    kept = [key for memo in memos for key, value in memo.results.items() if isinstance(value, asymptotics.CoreInterval)]
    assert kept == []


_BANDED = {"type": "banded", "rows": [[[0, 0.5], [1, 0.5]], [[1, 1.0]], [[0, 0.25], [2, 0.75]]], "tail": "identity"}
# A nonnegative matrix that states no structure of its row sums, so each
# family condition takes the value path and its one limsup estimate.
_UNSTRUCTURED = {"type": "scaled", "factor": 1.0, "of": _BANDED}
_SHARING_SUITE = {
    "matrices": [_UNSTRUCTURED],
    "ideal_pairs": [["fin", "fin"], ["fin-oplus-evens", "fin"]],
    "theorems": ["allen", "cfo", "leo"],
    "cfg": {"check_horizon": 2000, "tol": 0.01, "grid": 0.01, "theta": 0.001, "seed": 0},
}


def _conditions(verdict: dict, prefix: str) -> list:
    """A verdict's conditions ``prefix[E]`` in order, as (set label, report without its name)."""
    return [
        (c["name"][len(prefix) :], {k: v for k, v in c.items() if k != "name"})
        for c in verdict["conditions"]
        if c["name"].startswith(prefix + "[")
    ]


def test_a_suite_judges_each_family_condition_once(monkeypatch):
    limsup_calls = []
    limsup = regularity.limsup_of_values

    def counting_limsup(values, ideal, cfg, bound=None):
        limsup_calls.append(ideal.label)
        return limsup(values, ideal, cfg, bound=bound)

    monkeypatch.setattr(regularity, "limsup_of_values", counting_limsup)
    bundle = harness.run_suite(specs.parse_experiment_config(_SHARING_SUITE))
    assert {i["status"] for i in bundle.items} <= {"satisfied", "violated"}
    # One limsup per distinct (set, J): J is Fin throughout, and the sets are
    # Allen's infinite sets and the positive sets of both pairs.
    fin, fin_oplus_evens = specs.parse_ideal("fin"), specs.parse_ideal("fin-oplus-evens")
    fin_family = regularity.default_family(fin, 0)
    sets = {*fin_family.sets_infinite, *fin_family.sets_positive}
    sets |= set(regularity.default_family(fin_oplus_evens, 0).sets_positive)
    assert len(limsup_calls) == len(sets)
    allen, cfo, leo, _, cfo_oplus, leo_oplus = (i["verdict"] for i in bundle.items)
    # CFO's C2 and Leo's L2 of a nonnegative matrix agree apart from their
    # names, and under (Fin, Fin) they are Allen's A3.
    assert _conditions(cfo, "C2") == _conditions(leo, "L2") == _conditions(allen, "A3")
    assert len(_conditions(cfo, "C2")) == len(fin_family.sets_positive)
    assert _conditions(cfo_oplus, "C2") == _conditions(leo_oplus, "L2") != []

    # Each verdict has its own reports: changing one leaves the others and the memo as they were.
    a, cfg = specs.parse_matrix(_UNSTRUCTURED), regularity.CheckConfig(horizon=2000, theta=0.001)
    memo = regularity.CheckMemo()
    first = [CHECKS[t](a, fin, fin, cfg=cfg, memo=memo) for t in ("allen", "cfo", "leo")]
    before = [v.to_dict() for v in first]
    for condition in first[1].conditions:
        condition.details["limsup_estimate"] = -1.0
    assert first[0].to_dict() == before[0] and first[2].to_dict() == before[2]
    again = [CHECKS[t](a, fin, fin, cfg=cfg, memo=memo) for t in ("allen", "cfo", "leo")]
    assert [v.to_dict() for v in again] == before


def test_absolute_conditions_of_a_signed_matrix_are_judged_apart(monkeypatch):
    # -1·Cesàro: the signed row sums over E are minus the absolute ones, so a
    # signed result would put a negative limsup into L2.
    a, fin = specs.parse_matrix({"type": "scaled", "factor": -1.0, "of": "cesaro"}), specs.parse_ideal("fin")
    cfg = regularity.CheckConfig(horizon=2000)
    alone = regularity.leo_check(a, fin, fin, cfg=cfg)
    memo = regularity.CheckMemo()
    family = memo.family(fin, cfg.seed)
    signed = regularity._family_conditions(
        "L2", regularity._limsup_condition, 1.0, a, family.sets_positive, fin, cfg, memo, absolute=False
    )
    assert all(c.ok is False and c.details["limsup_estimate"] < 0 for c in signed)
    limsup_calls = []
    limsup = regularity.limsup_of_values
    monkeypatch.setattr(regularity, "limsup_of_values", lambda *args, **kw: limsup_calls.append(1) or limsup(*args, **kw))
    assert regularity.leo_check(a, fin, fin, cfg=cfg, memo=memo).to_dict() == alone.to_dict()
    assert len(limsup_calls) == len(family.sets_positive)


def test_no_transformed_sequence_outlives_its_row(monkeypatch):
    refs, alive = [], []
    transformed = constructions.transformed_sequence

    def watched_transform(a, x, horizon):
        alive.append(sum(ref() is not None for ref in refs))
        ax = transformed(a, x, horizon)
        refs.append(weakref.ref(ax))
        return ax

    monkeypatch.setattr(constructions, "transformed_sequence", watched_transform)
    pairs = [*_EXPERIMENT_SUITE["ideal_pairs"], ["z", "z"]]
    suite = {**_EXPERIMENT_SUITE, "ideal_pairs": pairs}
    bundle = harness.run_suite(specs.parse_experiment_config(suite))
    assert {i["status"] for i in bundle.items} == {"satisfied", "violated", "inconclusive"}
    # No A·x is alive when the next one is built, nor after the suite, where the
    # last one came from a Cesàro (z, z) row whose core raised.
    assert alive and alive == [0] * len(alive)
    assert all(ref() is None for ref in refs)


def test_undecidable_experiment_is_inconclusive():
    # Cesàro's images of signed_blocks and indicator_blocks have no exact
    # limit, and the estimator cannot decide their Z-cores.
    suite = {**_EXPERIMENT_SUITE, "matrices": ["cesaro"], "ideal_pairs": [["z", "z"]]}
    bundle = harness.run_suite(specs.parse_experiment_config(suite))
    (item,) = bundle.items
    assert item["status"] == "inconclusive"
    assert item["message"].startswith("InconclusiveCellsError: inconclusive cells")
    assert "experiment" not in item and "error" not in item
    assert bundle.summary["exit_code"] == 2


def test_suite_reports_are_byte_identical(tmp_path):
    config = specs.parse_experiment_config(_bundled("knopp.json"))
    paths = []
    for i in range(2):
        bundle = harness.run_suite(config)
        p_json = harness.write_reports(bundle, tmp_path / f"r{i}.json", "json")
        p_csv = harness.write_reports(bundle, tmp_path / f"r{i}.csv", "csv")
        paths.append((p_json.read_bytes(), p_csv.read_bytes()))
    assert paths[0] == paths[1]


def test_suite_collects_item_errors():
    config = specs.ExperimentConfig(
        matrices=({"type": "rk", "map": {"type": "identity"}}, {"type": "banded", "rows": [], "tail": "repeat_last"}),
        ideal_pairs=(("fin", "fin"),),
        theorems=("st",),
        corpus_labels=("all",),
        core_equality=False,
        check_horizon=500,
        core_horizon=500,
        tol=0.01,
        grid=0.01,
        theta=0.001,
        seed=0,
    )
    bundle = harness.run_suite(config)
    statuses = sorted(i["status"] for i in bundle.items)
    assert "error" in statuses and "satisfied" in statuses
    assert bundle.summary["exit_code"] == 1


def test_exit_code_rules():
    assert harness.exit_code([{"status": "satisfied"}]) == 0
    assert harness.exit_code([{"status": "satisfied"}, {"status": "inconclusive"}]) == 2
    assert harness.exit_code([{"status": "inconclusive"}, {"status": "violated"}]) == 1
    assert harness.exit_code([{"status": "error"}]) == 1


def test_list_catalog_contents():
    text = harness.list_catalog()
    assert "DensityZero: P-ideal, tall" in text
    assert "Cesaro" in text
    ideal_lines = [l for l in text.splitlines() if l.startswith("  ") and "P-ideal" in l or "P+-ideal" in l]
    assert len(ideal_lines) >= 6
    assert "alternating" in text


def test_list_catalog_lists_each_ideal_once():
    # A countably generated ideal is a trace-finite copy, already listed as one.
    ideals = harness.list_catalog().split("\n\n", 1)[0].splitlines()[1:]
    summaries = [line.split(": ", 1)[1] for line in ideals]
    assert len(set(summaries)) == len(summaries) == 6
    assert sum("Fin(+)P(omega) copy" in s for s in summaries) == 1


# -- CLI --------------------------------------------------------------------------


def test_cli_check_allen_cesaro():
    runner = CliRunner()
    result = runner.invoke(main, ["check", "--matrix", "cesaro", "--theorem", "allen"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["status"] == "violated"
    assert payload["witness"]["set"] == {"type": "squares"}


def test_cli_check_rk_leo_satisfied():
    runner = CliRunner()
    matrix = json.dumps({"type": "rk", "map": {"type": "affine", "mul": 2}})
    result = runner.invoke(
        main,
        ["check", "--matrix", matrix, "--ideal-i", "fin-oplus-evens", "--ideal-j", "fin", "--theorem", "leo"],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["status"] == "satisfied"


def test_cli_experiment(tmp_path):
    runner = CliRunner()
    config = _bundled("knopp.json")
    config_path = tmp_path / "knopp.json"
    config_path.write_text(json.dumps(config))
    out_path = tmp_path / "report.csv"
    result = runner.invoke(
        main, ["experiment", "--config", str(config_path), "--output", str(out_path), "--format", "csv"]
    )
    assert result.exit_code == 1
    text = out_path.read_text()
    assert text.splitlines()[0].startswith("item,kind,matrix")
    assert "alternating" in text
    # a JSON summary accompanies the written table (runner mixes stderr in)
    blob = result.output[result.output.index("{") : result.output.rindex("}") + 1]
    assert json.loads(blob)["exit_code"] == 1


def _undeclared_entry(label):
    """The corpus entry with its structure hidden, so its core takes the value path."""
    return _strip_levels(sequences.corpus_entry(label))


def test_cli_core_names_the_settings_it_rests_on(monkeypatch):
    runner = CliRunner()
    args = ["core", "--sequence", "rotation_golden", "--ideal", "fin", "--horizon", "10000"]
    with monkeypatch.context() as patched:
        patched.setattr(cli, "corpus_entry", _undeclared_entry)
        result = runner.invoke(main, args)
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["method"] == "numeric"
    assert (payload["horizon"], payload["grid"], payload["theta"]) == (10000, 0.01, 1e-3)
    # rotation_golden itself declares its equidistribution: exact, on no setting.
    payload = json.loads(runner.invoke(main, args).output)
    assert (payload["lo"], payload["hi"], payload["method"]) == (0.0, 1.0, "exact")
    assert (payload["horizon"], payload["grid"], payload["theta"]) == (None, None, None)
    result = runner.invoke(main, ["core", "--sequence", "alternating", "--ideal", "fin", "--horizon", "10000"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert (payload["lo"], payload["hi"]) == (-1.0, 1.0)
    result = runner.invoke(main, ["core", "--sequence", "indicator_squares", "--ideal", "z"])
    payload = json.loads(result.output)
    assert payload["method"] == "exact" and (payload["lo"], payload["hi"]) == (0.0, 0.0)
    assert (payload["horizon"], payload["grid"], payload["theta"]) == (None, None, None)


def test_cli_mixed_core_records_horizon_and_theta():
    trace = '{"type": "fin_oplus_full", "trace": {"type": "root_blocks", "residue": 0, "modulus": 2}}'
    args = ["core", "--sequence", "indicator_blocks", "--ideal", trace, "--theta", "0.002"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["method"] == "mixed"
    assert (payload["horizon"], payload["theta"], payload["grid"]) == (100_000, 0.002, None)


@pytest.mark.parametrize(
    "sequence, ideal, horizon, message, cells",
    [
        ("rotation_golden", "erdos_ulam_log", 5000, "inconclusive cells above the largest surviving value", 1),
        ("rotation_golden", "summable_harmonic", 20000, "only inconclusive cells survived", 1),
    ],
    ids=["rotation_golden-erdos_ulam_log", "rotation_golden-summable_harmonic"],
)
def test_cli_inconclusive_core_reports_and_exits_2(sequence, ideal, horizon, message, cells, monkeypatch):
    monkeypatch.setattr(cli, "corpus_entry", _undeclared_entry)
    args = ["core", "--sequence", sequence, "--ideal", ideal, "--horizon", str(horizon)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)
    assert payload["status"] == "inconclusive"
    assert payload["message"] == f"InconclusiveCellsError: {message}"
    assert (payload["sequence"], payload["ideal"]) == (f"{sequence}(numeric)", ideal)
    assert (payload["horizon"], payload["grid"], payload["theta"]) == (horizon, 0.01, 1e-3)
    assert len(payload["cells"]) == cells
    assert all(lo < hi for lo, hi in payload["cells"])


def test_cli_core_of_a_declared_limit_is_exact():
    # alternating_decay tends to 0, so its core is [0, 0] under every ideal
    # that contains Fin; the estimator left it inconclusive under Z.
    args = ["core", "--sequence", "alternating_decay", "--ideal", "z", "--horizon", "20000"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert (payload["lo"], payload["hi"], payload["method"]) == (0.0, 0.0, "exact")


def test_cli_check_with_family_file(tmp_path):
    family = {
        "sets_in_ideal": [{"type": "explicit", "elements": [0, 1]}],
        "sets_positive": [{"type": "arithmetic_progression", "offset": 0, "step": 2}],
        "sets_infinite": [{"type": "arithmetic_progression", "offset": 0, "step": 2}],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    runner = CliRunner()
    result = runner.invoke(
        main, ["check", "--matrix", "identity", "--theorem", "leo", "--family", str(path)]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    names = [c["name"] for c in payload["conditions"]]
    assert "L2[ap(0,2)]" in names


def test_cli_density():
    runner = CliRunner()
    result = runner.invoke(
        main, ["density", "--set", '{"type": "squares"}', "--horizon", "10000"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["exact"] == {"value": "0"}
    assert payload["empirical"]["upper"] <= 0.02


def test_cli_env_default_horizon(monkeypatch):
    runner = CliRunner()
    monkeypatch.setattr(cli, "corpus_entry", _undeclared_entry)
    monkeypatch.setenv("IDEALCORE_DEFAULT_HORIZON", "12345")
    result = runner.invoke(main, ["core", "--sequence", "rotation_golden", "--ideal", "fin"])
    assert result.exit_code == 0
    assert json.loads(result.output)["horizon"] == 12345


def test_cli_catalog():
    runner = CliRunner()
    result = runner.invoke(main, ["catalog"])
    assert result.exit_code == 0
    assert "DensityZero: P-ideal, tall" in result.output
    assert "Cesaro" in result.output


@pytest.mark.parametrize("theorem", list(CHECKS))
def test_cli_check_matches_suite_verdict(theorem):
    matrix = {"type": "rk", "map": {"type": "affine", "mul": 2}}
    config = specs.ExperimentConfig(
        matrices=(matrix,),
        ideal_pairs=(("fin_oplus_evens", "fin"),),
        theorems=(theorem,),
        corpus_labels=("all",),
        core_equality=False,
        check_horizon=2000,
        core_horizon=2000,
        tol=0.02,
        grid=0.01,
        theta=0.001,
        seed=3,
    )
    (item,) = harness.run_suite(config).items
    result = CliRunner().invoke(
        main,
        [
            "check", "--matrix", json.dumps(matrix), "--ideal-i", "fin_oplus_evens", "--ideal-j", "fin",
            "--theorem", theorem, "--horizon", "2000", "--tol", "0.02", "--grid", "0.01",
            "--theta", "0.001", "--seed", "3",
        ],
    )
    assert result.output == json.dumps(item["verdict"], sort_keys=True, indent=2) + "\n"
    assert result.exit_code == {"satisfied": 0, "violated": 1, "inconclusive": 2}[item["status"]]


def test_cli_check_negative_entry_is_a_cli_error():
    matrix = json.dumps({"type": "scaled", "factor": -1, "of": "identity"})
    result = CliRunner().invoke(main, ["check", "--matrix", matrix, "--theorem", "cfo"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a reported error, not a traceback
    assert "Error: negative entry a[0,0] = -1.0" in result.output


def test_cli_check_misclassified_family_is_a_cli_error(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"sets_in_ideal": [{"type": "arithmetic_progression", "offset": 0, "step": 2}]}))
    result = CliRunner().invoke(main, ["check", "--matrix", "identity", "--theorem", "st", "--family", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "is not in the ideal" in result.output


def test_cli_check_malformed_family_names_the_set(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"sets_positive": [{"type": "squares"}, {"type": "explicit", "elements": "12"}]}))
    result = CliRunner().invoke(main, ["check", "--matrix", "identity", "--theorem", "leo", "--family", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "family.sets_positive[1].elements: must be a list" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["check", "--matrix", "identity", "--theorem", "st"],
        ["experiment", "--config", str(_bundled_path("knopp.json"))],
        ["core", "--sequence", "alternating"],
        ["density", "--set", '{"type": "squares"}'],
    ],
    ids=lambda args: args[0],
)
def test_cli_malformed_env_horizon_is_a_cli_error(monkeypatch, args):
    monkeypatch.setenv("IDEALCORE_DEFAULT_HORIZON", "abc")
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "IDEALCORE_DEFAULT_HORIZON" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["check", "--matrix", "cesaro", "--theorem", "allen", "--horizon", "50"],
        ["core", "--sequence", "alternating", "--horizon", "50"],
    ],
    ids=lambda args: args[0],
)
def test_cli_small_horizon_is_a_cli_error(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Error: horizon must be at least 100" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["core", "--sequence", "alternating_decay", "--ideal", "z", "--theta", "-1"], "theta must lie in (0, 1)"),
        (["core", "--sequence", "indicator_squares", "--theta", "2"], "theta must lie in (0, 1)"),
        (["core", "--sequence", "indicator_squares", "--horizon", "50"], "horizon must be at least 100"),
        (["core", "--sequence", "rotation_golden", "--horizon", "1000", "--grid", "nan"], "grid resolution must be finite"),
        (["core", "--sequence", "rotation_golden", "--horizon", "1000", "--grid", "inf"], "grid resolution must be finite"),
        (["check", "--matrix", "identity", "--theorem", "st", "--tol", "-1"], "tol must be nonnegative"),
        (["check", "--matrix", "cesaro", "--theorem", "allen", "--tol", "inf"], "tol must be finite"),
        (["check", "--matrix", "identity", "--theorem", "st", "--theta", "0"], "theta must lie in (0, 1)"),
        (["check", "--matrix", "cesaro", "--theorem", "leo", "--horizon", "1000", "--grid", "nan"], "grid resolution must be finite"),
        (["check", "--matrix", "cesaro", "--theorem", "leo", "--horizon", "1000", "--grid", "-inf"], "grid resolution must be finite"),
    ],
    ids=[
        "core-theta",
        "core-theta-above-one",
        "core-horizon",
        "core-grid-nan",
        "core-grid-inf",
        "check-tol",
        "check-tol-inf",
        "check-theta",
        "check-grid-nan",
        "check-grid-minus-inf",
    ],
)
def test_cli_out_of_range_settings_are_cli_errors(args, message):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {message}" in result.output


def test_cli_experiment_out_of_range_cfg_is_a_cli_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_SUITE, "cfg": {"theta": -1}}))
    result = CliRunner().invoke(main, ["experiment", "--config", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Error: config.cfg: theta must lie in (0, 1)" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["core", "--sequence", "alternating", "--tol", "0.1"],
        ["core", "--sequence", "alternating", "--seed", "1"],
        ["density", "--set", '{"type": "squares"}', "--tol", "0.1"],
        ["density", "--set", '{"type": "squares"}', "--grid", "0.1"],
        ["density", "--set", '{"type": "squares"}', "--theta", "0.1"],
        ["density", "--set", '{"type": "squares"}', "--seed", "1"],
    ],
    ids=lambda args: f"{args[0]}{args[-2]}",
)
def test_cli_commands_take_only_the_settings_they_read(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert "No such option" in result.output and args[-2] in result.output


@pytest.mark.parametrize(
    "config, path",
    [
        ({"matrices": [{"type": "scaled", "factor": "two", "of": "cesaro"}]}, "config.matrices[0].factor"),
        ({"matrices": ["cesaro"], "cfg": {"tol": "x"}}, "config.cfg.tol"),
    ],
    ids=["factor", "tol"],
)
def test_cli_experiment_non_numeric_field_is_a_cli_error(tmp_path, config, path):
    path_file = tmp_path / "config.json"
    path_file.write_text(json.dumps({"ideal_pairs": [["fin", "fin"]], "theorems": ["st"], **config}))
    result = CliRunner().invoke(main, ["experiment", "--config", str(path_file)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {path}: must be a number" in result.output


def test_cli_density_small_horizon_is_a_cli_error():
    result = CliRunner().invoke(main, ["density", "--set", '{"type": "squares"}', "--horizon", "1"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Error: horizon must be at least 2" in result.output
