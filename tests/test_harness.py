"""Suite execution, report determinism, config validation, CLI surface."""

import collections
import hashlib
import importlib.resources
import json
import time
import weakref

import pytest
from click.testing import CliRunner

from idealcore import asymptotics, constructions, harness, regularity, sequences, specs
from idealcore.cli import main
from idealcore.regularity import CHECKS


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
    assert err.value.path == "config.ideal_pairs[0][0]"


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


def test_suite_timings_are_per_item(bundled_runs):
    # Items run one at a time, so their own times cannot add up to more than
    # the suite's wall time.
    bundle, wall = bundled_runs["thm25.json"]
    assert [name for name, _ in bundle.timings] == [f"item{i}" for i in range(len(bundle.items))]
    assert sum(elapsed for _, elapsed in bundle.timings) <= wall


# sha256 of the (json, csv) reports of the bundled configs.  Only a deliberate
# change of results, noted in CHANGES.md, may update these hashes.
_REPORT_SHA256 = {
    "knopp.json": (
        "76ea35dd1844f3623427991a6fa90176589e5668b244e72d0e928845d9bd0b03",
        "fd62eac81ec744f0143e8eaa8a6f9c401e4c70c535d452249c23a7ce197aca93",
    ),
    "thm25.json": (
        "44d64b939c6d5a3bd77983415351bff4d45f06e8281d22d728c3e90801b2bbe2",
        "4ec91a0db27a4cd3c0f1c31a00eceebc25132188e579af737e29f992ba2f2858",
    ),
}


@pytest.mark.parametrize("name", sorted(_REPORT_SHA256))
def test_bundled_reports_are_pinned(bundled_runs, name):
    bundle, _ = bundled_runs[name]
    rendered = (harness.render_json(bundle), harness.render_csv(bundle))
    assert tuple(hashlib.sha256(r.encode()).hexdigest() for r in rendered) == _REPORT_SHA256[name]


_RK_2N = {"type": "rk", "map": {"type": "affine", "mul": 2}}
# Composed, summed and banded matrices take the generic row path (row merges and
# the flat CSR arrays), which the closed-form matrices of the bundled configs skip.
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
    "ac3012a6074e8b2842d87a76e71b9a66ed8dfdea7acf41d6f4b35992bc158654",
    "fc4cc730aef9c6e8c0ee5fd79c406947b069008988f25de2eb57e6aa7b824bd0",
)


def test_generic_matrix_reports_are_pinned():
    bundle = harness.run_suite(specs.parse_experiment_config(_GENERIC_SUITE))
    rendered = (harness.render_json(bundle), harness.render_csv(bundle))
    assert tuple(hashlib.sha256(r.encode()).hexdigest() for r in rendered) == _GENERIC_SHA256


# Signed banded rows reach the checkers' negative-entry search (cfo items end in
# NegativeEntryError), the applicability-guard notes, the row-sum sup past the
# norm cap and its T1 witness row; identity and Cesaro reach the closed forms.
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
    "27e11006d653a81e394a294ad3f395c1617f2f119be9595e175d01b74940f993",
    "8ac2ad120b20d2d9773d5b26fdb124a0fef27a39bf8efb371c1ad802ee0dfef2",
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
    core = regularity.core
    transformed = constructions.transformed_sequence

    def counting_core(x, ideal, cfg):
        core_calls.append((x.label, ideal.label))
        return core(x, ideal, cfg)

    def counting_transform(a, x, horizon):
        transform_calls.append((a.label, x.label, horizon))
        return transformed(a, x, horizon)

    monkeypatch.setattr(regularity, "core", counting_core)
    monkeypatch.setattr(constructions, "transformed_sequence", counting_transform)
    bundle = harness.run_suite(specs.parse_experiment_config(_EXPERIMENT_SUITE))
    assert {i["status"] for i in bundle.items} <= {"satisfied", "violated"}
    labels = [x.label for x in sequences.corpus()]
    # core(x, I) once per (corpus entry, I) for the whole suite: I is Fin, Fin ⊕ P(evens) or log.
    assert len(core_calls) == len(set(core_calls)) == 3 * len(labels)
    # One A·x per (matrix, entry, J), J being Fin or log: the (fin-oplus-evens, fin) and
    # ({"type": "fin"}, fin) items read the Fin cores of the (fin, fin) item.
    per_row = collections.Counter(transform_calls)
    assert len(per_row) == len(_EXPERIMENT_SUITE["matrices"]) * len(labels)
    assert set(per_row.values()) == {2}

    # A direct call has no memo to read from and computes every core itself.
    a, fin = specs.parse_matrix("cesaro"), specs.parse_ideal("fin")
    corpus, cfg = sequences.corpus(), asymptotics.CoreConfig(horizon=2000)
    core_calls.clear()
    transform_calls.clear()
    for _ in range(2):
        constructions.core_equality_experiment(a, fin, fin, corpus, cfg)
    assert len(core_calls) == len(transform_calls) == 2 * len(labels)


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
    suite = {**_EXPERIMENT_SUITE, "matrices": ["identity"], "ideal_pairs": [["z", "z"]]}
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


def test_cli_core_and_oracle():
    runner = CliRunner()
    result = runner.invoke(main, ["core", "--sequence", "alternating", "--ideal", "fin", "--horizon", "10000"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert (payload["lo"], payload["hi"]) == (-1.0, 1.0)
    assert payload["horizon"] == 10000
    assert payload["theta"] == 1e-3
    result = runner.invoke(main, ["core", "--sequence", "indicator_squares", "--ideal", "z", "--oracle"])
    payload = json.loads(result.output)
    assert payload["method"] == "exact" and (payload["lo"], payload["hi"]) == (0.0, 0.0)
    assert payload["horizon"] is None and payload["theta"] is None


def test_cli_mixed_oracle_records_horizon_and_theta():
    args = ["core", "--sequence", "indicator_blocks", "--ideal", "fin-oplus-evens", "--oracle", "--theta", "0.002"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["method"] == "mixed"
    assert (payload["horizon"], payload["theta"], payload["grid"]) == (100_000, 0.002, None)


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
    monkeypatch.setenv("IDEALCORE_DEFAULT_HORIZON", "12345")
    result = runner.invoke(main, ["core", "--sequence", "alternating", "--ideal", "fin"])
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
