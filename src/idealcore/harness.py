"""Suite execution, catalog listing, and deterministic report emission.

Suite items run one after another in declaration order, matrix by matrix.
Each ideal spec is parsed once per suite, the corpus is built once per suite,
and each default test family is built once per (ideal, seed).  A matrix is
parsed once for its group of items (its ideal pairs times its theorems and
experiment).  Shared results live in a ``regularity.CheckMemo``, keyed by
values (``"z"`` and ``"density_zero"`` are one ideal): each core(x, I) of a
corpus entry once per suite, and, within a group, the Silverman–Toeplitz
verdict of each pair, the Allen verdict and each family condition (the row
sums over one family set judged under J: T3, A3, C2 and L2, so the C2 and L2
of a nonnegative matrix and its (Fin, Fin) A3 are one computation).  The
group's first experiment item runs the experiments of all its pairs entry by
entry (``constructions.core_equality_experiments``): for each corpus entry x,
one A·x serves every J, at most one A·x is alive at a time, each value prefix
is gridded once, and each core(A·x, J) is computed once and not kept; each
experiment item then reports its own pair's outcome.  When the group ends
the matrix goes, with every row and CSR cached on it and its memo entries.
Each item's entry in ``ReportBundle.timings`` is its wall time, so the first
item of a group carries the matrix parse, and the first item to need a shared
result carries its cost: the first experiment item carries every pair's
experiment.  An item that raises ``InconclusiveCellsError`` (an experiment
whose cores the estimators cannot decide) is ``inconclusive``, with the
estimator's message.  Written reports embed the fully resolved configuration
and contain no timestamps, making identical configs produce byte-identical
files.  Timings live only in the returned bundle.  ``dumps`` writes every
indented JSON text, reports and CLI output alike, with the bytes of
``json.dumps(..., sort_keys=True, indent=2)``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import ideals as ide
from . import sequences as seq
from . import sets as sd
from .asymptotics import InconclusiveCellsError
from .constructions import core_equality_experiments
from .records import record
from .regularity import CHECKS, CheckMemo
from .specs import ConfigError, ExperimentConfig, parse_ideal, parse_matrix

__all__ = ["ReportBundle", "run_suite", "list_catalog", "write_reports", "exit_code", "dumps"]

_CSV_COLUMNS = [
    "item",
    "kind",
    "matrix",
    "ideal_i",
    "ideal_j",
    "theorem",
    "corpus_label",
    "status",
    "witness",
    "deviation",
    "core_x_lo",
    "core_x_hi",
    "core_ax_lo",
    "core_ax_hi",
    "core_x_method",
    "core_ax_method",
]

@record(frozen=True)
class ReportBundle:
    items: tuple[dict, ...]
    resolved_config: dict
    summary: dict
    timings: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {"config": self.resolved_config, "items": list(self.items), "summary": self.summary}


def _select_corpus(labels: tuple[str, ...]) -> list[seq.BoundedSequence]:
    entries = seq.corpus()
    if list(labels) == ["all"]:
        return entries
    by_label = {x.label: x for x in entries}
    missing = [l for l in labels if l not in by_label]
    if missing:
        raise ConfigError("config.corpus_labels", f"unknown labels: {missing}")
    return [by_label[l] for l in labels]


def _parse_once(cache: dict, parse, spec):
    """``parse(spec)``, kept in ``cache`` under the spec's JSON text (the
    corpus under its list of labels).  A failed parse is not kept: the next
    item parses again and fails the same way."""
    key = json.dumps(spec, sort_keys=True)
    if key not in cache:
        cache[key] = parse(spec)
    return cache[key]


def _parsed_pairs(config: ExperimentConfig, parsed: dict) -> dict[int, tuple]:
    """The ideal pairs of the suite by position, parsed; a pair whose spec
    fails to parse is left out, and its items report that failure."""
    pairs = {}
    for p, (ispec, jspec) in enumerate(config.ideal_pairs):
        try:
            pairs[p] = (_parse_once(parsed, parse_ideal, ispec), _parse_once(parsed, parse_ideal, jspec))
        except Exception:
            continue
    return pairs


def _fail(payload: dict, exc: Exception) -> None:
    """Record an item's exception: ``inconclusive`` with the message of an
    ``InconclusiveCellsError``, ``error`` otherwise."""
    if isinstance(exc, InconclusiveCellsError):
        payload["status"] = "inconclusive"
        payload["message"] = f"{type(exc).__name__}: {exc}"
    else:
        payload["status"] = "error"
        payload["error"] = f"{type(exc).__name__}: {exc}"


def _run_group(
    mspec,
    config: ExperimentConfig,
    parsed: dict,
    memo: CheckMemo,
    results: list[dict],
    timings: list[tuple[str, float]],
) -> None:
    """Run the items of one matrix, appending to ``results`` and ``timings``.

    The first item parses the matrix; the group's items share it and ``memo``,
    and both go, with every row and CSR cached on the matrix, when the group
    returns.  The first experiment item runs the experiments of every pair,
    entry by entry (``core_equality_experiments``), and each experiment item
    reports its pair's outcome.  ``parsed`` holds the suite's ideals and corpus.
    """
    cfg = config.check_config()
    kinds = [("check", theorem) for theorem in config.theorems]
    if config.core_equality:
        kinds.append(("experiment", ""))
    a = experiments = None
    for p, (ispec, jspec) in enumerate(config.ideal_pairs):
        for kind, theorem in kinds:
            i = len(results)
            t0 = time.perf_counter()
            payload = {
                "kind": kind,
                "theorem": theorem,
                "matrix": _spec_label(mspec),
                "ideal_i": _spec_label(ispec),
                "ideal_j": _spec_label(jspec),
                "item": i,
            }
            try:
                if a is None:
                    a = parse_matrix(mspec)
                ideal_i = _parse_once(parsed, parse_ideal, ispec)
                ideal_j = _parse_once(parsed, parse_ideal, jspec)
                if kind == "check":
                    verdict = CHECKS[theorem](a, ideal_i, ideal_j, cfg=cfg, memo=memo)
                    payload["status"] = verdict.status.value
                    payload["verdict"] = verdict.to_dict()
                else:
                    if experiments is None:
                        pairs = _parsed_pairs(config, parsed)
                        corpus_entries = _parse_once(parsed, _select_corpus, config.corpus_labels)
                        reports = core_equality_experiments(
                            a, list(pairs.values()), corpus_entries, config.core_config(), memo=memo
                        )
                        experiments = dict(zip(pairs, reports))
                    report = experiments[p]
                    if isinstance(report, Exception):
                        _fail(payload, report)
                    else:
                        payload["status"] = "satisfied" if report.max_deviation <= config.tol else "violated"
                        payload["experiment"] = report.to_dict()
            except Exception as exc:  # collected per item, never aborts the suite
                _fail(payload, exc)
            results.append(payload)
            timings.append((f"item{i}", time.perf_counter() - t0))


def run_suite(config: ExperimentConfig) -> ReportBundle:
    """Execute every requested check and experiment; failures are per-item."""
    results: list[dict] = []
    timings: list[tuple[str, float]] = []
    parsed: dict = {}
    families: dict = {}
    cores: dict = {}
    for mspec in config.matrices:
        _run_group(mspec, config, parsed, CheckMemo(families, cores), results, timings)

    counts = {"satisfied": 0, "violated": 0, "inconclusive": 0, "error": 0}
    for r in results:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    summary = {"counts": counts, "exit_code": exit_code(results)}
    return ReportBundle(tuple(results), config.resolved(), summary, tuple(timings))


def _spec_label(spec) -> str:
    if isinstance(spec, str):
        return spec
    if isinstance(spec, dict):
        return spec.get("type", "?")
    return str(spec)


def exit_code(items) -> int:
    """0 iff everything satisfied, 1 on any violation/error, 2 when only inconclusive remain."""
    statuses = {r["status"] for r in items}
    if statuses & {"violated", "error"}:
        return 1
    if "inconclusive" in statuses:
        return 2
    return 0


def _csv_rows(bundle: ReportBundle) -> list[dict]:
    rows = []
    for item in bundle.items:
        base = {c: "" for c in _CSV_COLUMNS}
        base.update(
            item=item["item"],
            kind=item["kind"],
            matrix=item["matrix"],
            ideal_i=item["ideal_i"],
            ideal_j=item["ideal_j"],
            theorem=item.get("theorem", ""),
            status=item["status"],
        )
        if item["kind"] == "check":
            witness = item.get("verdict", {}).get("witness")
            base["witness"] = json.dumps(witness, sort_keys=True) if witness else ""
            rows.append(base)
        elif "experiment" in item:
            for r in item["experiment"]["rows"]:
                row = dict(base)
                row.update(
                    corpus_label=r["label"],
                    deviation=repr(r["deviation"]),
                    core_x_lo=repr(r["core_x_lo"]),
                    core_x_hi=repr(r["core_x_hi"]),
                    core_ax_lo=repr(r["core_ax_lo"]),
                    core_ax_hi=repr(r["core_ax_hi"]),
                    core_x_method=r["core_x_method"],
                    core_ax_method=r["core_ax_method"],
                )
                rows.append(row)
        else:
            rows.append(base)
    return rows


def render_csv(bundle: ReportBundle) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in _csv_rows(bundle):
        writer.writerow(row)
    return buf.getvalue()


def _encode(o, indent: str) -> str:
    """``o`` as ``json.dumps(o, sort_keys=True, indent=2)`` writes it at this
    indent: exact types first, then subclasses as their base type."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is float:
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    if t is dict:
        if not o:
            return "{}"
        inner = indent + "  "
        items = [encode_basestring_ascii(k) + ": " + _encode(o[k], inner) for k in sorted(o)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = indent + "  "
        return "[\n" + inner + (",\n" + inner).join([_encode(v, inner) for v in o]) + "\n" + indent + "]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is int:
        return int.__repr__(o)
    if isinstance(o, str):
        # As json does: the string data, not ``str(o)``, which a subclass
        # such as a (str, Enum) member overrides.
        return encode_basestring_ascii(o)
    for base in (int, float, list, tuple, dict):
        if isinstance(o, base):
            return _encode(base(o), indent)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, where
    every dict key is a str.  With ``indent``, ``json`` takes its pure-Python
    encoder; this one dispatches on the exact type, joins strings recursively
    and escapes them with the C ``encode_basestring_ascii``, in about half the
    time.  Reports and the CLI's JSON output go through it."""
    return _encode(obj, "")


def render_json(bundle: ReportBundle) -> str:
    return dumps(bundle.to_dict()) + "\n"


def write_reports(bundle: ReportBundle, output: str | Path, fmt: str = "json") -> Path:
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path.write_text(render_csv(bundle))
    elif fmt == "json":
        path.write_text(render_json(bundle))
    else:
        raise ConfigError("config.output.format", f"unknown format {fmt!r}")
    return path


def list_catalog() -> str:
    """Human-readable catalog of ideals, matrices, and corpus entries."""
    lines = ["Ideals:"]
    catalog: list[ide.Ideal] = [
        ide.fin(),
        ide.density_zero(),
        ide.erdos_ulam(),
        ide.summable(),
        ide.fin_oplus_full(sd.evens()),
        ide.fin_times_empty(),
    ]
    for ideal in catalog:
        lines.append(f"  {ideal.label}: {ideal.classify().summary()}")
    lines.append("")
    lines.append("Matrices:")
    for label, desc in [
        ("Cesaro", "row n averages the first n+1 terms"),
        ("Identity", "diagonal ones"),
        ("Zero", "all entries zero"),
        ("Rk[map]", "single 1 per row at the mapped column (spec type 'rk')"),
        ("Diagonal", "diagonal from a value rule (spec type 'diagonal')"),
        ("Banded", "explicit rows from JSON with a declared tail rule"),
    ]:
        lines.append(f"  {label}: {desc}")
    lines.append("")
    lines.append("Corpus:")
    for x in seq.corpus():
        kind = "structured" if x.structured else "numeric-only"
        lines.append(f"  {x.label}: bound {x.bound:g}, {kind}")
    return "\n".join(lines) + "\n"
