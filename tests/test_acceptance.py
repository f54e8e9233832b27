"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from idealcore import asymptotics as asy
from idealcore import constructions as con
from idealcore import harness
from idealcore import ideals as ide
from idealcore import maps
from idealcore import matrices as mat
from idealcore import regularity as reg
from idealcore import sequences as seq
from idealcore import sets as sd
from idealcore import specs
from tests.test_asymptotics import KNOWN_DEFECTS, _strip_levels
from tests.test_regularity import random_nonneg_matrix

FIN = ide.fin()
Z = ide.density_zero()
FO_EVENS = ide.fin_oplus_full(sd.evens())

STRUCTURED_LABELS = [
    "alternating",
    "indicator_evens",
    "indicator_squares",
    "signed_blocks",
    "periodic_three_level",
    "blockwise_three_level",
    "indicator_blocks",
]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_core_representation():
    # The value-prefix path (level sets and limit stripped) against the core
    # read off the level sets.  The pairs that deviate must be exactly the
    # known defects: a new deviation fails, and so does a listed pair that
    # stops deviating.
    cfg = asy.CoreConfig(horizon=10**5, grid=1e-2, theta=1e-3)
    ideals = [FIN, Z, FO_EVENS]
    t0 = time.perf_counter()
    worst = 0.0
    deviating = set()
    for label in STRUCTURED_LABELS:
        x = seq.corpus_entry(label)
        for ideal in ideals:
            numeric = asy.core(_strip_levels(x), ideal, cfg)
            levels = asy.core(x, ideal, cfg)
            deviation = max(abs(numeric.lo - levels.lo), abs(numeric.hi - levels.hi))
            if deviation > cfg.grid:
                deviating.add((label, ideal.label))
            else:
                worst = max(worst, deviation)
    elapsed = time.perf_counter() - t0
    pairs = len(STRUCTURED_LABELS) * len(ideals)
    known = {pair for pair in KNOWN_DEFECTS if pair[1] in {ideal.label for ideal in ideals}}
    ok = deviating == known and elapsed < 30.0
    listed = ", ".join(f"({label}, {ideal})" for label, ideal in sorted(known))
    _report(1, ok, f"{pairs} pairs, max deviation {worst:.2e} off the known defects [{listed}], {elapsed:.1f}s")
    assert deviating == known
    assert elapsed < 30.0


def test_criterion_2_cesaro_regularity():
    horizon = 10**4
    c = mat.cesaro()
    verdict = reg.silverman_toeplitz_check(c, FIN, FIN, cfg=reg.CheckConfig(horizon=horizon))
    # independent row-sum computation straight from materialized rows
    deviations = [abs(float(np.sum(c.row(n).values)) - 1.0) for n in range(horizon)]
    max_dev = max(deviations)
    fsum_dev = max(abs(math.fsum(c.row(n).values.tolist()) - 1.0) for n in (0, 1, 17, 9999))
    col_entry = float(np.max(np.abs(c.row(horizon).values)))
    col_ok = abs(col_entry - 1.0 / (horizon + 1)) <= 1e-12
    ok = verdict.status is reg.Status.SATISFIED and max_dev <= 1e-12 and fsum_dev <= 1e-12 and col_ok
    _report(2, ok, f"status {verdict.status.value}, row-sum dev {max_dev:.2e}, "
                   f"entry@{horizon} {col_entry:.6e}")
    assert verdict.status is reg.Status.SATISFIED
    assert max_dev <= 1e-12
    assert fsum_dev <= 1e-12
    assert col_ok


def test_criterion_3_knopp_core_failure_of_cesaro():
    verdict = reg.allen_check(mat.cesaro(), cfg=reg.CheckConfig(horizon=10**4))
    witness_ok = verdict.status is reg.Status.VIOLATED and verdict.witness_set == sd.squares()
    cond = next(c for c in verdict.conditions if c.name == "A3[squares]")
    evidence_ok = cond.details["value_at_horizon"] <= 0.02
    report = con.core_equality_experiment(
        mat.cesaro(), FIN, FIN, [seq.corpus_entry("alternating")], asy.CoreConfig(horizon=10**4)
    )
    row = report.rows[0]
    transform_ok = (
        row.core_x.as_tuple() == (-1.0, 1.0)
        and abs(row.core_ax.lo) <= 0.02
        and abs(row.core_ax.hi) <= 0.02
    )
    ok = witness_ok and evidence_ok and transform_ok
    _report(3, ok, f"witness squares, sum@1e4 {cond.details['value_at_horizon']:.4f}, "
                   f"transformed core ({row.core_ax.lo:.4f}, {row.core_ax.hi:.4f})")
    assert witness_ok
    assert evidence_ok
    assert transform_ok


def test_criterion_4_rk_construction():
    t0 = time.perf_counter()
    a = mat.rk_matrix(maps.affine_map(2))
    verdict = reg.leo_check(a, FO_EVENS, FIN, cfg=reg.CheckConfig(horizon=10**4))
    # The indicator of 4ℕ, whose image is the indicator of the evens, also
    # stands for criterion 6 (the sufficiency instance).
    entries = [*seq.corpus(), seq.indicator(sd.ap(0, 4), label="indicator_ap04")]
    report = con.core_equality_experiment(a, FO_EVENS, FIN, entries, asy.CoreConfig(horizon=10**5))
    elapsed = time.perf_counter() - t0
    ok = (
        verdict.status is reg.Status.SATISFIED
        and report.max_deviation <= 1e-2
        and elapsed < 60.0
    )
    _report(4, ok, f"leo {verdict.status.value}, max core deviation {report.max_deviation:.2e}, "
                   f"{elapsed:.1f}s")
    assert verdict.status is reg.Status.SATISFIED
    assert report.max_deviation <= 1e-2
    assert elapsed < 60.0


def test_criterion_5_core_stability():
    cfg = asy.CoreConfig(horizon=10**5)
    alt = seq.corpus_entry("alternating")
    rot = seq.corpus_entry("rotation_golden")
    sqx = seq.corpus_entry("indicator_squares")
    pairs = [
        (alt, seq.BoundedSequence(lambda n: alt.fn(n) + 1.0 / (n + 1), 2.0, "alt+1/(n+1)"), FIN),
        (
            seq.corpus_entry("indicator_evens"),
            seq.combine(seq.corpus_entry("indicator_evens"), seq.indicator(sd.squares()), "add"),
            Z,
        ),
        (
            seq.corpus_entry("periodic_three_level"),
            seq.combine(seq.corpus_entry("periodic_three_level"), seq.indicator(sd.squares()), "add"),
            Z,
        ),
        (rot, seq.BoundedSequence(lambda n: rot.fn(n) + (n + 1.0) ** -2, 2.0, "rot+1/(n+1)^2"), FIN),
        (sqx, seq.BoundedSequence(lambda n: sqx.fn(n) + 1.0 / (n + 1), 2.0, "sq+1/(n+1)"), FIN),
    ]
    # y − x is ideal-null exactly when its core under the ideal is {0}, and
    # then x and y share their core.
    nulls, deviations = [], []
    for x, y, ideal in pairs:
        d = asy.core(seq.combine(y, x, "sub"), ideal, cfg)
        cx, cy = asy.core(x, ideal, cfg), asy.core(y, ideal, cfg)
        nulls.append(max(abs(d.lo), abs(d.hi)))
        deviations.append(max(abs(cx.lo - cy.lo), abs(cx.hi - cy.hi)))
    ok = all(v <= 1e-2 for v in nulls + deviations)
    _report(5, ok, f"max difference core {max(nulls):.2e}, max core deviation {max(deviations):.2e}")
    for null, deviation in zip(nulls, deviations):
        assert null <= 1e-2
        assert deviation <= 1e-2


def test_criterion_7_checker_coherence():
    cfg = reg.CheckConfig(horizon=2000)
    mismatches = []
    for seed in range(20):
        a = random_nonneg_matrix(seed)
        leo_v = reg.leo_check(a, FO_EVENS, FIN, cfg=cfg)
        cfo_v = reg.cfo_check(a, FO_EVENS, FIN, cfg=cfg)
        if leo_v.status is not cfo_v.status:
            mismatches.append(("leo/cfo", seed, leo_v.status, cfo_v.status))
        allen_v = reg.allen_check(a, cfg=cfg)
        leo_fin = reg.leo_check(a, FIN, FIN, cfg=cfg)
        if allen_v.status is not leo_fin.status:
            mismatches.append(("allen/leo", seed, allen_v.status, leo_fin.status))
    ok = not mismatches
    _report(7, ok, f"20 seeded nonnegative matrices, {len(mismatches)} disagreements")
    assert not mismatches, mismatches


def test_criterion_8_determinism(tmp_path):
    import importlib.resources

    ok = True
    details = []
    for name in ("knopp.json", "thm25.json"):
        raw = json.loads(importlib.resources.files("idealcore").joinpath(f"configs/{name}").read_text())
        config = specs.parse_experiment_config(raw)
        outputs = []
        for i in range(2):
            bundle = harness.run_suite(config)
            outputs.append((harness.render_json(bundle), harness.render_csv(bundle)))
        same = outputs[0] == outputs[1]
        ok = ok and same
        details.append(f"{name}: {'identical' if same else 'DIFFERS'}")
        assert same, name
    _report(8, ok, "; ".join(details))
