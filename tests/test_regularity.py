"""Condition checkers: verdicts, witnesses, guards, and cross-checker coherence."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealcore import asymptotics as asy
from idealcore import harness, specs
from idealcore import ideals as ide
from idealcore import maps
from idealcore import matrices as mat
from idealcore import regularity as reg
from idealcore import sets as sd
from idealcore.regularity import CheckConfig, Status

FIN = ide.fin()
Z = ide.density_zero()
FO_EVENS = ide.fin_oplus_full(sd.evens())
CFG = CheckConfig()
FAST = CheckConfig(horizon=2000)


@pytest.mark.parametrize(
    "tol, message", [(math.inf, "finite"), (math.nan, "finite"), (-1.0, "nonnegative")], ids=["inf", "nan", "negative"]
)
def test_check_config_refuses_a_tol_out_of_range(tol, message):
    with pytest.raises(ValueError, match=f"tol must be {message}"):
        CheckConfig(tol=tol)


def random_nonneg_matrix(seed: int, horizon: int = 2000) -> mat.InfiniteMatrix:
    """Seeded nonnegative matrices: clean regular ones and planted violators."""
    rng = np.random.default_rng(seed)
    variant = seed % 3
    rows = []
    for n in range(horizon):
        width = int(rng.integers(2, 6))
        cols = sorted(set(int(c) for c in rng.integers(n, n + 8, size=width)))
        weights = rng.random(len(cols)) + 0.05
        weights = weights / weights.sum()
        if variant == 1:
            # pinned mass on column 0 violates the vanishing-column condition
            row = [(0, 0.4)] + [(c, 0.6 * w) for c, w in zip(cols, weights) if c > 0]
        elif variant == 2:
            # row sums drift to 1.3, violating the row-sum limit
            row = [(c, 1.3 * w) for c, w in zip(cols, weights)]
        else:
            row = list(zip(cols, weights))
        rows.append(row)
    m = mat.banded(rows, tail_mode="repeat_last", label=f"seeded[{seed}]")
    m.nonnegative = True
    return m


# -- base conditions ------------------------------------------------------------


def test_cesaro_is_regular():
    verdict = reg.silverman_toeplitz_check(mat.cesaro(), FIN, FIN)
    assert verdict.status is Status.SATISFIED
    t2 = next(c for c in verdict.conditions if c.name.startswith("T2"))
    assert t2.details["deviation_count"] == 0


def test_double_identity_violates_row_sums():
    verdict = reg.silverman_toeplitz_check(mat.scalar_mul(2.0, mat.identity()), FIN, FIN)
    assert verdict.status is Status.VIOLATED
    assert verdict.witness_row is not None
    t2 = next(c for c in verdict.conditions if c.name.startswith("T2"))
    assert t2.ok is False and t2.details["witness_value"] == 2.0


def test_rk_double_is_regular():
    verdict = reg.silverman_toeplitz_check(mat.rk_matrix(maps.affine_map(2)), FIN, FIN)
    assert verdict.status is Status.SATISFIED


def test_unbounded_matrix_fails_t1():
    growing = mat.diagonal(lambda n: float(n), label="Growing")
    verdict = reg.silverman_toeplitz_check(growing, FIN, FIN, cfg=FAST)
    t1 = next(c for c in verdict.conditions if c.name.startswith("T1"))
    assert t1.ok is False
    assert verdict.status is Status.VIOLATED


# -- allen ------------------------------------------------------------------------


def test_allen_identity_satisfied():
    assert reg.allen_check(mat.identity()).status is Status.SATISFIED


def test_allen_cesaro_violated_with_squares_witness():
    verdict = reg.allen_check(mat.cesaro())
    assert verdict.status is Status.VIOLATED
    assert verdict.witness_set == sd.squares()
    cond = next(c for c in verdict.conditions if c.name == "A3[squares]")
    assert cond.details["value_at_horizon"] <= 0.02


def test_allen_rk_violated_on_odd_columns():
    verdict = reg.allen_check(mat.rk_matrix(maps.affine_map(2)))
    assert verdict.status is Status.VIOLATED
    assert verdict.witness_set in (sd.odds(), sd.ap(1, 4))


# -- cfo ---------------------------------------------------------------------------


def test_cfo_identity_satisfied_with_custom_family():
    family = reg.TestFamily(
        sets_in_ideal=(sd.explicit(0, 1),),
        sets_positive=(sd.evens(), sd.odds(), sd.omega()),
        sets_infinite=(sd.evens(), sd.odds(), sd.omega()),
    )
    verdict = reg.cfo_check(mat.identity(), FIN, FIN, family=family)
    assert verdict.status is Status.SATISFIED


def test_cfo_cesaro_violated():
    verdict = reg.cfo_check(mat.cesaro(), FIN, FIN)
    assert verdict.status is Status.VIOLATED
    assert verdict.witness_set == sd.squares()


def test_cfo_rejects_negative_entries():
    a = mat.banded([[(0, -0.1), (1, 1.1)]], tail_mode="identity")
    with pytest.raises(reg.NegativeEntryError):
        reg.cfo_check(a, FIN, FIN, cfg=FAST)


# -- leo ---------------------------------------------------------------------------


def test_leo_rk_construction_satisfied():
    verdict = reg.leo_check(mat.rk_matrix(maps.affine_map(2)), FO_EVENS, FIN)
    assert verdict.status is Status.SATISFIED


def test_leo_cesaro_violated():
    verdict = reg.leo_check(mat.cesaro(), FIN, FIN)
    assert verdict.status is Status.VIOLATED
    assert verdict.witness_set == sd.squares()


def test_leo_matches_cfo_for_nonnegative():
    for seed in range(6):
        a = random_nonneg_matrix(seed)
        l = reg.leo_check(a, FO_EVENS, FIN, cfg=FAST)
        c = reg.cfo_check(a, FO_EVENS, FIN, cfg=FAST)
        assert l.status is c.status, seed


def test_leo_guard_unmet_is_inconclusive():
    # J not countably generated and a genuinely signed matrix: conditions are
    # reported but the equivalence claim is withheld.
    a = mat.banded([[(0, -0.1), (1, 1.1)]], tail_mode="identity")
    verdict = reg.leo_check(a, Z, Z, cfg=FAST)
    assert verdict.status is Status.INCONCLUSIVE
    assert any("characterization" in note for note in verdict.notes)


def test_st_guard_note_when_unmet():
    a = mat.banded([[(0, -0.1), (1, 1.1)]], tail_mode="identity")
    verdict = reg.silverman_toeplitz_check(a, Z, Z, cfg=FAST)
    assert any("guard" in note for note in verdict.notes)


def test_fin_times_empty_target_meets_the_guard():
    # Fin×∅ is countably generated, so a signed matrix under it is judged by the
    # characterization, with no guard note.
    a = specs.parse_matrix(
        {"type": "banded", "rows": [[[0, 0.5], [1, -0.25], [2, 0.75]], [[1, 501.0], [3, -500.0]]], "tail": "zero"}
    )
    fte = ide.fin_times_empty()
    cfg = CheckConfig(horizon=300)
    assert mat.find_negative_entry(a, 300) is not None
    for check in (reg.silverman_toeplitz_check, reg.leo_check):
        assert check(a, fte, fte, cfg=cfg).notes == (), check.__name__


# -- families -----------------------------------------------------------------------


def test_default_family_is_exactly_classified():
    fam = reg.default_family(FO_EVENS, seed=0)
    fam.validate(FO_EVENS)
    assert fam.sets_in_ideal and fam.sets_positive and fam.sets_infinite
    fam_fin = reg.default_family(FIN, seed=0)
    assert any(isinstance(s, sd.Explicit) for s in fam_fin.sets_in_ideal)
    assert set(fam_fin.sets_positive) == set(s for s in fam_fin.sets_infinite)


def test_default_family_classification_provenance():
    # Every pool set is decided symbolically, under fin_times_empty too, whose
    # closed-form rules decide positive sets: none is estimated or left out.
    for ideal in (FIN, FO_EVENS, ide.fin_times_empty()):
        with mock.patch.object(ide, "estimate_membership", side_effect=AssertionError("set estimated")):
            fam = reg.default_family(ideal, seed=0)
        for s in fam.sets_in_ideal + fam.sets_positive:
            assert ide.decide_membership(s, ideal) is not None, (ideal.label, s)
        assert len(fam.sets_in_ideal) + len(fam.sets_positive) == len(reg._default_pool(0)), ideal.label


def test_family_validation_rejects_misclassification():
    bad = reg.TestFamily(sets_in_ideal=(), sets_positive=(sd.squares(),), sets_infinite=())
    with pytest.raises(reg.FamilyMisclassifiedError):
        bad.validate(Z)


@pytest.mark.parametrize("theorem", ["st", "allen", "cfo", "leo"])
def test_each_family_is_classified_once(theorem, monkeypatch):
    calls = []

    def counting_membership(s, ideal):
        calls.append(s)
        return ide.membership(s, ideal)

    monkeypatch.setattr(reg, "membership", counting_membership)
    st_calls = _count_calls(monkeypatch, "_silverman_toeplitz_conditions")
    a = mat.rk_matrix(maps.affine_map(2))
    reg.CHECKS[theorem](a, FO_EVENS, FIN, cfg=FAST)
    assert len(calls) == len(reg._default_pool(FAST.seed))  # default_family alone
    assert len(st_calls) == 1
    ideal = FIN if theorem == "allen" else FO_EVENS
    family = reg.default_family(ideal, FAST.seed)
    calls.clear()
    reg.CHECKS[theorem](a, FO_EVENS, FIN, family=family, cfg=FAST)
    assert len(calls) == len(family.sets_in_ideal) + len(family.sets_positive)  # one validation
    assert len(st_calls) == 2  # a direct call shares nothing with the one before


def _count_calls(monkeypatch, name: str) -> list:
    """Wrap ``reg.<name>`` to record, per call, the labels of its matrix and ideals."""
    calls = []
    fn = getattr(reg, name)

    def counting(a, *args):
        calls.append((a.label, *(x.label for x in args if isinstance(x, ide.Ideal))))
        return fn(a, *args)

    monkeypatch.setattr(reg, name, counting)
    return calls


def test_a_suite_computes_each_shared_result_once(monkeypatch):
    membership_calls = []
    monkeypatch.setattr(reg, "membership", lambda s, ideal: membership_calls.append(s) or ide.membership(s, ideal))
    family_calls = []
    default_family = reg.default_family
    monkeypatch.setattr(
        reg, "default_family", lambda ideal, seed: family_calls.append(ideal.label) or default_family(ideal, seed)
    )
    st_calls = _count_calls(monkeypatch, "_silverman_toeplitz_conditions")
    allen_calls = _count_calls(monkeypatch, "_allen_conditions")
    matrices = ["cesaro", "identity", {"type": "rk", "map": {"type": "affine", "mul": 2}}]
    pairs = [["fin", "fin"], ["z", "z"], ["fin-oplus-evens", "fin"], ["z", {"type": "fin"}]]
    cfg = {"check_horizon": 2000, "core_horizon": 2000, "tol": 0.01, "grid": 0.01, "theta": 0.001, "seed": 3}
    config = {
        "matrices": matrices,
        "ideal_pairs": pairs,
        "theorems": ["st", "allen", "cfo", "leo"],
        "core_equality": False,
        "cfg": cfg,
    }
    bundle = harness.run_suite(specs.parse_experiment_config(config))
    assert "error" not in {i["status"] for i in bundle.items}
    # One default family per distinct (ideal, seed): Fin (allen's too), Z and Fin ⊕ P(evens).
    assert sorted(family_calls) == sorted(["Fin", "DensityZero", FO_EVENS.label])
    assert len(membership_calls) == len(family_calls) * len(reg._default_pool(3))
    # Silverman–Toeplitz once per (matrix, pair), allen's A1 being the (Fin, Fin) one; allen once per matrix.
    assert len(st_calls) == len(set(st_calls)) == len(matrices) * len(pairs)
    assert sorted(allen_calls) == sorted((specs.parse_matrix(m).label,) for m in matrices)


def _nonnegative_catalog() -> dict:
    rk_2n = mat.rk_matrix(maps.affine_map(2))
    rows = [[(0, 0.5), (1, 0.5)], [(1, 1.0), (3, -0.0)], [(0, 0.25), (2, 0.75)], [(4, 0.0)]]
    kinds = {
        "cesaro": mat.cesaro(),
        "identity": mat.identity(),
        "zero": mat.zero_matrix(),
        "rk(2n)": rk_2n,
        **{f"banded_{tail}": mat.banded(rows, tail_mode=tail) for tail in ("identity", "zero", "repeat_last")},
        "sum": mat.matrix_sum(mat.cesaro(), mat.banded(rows)),
        "sum_with_identity": mat.matrix_sum(mat.identity(), rk_2n),
        "cesaro_plus_identity": mat.matrix_sum(mat.cesaro(), mat.identity()),
        "multiple": mat.scalar_mul(0.5, mat.cesaro()),
        "multiple_by_minus_zero": mat.scalar_mul(-0.0, mat.banded(rows)),
        "product_rk_cesaro": mat.compose(rk_2n, mat.cesaro()),
        "product_cesaro_rk": mat.compose(mat.cesaro(), rk_2n),
        "product_identity_banded": mat.compose(mat.identity(), mat.banded(rows, tail_mode="repeat_last")),
    }
    assert all(a.nonnegative for a in kinds.values())
    return kinds


@pytest.mark.parametrize("kind", sorted(_nonnegative_catalog()))
def test_absolute_sums_of_nonnegative_matrices_are_their_sums(kind):
    # What lets a condition on absolute row sums share its result with one on
    # row sums: the two are bit for bit equal, signed zeros included.
    a = _nonnegative_catalog()[kind]
    for columns in [None, *reg._default_pool(0), *reg._default_pool(1)[-5:]]:
        signed = a.masked_row_sums(columns, 300)
        absolute = a.masked_row_sums(columns, 300, absolute=True)
        assert np.array_equal(signed.view(np.int64), absolute.view(np.int64)), columns
    # The checkers share the conditions of all of them: sums, multiples and
    # products take the flag from their operands, diagonal factors included.
    assert a.abs_sums_are_sums


def test_negative_zero_diagonal_keeps_its_absolute_flag():
    # A diagonal rule of -0.0 is nonnegative, but its absolute row sums are 0.0
    # where its row sums are -0.0, so C2 and L2 are judged apart and each report
    # prints its own zero.
    a = mat.diagonal(lambda n: -0.0, nonnegative=True, rule=lambda h: np.full(h, -0.0))
    assert not a.abs_sums_are_sums
    # As a row-finite left factor it scales the right factor's sums, -0.0 included.
    product = mat.compose(a, mat.cesaro())
    assert not product.abs_sums_are_sums
    assert np.signbit(product.row_sums(FAST.horizon)).all()
    assert not np.signbit(product.row_sums(FAST.horizon, absolute=True)).any()
    memo = reg.CheckMemo()
    cfo, leo = reg.cfo_check(a, FIN, FIN, cfg=FAST, memo=memo), reg.leo_check(a, FIN, FIN, cfg=FAST, memo=memo)
    c2 = [c for c in cfo.conditions if c.name.startswith("C2")]
    l2 = [c for c in leo.conditions if c.name.startswith("L2")]
    assert c2 and all(np.signbit(c.details["value_at_horizon"]) for c in c2)
    assert l2 and not any(np.signbit(c.details["value_at_horizon"]) for c in l2)
    assert cfo.to_dict() == reg.cfo_check(a, FIN, FIN, cfg=FAST).to_dict()
    assert leo.to_dict() == reg.leo_check(a, FIN, FIN, cfg=FAST).to_dict()


def test_family_determinism_by_seed():
    a = reg.default_family(FIN, seed=7)
    b = reg.default_family(FIN, seed=7)
    c = reg.default_family(FIN, seed=8)
    assert a == b
    assert a != c


# -- coherence properties --------------------------------------------------------------


def test_witness_survives_double_horizon():
    verdict = reg.allen_check(mat.cesaro())
    cond = next(c for c in verdict.conditions if c.ok is False and c.name == "A3[squares]")
    margin = cond.margin
    double = CheckConfig(horizon=2 * CFG.horizon)
    sums = mat.cesaro().masked_row_sums(sd.squares(), double.horizon, absolute=True)
    from idealcore.asymptotics import limsup_of_values

    est = limsup_of_values(sums, FIN, double.core_config())
    assert abs(est - 1.0) > margin / 2


def test_satisfied_norm_consistency():
    # T1 + T2 satisfied comes with the computed sup staying at or below the
    # certified bound.
    for a in (mat.cesaro(), mat.identity(), mat.rk_matrix(maps.affine_map(2))):
        verdict = reg.silverman_toeplitz_check(a, FIN, FIN)
        assert verdict.status is Status.SATISFIED
        sup, certified = mat.norm_estimate(a, CFG.horizon)
        assert certified and sup <= a.norm_bound + 1e-12


def test_t1_of_nonnegative_composites_reads_no_csr(monkeypatch):
    # A nonnegative composite's absolute row sums are its row sums, which its
    # operands give exactly: T1 reads no CSR and reports the exact sup.
    def refuse(*args):
        raise AssertionError("a CSR was gathered")

    monkeypatch.setattr(mat.InfiniteMatrix, "_gather", refuse)
    cfg = CheckConfig(horizon=1000)
    rk_2n = mat.rk_matrix(maps.affine_map(2))
    cases = [
        (mat.compose(rk_2n, mat.cesaro()), 1.0),
        (mat.compose(mat.cesaro(), rk_2n), 1.0),
        (mat.matrix_sum(mat.cesaro(), mat.identity()), 2.0),
    ]
    for a, sup in cases:
        st = reg.silverman_toeplitz_check(a, FIN, FIN, cfg=cfg)
        assert st.conditions[0].name == "T1(bounded-norm)" and st.conditions[0].details["sup_rowsum"] == sup
        reg.leo_check(a, FIN, FIN, cfg=cfg)  # and neither do Leo's conditions


def test_verdict_serialization():
    verdict = reg.allen_check(mat.cesaro())
    d = verdict.to_dict()
    assert d["status"] == "violated"
    assert d["witness"]["set"] == {"type": "squares"}
    assert all("name" in c for c in d["conditions"])


# -- exact judging of structured row sums ---------------------------------------------

_NAMED_CATALOG = {
    "fin": FIN,
    "z": Z,
    "log": ide.erdos_ulam(),
    "summable": ide.summable(),
    "fin_oplus_evens": FO_EVENS,
    "generated_by_evens": ide.countably_generated([sd.evens()]),
    "fin_times_empty": ide.fin_times_empty(),
}
_CATALOG = list(_NAMED_CATALOG.values())
# fin_times_empty decides only finite sets symbolically, so a condition over an
# infinite positive set leaves a level to the estimator.
_DECIDES_INFINITE_SETS = [ideal for ideal in _CATALOG if ideal.kind != "fin_times_empty"]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_CATALOG), st.sampled_from(["st", "cfo", "leo"]), st.integers(0, 40))
def test_identity_is_exactly_regular_and_core_preserving(ideal, theorem, seed):
    verdict = reg.CHECKS[theorem](mat.identity(), ideal, ideal, cfg=CheckConfig(horizon=2000, seed=seed))
    assert verdict.status is Status.SATISFIED
    if theorem == "st" or ideal in _DECIDES_INFINITE_SETS:
        assert verdict.method == "exact", [c.name for c in verdict.conditions if c.method != "exact"]


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 40))
def test_rk_over_the_evens_exactly_satisfies_leo_for_the_trace_ideal(seed):
    # Thm 2.5: rk(enumeration(evens)) preserves cores from Fin ⊕ P(evens) to Fin.
    a = mat.rk_matrix(maps.enumeration_map(sd.evens()))
    verdict = reg.leo_check(a, FO_EVENS, FIN, cfg=CheckConfig(horizon=2000, seed=seed))
    assert (verdict.status, verdict.method) == (Status.SATISFIED, "exact")


def test_exact_points_estimate_no_level():
    # Where the identity's level sets over the columns are undecided
    # symbolically (a predicate, under every catalog ideal), the condition
    # reads the value prefix and no level is estimated first.
    predicates = [
        sd.Predicate(lambda n: n % 2 == 0, name="evens"),
        sd.Predicate(lambda n: n % 3 == 1, name="1 mod 3"),
        sd.Predicate(lambda n: n.bit_length() % 2 == 1, name="[4^k, 2*4^k)"),
    ]
    with mock.patch.object(asy, "estimate_membership", side_effect=AssertionError("level estimated")):
        for ideal in _CATALOG:
            for columns in predicates:
                assert mat.identity().masked_sum_structure(columns, absolute=False).levels is not None
                assert reg._exact_points(mat.identity(), columns, False, ideal) is None, (ideal.label, columns)


def test_explicit_banded_rows_cost_no_membership_decisions():
    # The explicit rows are a finite head, so a condition decides the tail's
    # level sets alone, however many explicit rows the matrix has.
    counts = []
    for rows in (3, 2000):
        with mock.patch.object(reg, "decide_membership", wraps=reg.decide_membership) as decide:
            reg.leo_check(random_nonneg_matrix(0, horizon=rows), FO_EVENS, FIN, cfg=FAST)
        counts.append(decide.call_count)
    assert counts[0] > 0 and counts[0] == counts[1]


@pytest.mark.parametrize("absolute", [False, True])
def test_cesaro_limsup_over_the_evens_is_one_half_under_every_ideal(absolute):
    # The means of 1_evens tend to 1/2, so their J-limsup is 1/2 for every J ⊇ Fin;
    # the numeric estimate read 1 under some ideals.
    for ideal in _CATALOG:
        c = reg._limsup_condition("C2", mat.cesaro(), sd.evens(), absolute, 1.0, ideal, FAST, sd.evens())
        assert c.method == "exact" and c.ok is False, ideal.label
        assert abs(c.details["limsup"] - 0.5) <= FAST.tol and c.margin == 0.5
        assert c.details["value_at_horizon"] == 0.5 and c.witness_set == sd.evens()


def test_exact_conditions_report_horizon_and_value_without_sets():
    verdict = reg.silverman_toeplitz_check(mat.rk_matrix(maps.affine_map(2)), Z, Z, cfg=FAST)
    assert verdict.method == "exact"
    d = verdict.to_dict()
    assert d["method"] == "exact" and all(c["method"] == "exact" for c in d["conditions"])
    t3 = next(c for c in verdict.conditions if c.name == "T3[squares]")
    # Row 1999 selects column 3998, which is no square.
    assert t3.details == {
        "target": 0.0,
        "tol": FAST.tol,
        "cluster_points": [0.0],
        "horizon": FAST.horizon,
        "value_at_horizon": 0.0,
        "deviation_count": 32,  # 2n is a square for n = 2m², m < 32
    }
    numeric = reg.silverman_toeplitz_check(mat.scalar_mul(2.0, mat.identity()), FIN, FIN, cfg=FAST)
    assert numeric.method == "numeric" and numeric.to_dict()["method"] == "numeric"


def _numeric_only(a: mat.InfiniteMatrix) -> mat.InfiniteMatrix:
    """``a`` with its row-sum structure and its keeping of limits hidden:
    every condition is judged on the value prefix, so the estimator's defect
    (ROADMAP item 1) stays visible."""
    hidden = {"masked_sum_structure": lambda self, columns, absolute=False: None, "keeps_limits": False}
    a.__class__ = type(f"NumericOnly{type(a).__name__}", (type(a),), hidden)
    return a


_STRUCTURED = {
    "identity": mat.identity,
    "rk(2n)": lambda: mat.rk_matrix(maps.affine_map(2)),
    "rk(2n+1)": lambda: mat.rk_matrix(maps.affine_map(2, 1)),
    "rk(enumeration(evens))": lambda: mat.rk_matrix(maps.enumeration_map(sd.evens())),
    "rk(enumeration(squares))": lambda: mat.rk_matrix(maps.enumeration_map(sd.squares())),
    "cesaro": mat.cesaro,
    # The banded matrix of the ``checks`` benchmark: explicit rows, then the identity.
    "banded(identity tail)": lambda: mat.banded([[(0, 0.5), (1, 0.5)], [(1, 1.0)], [(0, 0.25), (2, 0.75)]]),
}


@pytest.mark.parametrize("kind", sorted(_STRUCTURED))
def test_matrices_that_keep_limits_are_exactly_regular(kind):
    # Silverman–Toeplitz: a matrix that keeps every limit is (Fin, Fin)-regular.
    a = _STRUCTURED[kind]()
    assert a.keeps_limits and not _numeric_only(_STRUCTURED[kind]()).keeps_limits
    verdict = reg.silverman_toeplitz_check(a, FIN, FIN, cfg=FAST)
    assert (verdict.status, verdict.method) == (Status.SATISFIED, "exact")


_PAIRS = {f"{name},{name}": (ideal, ideal) for name, ideal in _NAMED_CATALOG.items()}
_PAIRS["fin_oplus_evens,fin"] = (FO_EVENS, FIN)
# Where the estimator contradicts the exact verdict (ROADMAP item 1: the density
# estimators seed their estimate with the head of the prefix, so finite and
# sparse null sets read as positive, and the limsup of decaying means reads 1).
_NUMERIC_CONTRADICTS = {(kind, pair) for kind in _STRUCTURED for pair in ("z,z", "log,log")}


@pytest.mark.parametrize(
    "kind,pair",
    [
        pytest.param(
            kind,
            pair,
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1: head-seeded numeric estimate")
            if (kind, pair) in _NUMERIC_CONTRADICTS
            else (),
        )
        for kind in sorted(_STRUCTURED)
        for pair in sorted(_PAIRS)
    ],
)
def test_numeric_verdicts_never_contradict_the_exact_ones(kind, pair):
    ideal_i, ideal_j = _PAIRS[pair]
    a, hidden = _STRUCTURED[kind](), _numeric_only(_STRUCTURED[kind]())
    memo, hidden_memo = reg.CheckMemo(), reg.CheckMemo()
    for theorem in ("st", "allen", "cfo", "leo"):
        exact = reg.CHECKS[theorem](a, ideal_i, ideal_j, cfg=FAST, memo=memo)
        numeric = reg.CHECKS[theorem](hidden, ideal_i, ideal_j, cfg=FAST, memo=hidden_memo)
        assert not any(c.method == "exact" for c in numeric.conditions if "[" in c.name)
        for c, n in zip(exact.conditions, numeric.conditions, strict=True):
            if c.method == "exact" and n.ok is not None:
                assert n.ok == c.ok, (theorem, c.name)
        if exact.method == "exact" and numeric.status is not Status.INCONCLUSIVE:
            assert numeric.status is exact.status, theorem


# The banded matrix of the ``checks`` benchmark and its theory answers: it is
# the identity past row 2, so every condition is read off the identity tail.
_CHECKS_BANDED = {"type": "banded", "rows": [[[0, 0.5], [1, 0.5]], [[1, 1.0]], [[0, 0.25], [2, 0.75]]], "tail": "identity"}
_CHECKS_PAIRS = {
    ("fin", "fin"): Status.SATISFIED,
    ("z", "z"): Status.SATISFIED,
    ("erdos-ulam-log", "erdos-ulam-log"): Status.SATISFIED,
    # The odds lie in Fin ⊕ P(evens), and the sums over them tend to 1, not 0.
    ("fin-oplus-evens", "fin"): Status.VIOLATED,
}


@pytest.mark.parametrize("pair", sorted(_CHECKS_PAIRS), ids=",".join)
def test_the_checks_banded_matrix_is_judged_exactly(pair):
    a = specs.parse_matrix(_CHECKS_BANDED)
    ideal_i, ideal_j = (specs.parse_ideal(name) for name in pair)
    cfg, memo = CheckConfig(horizon=5000, tol=0.01, theta=0.001, grid=0.01, seed=0), reg.CheckMemo()
    expected = {"st": _CHECKS_PAIRS[pair], "allen": Status.SATISFIED, "cfo": _CHECKS_PAIRS[pair], "leo": _CHECKS_PAIRS[pair]}
    for theorem, status in expected.items():
        verdict = reg.CHECKS[theorem](a, ideal_i, ideal_j, cfg=cfg, memo=memo)
        assert (verdict.status, verdict.method) == (status, "exact"), theorem
