"""Condition checkers: verdicts, witnesses, guards, and cross-checker coherence."""

import numpy as np
import pytest

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
    for ideal in (FIN, FO_EVENS):
        fam = reg.default_family(ideal, seed=0)
        for s in fam.sets_in_ideal + fam.sets_positive:
            assert ide.decide_membership(s, ideal) is not None, (ideal.label, s)
    fte = ide.fin_times_empty()
    fam = reg.default_family(fte, seed=0)
    assert any(ide.decide_membership(s, fte) is None for s in fam.sets_in_ideal + fam.sets_positive)


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
    # The checkers share the conditions of all but the product with a diagonal
    # factor: sums and multiples take the flag from their operands, products ask
    # for row-finite factors.
    assert a.abs_sums_are_sums is (kind != "product_identity_banded")


def test_negative_zero_diagonal_keeps_its_absolute_flag():
    # A diagonal rule of -0.0 is nonnegative, but its absolute row sums are 0.0
    # where its row sums are -0.0, so C2 and L2 are judged apart and each report
    # prints its own zero.
    a = mat.diagonal(lambda n: -0.0, nonnegative=True, rule=lambda h: np.full(h, -0.0))
    assert not a.abs_sums_are_sums
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
