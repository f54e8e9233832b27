"""Expected answers, derived from the theory and never from the program's output.

Each checker decides its conditions over the test family of
``regularity.default_family``.  Every "violated" below has a witness in the
fixed part of that family (omega, evens, odds, squares, finite sets), and every
"satisfied" holds for all sets of the relevant class, so the table holds for
every seed.  Conditions (nonnegative matrices throughout, so every
applicability guard holds):

* st (I,J): row sums have J-limit 1 and, for E in I, sum_{k in E} a_nk has J-limit 0.
* allen: st under (Fin,Fin) and limsup sum_{k in E} |a_nk| = 1 for every infinite E.
* cfo / leo (I,J): st (I,J) and J-limsup sum_{k in E} a_nk = 1 for every I-positive E.

Ideals: fin (finite sets), z (density zero), log (logarithmic density zero),
fin-oplus-evens (sets with finite intersection with the evens), fin-times-empty
(sets covered by finitely many columns of the Cantor pairing).

Experiment items compare core(x, I) with core(Ax, J) over the corpus and are
satisfied iff no endpoint deviates by more than ``cfg.tol``.  Row cores are
listed where the theory gives the value at every horizon these suites use;
they are compared within ``CORE_TOL`` (two grid cells).
"""

from __future__ import annotations

CORE_TOL = 0.02

S, V = "satisfied", "violated"
FF, ZZ, LL, EF, TT = "fin,fin", "z,z", "log,log", "fin-oplus-evens,fin", "fin-times-empty,fin-times-empty"

# (matrix, theorem) -> {ideal pair: status}
CHECKS = {
    # Cesaro: regular, and the means of 1_E tend to 0 for E in Z or log-null
    # (squares, finite sets); the odds lie in fin-oplus-evens and have mean 1/2.
    # Along the evens the means tend to 1/2, never 1, so allen/cfo/leo fail.
    ("cesaro", "st"): {FF: S, ZZ: S, LL: S, EF: V},
    ("cesaro", "allen"): {FF: V, ZZ: V, LL: V, EF: V},
    ("cesaro", "cfo"): {FF: V, ZZ: V, LL: V, EF: V},
    ("cesaro", "leo"): {FF: V, ZZ: V, LL: V, EF: V},
    # Identity: sum_{k in E} a_nk = 1_E(n), so (I,I) holds for every ideal;
    # under (fin-oplus-evens, fin) the odds lie in I but 1_odds has no Fin-limit 0.
    ("identity", "st"): {FF: S, ZZ: S, LL: S, EF: V},
    ("identity", "allen"): {FF: S, ZZ: S, LL: S, EF: S},
    ("identity", "cfo"): {FF: S, ZZ: S, LL: S, EF: V},
    ("identity", "leo"): {FF: S, ZZ: S, LL: S, EF: V},
    # rk(n -> 2n): sum_{k in E} a_nk = 1_E(2n).  {n : 2n in E} is null whenever
    # E is (squares give {2m^2}), and finite when E meets the evens finitely.
    # The odds are infinite and positive but never selected, except under
    # fin-oplus-evens where they are null: the Thm 2.5 construction.
    ("rk_evens", "st"): {FF: S, ZZ: S, LL: S, EF: S},
    ("rk_evens", "allen"): {FF: V, ZZ: V, LL: V, EF: V},
    ("rk_evens", "cfo"): {FF: V, ZZ: V, LL: V, EF: S},
    ("rk_evens", "leo"): {FF: V, ZZ: V, LL: V, EF: S},
    # Banded: the identity except in rows 0-2, so every limit is the identity's.
    ("banded", "st"): {FF: S, ZZ: S, LL: S, EF: V},
    ("banded", "allen"): {FF: S, ZZ: S, LL: S, EF: S},
    ("banded", "cfo"): {FF: S, ZZ: S, LL: S, EF: V},
    ("banded", "leo"): {FF: S, ZZ: S, LL: S, EF: V},
    # Row n of rk(2n).C averages x_0..x_2n, row n of C.rk(2n) averages
    # x_0, x_2, .., x_2n: both regular; the evens (resp. odds) get mass 1/2 (resp. 0).
    ("rk2n.cesaro", "st"): {FF: S},
    ("rk2n.cesaro", "leo"): {FF: V},
    ("cesaro.rk2n", "st"): {FF: S},
    ("cesaro.rk2n", "leo"): {FF: V},
    # C + Id has row sums 2.
    ("cesaro+identity", "st"): {FF: V},
    ("cesaro+identity", "leo"): {FF: V},
    # Core equality: identity keeps every (I,I) core; rk(2n) maps the
    # fin-oplus-evens core (the evens' limit points) onto the Fin core of
    # x_2n; alternating loses its core under every other pair and Cesaro.
    ("identity", "experiment"): {FF: S, ZZ: S, LL: S, EF: V, TT: S},
    ("rk_evens", "experiment"): {FF: V, ZZ: V, LL: V, EF: S, TT: V},
    ("cesaro", "experiment"): {FF: V, ZZ: V, LL: V, EF: V, TT: V},
}

_FIN_CORE = {
    "alternating": (-1.0, 1.0),
    "alternating_decay": (0.0, 0.0),  # tends to 0
    "blockwise_three_level": (0.0, 1.0),
    "indicator_blocks": (0.0, 1.0),
    "indicator_evens": (0.0, 1.0),
    "indicator_squares": (0.0, 1.0),
    "periodic_three_level": (0.0, 1.0),
    "rotation_golden": (0.0, 1.0),  # equidistributed in [0, 1)
    "signed_blocks": (-1.0, 1.0),
}
# Every level set above has positive upper and logarithmic density except the
# squares; each meets infinitely many pairing columns.
_DENSITY_CORE = {**_FIN_CORE, "indicator_squares": (0.0, 0.0)}

# core(x, I) by ideal name.
CORE = {
    "fin": _FIN_CORE,
    "z": _DENSITY_CORE,
    "log": _DENSITY_CORE,
    "fin-times-empty": _FIN_CORE,
    # Only the even-indexed terms count: alternating and indicator_evens are 1 there.
    "fin-oplus-evens": {**_FIN_CORE, "alternating": (1.0, 1.0), "indicator_evens": (1.0, 1.0)},
}

# core of the even subsequence (x_2n) under J: the rk_evens transform.  The
# squares become {2m^2}: infinite, but of density zero.
_EVEN_FIN = {**_FIN_CORE, "alternating": (1.0, 1.0), "indicator_evens": (1.0, 1.0)}
EVEN_CORE = {
    "fin": _EVEN_FIN,
    "fin-times-empty": _EVEN_FIN,
    "z": {**_EVEN_FIN, "indicator_squares": (0.0, 0.0)},
    "log": {**_EVEN_FIN, "indicator_squares": (0.0, 0.0)},
}

# Limits of the Cesaro means, which are the core of Cx under every ideal.  Left
# out: signed_blocks and indicator_blocks, whose means oscillate on a doubling
# scale (cores [-1/3, 1/3] and [1/3, 2/3]) that the window [H/2, H) cannot
# show, and blockwise_three_level, whose means reach 4/9 only at rate ~2/sqrt(n).
CESARO_LIMIT = {
    "alternating": (0.0, 0.0),
    "alternating_decay": (0.0, 0.0),
    "indicator_evens": (0.5, 0.5),
    "indicator_squares": (0.0, 0.0),
    "periodic_three_level": (0.5, 0.5),
    "rotation_golden": (0.5, 0.5),
}


def expected_status(matrix: str, pair: str, task: str) -> str | None:
    return CHECKS.get((matrix, task), {}).get(pair)


def expected_cores(matrix: str, pair: str, label: str) -> tuple:
    """(core_x, core_ax) expected for one experiment row; None where unknown."""
    ideal_i, ideal_j = pair.split(",")
    core_x = CORE.get(ideal_i, {}).get(label)
    if matrix == "identity":
        core_ax = CORE.get(ideal_j, {}).get(label)
    elif matrix == "rk_evens":
        core_ax = EVEN_CORE.get(ideal_j, {}).get(label)
    elif matrix == "cesaro":
        core_ax = CESARO_LIMIT.get(label)
    else:
        core_ax = None
    return core_x, core_ax


# Answers the program gets wrong at the seed, keyed as ``check`` reports them.
# ROADMAP item 1: the density estimators seed their estimate with the head of
# the prefix, so finite and sparse null sets read as positive.  ROADMAP item 3:
# Ax loses its level sets, so core(Ax, log) goes through that estimator too.
_HEAD = "ROADMAP item 1: head-seeded density estimate"
_LOST = "ROADMAP items 1, 3: Ax loses its level sets"
KNOWN_WRONG = {
    **{f"checks/{m}/{p}/st": _HEAD for m in ("cesaro", "identity", "rk_evens", "banded") for p in (ZZ, LL)},
    **{f"checks/{m}/{p}/{t}": _HEAD for m in ("identity", "banded") for p in (ZZ, LL) for t in ("cfo", "leo")},
    "experiments/identity/log,log/experiment": _HEAD,
    **{
        f"experiments/{m}/log,log/experiment/alternating_decay/core_x": _HEAD
        for m in ("identity", "rk_evens", "cesaro")
    },
    **{
        f"experiments/{m}/log,log/experiment/{label}/core_ax": _LOST
        for m in ("identity", "rk_evens")
        for label in ("alternating_decay", "indicator_squares")
    },
    **{f"experiments/cesaro/log,log/experiment/{label}/core_ax": _LOST for label in CESARO_LIMIT},
}


def _close(got, want) -> bool:
    return abs(got[0] - want[0]) <= CORE_TOL and abs(got[1] - want[1]) <= CORE_TOL


def check(keys: list[str], items: list[dict], corpus_labels: list[str]) -> tuple[int, int, list[str]]:
    """Compare one suite's items with the table.

    ``keys`` come from ``workloads.item_keys``, ``items`` are the report's
    items and ``corpus_labels`` the config's.  Returns (answers checked,
    answers matched, keys of wrong answers).  An inconclusive or error status,
    or a missing row, is not a match but is not wrong either.
    """
    labels = sorted(_FIN_CORE) if corpus_labels == ["all"] else corpus_labels
    checked = matched = 0
    wrong: list[str] = []
    for key, item in zip(keys, items, strict=True):
        _, matrix, pair, task = key.split("/")
        want = expected_status(matrix, pair, task)
        if want is not None:
            checked += 1
            if item["status"] == want:
                matched += 1
            elif item["status"] in (S, V):
                wrong.append(key)
        if task != "experiment":
            continue
        rows = {r["label"]: r for r in item.get("experiment", {}).get("rows", [])}
        for label in labels:
            for side, want_core in zip(("core_x", "core_ax"), expected_cores(matrix, pair, label)):
                if want_core is None:
                    continue
                checked += 1
                row = rows.get(label)
                if row is None:
                    continue
                got = (row[f"{side}_lo"], row[f"{side}_hi"])
                if _close(got, want_core):
                    matched += 1
                else:
                    wrong.append(f"{key}/{label}/{side}")
    return checked, matched, wrong
