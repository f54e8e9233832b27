import answers
import workloads


def _perfect_items(entry):
    """Items that agree with the table wherever it has an answer."""
    labels = entry["config"]["corpus_labels"]
    labels = sorted(answers.CORE["fin"]) if labels == ["all"] else labels
    items = []
    for key in workloads.item_keys(entry):
        _, matrix, pair, task = key.split("/")
        item = {"status": answers.expected_status(matrix, pair, task) or "inconclusive"}
        if task == "experiment":
            rows = []
            for label in labels:
                core_x, core_ax = answers.expected_cores(matrix, pair, label)
                core_x, core_ax = core_x or (0.5, 0.5), core_ax or (0.5, 0.5)
                rows.append(
                    {
                        "label": label,
                        "core_x_lo": core_x[0],
                        "core_x_hi": core_x[1],
                        "core_ax_lo": core_ax[0],
                        "core_ax_hi": core_ax[1],
                    }
                )
            item["experiment"] = {"rows": rows}
        items.append(item)
    return items


def test_every_workload_item_has_a_theory_answer():
    for name in workloads.NAMES:
        for entry in workloads.generate(name, 0, workloads.HERE.parent):
            for key in workloads.item_keys(entry):
                _, matrix, pair, task = key.split("/")
                assert answers.expected_status(matrix, pair, task) is not None, key


def test_check_catches_a_flipped_verdict_and_a_wrong_core():
    entries = workloads.generate("experiments", 0, workloads.HERE.parent)
    entry = entries[0]
    keys = workloads.item_keys(entry)
    items = _perfect_items(entry)
    checked, matched, wrong = answers.check(keys, items, ["all"])
    assert wrong == [] and matched == checked > len(items)

    flipped = keys.index("experiments/identity/fin,fin/experiment")
    items[flipped]["status"] = "violated"
    items[flipped]["experiment"]["rows"][0]["core_ax_hi"] += 0.5
    _, matched2, wrong = answers.check(keys, items, ["all"])
    assert wrong == [
        "experiments/identity/fin,fin/experiment",
        "experiments/identity/fin,fin/experiment/alternating/core_ax",
    ]
    assert matched2 == matched - 2
    assert not set(wrong) & set(answers.KNOWN_WRONG)


def test_inconclusive_and_error_are_not_wrong():
    entry = workloads.generate("checks", 0, workloads.HERE.parent)[0]
    keys = workloads.item_keys(entry)
    items = _perfect_items(entry)
    items[0]["status"] = "inconclusive"
    items[1]["status"] = "error"
    checked, matched, wrong = answers.check(keys, items, ["all"])
    assert wrong == [] and matched == checked - 2


def test_known_wrong_answers_name_real_table_entries():
    for key in answers.KNOWN_WRONG:
        _, matrix, pair, task, *row = key.split("/")
        if row:
            label, side = row
            want = answers.expected_cores(matrix, pair, label)[side == "core_ax"]
            assert want is not None, key
        else:
            assert answers.expected_status(matrix, pair, task) is not None, key
