import threading
import time

import pytest

import tracer as tr


def test_self_time_subtracts_union_of_children_across_threads():
    # Root [0, 10] on the main thread; its children ran on two worker
    # threads and overlap each other: B [1, 4], C [3, 6], D [8, 12] (D
    # outlives the root and is clipped).  B has a nested child E [2, 3].
    spans = [
        tr.Span(1, None, "root", 0.0, 10.0),
        tr.Span(2, 1, "b", 1.0, 4.0),
        tr.Span(3, 1, "c", 3.0, 6.0),
        tr.Span(4, 1, "d", 8.0, 12.0),
        tr.Span(5, 2, "e", 2.0, 3.0),
    ]
    selfs = tr.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(1.0)


def test_covered_merges_and_clips():
    assert tr.covered([], 0.0, 1.0) == 0.0
    assert tr.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) == pytest.approx(3.0)
    assert tr.covered([(2.0, 3.0)], 0.0, 1.0) == 0.0


def test_worker_spans_hang_off_the_anchor_and_nested_calls_count_once():
    tracer = tr.Tracer()

    def leaf(depth):
        time.sleep(0.02)
        if depth:
            wrapped_leaf(depth - 1)

    wrapped_leaf = tracer.span("leaf", leaf)

    def suite():
        workers = [threading.Thread(target=wrapped_leaf, args=(1,)) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
        assert not any(w.is_alive() for w in workers)

    tracer.span("suite", suite, anchor=True)()

    spans = tracer.spans()
    suite_span = next(s for s in spans if s.name == "suite")
    leaves = [s for s in spans if s.name == "leaf"]
    assert len(leaves) == 4
    outer = [s for s in leaves if s.parent == suite_span.sid]
    assert len(outer) == 2
    assert tracer.counts()["leaf.calls"] == 2  # the nested calls are part of their outer call
    selfs = tr.self_times(spans)
    expected = (suite_span.end - suite_span.start) - tr.covered(
        [(s.start, s.end) for s in outer], suite_span.start, suite_span.end
    )
    assert selfs[suite_span.sid] == pytest.approx(expected)
    # The two workers overlap, so the suite's own time is far below the sum of its children.
    assert selfs[suite_span.sid] < 0.02


def test_counter_counts_without_spans():
    tracer = tr.Tracer()
    f = tracer.counter("row.calls", lambda n: n + 1)
    assert [f(i) for i in range(3)] == [1, 2, 3]
    assert tracer.counts()["row.calls"] == 3
    assert tracer.spans() == []
