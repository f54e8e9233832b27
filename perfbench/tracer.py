"""Per-layer tracing of idealcore, installed from outside the package.

``instrument(tracer)`` wraps the public functions and methods of each idealcore
module (one module is one layer).  Methods are wrapped on every class that
defines them, so calls between layers are caught; module functions are rebound
in every idealcore module that imported them by name.  Hot per-row calls
(``InfiniteMatrix.row``, ``row_abs_sum``) are counted, not spanned.

Spans are kept in memory, one list per thread, because suite items run on the
harness's worker threads.  A span opened on a thread with no open span takes
the open *anchor* span (``harness.run_suite``) as its parent, so the items
that the worker pool runs are children of the suite run that started them.

``layer_metrics`` turns the spans and counters into the per-layer metrics:
``calls`` counts outermost spans only (a span whose parent has the same name is
nested work of one call), ``self_s`` is a span's duration minus the part of its
interval that its child spans cover, summed over every span of the name.
Self time is wall time: on a worker thread it includes waiting for the GIL.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float


@dataclass
class _ThreadState:
    stack: list = field(default_factory=list)  # (sid, name) of the open spans
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._anchor: tuple[int, str] | None = None

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    def spans(self) -> list[Span]:
        with self._lock:
            return [s for st in self._states for s in st.spans]

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for st in self._states:
                total.update(st.counts)
        return total

    def span(self, name, fn, before=None, after=None, anchor=False):
        """Wrap ``fn`` in a span.  On outermost calls only, ``after(counts, args,
        kwargs, result, token)`` records counters, with ``token = before(args, kwargs)``."""

        def wrapper(*args, **kwargs):
            st = self._state()
            parent = st.stack[-1] if st.stack else self._anchor
            outermost = parent is None or parent[1] != name
            if outermost:
                st.counts[name + ".calls"] += 1
            sid = next(self._ids)
            st.stack.append((sid, name))
            if anchor:
                outer, self._anchor = self._anchor, (sid, name)
            token = before(args, kwargs) if before and outermost else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
                if anchor:
                    self._anchor = outer
                st.spans.append(Span(sid, parent[0] if parent else None, name, t0, t1))
            if after and outermost:
                after(st.counts, args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so that each call only increments ``name``."""

        def wrapper(*args, **kwargs):
            self._state().counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered(children[s.sid], s.start, s.end) for s in spans}


# ---------------------------------------------------------------------------
# Instrumentation of the idealcore layers


def _rebind(orig, wrapped) -> None:
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "idealcore" or modname.startswith("idealcore.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def _classes(base) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _elements(counts, args, kwargs, result, token):
    counts["sets.enumerate_prefix.elements"] += len(result)


def _sequence_cache(args, kwargs):
    return args[0]._cache


def _sequence_values(counts, args, kwargs, result, before):
    cache = args[0]._cache
    if cache is before:
        counts["sequences.prefix.hits"] += 1
    else:
        counts["sequences.prefix.values_built"] += len(cache)


def _map_values(counts, args, kwargs, result, token):
    counts["maps.prefix.values"] += len(result)


def _positivity(counts, args, kwargs, result, token):
    hits = args[1] if len(args) > 1 else kwargs["hits"]
    counts["ideals.positivity.hits"] += len(hits)
    if result[0].value != "inconclusive":
        counts["ideals.positivity.decided"] += 1


def _cluster(counts, args, kwargs, result, token):
    if result.exact:
        counts["asymptotics.cluster.exact"] += 1


def _suite(counts, args, kwargs, result, token):
    counts["harness.items"] += len(result.timings)
    counts["harness.item_s.sum"] += sum(elapsed for _, elapsed in result.timings)


_BULK_METHODS = ("row_sums", "masked_row_sums", "transform_prefix", "max_support")


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every idealcore layer (call once per process)."""
    from idealcore import asymptotics, constructions, harness, ideals, maps, matrices
    from idealcore import regularity, sequences, sets, specs

    sets.SetDescription.enumerate_prefix = tracer.span(
        "sets.enumerate_prefix", sets.SetDescription.enumerate_prefix, after=_elements
    )
    sequences.BoundedSequence.prefix = tracer.span(
        "sequences.prefix", sequences.BoundedSequence.prefix,
        before=_sequence_cache, after=_sequence_values,
    )
    maps.IndexMap.prefix = tracer.span("maps.prefix", maps.IndexMap.prefix, after=_map_values)

    for cls in _classes(matrices.InfiniteMatrix):
        own = vars(cls)
        for name in _BULK_METHODS:
            if name in own:
                setattr(cls, name, tracer.span("matrices.bulk", own[name]))
        if "row" in own:
            cls.row = tracer.counter("matrices.row.calls", own["row"])
        if "row_abs_sum" in own:
            cls.row_abs_sum = tracer.counter("matrices.row_abs_sum.calls", own["row_abs_sum"])
    for fn in (matrices.norm_estimate, matrices.find_negative_entry):
        _rebind(fn, tracer.span("matrices.bulk", fn))

    _rebind(ideals.membership, tracer.span("ideals.membership", ideals.membership))
    for cls in _classes(ideals.Ideal):
        if "positivity" in vars(cls):
            cls.positivity = tracer.span("ideals.positivity", vars(cls)["positivity"], after=_positivity)

    for fn in (asymptotics.cluster_points, asymptotics.cluster_of_values):
        _rebind(fn, tracer.span("asymptotics.cluster", fn, after=_cluster))
    _rebind(asymptotics.ideal_lim_check, tracer.span("asymptotics.lim_check", asymptotics.ideal_lim_check))

    for fn in (
        regularity.silverman_toeplitz_check,
        regularity.allen_check,
        regularity.cfo_check,
        regularity.leo_check,
    ):
        _rebind(fn, tracer.span("regularity.check", fn))
    _rebind(regularity.default_family, tracer.span("regularity.family", regularity.default_family))
    regularity.TestFamily.validate = tracer.span("regularity.family", regularity.TestFamily.validate)

    _rebind(
        constructions.transformed_sequence,
        tracer.span("constructions.transform", constructions.transformed_sequence),
    )
    _rebind(
        constructions.core_equality_experiment,
        tracer.span("constructions.experiment", constructions.core_equality_experiment),
    )

    _rebind(harness.run_suite, tracer.span("harness.run_suite", harness.run_suite, after=_suite, anchor=True))
    _rebind(specs.parse_experiment_config, tracer.span("specs.parse", specs.parse_experiment_config))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric -> unit, in the order they are reported.
LAYER_METRICS = {
    "sets.enumerate_prefix.calls": "count",
    "sets.enumerate_prefix.self_s": "s",
    "sets.enumerate_prefix.elements": "count",
    "sequences.prefix.calls": "count",
    "sequences.prefix.self_s": "s",
    "sequences.prefix.values_built": "count",
    "sequences.prefix.hit_ratio": "ratio",
    "maps.prefix.calls": "count",
    "maps.prefix.self_s": "s",
    "maps.prefix.values": "count",
    "matrices.row.calls": "count",
    "matrices.row_abs_sum.calls": "count",
    "matrices.bulk.calls": "count",
    "matrices.bulk.self_s": "s",
    "ideals.membership.calls": "count",
    "ideals.membership.self_s": "s",
    "ideals.positivity.calls": "count",
    "ideals.positivity.self_s": "s",
    "ideals.positivity.hits": "count",
    "ideals.positivity.decided_ratio": "ratio",
    "asymptotics.cluster.calls": "count",
    "asymptotics.cluster.self_s": "s",
    "asymptotics.cluster.exact_ratio": "ratio",
    "asymptotics.lim_check.calls": "count",
    "asymptotics.lim_check.self_s": "s",
    "regularity.check.calls": "count",
    "regularity.check.self_s": "s",
    "regularity.family.self_s": "s",
    "constructions.transform.self_s": "s",
    "constructions.experiment.self_s": "s",
    "harness.items": "count",
    "harness.item_s.sum": "s",
    "harness.overlap": "ratio",
    "specs.parse.self_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced process (see ``LAYER_METRICS``)."""
    spans = tracer.spans()
    counts = tracer.counts()
    selfs = self_times(spans)
    self_s: Counter = Counter()
    suite_wall = 0.0
    for s in spans:
        self_s[s.name] += selfs[s.sid]
        if s.name == "harness.run_suite":
            suite_wall += s.end - s.start

    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.endswith(".self_s"):
            out[name] = self_s[name[: -len(".self_s")]]
        else:
            out[name] = counts[name]
    out["sequences.prefix.hit_ratio"] = _ratio(
        counts["sequences.prefix.hits"], counts["sequences.prefix.calls"]
    )
    out["ideals.positivity.decided_ratio"] = _ratio(
        counts["ideals.positivity.decided"], counts["ideals.positivity.calls"]
    )
    out["asymptotics.cluster.exact_ratio"] = _ratio(
        counts["asymptotics.cluster.exact"], counts["asymptotics.cluster.calls"]
    )
    out["harness.overlap"] = _ratio(counts["harness.item_s.sum"], suite_wall)
    return out
