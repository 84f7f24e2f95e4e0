"""Outside-in host-clock tracing of the ``repro`` layers.

Nothing under ``src/`` knows it is being traced.  :meth:`Tracer.install`
replaces the public callables named in :data:`TARGETS` with timing wrappers —
class attributes for methods; for module functions every ``repro.*`` module
attribute that *is* the original, because callers import by name — and
:meth:`Tracer.uninstall` puts every original back.

A wrapper appends ``(callable id, clock())`` on entry and ``(-1, clock())`` on
exit to one flat list; that is all the work done while the program runs.
:func:`build_spans` turns the event list into spans (name, start, end, parent)
afterwards, with NumPy, and computes each span's *self time*: its duration
minus the part its child spans cover.  Summed per layer, self times partition
the traced pass, so shares add up to one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

__all__ = ["TARGETS", "Spans", "Tracer", "build_spans"]

#: layer -> ((module, "function" | "Class.method"), ...).  A method is wrapped
#: on the named class and on every subclass that overrides it.
TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "graphs.trees": (("repro.graphs.trees", "parents_to_edgelist"),),
    "graphs.components": (("repro.graphs.components", "spanning_forest"),),
    "euler.dcel": (("repro.euler.dcel", "build_dcel"),),
    "euler.tour": (
        ("repro.euler.tour", "build_euler_tour"),
        ("repro.euler.tour", "build_euler_tour_from_dcel"),
        ("repro.euler.tour", "build_euler_tour_from_parents"),
    ),
    "euler.stats": (
        ("repro.euler.stats", "compute_tree_stats"),
        ("repro.euler.stats", "tree_statistics_from_parents"),
    ),
    "primitives.sort": (
        ("repro.primitives.sort", "sort_pairs"),
        ("repro.primitives.sort", "sort_key_value"),
        ("repro.primitives.sort", "argsort_values"),
        ("repro.primitives.sort", "sort_values"),
    ),
    "primitives.listrank": (("repro.primitives.listrank", "list_rank"),),
    "primitives.scan": (
        ("repro.primitives.scan", "inclusive_scan"),
        ("repro.primitives.scan", "exclusive_scan"),
        ("repro.primitives.scan", "segmented_inclusive_scan"),
        ("repro.primitives.scan", "add_scan_offsets"),
    ),
    "primitives.reduce": (
        ("repro.primitives.reduce", "segreduce_by_key"),
        ("repro.primitives.reduce", "reduce_array"),
        ("repro.primitives.reduce", "count_by_key"),
    ),
    "primitives.rmq": (
        ("repro.primitives.rmq", "build_rmq"),
        ("repro.primitives.rmq", "SegmentTreeRMQ.query"),
        ("repro.primitives.rmq", "SparseTableRMQ.query"),
    ),
    "lca.inlabel.build": (("repro.lca.inlabel", "build_inlabel_structure"),),
    "bridges.spanning": (
        ("repro.bridges.spanning", "split_tree_edges"),
        ("repro.bridges.spanning", "child_endpoints"),
    ),
    "bridges.tarjan_vishkin": (
        ("repro.bridges.tarjan_vishkin", "find_bridges_tarjan_vishkin"),
    ),
    "lca.inlabel.query": (
        ("repro.lca.inlabel", "InlabelLCA.query"),
        ("repro.lca.inlabel", "SequentialInlabelLCA.query"),
    ),
    "backends": (("repro.backends.base", "CompiledKernel.query"),),
    "lca.dedup": (
        ("repro.lca.dedup", "dedup_query_pairs"),
        ("repro.lca.dedup", "pack_query_pairs"),
        ("repro.lca.dedup", "unpack_query_pairs"),
    ),
    "device.context": (
        ("repro.device.context", "ExecutionContext.kernel"),
        ("repro.device.context", "ExecutionContext.sequential"),
    ),
    "service.cluster": (
        ("repro.service.cluster", "ClusterService.submit_many"),
        ("repro.service.cluster", "ClusterService.submit"),
        ("repro.service.cluster", "ClusterService.advance_to"),
        ("repro.service.cluster", "ClusterService.drain"),
    ),
    "service.routing": (("repro.service.routing", "Router.route_block"),),
    "service.service": (
        ("repro.service.service", "LCAQueryService.submit_many"),
        ("repro.service.service", "LCAQueryService.submit"),
        ("repro.service.service", "LCAQueryService.advance_to"),
        ("repro.service.service", "LCAQueryService.sync_to"),
        ("repro.service.service", "LCAQueryService.drain"),
    ),
    "service.validate": (("repro.service.service", "block_clean_prefix"),),
    "service.scheduler": (
        ("repro.service.scheduler", "MicroBatchScheduler.submit_block"),
        ("repro.service.scheduler", "MicroBatchScheduler.submit"),
        ("repro.service.scheduler", "MicroBatchScheduler.advance_to"),
        ("repro.service.scheduler", "MicroBatchScheduler.drain"),
    ),
    "service.cache": (
        ("repro.service.cache", "AnswerCache.lookup"),
        ("repro.service.cache", "AnswerCache.insert"),
    ),
    "service.dispatch": (
        ("repro.service.dispatch", "CostModelDispatcher.choose"),
        ("repro.service.dispatch", "CostModelDispatcher.choose_with_estimate"),
        ("repro.service.dispatch", "CostModelDispatcher.estimate"),
    ),
    "service.registry": (
        ("repro.service.registry", "IndexRegistry.fetch"),
        ("repro.service.registry", "IndexRegistry.fetch_by_key"),
    ),
    "service.stats": (
        # Not ``record_submit``: a one-line counter called once per query, on
        # which a wrapper would cost several times the call it measures.
        ("repro.service.stats", "StatsCollector.record_batch"),
        ("repro.service.stats", "StatsCollector.snapshot"),
    ),
    "service.read": (
        ("repro.service.service", "LCAQueryService.results"),
        ("repro.service.service", "LCAQueryService.latencies"),
        ("repro.service.cluster", "ClusterService.results"),
        ("repro.service.cluster", "ClusterService.latencies"),
    ),
}

#: Event id that closes the innermost open span.
_EXIT = -1


@dataclass(frozen=True)
class Spans:
    """The spans of one traced pass, in start order (all arrays aligned)."""

    name_id: np.ndarray  # index into ``Tracer.names``
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray  # span index, -1 for a root
    self_s: np.ndarray

    def __len__(self) -> int:
        return int(self.name_id.size)

    def totals(
        self, groups: np.ndarray, n_groups: int, *, keep: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(self seconds, calls)`` per group over the spans ``keep`` selects.

        ``groups`` maps a name id to its group (a layer index).
        """
        g = groups[self.name_id[keep]]
        self_s = np.bincount(g, weights=self.self_s[keep], minlength=n_groups)
        calls = np.bincount(g, minlength=n_groups)
        return self_s, calls

    def enclosing(self, name_id: int) -> np.ndarray:
        """For each span, the ordinal of the ``name_id`` span containing it.

        ``-1`` where there is none.  Meant for span kinds that do not nest in
        themselves (the driver's front-door blocks).
        """
        marks = np.flatnonzero(self.name_id == name_id)
        out = np.full(len(self), -1, dtype=np.int64)
        if marks.size:
            k = np.searchsorted(self.start[marks], self.start, side="right") - 1
            inside = (k >= 0) & (self.end <= self.end[marks[np.maximum(k, 0)]])
            out[inside] = k[inside]
        return out


def build_spans(ids: np.ndarray, times: np.ndarray) -> Spans:
    """Reconstruct spans and self times from a balanced enter/exit event list.

    ``ids[i] >= 0`` opens a span of that name at ``times[i]``; ``ids[i] == -1``
    closes the innermost open one.  Spans at one nesting level are sequential,
    so the k-th entry at a level pairs with the k-th exit at that level, and
    a span's parent is the last entry one level up before it.  The time
    between two consecutive events belongs to whichever span is innermost
    between them.
    """
    ids = np.asarray(ids, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    if ids.size == 0:
        none = np.empty(0, dtype=np.int64)
        return Spans(none, times, times, none, times)
    enter = ids >= 0
    depth_after = np.cumsum(np.where(enter, 1, -1))
    if depth_after.min() < 0 or depth_after[-1] != 0:
        raise ValueError("unbalanced span events")
    level = np.where(enter, depth_after, depth_after + 1)
    entries = np.flatnonzero(enter)
    n = int(entries.size)
    span_of = np.empty(ids.size, dtype=np.int64)
    span_of[entries] = np.arange(n)
    end = np.empty(n, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    above = np.empty(0, dtype=np.int64)
    for lv in range(1, int(level.max()) + 1):
        at_level = level == lv
        opened = np.flatnonzero(at_level & enter)
        closed = np.flatnonzero(at_level & ~enter)
        spans = span_of[opened]
        end[spans] = times[closed]
        span_of[closed] = spans
        if lv > 1:
            parent[spans] = span_of[above[np.searchsorted(above, opened) - 1]]
        above = opened
    # Innermost open span after each event: the span itself on entry, its
    # parent on exit.
    top = np.where(enter, span_of, parent[span_of])[:-1]
    held = top >= 0
    self_s = np.bincount(top[held], weights=np.diff(times)[held], minlength=n)
    return Spans(ids[entries], times[entries], end, parent, self_s)


class _Mark:
    """Reusable context manager recording one manual span per ``with``."""

    def __init__(self, span_id: int, append: Callable, clock: Callable) -> None:
        self._id, self._append, self._clock = span_id, append, clock

    def __enter__(self) -> None:
        self._append(self._id)
        self._append(self._clock())

    def __exit__(self, *exc: object) -> None:
        self._append(_EXIT)
        self._append(self._clock())


class Tracer:
    """Installs the wrappers, holds the events, hands out spans per pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Span names (``layer/callable``); a span's ``name_id`` indexes these.
        self.names: List[str] = []
        #: Layer of each name, aligned with :attr:`names`.
        self.layers: List[str] = []
        # Flat event list: id, time, id, time, ...
        self._events: list = []
        # (owner, attribute, original) of every attribute replaced.
        self._patches: List[Tuple[object, str, object]] = []

    # -- span names ----------------------------------------------------
    def _name_id(self, layer: str, name: str) -> int:
        full = f"{layer}/{name}"
        if full not in self.names:
            self.names.append(full)
            self.layers.append(layer)
        return self.names.index(full)

    def mark(self, layer: str, name: str) -> _Mark:
        """A reusable ``with`` block recording a manual span (driver's own)."""
        return _Mark(self._name_id(layer, name), self._events.append, self._clock)

    # -- install / uninstall -------------------------------------------
    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` with a span recorded around every call (exceptions included)."""
        span_id = self._name_id(layer, name)
        append, clock = self._events.append, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            append(span_id)
            append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                append(_EXIT)
                append(clock())

        return traced

    def _patch(self, owner: object, attr: str, original: object, new: object) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every callable in :data:`TARGETS`; undo with :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer, targets in TARGETS.items():
            for module_name, path in targets:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, method = path.split(".")
                    self._install_method(layer, getattr(module, cls_name), method)
                else:
                    self._install_function(layer, getattr(module, path), path)

    def _install_function(self, layer: str, fn: Callable, name: str) -> None:
        if not inspect.isfunction(fn):
            raise TypeError(f"{name} is not a plain function")
        traced = self.wrap(fn, layer, name)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not f"{mod_name}.".startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, fn, traced)

    def _install_method(self, layer: str, cls: type, method: str) -> None:
        pending, seen = [cls], set()
        while pending:
            owner = pending.pop()
            pending.extend(owner.__subclasses__())
            fn = vars(owner).get(method)
            if fn is None or owner in seen:
                continue
            seen.add(owner)
            if not inspect.isfunction(fn):
                raise TypeError(f"{owner.__name__}.{method} is not a plain method")
            traced = self.wrap(fn, layer, f"{owner.__name__}.{method}")
            self._patch(owner, method, fn, traced)

    def uninstall(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def take(self) -> Spans:
        """Spans recorded since the last call; clears the event list."""
        events = self._events
        ids = np.array(events[0::2], dtype=np.int64)
        times = np.array(events[1::2], dtype=np.float64)
        events.clear()
        return build_spans(ids, times)
