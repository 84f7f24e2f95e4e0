"""Exporters: JSONL event dumps and Chrome trace-event JSON.

Two output formats, one source of truth:

* :func:`write_events_jsonl` — the raw :class:`~repro.obs.events.TraceTable`
  as one JSON object per line, for ad-hoc analysis with any tool that
  reads JSONL.
* :func:`chrome_trace_events` — batch/kernel/replica spans as Chrome
  trace-event JSON on the shared simulated time axis.  Load the written
  file in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:
  replicas render as processes, backend lanes as threads, each batch as a
  queue span followed by a kernel span.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .events import (
    EV_CACHE_RESET,
    EV_DISPATCH,
    EV_FAULT,
    EV_FLUSH,
    EV_HEDGE,
    EV_KERNEL_END,
    EV_KERNEL_START,
    EV_MEMBERSHIP,
    EV_RETRY,
    EV_SCALE,
    EV_SHED,
    TraceTable,
    kind_name,
)

__all__ = [
    "event_rows",
    "write_events_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
]

#: Chrome trace timestamps are microseconds.
_US = 1e6


def event_rows(table: TraceTable) -> List[Dict[str, Any]]:
    """The table as a list of plain dicts (kind and aux codes resolved)."""
    rows: List[Dict[str, Any]] = []
    for i in range(table.n_events):
        rows.append(
            {
                "time_s": float(table.time_s[i]),
                "kind": kind_name(int(table.kind[i])),
                "ticket": int(table.ticket[i]),
                "batch": int(table.batch[i]),
                "replica": int(table.replica[i]),
                "detail": float(table.detail[i]),
                "label": table.label_of(int(table.aux[i])),
            }
        )
    return rows


def write_events_jsonl(path: str, table: TraceTable) -> int:
    """Write the table as JSONL (one event object per line); returns rows."""
    rows = event_rows(table)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return len(rows)


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace_events(table: TraceTable) -> List[Dict[str, Any]]:
    """Convert a serving trace into Chrome trace-event objects.

    Layout: one *process* per replica, two *threads* per backend lane —
    ``<lane>`` carries the kernel spans (flush → start → end pairing from
    the batch events), ``<lane> queue`` the time each batch spent waiting
    for its lane.  Shed, cache-reset, fault, retry, hedge and membership
    events render as instants.
    """
    events: List[Dict[str, Any]] = []
    # Join the per-batch lifecycle events on the batch id.
    flush_at: Dict[int, float] = {}
    flush_size: Dict[int, float] = {}
    flush_trigger: Dict[int, str] = {}
    predicted: Dict[int, float] = {}
    start_at: Dict[int, float] = {}
    start_lane: Dict[int, str] = {}
    start_replica: Dict[int, int] = {}
    service_s: Dict[int, float] = {}
    end_at: Dict[int, float] = {}
    for i in range(table.n_events):
        kind = int(table.kind[i])
        batch = int(table.batch[i])
        if batch < 0:
            continue
        if kind == EV_FLUSH:
            flush_at[batch] = float(table.time_s[i])
            flush_size[batch] = float(table.detail[i])
            flush_trigger[batch] = table.label_of(int(table.aux[i]))
        elif kind == EV_DISPATCH:
            predicted[batch] = float(table.detail[i])
        elif kind == EV_KERNEL_START:
            start_at[batch] = float(table.time_s[i])
            start_lane[batch] = table.label_of(int(table.aux[i]))
            start_replica[batch] = int(table.replica[i])
            service_s[batch] = float(table.detail[i])
        elif kind == EV_KERNEL_END:
            end_at[batch] = float(table.time_s[i])

    seen: Dict[int, List[str]] = {}
    for batch in sorted(start_at):
        start = start_at[batch]
        end = end_at.get(batch, start + service_s.get(batch, 0.0))
        lane = start_lane[batch]
        pid = start_replica[batch]
        size = int(flush_size.get(batch, 0.0))
        args: Dict[str, Any] = {"batch": batch, "size": size, "lane": lane}
        trigger = flush_trigger.get(batch)
        if trigger is not None:
            args["trigger"] = trigger
        if batch in predicted:
            args["predicted_us"] = predicted[batch] * _US
        events.append(
            {
                "name": f"batch {batch} ({size}q)",
                "ph": "X",
                "pid": pid,
                "tid": lane,
                "ts": start * _US,
                "dur": max(0.0, end - start) * _US,
                "cat": "kernel",
                "args": args,
            }
        )
        flushed = flush_at.get(batch)
        if flushed is not None and start > flushed:
            events.append(
                {
                    "name": f"queue batch {batch}",
                    "ph": "X",
                    "pid": pid,
                    "tid": f"{lane} queue",
                    "ts": flushed * _US,
                    "dur": (start - flushed) * _US,
                    "cat": "queue",
                    "args": {"batch": batch, "size": size},
                }
            )
        lanes = seen.setdefault(pid, [])
        if lane not in lanes:
            lanes.append(lane)

    instants = table.of_kind(
        EV_SHED, EV_CACHE_RESET, EV_FAULT, EV_RETRY, EV_HEDGE, EV_MEMBERSHIP,
        EV_SCALE,
    )
    for i in range(instants.n_events):
        kind = int(instants.kind[i])
        events.append(
            {
                "name": kind_name(kind),
                "ph": "i",
                "s": "g",
                "pid": max(0, int(instants.replica[i])),
                "tid": kind_name(kind),
                "ts": float(instants.time_s[i]) * _US,
                "cat": "system",
                "args": {"count": float(instants.detail[i])},
            }
        )

    meta: List[Dict[str, Any]] = []
    for pid in sorted(seen):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": f"replica {pid}"},
            }
        )
    return meta + events


def write_chrome_trace(path: str, events: List[Dict[str, Any]]) -> int:
    """Write trace events as a Perfetto-loadable JSON object; returns count."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms"}, fh, indent=None
        )
    return len(events)
