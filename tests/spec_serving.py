"""Executable spec of the serving timeline: one query at a time, from the documented rules.

``SpecService`` / ``SpecCluster`` take the front-door calls of
``LCAQueryService`` / ``ClusterService`` and replay them row by row with lists,
sets and floats: no spans, cuts or closed forms.  :func:`observables` reads
what a caller sees of either; ``tests/test_serving_spec.py`` demands the two
equal bit for bit.  The rules ("AD" is ``docs/architecture.md``):

* Admission (:func:`admit`; AD "Typed rejection at the door"): ids below ``n``,
  finite arrivals, none before the previous; the prefix before the first
  offender is admitted; at one row an id beats non-finite beats backwards.
* Flush (scheduler docstring; AD "Life of a flush"): size at the arrival that
  completes a batch, wait at head arrival + ``max_wait_s``.  Before an arrival
  at ``t``, deadlines < ``t`` on its dataset and <= ``t`` on the others expire,
  served in (flush, dataset rank) order; ``sync_to`` expires < ``t``;
  ``drain`` flushes at the clock.
* Lane (AD "Serial backends"): start = max(flush, lane free), done = start +
  charge; ``busy_time_s`` adds charges left to right.
* Charge (``_finish_span``): the probe on the skew-aware path + a cold build at
  the first fetch of a (replica, dataset, backend) + the dispatcher's estimate
  at the batch's unique misses, times the slowdown; all-hit batches go on the
  ``"cache"`` lane.
* Answer cache (AD "Answer-cache byte budget"; ``AnswerCache.insert``): a set
  per dataset space, reset when ``used + m > max_used``, truncated to the
  smallest keys.  ``submit_many`` memoizes at the front door, deadlines inside
  the block served after the probe (``_admit_memoized``'s approximation);
  a single node's row-wise ``submit`` does not.
* Cluster (``ClusterService.submit_many``; AD "Clock-frontier sync"): the
  clock is the frontier; the bound and the depths are read at the block's
  first arrival; least-outstanding routing a query at a time, ties to the
  earlier copy in placement order; a sub-block per replica, in id order.
* Faults (AD "No admitted query silently lost"): a kill re-admits the queue at
  max(now, worker clock) with debt = re-arrival - first arrival; transients
  claim whole batches; no live copy parks; past ``max_retries``,
  ``ReplicaDown``.
* Hedges (AD "Hedges never change answers"): done - flush > delay duplicates
  the batch at flush + delay on the least-outstanding other live copy; it
  wins only if it finishes earlier.

It reads ``CostModelDispatcher.choose_with_estimate``, ``answer_cache_probe_time``,
a view's build charge off a fresh ``ExecutionContext`` and ``BinaryLiftingLCA``.

Each deleted pairwise reference, and the draw or ``@example`` of
``tests/test_serving_spec.py`` that covers it now:

=======================================================================  ===============================
test_service_columnar::test_submit_block_matches_per_query_submission    ``chunk`` draw
test_service_columnar::test_property_submit_block_from_a_pending_window  ``chunk`` draw
test_service_columnar::test_property_columnar_equals_per_query           ``chunk`` draw, one node
test_service_columnar::test_columnar_interleaves_other_datasets_deadl..  ``INTERLEAVED_DEADLINES``
test_service_columnar::test_same_instant_size_and_wait_batches_keep_s..  ``SAME_INSTANT_SIZE_AND_WAIT``
test_service_columnar::test_submit_many_backwards_arrival_rejects_at_..  offender sweep vs :func:`admit`
test_service_cluster::test_property_single_replica_cluster_is_bit_ide..  ``replicas`` draw
test_service_cluster::test_submit_is_a_one_row_submit_many_with_the_a..  ``chunk`` x ``cache`` draws
test_service_cluster::test_clocks_stay_in_sync_after_shed                ``SHED_THEN_DRAIN``, both chunks
test_service_cluster::test_unbounded_cluster_never_sheds                 ``max_pending`` draw
test_service_faults::test_noop_injector_is_bit_identical_to_no_injector  ``faults`` draw
test_service_faults::test_failover_latency_is_measured_from_the_origi..  ``FAILOVER``
test_service_faults::test_transient_failures_are_retried_with_identi..   ``FLAKY``
test_service_faults::test_retry_cap_raises_typed_replica_down            ``RETRY_CAP``
test_service_faults::test_submit_to_fully_dead_dataset_raises_replic..   ``DEAD_DATASET``
test_service_faults::test_no_hedges_without_a_delay_or_a_straggler       ``HEDGED``, ``hedge`` draw
test_service_end_to_end::test_property_service_matches_reference         ``kind`` draw
test_service_end_to_end::test_warm_singleton_latency_is_wait_plus_ser..  ``warm`` draw
test_service_end_to_end::test_submitting_to_one_dataset_fires_another..  ``datasets`` draw
test_service_end_to_end::test_cross_dataset_batches_queue_in_flush_ti..  ``INTERLEAVED_DEADLINES``
test_service_end_to_end::test_answers_stay_per_dataset                   ``datasets`` draw
test_service_answer_cache::test_one_replica_cluster_matches_service_w..  ``replicas`` x ``cache`` draws
test_service_answer_cache::test_cache_on_off_answers_bit_identical       ``SKEWED_SPANS``, ``cache`` draw
test_service_runs::test_property_wide_blocks_equal_one_row_blocks        ``CROSSOVER``, ``chunk`` draw
test_serving_golden_timeline::test_rowwise_and_columnar_admission_agr..  ``chunk`` 0 vs k draws
conftest::located_clean_prefix                                           :func:`admit`
=======================================================================  ===============================

Mutations of ``src/`` each failing the property on its pinned examples: a
pairwise ``np.sum`` where ``record_span`` books ``busy_time_s``
(``INTERLEAVED_DEADLINES``); ``include_equal`` flipped in ``_expired_batches``
(``HEDGED``; its default flipped: ``SAME_INSTANT...`` row-wise); the debt
dropped on failover re-admission (``FAILOVER``); a hedge that wins when it
finishes later (``HEDGED``); ``credit_hits`` dropped (``SKEWED_SPANS``);
``span.answers[at + 1:...]`` (every example); no frontier advance before a
shed (``SHED_THEN_DRAIN``).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial

import numpy as np

from repro.boundary import query_block
from repro.device import ExecutionContext
from repro.errors import InvalidQueryError, Overloaded, ReplicaDown, ServiceError
from repro.lca import BinaryLiftingLCA, build_inlabel_index
from repro.lca.artifacts import ARTIFACT_BUILDERS
from repro.service import ClusterService, CostModelDispatcher
from repro.service.cache import answer_cache_probe_time


def admit(xs, ys, at, *, n, dataset, now):
    """``(stop, error)``: rows ``[:stop]`` are admissible, then ``error`` or None."""
    for i, (x, y, t) in enumerate(zip(xs.tolist(), ys.tolist(), at.tolist())):
        if not (0 <= x < n and 0 <= y < n):
            return i, InvalidQueryError(f"query nodes ({xs[i]}, {ys[i]}) out of range "
                                        f"for dataset {dataset!r} with {n} nodes")
        if not math.isfinite(t):
            message = f"arrival timestamps must be finite, got {t} at position {i}"
            return i, ServiceError(message)
        if t < now:
            message = f"cannot move the clock backwards (now={now}, requested={t})"
            return i, ServiceError(message)
        now = t
    return len(at), None


class AnswerSet:
    """The answer cache: 16-byte slots, a power of two of them, reset at 70%."""

    def __init__(self, nbytes):
        slots = 1 << ((nbytes // 16).bit_length() - 1)
        self.max_used = max(1, int(slots * 0.7))
        self.spaces, self.used = {}, 0
        self.hits = self.misses = self.resets = 0

    def probe(self, space, keys):
        found = [key in self.spaces.get(space, ()) for key in keys]
        self.hits += sum(found)
        self.misses += len(keys) - sum(found)
        return found

    def insert(self, space, keys):
        if self.used + len(keys) > self.max_used:
            self.spaces, self.used, self.resets = {}, 0, self.resets + 1
            keys = keys[: self.max_used]
        self.spaces.setdefault(space, set()).update(keys)
        self.used += len(keys)


class Trees(dict):
    """Parent arrays by name, in registration order (the dataset rank)."""

    def __init__(self):
        super().__init__()
        self.oracles, self.builds = {}, {}

    def answer(self, name, rows):
        if name not in self.oracles:
            self.oracles[name] = BinaryLiftingLCA(self[name])
        xs, ys = np.array([row[1:3] for row in rows]).T
        return self.oracles[name].query(xs, ys).tolist()

    def build_charge(self, name, backend):
        """The modeled build of ``backend``'s view: the CPU or GPU flavour."""
        if (name, backend.key) not in self.builds:
            ctx = ExecutionContext(backend.spec)
            view = ARTIFACT_BUILDERS["sequential" if backend.sequential else "parallel"]
            view(build_inlabel_index(self[name]), ctx=ctx)
            self.builds[name, backend.key] = ctx.elapsed
        return self.builds[name, backend.key]


def _pair(x, y):
    return (x, y) if x <= y else (y, x)


class SpecService:
    """One node: a queue per dataset on one clock, lanes, a registry, a cache.

    A row is ``(ticket, x, y, arrival, debt)``; a batch ``(dataset, rows,
    flush instant, trigger)``.  A cluster installs ``intercept`` and ``hedge``.
    """

    def __init__(self, config, trees=None, *, cache_bytes="config", now=0.0):
        self.batch, self.wait = config.max_batch_size, config.max_wait_s
        self.trees = Trees() if trees is None else trees
        nbytes = config.answer_cache_bytes if cache_bytes == "config" else cache_bytes
        self.cache = None if nbytes is None else AnswerSet(nbytes)
        self.dedup = config.dedup or self.cache is not None
        self.dispatcher = CostModelDispatcher()
        self.now, self.factor = now, 1.0
        self.pending, self.free, self.done, self.built = {}, {}, {}, set()
        self.issued, self.kernel, self.hits, self.busy = 0, 0, 0, 0.0
        self.sizes, self.triggers, self.lanes = Counter(), Counter(), Counter()
        self.intercept = self.hedge = None

    def register_tree(self, name, parents):
        self.trees[name] = np.asarray(parents)

    def warm(self, name):
        for backend in self.dispatcher.backends:
            self._fetch(name, backend)

    def submit(self, name, x, y, *, at):
        return self.block(name, [x], [y], [at], rowwise=True)[0]

    def submit_many(self, name, xs, ys, *, at=None):
        xs, ys, at = query_block(xs, ys, at, now=self.now)
        n, now = self.trees[name].size, self.now
        stop, error = admit(xs, ys, at, n=n, dataset=name, now=now)
        tickets = self.block(name, *(c[:stop].tolist() for c in (xs, ys, at)))
        if error is not None:
            raise error
        return np.asarray(tickets, dtype=np.int64)

    def advance_to(self, t, *, joining=None, include_equal=True):
        self._serve(self._expired(t, joining, include_equal))

    def drain(self):
        for name in self.trees:
            batches = -(-len(self.pending.get(name, ())) // self.batch)
            self._serve([self._cut(name, self.now, "drain") for _ in range(batches)])

    def pending_count(self):
        return sum(map(len, self.pending.values()))

    def block(self, name, xs, ys, at, debt=None, rowwise=False):
        """Admit clean rows one at a time (a cached block memoized first)."""
        first, self.issued = self.issued, self.issued + len(xs)
        memo = xs and self.cache and debt is None and not rowwise
        if not (memo and self._memoized(name, first, xs, ys, at)):
            for i, (x, y, t) in enumerate(zip(xs, ys, at)):
                self._serve(self._expired(t, exclusive=name))
                row = first + i, x, y, t, debt[i] if debt else 0.0
                self._serve(self._enqueue(name, row))
        return list(range(first, first + len(xs)))

    def _memoized(self, name, first, xs, ys, at):
        """Front-door memoization; False when nothing hits (then a plain block)."""
        self._serve(self._expired(at[0], exclusive=name))
        found = self.cache.probe(self._rank(name), list(map(_pair, xs, ys)))
        if not any(found):
            return False
        probe = answer_cache_probe_time(len(xs))
        start = max(at[-1], self.free.get("cache", 0.0))
        self.free["cache"] = start + probe
        latency = (start - at[-1]) + answer_cache_probe_time(1)
        self._record(sum(found), "hit", "cache", probe, 0)
        rows = [(first + i, *row, 0.0) for i, row in enumerate(zip(xs, ys, at))]
        run = []
        for row, hit, answer in zip(rows, found, self.trees.answer(name, rows)):
            if hit:
                self.done[row[0]] = answer, latency
            else:  # the misses join their own queue as a block: nothing else expires
                run += self._expired(row[3], name, only=name) + self._enqueue(name, row)
        self._serve(self._order(run + self._expired(at[-1], exclusive=name)))
        return True

    def _enqueue(self, name, row):
        rows = self.pending.setdefault(name, [])
        rows.append(row)
        return [self._cut(name, row[3], "size")] if len(rows) >= self.batch else []

    def _rank(self, name):
        return list(self.trees).index(name)

    def _order(self, run):
        return sorted(run, key=lambda batch: (batch[2], self._rank(batch[0])))

    def _deadline(self, name):
        rows = self.pending.get(name)
        return rows[0][3] + self.wait if rows else math.inf

    def _cut(self, name, flush, trigger):
        rows = self.pending[name]
        self.pending[name] = rows[self.batch :]
        return name, rows[: self.batch], flush, trigger

    def _expired(self, t, exclusive=None, include_equal=True, only=None):
        """Move the clock to ``t``; the batches that expire, in serving order."""
        self.now, run = t, []
        for name in [only] if only else self.trees:
            inclusive = include_equal and name != exclusive
            while self._deadline(name) < t or inclusive and self._deadline(name) == t:
                run.append(self._cut(name, self._deadline(name), "wait"))
        return self._order(run)

    def _fetch(self, name, backend):
        """A registry fetch: the build charge on a miss, 0.0 on a hit."""
        if (name, backend.key) in self.built:
            self.hits += 1
            return 0.0
        self.built.add((name, backend.key))
        return self.trees.build_charge(name, backend)

    def _serve(self, run):
        for name, rows, flush, trigger in run:
            if self.intercept is None or not self.intercept(name, rows):
                self._book(name, rows, flush, trigger)

    def _book(self, name, rows, flush, trigger):
        keys, charge, unique, lane = [_pair(*row[1:3]) for row in rows], 0.0, 0, "cache"
        if not self.dedup:
            unique = len(rows)
        elif self.cache is None:
            charge, unique = answer_cache_probe_time(len(rows)), len(set(keys))
        else:
            found = self.cache.probe(self._rank(name), keys)
            missing = sorted({key for key, hit in zip(keys, found) if not hit})
            charge, unique = answer_cache_probe_time(len(rows)), len(missing)
        if unique:
            backend, estimate = self.dispatcher.choose_with_estimate(unique)
            charge += self._fetch(name, backend)  # + 0.0 on a hit changes no bit
            charge += estimate
            if self.cache is not None:
                self.cache.insert(self._rank(name), missing)
            charge *= self.factor
            lane = backend.key
        done = self.free[lane] = max(flush, self.free.get(lane, 0.0)) + charge
        hedged = unique and self.hedge and self.hedge(name, rows, flush, done)
        effective = hedged if hedged and hedged < done else done
        for row, answer in zip(rows, self.trees.answer(name, rows)):
            self.done[row[0]] = answer, (effective - row[3]) + row[4]
        self._record(len(rows), trigger, lane, charge, unique)

    def _record(self, size, trigger, lane, charge, kernel):
        self.sizes[1 << (size.bit_length() - 1)] += 1
        self.triggers[trigger] += 1
        self.lanes[lane] += 1
        self.busy += charge
        self.kernel += kernel

    def serve_hedge(self, name, size, issue):
        backend, charge = self.dispatcher.choose_with_estimate(size)
        charge = (charge + self._fetch(name, backend)) * self.factor
        start = max(issue, self.free.get(backend.key, 0.0))
        self.free[backend.key] = start + charge
        self.busy += charge
        return start + charge


class SpecCluster:
    """Replica workers behind one front door: routing, admission, faults, hedges."""

    def __init__(self, config, events=None):
        self.config, self.trees, self.now = config, Trees(), config.start_time
        k, nbytes = config.n_replicas, config.answer_cache_bytes
        share = None if nbytes is None else nbytes // k  # split evenly per replica
        self.workers = [SpecService(config, self.trees, cache_bytes=share, now=self.now)
                        for _ in range(k)]
        self.events = None if events is None else sorted(events, key=lambda e: e.time_s)
        self.placement, self.where, self.retries = {}, [], {}
        self.failed, self.parked = [], []
        self.alive, self.transient = [True] * k, [0] * k
        self.retried = self.hedges_issued = self.hedges_won = self.shed = 0
        for r, worker in enumerate(self.workers):
            if events is not None:
                worker.intercept = partial(self._intercept, r)
            if config.hedge_delay_s is not None:
                worker.hedge = partial(self._hedge, r)

    def register_tree(self, name, parents, *, on):
        self.trees[name] = np.asarray(parents)
        self.placement[name] = tuple(dict.fromkeys(on))

    def warm(self, name):
        for c in self.placement[name]:
            self.workers[c].warm(name)

    def pending_count(self):
        return sum(worker.pending_count() for worker in self.workers)

    def submit(self, name, x, y, *, at):
        return int(self.submit_many(name, [x], [y], at=[at])[0])

    def submit_many(self, name, xs, ys, *, at=None):
        xs, ys, at = query_block(xs, ys, at, now=self.now)
        n, first = self.trees[name].size, len(self.where)
        stop, error = admit(xs, ys, at, n=n, dataset=name, now=self.now)
        if stop:
            self._apply_faults(float(at[0]))
            for worker in self.workers:
                worker.advance_to(float(at[0]), joining=name)
            self.now = float(at[0])
            copies = [c for c in self.placement[name] if self.alive[c]]
            if not copies:
                down = f"all {len(self.placement[name])} copies of dataset {name!r}"
                raise ReplicaDown(f"{down} are down", dataset=name, queries=stop)
            bound, pending = self.config.max_pending, self.pending_count()
            if bound is not None and stop > bound - pending:
                admitted = max(0, bound - pending)
                shed, stop = stop - admitted, admitted
                self.shed += shed
                error = Overloaded(
                    f"cluster queue is full (pending={pending}, max_pending={bound}); "
                    f"admitted {admitted} of {xs.size} queries, shed {shed}",
                    pending=pending, capacity=bound, admitted=admitted, shed=shed)
        if stop:
            self.where += [None] * stop
            columns = (c[:stop].tolist() for c in (xs, ys, at))
            self._route(name, copies, range(first, first + stop), *columns)
            self.now = float(at[stop - 1])
            self._drain_failed()
        if error is not None:
            raise error
        return np.arange(first, first + stop, dtype=np.int64)

    def drain(self):
        self._apply_faults(self.now)
        while True:
            for worker in self.workers:
                worker.advance_to(self.now, include_equal=False)  # sync_to
            for worker in self.workers:
                worker.drain()
            self._drain_failed()
            if self.pending_count() == 0:
                break
        if self.parked:
            names = sorted({entry[0] for entry in self.parked})
            stranded = sum(len(entry[1]) for entry in self.parked)
            raise ReplicaDown(
                f"{stranded} admitted queries are stranded with no live copy of "
                f"{names}; recover a replica or add_replica(), then drain() again",
                dataset=names[0], queries=stranded)

    def _route(self, name, copies, tickets, xs, ys, at, origin=None):
        """Least-outstanding, a query at a time; a sub-block per replica in id order.

        With ``origin``, a re-admission at ``at[0]``: each sub-block re-arrives
        at max(that, its worker's clock) with the debt back to ``origin``.
        """
        load, owners = [self.workers[c].pending_count() for c in copies], []
        for _ in tickets:
            owners.append(copies[load.index(min(load))])
            load[copies.index(owners[-1])] += 1
        for r in sorted(set(owners)):
            sel = [i for i, owner in enumerate(owners) if owner == r]
            worker, arrivals, debt = self.workers[r], [at[i] for i in sel], None
            if origin is not None:
                arrivals = [max(at[0], worker.now)] * len(sel)
                debt = [arrivals[0] - origin[i] for i in sel]
                self.retried += len(sel)
            sub = ([column[i] for i in sel] for column in (xs, ys))
            for i, ticket in zip(sel, worker.block(name, *sub, arrivals, debt)):
                self.where[tickets[i]] = r, ticket

    def _intercept(self, r, name, rows):
        if self.alive[r] and self.transient[r] <= 0:
            return False
        self.transient[r] -= self.alive[r]
        self.failed.append((r, name, rows))
        return True

    def _hedge(self, r, name, rows, flush, done):
        delay = self.config.hedge_delay_s
        copies = [c for c in self.placement[name] if c != r and self.alive[c]]
        if done - flush <= delay or not copies:
            return None
        load = [self.workers[c].pending_count() for c in copies]
        target = self.workers[copies[load.index(min(load))]]
        alt = target.serve_hedge(name, len(rows), flush + delay)
        self.hedges_issued += 1
        self.hedges_won += alt < done
        return alt if alt < done else None

    def _apply_faults(self, upto):
        """Every event due by ``upto``, each at max(its instant, the frontier)."""
        due = [event for event in self.events or () if event.time_s <= upto]
        if not due:
            return
        self.events = self.events[len(due) :]
        for event in due:
            t, r = max(event.time_s, self.now), event.replica
            for alive, worker in zip(self.alive, self.workers):
                if alive:
                    worker.advance_to(t)
            self.now, worker = t, self.workers[r]
            if event.action == "kill" and self.alive[r]:
                self.alive[r] = False
                for name in self.trees:
                    rows, worker.pending[name] = worker.pending.get(name, []), []
                    if rows:
                        self._redispatch(r, name, rows, t)
            elif event.action == "recover" and not self.alive[r]:
                worker.advance_to(t)
                self.alive[r], parked, self.parked = True, self.parked, []
                for entry in parked:
                    self._readmit(*entry, t)
            elif event.action == "slowdown":
                worker.factor = event.factor
            elif event.action == "transient":
                self.transient[r] += event.count
        self._drain_failed()

    def _drain_failed(self):
        while self.failed:
            self._redispatch(*self.failed.pop(0), self.now)

    def _redispatch(self, r, name, rows, now):
        """Re-admit rows replica ``r`` failed, on another copy when one lives."""
        back = {where: ticket for ticket, where in enumerate(self.where)}
        tickets = [back[r, row[0]] for row in rows]
        xs, ys, origin = zip(*((row[1], row[2], row[3] - row[4]) for row in rows))
        self._readmit(name, tickets, xs, ys, origin, now, exclude=r)

    def _readmit(self, name, tickets, xs, ys, origin, now, exclude=None):
        live = [c for c in self.placement[name] if self.alive[c]]
        copies = [c for c in live if c != exclude] or live
        if not copies:
            return self.parked.append((name, tickets, xs, ys, origin))
        attempts = [self.retries.get(ticket, 0) + 1 for ticket in tickets]
        if max(attempts) > self.config.max_retries:
            cap = f"{name!r} exceeded the retry cap ({self.config.max_retries})"
            raise ReplicaDown(f"{len(tickets)} queries on dataset {cap}", dataset=name,
                              queries=len(tickets))
        self.retries.update(zip(tickets, attempts))
        self._route(name, copies, tickets, xs, ys, [now] * len(tickets), origin)


def observables(target):
    """What a caller sees of a drained service, cluster or spec, by value."""
    cluster = isinstance(target, (SpecCluster, ClusterService))
    workers = target.workers if cluster else [target]
    faults = None
    if isinstance(target, (SpecService, SpecCluster)):
        where = target.where if cluster else [(0, t) for t in range(target.issued)]
        done = [workers[r].done.get(local) for r, local in where]
        counters = [(w.issued, sum(w.sizes.values()), dict(w.sizes), dict(w.triggers),
                     dict(w.lanes), w.kernel, w.busy, w.hits, len(w.built),
                     *(w.cache and (w.cache.hits, w.cache.misses, w.cache.resets)
                       or (0, 0, 0))) for w in workers]
        if cluster:
            faults = target.retried, target.hedges_issued, target.hedges_won
            faults += (target.shed,)
    else:
        done = [None] * target.tickets_issued
        for ticket in range(target.tickets_issued):
            try:
                done[ticket] = target.result(ticket), target.latency(ticket)
            except ServiceError:
                pass
        stats = [worker.stats() for worker in workers]
        counters = [(s.queries_submitted, s.batches_flushed, s.batch_size_histogram,
                     s.flush_triggers, s.backend_choices, s.kernel_queries,
                     s.busy_time_s, s.cache_hits, s.cache_misses, s.answer_cache_hits,
                     s.answer_cache_misses, s.answer_cache_resets) for s in stats]
        if cluster:
            s = target.stats()
            faults = s.queries_retried, s.hedges_issued, s.hedges_won, s.queries_shed
    return {"answers": [d and (int(d[0]), float(d[1]).hex()) for d in done],
            "workers": [(*c[:6], float(c[6]).hex(), *c[7:]) for c in counters],
            "cluster": faults}
