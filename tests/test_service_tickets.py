"""One owner for per-ticket state: ``TicketTable``, and the boundary it closes.

The single-node service, the cluster and failover keep what they remember per
query in the columns of one :class:`~repro.service.tickets.TicketTable`.  Its
two rules — every column has the table's one capacity; a zeroed column reads
zero wherever nothing was written — are checked here against a plain Python
model, with ``np.empty`` poisoned (:func:`poisoned_empty`) so that memory which
merely *happens* to come back zeroed cannot pass for a zeroed column.  The
ticket validator is swept through every read-back method of both services.

Each of these mutations of ``tickets.py`` was applied by hand and fails the
test named beside it:

* grow only the columns present at construction (loop over the constructor's
  names, not ``_zeroed``) — ``test_property_columns_share_one_capacity``;
* ``np.empty`` for a zeroed column, at creation or on growth (drop
  ``zeroed=zeroed``) — ``test_zeroed_columns_read_zero_across_growth``;
* copy ``self.issued`` slots instead of the old capacity (``issued`` is
  already past it) — ``test_property_columns_share_one_capacity``;
* bump ``issued`` after growing (the table then grows to hold the *old*
  count) — ``test_issue_grows_before_the_caller_writes``;
* validate after the cast (``astype`` first) — ``test_index_refuses_in_order``;
* a piece that keeps the column it was deferred into (``self.answers[window]``
  bound at ``defer``) — ``test_deferred_answers_land_in_the_columns_a_growth_made``;
* a group popped before its launch (``self._pending.pop(key)`` first) —
  ``test_a_deferred_launch_that_raises_reraises_at_the_read_and_stays_pending``.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA, InlabelLCA, build_inlabel_index
from repro.service import (
    ClusterConfig,
    ClusterService,
    FaultEvent,
    FaultInjector,
    LCAQueryService,
    ServiceConfig,
)
from repro.service import tickets as tickets_module
from repro.service.tickets import TicketTable, grow_table


class PoisonedNumpy:
    """``numpy``, except that ``empty`` hands out all-ones memory."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.ones(shape, dtype=dtype)


@contextmanager
def poisoned_empty():
    with mock.patch.object(tickets_module, "np", PoisonedNumpy()):
        yield


def columns(table):
    return {name: getattr(table, name) for name in table._zeroed}


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(
        st.one_of(st.integers(0, 40), st.integers(1000, 9000)), min_size=1, max_size=12
    ),
    late_after=st.integers(0, 12),
)
def test_property_columns_share_one_capacity(counts, late_after):
    """Any sequence of ``issue`` calls — empty ones, ones that cross several
    doublings — against a dict model: consecutive firsts, one capacity for
    every column whenever it was created, written slots kept, zeroed columns
    zero everywhere else."""
    with poisoned_empty():
        table = TicketTable(0, value=np.int64)
        table.zeros("early", np.float64)
        written = {"value": {}, "early": {}, "late": {}}
        expected_first = 0
        for step, count in enumerate(counts):
            if step == late_after:
                table.zeros("late", np.int64)
            first = table.issue(count)
            assert type(first) is int and first == expected_first
            expected_first += count
            assert table.issued == expected_first <= table.capacity
            assert {column.size for column in columns(table).values()} == {
                table.capacity
            }
            # Every ticket gets a value; every third one a debt-like entry.
            table.value[first : first + count] = np.arange(first, first + count)
            written["value"].update((t, t) for t in range(first, first + count))
            for name in ("early", "late"):
                if hasattr(table, name):
                    sparse = range(first + (-first) % 3, first + count, 3)
                    getattr(table, name)[list(sparse)] = 7
                    written[name].update((t, 7) for t in sparse)
        assert np.array_equal(table.value[: table.issued], np.arange(table.issued))
        for name in ("early", "late"):
            if hasattr(table, name):
                model = np.zeros(table.capacity)
                model[list(written[name])] = 7
                assert np.array_equal(getattr(table, name), model)


@pytest.mark.parametrize("created", ["before", "after"])
def test_zeroed_columns_read_zero_across_growth(created):
    with poisoned_empty():
        table = TicketTable(0, answers=np.int64)
        assert table.answers[0] == 1  # the poison: plain columns are not zeroed
        if created == "before":
            table.zeros("answered", np.bool_)[5] = True
        table.issue(table.capacity + 1)  # one reallocation
        if created == "after":
            table.zeros("answered", np.bool_)[5] = True
        table.issue(3 * table.capacity)  # another, across two doublings
        assert table.answered.size == table.answers.size == table.capacity == 8192
        assert table.answered.nonzero()[0].tolist() == [5]
        assert table.zeros("answered", np.bool_) is table.answered  # created once


def test_issue_grows_before_the_caller_writes():
    table = TicketTable(0, answers=np.int64)
    table.issue(1024)
    table.answers[:1024] = np.arange(1024)
    first = table.issue(1)  # the 1025th ticket does not fit 1024 slots
    table.answers[first] = -7
    assert (first, table.issued, table.capacity) == (1024, 1025, 2048)
    assert table.answers[1024] == -7
    assert np.array_equal(table.answers[:1024], np.arange(1024))


def test_capacity_is_pre_sized_and_grow_table_is_a_no_op_when_roomy():
    assert TicketTable(5000, a=np.int64).a.size == 5000
    assert TicketTable(-3, a=np.int64).capacity == TicketTable().capacity == 1024
    table = np.arange(8)
    assert grow_table(table, 8, 8) is table
    assert grow_table(table, 3, 9, zeroed=True).tolist() == [0, 1, 2] + [0] * 13


@pytest.mark.parametrize("make", [LCAQueryService, ClusterService],
                         ids=["service", "cluster"])
def test_a_front_door_answers_into_one_table_of_the_least_capacity(make):
    """No knob pre-sizes a front door's table: it starts at the least
    capacity, and a cluster's workers all answer into the one it built."""
    front = make()
    assert front._tickets.capacity == TicketTable().capacity == 1024
    assert all(w._tickets is front._tickets for w in getattr(front, "replicas", ()))


#: What a ticket may not be: each would have been cast to a ticket number.
NOT_TICKETS = {
    "float": 0.7,
    "bool": True,
    "str": "0",
    "none": None,
    "floats": [0.2, 1.9],
    "complex": 1 + 0j,
    "2-D": np.array([[0, 1]]),
    "ragged": [[0], [0, 1]],
    "empty 2-D": np.empty((0, 2), dtype=np.int64),
}

#: What still is one, and the 1-D ``int64`` tickets it normalises to.
TICKETS = {
    "list": ([0, 1], [0, 1]),
    "uint8": (np.uint8(1), [1]),
    "0-D": (np.array(1), [1]),
    "int": (1, [1]),
    "empty": ([], []),
    "int32": (np.array([1, 0, 1], dtype=np.int32), [1, 0, 1]),
}


def test_index_refuses_in_order():
    table = TicketTable()
    table.issue(4)
    # Dtype and shape first — a cast would turn 0.5 into a known ticket and
    # 99.5 into "unknown ticket 99" — then the first unknown in caller order.
    with pytest.raises(ServiceError, match="tickets must be integers"):
        table.index([0.5, 99.5])
    with pytest.raises(ServiceError, match="tickets must be integers"):
        table.index(np.array([[0, 99]]))
    with pytest.raises(ServiceError, match="unknown ticket 99"):
        table.index([3, 99, -1, 4])
    with pytest.raises(ServiceError, match="unknown ticket -1"):
        table.index(np.array([2**64 - 1], dtype=np.uint64))
    with pytest.raises(ServiceError, match="unknown ticket 4"):
        table.index(4)
    for bad in NOT_TICKETS.values():
        with pytest.raises(ServiceError, match="tickets must be"):
            table.index(bad)
    for good, normalised in TICKETS.values():
        idx = table.index(good)
        assert idx.dtype == np.int64 and idx.ndim == 1
        assert idx.tolist() == normalised


# ----------------------------------------------------------------------
# The boundary, in the one place it lives, through every reader
# ----------------------------------------------------------------------
PARENTS = random_attachment_tree(64, seed=31)
READERS = ("result", "results", "latency", "latencies")


def drained(kind):
    if kind == "service":
        target = LCAQueryService(config=ServiceConfig(max_batch_size=4))
        target.register_tree("t", PARENTS)
    else:
        target = ClusterService(config=ClusterConfig(n_replicas=2, router="round-robin"))
        target.register_tree("t", PARENTS, replicas=2)
    xs, ys = generate_random_queries(PARENTS.size, 6, seed=32)
    target.submit_many("t", xs, ys, at=np.arange(6) * 1e-6)
    target.drain()
    return target


def readers(target):
    return [getattr(target, name) for name in READERS if hasattr(target, name)]


@pytest.mark.parametrize("kind", ["service", "cluster"])
@pytest.mark.parametrize("bad", sorted(NOT_TICKETS))
def test_every_reader_refuses_what_is_not_a_ticket(kind, bad):
    for read in readers(drained(kind)):
        with pytest.raises(ReproError) as raised:
            read(NOT_TICKETS[bad])
        assert isinstance(raised.value, ServiceError), read.__name__
        assert "tickets must be" in str(raised.value)


@pytest.mark.parametrize("kind", ["service", "cluster"])
@pytest.mark.parametrize("good", sorted(TICKETS))
def test_every_reader_still_answers_tickets(kind, good):
    target = drained(kind)
    tickets, normalised = TICKETS[good]
    answers = target.results(np.arange(6))
    delays = target.latencies(np.arange(6))
    assert target.results(tickets).tolist() == answers[normalised].tolist()
    assert target.latencies(tickets).tolist() == delays[normalised].tolist()
    if len(normalised) == 1:
        assert target.result(tickets) == answers[normalised[0]]
        assert target.latency(tickets) == delays[normalised[0]]


@pytest.mark.parametrize("kind", ["service", "cluster"])
def test_read_back_error_order_is_dtype_then_unknown_then_queued(kind):
    target = drained(kind)
    queued = int(target.submit_many("t", [1], [2], at=[1.0])[0])
    with pytest.raises(ServiceError, match="tickets must be integers"):
        target.results([float(queued), 99.0])
    with pytest.raises(ServiceError, match="unknown ticket 99"):
        target.results([queued, 99])
    with pytest.raises(ServiceError, match=f"ticket {queued} is still queued"):
        target.latencies([0, queued])
    if kind == "cluster":
        # Two queued tickets on different replicas, the higher replica's
        # first in the caller's order: a read in worker order would meet the
        # other one first, but the error names the caller's first.
        cluster = ClusterService(
            config=ClusterConfig(n_replicas=2, router="round-robin")
        )
        cluster.register_tree("t", PARENTS, on=[1, 0])
        high = cluster.submit("t", 1, 2, at=0.0)
        assert [w.pending_count() for w in cluster.replicas] == [0, 1]
        low = cluster.submit("t", 3, 4, at=0.0)
        assert [w.pending_count() for w in cluster.replicas] == [1, 1]
        for read in (cluster.results, cluster.latencies):
            for first, second in ((high, low), (low, high)):
                with pytest.raises(ServiceError, match=f"ticket {first} is still"):
                    read([first, second])


def fancy_read(service, column, tickets):
    """The read every ticket sequence took before ascending runs were sliced."""
    table = service._tickets
    idx = table.index(tickets)
    answered = table.answered[idx]
    if not answered.all():
        raise ServiceError(f"ticket {idx[int(answered.argmin())]} is still queued; "
                           f"advance time or drain()")
    return getattr(table, column)[idx]


def read_outcome(read, *args):
    try:
        return read(*args)
    except ReproError as exc:
        return type(exc), str(exc)


def ten_served_three_queued():
    service = LCAQueryService(config=ServiceConfig(max_batch_size=64, max_wait_s=1.0))
    service.register_tree("t", PARENTS)
    xs, ys = generate_random_queries(PARENTS.size, 13, seed=33)
    service.submit_many("t", xs[:10], ys[:10], at=np.arange(10) * 1e-6)
    service.drain()
    service.submit_many("t", xs[10:], ys[10:], at=np.ones(3))
    return service


#: Tickets 0-9 answered (each latency its own), 10-12 queued; -2, -1, 13
#: and up unknown.
READ_BACK = ten_served_three_queued()
RUN = st.builds(lambda lo, size: list(range(lo, lo + size)),
                st.integers(-2, 14), st.integers(0, 6))


@settings(max_examples=300, deadline=None)
@given(tickets=st.one_of(
    RUN,                                            # ascending, consecutive
    RUN.map(lambda run: run[::-1]),                 # descending
    RUN.map(lambda run: run[:1] + run),             # a duplicate
    st.lists(st.integers(-2, 14), max_size=6).map(sorted),  # gaps, duplicates
    st.lists(st.integers(-2, 14), max_size=6),
), as_array=st.booleans())
@example(tickets=[3, 3, 5], as_array=False)
def test_property_reads_equal_the_fancy_index_reference(tickets, as_array):
    """``results`` and ``latencies`` return the bytes, or raise the
    error, of a fancy-index gather, in fresh arrays that alias no column.
    Reading ``>=`` for ``>`` in the ascending test, or returning the slice
    view uncopied, fails here."""
    if as_array:
        tickets = np.array(tickets, dtype=np.int64)
    table = READ_BACK._tickets
    for read, column in (("results", "answers"), ("latencies", "latencies")):
        got = read_outcome(getattr(READ_BACK, read), tickets)
        want = read_outcome(fancy_read, READ_BACK, column, tickets)
        if isinstance(want, tuple):
            assert got == want, read
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), read
            assert not np.shares_memory(got, getattr(table, column)), read


def test_debt_reads_zero_until_a_retry_writes_it_and_survives_growth():
    service = LCAQueryService()
    service.register_tree("t", PARENTS)
    plain = service.submit_many("t", [1, 2], [3, 4], at=[0.0, 0.0])
    assert not hasattr(service._tickets, "debt")
    retried = np.array([service._tickets.issue()])
    xs, ys, at, debt = np.array([5]), np.array([6]), np.array([1e-3]), np.array([2.5e-4])
    service.admit("t", retried, xs, ys, at, debt=debt)
    grown = service.submit_many("t", np.ones(2000, int), np.ones(2000, int))
    service.drain()
    debt = service._tickets.debt
    assert debt[[*plain, *retried]].tolist() == [0.0, 0.0, 2.5e-4]
    assert not debt[grown].any()
    assert service.latency(retried[0]) > 2.5e-4


# ----------------------------------------------------------------------
# Deferred launches: answered on read, coalesced per index
# ----------------------------------------------------------------------
class Kernel:
    """An Inlabel view that logs each launch's lanes; raises while ``broken``."""

    def __init__(self, parents):
        self.inner = InlabelLCA.from_index(build_inlabel_index(parents))
        self.structure, self.launches, self.broken = self.inner.structure, [], False

    def query(self, xs, ys):
        self.launches.append(xs.size)
        if self.broken:
            raise RuntimeError("device lost")
        return self.inner.query(xs, ys)


def deferring_table(kernel, xs, ys, first=None):
    """A table of 30 answered tickets, deferred as a slice and a scatter (after
    tickets 30 and 31 on ``first``, if given)."""
    table = TicketTable(0, answers=np.int64)
    table.zeros("answered", np.bool_)[:table.issue(32) + 32] = True
    if first is not None:
        table.defer(first, slice(30, 32), xs[:2], ys[:2])
    table.defer(kernel, slice(0, 20), xs[:20], ys[:20])
    table.defer(kernel, np.arange(29, 19, -1), xs[:19:-1], ys[:19:-1])
    return table


def test_deferred_answers_land_in_the_columns_a_growth_made():
    xs, ys = generate_random_queries(64, 30, seed=81)
    kernel = Kernel(PARENTS)
    with poisoned_empty():
        table = deferring_table(kernel, xs, ys)
        column = table.answers
        table.issue(3 * table.capacity)  # two doublings while both wait
        assert table.answers is not column and table.capacity == 4096
        assert kernel.launches == [] and table.pending_lanes == 30
        answers = table.read("answers", np.arange(30))
    assert np.array_equal(answers, BinaryLiftingLCA(PARENTS).query(xs, ys))
    assert kernel.launches == [30] and table.pending_lanes == 0
    assert (column[:30] == 1).all()  # the poison: nothing landed in the old one


def test_a_deferred_launch_that_raises_reraises_at_the_read_and_stays_pending():
    xs, ys = generate_random_queries(64, 30, seed=82)
    kernel, other = Kernel(PARENTS), Kernel(PARENTS)  # two indexes
    table = deferring_table(kernel, xs, ys, first=other)
    kernel.broken = True
    with pytest.raises(RuntimeError, match="device lost"):
        table.read("answers", [31])
    # The first index's launch ran and landed; the broken one's pieces wait.
    assert (other.launches, kernel.launches, table.pending_lanes) == ([2], [30], 30)
    expected = BinaryLiftingLCA(PARENTS).query(xs, ys)
    assert np.array_equal(table.answers[30:32], expected[:2])
    kernel.broken = False
    assert np.array_equal(table.read("answers", np.arange(32)),
                          np.r_[expected, expected[:2]])
    assert (other.launches, kernel.launches, table.pending_lanes) == ([2], [30, 30], 0)


# ----------------------------------------------------------------------
# The cluster's one routing cut
# ----------------------------------------------------------------------
def test_the_shared_grouping_keeps_caller_order_for_admission_and_failover(monkeypatch):
    """Admission and failover cut their blocks with ``_grouped`` (a read-back
    groups nothing: it is one read of the one table): targets ascend as
    Python ints, each target's positions ascend (so a sub-block of an
    arrival-ordered block is arrival-ordered) and together they cover the
    block once."""
    calls = []
    grouped = ClusterService._grouped

    def spy(owners):
        groups = list(grouped(owners))
        calls.append((owners.copy(), groups))
        return iter(groups)

    monkeypatch.setattr(ClusterService, "_grouped", staticmethod(spy))
    parents = random_attachment_tree(300, seed=33)
    cluster = ClusterService(
        config=ClusterConfig(
            n_replicas=3, router="round-robin", max_batch_size=64, max_wait_s=1.0
        ),
        fault_injector=FaultInjector([FaultEvent(1e-3, "kill", replica=1)]),
    )
    cluster.register_tree("t", parents, replicas=3)
    xs, ys = generate_random_queries(300, 50, seed=34)
    tickets = cluster.submit_many("t", xs, ys, at=np.arange(50) * 1e-6)
    assert len(calls) == 1  # admission
    cluster.advance_to(2e-3)  # the kill strands replica 1's queue: failover
    assert len(calls) == 2 and calls[1][0].size == cluster.stats().queries_retried > 0
    cluster.drain()
    shuffled = np.random.default_rng(35).permutation(tickets)
    answers = cluster.results(shuffled)  # read-back
    assert len(calls) == 2

    for owners, groups in calls:
        targets = [target for target, _ in groups]
        assert targets == sorted(set(owners.tolist()))
        assert all(type(target) is int for target in targets)
        for target, sel in groups:
            assert (owners[sel] == target).all()
            assert (np.diff(sel) > 0).all()
        covered = np.concatenate([sel for _, sel in groups])
        assert sorted(covered.tolist()) == list(range(owners.size))
    assert set(calls[1][0].tolist()) == {0, 2}  # the retry avoids the dead replica
    assert np.array_equal(answers, BinaryLiftingLCA(parents).query(xs, ys)[shuffled])
