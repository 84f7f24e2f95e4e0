"""The vectorized Inlabel query kernel: one branch-free pass, checked hard.

The kernel answers both endpoints of every query through one stacked
computation and throws away the lanes that need no climb, so the tests look
for exactly what that could break: a wrong answer on a special-case pair
(equal nodes, ancestor pairs, equal inlabels), a discarded lane leaking into
a neighbour, an input form that takes a different path, an error that no
longer fires, and the shared log table showing up where it must not.
"""

import contextlib
import itertools
import os
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lca.artifacts import ARTIFACT_BUILDERS
from repro.device import GTX980, ExecutionContext
from repro.errors import InvalidGraphError, InvalidQueryError
from repro.euler import tree_statistics_from_parents
from repro.graphs import depths_from_parents
from repro.lca import (
    PACK_LIMIT,
    RMQLCA,
    BinaryLiftingLCA,
    InlabelIndex,
    InlabelLCA,
    NaiveGPULCA,
    SequentialInlabelLCA,
    brute_force_lca_batch,
    build_inlabel_structure,
    dedup_query_pairs,
    run_batched_queries,
)
from repro.lca import inlabel as inlabel_module
from repro.lca.inlabel import _ilog2_table, _query_tile, build_inlabel_index
from repro.service import (
    ArtifactKey,
    ClusterConfig,
    ClusterService,
    ForestStore,
    IndexRegistry,
    LCAQueryService,
)

from .conftest import make_tree

IMPLEMENTATIONS = [InlabelLCA, SequentialInlabelLCA]


def all_parent_arrays(n):
    """Every parent array on ``n`` labeled nodes that is a rooted tree."""
    for cand in itertools.product(range(-1, n), repeat=n):
        if cand.count(-1) != 1:
            continue
        for v in range(n):
            steps = 0
            while v != -1 and steps <= n:
                v = cand[v]
                steps += 1
            if v != -1:
                break
        else:
            yield np.array(cand, dtype=np.int64)


def caterpillar(n):
    """A spine of ``ceil(n / 2)`` nodes, one leaf hanging off each but the last."""
    spine = (n + 1) // 2
    parents = np.empty(n, dtype=np.int64)
    parents[:spine] = np.arange(-1, spine - 1)
    parents[spine:] = np.arange(n - spine)
    return parents


def complete_binary(n):
    parents = (np.arange(n, dtype=np.int64) - 1) // 2
    parents[0] = -1
    return parents


def assert_all_pairs_match_reference(parents):
    n = parents.size
    xs, ys = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
    expected = BinaryLiftingLCA(parents).query(xs, ys)
    assert np.array_equal(InlabelLCA(parents).query(xs, ys), expected)


class TestExhaustive:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_tree_every_pair(self, n):
        """All n^(n-1) labeled rooted trees, all n^2 pairs (x == y included)."""
        count = 0
        for parents in all_parent_arrays(n):
            assert_all_pairs_match_reference(parents)
            count += 1
        assert count == n ** (n - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 127, 128, 129, 257])
    @pytest.mark.parametrize("shape", ["path", "star", "caterpillar", "binary"])
    def test_extreme_shapes(self, shape, n):
        """Shapes that put many nodes on one inlabel path, or one per path."""
        parents = {
            "path": lambda: make_tree("path", n, seed=0),
            "star": lambda: make_tree("star", n, seed=0),
            "caterpillar": lambda: caterpillar(n),
            "binary": lambda: complete_binary(n),
        }[shape]()
        assert_all_pairs_match_reference(parents)


@st.composite
def tree_and_batch(draw):
    n = draw(st.integers(1, 200))
    parents = np.full(n, -1, dtype=np.int64)
    for v in range(1, n):
        parents[v] = draw(st.integers(0, v - 1))
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    relabeled = np.full(n, -1, dtype=np.int64)
    relabeled[order[1:]] = order[parents[1:]]
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=64))
    xs, ys = np.array(pairs, dtype=np.int64).T
    return relabeled, xs, ys


class TestLaneIndependence:
    @given(tree_and_batch())
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_its_single_queries(self, case):
        """A lane the final ``where`` discards must not touch its neighbours."""
        parents, xs, ys = case
        lca = InlabelLCA(parents)
        batch = lca.query(xs, ys)
        for k in range(xs.size):
            assert batch[k] == lca.query(xs[k : k + 1], ys[k : k + 1])[0]
        assert np.array_equal(batch, BinaryLiftingLCA(parents).query(xs, ys))


class TestInputForms:
    @pytest.fixture(scope="class")
    def case(self):
        parents = make_tree("shallow", 300, seed=11)
        rng = np.random.default_rng(12)
        xs = rng.integers(0, 300, size=90)
        ys = rng.integers(0, 300, size=90)
        return parents, xs, ys, BinaryLiftingLCA(parents).query(xs, ys)

    @pytest.mark.parametrize("impl", IMPLEMENTATIONS)
    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint32, np.uint64])
    def test_integer_dtypes(self, impl, dtype, case):
        parents, xs, ys, expected = case
        if dtype is np.int8:
            keep = (xs < 128) & (ys < 128)
            xs, ys, expected = xs[keep], ys[keep], expected[keep]
        out = impl(parents).query(xs.astype(dtype), ys.astype(dtype))
        assert out.dtype == np.int64
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("impl", IMPLEMENTATIONS)
    def test_mixed_dtypes_and_lists(self, impl, case):
        parents, xs, ys, expected = case
        lca = impl(parents)
        mixed = lca.query(xs.astype(np.int32), ys.astype(np.uint64))
        assert np.array_equal(mixed, expected)
        assert np.array_equal(lca.query(xs.tolist(), ys.tolist()), expected)
        assert np.array_equal(lca.query(xs.tolist(), ys), expected)

    @pytest.mark.parametrize("impl", IMPLEMENTATIONS)
    def test_strided_views(self, impl, case):
        parents, xs, ys, expected = case
        lca = impl(parents)
        table = np.stack([xs, ys], axis=1)  # columns are non-contiguous
        assert not table[:, 0].flags.c_contiguous
        assert np.array_equal(lca.query(table[:, 0], table[:, 1]), expected)
        assert np.array_equal(lca.query(xs[::3], ys[::3]), expected[::3])
        assert np.array_equal(lca.query(xs[::-1], ys[::-1]), expected[::-1])

    @pytest.mark.parametrize("impl", IMPLEMENTATIONS)
    def test_scalars(self, impl, case):
        parents, xs, ys, expected = case
        lca = impl(parents)
        forms = [
            (int(xs[0]), int(ys[0])),
            (xs[0], ys[0]),
            (np.array(xs[0]), np.array(ys[0])),
        ]
        for x, y in forms:
            out = lca.query(x, y)
            assert out.shape == (1,) and out[0] == expected[0]

    def test_inputs_are_not_written(self, case):
        parents, xs, ys, _ = case
        xs0, ys0 = xs.copy(), ys.copy()
        xs.flags.writeable = ys.flags.writeable = False
        try:
            InlabelLCA(parents).query(xs, ys)
        finally:
            xs.flags.writeable = ys.flags.writeable = True
        assert np.array_equal(xs, xs0) and np.array_equal(ys, ys0)


@contextlib.contextmanager
def tile_lanes(width):
    """The kernel's tile width set to ``width`` lanes for the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inlabel_module, "_TILE_LANES", width)
        yield


@contextlib.contextmanager
def workers(count):
    """The kernel's tiles shared by ``count`` threads for the block (the
    caller and ``count - 1`` helpers), whatever the affinity mask holds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inlabel_module, "_WORKERS", count)
        yield


#: Both paths of a batch wider than a tile: today's loop on the caller alone,
#: and tiles shared with a helper thread.
ON_BOTH_PATHS = pytest.mark.parametrize("count", [1, 2], ids=["1-worker", "2-workers"])


def run_python(script):
    """Run ``script`` in a fresh interpreter on this checkout; a minute at most."""
    env = dict(os.environ, PYTHONPATH=str(Path(inlabel_module.__file__).parents[2]))
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class RecordingPool(ThreadPoolExecutor):
    """Helper threads that keep every future they hand out."""

    def __init__(self, threads=1):
        super().__init__(threads)
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.futures.append(future)
        return future


class TestTiles:
    """A batch wider than one tile: the same answers, errors, shapes and charge.

    Most cases shrink the tile to 8 lanes so that small batches cross several
    boundaries; ``test_sizes_around_the_boundary`` also runs at the real width.
    The answer and error cases run with one worker and with two.
    """

    TREES = {kind: make_tree(kind, 300, seed=21)
             for kind in ("shallow", "deep", "path", "star")}

    @staticmethod
    def batch(size, seed=22):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 300, size=size), rng.integers(0, 300, size=size)

    def test_width_is_a_private_constant(self):
        assert inlabel_module._TILE_LANES == 32_768
        assert "_TILE_LANES" not in inlabel_module.__all__

    def test_workers_are_the_affinity_mask(self):
        """One thread per core this process may run on: under ``taskset -c 0``
        the kernel is the caller alone."""
        assert inlabel_module._WORKERS == len(os.sched_getaffinity(0))
        assert "_WORKERS" not in inlabel_module.__all__

    @ON_BOTH_PATHS
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_tree_every_pair_across_tiles(self, n, count):
        """The exhaustive check again, n^2 pairs cut into tiles of 3 lanes."""
        with tile_lanes(3), workers(count):
            for parents in all_parent_arrays(n):
                assert_all_pairs_match_reference(parents)

    @ON_BOTH_PATHS
    @given(tree_and_batch(), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_any_width_gives_the_one_tile_answer(self, count, case, width):
        parents, xs, ys = case
        lca = InlabelLCA(parents)
        whole = _query_tile(lca.structure, xs, ys)
        with tile_lanes(width), workers(count):
            tiled = lca.query(xs, ys)
        assert tiled.dtype == np.int64 and tiled.shape == whole.shape
        assert np.array_equal(tiled, whole)
        assert np.array_equal(tiled, BinaryLiftingLCA(parents).query(xs, ys))

    @ON_BOTH_PATHS
    @pytest.mark.parametrize("impl", IMPLEMENTATIONS)
    @pytest.mark.parametrize("kind", sorted(TREES))
    @pytest.mark.parametrize("width", [8, inlabel_module._TILE_LANES])
    def test_sizes_around_the_boundary(self, impl, kind, width, count):
        """T-1, T, T+1 and 3T+7 lanes agree lane for lane with one tile."""
        parents = self.TREES[kind]
        lca = impl(parents)
        xs, ys = self.batch(3 * width + 7)
        whole = _query_tile(lca.structure, xs, ys)
        assert np.array_equal(whole, BinaryLiftingLCA(parents).query(xs, ys))
        with tile_lanes(width), workers(count):
            for size in (width - 1, width, width + 1, 3 * width + 7):
                out = lca.query(xs[:size], ys[:size])
                assert out.shape == (size,)
                assert np.array_equal(out, whole[:size])

    @ON_BOTH_PATHS
    @pytest.mark.parametrize("impl", IMPLEMENTATIONS)
    @pytest.mark.parametrize("bad", [-1, 300, -(2**62), 2**62])
    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("position", [0, 5, 8, 19, 24, 30])
    def test_out_of_range_in_any_tile_books_nothing(self, impl, bad, column, position,
                                                    count):
        """First, middle and last (remainder) tile; first and last lane of one."""
        lca = impl(self.TREES["shallow"])
        cols = list(self.batch(31))
        cols[column][position] = bad
        ctx = ExecutionContext(GTX980, trace=True)
        with tile_lanes(8), workers(count):
            with pytest.raises(InvalidQueryError, match="out of range"):
                lca.query(*cols, ctx=ctx)
        assert ctx.records == [] and ctx.elapsed == 0.0 and ctx.breakdown() == {}

    @pytest.mark.parametrize("slow", ["caller", "helper"])
    def test_a_bad_last_tile_raises_after_every_helper_has_finished(self, slow):
        """Whichever thread meets the bad lane, the call raises only once every
        tile has run and no helper is left running, and books nothing.  The
        other thread is slowed down, so it is still inside a tile when the
        bad one fails."""
        lca = InlabelLCA(self.TREES["deep"])
        xs, ys = self.batch(8 * 12)
        xs[-1] = 300
        pool = RecordingPool()
        finished = []

        def paced_tile(structure, xs, ys):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (slow == "caller"):
                time.sleep(0.01)
            try:
                return _query_tile(structure, xs, ys)
            finally:
                finished.append(on_caller)

        ctx = ExecutionContext(GTX980, trace=True)
        with pytest.MonkeyPatch.context() as patch, tile_lanes(8), workers(2):
            patch.setattr(inlabel_module, "_helpers", lambda: pool)
            patch.setattr(inlabel_module, "_query_tile", paced_tile)
            with pytest.raises(InvalidQueryError, match="out of range"):
                lca.query(xs, ys, ctx=ctx)
            tiles_when_raised = len(finished)
        pool.shutdown()
        assert len(pool.futures) == 1 and pool.futures[0].done()
        assert len(finished) == tiles_when_raised == 12
        assert ctx.records == [] and ctx.elapsed == 0.0 and ctx.breakdown() == {}

    def test_more_threads_than_cores_run_every_tile_once(self):
        """Four threads on 3-lane tiles with a short switch interval: a start
        taken twice or lost would show as a tile count or an answer off."""
        parents = self.TREES["path"]
        lca = InlabelLCA(parents)
        xs, ys = self.batch(3 * 500 + 2)
        pool = RecordingPool(3)
        lanes = []

        def counted_tile(structure, xs, ys):
            lanes.append(xs.size)
            return _query_tile(structure, xs, ys)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as patch, tile_lanes(3), workers(4):
                patch.setattr(inlabel_module, "_helpers", lambda: pool)
                patch.setattr(inlabel_module, "_query_tile", counted_tile)
                out = lca.query(xs, ys)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        assert len(pool.futures) == 3 and all(f.done() for f in pool.futures)
        assert sorted(lanes) == [2] + [3] * 500
        assert np.array_equal(out, BinaryLiftingLCA(parents).query(xs, ys))

    def test_one_worker_starts_no_thread(self):
        """With one core in the mask a batch of many tiles is today's loop on
        the caller: no pool is asked for and no thread starts."""
        parents = self.TREES["shallow"]
        lca = InlabelLCA(parents)
        xs, ys = self.batch(8 * 40 + 3)

        def no_pool():
            raise AssertionError("a one-worker kernel asked for helpers")

        threads = threading.active_count()
        with pytest.MonkeyPatch.context() as patch, tile_lanes(8), workers(1):
            patch.setattr(inlabel_module, "_helpers", no_pool)
            out = lca.query(xs, ys)
        assert threading.active_count() == threads
        assert np.array_equal(out, BinaryLiftingLCA(parents).query(xs, ys))

    def test_a_process_that_shares_no_tile_imports_no_executor(self):
        """Serving batches are one tile each: a process that only makes those
        never imports ``concurrent.futures`` (nor the ``logging`` it pulls in)."""
        script = textwrap.dedent("""\
            import sys
            import repro.service
            from repro.lca import InlabelLCA, inlabel

            lca = InlabelLCA([-1, 0, 0, 1])
            assert lca.query([3, 2], [2, 1]).tolist() == [0, 0]
            width = inlabel._TILE_LANES
            assert lca.query([3] * width, [1] * width).tolist() == [1] * width
            assert "concurrent.futures" not in sys.modules
            """)
        run_python(script)

    def test_a_forked_child_makes_its_own_helpers(self):
        """A child has none of its parent's threads: a multi-tile query there
        must not queue tiles for the parent's helper, which would never run
        them.  The child answers, checks and exits; a hang is killed by an
        alarm and read as a failed exit status."""
        script = textwrap.dedent("""\
            import os
            import signal
            import numpy as np
            from repro.graphs.generators import random_attachment_tree
            from repro.lca import BinaryLiftingLCA, InlabelLCA
            from repro.lca import inlabel

            inlabel._TILE_LANES, inlabel._WORKERS = 8, 2
            parents = random_attachment_tree(300, seed=4)
            lca, oracle = InlabelLCA(parents), BinaryLiftingLCA(parents)
            xs, ys = np.random.default_rng(5).integers(0, 300, size=(2, 203))
            assert np.array_equal(lca.query(xs, ys), oracle.query(xs, ys))
            assert inlabel._helpers.cache_info().currsize == 1
            pid = os.fork()
            if pid == 0:
                signal.alarm(20)  # a hung child is ended, not left behind
                ok = False
                try:
                    ok = np.array_equal(lca.query(xs, ys), oracle.query(xs, ys))
                finally:
                    os._exit(0 if ok else 1)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0, status
            """)
        run_python(script)

    def test_non_integer_ids_are_refused_before_the_first_tile(self):
        xs, ys = self.batch(31)
        with tile_lanes(8), pytest.raises(InvalidQueryError, match="must be integers"):
            InlabelLCA(self.TREES["deep"]).query(xs, ys.astype(np.float64))
        with tile_lanes(8), pytest.raises(InvalidQueryError, match="same shape"):
            InlabelLCA(self.TREES["deep"]).query(xs, ys[:-1])

    @pytest.mark.parametrize("impl", IMPLEMENTATIONS)
    def test_input_forms_wider_than_a_tile(self, impl):
        """Strided, mixed-dtype and list inputs keep their shape and dtype;
        an N-D batch is refused, however it is laid out."""
        parents = self.TREES["deep"]
        lca = impl(parents)
        xs, ys = self.batch(66)
        expected = BinaryLiftingLCA(parents).query(xs, ys)
        with tile_lanes(8):
            refused = {
                "2-D": (xs.reshape(6, 11), ys.reshape(6, 11)),
                "3-D": (xs.reshape(2, 3, 11), ys.reshape(2, 3, 11)),
                "2-D transposed": (xs.reshape(6, 11).T, ys.reshape(6, 11).T),
                "2-D Fortran": (np.asfortranarray(xs.reshape(6, 11)), ys.reshape(6, 11)),
            }
            for x, y in refused.values():
                with pytest.raises(InvalidQueryError, match="scalars or 1-D"):
                    lca.query(x, y)
            forms = {
                "strided": (xs[::2], ys[::2], expected[::2]),
                "reversed": (xs[::-1], ys[::-1], expected[::-1]),
                "mixed dtypes": (xs.astype(np.int32), ys.astype(np.uint64), expected),
                "int16 / list": (xs.astype(np.int16), ys.tolist(), expected),
                "lists": (xs.tolist(), ys.tolist(), expected),
            }
            for name, (x, y, want) in forms.items():
                out = lca.query(x, y)
                assert out.dtype == np.int64, name
                assert out.shape == want.shape, name
                assert np.array_equal(out, want), name

    def test_uint64_view_sees_a_contiguous_last_axis(self):
        """The NumPy-floor caveat of a ``uint64`` view, for the tile's view.

        A same-itemsize ``.view`` of an array whose last axis is strided
        raises on NumPy < 1.23.  The kernel only ever views its own freshly
        stacked block, so a strided or transposed input wider than a tile is
        answered, and refused when out of range, on every supported NumPy
        (CI's 1.22 leg runs this file).
        """
        xs, ys = self.batch(62)
        table = np.stack([xs, ys], axis=1)
        lca = InlabelLCA(self.TREES["shallow"])
        expected = BinaryLiftingLCA(self.TREES["shallow"]).query(xs, ys)
        with tile_lanes(8):
            assert not table[:, 0].flags.c_contiguous
            assert np.array_equal(lca.query(table[:, 0], table[:, 1]), expected)
            grid = table.reshape(2, 31, 2)
            with pytest.raises(InvalidQueryError, match="scalars or 1-D"):
                lca.query(grid[..., 0].T, grid[..., 1].T)
            table[-1, 1] = -1
            with pytest.raises(InvalidQueryError, match="out of range"):
                lca.query(table[:, 0], table[:, 1])

    def test_inputs_are_not_written(self):
        xs, ys = self.batch(31)
        xs0, ys0 = xs.copy(), ys.copy()
        xs.flags.writeable = ys.flags.writeable = False
        with tile_lanes(8):
            InlabelLCA(self.TREES["shallow"]).query(xs, ys)
            with pytest.raises(InvalidQueryError, match="scalars or 1-D"):
                InlabelLCA(self.TREES["shallow"]).query(xs.reshape(31, 1),
                                                        ys.reshape(31, 1))
        assert np.array_equal(xs, xs0) and np.array_equal(ys, ys0)

    @pytest.mark.parametrize("impl, name, threads", [
        (InlabelLCA, "inlabel_query_batch", 31),
        (SequentialInlabelLCA, "cpu_inlabel_query_batch", 1),
    ])
    def test_one_charge_per_call_not_per_tile(self, impl, name, threads):
        """Four tiles book what one tile books: one record, the batch's size."""
        lca = impl(self.TREES["shallow"])
        xs, ys = self.batch(31)
        untiled = ExecutionContext(GTX980, trace=True)
        lca.query(xs, ys, ctx=untiled)
        tiled = ExecutionContext(GTX980, trace=True)
        with tile_lanes(8):
            lca.query(xs, ys, ctx=tiled)
        assert [(r.name, r.phase, r.threads, r.launches) for r in tiled.records] == [
            (name, "queries", threads, 1)
        ]
        assert tiled.records == untiled.records
        assert tiled.elapsed == untiled.elapsed
        assert tiled.breakdown() == untiled.breakdown()

    @pytest.mark.parametrize("variant", sorted(ARTIFACT_BUILDERS))
    def test_compiled_kernels_inherit_the_tiles(self, variant):
        """Every variant is a view over the one tiled driver."""
        parents = self.TREES["deep"]
        kernel = ARTIFACT_BUILDERS[variant](build_inlabel_index(parents))
        xs, ys = self.batch(31)
        with tile_lanes(8):
            assert np.array_equal(kernel.query(xs, ys),
                                  BinaryLiftingLCA(parents).query(xs, ys))
            xs[29] = 300
            with pytest.raises(InvalidQueryError, match="out of range"):
                kernel.query(xs, ys)


NON_INTEGER_IDS = [
    np.array([1.7]),
    np.array([1.0]),
    np.array([True]),
    np.array([1], dtype=object),
    np.array(["1"]),
    [1.5],
    1.5,
    True,
]


@pytest.mark.parametrize("impl", IMPLEMENTATIONS)
class TestErrorContract:
    N = 50

    @pytest.fixture
    def lca(self, impl):
        return impl(make_tree("shallow", self.N, seed=2))

    def test_shape_mismatch(self, lca):
        with pytest.raises(InvalidQueryError, match="same shape"):
            lca.query(np.array([1, 2, 3]), np.array([1, 2]))

    @pytest.mark.parametrize(
        "empty", [[], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)]
    )
    def test_empty_is_empty_int64(self, lca, empty):
        out = lca.query(empty, empty)
        assert out.dtype == np.int64 and out.shape == (0,)

    @pytest.mark.parametrize("bad", [-1, -(2**62), N, N + 1, 2**62])
    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("position", [0, -1])
    def test_out_of_range_anywhere(self, lca, bad, column, position):
        cols = [np.arange(10), np.arange(10)]
        cols[column][position] = bad
        with pytest.raises(InvalidQueryError, match="out of range"):
            lca.query(*cols)

    def test_uint64_beyond_int64_is_out_of_range(self, lca):
        with pytest.raises(InvalidQueryError, match="out of range"):
            lca.query(np.array([2**63 + 1], dtype=np.uint64), np.array([0]))

    @pytest.mark.parametrize("bad", NON_INTEGER_IDS, ids=repr)
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_integer_ids_are_refused_not_truncated(self, lca, bad, column):
        cols = [np.array([2]), np.array([2])]
        cols[column] = bad
        with pytest.raises(InvalidQueryError, match="must be integers"):
            lca.query(*cols)


NON_INTEGER_COLUMNS = [
    np.array([1.7, 2.0]),
    np.array([True, False]),
    np.array([1, 2], dtype=object),
]
NON_INTEGER_SCALARS = [1.7, 1.0, np.float64(1.0), np.bool_(True), True, "1", None]


class TestFrontDoorsRefuseNonIntegerIds:
    """The same dtype rule at every entry that used to cast to ``int64``."""

    PARENTS = np.array([-1, 0, 0, 1, 1, 2])

    def make(self, kind):
        if kind == "service":
            target = LCAQueryService()
        else:
            target = ClusterService(config=ClusterConfig(n_replicas=2))
        target.register_tree("t", self.PARENTS)
        return target

    @pytest.mark.parametrize("kind", ["service", "cluster"])
    @pytest.mark.parametrize("bad", NON_INTEGER_COLUMNS, ids=repr)
    def test_submit_many(self, kind, bad):
        target = self.make(kind)
        good = np.array([3, 4])
        for xs, ys in [(bad, good), (good, bad)]:
            with pytest.raises(InvalidQueryError, match="must be integers"):
                target.submit_many("t", xs, ys)
        tickets = target.submit_many("t", [3, 5], np.array([4, 4], dtype=np.int32))
        assert target.submit_many("t", [], []).size == 0
        target.drain()
        assert target.results(tickets).tolist() == [1, 0]

    @pytest.mark.parametrize("kind", ["service", "cluster"])
    @pytest.mark.parametrize("bad", NON_INTEGER_SCALARS, ids=repr)
    def test_submit(self, kind, bad):
        target = self.make(kind)
        for x, y in [(bad, 3), (3, bad)]:
            with pytest.raises(InvalidQueryError, match="must be integers"):
                target.submit("t", x, y)
        ticket = target.submit("t", 3, np.int32(4))
        target.drain()
        assert target.result(ticket) == 1

    @pytest.mark.parametrize("baseline", [BinaryLiftingLCA, NaiveGPULCA, RMQLCA])
    @pytest.mark.parametrize("bad", NON_INTEGER_COLUMNS, ids=repr)
    def test_baselines_and_oracle(self, baseline, bad):
        lca = baseline(self.PARENTS)
        good = np.array([3, 4])
        for xs, ys in [(bad, good), (good, bad)]:
            with pytest.raises(InvalidQueryError, match="must be integers"):
                lca.query(xs, ys)
            with pytest.raises(InvalidQueryError, match="must be integers"):
                run_batched_queries(lca, xs, ys, 2, GTX980)
            with pytest.raises(InvalidQueryError, match="must be integers"):
                brute_force_lca_batch(self.PARENTS, xs, ys)
        assert lca.query([3, 5], np.array([4, 4], dtype=np.int32)).tolist() == [1, 0]
        assert lca.query(3, 4).tolist() == [1]

    @pytest.mark.parametrize("bad", NON_INTEGER_COLUMNS, ids=repr)
    def test_dedup_query_pairs(self, bad):
        """Was: ``([1.7, 2.2], [True, 3.9])`` deduped as pairs (1, 1), (2, 3)."""
        good = np.array([3, 4])
        for xs, ys in [(bad, good), (good, bad), (np.array([1.7, 2.2]), [True, 3.9])]:
            with pytest.raises(InvalidQueryError, match="must be integers"):
                dedup_query_pairs(xs, ys)
        ux, uy, inverse = dedup_query_pairs([5, 2, 5], np.array([2, 5, 7], dtype=np.uint8))
        assert (ux.tolist(), uy.tolist(), inverse.tolist()) == ([2, 5], [5, 7], [0, 0, 1])
        assert [a.size for a in dedup_query_pairs([], [])] == [0, 0, 0]
        for bad_id in (-1, PACK_LIMIT):
            with pytest.raises(InvalidQueryError, match="pair packing"):
                dedup_query_pairs([0, bad_id], [1, 1])
        assert dedup_query_pairs([PACK_LIMIT - 1], [0])[1].tolist() == [PACK_LIMIT - 1]

    @pytest.mark.parametrize("variant", sorted(ARTIFACT_BUILDERS))
    @pytest.mark.parametrize("bad", NON_INTEGER_COLUMNS, ids=repr)
    def test_compiled_kernels(self, variant, bad):
        kernel = ARTIFACT_BUILDERS[variant](build_inlabel_index(self.PARENTS))
        with pytest.raises(InvalidQueryError, match="must be integers"):
            kernel.query(bad, np.array([3, 4]))
        assert kernel.query([3, 5], [4, 4]).tolist() == [1, 0]


class TestLogTable:
    def test_values(self):
        table = _ilog2_table(1 << 10)
        assert table.dtype == np.uint8 and table.size == 1 << 10
        assert table[0] == 0
        for v in range(1, 1 << 10):
            assert table[v] == v.bit_length() - 1

    def test_shared_and_read_only(self):
        a = InlabelLCA(make_tree("shallow", 700, seed=1))
        b = InlabelLCA(make_tree("deep", 900, seed=2))
        assert a.structure.head_key.size == b.structure.head_key.size
        table = _ilog2_table(a.structure.head_key.size)
        assert table is _ilog2_table(b.structure.head_key.size)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 7

    def test_stays_out_of_the_artifact(self):
        """The artifact is its tables alone, 16 * n + 8 * head_key.size."""
        lca = InlabelLCA(make_tree("shallow", 1000, seed=7))
        lca.query(np.arange(10), np.arange(10)[::-1])  # table now exists
        assert sorted(vars(lca)) == ["structure"]
        assert InlabelIndex(lca.structure, ()).nbytes == 16 * 1000 + 8 * 2048


class TestPackedTables:
    """Each endpoint gathers ``node_word``, ``head_key`` and ``node_key``;
    the unpacked tables are derived on read and stored nowhere."""

    TREES = TestTiles.TREES

    @pytest.mark.parametrize("kind", ["path", "star", "shallow"])
    def test_artifact_bytes_are_the_packed_tables(self, kind):
        """Two ``n``-word tables and ``head_key``, nothing else: every
        variant's entry books the index, and no view keeps more."""
        store = ForestStore()
        store.add_tree("t", self.TREES[kind])
        index = store.index("t")
        structure = index.structure
        n, slots = structure.n, structure.head_key.size
        assert sorted(vars(structure)) == [
            "head_key", "levels", "node_key", "node_word", "root"]
        assert sorted(vars(index)) == ["kernels", "structure"]
        registry = IndexRegistry(store)
        for variant in ARTIFACT_BUILDERS:
            key = ArtifactKey("t", "lca", GTX980.name, variant)
            entry = registry.fetch_by_key(key, spec=GTX980)[0]
            assert entry.nbytes == index.nbytes == 16 * n + 8 * slots, variant
            assert entry.artifact.structure is structure, variant
            assert sorted(vars(entry.artifact)) == ["structure"], variant

    @pytest.mark.parametrize("kind", ["path", "star", "shallow"])
    def test_the_build_reads_the_statistics_and_keeps_none(self, kind):
        """``build_inlabel_structure`` writes nothing into the statistics it
        is given, and no table it returns shares their memory."""
        stats = tree_statistics_from_parents(self.TREES[kind])
        fields = ("parent", "depth", "preorder", "subtree_size")
        before = {name: getattr(stats, name).copy() for name in fields}
        structure = build_inlabel_structure(stats)
        for name in fields:
            given = getattr(stats, name)
            assert given.tobytes() == before[name].tobytes(), name
            for table in (structure.node_word, structure.node_key,
                          structure.head_key):
                assert not np.shares_memory(table, given), name

    @pytest.mark.parametrize("kind", sorted(TREES))
    def test_the_words_pack_the_tables(self, kind):
        parents = self.TREES[kind]
        structure = InlabelLCA(parents).structure
        n = structure.n
        assert np.array_equal(structure.node_key & 0xFFFFFFFF, np.arange(n))
        assert np.array_equal(structure.depth, depths_from_parents(parents))
        head = structure.head
        used = np.flatnonzero(head >= 0)
        below_root = used[parents[head[used]] >= 0]
        assert np.array_equal(structure.head_key[below_root],
                              structure.node_key[parents[head[below_root]]])
        unused = np.ones(head.size, dtype=bool)
        unused[below_root] = False
        assert np.all(structure.head_key[unused] == -1)

    @pytest.mark.parametrize("n", [2**31, 2**40])
    def test_a_tree_too_large_for_32_bit_halves_is_refused(self, n):
        """Statistics without tables: the size alone is refused, and a build
        that read on would fail here rather than allocate ``n`` words."""
        stats = SimpleNamespace(n=n, root=0)
        with pytest.raises(InvalidGraphError, match="do not fit"):
            build_inlabel_structure(stats)
