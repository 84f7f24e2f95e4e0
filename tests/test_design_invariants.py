"""Design invariants, checked on the AST under tier-1 (ROADMAP item 6b).

A rule lives here, not in a ``grep`` step of ``ci.yml`` mirrored by hand in
``scripts/check.sh``: one place per rule, and it runs wherever pytest runs.
"""

import ast
import builtins
import collections
import dataclasses
import doctest
import functools
import importlib
import inspect
import re
import symtable
import textwrap
from pathlib import Path

import pytest

from repro.service import ClusterConfig, ClusterService, LCAQueryService, ServiceConfig
from repro.service.service import FrontDoor

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"
SERVICE_PACKAGE = SRC / "service"
SERVICE = SERVICE_PACKAGE / "service.py"
TICKETS = SERVICE_PACKAGE / "tickets.py"
CLUSTER = SERVICE_PACKAGE / "cluster.py"


def dotted(node):
    """``self._serve_run`` / ``entry.artifact.query`` for a call's ``func``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def functions_containing(tree, wanted):
    """Names of the functions in ``tree`` that contain a node ``wanted`` accepts."""
    return {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if wanted(node)
    }


def functions_calling(source, wanted):
    """Names of the functions in ``source`` that contain a call ``wanted`` accepts."""
    return functions_containing(
        ast.parse(source),
        lambda node: isinstance(node, ast.Call) and wanted(dotted(node.func)),
    )


def books_a_span(name):
    return name == "self._finish_span"


def launches_a_kernel(name):
    return name.split(".")[-2:] == ["artifact", "query"]


def query_sites(tree):
    """The line of every ``<expression>.query(...)`` call in ``tree``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "query")


def packs_pairs(name):
    return name == "pack_query_pairs"


def foreign_private_reads(source):
    """``obj._name`` attribute reads in ``source`` where ``obj`` is not ``self``."""
    return sorted({
        dotted(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    })


def test_the_rule_sees_a_second_serving_path():
    source = (
        "class S:\n"
        "    def _serve_run(self, run):\n"
        "        self._launch_span(span, entry.artifact)\n"
        "        self._finish_span(span, count)\n"
        "    def _launch_span(self, span, artifact):\n"
        "        keys = pack_query_pairs(span.xs, span.ys)\n"
        "        span.answers = (artifact.query(span.xs, span.ys) if m is None\n"
        "                        else artifact.query(span.xs[m], span.ys[m]))\n"
        "        room = self.answer_cache._max_used - self.answer_cache._used\n"
        "    def drain(self):\n"
        "        for item in self.pending:\n"
        "            self._finish_span(*item)\n"
        "    def serve_hedge(self, xs, ys):\n"
        "        self.registry.fetch(key)[0].artifact.query(xs, ys)\n"
    )
    assert functions_calling(source, books_a_span) == {"_serve_run", "drain"}
    assert functions_calling(source, launches_a_kernel) == {
        "_launch_span", "serve_hedge"}
    # Per site, not per function: two calls in ``_launch_span`` are two.
    assert query_sites(ast.parse(source)) == [7, 8, 14]
    assert functions_calling(source, packs_pairs) == {"_launch_span"}
    assert foreign_private_reads(source) == [
        "self.answer_cache._max_used", "self.answer_cache._used"]


def test_batches_are_served_and_kernels_launched_in_one_place():
    """One serving path: every flushed batch goes through ``_serve_run``.

    Its loop is the only caller of ``_finish_span``, the one place a batch is
    booked (a span's run-adjacent batches at once).  Serving calls an
    artifact's ``.query(`` at exactly one site, ``tickets.launch``: a
    skew-aware span's ``_launch_span`` calls it at once, the ticket table's
    ``resolve`` for the plain spans' deferred pieces — never a front-door
    method's own loop, and never a hedge, whose answers nobody reads.
    """
    source = SERVICE.read_text()
    assert functions_calling(source, books_a_span) == {"_serve_run"}
    sites = [(file.name, line) for file, tree in trees_under(SERVICE_PACKAGE)
             for line in query_sites(tree)]
    assert [name for name, _ in sites] == ["tickets.py"]
    assert functions_calling(TICKETS.read_text(), lambda name: name.endswith(
        ".query")) == {"launch"}
    launches = {"launch"}.__contains__
    assert functions_calling(source, launches) == {"_launch_span"}
    assert functions_calling(TICKETS.read_text(), launches) == {"resolve"}
    assert not functions_calling(CLUSTER.read_text(), launches)


def test_pairs_are_packed_once_per_block_and_once_per_span():
    """``pack_query_pairs`` runs in the front-door probe and the span opener."""
    assert functions_calling(SERVICE.read_text(), packs_pairs) == {
        "_admit_memoized", "_open_span"}


def test_the_service_reads_no_other_objects_private_state():
    """``service.py`` touches ``_names`` on ``self`` only — the answer cache's
    headroom and counters come through its public surface."""
    assert foreign_private_reads(SERVICE.read_text()) == []


# ----------------------------------------------------------------------
# Columnar cuts: a span is booked in bulk
# ----------------------------------------------------------------------
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def names_bucket(node):
    """A read of ``batch_size_bucket`` (a call or a reference, as ``map``'s)."""
    return (isinstance(node, ast.Name) and node.id == "batch_size_bucket"
            or isinstance(node, ast.Attribute) and node.attr == "batch_size_bucket")


def loops_in(tree, name):
    """The loop and comprehension nodes inside each function called ``name``."""
    return [type(node).__name__ for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == name
            for node in ast.walk(function) if isinstance(node, LOOPS)]


def test_the_booking_rules_see_a_per_batch_bucket_and_a_run_walk():
    tree = ast.parse(
        "class S:\n"
        "    def record_span(self, sizes):\n"
        "        self.batch_sizes.update(map(batch_size_bucket, sizes))\n"
        "    def merge(self, raw):\n"
        "        return {stats.batch_size_bucket(size) for size in raw}\n"
        "    def _open_span(self, run, i):\n"
        "        sizes = [cut[2] - cut[1] for cut in run[i:]]\n"
        "        while i < len(run):\n"
        "            i += 1\n"
    )
    assert functions_containing(tree, names_bucket) == {"record_span", "merge"}
    assert sorted(loops_in(tree, "_open_span")) == ["ListComp", "While"]


def test_sizes_are_bucketed_once_per_snapshot_and_a_span_opens_without_a_batch_loop():
    """A collector counts raw batch sizes; only ``ServiceStats.merge`` buckets
    them.  ``_open_span`` plans a span from its ``Cuts`` columns with array and
    ``map`` work: no loop walks the run's batches."""
    found = {(file.name, name) for file, tree in trees_under(SRC)
             for name in functions_containing(tree, names_bucket)}
    assert found == {("stats.py", "merge")}
    assert loops_in(parsed(SERVICE), "_open_span") == []


#: ``benchmarks/layers/trace.py`` targets that name nothing (ROADMAP 5(a)).
DEAD_TARGETS = {("repro.service.stats", "StatsCollector.record_batch")}


def traced_targets():
    """Every ``(module, qualname)`` of ``TARGETS`` in ``benchmarks/layers/trace.py``."""
    for node in parsed(ROOT / TRACE).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "TARGETS":
            return [pair for pairs in ast.literal_eval(node.value).values()
                    for pair in pairs]
    raise AssertionError("TARGETS not found")


def resolves(module, qualname):
    """Whether a target names a module function or a method in its named class's
    own namespace — the only places the tracer's ``_install_method`` looks."""
    owner, _, method = qualname.rpartition(".")
    found = importlib.import_module(module)
    if owner:
        return method in vars(getattr(found, owner, type))
    return callable(getattr(found, method, None))


def test_the_target_rule_sees_a_method_that_moved_to_a_base():
    assert resolves("repro.service.service", "FrontDoor.result")
    assert not resolves("repro.service.service", "LCAQueryService.result")
    assert not resolves("repro.service.stats", "StatsCollector.record_batch")
    assert resolves("repro.service.service", "block_clean_prefix")


def test_every_tracer_target_resolves():
    """A moved or renamed method silently darkens its layer: the tracer only
    patches a named class's own methods.  Every target resolves, bar the one
    known dead one; fixing it in ``trace.py`` empties :data:`DEAD_TARGETS`."""
    targets = traced_targets()
    assert len(targets) > 60
    assert {pair for pair in targets if not resolves(*pair)} == DEAD_TARGETS


# ----------------------------------------------------------------------
# A wait deadline is scheduler state
# ----------------------------------------------------------------------
def reads_the_arrival_column(node):
    """``columns[3]`` / ``self._columns[3]``: a scheduler's arrival column."""
    return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and node.slice.value == 3
            and dotted(node.value).split(".")[-1] in ("columns", "_columns"))


def derives_a_deadline(node):
    """An addition with the arrival column on either side."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and any(
        reads_the_arrival_column(part) for part in ast.walk(node))


def reads(attr):
    return lambda node: isinstance(node, ast.Attribute) and node.attr == attr


def advances_a_scheduler(name):
    return name.endswith(".advance_to") and name != "self.clock.advance_to"


def test_the_deadline_rules_see_a_derivation_and_a_count_probe():
    source = (
        "class S:\n"
        "    def _expired_batches(self, t):\n"
        "        for name, scheduler in self._schedulers.items():\n"
        "            if scheduler.pending_count:\n"
        "                scheduler.advance_to(t)\n"
        "    def submit(self, t):\n"
        "        self.clock.advance_to(t)\n"
        "        deadline = float(self._columns[3][self._head]) + self.policy.max_wait_s\n"
        "    def _refresh_deadline(self):\n"
        "        self._deadline = self._columns[3].item(self._head) + self.policy.max_wait_s\n"
        "    def pending(self, columns, lo, hi, flush_s):\n"
        "        return columns[3][lo:hi], flush_s - columns[3][lo], columns[0][lo] + 1\n"
    )
    tree = ast.parse(source)
    assert functions_containing(tree, derives_a_deadline) == {"submit", "_refresh_deadline"}
    assert functions_calling(source, advances_a_scheduler) == {"_expired_batches"}
    assert functions_containing(tree, reads("pending_count")) == {"_expired_batches"}


def test_a_wait_deadline_is_derived_once_and_read_through_next_deadline():
    """``MicroBatchScheduler._refresh_deadline`` is the one place a deadline is
    derived from the arrival column (``submit_block`` starts a fresh window
    from the block it admits, and carries the stored one in).  The service
    decides whether anything expired by comparing an instant with each
    scheduler's ``next_deadline``: an expiry test that probed ``pending_count``
    instead would call ``advance_to`` on every scheduler with a queue."""
    found = {
        (file.name, name)
        for file, tree in trees_under(SERVICE_PACKAGE)
        for name in functions_containing(tree, derives_a_deadline)
    }
    assert found == {("scheduler.py", "_refresh_deadline")}
    source = SERVICE.read_text()
    tree = ast.parse(source)
    expiring = functions_calling(source, advances_a_scheduler)
    assert expiring == {"_expired_batches", "_serve_in_submission_order"}
    assert expiring | {"submit"} <= functions_containing(tree, reads("next_deadline"))
    assert not expiring & functions_containing(tree, reads("pending_count"))


# ----------------------------------------------------------------------
# config= is the only carrier of knobs
# ----------------------------------------------------------------------
#: Per-knob constructor keywords that ``config=`` replaced.
REMOVED_KWARGS = frozenset(
    "policy router capacity_bytes max_pending start_time dedup answer_cache_bytes "
    "answer_cache_seed ticket_capacity hedge_delay_s max_retries n_replicas".split()
)
SERVICES = ("LCAQueryService", "ClusterService")


def removed_kwargs(tree):
    """Offences at the top level of a service constructor call in ``tree``.

    A removed per-knob keyword on either service, or a positional replica
    count on ``ClusterService``; knobs nested inside ``ServiceConfig(...)`` /
    ``ClusterConfig(...)`` are what is wanted.
    """
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted(node.func).split(".")[-1]
        if name not in SERVICES:
            continue
        if name == "ClusterService" and any(
            not isinstance(arg, ast.Starred) for arg in node.args
        ):
            hits.append(f"{name}(<positional>)")
        hits += [f"{name}({kw.arg}=)" for kw in node.keywords if kw.arg in REMOVED_KWARGS]
    return hits


def snippets(path):
    """The Python a file shows: its module, its ``>>>`` examples, its fences."""
    text = path.read_text()
    if path.suffix == ".py":
        documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        found, prose = [text], [
            ast.get_docstring(node, clean=False) or ""
            for node in ast.walk(ast.parse(text)) if isinstance(node, documented)
        ]
    else:
        prose = [text]
        found = [
            textwrap.dedent(block)
            for block in re.findall(r"```python\n(.*?)```", text, flags=re.S)
            if ">>>" not in block
        ]
    parser = doctest.DocTestParser()
    return found + [ex.source for doc in prose for ex in parser.get_examples(doc)]


def constructor_offences(path):
    hits = []
    for snippet in snippets(path):
        try:
            hits += removed_kwargs(ast.parse(snippet))
        except SyntaxError:
            # Pseudo-code may not parse; it may then not show a constructor.
            hits += [f"unparsable snippet names {name}" for name in SERVICES
                     if f"{name}(" in snippet]
    return hits


def test_the_kwarg_rule_sees_code_doctests_and_fences(tmp_path):
    tree = ast.parse(
        "ClusterService(4)\n"
        "ClusterService(*args, config=ClusterConfig(n_replicas=4, router='x'))\n"
        "repro.service.LCAQueryService(store, dedup=True,\n"
        "    config=ServiceConfig(dedup=True))\n"
    )
    assert removed_kwargs(tree) == [
        "ClusterService(<positional>)", "LCAQueryService(dedup=)"]
    page = tmp_path / "page.md"
    page.write_text(
        "Prose.\n\n```python\nsvc = LCAQueryService(\n    max_pending=3)\n```\n\n"
        "    >>> ClusterService(\n    ...     n_replicas=2)\n\n"
        "1. A step:\n\n   ```python\n   ClusterService(2)\n   ```\n\n"
        "```python\nClusterService(config=...) if ... else: ???\n```\n"
    )
    assert sorted(constructor_offences(page)) == [
        "ClusterService(<positional>)", "ClusterService(n_replicas=)",
        "LCAQueryService(max_pending=)", "unparsable snippet names ClusterService"]


def test_no_removed_constructor_kwargs_in_code_examples_or_docs():
    """Every ``.py`` (module and docstring examples) and every ``.md`` (fenced
    ``python`` blocks and ``>>>`` lines) the repository shows a user."""
    paths = [ROOT / "README.md"]
    for top in ("src", "examples", "benchmarks", "docs"):
        paths += sorted((ROOT / top).rglob("*.py")) + sorted((ROOT / top).rglob("*.md"))
    assert len(paths) > 100
    offences = {
        str(path.relative_to(ROOT)): hits
        for path in paths
        if (hits := constructor_offences(path))
    }
    assert offences == {}, "removed constructor kwargs found; use config="


def test_every_markdown_file_the_code_cites_exists():
    """A docstring or comment that sends the reader to ``X.md`` names a file
    that is there, relative to the repository root or to the citing file
    (ten modules cited a ``DESIGN.md`` that never existed)."""
    cited = [
        (file, name)
        for top in ("src", "benchmarks", "scripts")
        for file in sorted((ROOT / top).rglob("*"))
        if file.suffix in (".py", ".sh")
        for name in re.findall(r"[\w./-]*\w\.md\b", file.read_text())
    ]
    assert len(cited) >= 20
    dangling = [
        f"{file.relative_to(ROOT)}: {name}"
        for file, name in cited
        if not ((ROOT / name).is_file() or (file.parent / name).is_file())
    ]
    assert dangling == []


# ----------------------------------------------------------------------
# Refused, not cast; one kernel contract; one Schieber-Vishkin body
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def parsed(file):
    return ast.parse(file.read_text())


def trees_under(*paths):
    for path in paths:
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            yield file, parsed(file)


def calls(tree, wanted):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and wanted(dotted(node.func))]


def identifiers(tree):
    """Every name a module binds, reads or imports (strings and comments not)."""
    for node in ast.walk(tree):
        for field in ("id", "attr", "name", "arg", "module"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                yield from value.split(".")


def test_no_int64_cast_of_caller_arrays_on_the_edge_list_and_bridges_path():
    """Endpoints, parents, levels and relabelings go through ``repro.boundary``
    (``node_ids`` / ``parent_ids``): refused, never cast."""
    def is_int64(node):
        return dotted(node) in ("np.int64", "numpy.int64", "int64")

    casts = [
        f"{file.relative_to(ROOT)}:{call.lineno}"
        for file, tree in trees_under(SRC / "bridges", SRC / "graphs" / "edgelist.py")
        for call in calls(tree, lambda name: name.split(".")[-1] == "asarray")
        if any(is_int64(arg) for arg in call.args[1:])
        or any(kw.arg == "dtype" and is_int64(kw.value) for kw in call.keywords)
    ]
    assert casts == []


def reads_a_kind_or_an_index(node):
    """``x.dtype.kind``, ``operator.index`` or ``from operator import index``."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "operator" and "index" in {a.name for a in node.names}
    name = dotted(node) if isinstance(node, ast.Attribute) else ""
    return name.endswith("dtype.kind") or name == "operator.index"


def test_the_boundary_rule_sees_kind_tests_and_index_calls():
    tree = ast.parse(
        "from operator import index\n"
        "def f(a, x):\n"
        "    if np.asarray(a).dtype.kind not in 'iu' or a.dtype.kind == 'b':\n"
        "        return operator.index(x)\n"
        "def g(a):\n"
        "    return a.dtype.itemsize, a.kind\n"
    )
    hits = [node.lineno for node in ast.walk(tree) if reads_a_kind_or_an_index(node)]
    assert sorted(hits) == [1, 3, 3, 4]
    assert functions_containing(tree, reads_a_kind_or_an_index) == {"f"}


def test_only_the_boundary_tests_a_dtype_kind_or_calls_operator_index():
    """Refusing a dtype or a non-integer is ``repro.boundary``'s job alone.  The
    packed path of ``sort_pairs`` reads two dtype kinds to pick a path; it
    refuses nothing."""
    found = {
        str(file.relative_to(SRC))
        for file, tree in trees_under(SRC)
        if any(reads_a_kind_or_an_index(node) for node in ast.walk(tree))
    }
    assert found == {"boundary.py", "primitives/sort.py"}
    sort = parsed(SRC / "primitives" / "sort.py")
    assert functions_containing(sort, reads_a_kind_or_an_index) == {"sort_pairs"}


def test_one_kernel_contract_and_one_artifact_key_derivation():
    """Kernels answer and the dispatcher prices.  A ``Backend`` becomes a
    registry key only in ``LCAQueryService._artifact_key`` (nobody else passes
    ``sequential=backend.sequential``), no module forks workers, and the
    bind / launch / readback lifecycle stays deleted from the backends."""
    for file, tree in trees_under(SRC):
        where = str(file.relative_to(ROOT))
        assert "multiprocessing" not in set(identifiers(tree)), where
        assert not [
            kw for call in calls(tree, lambda name: True) for kw in call.keywords
            if kw.arg == "sequential" and dotted(kw.value) == "backend.sequential"
        ], where
    for file, tree in trees_under(SRC / "backends"):
        assert not {"bind", "readback", "BackendCapabilities"} & set(
            identifiers(tree)), str(file.relative_to(ROOT))


#: What builds Inlabel tables from a parent array.  Serving and backend code
#: reads a dataset's one host index (``ForestStore.index``) instead.
TABLE_BUILDERS = frozenset(
    "tree_statistics_from_parents build_inlabel_structure InlabelLCA "
    "SequentialInlabelLCA".split())


def builds_tables(name):
    return name.split(".")[-1] in TABLE_BUILDERS


def test_the_table_rule_sees_builds_but_not_views():
    tree = ast.parse(
        "InlabelLCA(parents, ctx=ctx)\n"
        "lca.inlabel.SequentialInlabelLCA(parents)\n"
        "build_inlabel_structure(tree_statistics_from_parents(parents))\n"
        "InlabelLCA.from_index(index, ctx=ctx)\n"
        "build_inlabel_index(parents)\n"
    )
    assert [call.lineno for call in calls(tree, builds_tables)] == [1, 2, 3, 3]


def test_one_host_index_per_dataset():
    """Serving and backend code never builds Inlabel tables: every key of a
    dataset, on every replica, is a view over the tables ``build_inlabel_index``
    built once (the registry's miss path and ``calibrate_backends`` included)."""
    builds = [
        f"{file.relative_to(ROOT)}:{call.lineno}"
        for file, tree in trees_under(SERVICE_PACKAGE, SRC / "backends")
        for call in calls(tree, builds_tables)
    ]
    assert builds == []


#: The structure's derived tables: each read builds an O(n) array.
DERIVED_TABLES = frozenset({"inlabel", "ascendant", "depth", "head"})


def gathers_node_words(node):
    return isinstance(node, ast.Subscript) and dotted(node.value) in {
        "node_word", "structure.node_word"}


def derived_reads(function):
    return [node.attr for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and node.attr in DERIVED_TABLES]


def test_the_derived_table_rule_sees_every_read():
    function = ast.parse(
        "def f(structure, il, xy):\n"
        "    bar = structure.parent[structure.head[il]]\n"
        "    depth, key = structure.depth, structure.head_key[il]\n"
        "    return structure.node_key[xy], structure.ascendant\n").body[0]
    assert sorted(derived_reads(function)) == ["ascendant", "depth", "head"]


def test_the_smallbatch_kernel_pins_only_the_packed_tables():
    """``smallbatch`` is a view: its builder returns ``_view`` over the host
    index and reads no derived table, and ``lca/artifacts.py`` keeps no kernel
    class beyond the contract, so nothing pins a second copy of the tables."""
    tree = parsed(SRC / "lca" / "artifacts.py")
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)] == ["CompiledKernel"]
    builder, = (node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_smallbatch")
    assert derived_reads(builder) == []
    assert [dotted(node.value.func) for node in ast.walk(builder)
            if isinstance(node, ast.Return)] == ["_view"]


def test_one_schieber_vishkin_body_in_the_query_kernel():
    """``_query_inlabel`` runs a batch of any width as tiles through the one
    ``_query_tile``; a second copy of the pass would gather ``node_word`` a
    second time.  The tile reads only the packed tables: a derived table
    there would cost an O(n) array per call."""
    tree = parsed(SRC / "lca" / "inlabel.py")
    assert len([node for node in ast.walk(tree) if gathers_node_words(node)]) == 1
    tile, = (node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "_query_tile")
    assert [node for node in ast.walk(tile) if gathers_node_words(node)]
    assert derived_reads(tile) == []


# ----------------------------------------------------------------------
# Per-ticket state has one owner; the serving package only shrinks
# ----------------------------------------------------------------------
def doubles_a_capacity(node):
    return isinstance(node, ast.While) and any(
        isinstance(step, ast.AugAssign) and isinstance(step.op, ast.Mult)
        and isinstance(step.value, ast.Constant) and step.value.value == 2
        for step in ast.walk(node))


def sorts_stably(node):
    return (isinstance(node, ast.Call) and dotted(node.func).endswith("argsort")
            and any(kw.arg == "kind" and getattr(kw.value, "value", None) == "stable"
                    for kw in node.keywords))


def test_one_growth_loop_and_one_routing_cut_in_the_serving_package():
    """Tables grow in ``tickets.grow_table`` and nowhere else; the cluster
    cuts a block by owner in ``_grouped`` and nowhere else (a read-back is one
    read of the one ticket table: it groups nothing)."""
    found = {
        (file.name, name)
        for file, tree in trees_under(SERVICE_PACKAGE)
        for name in functions_containing(tree, doubles_a_capacity)
    }
    assert found == {("tickets.py", "grow_table")}
    cluster = parsed(CLUSTER)
    assert functions_containing(cluster, sorts_stably) == {"_grouped"}
    assert not calls(cluster, lambda name: name.endswith("searchsorted"))


def test_tickets_are_read_through_the_table_and_deleted_names_stay_deleted():
    gone = {"_next_ticket", "_ensure_ticket_capacity", "_all_alive",
            "_refresh_all_alive", "_retry_counts", "_debt", "ARTIFACT_KINDS",
            "add_graph", "has_graph",
            # Per-dataset state and knobs the cluster mirrored by hand: the
            # store and the config own them.
            "_SharedLoader", "_tree_sources", "_registered", "_sizes",
            "_dataset_size", "_register_copy", "_max_pending", "_hedge_delay_s",
            "_max_retries", "_resubmitted",
            # A batch is booked with its span's run-adjacent batches, once.
            "_finish_batch", "record_batch",
            # The least-outstanding water level is closed-form, not bisected.
            "_waterfill_counts",
            # One boundary schema (repro.boundary) replaced the per-module
            # checks; a single query is a routed block of one.
            "as_node_ids", "as_parent_array", "as_query_ids", "as_query_block",
            "_range_bounds", "route_one",
            # The controller windows live counters; the config base is public.
            "cluster_stats_metrics", "_ConfigBase",
            # A cluster's workers answer into its one ticket table: no
            # ticket map to invert, no debt to read back through a worker.
            "_cluster_tickets", "debt_of", "latency_debt",
            # A queued row is read through ``evict()``, not a snapshot class.
            "PendingQuery"}
    # Names other code still binds (the table's ``answered`` column, a
    # ``dedup_factor`` argument, ``QueryBreakdown.queue_wait_s``, a report's
    # ``served`` local) stay gone as what they were: a ticket read never
    # skips the queued check, and neither a service nor a flushed batch
    # answers "which are served" or "how long did each wait" for tests.
    gone_defs = {"answered", "queue_wait_s"}
    gone_args = {"served"}
    # ``get`` is everywhere a dict is read; the registry alone must not
    # define it again (``fetch(...)[0].artifact`` is the one lookup).
    registry = parsed(SERVICE_PACKAGE / "registry.py")
    assert "get" not in {
        node.name for cls in ast.walk(registry)
        if isinstance(cls, ast.ClassDef) and cls.name == "IndexRegistry"
        for node in cls.body if isinstance(node, ast.FunctionDef)}
    definitions = []
    for file, tree in trees_under(SRC):
        where = str(file.relative_to(ROOT))
        assert not gone & set(identifiers(tree)), where
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not gone_defs & defined, where
        assert not gone_args & {node.arg for node in ast.walk(tree)
                                if isinstance(node, ast.arg)}, where
        definitions += [file.name for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)
                        and node.name == "grow_table"]
    assert definitions == ["tickets.py"]
    # A ticket is validated in TicketTable.index and nowhere else: neither
    # front end compares against the issue count itself.
    for file in (SERVICE, CLUSTER):
        assert not [
            node.lineno for node in ast.walk(parsed(file))
            if isinstance(node, ast.Compare)
            and any(dotted(side).endswith("issued")
                    for side in (node.left, *node.comparators))
        ], file.name


#: The read and identity surface a node and a cluster share.
FRONT_DOOR_SURFACE = {"observer", "datasets", "tickets_issued", "result", "results",
                      "latency", "latencies"}

#: The shared readers ``benchmarks/layers/trace.py`` names per front door: its
#: tracer patches a named class's own namespace, so each class binds them to
#: ``FrontDoor``'s one definition (``results = FrontDoor.results``).
TRACED_READERS = {"results", "latencies"}


def base_bindings(tree, name):
    """The names class ``name``'s body binds to ``FrontDoor``'s same-named member."""
    cls, = (node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == name)
    return {target.id for node in cls.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and dotted(node.value) == f"FrontDoor.{target.id}"}


def class_members(tree, name):
    """The names class ``name``'s own body defines or assigns."""
    cls, = (node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == name)
    members = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            members.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            members.update(t.id for t in targets if isinstance(t, ast.Name))
    return members


def test_the_front_doors_share_one_read_surface():
    """The seven shared members are written once, on ``FrontDoor``, which both
    front doors inherit; a copy in either class body fails here.  Callers that
    only read workers and counters (replay's phase counters and replica count,
    the controller's window) do not ask which front door they hold, and the
    scheduler keeps no row-wise ``pending`` snapshot beside ``evict()``."""
    service, cluster = parsed(SERVICE), parsed(CLUSTER)
    assert class_members(service, "FrontDoor") >= FRONT_DOOR_SURFACE
    for tree, name in ((service, "LCAQueryService"), (cluster, "ClusterService")):
        bound = base_bindings(tree, name)
        assert bound <= TRACED_READERS, name
        assert not (class_members(tree, name) - bound) & FRONT_DOOR_SURFACE, name
    for cls in (LCAQueryService, ClusterService):
        for member in FRONT_DOOR_SURFACE:
            assert inspect.getattr_static(cls, member) is vars(FrontDoor)[member]
    bases = {node.name: [dotted(base) for base in node.bases]
             for tree in (service, cluster) for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    assert bases["LCAQueryService"] == bases["ClusterService"] == ["FrontDoor"]
    assert "pending" not in class_members(
        parsed(SERVICE_PACKAGE / "scheduler.py"), "MicroBatchScheduler")

    def asks_the_kind(node):
        return isinstance(node, ast.Call) and dotted(node.func) == "isinstance"
    replay = parsed(SRC / "workloads" / "replay.py")
    controller = parsed(SRC / "control" / "controller.py")
    assert "_counters" not in functions_containing(replay, asks_the_kind)
    assert "_window" not in functions_containing(controller, asks_the_kind)
    appends = calls(replay, lambda name: name == "phase_replicas.append")
    assert appends and not [node for call in appends for node in ast.walk(call)
                            if asks_the_kind(node)]


#: What ``repro.control`` may import from ``repro.obs.metrics``.
WINDOW_METRICS = {"Histogram", "histogram_quantile"}


def window_offences(tree):
    """Lines that call ``.stats()``, name ``MetricRegistry`` / ``MetricsSnapshot``
    or import from ``obs.metrics`` anything but :data:`WINDOW_METRICS`."""
    banned = {"MetricRegistry", "MetricsSnapshot"}

    def offends(node):
        if isinstance(node, ast.Call):
            return isinstance(node.func, ast.Attribute) and node.func.attr == "stats"
        if isinstance(node, ast.ImportFrom):
            # An import is reported on its statement: ``ast.alias`` nodes
            # carry no line number before Python 3.10.
            names = {alias.name for alias in node.names}
            if (node.module or "").endswith("obs.metrics"):
                return bool(names - WINDOW_METRICS)
            return bool(names & banned)
        return isinstance(node, (ast.Name, ast.Attribute, ast.FunctionDef,
                                 ast.ClassDef)) and any(
            getattr(node, field, None) in banned for field in ("id", "attr", "name"))

    return sorted({node.lineno for node in ast.walk(tree) if offends(node)})


def test_the_window_rule_sees_stats_calls_registries_and_metric_imports():
    tree = ast.parse(
        "from ..obs.metrics import Histogram, histogram_quantile\n"
        "from ..obs.metrics import service_stats_metrics\n"
        "from ..obs import MetricsSnapshot\n"
        "def window(target):\n"
        "    snap = target.stats()\n"
        "    reg = obs.MetricRegistry()\n"
        "    return stats(snap), target.stats_collector.queries_answered\n"
    )
    assert window_offences(tree) == [2, 3, 5, 6]


def test_the_controller_reads_live_counters_not_snapshots():
    """A control window reads the counters the stack keeps; it never takes a
    ``stats()`` snapshot nor rebuilds a metric registry to diff."""
    assert {str(file.relative_to(SRC)): window_offences(tree)
            for file, tree in trees_under(SRC / "control")} == {
        "control/__init__.py": [], "control/autoscale.py": [],
        "control/controller.py": [], "control/slo.py": []}


def serializer_owners(tree):
    """``Owner.name`` of each ``to_json`` / ``from_dict`` defined in ``tree``."""
    owners = {node: cls.name for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for node in cls.body}
    return sorted(f"{owners.get(node, '<module>')}.{node.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name in ("to_json", "from_dict"))


def test_the_serializer_rule_sees_methods_and_functions():
    tree = ast.parse(
        "class Policy:\n"
        "    def to_json(self): ...\n"
        "    def to_dict(self): ...\n"
        "    @classmethod\n"
        "    def from_dict(cls, data): ...\n"
        "def from_dict(data): ...\n"
    )
    assert serializer_owners(tree) == [
        "<module>.from_dict", "Policy.from_dict", "Policy.to_json"]


def test_configs_share_one_serializer():
    """``ServiceConfig``, ``ClusterConfig``, ``SLO`` and ``AutoscalePolicy``
    inherit :class:`repro.boundary.ConfigBase`'s; the calibration profile
    and its entries are measurements, not configs, and keep their own.
    Nothing serializes to JSON itself: callers ``json.dumps`` a ``to_dict``."""
    assert sorted(f"{file.relative_to(SRC)}:{owner}"
                  for file, tree in trees_under(SRC)
                  for owner in serializer_owners(tree)) == [
        "backends/calibrate.py:BackendCalibration.from_dict",
        "backends/calibrate.py:CalibrationProfile.from_dict",
        "boundary.py:ConfigBase.from_dict",
    ]


CONFIG_FIELDS = frozenset(field.name for field in dataclasses.fields(ClusterConfig))
CASTS = {"int", "float", "bool", "str", "tuple"}


def config_copies(tree):
    """``self.x = …`` assignments whose value copies a ``ClusterConfig`` field.

    A copy is a bare ``config.f`` / ``self.config.f``, a cast of one, or a
    conditional over one; building a collaborator from a field
    (``make_router(config.router)``) is not a copy.
    """
    def field_read(node):
        return (isinstance(node, ast.Attribute) and node.attr in CONFIG_FIELDS
                and dotted(node.value) in ("config", "self.config"))

    def copied(value):
        if isinstance(value, ast.IfExp):
            return any(field_read(node) for node in ast.walk(value))
        if isinstance(value, ast.Call) and dotted(value.func) in CASTS:
            return any(copied(arg) for arg in value.args)
        return field_read(value)

    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value:
            targets = [node.target]
        else:
            continue
        if copied(node.value):
            hits += [dotted(target) for target in targets
                     if isinstance(target, ast.Attribute)
                     and dotted(target.value) == "self"]
    return sorted(hits)


def test_the_config_copy_rule_sees_bare_cast_and_conditional_copies():
    tree = ast.parse(
        "class C:\n"
        "    def __init__(self, config):\n"
        "        self.config = config\n"
        "        self.router = make_router(config.router)\n"
        "        self._worker_config = config.service_config()\n"
        "        self._a = config.max_pending\n"
        "        self._b: int = int(self.config.max_batch_size)\n"
        "        self._c = (None if config.hedge_delay_s is None\n"
        "                   else float(config.hedge_delay_s))\n"
        "        limit = self.config.max_pending\n"
    )
    assert config_copies(tree) == ["self._a", "self._b", "self._c"]


def test_the_cluster_reads_its_knobs_from_its_config():
    """``ClusterService.config`` is the one owner of every knob: ``cluster.py``
    never keeps a field of it in an attribute of its own."""
    assert config_copies(parsed(CLUSTER)) == []


#: Lines per module of ``src/repro`` at the last PR that touched it.  A
#: ratchet: lower a number when a module shrinks, never raise one; a new
#: module is recorded here by the PR that adds it, a deleted one leaves.
#: Raised once, on purpose, by launch on read: ``service/tickets.py`` holds
#: the deferred launches (``defer``, ``resolve``, the lane bound and the one
#: ``launch`` site), ``service/service.py`` hands a plain span's piece to it,
#: and ``service/scheduler.py``'s ``Cuts.__eq__`` compares rows by value.
#: Raised again when ``smallbatch`` became a view: ``lca/inlabel.py`` gained
#: ``InlabelIndex.nbytes``, what every registry entry books, which replaced
#: the registry's recursive byte walker and the scalar kernel.
MODULE_LINES = {
    "__init__.py": 203,
    "backends/__init__.py": 33,
    "backends/base.py": 11,
    "backends/calibrate.py": 348,
    "boundary.py": 282,
    "bridges/__init__.py": 32,
    "bridges/ck.py": 97,
    "bridges/dfs_cpu.py": 98,
    "bridges/hybrid.py": 102,
    "bridges/marking.py": 104,
    "bridges/reference.py": 47,
    "bridges/result.py": 50,
    "bridges/spanning.py": 89,
    "bridges/tarjan_vishkin.py": 158,
    "control/__init__.py": 41,
    "control/autoscale.py": 156,
    "control/controller.py": 447,
    "control/slo.py": 96,
    "device/__init__.py": 38,
    "device/context.py": 310,
    "device/specs.py": 161,
    "device/tracing.py": 70,
    "errors.py": 116,
    "euler/__init__.py": 22,
    "euler/dcel.py": 142,
    "euler/stats.py": 149,
    "euler/tour.py": 182,
    "experiments/__init__.py": 59,
    "experiments/bridges_experiments.py": 146,
    "experiments/datasets.py": 224,
    "experiments/lca_experiments.py": 204,
    "experiments/report.py": 75,
    "experiments/runner.py": 297,
    "experiments/service_experiments.py": 346,
    "graphs/__init__.py": 55,
    "graphs/bfs.py": 179,
    "graphs/components.py": 222,
    "graphs/csr.py": 145,
    "graphs/edgelist.py": 170,
    "graphs/generators/__init__.py": 45,
    "graphs/generators/kronecker.py": 79,
    "graphs/generators/random_trees.py": 121,
    "graphs/generators/road.py": 173,
    "graphs/generators/social.py": 133,
    "graphs/properties.py": 121,
    "graphs/trees.py": 156,
    "lca/__init__.py": 61,
    "lca/artifacts.py": 65,
    "lca/batch.py": 125,
    "lca/dedup.py": 194,
    "lca/inlabel.py": 482,
    "lca/naive.py": 184,
    "lca/reference.py": 85,
    "lca/rmq.py": 136,
    "obs/__init__.py": 41,
    "obs/events.py": 574,
    "obs/export.py": 197,
    "obs/metrics.py": 114,
    "obs/report.py": 604,
    "primitives/__init__.py": 57,
    "primitives/elementwise.py": 29,
    "primitives/listrank.py": 315,
    "primitives/reduce.py": 141,
    "primitives/rmq.py": 284,
    "primitives/scan.py": 112,
    "primitives/sort.py": 149,
    "service/__init__.py": 136,
    "service/cache.py": 467,
    "service/clock.py": 106,
    "service/cluster.py": 1307,
    "service/config.py": 204,
    "service/dispatch.py": 303,
    "service/faults.py": 156,
    "service/registry.py": 351,
    "service/routing.py": 271,
    "service/scheduler.py": 459,
    "service/service.py": 1316,
    "service/stats.py": 286,
    "service/tickets.py": 157,
    "workloads/__init__.py": 95,
    "workloads/arrivals.py": 422,
    "workloads/chaos.py": 423,
    "workloads/keys.py": 271,
    "workloads/replay.py": 604,
    "workloads/scenario.py": 397,
}


def test_no_module_grows():
    lines = {file.relative_to(SRC).as_posix(): len(file.read_text().splitlines())
             for file in sorted(SRC.rglob("*.py"))}
    assert sorted(lines) == sorted(MODULE_LINES)
    grown = {name: (MODULE_LINES[name], count)
             for name, count in lines.items() if count > MODULE_LINES[name]}
    assert grown == {}, "a module grew past its recorded length"


#: All ``tests/spec_serving.py`` may import from ``repro``: the shared input
#: checks and error types, the dispatcher's estimate, the probe charge, what a
#: view's build charge is read off, and the binary-lifting answers.
SPEC_INPUTS = {
    "repro.boundary.query_block", "repro.device.ExecutionContext",
    "repro.errors.InvalidQueryError", "repro.errors.Overloaded",
    "repro.errors.ReplicaDown", "repro.errors.ServiceError",
    "repro.lca.BinaryLiftingLCA", "repro.lca.build_inlabel_index",
    "repro.lca.artifacts.ARTIFACT_BUILDERS", "repro.service.CostModelDispatcher",
    "repro.service.cache.answer_cache_probe_time",
    # Only for ``observables`` to tell a real cluster from a node by type.
    "repro.service.ClusterService",
}


def test_the_serving_spec_reads_only_its_listed_inputs():
    """The spec is an oracle: it does its own routing, scheduling and cache,
    so it never imports them from ``repro.service``."""
    tree = parsed(ROOT / "tests" / "spec_serving.py")
    imported = {f"{node.module}.{alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    plain = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    assert {name for name in imported if name.startswith("repro")} == SPEC_INPUTS
    assert not any(name.startswith("repro") for name in plain)


# ----------------------------------------------------------------------
# Python 3.9 syntax; full annotations where mypy is strict
# ----------------------------------------------------------------------
def not_python_39(files):
    """The files ``ast.parse`` refuses at ``feature_version=(3, 9)``."""
    return [file.name for file in files if not parses_as_39(file.read_text())]


def parses_as_39(source):
    try:
        return bool(ast.parse(source, feature_version=(3, 9)))
    except SyntaxError:
        return False


def test_every_module_parses_as_python_39(tmp_path):
    """``pyproject.toml`` promises Python >= 3.9 and CI runs tier-1 on 3.9;
    the control is a ``match`` statement, which 3.10 added."""
    (tmp_path / "new.py").write_text("match x:\n    case 1:\n        pass\n")
    (tmp_path / "old.py").write_text("x = {**{}, 'a': 1}\n")
    assert not_python_39(sorted(tmp_path.glob("*.py"))) == ["new.py"]
    tops = ("src", "tests", "benchmarks", "examples", "scripts")
    files = [file for top in tops for file in sorted((ROOT / top).rglob("*.py"))]
    assert len(files) > 100 and not_python_39(files) == []


def untyped_defs(tree):
    """``name:line`` of each ``def`` missing an argument or return annotation,
    a method's ``self`` / ``cls`` excepted: mypy's ``disallow_untyped_defs``."""
    methods, stack = set(), [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    while stack:  # a class body's defs, also under ``if`` / ``try``
        for child in ast.iter_child_nodes(stack.pop()):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.add(child)
            elif not isinstance(child, ast.ClassDef):
                stack.append(child)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            named = args.posonlyargs + args.args + args.kwonlyargs
            static = "staticmethod" in map(dotted, node.decorator_list)
            if node in methods and not static:
                named = named[1:]
            named += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            if node.returns is None or any(arg.annotation is None for arg in named):
                hits.append(f"{node.name}:{node.lineno}")
    return hits


def test_the_annotation_rule_sees_arguments_returns_and_methods():
    tree = ast.parse(textwrap.dedent("""\
        def typed(a: int, *rest: int, **kw: str) -> int: ...
        def bare(a: int): ...
        def half(a, b: int) -> int: ...
        class C:
            def method(self, k: int) -> int: ...
            def loose(self, k): ...
            @staticmethod
            def static(k) -> int: ...
            if TYPE_CHECKING:
                def __getattr__(self, name: str) -> int: ...
        """))
    assert untyped_defs(tree) == ["bare:2", "half:3", "loose:6", "static:8"]


def test_every_def_is_annotated_where_mypy_is_strict():
    """The ``disallow_untyped_defs`` modules, read off ``pyproject.toml`` (no
    ``tomllib`` before 3.11): mypy is not run here, this keeps its leg green."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"module = \[([^\]]*)\]\s*disallow_untyped_defs = true", text)
    files = []
    for module in re.findall(r'"([\w.]+?)(?:\.\*)?"', block.group(1)):
        path = SRC.parent.joinpath(*module.split("."))
        module_file = path.parent / f"{path.name}.py"
        files += sorted(path.rglob("*.py")) if path.is_dir() else [module_file]
    assert SERVICE in files and SRC / "boundary.py" in files
    assert [f"{file.relative_to(SRC)}:{hit}" for file in files
            for hit in untyped_defs(parsed(file))] == []


# ----------------------------------------------------------------------
# No unused imports (ruff's F401, which cannot run here)
# ----------------------------------------------------------------------
def module_statements(body):
    """A module's statements, into ``if`` / ``try`` / ``with`` blocks but not
    into a ``def`` or ``class`` body."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "handlers", "orelse", "finalbody"):
                yield from module_statements(getattr(node, field, []))


def string_annotation_names(tree):
    """Names read inside string annotations (``x: "Optional[T]"``)."""
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    for name in ast.walk(ast.parse(part.value, mode="eval")):
                        if isinstance(name, ast.Name):
                            yield name.id


def unused_imports(tree):
    """Names a module imports at module level and never reads, in import order.
    A name is read when it is loaded anywhere, named in a string annotation or
    listed in ``__all__``."""
    statements = list(module_statements(tree.body))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(string_annotation_names(tree))
    for node in statements:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        value = getattr(node, "value", None)
        if value is not None and any(isinstance(target, ast.Name)
                                     and target.id == "__all__" for target in targets):
            read.update(part.value for part in ast.walk(value)
                        if isinstance(part, ast.Constant))
    imported = [alias.asname or alias.name.split(".")[0]
                for node in statements
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    return [name for name in imported if name not in read]


def test_the_unused_import_rule_sees_plain_aliased_dotted_and_typing_imports():
    tree = ast.parse(textwrap.dedent("""\
        from __future__ import annotations
        import os
        import os.path
        import json as js
        import numpy as np
        from typing import TYPE_CHECKING, Dict, List, Optional
        from .a import listed, hidden as renamed
        if TYPE_CHECKING:
            from .b import Hinted, Forgotten
        __all__ = ["listed"]
        def f(x: "Optional[Hinted]") -> Dict[str, int]:
            import sys
            return np.zeros(1)
        """))
    assert unused_imports(tree) == ["os", "os", "js", "List", "renamed", "Forgotten"]


def test_no_module_imports_a_name_it_does_not_use():
    """Every module-level import of a ``src/repro`` module is used; a package
    ``__init__`` re-exports, so it is exempt."""
    assert [f"{file.relative_to(SRC)}: {name}"
            for file, tree in trees_under(SRC) if file.name != "__init__.py"
            for name in unused_imports(tree)] == []


# ----------------------------------------------------------------------
# Every public definition has a caller (ROADMAP item 10)
# ----------------------------------------------------------------------
#: Where a caller may live.  Not ``tests/``: what only tests call is dead.
CALLER_TOPS = ("src", "benchmarks", "examples", "scripts")
#: The layer tracer reaches its targets by string, through ``getattr``.
TRACE = Path("benchmarks") / "layers" / "trace.py"

#: Public definitions under ``src/repro`` that nothing calls and that stay,
#: each with its reason.  A test oracle, a fixture many test files build
#: inputs with, or an open ROADMAP item; "it is documented" is not a reason.
ALLOWLIST = {
    "find_bridges_networkx": "oracle: the bridge tests compare against it",
    "TraceTable.canonical": "oracle: trace tests compare canonical forms",
    "TraceTable.equals": "oracle: trace tests compare tables bit for bit",
    "EdgeList.from_pairs": "fixture: ten test files build graphs with it",
    "path_graph": "fixture: six test files build graphs with it",
    "cycle_graph": "fixture: five test files build graphs with it",
    "is_tree": "oracle: four test files check spanning trees with it",
    "constant_intensity": "ROADMAP item 8: the arrival test rescales it",
    "flash_crowd_intensity": "ROADMAP item 8: the arrival test rescales it",
    "InlabelStructure.ascendant": "oracle: the Inlabel golden charges pin its sha256",
}


def public_definitions(tree):
    """``(qualified name, node)`` of each public top-level function or class
    and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            for child in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not child.name.startswith("_")):
                    yield f"{node.name}.{child.name}", child


def names_read(tree):
    """Every ``ast.Name`` id and ``ast.Attribute`` attr under ``tree``."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def traced_names(tree):
    """The function, class and method names of the ``TARGETS`` strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) == 2 and all(
                isinstance(getattr(elt, "value", None), str) for elt in node.elts):
            yield from node.elts[1].value.split(".")


def uncalled(root):
    """Qualified names of the public definitions under ``root/src/repro``
    that no module under :data:`CALLER_TOPS` names outside their own body."""
    files = [file for top in CALLER_TOPS for file in sorted((root / top).rglob("*.py"))]
    counts = collections.Counter(name for file in files for name in names_read(parsed(file)))
    counts.update(traced_names(parsed(root / TRACE)))
    package = root / "src" / "repro"
    return sorted(name for file in files if package in file.parents
                  for name, node in public_definitions(parsed(file))
                  if counts[node.name] <= names_read(node).count(node.name))


@pytest.fixture(scope="module")
def planted_uncalled(tmp_path_factory):
    """What :func:`uncalled` flags in a planted tree of every kind of caller."""
    root = tmp_path_factory.mktemp("planted")
    planted = {
        "src/repro/m.py": """\
            def used(): ...
            def unused(): ...
            def recursive(n): return recursive(n - 1)
            def tested(): ...
            def traced(): ...
            class Box:
                def read(self): return self.read()
                def write(self): ...
            def _main(): return used(), Box().write()
            """,
        "tests/test_m.py": "from repro.m import tested\ntested()\n",
        str(TRACE): 'TARGETS = {"m": (("repro.m", "traced"),)}\n',
    }
    for path, source in planted.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(textwrap.dedent(source))
    return uncalled(root)


@pytest.mark.parametrize("name,flagged", [
    ("used", False),
    ("unused", True),
    ("recursive", True),  # a self-reference is no caller
    ("tested", True),  # nor is a test
    ("traced", False),  # a TARGETS string is
    ("Box", False),
    ("Box.read", True),
    ("Box.write", False),
    ("_main", False),  # private: out of scope
])
def test_the_caller_rule_sees_unused_functions_methods_and_test_only_calls(
        planted_uncalled, name, flagged):
    assert (name in planted_uncalled) is flagged


def test_every_public_definition_has_a_caller():
    """Code on no path the program, its benchmarks, examples or scripts take
    is deleted, with its tests and docs, or allowlisted with a reason; an
    entry that gains a caller leaves the list."""
    assert uncalled(ROOT) == sorted(ALLOWLIST)


# ----------------------------------------------------------------------
# Every config field has a caller
# ----------------------------------------------------------------------
#: The calls that pass each config's fields by keyword (``derive`` is both's).
FIELD_CALLS = {
    "ServiceConfig": ("ServiceConfig", "derive", "service_config"),
    "ClusterConfig": ("ClusterConfig", "derive"),
}
#: Where such a call counts.  Not tests or examples: a knob only they set is
#: a module constant.
FIELD_CALLER_TOPS = ("src", "benchmarks", "scripts")
#: Config fields no program call sets that stay, each with its reason.
FIELD_ALLOWLIST = {
    "ClusterConfig.capacity_bytes":
        "ROADMAP items 1(a) and 2 build on the byte-bounded registry",
    "ClusterConfig.calibration_path":
        "a path: a deployment names its measured profile, no code can",
}


def unset_fields(root, configs):
    """``Config.field`` of each field of ``configs`` that no call of
    :data:`FIELD_CALLS` under ``root``'s :data:`FIELD_CALLER_TOPS` passes by
    keyword."""
    passed = collections.defaultdict(set)
    for top in FIELD_CALLER_TOPS:
        for file in sorted((root / top).rglob("*.py")):
            for call in calls(parsed(file), lambda name: True):
                passed[dotted(call.func).split(".")[-1]].update(
                    kw.arg for kw in call.keywords)
    return sorted(f"{config.__name__}.{field.name}" for config in configs
                  for field in dataclasses.fields(config)
                  if not any(field.name in passed[name]
                             for name in FIELD_CALLS[config.__name__]))


@pytest.fixture(scope="module")
def planted_unset(tmp_path_factory):
    """What :func:`unset_fields` flags in a planted tree of every kind of call."""
    root = tmp_path_factory.mktemp("planted_fields")
    planted = {
        "src/repro/m.py": """\
            ServiceConfig(built=1)
            config.derive(derived=2)
            cluster_config.service_config(carved=3, sliced=4)
            ClusterConfig(**knobs)
            other(unrelated=5)
            """,
        "benchmarks/b.py": "ClusterConfig(benched=1)\n",
        "scripts/s.py": "ClusterConfig(scripted=1).derive(rederived=2)\n",
        "tests/test_m.py": "ServiceConfig(tested=1)\n",
        "examples/e.py": "ServiceConfig(shown=1)\n",
    }
    for path, source in planted.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(textwrap.dedent(source))
    service = dataclasses.make_dataclass("ServiceConfig", [
        "built", "derived", "carved", "rederived", "tested", "shown"])
    cluster = dataclasses.make_dataclass("ClusterConfig", [
        "benched", "scripted", "derived", "sliced", "unrelated"])
    return unset_fields(root, (service, cluster))


@pytest.mark.parametrize("name,flagged", [
    ("ServiceConfig.built", False),
    ("ServiceConfig.derived", False),  # derive() is either config's
    ("ServiceConfig.carved", False),  # service_config() builds a ServiceConfig
    ("ServiceConfig.rederived", False),  # a chained derive() counts
    ("ServiceConfig.tested", True),  # a test is no caller
    ("ServiceConfig.shown", True),  # nor is an example
    ("ClusterConfig.benched", False),
    ("ClusterConfig.scripted", False),
    ("ClusterConfig.derived", False),
    ("ClusterConfig.sliced", True),  # service_config() sets no ClusterConfig field
    ("ClusterConfig.unrelated", True),  # another call's keyword is no caller
])
def test_the_field_rule_sees_each_config_call_and_no_test_or_example(
        planted_unset, name, flagged):
    assert (name in planted_unset) is flagged


def test_every_config_field_has_a_caller():
    """A knob no program, benchmark or script sets is a module constant (the
    cluster's start instant and retry cap, the answer cache's salt seed), or
    allowlisted with a reason; an entry that gains a caller leaves the list."""
    assert unset_fields(ROOT, (ServiceConfig, ClusterConfig)) == sorted(FIELD_ALLOWLIST)


# ----------------------------------------------------------------------
# No undefined global names (ruff's F821, which cannot run here)
# ----------------------------------------------------------------------
def undefined_globals(source):
    """Names a module reads as globals that it never binds at module level
    (nor through a ``global`` statement) and that are not builtins."""
    tables, stack = [], [symtable.symtable(source, "<module>", "exec")]
    while stack:
        tables.append(stack.pop())
        stack.extend(tables[-1].get_children())
    top = tables[0]
    bound = set(dir(builtins)) | {"__file__"}
    bound.update(symbol.get_name() for symbol in top.get_symbols()
                 if symbol.is_assigned() or symbol.is_imported() or symbol.is_namespace())
    bound.update(symbol.get_name() for table in tables for symbol in table.get_symbols()
                 if symbol.is_declared_global() and symbol.is_assigned())
    return sorted({symbol.get_name() for table in tables for symbol in table.get_symbols()
                   if symbol.is_referenced() and (table is top or symbol.is_global())
                   and symbol.get_name() not in bound})


def test_the_undefined_name_rule_sees_functions_classes_and_comprehensions():
    assert undefined_globals(textwrap.dedent("""\
        import os
        from a import b
        top = missing_at_top
        def f(): return missing_name, os, b, len, top
        def g():
            global late
            late = 1
        class C:
            x = in_a_class
            def m(self): return [in_a_comprehension for _ in ()], late
        """)) == ["in_a_class", "in_a_comprehension", "missing_at_top", "missing_name"]


def test_no_module_reads_an_undefined_global():
    """A deletion leaves no reference dangling, even on a branch no test runs."""
    offences = {str(file.relative_to(SRC)): undefined_globals(file.read_text())
                for file in sorted(SRC.rglob("*.py"))}
    assert {name: names for name, names in offences.items() if names} == {}
