"""Design invariants, checked on the AST under tier-1 (ROADMAP item 6b).

A rule lives here, not in a ``grep`` step of ``ci.yml`` mirrored by hand in
``scripts/check.sh``: one place per rule, and it runs wherever pytest runs.
"""

import ast
from pathlib import Path

SERVICE = Path(__file__).parent.parent / "src" / "repro" / "service" / "service.py"


def dotted(node):
    """``self._serve_run`` / ``entry.artifact.query`` for a call's ``func``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def functions_calling(source, wanted):
    """Names of the functions in ``source`` that contain a call ``wanted`` accepts."""
    return {
        function.name
        for function in ast.walk(ast.parse(source))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and wanted(dotted(node.func))
    }


def serves_a_batch(name):
    return name == "self._finish_batch"


def launches_a_kernel(name):
    return name.split(".")[-2:] == ["artifact", "query"]


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
        "        self._finish_batch(batch, span.answers)\n"
        "    def _launch_span(self, span, artifact):\n"
        "        keys = pack_query_pairs(span.xs, span.ys)\n"
        "        span.answers = artifact.query(span.xs, span.ys)\n"
        "        room = self.answer_cache._max_used - self.answer_cache._used\n"
        "    def drain(self):\n"
        "        for item in self.pending:\n"
        "            self._finish_batch(*item)\n"
        "    def serve_hedge(self, xs, ys):\n"
        "        self.registry.fetch(key)[0].artifact.query(xs, ys)\n"
    )
    assert functions_calling(source, serves_a_batch) == {"_serve_run", "drain"}
    assert functions_calling(source, launches_a_kernel) == {
        "_launch_span", "serve_hedge"}
    assert functions_calling(source, packs_pairs) == {"_launch_span"}
    assert foreign_private_reads(source) == [
        "self.answer_cache._max_used", "self.answer_cache._used"]


def test_batches_are_served_and_kernels_launched_in_one_place():
    """One serving path: every flushed batch goes through ``_serve_run``.

    Its loop is the only caller of ``_finish_batch``, and the host launches a
    kernel only in ``_launch_span`` (once per span, on the plain and on the
    skew-aware path alike) — never from a front-door method's own loop, and
    never for a hedge, whose answers nobody reads.
    """
    source = SERVICE.read_text()
    assert functions_calling(source, serves_a_batch) == {"_serve_run"}
    assert functions_calling(source, launches_a_kernel) == {"_launch_span"}


def test_pairs_are_packed_once_per_block_and_once_per_span():
    """``pack_query_pairs`` runs in the front-door probe and the span opener."""
    assert functions_calling(SERVICE.read_text(), packs_pairs) == {
        "_admit_memoized", "_open_span"}


def test_the_service_reads_no_other_objects_private_state():
    """``service.py`` touches ``_names`` on ``self`` only — the answer cache's
    headroom and counters come through its public surface."""
    assert foreign_private_reads(SERVICE.read_text()) == []
