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
    return name in ("self._serve", "self._serve_deduped")


def launches_a_kernel(name):
    return name.split(".")[-2:] == ["artifact", "query"]


def test_the_rule_sees_a_second_serving_path():
    source = (
        "class S:\n"
        "    def _serve_run(self, run):\n"
        "        self._serve_deduped(*run[0])\n"
        "        entry.artifact.query(xs, ys)\n"
        "    def drain(self):\n"
        "        for item in self.pending:\n"
        "            self._serve(*item)\n"
        "    def serve_hedge(self, xs, ys):\n"
        "        self.registry.fetch(key)[0].artifact.query(xs, ys)\n"
    )
    assert functions_calling(source, serves_a_batch) == {"_serve_run", "drain"}
    assert functions_calling(source, launches_a_kernel) == {"_serve_run", "serve_hedge"}


def test_batches_are_served_and_kernels_launched_in_one_place():
    """One serving path: every flushed batch goes through ``_serve_run``.

    Its loop is the only caller of a per-batch serve method, and the host
    launches a kernel only there (once per span) and in ``_serve_deduped``
    (the unique misses of one batch) — never from a front-door method's own
    loop, and never for a hedge, whose answers nobody reads.
    """
    source = SERVICE.read_text()
    assert functions_calling(source, serves_a_batch) == {"_serve_run"}
    assert functions_calling(source, launches_a_kernel) == {
        "_serve_run", "_serve_deduped"}
