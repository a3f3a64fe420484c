"""Every public name of the library modules has a caller or a README entry.

A public function or class of the modules below passes when some program
references it by name (an AST ``Name`` or ``Attribute``), and a public method
when some program reads it as an attribute (an AST ``Attribute``; a local
variable of the same name is no call): the package outside the symbol's own
definition, or a demo or script.  Otherwise it must
be named in backticks in README.md, as a concept the library keeps although
nothing calls it.  Tests do not count as callers.  The same scan checks that
every library symbol a per-layer benchmark metric names is called.
"""

import ast
import json
import pathlib
import re

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "qbayes"
MODULES = ("linalg", "effects", "states", "update", "entropy", "locality", "definetti")
# Names kept for the README alone, each the library's only implementation of
# its concept.  Adding one is a deliberate choice, so it is pinned here.
README_ONLY = {
    "update.instrument_from_dilation",
    "update.dilation_from_instrument",
    "effects.FrameFunction.record",
}


def public_symbols(module):
    """(qualified name, its last component, line span) of each public top-level
    function and class of ``module`` and each public method of its classes.
    A method's name has two dots."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, (node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        span = (item.lineno, item.end_lineno)
                        yield f"{module}.{node.name}.{item.name}", item.name, span


def references(files):
    """{(file, name, line, is_attribute)} of every Name and Attribute in ``files``."""
    refs = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add((path, node.id, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                refs.add((path, node.attr, node.end_lineno, True))
    return refs


def readme_names():
    """Dotted identifiers inside inline code spans of README.md."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    return {token for span in spans for token in re.findall(r"[A-Za-z_][\w.]*\w", span)}


def has_caller(qualname, name, span, refs):
    """Whether ``refs`` read the symbol outside its own definition (a method
    only through an attribute)."""
    own = PACKAGE / f"{qualname.partition('.')[0]}.py"
    method = qualname.count(".") == 2
    first, last = span
    return any(
        n == name and (attr or not method) and not (path == own and first <= line <= last)
        for path, n, line, attr in refs
    )


def uncalled_symbols():
    """Qualified names of the public symbols that no program references."""
    refs = references([*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "scripts").glob("*.py")])
    return {
        qualname
        for module in MODULES
        for qualname, name, span in public_symbols(module)
        if not has_caller(qualname, name, span, refs)
    }


def per_layer_targets():
    """The library symbols that BENCHMARK.json's per-layer metrics time or
    count: each metric name less its last component, skipping the import,
    trace, machine and CLI-section metrics and the ``.rejects`` result counts."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    skip = ("import.", "trace.", "machine.", "cli.section.")
    return {
        m["name"].rpartition(".")[0]
        for m in metrics
        if not m["name"].startswith(skip) and not m["name"].endswith(".rejects")
    }


def in_readme(qualname, names):
    """Whether README names ``module.symbol``, with or without its module."""
    bare = qualname.partition(".")[2]
    return any(token == bare or token.endswith("." + bare) for token in names)


def test_every_public_symbol_has_a_caller_or_a_readme_entry():
    names = readme_names()
    uncalled = uncalled_symbols()
    missing = sorted(q for q in uncalled if not in_readme(q, names))
    assert not missing, f"public names with no caller and no README entry: {missing}"
    assert uncalled == README_ONLY


def test_the_scan_finds_symbols_and_their_callers():
    symbols = {q for m in MODULES for q, _, _ in public_symbols(m)}
    assert {"linalg.trace_out_factor", "effects.MinimalIcPovm.dual", "entropy.von_neumann"} <= symbols
    assert not any(q.rsplit(".", 1)[1].startswith("_") for q in symbols)
    # Called only from its own module's definitions, demos or the CLI.
    uncalled = uncalled_symbols()
    assert "linalg.trace_out_factor" not in uncalled
    # A method needs an attribute read: FrameFunction.record passes no
    # local variable named ``record``, and MinimalIcPovm.dual is read as one.
    assert "effects.MinimalIcPovm.dual" not in uncalled
    assert "effects.FrameFunction.record" in uncalled
    assert in_readme("effects.FrameFunction.record", {"effects.FrameFunction.record"})
    assert not in_readme("effects.FrameFunction.record", {"record"})


def test_every_per_layer_metric_names_a_called_library_symbol():
    """A per-layer metric reads 0 when its symbol is renamed away or only a
    twin of it runs, so each must name a public symbol that the package, or
    the benchmark's workloads, calls."""
    targets = per_layer_targets()
    symbols = {q: (name, span) for m in MODULES for q, name, span in public_symbols(m)}
    assert targets <= symbols.keys(), sorted(targets - symbols.keys())
    assert {"update.factor_update", "effects.FrameFunction.from_state"} <= targets
    refs = references([*PACKAGE.glob("*.py"), ROOT / "perfbench" / "workloads.py"])
    uncalled = sorted(q for q in targets if not has_caller(q, *symbols[q], refs))
    assert not uncalled, f"per-layer metrics whose symbol nothing calls: {uncalled}"
