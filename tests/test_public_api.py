"""The public API and the README's library example stay in step, and the
package ships only what its commands use."""

import ast
import re
from pathlib import Path

import deltadebug

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "deltadebug"

# Public names that nothing in src/ reads, each with the file outside src/
# that does.  The benchmark reads these until it carries its own copies.
OUTSIDE_READERS = {
    "Configuration.without": "perfbench/trace_replay.py",
    "CountingOracle": "perfbench/engine_synthetic.py",
    "RunLog.fingerprint": "perfbench/harness.py",
    "read_trace": "perfbench/trace_replay.py",
}


def test_every_exported_name_resolves():
    assert len(deltadebug.__all__) == len(set(deltadebug.__all__))
    for name in deltadebug.__all__:
        assert getattr(deltadebug, name) is not None, name


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "no python block under 'Library use'"
    for block in blocks:
        exec(compile(block, f"{README}:Library use", "exec"), {})


def public_definitions(tree: ast.Module):
    """Each public module-level function and class, and each public method,
    as (qualified name, name by which it is read)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def private_functions(tree: ast.Module):
    """Each private module-level function, by name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            if not node.name.endswith("__"):
                yield node.name


def test_every_public_name_has_a_reader():
    """A public function, class or method is read somewhere in src/, or the
    allowlist names the file outside src/ that reads it.  A private
    module-level function is read in src/, with no allowlist: a helper
    kept only for the tests has no place in the package."""
    defined, private, read = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(public_definitions(tree))
        private.update(private_functions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {qualified for qualified, name in defined if name not in read}
    assert unread == set(OUTSIDE_READERS), "unread in src/ and not allowlisted"
    assert private - read == set(), "private functions unread in src/"
    for qualified, reader in OUTSIDE_READERS.items():
        name = qualified.rpartition(".")[2]
        assert re.search(rf"\b{name}\b", (ROOT / reader).read_text(encoding="utf-8")), (
            f"{reader} no longer reads {qualified}"
        )


def test_every_module_level_import_is_read():
    """Each name a module of src/ imports at module level is read in that
    module, or re-exported through its ``__all__``."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        unread += [
            f"{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in read | exported
        ]
    assert unread == []
