"""Source layout: every top-level function and class in `src/breakscore` is
used in `src` outside its own definition, so code that only the tests use
cannot live there. An import or an `__all__` entry is not a use. Every name a
module imports at top level is read in that module, so a deletion leaves no
stale import behind."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "breakscore"


def _exempt(module: str, name: str) -> bool:
    """Definitions reached without their name appearing in `src`."""
    # `cli.main` looks each subcommand's handler up as globals()[f"cmd_{command}"].
    return module == "cli" and name.startswith("cmd_")


def _trees():
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        yield module, path, ast.parse(path.read_text())


def _definitions():
    """(module, name, path, first line, last line) of each top-level def and class."""
    for module, path, tree in _trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, node.name, path, node.lineno, node.end_lineno


def _uses():
    """(path, line, name) of every name read as a variable or an attribute."""
    for _, path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield path, node.lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield path, node.lineno, node.attr


def test_every_definition_is_used_in_src():
    uses = list(_uses())
    unused = [
        f"{module}.{name}"
        for module, name, path, first, last in _definitions()
        if not _exempt(module, name)
        and not any(n == name and not (p == path and first <= i <= last) for p, i, n in uses)
    ]
    assert not unused, f"defined in src but used nowhere else in src: {unused}"


def test_every_top_level_import_is_read():
    stale = []
    for module, _, tree in _trees():
        if module == "nn.__init__":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            stale += [f"{module}: {name}" for name in bound if name not in read]
    assert not stale, f"imported but never read: {stale}"


def _is_call_of(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def test_only_jsonl_states_the_value_rule():
    # What a value read from outside may be (no coercion, a bool is no number)
    # is `jsonl`'s rule; a module that tests a value's type itself writes a
    # second copy of it.
    copies = []
    for module, path, tree in _trees():
        if module == "jsonl":
            continue
        for node in ast.walk(tree):
            type_test = (isinstance(node, ast.Compare) and _is_call_of(node.left, "type")
                         and isinstance(node.ops[0], (ast.Is, ast.IsNot, ast.In, ast.NotIn,
                                                      ast.Eq, ast.NotEq)))
            bool_test = _is_call_of(node, "isinstance") and any(
                isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
            if type_test or bool_test:
                copies.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert not copies, f"a type rule outside jsonl: {copies}"
