import ast
import re
import tokenize
from pathlib import Path

import flatrank

SOURCES = sorted(Path(flatrank.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    """`python -O` strips assert statements, so a check in the library must
    raise instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_library_has_no_unused_imports():
    """Every name a module imports at its top level is read somewhere in
    that module, so moving code out of a module leaves no orphan import."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert SOURCES and not found, found


def test_every_library_constant_is_read():
    """Every name a module assigns at its top level (constants, prices and
    type aliases, dunders aside) is read somewhere in the library, so a
    guard change that stops reading a price leaves no orphan constant."""
    trees = [(path, ast.parse(path.read_text(), str(path))) for path in SOURCES]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    assigned = [
        (path.name, node.lineno, target.id)
        for path, tree in trees for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and not _is_dunder(target.id)
    ]
    found = [f"{name}:{line} {target}" for name, line, target in assigned if target not in read]
    assert assigned and not found, found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names_read(node):
    """The names and attribute names a definition reads.  A class reads its
    bases, decorators, non-method statements and dunder methods, which run
    implicitly; its other methods are definitions of their own."""
    parts = [node]
    if isinstance(node, ast.ClassDef):
        parts = [s for s in node.body
                 if not isinstance(s, ast.FunctionDef) or _is_dunder(s.name)]
        parts += node.bases + node.decorator_list
    for part in parts:
        for sub in ast.walk(part):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr


def test_every_library_function_is_reached():
    """Every function, method and class of the library is reached from the
    command line: a walk from `cli.main` and the `cmd_*` commands over the
    names and attribute names each reached definition reads.  Names stand
    for every definition that carries them, so the walk can only
    over-approximate what runs.  `verify` is the `cmd_verify` root, so the
    checks it runs (the orbit route) need no allow-list; code only tests
    call, such as the paper's lemma vectors, belongs in `tests/oracles.py`."""
    defs: dict = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
    reached = set()
    todo = ["main"] + [name for name in defs if name.startswith("cmd_")]
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            for _, node in defs[name]:
                todo.extend(_names_read(node))
    orphans = sorted(f"{module}.{name}" for name, nodes in defs.items() for module, _ in nodes
                     if name not in reached and not _is_dunder(name))
    assert "cmd_bound" in reached and not orphans, orphans


def test_every_library_parameter_is_read():
    """Every parameter of a named library function is read in its body, so
    a parameter left behind by a refactor shows.  Lambdas are exempt: a
    per-column callback may ignore some of its arguments by design."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
            params += [arg.arg for arg in (a.vararg, a.kwarg) if arg]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            found += [f"{path.name}:{node.lineno} {node.name}({name})"
                      for name in params if name not in read]
    assert SOURCES and not found, found


def test_only_input_and_closed_forms_import_fractions():
    """Flattening entries are ints from load to elimination: only
    `polynomials`, which reads JSON input, and `bounds`, which evaluates
    closed-form values, may import `fractions`, at top level or inside a
    function."""
    found = sorted({
        path.stem
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
    })
    assert "polynomials" in found and set(found) <= {"polynomials", "bounds"}, found


def test_no_method_name_on_two_library_classes():
    """The walk of `test_every_library_function_is_reached` goes by name, so
    a method name two classes share would count both methods as reached when
    only one is: each non-dunder method name belongs to one library class."""
    owners: dict = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        owners.setdefault(item.name, []).append(f"{path.stem}.{node.name}")
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    assert owners and not shared, shared


def _backticked_names(path: Path, tree):
    """(line, name) for each backticked dotted name, with or without a call,
    in the module's docstrings and comments; paths and options are not
    names."""
    texts = [(node.body[0].lineno, ast.get_docstring(node, clean=False))
             for node in ast.walk(tree)
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
             and ast.get_docstring(node, clean=False)]
    with path.open() as f:
        texts += [(tok.start[0], tok.string) for tok in tokenize.generate_tokens(f.readline)
                  if tok.type == tokenize.COMMENT]
    for line, text in texts:
        for span in re.finditer(r"`([^`]+)`", text):
            if name := re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span[1], re.S):
                yield line + text.count("\n", 0, span.start()), name[1]


def test_every_backticked_name_resolves():
    """A docstring or comment that names code in backticks names code that
    exists: the name's last dotted part is a library definition (a
    function, class, constant or variable), parameter or attribute, a
    library or imported module, or a string literal of `cli` (a command,
    an option value or a polynomial name).  So a renamed or deleted
    function leaves no mention behind."""
    trees = [(path, ast.parse(path.read_text(), str(path))) for path in SOURCES]
    known = set()
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                known.add(node.name)
            elif isinstance(node, ast.arg):
                known.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                known.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                known.add(node.attr)
            elif isinstance(node, ast.Import):
                known.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                known.update((node.module or "").split("."))
            elif isinstance(node, ast.Constant) and path.stem == "cli" \
                    and isinstance(node.value, str):
                known.add(node.value)
        known.add(path.stem)
    found = [f"{path.name}:{line} {name}" for path, tree in trees
             for line, name in _backticked_names(path, tree)
             if name.split(".")[-1] not in known]
    assert SOURCES and not found, found
