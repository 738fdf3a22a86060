"""Source-layout checks: no code or state in src/ exists only for the tests,
every output file and JSON-lines text goes through the one writer and
formatter, every index comes from the one build or load, only `index
build` builds one and every other command loads a snapshot, only the build,
the write and the text map read a corpus's texts whole, and every state
filled on first use, stem_set's included, fills through the one memo,
which never evicts, and every command-line option is read."""

import argparse
import ast
from pathlib import Path

from hopkit.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hopkit"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _src_and_callers() -> tuple[dict, dict]:
    """The parsed src/hopkit modules, and the modules that may use them:
    src/hopkit and perfbench, without the package's __init__.py, which
    only re-exports."""
    trees = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    callers = dict(trees)
    callers.pop(SRC / "__init__.py")
    callers.update((path, _parse(path)) for path in sorted((ROOT / "perfbench").glob("*.py")))
    return trees, callers


def test_every_src_function_has_a_caller_outside_tests():
    """Every module-level def or class in src/hopkit is named somewhere
    outside its own definition, and every non-dunder method is reached
    through an attribute."""
    trees, callers = _src_and_callers()
    names, attributes = [], []
    for tree in callers.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((node.id, node))
            elif isinstance(node, ast.alias):
                names.append((node.name.rpartition(".")[2], node))
            elif isinstance(node, ast.Attribute):
                attributes.append((node.attr, node))

    def referenced(definition, refs) -> bool:
        inside = {id(node) for node in ast.walk(definition)}
        return any(name == definition.name and id(node) not in inside for name, node in refs)

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unreached = []
    for path, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (*functions, ast.ClassDef)):
                continue
            if not referenced(top, names + attributes):
                unreached.append(f"{path.stem}.{top.name}")
            for method in top.body if isinstance(top, ast.ClassDef) else ():
                if (isinstance(method, functions) and not method.name.startswith("__")
                        and not referenced(method, attributes)):
                    unreached.append(f"{path.stem}.{top.name}.{method.name}")
    assert not unreached, f"no caller outside tests: {unreached}"


def _defaulted_parameters(function, method: bool) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter of ``function`` that has a
    default; position counts the arguments a call writes, so a method's
    self or cls is not one of them, and a keyword-only parameter has none."""
    args = function.args
    positional = args.posonlyargs + args.args
    skip = 1 if method and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in function.decorator_list) else 0
    defaulted = [(arg.arg, i - skip)
                 for i, arg in enumerate(positional)
                 if i >= len(positional) - len(args.defaults)]
    defaulted += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    return defaulted


def test_every_defaulted_parameter_is_passed_outside_tests():
    """Every parameter with a default, on a def in src/hopkit, is passed by
    position or by keyword in some call in the callers, so no parameter is
    there only for the tests to set.  Calls are matched by name, a method's
    through an attribute and __init__ through its class's name; a call
    with *args or **kwargs passes everything."""
    trees, callers = _src_and_callers()
    calls: dict[str, list[ast.Call]] = {}
    for tree in callers.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(call)

    def passed(call: ast.Call, name: str, position: int | None) -> bool:
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        if any(kw.arg in (None, name) for kw in call.keywords):
            return True
        return position is not None and position < len(call.args)

    unpassed = []
    for path, tree in trees.items():
        owners = {id(method): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for method in cls.body}
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = owners.get(id(function))
            called_as = owner.name if owner and function.name == "__init__" else function.name
            for name, position in _defaulted_parameters(function, owner is not None):
                if not any(passed(call, name, position) for call in calls.get(called_as, ())):
                    qualified = f"{owner.name}.{function.name}" if owner else function.name
                    unpassed.append(f"{path.stem}.{qualified}({name})")
    assert not unpassed, f"defaulted parameters only tests pass: {unpassed}"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(decorator.func if isinstance(decorator, ast.Call) else decorator,
                       "id", None) == "dataclass" for decorator in cls.decorator_list)


def test_every_dataclass_field_is_read_outside_tests():
    """Every field of a src/hopkit dataclass is read through an attribute
    somewhere in the callers, its own class's methods included (the check
    above keeps those reached), so no field is filled only for the tests.
    An option read from the argparse namespace, ``args.<name>``, reads no
    dataclass field, so it keeps none."""
    trees, callers = _src_and_callers()
    attributes = {node.attr for tree in callers.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and getattr(node.value, "id", None) != "args"}
    unread = [f"{path.stem}.{cls.name}.{statement.target.id}"
              for path, tree in trees.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for statement in cls.body
              if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
              and statement.target.id not in attributes]
    assert not unread, f"dataclass fields nothing outside tests reads: {unread}"


def _nodes_outside(path: Path, functions: set[str]):
    """Every node of a module, except those inside its named top-level
    functions."""
    tree = _parse(path)
    skipped = set()
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in functions:
            skipped |= {id(node) for node in ast.walk(top)}
    return [node for node in ast.walk(tree) if id(node) not in skipped]


def _calls_outside(path: Path, functions: set[str]):
    """Every call in a module, except those inside its named top-level
    functions."""
    return [node for node in _nodes_outside(path, functions) if isinstance(node, ast.Call)]


def _writes_a_file(call: ast.Call) -> bool:
    """write_text, write_bytes, os.open, os.fdopen, or open / Path.open with
    a mode that writes (or one that is not a literal)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes", "fdopen"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    position = 1 if isinstance(func, ast.Name) else 0
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[position:position + 1]
    return any(not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
               or set(mode.value) & set("wax+") for mode in modes)


def test_every_file_is_written_by_the_one_writer():
    """Outside errors.write_output, no src/hopkit module writes a file; the
    index snapshot's temp-file-and-rename writer is the one exception."""
    writes = [f"{path.name}:{call.lineno}"
              for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
              for call in _calls_outside(path, {"write_snapshot"}) if _writes_a_file(call)]
    assert not writes, f"files written outside errors.write_output: {writes}"


def _is_json_row(node) -> bool:
    """A json.dumps call without indent, so its text is one line."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dumps" and getattr(node.func.value, "id", None) == "json"
            and not any(kw.arg == "indent" for kw in node.keywords))


def _is_newline(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and "\n" in node.value


def test_every_json_lines_text_comes_from_the_one_formatter():
    """Outside errors.jsonl, no src/hopkit module ends a json.dumps row with a
    newline, whether by +, in an f-string or by joining on one."""
    rows = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                parts = [node.left, node.right]
            elif isinstance(node, ast.JoinedStr):
                parts = [v.value if isinstance(v, ast.FormattedValue) else v for v in node.values]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "join"):
                parts = [node.func.value, *(n for arg in node.args for n in ast.walk(arg))]
            else:
                continue
            if any(map(_is_json_row, parts)) and any(map(_is_newline, parts)):
                rows.append(f"{path.name}:{node.lineno}")
    assert not rows, f"JSON lines built outside errors.jsonl: {sorted(set(rows))}"


def test_every_index_is_built_or_loaded():
    """Outside index.build_index and index.load_snapshot, nothing in src/,
    perfbench/ or tests/ calls InvertedIndex(...), so every index holds its
    postings in the one packed form those two make."""
    paths = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    calls = [f"{path.relative_to(ROOT)}:{call.lineno}"
             for path in sorted(paths)
             for call in _calls_outside(path, {"build_index", "load_snapshot"})
             if "InvertedIndex" in (getattr(call.func, "id", None),
                                    getattr(call.func, "attr", None))]
    assert not calls, f"InvertedIndex constructed outside build_index and load_snapshot: {calls}"


def test_only_index_build_builds_an_index():
    """In cli.py, only cmd_index_build calls build_index or load_corpus: every
    other command loads its index from a snapshot, so no command keeps a
    second index source."""
    calls = [f"cli.py:{call.lineno}"
             for call in _calls_outside(SRC / "cli.py", {"cmd_index_build"})
             if (getattr(call.func, "id", None) or getattr(call.func, "attr", None))
             in ("build_index", "load_corpus")]
    assert not calls, f"an index built outside cmd_index_build: {calls}"


def test_only_the_build_the_write_and_the_map_read_every_text():
    """Outside corpus.py, index.build_index and index._snapshot_body, nothing
    in src/ reads a corpus's ``texts``: a loaded corpus inflates its text
    blocks as they are read, so a search or retrieve path that read
    ``texts`` could inflate every block unnoticed.  A sentence is read by
    id, ``corpus[id]``, and a text mapped with ``corpus.id_of_text``."""
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "corpus.py"
             for node in _nodes_outside(path, {"build_index", "_snapshot_body"})
             if isinstance(node, ast.Attribute) and node.attr == "texts"]
    assert not reads, f"corpus texts read outside the build, the write and the map: {reads}"


def test_every_fill_on_first_use_goes_through_the_one_memo():
    """In src/, only corpus.Memo defines __missing__: every state filled on
    first use, stem_set's text memo too, is a Memo, whose docstring holds
    the rule that makes a concurrent fill safe, so no class or function
    keeps its own get / compute / store."""
    missing = [f"{path.stem}.{cls.name}"
               for path in sorted(SRC.glob("*.py"))
               for cls in ast.walk(_parse(path)) if isinstance(cls, ast.ClassDef)
               for method in cls.body
               if isinstance(method, ast.FunctionDef) and method.name == "__missing__"]
    assert missing == ["corpus.Memo"], f"__missing__ defined outside corpus.Memo: {missing}"


def test_no_memo_evicts():
    """No code in src/hopkit calls .clear(): a memo keeps what it filled for
    the life of the process, so no memo has an eviction policy of its own."""
    clears = [f"{path.name}:{call.lineno}"
              for path in sorted(SRC.glob("*.py"))
              for call in ast.walk(_parse(path))
              if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
              and call.func.attr == "clear"]
    assert not clears, f".clear() called in src/hopkit: {clears}"


def _parsers(parser: argparse.ArgumentParser):
    """The parser and every subcommand parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _parsers(child)


def test_every_cli_option_is_read():
    """Every option of every hopkit command is read in cli.py, as
    ``args.<dest>`` or ``getattr(args, "<dest>", ...)``, so no flag is
    accepted and then ignored.  An option of a required mutually exclusive
    group is read when another of the group is: the one read decides."""
    read = set()
    for node in ast.walk(_parse(SRC / "cli.py")):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and getattr(node.args[0], "id", None) == "args"
              and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    unread = []
    for parser in _parsers(build_parser()):
        decided = set(read)
        for group in parser._mutually_exclusive_groups:
            dests = {action.dest for action in group._group_actions}
            if group.required and dests & read:
                decided |= dests
        unread += [f"{parser.prog} {action.option_strings[0]}"
                   for action in parser._actions
                   if action.option_strings and action.dest not in decided
                   and not isinstance(action, (argparse._HelpAction, argparse._VersionAction))]
    assert not unread, f"options no command reads: {unread}"
