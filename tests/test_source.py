"""Checks on the package source itself."""

import ast
import doctest
import importlib
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "qsnake").glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert, so checks must raise explicitly
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def test_no_tuple_from_generator():
    # tuple() of a generator is resized as it grows, and the resized tuples
    # pile up in CPython's tuple free lists; build the tuple from a list
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "tuple" and node.args
             and isinstance(node.args[0], ast.GeneratorExp)]
    assert SOURCES and not found, found


def test_no_indented_json_dumps():
    # one pretty-printer: cli._write_json writes every indented JSON text a
    # piece at a time, where json's indenting runs in pure Python on the whole
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dump", "dumps")
             and any(k.arg == "indent" for k in node.keywords)]
    assert SOURCES and not found, found


def test_no_dataclasses_import():
    # a frozen dataclass execs generated source for each of its methods when
    # its module is imported, and dataclasses imports inspect; the records
    # are NamedTuples or small classes written out
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.Import)
                 and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")]
    assert SOURCES and not found, found


def test_no_struct_format_grown_per_call():
    # struct caches every format it compiles, so a format that grows with
    # its input, such as f"{w}s" * n, keeps one compiled format per size:
    # such a slot reader in qrational._slots raised the peak RSS of 2400
    # `compute --format json` calls in one process from 17.3 to 19.4 MiB.
    # A format names one record, and iter_unpack repeats it.
    calls = ("pack", "unpack", "iter_unpack", "Struct", "calcsize")
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and node.args
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in calls
             and isinstance(node.args[0], ast.BinOp) and isinstance(node.args[0].op, ast.Mult)]
    assert SOURCES and not found, found


def test_traced_names_resolve():
    # bench/tracing.py wraps qsnake functions by name; a renamed or deleted
    # one must fail here rather than break the traced benchmark run
    tracing = runpy.run_path(str(ROOT / "bench" / "tracing.py"))
    missing = []
    for _layer, module, attribute, _kernel, _measure in tracing["LAYERS"]:
        owner = importlib.import_module(f"qsnake.{module}")
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"qsnake.{module}.{attribute}")
    assert tracing["LAYERS"] and not missing, missing


def test_import_loads_no_test_helpers():
    # a fresh interpreter: this one has hypothesis loaded by the test suite
    code = ("import sys, qsnake, qsnake.cli, qsnake.verify; "
            "print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'sympy', 'hypothesis', 'oracles'}))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]", out.stdout


def test_import_loads_no_dataclasses_inspect_or_render():
    # what a one-shot command pays for at start-up: only `snake` reads the
    # render module, and no record is built by dataclasses; measured against
    # the modules a fresh interpreter holds before qsnake is imported
    code = ("import sys; before = set(sys.modules); "
            "import qsnake, qsnake.cli, qsnake.verify; "
            "print(sorted((set(sys.modules) - before)"
            " & {'dataclasses', 'inspect', 'qsnake.render'}))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]", out.stdout


def test_no_unused_imports():
    # no linter is required to run the tests, so the check is made on the ast;
    # __init__.py imports to re-export
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert SOURCES and not unused, unused


def test_no_private_names_imported_across_modules():
    # a module reads another only through its public names
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             and (node.level > 0 or (node.module or "").split(".")[0] == "qsnake")
             for alias in node.names if alias.name.startswith("_")]
    assert SOURCES and not found, found


def test_dimer_side_reads_the_snake_alone():
    # n, the denominator's cut and the Kasteleyn sign are read off the
    # snake's exponents: no Kasteleyn function takes a continued fraction,
    # in matching only the removal recurrence does (it is stated on the
    # quotients), and the even-length form lives in tests/oracles.py
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    takes_cf = {name: sorted(node.name for node in ast.walk(tree)
                             if isinstance(node, ast.FunctionDef)
                             and "cf" in [a.arg for a in ast.walk(node.args)
                                          if isinstance(a, ast.arg)])
                for name, tree in trees.items()}
    assert takes_cf["kasteleyn.py"] == [], takes_cf["kasteleyn.py"]
    assert takes_cf["matching.py"] == ["case_recurrences_check"], takes_cf["matching.py"]
    defines = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "cf_even_form"]
    assert not defines, defines


def test_snake_geometry_is_one_walk():
    # the walk in snake builds the edges and the vertices in path order:
    # kasteleyn numbers the walk's corners and reads neither the boxes nor
    # the sorted vertices, and no module builds a box's four sides or its
    # weighted side apart from the walk (the four sides live in oracles.py)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    reads = [f"kasteleyn.py:{node.lineno} .{node.attr}"
             for node in ast.walk(trees["kasteleyn.py"])
             if isinstance(node, ast.Attribute) and node.attr in ("boxes", "vertices")]
    assert not reads, reads
    defines = [f"{name}:{node.lineno} {node.name}"
               for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name in ("box_edges", "weighted_sides")]
    assert not defines, defines


def test_each_dimer_pass_has_one_entry():
    # the matching DP and the band expansion are each one public stream,
    # prefix_statistics and leading_minors, whose last item is the whole
    # result: no private generator or list form beside them, no Kasteleyn
    # report on the check path, one colour split (kasteleyn.number_vertices)
    # and one render dispatch (cli.cmd_snake)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    gone = ("kasteleyn_report", "_minors", "_prefix_statistics", "_write_render",
            "black_vertices", "white_vertices")
    defines = [f"{name}:{node.lineno} {node.name}"
               for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone]
    defines += [f"{name}:{node.lineno} {target.id}"
                for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name) and target.id in gone]
    assert not defines, defines
    [dp] = [node for node in ast.walk(trees["matching.py"])
            if isinstance(node, ast.FunctionDef) and node.name == "prefix_statistics"]
    args = dp.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
              + [a for a in (args.vararg, args.kwarg) if a]]
    assert params == ["g"], params


def test_public_names_resolve():
    import qsnake
    missing = [name for name in qsnake.__all__ if not hasattr(qsnake, name)]
    assert qsnake.__all__ and not missing, missing


def test_public_names_have_a_caller():
    # the package holds what its commands, routes and benchmark run: each
    # public name is read by another module of it or traced by bench/; a
    # name only the tests read belongs in tests/oracles.py
    import qsnake
    tracing = runpy.run_path(str(ROOT / "bench" / "tracing.py"))
    traced = {attribute for _layer, _module, attribute, _kernel, _measure in tracing["LAYERS"]}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for path in SOURCES if path.name != "__init__.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute))}
    unread = [name for name in qsnake.__all__
              if name != "__version__" and name not in read | traced]
    assert qsnake.__all__ and not unread, unread


def test_every_public_definition_is_read():
    # each public module-level name is read in src/, as a name or an
    # attribute, and each public method or property of a class as an
    # attribute, unless bench/ traces it; a dataclass field is report
    # evidence and exempt
    tracing = runpy.run_path(str(ROOT / "bench" / "tracing.py"))
    traced = {attribute.split(".")[-1] for _layer, _module, attribute, _kernel, _measure
              in tracing["LAYERS"]}
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES
             if path.name != "__init__.py"}
    loads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(getattr(node, "ctx", None), ast.Load)]
    attributes = {node.attr for node in loads if isinstance(node, ast.Attribute)} | traced
    names = {node.id for node in loads if isinstance(node, ast.Name)} | attributes
    defined = []  # (where, name, the reads that count for it)
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{file}:{node.name}", node.name, names))
            elif isinstance(node, ast.Assign):
                defined += [(f"{file}:{t.id}", t.id, names)
                            for t in node.targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [(f"{file}:{node.name}.{item.name}", item.name, attributes)
                            for item in node.body if isinstance(item, ast.FunctionDef)]
    unread = [where for where, name, reads in defined
              if not name.startswith("_") and name not in reads]
    assert defined
    assert not unread, unread


def test_docstring_examples():
    attempted = 0
    for path in SOURCES:
        name = "qsnake" if path.name == "__init__.py" else f"qsnake.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted, "no docstring examples ran"


def _limits():
    """Every module-level MAX_* limit, as (module stem, name)."""
    return [(path.stem, target.id)
            for path in SOURCES
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name) and target.id.startswith("MAX_")]


def test_limits_are_tested():
    # every limit has a bound test: some test patches it by name with
    # monkeypatch.setattr(module, "MAX_...", value)
    patched = {node.args[1].value
               for path in (ROOT / "tests").glob("test_*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute) and node.func.attr == "setattr"
               and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "monkeypatch"
               and len(node.args) == 3 and isinstance(node.args[1], ast.Constant)}
    limits = _limits()
    missing = [f"qsnake.{stem}.{name}" for stem, name in limits if name not in patched]
    assert limits and not missing, missing


def test_limits_are_documented():
    # every module-level MAX_* limit is named in the formats document
    formats = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    limits = [f"qsnake.{stem}.{name}" for stem, name in _limits()]
    missing = [name for name in limits if f"`{name}`" not in formats]
    assert limits and not missing, missing


def test_no_test_module_imports_another():
    # a shared helper lives in conftest.py as a fixture, so one module's
    # failed import cannot fail the collection of another; the one plain
    # module the tests import is oracles.py, the brute-force references,
    # which the standalone acceptance run needs without pytest
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if any(name.split(".")[-1].startswith("test_") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_acceptance_runs_standalone():
    # README promises `python tests/test_acceptance.py` without pytest
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "tests" / "test_acceptance.py")],
                         env=env, capture_output=True, text=True, timeout=300)
    passed = re.findall(r"^ACCEPTANCE (\d+): PASS", out.stdout, re.M)
    assert out.returncode == 0, out.stdout + out.stderr
    assert sorted(passed) == [str(k) for k in range(1, 10)], out.stdout
