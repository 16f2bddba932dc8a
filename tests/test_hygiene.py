"""Static checks on the source tree, and the modules that importing the
CLI loads."""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/projlab", "tests", "demos")


def _unused_imports(path):
    """Names that an import statement in the file binds and that the file
    never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_every_imported_name_is_read():
    unused = []
    for folder in SCANNED:
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name == "__init__.py":  # its imports are re-exports
                continue
            unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                       for line, name in _unused_imports(path)]
    assert not unused, "imported but never read:\n" + "\n".join(unused)


def _definitions(path):
    """(line, name) of the module-level functions and classes of the file,
    and of the methods of its classes, dunder methods left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defs = []
    for node in tree.body:
        if isinstance(node, kinds):
            defs.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            defs += [(f.lineno, f.name) for f in node.body
                     if isinstance(f, kinds) and not f.name.startswith("__")]
    return defs


def _loads(path):
    """Names the file reads, as a name or an attribute, or writes inside a
    string constant (bench/layers.TARGETS names its targets in strings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_every_definition_is_read():
    loaded = set()
    for folder in SCANNED + ("bench",):
        for path in sorted((ROOT / folder).glob("*.py")):
            loaded |= _loads(path)
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in sorted((ROOT / "src/projlab").glob("*.py"))
              for line, name in _definitions(path) if name not in loaded]
    assert not unread, "defined but never read:\n" + "\n".join(unread)


# names that start threads, size a thread pool or hold thread state (the
# modules threading and concurrent.futures): only threads.py uses them
_THREAD_SIZING = ("ThreadPoolExecutor", "Thread", "sched_getaffinity",
                  "cpu_count", "threading", "concurrent.futures")


def _thread_sizing_uses(path):
    """(line, name) of each use of a _THREAD_SIZING name in the file, as a
    name, an attribute, an imported name or module, or a module imported
    from."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = {node.name, node.name.split(".")[-1]}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        uses += [(node.lineno, name) for name in names
                 if name in _THREAD_SIZING]
    return uses


def test_only_threads_module_sizes_threads():
    src = ROOT / "src/projlab"
    assert _thread_sizing_uses(src / "threads.py")
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted(src.glob("*.py")) if path.name != "threads.py"
             for line, name in _thread_sizing_uses(path)]
    assert not found, ("threads started, sized or held outside "
                       "threads.py:\n" + "\n".join(found))


def _readers(name):
    """(file, function) of each read of name in src/projlab, as a name or
    an attribute: the innermost enclosing function, or '<module>'."""
    found = set()

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif (isinstance(node, ast.Name) and node.id == name
              or isinstance(node, ast.Attribute) and node.attr == name):
            if isinstance(node.ctx, ast.Load):
                found.add((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted((ROOT / "src/projlab").glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path,
              "<module>")
    return found


def test_one_kernel_rotates_every_chain():
    # the rows and the derivatives of both family kinds come from one
    # Givens chain; a second chain must not come back
    assert _readers("givens") == {("family.py", "_rotated_rows")}


def test_one_rows_path_serves_both_family_kinds():
    # both kinds' batch rows and derivatives come from the shared builders
    # over their chain writers; a kind's own copy must not come back
    tree = ast.parse((ROOT / "src/projlab/family.py").read_text())
    methods = {node.name: {f.name for f in node.body
                           if isinstance(f, ast.FunctionDef)}
               for node in tree.body if isinstance(node, ast.ClassDef)}
    for kind in ("FamilySpec", "ExtendedFamily"):
        assert not methods[kind] & {"rows", "rows_and_derivs"}, kind
    # ExtendedFamily._write writes its base block with the base's _write
    assert _readers("_write") == {("family.py", "family_rows"),
                                  ("family.py", "rows_and_derivs"),
                                  ("family.py", "_write")}


def test_central_differences_run_only_in_the_tangent_order_oracle():
    # every derivative the runs use is analytic; central differences are
    # only the oracle that checks it
    assert _readers("_central_differences") == {
        ("lab.py", "tangent_derivative_order")}


def test_cli_import_loads_no_heavy_module():
    # scipy is a test dependency only; threads.cpu_pool imports its thread
    # pool on first use, since concurrent.futures pulls in logging
    heavy = ("scipy", "concurrent.futures", "logging")
    code = ("import sys, projlab.cli; "
            f"print(*[m for m in {heavy!r} if m in sys.modules])")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_transversality_run_loads_no_masked_arrays(tmp_path):
    # numpy.ma costs about 10 ms to import; np.unique and np.median load
    # it, the probe's argument check and the run's summary do not
    argv = ["transversality", str(ROOT / "configs/family_n4m2k3.json"),
            "--extend", "--l", "1", "--seed", "1", "--samples", "2000",
            "--directions", "2", "--out", str(tmp_path / "run")]
    code = ("import sys; from projlab.cli import main; "
            f"main({argv!r}); print('numpy.ma' in sys.modules)")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def _cfg_reads(func):
    """The fields a function reads as cfg.<field>."""
    return {node.attr for node in ast.walk(func)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}


def _runner_reads(tree):
    """Mode -> the config fields its runner reads: the runner is the
    function of lab.py that calls check_config(cfg, "<mode>"), and its
    reads include those of the lab.py functions it passes cfg to, but not
    of check_config and _provenance, which read every field to check or
    hash it."""
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    reads = {}
    for func in funcs.values():
        calls = [c for c in ast.walk(func) if isinstance(c, ast.Call)
                 and isinstance(c.func, ast.Name) and c.func.id in funcs]
        modes = [c.args[1].value for c in calls
                 if c.func.id == "check_config"]
        if not modes:
            continue
        fields = _cfg_reads(func)
        for c in calls:
            if (c.func.id not in ("check_config", "_provenance")
                    and any(isinstance(a, ast.Name) and a.id == "cfg"
                            for a in c.args)):
                fields |= _cfg_reads(funcs[c.func.id])
        reads[modes[0]] = fields
    return reads


def test_every_mode_field_has_a_reader_in_its_mode():
    from projlab.lab import _MODE_FIELDS, ExperimentConfig

    common = {"mode", "family", "seed"}
    tree = ast.parse((ROOT / "src/projlab/lab.py").read_text())
    reads = _runner_reads(tree)
    assert set(reads) == set(_MODE_FIELDS)
    problems = []
    for mode, (required, optional) in _MODE_FIELDS.items():
        listed = set(required) | set(optional)
        problems += [f"{mode} reads the unlisted field {f!r}"
                     for f in sorted(reads[mode] - listed - common)]
        problems += [f"{mode} lists the unread field {f!r}"
                     for f in sorted(listed - reads[mode])]
    listed = set().union(*(set(r) | set(o) for r, o in _MODE_FIELDS.values()))
    problems += [f"field {f!r} is in no mode's table"
                 for f in sorted(set(ExperimentConfig.__dataclass_fields__)
                                 - listed - common)]
    assert not problems, "\n".join(problems)


def test_config_annotations_are_the_json_kinds_of_the_defaults():
    # each ExperimentConfig annotation is the kind from_dict checks, so it
    # must be one config_field can phrase, and every default but None
    # must be of it
    from projlab.family import _is_kind, _kind_name
    from projlab.lab import ExperimentConfig

    problems = []
    for f in dataclasses.fields(ExperimentConfig):
        try:
            _kind_name(f.type)
        except KeyError:
            problems.append(f"{f.name}: {f.type!r} is not a JSON kind")
            continue
        default = (f.default if f.default_factory is dataclasses.MISSING
                   else f.default_factory())
        if (default not in (None, dataclasses.MISSING)
                and not _is_kind(default, f.type)):
            problems.append(f"{f.name}: default {default!r} is not "
                            f"{_kind_name(f.type)}")
    assert not problems, "\n".join(problems)
