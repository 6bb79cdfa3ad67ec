"""Each name has one import path, its defining module, and no module of
the package imports a name it never uses or exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import kahlerlab

MODULES = sorted(p for p in Path(kahlerlab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Name -> line for every name an import statement binds."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    keep = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    unused = {name: line for name, line in _bound_names(tree).items() if name not in keep}
    assert not unused, f"{path.name}: unused imports {unused}"


def _imported_modules(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
    return out


def test_no_module_imports_dataclasses():
    # the records are NamedTuples: decorating them as dataclasses took about
    # a quarter of `import kahlerlab.cli` (after numpy) in every process
    paths = sorted(Path(kahlerlab.__file__).parent.glob("*.py"))
    found = [p.name for p in paths if "dataclasses" in _imported_modules(ast.parse(p.read_text()))]
    assert not found


def test_no_module_imports_the_chebyshev_class():
    # a profile holds one matrix of Chebyshev coefficients, evaluated by
    # chebval; no module builds numpy's Chebyshev series objects
    paths = sorted(Path(kahlerlab.__file__).parent.glob("*.py"))
    found = [p.name for p in paths if "Chebyshev" in _bound_names(ast.parse(p.read_text()))]
    assert not found


def test_only_the_cli_formats_payloads():
    # cli.py writes every CSV and JSON payload; cache.py hashes configs as JSON
    paths = sorted(Path(kahlerlab.__file__).parent.glob("*.py"))
    mods = {p.name: _imported_modules(ast.parse(p.read_text())) for p in paths}
    assert [n for n, m in mods.items() if m & {"csv", "io"}] == ["cli.py"]
    assert [n for n, m in mods.items() if "json" in m] == ["cache.py", "cli.py"]


def _returned_inner_functions(tree: ast.Module) -> list[str]:
    """'outer -> inner' for each function that returns, by name, a function
    or lambda defined in its own body."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = {n.name for n in ast.walk(fn) if n is not fn and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        inner |= {
            t.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Lambda)
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        for n in ast.walk(fn):
            if isinstance(n, ast.Return) and isinstance(n.value, ast.Name) and n.value.id in inner:
                out.append(f"{fn.name} -> {n.value.id}")
            elif isinstance(n, ast.Return) and isinstance(n.value, ast.Lambda):
                out.append(f"{fn.name} -> lambda")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_returns_a_closure(path):
    # evaluators take their points and return values: a function that only
    # builds an inner function for its caller to evaluate at once is a second
    # call for one quantity
    assert not _returned_inner_functions(ast.parse(path.read_text())), path.name


def test_package_namespace_holds_only_modules():
    # every name is imported from the module that defines it
    public = [n for n, v in vars(kahlerlab).items() if not n.startswith("_") and not isinstance(v, ModuleType)]
    assert not public


@pytest.mark.parametrize(
    "module, loaded",
    [("numerics", ["errors", "numerics"]), ("quantization", ["errors", "numerics", "quantization"])],
)
def test_a_module_loads_only_what_it_imports(module, loaded):
    # a fresh interpreter: the toy strand loads none of the ruled-surface one
    src = str(Path(kahlerlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, kahlerlab.{module}; print(*sorted(m for m in sys.modules if m.startswith('kahlerlab.')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout
    assert out.split() == [f"kahlerlab.{m}" for m in loaded]



# what `import kahlerlab.cli` runs: parsing, hashing and writing, and no
# library module
_CLI_RUNS = ["cache", "cli", "errors"]


def _executed(code: str) -> list[str]:
    """The kahlerlab modules a fresh interpreter has run after `code`. A
    module the cli binds lazily counts once an attribute read has run it."""
    src = str(Path(kahlerlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    report = "print(*sorted(m[10:] for m, v in sys.modules.items() if m.startswith('kahlerlab.') and type(v) is ModuleType))"
    code = f"import sys\nfrom types import ModuleType\n{code}\n{report}"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout
    return out.split()


def test_the_cli_import_runs_no_strand_but_binds_every_module():
    # every kahlerlab.<m> is in sys.modules after the import, the strands
    # unexecuted: a caller that looks them up there finds them, and its first
    # attribute read runs them
    names = [p.stem for p in MODULES]
    code = f"import kahlerlab.cli\nassert all(f'kahlerlab.{{m}}' in sys.modules for m in {names!r})"
    assert _executed(code) == _CLI_RUNS


@pytest.mark.parametrize(
    "argv, strand",
    [
        (["kappa0"], ["calabi", "ckem", "numerics"]),
        (["pkappa", "--kappa", "1.5"], ["calabi", "ckem", "numerics"]),
        (["mabuchi-probe"], ["calabi", "ckem", "mabuchi", "numerics"]),
        (["quant-balanced", "--k-range", "8"], ["numerics", "quantization"]),
        (["quant-expansion", "--k-range", "8,12,16,24"], ["numerics", "quantization"]),
        (["verify"], ["calabi", "ckem", "functionals", "mabuchi", "numerics", "quantization", "verify"]),
        (["verify", "--tags", "numerics"], ["numerics", "verify"]),
    ],
    ids=["kappa0", "pkappa", "mabuchi-probe", "quant-balanced", "quant-expansion", "verify", "verify-numerics"],
)
def test_each_command_runs_only_its_strand(argv, strand):
    code = (
        "import contextlib, io, kahlerlab.cli as cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({[*argv, '--no-cache']!r}) == 0"
    )
    assert _executed(code) == sorted(_CLI_RUNS + strand)


def test_the_traced_prelude_finds_every_module():
    # a tracer that imports the cli and then verify's tag list, as a traced
    # launch does, finds every kahlerlab.<m> in sys.modules; verify's plain
    # import of the strands runs none of them
    names = [p.stem for p in MODULES]
    code = (
        "import kahlerlab.cli\nfrom kahlerlab.verify import ALL_TAGS\n"
        f"assert all(f'kahlerlab.{{m}}' in sys.modules for m in {names!r})"
    )
    assert _executed(code) == sorted(_CLI_RUNS + ["numerics", "verify"])
