"""The README documents every exported name and every configuration key;
grid.py makes every Fourier transform of the package; the package's
modules import each other at module level only, without a cycle."""

import ast
import dataclasses
import graphlib
import inspect
import re
from pathlib import Path

import mcsvortex
from mcsvortex import cli

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(mcsvortex.__file__).resolve().parent


def _api_section() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library API\n(.*?)(?=^## )", text, re.M | re.S)
    assert match, "README.md has no '## Library API' section"
    return match.group(1)


def test_every_export_is_documented():
    section = _api_section()
    missing = [name for name in mcsvortex.__all__ if f"`{name}`" not in section]
    assert not missing, f"not in README's Library API section: {missing}"


def test_config_block_names_every_key():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^```ini\n(.*?)^```", text, re.M | re.S)
    assert match, "README.md has no ini block"
    documented = {key.lower() for key in re.findall(r"\b(\w+) = ", match.group(1))}
    assert documented == set().union(*cli._SCHEMA.values())


def test_no_new_problem_or_config_knobs():
    # a solver refinement that needs a new field or key is a design change,
    # made deliberately here together with the README
    fields = [field.name for field in dataclasses.fields(mcsvortex.ProblemSpec)]
    assert fields == ["model", "vortices", "q", "grid", "newton_tol", "max_newton_iters"]
    # what a solve produces; its residuals and energy are derived from it
    fields = [field.name for field in dataclasses.fields(mcsvortex.SolutionBundle)]
    assert fields == ["spec", "background", "u", "v", "w", "newton_iters"]
    fields = [field.name for field in dataclasses.fields(mcsvortex.LimitSolution)]
    assert fields == ["model", "background", "u_inf", "residual_norm", "newton_iters"]
    # what every solve reads; the weight and grad(e^{u0}) are derived from it
    fields = [field.name for field in dataclasses.fields(mcsvortex.BackgroundData)]
    assert fields == ["grid", "config", "u0", "exp_u0", "source"]
    assert cli._SCHEMA == {
        "model": {"name", "s", "table"},
        "vortices": {"points", "sigma"},
        "grid": {"n"},
        "solver": {"q", "q_list", "newton_tol", "max_newton_iters"},
        "output": {"dir"},
    }
    params = {
        name: list(inspect.signature(getattr(mcsvortex, name)).parameters)
        for name in (
            "solve_coupled", "solve_limit", "q_sweep", "energy", "energy_gradient",
            "recover_v", "coefficient_fields", "helmholtz_solve", "helmholtz_apply",
        )
    }
    # a problem is its ProblemSpec alone: no background, model or q beside it
    assert params == {
        "solve_coupled": ["spec", "init"],
        "solve_limit": ["spec"],
        "q_sweep": ["spec", "q_list"],
        "energy": ["u", "spec"],
        "energy_gradient": ["u", "spec"],
        "recover_v": ["u", "spec"],
        "coefficient_fields": ["u", "spec"],
        "helmholtz_solve": ["c", "rhs", "q", "tol"],
        "helmholtz_apply": ["c", "u", "q"],
    }


def test_only_the_grid_module_transforms():
    # GridSpec.forward and GridSpec.inverse are the one transform path, so
    # counting their calls counts every transform the package makes; only
    # grid.py reaches numpy's private pocketfft ufuncs, too
    fft = re.compile(
        r"\b(?:np|numpy|scipy)\.fft\b"  # np.fft.rfft2, import scipy.fft
        r"|^\s*from\s+(?:numpy|scipy)\s+import\b.*\bfft\b"  # from numpy import fft
        r"|\b_pocketfft_umath\b",  # numpy.fft._pocketfft_umath
        re.M,
    )
    modules = sorted(PACKAGE.glob("**/*.py"))
    assert PACKAGE / "grid.py" in modules
    users = [
        path.name for path in modules
        if path.name != "grid.py" and fft.search(path.read_text(encoding="utf-8"))
    ]
    assert not users, f"modules that call numpy.fft or scipy.fft directly: {users}"
    assert fft.search('ufuncs = getattr(numpy_fft, "_pocketfft_umath")')


def test_only_the_errors_module_tests_number_types():
    # errors._number is the one rule for "a real number, not a bool or a
    # string", so every route into the package checks numbers alike
    number_type = re.compile(r"\bisinstance\([^)]*\b(?:Real|bool)\b")
    modules = sorted(PACKAGE.glob("**/*.py"))
    assert PACKAGE / "errors.py" in modules
    users = [
        path.name for path in modules
        if path.name != "errors.py" and number_type.search(path.read_text(encoding="utf-8"))
    ]
    assert not users, f"modules that test for a number type themselves: {users}"
    for text in ("isinstance(m, Real)", "isinstance(x, (numbers.Real, np.floating))",
                 "isinstance(flag, bool)"):
        assert number_type.search(text), text
    assert not number_type.search("isinstance(outcome, SolveFailure)")


def _package_imports(path: Path) -> tuple[set[str], list[int]]:
    """The package modules path imports when it is loaded, by stem: the
    module-level imports outside `if TYPE_CHECKING:`, "__init__" for the
    package itself; and the lines of every package import inside a function."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}

    def targets(node) -> set[str]:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif node.level:  # the package is flat: "from . import x", "from .x import y"
            names = [f"mcsvortex.{node.module or alias.name}" for alias in node.names]
        else:
            names = [node.module]
        found = set()
        for parts in (name.split(".") for name in names):
            if parts[0] == "mcsvortex":
                found.add(parts[1] if parts[1:] and parts[1] in modules else "__init__")
        return found

    imported, in_functions = set(), []

    def visit(node, in_function: bool) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found = targets(node)
            if found and in_function:
                in_functions.append(node.lineno)
            elif not in_function:
                imported.update(found)
            return
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING"
        ):
            children = node.orelse  # the guarded body only ever runs under a type checker
        else:
            children = ast.iter_child_nodes(node)
        in_function = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        for child in children:
            visit(child, in_function)

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return imported, in_functions


def test_package_imports_form_no_cycle():
    # every package import is made at module level, so the import graph is
    # the whole story, and that graph has no cycle: a module never sees a
    # half-initialized one
    graph, in_functions = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        graph[path.stem], lines = _package_imports(path)
        if lines:
            in_functions[path.name] = lines
    assert not in_functions, f"package imports inside functions: {in_functions}"
    assert "diagnostics" in graph["solver"] and "solver" not in graph["diagnostics"]
    assert graph["__init__"] >= {"solver", "diagnostics", "grid"}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle among package modules: {exc.args[1]}") from None
