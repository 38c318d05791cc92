"""Static checks on the library sources: standard-library imports only,
no rational or floating-point arithmetic, no imported name left unused,
one interpolation loop, one quotient sampler, one formats engine, one
variety model, one elimination instance and one complete-intersection
elimination, and no basis refactored by the Canny-Emiris cell walk.
``__init__.py`` is exempt from the unused import check, since its
imports are re-exports."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chowforms"
MODULES = sorted(SRC.glob("*.py"))


def test_sources_found():
    assert len(MODULES) > 5


def _imports(tree):
    """(module, bound name) for every import statement but __future__'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_fractions_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [m for m, _ in _imports(tree)
            if m.split(".")[0] == "fractions"] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_standard_library_only(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [m for m, _ in _imports(tree) if not m.startswith(".")
            and m.split(".")[0] not in sys.stdlib_module_names] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    # No float literal, no float() call and no true division.
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float()"))
    assert found == []


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for _, name in _imports(tree) if name not in used] == []


def _callers(name):
    """``module.function`` of every function in the sources whose own body
    (nested functions excluded) calls ``name``."""
    out = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            todo = list(ast.iter_child_nodes(fn))
            while todo:
                node = todo.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    continue
                func = getattr(node, "func", None)
                if isinstance(node, ast.Call) and name in (
                        getattr(func, "id", None), getattr(func, "attr", None)):
                    out.append(f"{path.stem}.{fn.name}")
                    break
                todo.extend(ast.iter_child_nodes(node))
    return out


def test_one_interpolation_engine():
    # The GCP and Canny-Emiris paths share one sample-and-interpolate
    # loop: one function builds the grid and runs the interpolation.
    callers = _callers("_newton_assemble")
    assert len(callers) == 1
    assert _callers("_block_grid") == callers


def test_one_formats_engine():
    # The support and the Chow and Hurwitz formats are all read off one
    # polymatroid: one function builds it from the dimension table.
    assert _callers("from_dim_table") == ["multiproj._format_polymatroid"]


def test_one_quotient_sampler():
    # The Macaulay and Canny-Emiris quotients det M / det M0 are sampled
    # by one class: one function compiles matrices.
    assert len(_callers("_compile")) == 1


def test_one_solvability_engine():
    # Every dimension verdict goes through one predicate on affine charts:
    # only dim_leq asks affine_solvable, and only the affine round reads
    # the trailing coefficient of the perturbed resultant.
    assert _callers("affine_solvable") == ["dimension.dim_leq"]
    assert _callers("_gcp_trailing") == ["dimension._affine_round"]


def test_cell_walk_never_refactors():
    # The Canny-Emiris cell walk moves d B^-1 by one fraction-free pivot
    # per simplex step: mixedres never reduces a matrix from scratch.
    tree = ast.parse((SRC / "mixedres.py").read_text())
    names = {name for _, name in _imports(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert names & {"ff_reduce", "gauss_jordan"} == set()


def test_one_variety_model():
    # Projective space is the one-block multiprojective variety: one
    # variety class, one equalizer, one generic_lc and one CI elimination
    # behind the projective and multiprojective drivers.
    classes = [node.name for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and node.name.endswith("Variety")]
    assert classes == ["MultiprojVariety"]
    assert _callers("verified_lambdas") == ["chow.generic_lc"]
    assert _callers("gcp_block_interpolation") == ["chow.ci_resultant"]
    assert _callers("degree_equalize") == ["chow.general_form"]


def test_one_ci_elimination():
    # One square elimination instance, whose one-block case is the
    # Macaulay instance, and one complete-intersection elimination, which
    # appends the u-forms and picks the engine by the number of x-blocks.
    classes = [node.name for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and node.name.endswith("System")]
    assert classes == ["MultiResSystem"]
    assert _callers("with_linear_forms") == ["chow.ci_resultant"]
    assert _callers("gcp_block_interpolation") == ["chow.ci_resultant"]
    assert sorted(_callers("resultant_multihomogeneous_interp")) == [
        "chow.ci_resultant", "multiproj.multidegree"]
