"""The package's public surface: names that were removed stay removed, no
private module-level name is left unused, the package imports nothing
outside the standard library, and the README's code runs as written."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import meshcoord
from meshcoord import bounds, coordination, objective, scenario, timing, topology

README = Path(__file__).resolve().parents[1] / "README.md"

REMOVED = [
    (topology, "graph_to_text"),
    (topology, "graph_from_text"),
    (topology, "load_graph"),
    (topology, "save_graph"),
    (coordination, "format_outcome"),
    (objective, "marginal_gain"),
    (objective, "exhaustive_curvature"),
    (objective, "rect_footprint"),
    (bounds, "fixed_action_gap"),
    (scenario, "TrialRun"),
]


@pytest.mark.parametrize("module, name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_names_stay_removed(module, name):
    assert not hasattr(meshcoord, name)
    assert not hasattr(module, name)


def test_a_delay_model_is_built_by_its_constructor_only():
    assert not hasattr(timing.DelayModel, "from_rate")


BOUND_FORMULAS = {
    "apriori_bound": ["opt", "kappa", "coins"],
    "approx_greedy_bound": ["opt", "kappa", "coins", "eta"],
    "aposteriori_bound": ["obj", "outcome", "opt", "kappa"],
    "curvature_only_bound": ["opt", "complete", "submodular", "k"],
}


@pytest.mark.parametrize("name", BOUND_FORMULAS)
def test_bound_formulas_take_their_measured_terms_without_defaults(name):
    params = inspect.signature(getattr(meshcoord, name)).parameters.values()
    assert [p.name for p in params] == BOUND_FORMULAS[name]
    assert all(p.default is inspect.Parameter.empty for p in params)


def test_bound_report_takes_no_structural_option():
    """Submodularity comes from the objective and the optimum from brute force: no option at all."""
    params = inspect.signature(meshcoord.bound_report).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        ("obj", inspect.Parameter.empty),
        ("g", inspect.Parameter.empty),
        ("outcome", inspect.Parameter.empty),
    ]


def _private_definitions(tree):
    """(name, statement) for each module-level private function, class or constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _loaded_names(node):
    """Every name node loads, as a Name, an Attribute or an import alias."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_module_name_is_used_in_the_package():
    """No module-level private function, class or constant is loaded only by its own definition, or not at all."""
    trees = [ast.parse(path.read_text()) for path in sorted(Path(meshcoord.__file__).parent.glob("*.py"))]
    loads = [(stmt, set(_loaded_names(stmt))) for tree in trees for stmt in tree.body]
    dead = [
        name
        for tree in trees
        for name, own in _private_definitions(tree)
        if not any(name in loaded for stmt, loaded in loads if stmt is not own)
    ]
    assert dead == []


def test_evaluations_outside_the_objective_module_are_charged_by_evaluate():
    """Outside objective.py no code reads f past evaluate, which charges each read, and one
    charge is kept by hand: bound_report's, for the whole-cell table it stands in for."""
    charges, reads = [], []
    for path in sorted(Path(meshcoord.__file__).parent.glob("*.py")):
        if path.name == "objective.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            where = (path.name, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                if isinstance(node, ast.AugAssign) and getattr(node.target, "attr", None) == "eval_count":
                    charges.append(where)
                elif isinstance(node, ast.Attribute) and node.attr == "_value_in":
                    reads.append(where)
    assert charges == [("bounds.py", "bound_report")]
    assert reads == []


# -S keeps site from loading .pth hooks that would import third-party modules
# before the package does
IMPORT_ALL = """
import sys
before = set(sys.modules)
import meshcoord, meshcoord.cli, meshcoord.instances
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(new - set(sys.stdlib_module_names) - {"meshcoord"})))
"""


def test_package_imports_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(Path(meshcoord.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-S", "-c", IMPORT_ALL], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


README_BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_blocks_run(block):
    exec(compile(block, str(README), "exec"), {})
