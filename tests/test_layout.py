"""The deletion rule on `src`: the library is what the pipelines run.

Every top-level function, class and constant of `src/cylspec` must be
referenced outside its own definition somewhere in `src` or in the benchmark
(`perfbench/*.py`): by name, as an attribute, or as a string naming it (the
benchmark patches traced functions by name).  Imports and `__all__` do not
count.  A name that only tests use is test code; the dense cross-checks live in
`tests/reference.py`.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cylspec"

# kept in src although no pipeline references them, each with its reason;
# a key is a module (every name in it) or module.name
EXCEPTIONS = {
    "oracle": "the exact reference engine: an independent route to the eigenvalues",
    "operator_model.spec_to_json": "the inverse of load_spec",
    "resolvent.triple_norm_bound_check":
        "the paper's central estimate, cheap since its seminorms come from one "
        "derivative ladder; left: check reporting it (ROADMAP item 5)",
}


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level functions, classes and constants (dunders skipped) by name."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out.update((name, stmt) for name in names if not name.startswith("__"))
    return out


def _references(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement uses: names, attributes and identifier strings."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return set()
    if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
        return set()
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def _src_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _unreferenced(src: dict[str, ast.Module]) -> set[str]:
    """module.name of every top-level definition in src that nothing in src or
    the benchmark references outside the definition itself."""
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    uses = [(module, stmt, _references(stmt))
            for module, tree in list(src.items()) + [("", t) for t in bench]
            for stmt in tree.body]
    return {f"{module}.{name}"
            for module, tree in src.items()
            for name, definition in _definitions(tree).items()
            if not any(name in refs for m, stmt, refs in uses
                       if not (m == module and stmt is definition))}


def _covers(key: str, qualified: str) -> bool:
    return qualified == key or qualified.startswith(key + ".")


def test_every_src_name_is_used_by_the_library_or_the_benchmark():
    unreferenced = _unreferenced(_src_trees())
    assert sorted(q for q in unreferenced
                  if not any(_covers(key, q) for key in EXCEPTIONS)) == []
    # every exception is still needed
    assert all(any(_covers(key, q) for q in unreferenced) for key in EXCEPTIONS)


def test_cross_checks_fail_the_rule_back_in_src():
    # each definition of tests/reference.py, put back alone in the module it came
    # from, is flagged; none of them can be imported from cylspec
    home = {"ProjectionMatrix": "resolvent", "_loop_nodes": "resolvent",
            "spectral_projection": "resolvent", "verify_resolvent_identities": "resolvent",
            "phase_shift_matrix": "spectral", "interior_mode_projector": "spectral",
            "IDENTITY_TOL": "norms", "check_combinatorial_identity": "norms",
            "resummation_coefficient": "norms", "check_resummation_coefficient": "norms",
            "FIT_FLOOR_REL": "timedomain", "GROWTH_RUNS": "timedomain",
            "random_run_growth_rate": "timedomain", "inner_product": "spectral",
            "apply_derivative": "spectral", "sobolev_seminorm": "norms",
            "derivative_multi": "polynomial", "greedy_strip_clusters": "resolvent",
            "monomial_eval_points": "polynomial",
            "_certificate_blocks": "operator_model",
            "unskipped_certificate_blocks": "operator_model"}
    moved = _definitions(ast.parse((ROOT / "tests" / "reference.py").read_text()))
    assert set(moved) == set(home)
    for name, definition in moved.items():
        src = _src_trees()
        src[home[name]].body.append(definition)
        assert f"{home[name]}.{name}" in _unreferenced(src), name
        for module in src:
            package = "cylspec" if module == "__init__" else f"cylspec.{module}"
            assert not hasattr(importlib.import_module(package), name), (module, name)
