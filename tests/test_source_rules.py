"""Source checks for the determinism contract that no runtime test can see.

Ranks and trajectories must not depend on the BLAS thread count, so the only
BLAS products allowed are the scorers' bounds() in model.py, whose error
bounds hold for any summation order; and scoring math stays in model.py, so
the loss and ranking code never branch on a scorer.
"""

import ast
from pathlib import Path

import symkge
from symkge.model import ScorerKind

SRC = Path(symkge.__file__).parent
BLAS_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "multi_dot", "einsum", "tensordot"}
ALLOWED = {("model.py", "TransE.bounds"), ("model.py", "DistMult.bounds")}


def _blas_products(path: Path) -> list[tuple[str, int]]:
    """(enclosing class/function path, line) of each BLAS product in a module."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        is_product = (
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        ) or (
            isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) or getattr(node.func, "id", None))
            in BLAS_FUNCTIONS
        )
        if is_product:
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_blas_products_only_in_bounds():
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        for scope, line in _blas_products(path):
            assert (path.name, scope) in ALLOWED, f"{path.name}:{line}: BLAS product in {scope}"
            seen.add((path.name, scope))
    assert seen == ALLOWED  # the detector still finds the products that are allowed


def test_loss_and_ranking_name_no_scorer():
    members = {kind.name for kind in ScorerKind}
    for name in ("losses.py", "evaluation.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        named = [(node.lineno, node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in members]
        assert not named, f"{name} names scorer kinds: {named}"
