"""The library surface is what the experiments reach: every public module-level
function and class of the package is referenced by name from the package's
own code, and no module imports a name it does not use.

Names are read from the syntax tree, so a reference is any plain name or
attribute name outside the definition itself; ``__init__.py`` re-exports do
not count as uses.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qchardy"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# public names that no experiment reaches, each with the reason it stays
ALLOWED = {
    "kernel_ratio": "float view of the kernel Carleson test's terms that "
                    "acceptance test 03 calls; thm1 reads the terms with "
                    "their errors through kernel_carleson",
    "operator_bound_proxy": "radial Hardy-norm proxy that acceptance test 02 "
                            "and TestOperatorProxy call; thm1 decides with its "
                            "boundary limit, kernel_carleson",
    "boundary_lp_norm": "float view of boundary_lp that acceptance tests 01 "
                        "and 07 call; thm2 and thm3 read the norm with its "
                        "count of zeroed samples through boundary_lp",
    "average_derivative": "Monte Carlo view that frozen acceptance test 06 "
                          "and the benchmark tracer call; delete it with "
                          "ball_sample, mc_samples and --seed once the "
                          "benchmark stops passing --seed",
    "is_lipschitz_inverse": "boolean view of lipschitz_tail that acceptance "
                            "tests 02 and 10 call; the experiments read the "
                            "verdict and its reason from lipschitz_tail",
}


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}


def _names(node, attributes=True):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif attributes and isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_definition_is_referenced():
    statements = [(stmt, _names(stmt))
                  for tree in _trees().values() for stmt in tree.body]
    unreferenced = set()
    for node, _ in statements:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and not any(node.name in names
                            for stmt, names in statements if stmt is not node)):
            unreferenced.add(node.name)
    assert sorted(unreferenced - set(ALLOWED)) == []
    # an allowed name that gains a caller leaves the list
    assert sorted(set(ALLOWED) - unreferenced) == []


def test_no_unused_imports():
    unused = []
    for module, tree in _trees().items():
        used = _names(tree, attributes=False)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert unused == []
