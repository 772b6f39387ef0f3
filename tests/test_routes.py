"""One solve route, one matvec route, one sampler and one grouped estimator in walks, read from its source with ast.

walks calls np.linalg.solve from a single function, the elimination
helper that the stationary and the harmonic solves share, and has no `@`
product at all: the kernel is applied through the arc table and mu0 . g
is a numpy sum, so the LU is its one BLAS/LAPACK step.  Every walk runs
through simulate: run_blocks is called only there, and _sparse_rows only
by the chain's one table accessor.  The grouped checks read transition
counts: np.unique is called only by _grouped_check, and mean_se only by
the two estimates over whole columns, covariance_mc and
doob_boundary_check, so a per-state sample loop cannot come back beside
the counts.  A second dense solve, a matrix product, a second sampler
loop or a second grouping route shows up here.
"""

import ast
from pathlib import Path

WALKS = Path(__file__).resolve().parents[1] / "src" / "spectral_walks" / "walks.py"


def enclosing_functions(tree):
    """Map each node to the name of the innermost function defined around it (None at module level)."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            owner[child] = inner
            visit(child, inner)

    visit(tree, None)
    return owner


def callers(source, names):
    """The enclosing function of every call to one of names, in ast.walk order."""
    tree = ast.parse(source)
    owner = enclosing_functions(tree)
    return [owner[node] for node in ast.walk(tree) if isinstance(node, ast.Call) and ast.unparse(node.func) in names]


def solve_callers(source):
    return callers(source, ("np.linalg.solve", "numpy.linalg.solve"))


def products(source):
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)]


def test_walks_solves_in_one_function():
    assert solve_callers(WALKS.read_text(encoding="utf-8")) == ["_solve"]


def test_walks_groups_samples_in_one_function():
    source = WALKS.read_text(encoding="utf-8")
    assert callers(source, ("np.unique", "numpy.unique")) == ["_grouped_check"]
    assert sorted(callers(source, ("mean_se",))) == ["covariance_mc", "doob_boundary_check"]


def test_walks_samples_in_one_function():
    source = WALKS.read_text(encoding="utf-8")
    assert callers(source, ("run_blocks",)) == ["simulate"]
    assert callers(source, ("_sparse_rows",)) == ["_sampler_tables"]


def test_walks_has_no_matrix_product():
    assert products(WALKS.read_text(encoding="utf-8")) == []


def test_readers_see_each_form():
    source = (
        "import numpy as np\n"
        "def a(fm, b):\n"
        "    x = np.linalg.solve(fm.kernel, b)\n"
        "    return fm.kernel @ x\n"
        "def b(fm, g):\n"
        "    def inner():\n"
        "        return np.linalg.solve(g, g)\n"
        "    return g @ fm.kernel.T, fm.mu0 @ g\n"
    )
    assert solve_callers(source) == ["a", "inner"]
    assert callers("import numpy as np\ndef a(x):\n    return np.unique(x), mean_se(x)\n",
                   ("np.unique", "mean_se")) == ["a", "a"]
    assert products(source) == ["fm.kernel @ x", "g @ fm.kernel.T", "fm.mu0 @ g"]
