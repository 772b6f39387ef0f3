"""One solve route, one matvec route, one sampler and one grouped estimator in walks, and a BLAS-free eigh in
spectra, read from their source with ast.

walks calls np.linalg.solve from a single function, the elimination
helper that the stationary and the harmonic solves share, and has no `@`
product at all: the kernel is applied through the arc table and mu0 . g
is a numpy sum, so the LU is its one BLAS/LAPACK step.  Every walk runs
through simulate: run_blocks is called only there, and the sampler's
running sums are built only with the arc table and searched only by the
block step.  The grouped checks read transition counts: np.unique is
called only by _grouped_check, and mean_se only by the two estimates over
whole columns, covariance_mc and doob_boundary_check, so a per-state
sample loop cannot come back beside the counts.  A second dense solve, a matrix product, a second sampler
loop or a second grouping route shows up here.

spectra.eigh and the helpers it runs make no BLAS or LAPACK call: no
`@`, no dot or matmul and nothing from np.linalg, and they call no
function of spectra outside that set, so such a call cannot hide in a new
helper either.  Every dipole sum in spectra reads one kernel,
_dipole_sums, the one function that runs the passes over the prefix tree;
neither it nor reciprocity_spectrum has a `@`, dot or matmul, and
reciprocity_spectrum uses np.linalg only for the norm threshold.  The
prefix-length tables of tree are built in spectra only for the Gram
matrix and the independence check.
"""

import ast
from pathlib import Path

WALKS = Path(__file__).resolve().parents[1] / "src" / "spectral_walks" / "walks.py"
SPECTRA = WALKS.with_name("spectra.py")
EIGH_FUNCTIONS = ("eigh", "_solve_blocks", "_blocks", "_tridiagonalize", "_implicit_ql", "_rotate_levels")
DIPOLE_SUMS = ("dipole_combination", "kl_gram_check", "kl_value", "kl_vertex_function", "reciprocity_spectrum")


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


def blas_uses(node):
    """Every `@`, dot or matmul call and np.linalg reference under node."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult):
            found.append(ast.unparse(sub))
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) and sub.func.attr in ("dot", "matmul"):
            found.append(ast.unparse(sub))
        elif isinstance(sub, ast.Attribute) and sub.attr == "linalg":
            found.append(ast.unparse(sub))
    return found


def module_functions(source):
    return {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


def test_eigh_makes_no_blas_call():
    functions = module_functions(SPECTRA.read_text(encoding="utf-8"))
    for name in EIGH_FUNCTIONS:
        assert blas_uses(functions[name]) == [], name
        called = {ast.unparse(node.func) for node in ast.walk(functions[name]) if isinstance(node, ast.Call)}
        assert called & functions.keys() <= set(EIGH_FUNCTIONS), name


def test_spectra_sums_dipoles_in_one_kernel():
    source = SPECTRA.read_text(encoding="utf-8")
    assert sorted(callers(source, ("_dipole_sums",))) == list(DIPOLE_SUMS)
    # the passes: the loops over the prefix tree's levels and the unbuffered adds; no outer product per word
    tree = ast.parse(source)
    owner = enclosing_functions(tree)
    assert {owner[node] for node in ast.walk(tree)
            if isinstance(node, ast.For) and "levels" in ast.unparse(node.iter)} == {"_dipole_sums"}
    assert set(callers(source, ("np.add.at",))) == {"_dipole_sums"}
    assert set(callers(source, ("np.multiply.outer",))) <= set(EIGH_FUNCTIONS)


def test_dipole_sums_make_no_blas_call():
    functions = module_functions(SPECTRA.read_text(encoding="utf-8"))
    assert blas_uses(functions["_dipole_sums"]) == []
    reciprocity = functions["reciprocity_spectrum"]
    assert blas_uses(reciprocity) == ["np.linalg"]
    assert [ast.unparse(node.func) for node in ast.walk(reciprocity)
            if isinstance(node, ast.Call) and "linalg" in ast.unparse(node.func)] == ["np.linalg.norm"]
    # M xi is read from the dipole sums: no float copy of M
    assert not {"astype", "matrix"} & {node.attr for node in ast.walk(reciprocity) if isinstance(node, ast.Attribute)}


def test_spectra_builds_prefix_length_tables_for_two_functions():
    source = SPECTRA.read_text(encoding="utf-8")
    assert sorted(callers(source, ("_prefix_lengths",))) == ["gram_matrix", "linear_independence_check"]


def test_walks_solves_in_one_function():
    assert solve_callers(WALKS.read_text(encoding="utf-8")) == ["_solve"]


def test_walks_groups_samples_in_one_function():
    source = WALKS.read_text(encoding="utf-8")
    assert callers(source, ("np.unique", "numpy.unique")) == ["_grouped_check"]
    assert sorted(callers(source, ("mean_se",))) == ["covariance_mc", "doob_boundary_check"]


def test_walks_samples_in_one_function():
    source = WALKS.read_text(encoding="utf-8")
    assert callers(source, ("run_blocks",)) == ["simulate"]
    # the running sums: the one row-wise cumsum and every write into cum are in _arc_table, the one search in
    # _simulate_block
    tree = ast.parse(source)
    owner = enclosing_functions(tree)
    nodes = list(ast.walk(tree))
    assert [owner[node] for node in nodes if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.cumsum"
            and any(k.arg == "axis" for k in node.keywords)] == ["_arc_table"]
    assert {owner[node] for node in nodes if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
            and ast.unparse(node.value) == "cum"} == {"_arc_table"}
    assert callers(source, ("cum.take",)) == ["_simulate_block"]


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
    blas = ("import numpy as np\n"
            "def f(a, b):\n"
            "    return a @ b, np.dot(a, b), a.dot(b), np.matmul(a, b), np.linalg.norm(a), numpy.linalg.eigh(a)\n")
    assert blas_uses(module_functions(blas)["f"]) == [
        "a @ b", "np.dot(a, b)", "a.dot(b)", "np.matmul(a, b)", "np.linalg", "numpy.linalg"]
