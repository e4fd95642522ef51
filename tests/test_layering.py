"""The package's import layering, read from its source with ast.

No module imports inside a function, and the relative imports between the
package's modules form no cycle, counting imports at any depth: a module
that has to defer an import to dodge a cycle has a decision in the wrong
home.  Only blas reads how many CPUs the process has, and no module pins one.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toeplitz_lab"


def parse_package() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def function_imports(name: str, tree: ast.Module) -> set:
    """'module.py:line in function' for every import inside a function body."""
    return {f"{name}.py:{node.lineno} in {fn.name}"
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}


def imported_modules(tree: ast.Module, modules) -> set:
    """The package modules a module imports relatively, top-level or in a function."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                found.add(node.module.split(".")[0])
            else:  # from . import name: a module of the package, or a name of __init__
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


def cycles(graph: dict) -> list:
    """Every cycle a depth-first search over graph closes, as a path of module names."""
    found, path, done = [], [], set()

    def visit(module):
        if module in path:
            found.append(path[path.index(module):] + [module])
        elif module not in done:
            path.append(module)
            for other in sorted(graph.get(module, ())):
                visit(other)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)
    return found


def test_no_function_level_import_and_no_import_cycle():
    trees = parse_package()
    inner = sorted(set().union(*(function_imports(name, tree) for name, tree in trees.items())))
    graph = {name: imported_modules(tree, trees) - {name} for name, tree in trees.items()}
    found = cycles(graph)
    assert (inner, found) == ([], []), f"imports in functions: {inner}; cycles: {found}"


def test_only_blas_reads_the_cpus_and_nothing_pins_a_process():
    # one home for the CPU count (blas.cpu_count), and no process narrows its
    # own or a worker's affinity mask
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = [name for name, text in sources.items()
               if "os.sched_getaffinity" in text or "os.cpu_count" in text]
    pinners = [name for name, text in sources.items()
               if "sched_setaffinity" in text or "SimpleQueue" in text]
    assert (readers, pinners) == (["blas.py"], [])
