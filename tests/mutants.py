"""Mutation runner: does a module's test set fail when one comparison or constant changes?

Each mutant changes one site of one module under `src/`:

- negate a comparison: `<` becomes `>=`, `==` becomes `!=`, `in` becomes
  `not in`, and so on;
- move a comparison's boundary: `<` becomes `<=` and `<=` becomes `<`,
  likewise for `>` and `>=`;
- add 1 to, or subtract 1 from, one integer constant.

The runner copies `src/`, `tests/`, `perfbench/` and `pyproject.toml` to a
temporary directory, never touching the tree.  It runs the given tests
there once unchanged, which must pass, and then once per mutant with the
module rewritten by `ast.unparse`:

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 TESTS

A mutant whose run fails is killed; one whose run passes survives; one
that runs longer than three times the unchanged run plus 10 s is stopped
and reported as timed out.
`tests/mutants_allowed.json` lists the surviving mutants known to be
equivalent, by module and mutant name, with a reason each; they are
reported as allowed.  From the repository root:

    python tests/mutants.py src/polytopenums/exact.py tests/test_exact.py tests/test_rectified.py

The exit code is 1 if any mutant survives unallowed or times out, or if an
allowed name matches no mutant; otherwise 0.  It is not part of tier-1: a
run takes minutes.
"""
import argparse
import ast
import collections
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALLOWED = os.path.join(HERE, "mutants_allowed.json")
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

NEGATED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
           ast.In: ast.NotIn, ast.NotIn: ast.In}
BOUNDARY = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def _sites(tree):
    """(enclosing function, node, shown node, change) for each mutant, in source order.

    The shown node names the mutant: a comparison itself, or the
    expression that holds a constant."""
    def walk(node, parent, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                for table in (NEGATED, BOUNDARY):
                    if type(op) in table:
                        yield scope, node, node, ("ops", i, table[type(op)])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, int)
              and not isinstance(node.value, bool)):
            shown = parent if isinstance(parent, ast.expr) else node
            for step in (1, -1):
                yield scope, node, shown, ("value", None, node.value + step)
        for child in ast.iter_child_nodes(node):
            yield from walk(child, node, scope)
    yield from walk(tree, None, "")


def _apply(node, change):
    """Apply change to node in place; return a function that undoes it."""
    field, index, new = change
    if field == "ops":
        old = node.ops[index]
        node.ops[index] = new()
        return lambda: node.ops.__setitem__(index, old)
    old = node.value
    node.value = new
    return lambda: setattr(node, "value", old)


def mutants(source):
    """(name, mutated source) for every mutant of a module's source, in source order.

    A name is `function: before -> after`, the changed comparison or the
    expression holding the changed constant unparsed, with ` #k` appended
    for the k-th repeat (k >= 2) of the same name, so names survive edits
    elsewhere in the module."""
    tree = ast.parse(source)
    seen = collections.Counter()
    for scope, node, shown, change in list(_sites(tree)):
        before = ast.unparse(shown)
        undo = _apply(node, change)
        try:
            name = f"{scope or '<module>'}: {before} -> {ast.unparse(shown)}"
            text = ast.unparse(tree)
        finally:
            undo()
        seen[name] += 1
        yield name + (f" #{seen[name]}" if seen[name] > 1 else ""), text


def _run(copy, tests, timeout):
    """'passed', 'failed' or 'timed out': the tests run in copy with -x."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("module", help="a module under src/, relative to the repository root")
    parser.add_argument("tests", nargs="+", help="test files or node ids, from the root")
    args = parser.parse_args(argv)
    module = os.path.relpath(os.path.abspath(args.module), ROOT)
    if not module.startswith("src" + os.sep) or not os.path.isfile(os.path.join(ROOT, module)):
        parser.error(f"not a file under src/: {args.module}")
    with open(ALLOWED) as fh:
        allowed = json.load(fh).get(module.replace(os.sep, "/"), {})
    with open(os.path.join(ROOT, module)) as fh:
        source = fh.read()
    with tempfile.TemporaryDirectory() as scratch:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
        for name in COPIED:
            path = os.path.join(ROOT, name)
            if os.path.isdir(path):
                shutil.copytree(path, os.path.join(scratch, name), ignore=ignore)
            elif os.path.exists(path):
                shutil.copy(path, scratch)
        # The unchanged run reads the module as unparsed, as every mutant is.
        target = os.path.join(scratch, module)
        with open(target, "w") as fh:
            fh.write(ast.unparse(ast.parse(source)))
        start = time.perf_counter()
        if _run(scratch, args.tests, None) != "passed":
            print("the unchanged module fails its tests; no mutant was run")
            return 2
        timeout = 3 * (time.perf_counter() - start) + 10
        outcomes = collections.Counter()
        names = set()
        for name, text in mutants(source):
            names.add(name)
            with open(target, "w") as fh:
                fh.write(text)
            result = {"failed": "killed", "passed": "survived",
                      "timed out": "timed out"}[_run(scratch, args.tests, timeout)]
            if result == "survived" and name in allowed:
                result = "allowed"
            outcomes[result] += 1
            print(f"{result:9}  {name}" + (f"  ({allowed[name]})" if result == "allowed"
                                            else ""), flush=True)
    stale = sorted(set(allowed) - names)
    for name in stale:
        print(f"stale allow-list entry, no such mutant: {name}")
    print(", ".join(f"{outcomes[kind]} {kind}"
                    for kind in ("killed", "survived", "timed out", "allowed")))
    return 1 if outcomes["survived"] or outcomes["timed out"] or stale else 0


if __name__ == "__main__":
    sys.exit(main())
