"""The public surface, the demos and the README examples."""
import doctest
import importlib
import os
import re
import subprocess
import sys

import pytest

import polytopenums
from polytopenums import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))

PUBLIC = [
    "CrossPolytope", "FaceCensus", "FaceEntry", "Hypercube", "Hypersimplex",
    "IdentityCheck", "POINT", "Point", "PolytopeDescriptor", "Simplex", "binomial",
    "check_alt_vandermonde", "check_face_interior_sum", "check_interior_sum",
    "check_pascal_alternating_row", "check_subset_convolution", "check_vertex_star_sum",
    "cross_polytope", "cross_polytope_number", "cross_polytope_table", "default_grid",
    "eulerian", "faces_of", "facet_cut", "gbinomial", "hypercube", "hypercube_number",
    "hypercube_table", "hypersimplex", "interior_number", "load_grid", "oracle_table",
    "parse_grid", "polytope_number", "recombine", "recombine_table",
    "rectified_decomposition", "rectified_decomposition_gbinom",
    "rectified_simplex_descriptor", "rectified_simplex_interior",
    "rectified_simplex_interior_table", "rectified_simplex_number",
    "rectified_simplex_table", "shift_decomposition", "shift_decomposition_gbinom", "simplex",
    "simplex_interior", "simplex_interior_table", "simplex_number", "simplex_table",
]


def test_public_names_are_the_audited_list():
    assert sorted(polytopenums.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(polytopenums, name), name


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_benchmark_unit_tests_run_on_this_package():
    # The benchmark's output checks import closed forms and oracle reads from
    # the package; its tracing test stays out until the trace table is rebound.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-m", "unittest", "tests.test_workloads",
                           "tests.test_stats", "tests.test_checks"],
                          cwd=os.path.join(ROOT, "perfbench"), capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_loads_neither_dataclasses_nor_inspect():
    # Both cost milliseconds on every start; -S keeps site's imports out.
    code = ("import polytopenums.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_only_a_grid_file_loads_a_parser(tmp_path):
    # The default identity grid lives in code: only `verify --grid FILE`
    # reads text that needs configparser, and nothing reads package data.
    grid = tmp_path / "grid.cfg"
    grid.write_text("[pascal-alternating-row]\nr = 0..5\n", encoding="utf-8")
    code = ("import polytopenums.cli, sys; "
            "loaded = lambda: sorted({'configparser', 'importlib.resources'} & set(sys.modules)); "
            "print(loaded(), file=sys.stderr); polytopenums.cli.main(sys.argv[1:]); "
            "print(loaded(), file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    verify = ["verify", "--suite", "identities"]
    for argv, after in [(verify, "[]"), (verify + ["--grid", str(grid)], "['configparser']")]:
        done = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (0, f"[]\n{after}\n"), argv
        assert done.stdout.endswith("verify: PASS\n"), argv


def test_console_script_calls_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["polytopenums"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def test_readme_examples():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        blocks = re.findall(r"```python\n(.*?)```", handle.read(), re.DOTALL)
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README", "README.md", 0)
    result = doctest.DocTestRunner().run(test)
    assert (result.attempted, result.failed) == (6, 0)
