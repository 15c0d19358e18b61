"""Seeded argv groups whose full CLI output is pinned by one sha256 each.

Each group is a list of argvs built here as code.  Running a group through
`cli.main` in-process and hashing every argv's exit code, stdout and stderr,
in order, gives the group's digest; `tests/output_pins.json` holds the
committed digests and `tests/test_output_pins.py` recomputes them.

- decompose-lambda: every `decompose --lambda` case with d <= 32 in every
  format, r from 0 to d+1, so the usage errors at d = 0 and r >= d are in.
- decompose-shift: a grid and a seeded sample of `decompose --shift` over
  d <= 8, small and large a and b, every format, plus the usage errors of
  a missing or mixed mode and of missing or stray parameters.
- seq-alpha, seq-beta, seq-gamma, seq-lambda, seq-oracle: one group per
  `seq` family, every d and r of a small grid (for lambda and oracle r runs
  to d+1, so the formal family's negative interiors are in) under every
  --route, with and without --interior, in every format, over a seeded run
  of n within 0..60; the combinations `seq` refuses are its usage errors.
- seq-long: tables of about 3000 rows with d up to 20, so columns widen
  row by row, in every format.
- verify: `verify --suite all`, each suite alone, and bounded runs at the
  edges of each bound: `--d-max 1`, `--n-max 1`, `--n-max 41` (which cuts
  only the octahedral bridge) and `--a-max 1 --b-max 0`.
- usage: one argv for each usage rule of `seq`, `decompose` and `verify`.

A change that moves output on purpose updates only the groups it moves.
Print the current digests with

    PYTHONPATH=src python tests/output_pins.py

and, for a group whose digest moved, the first argv whose exit code, stdout
or stderr differs between a git revision and the working tree with

    PYTHONPATH=src python tests/output_pins.py --diff REV GROUP

which checks REV out into a temporary `git worktree`, runs the group there
and in the tree, each in a fresh interpreter, and removes the worktree.
"""
import argparse
import contextlib
import difflib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile

from polytopenums import cli

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "output_pins.json")
SEED = 2015
DECOMPOSE_FORMATS = ("table", "csv", "json")


def _decompose_lambda():
    return [["decompose", "--lambda", "-d", str(d), "-r", str(r), "--format", fmt]
            for d in range(33) for r in range(d + 2) for fmt in DECOMPOSE_FORMATS]


def _decompose_shift():
    rng = random.Random(SEED)
    argvs = [["decompose", "--shift", "-d", str(d), "-a", str(a), "-b", str(b), "--format", fmt]
             for d in range(1, 9) for a in (1, 2, 3) for b in (0, d, d + 1)
             for fmt in DECOMPOSE_FORMATS]
    for _ in range(300):
        d = rng.randint(0, 8)
        a = rng.choice((rng.randint(0, 12), rng.randint(13, 300)))
        b = rng.choice((rng.randint(-1, 40), rng.randint(41, 200)))
        argvs.append(["decompose", "--shift", "-d", str(d), "-a", str(a), "-b", str(b),
                      "--format", rng.choice(DECOMPOSE_FORMATS)])
    argvs += [["decompose", "--shift", "-d", "3", "-a", "2"],
              ["decompose", "--shift", "-d", "3", "-b", "1"],
              ["decompose", "--shift", "-d", "3", "-a", "2", "-b", "1", "-r", "1"],
              ["decompose", "--lambda", "-d", "3", "-r", "1", "-a", "2"],
              ["decompose", "--lambda", "-d", "3"],
              ["decompose", "-d", "3", "-r", "1"]]
    return argvs


SEQ_FORMATS = ("table", "csv", "json", "bfile")
SEQ_ROUTES = (None, "formula", "oracle", "both")
# Each family's (d, r) grid: d = 0 is refused where the family needs d >= 1,
# and r >= d is refused on the recursive routes.
SEQ_POINTS = {
    "alpha": [(d, None) for d in range(7)],
    "beta": [(d, None) for d in range(6)],
    "gamma": [(d, None) for d in range(6)],
    "lambda": [(d, r) for d in range(7) for r in range(d + 2)],
    "oracle": [(d, r) for d in range(6) for r in (None, *range(d + 2))],
}


def seq_argv(family, d, r, n_from, n_to, route=None, fmt="table", interior=False):
    argv = ["seq", "--family", family, "-d", str(d), "--from", str(n_from), "--to", str(n_to),
            "--format", fmt]
    argv += ["-r", str(r)] if r is not None else []
    argv += ["--route", route] if route is not None else []
    return argv + (["--interior"] if interior else [])


def _seq_family(family):
    rng = random.Random(f"{SEED} {family}")
    argvs = []
    for d, r in SEQ_POINTS[family]:
        for route in SEQ_ROUTES:
            for interior in (False, True):
                for fmt in SEQ_FORMATS:
                    n_from = rng.choice((0, 1, rng.randint(0, 60)))
                    argvs.append(seq_argv(family, d, r, n_from, rng.randint(n_from, 60),
                                           route, fmt, interior))
    return argvs


def _seq_long():
    argvs = [seq_argv("alpha", 20, None, 1, 3000, interior=True),
             seq_argv("beta", 12, None, 0, 3000),
             seq_argv("gamma", 20, None, 2900, 3000, "both"),
             seq_argv("lambda", 20, 7, 1, 3000, interior=True),
             seq_argv("lambda", 9, 12, 0, 3000, interior=True),  # negative interiors
             seq_argv("lambda", 8, 3, 1, 3000, "both", interior=True),
             seq_argv("oracle", 8, 3, 0, 3000)]
    argvs += [seq_argv("lambda", 12, 6, 1, 3000, fmt=fmt) for fmt in SEQ_FORMATS]
    argvs += [seq_argv("alpha", 15, None, 1, 3000, "both", fmt, True)
              for fmt in ("csv", "json")]
    return argvs


def _verify():
    edges = [["--d-max", "1"], ["--n-max", "1"], ["--n-max", "41"]]
    argvs = [["verify", "--suite", suite] for suite in ("all", "identities", "oracle",
                                                        "decompositions")]
    argvs += [["verify", "--suite", "oracle", *bound] for bound in edges]
    argvs += [["verify", "--suite", "decompositions", *bound]
              for bound in (*edges, ["--a-max", "1", "--b-max", "0"])]
    return argvs + [["verify", "--d-max", "1", "--n-max", "1", "--a-max", "1", "--b-max", "0"]]


def _usage():
    seq = ["seq", "--family"]
    return [
        # `seq`: each rule of _validate_seq, then argparse's own.
        seq + ["oracle", "-d", "3", "--to", "5", "--route", "formula"],
        seq + ["lambda", "-d", "3", "--to", "5"],
        seq + ["gamma", "-d", "2", "-r", "1", "--to", "5"],
        seq + ["lambda", "-d", "3", "-r", "-1", "--to", "5"],
        seq + ["oracle", "-d", "-1", "--to", "5"],
        seq + ["lambda", "-d", "0", "-r", "0", "--to", "5"],
        seq + ["oracle", "-d", "3", "-r", "3", "--to", "5"],
        seq + ["alpha", "-d", "2", "--from", "-1", "--to", "5"],
        seq + ["alpha", "-d", "2", "--from", "6", "--to", "5"],
        seq + ["alpha", "-d", "2", "--to", "5", "--interior", "--format", "bfile"],
        seq + ["beta", "-d", "2", "--to", "5", "--interior", "--route", "both"],
        seq + ["nope", "-d", "2", "--to", "5"],
        seq + ["alpha", "-d", "2"],
        seq + ["alpha", "-d", "x", "--to", "5"],
        # `decompose`: each rule of _cmd_decompose, then argparse's own.
        ["decompose", "--lambda", "-d", "0", "-r", "0"],
        ["decompose", "--lambda", "-d", "3"],
        ["decompose", "--lambda", "-d", "3", "-r", "1", "-b", "0"],
        ["decompose", "--lambda", "-d", "3", "-r", "3"],
        ["decompose", "--shift", "-d", "3", "-b", "1"],
        ["decompose", "--shift", "-d", "3", "-a", "2", "-b", "1", "-r", "0"],
        ["decompose", "--shift", "-d", "3", "-a", "0", "-b", "1"],
        ["decompose", "--shift", "-d", "3", "-a", "2", "-b", "-1"],
        ["decompose", "--lambda", "--shift", "-d", "3", "-r", "1"],
        ["decompose", "-d", "3", "-r", "1"],
        # `verify`: each rule of _cmd_verify, then argparse's own.
        ["verify", "--d-max", "-1"],
        ["verify", "--suite", "oracle", "--a-max", "2"],
        ["verify", "--suite", "decompositions", "--a-max", "0"],
        ["verify", "--suite", "oracle", "--n-max", "0"],
        ["verify", "--suite", "identities", "--grid", "no-such-grid.cfg"],
        ["verify", "--suite", "decompositions", "--d-max", "0"],
        ["verify", "--suite", "nope"],
        # no command at all
        [],
    ]


GROUPS = {"decompose-lambda": _decompose_lambda, "decompose-shift": _decompose_shift,
          **{f"seq-{family}": functools.partial(_seq_family, family) for family in SEQ_POINTS},
          "seq-long": _seq_long, "verify": _verify, "usage": _usage}


def run(argv):
    """(exit code, stdout, stderr) of one in-process `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(group):
    """sha256 over every argv of the group with its exit code, stdout and stderr."""
    sha = hashlib.sha256()
    for argv in GROUPS[group]():
        sha.update((json.dumps([argv, *run(argv)]) + "\n").encode())
    return sha.hexdigest()


def _outputs(src, group):
    """run() of each argv of the group, in a fresh interpreter importing the package from src."""
    code = ("import json, sys, output_pins as pins; "
            "json.dump([pins.run(argv) for argv in pins.GROUPS[sys.argv[1]]()], sys.stdout)")
    done = subprocess.run([sys.executable, "-c", code, group], cwd=HERE, check=True,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    return json.loads(done.stdout)


def diff(rev, group):
    """Print the first argv of the group whose output at rev differs from the tree's; 0 if none."""
    root = os.path.dirname(HERE)
    with tempfile.TemporaryDirectory() as scratch:
        checkout = os.path.join(scratch, "rev")
        if subprocess.run(["git", "-C", root, "worktree", "add", "--detach", "--quiet",
                           checkout, rev]).returncode:
            return 2
        try:
            before = _outputs(os.path.join(checkout, "src"), group)
        finally:
            subprocess.run(["git", "-C", root, "worktree", "remove", "--force", checkout],
                           check=True)
    after = _outputs(os.path.join(root, "src"), group)
    for argv, old, new in zip(GROUPS[group](), before, after):
        if old != new:
            print("differs:", " ".join(argv))
            for part, old_part, new_part in zip(("exit code", "stdout", "stderr"), old, new):
                if old_part != new_part:
                    lines = difflib.unified_diff(str(old_part).splitlines(),
                                                 str(new_part).splitlines(), f"{part} at {rev}",
                                                 f"{part} in the tree", lineterm="")
                    print(*itertools.islice(lines, 40), sep="\n")
            return 1
    print(f"{group}: no difference from {rev} in {len(after)} argvs")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the pinned groups' digests.")
    parser.add_argument("--diff", nargs=2, metavar=("REV", "GROUP"),
                        help="print the first argv of GROUP whose output differs at REV")
    args = parser.parse_args()
    if args.diff is None:
        print(json.dumps({group: digest(group) for group in GROUPS}, indent=2))
    elif args.diff[1] not in GROUPS:
        parser.error(f"unknown group {args.diff[1]!r}; choose from {', '.join(GROUPS)}")
    else:
        sys.exit(diff(*args.diff))
