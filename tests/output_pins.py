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

A change that moves output on purpose updates only the groups it moves.
Print the current digests with

    PYTHONPATH=src python tests/output_pins.py
"""
import contextlib
import hashlib
import io
import json
import os
import random

from polytopenums import cli

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output_pins.json")
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


GROUPS = {"decompose-lambda": _decompose_lambda, "decompose-shift": _decompose_shift}


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


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage line to the terminal
    print(json.dumps({group: digest(group) for group in GROUPS}, indent=2))
