"""Seeded op generators for the four benchmark workloads.

An op is a plain dict: ``argv`` is what goes to ``polytopenums.cli.main``;
the other keys restate the parameters so the checks never re-parse argv.
Every generator is a pure function of its seed.  Each op has a fixed
stratum (family, dimension, format, size class); the seed moves indices and
minor parameters inside narrow bands and picks the order.  Two seeds
therefore give different ops from the same distribution while the work of a
pass, and where in it the costly ops sit, stays nearly the same, which keeps
figures comparable across seeds.
"""
from __future__ import annotations

import random

WORKLOADS = ("verify-all", "seq-formula", "seq-oracle", "decompose-large")

# Per-suite check counts printed by `verify --suite all` on the default grids.
VERIFY_CHECKS = {"identities": 3872, "oracle": 5509, "decompositions": 6970}

# Fresh-interpreter probes of the cold oracle recursion; run only in traced
# runs, each on a descriptor nothing earlier in its interpreter has filled.
COLD_PROBES = (
    ["seq", "--family", "lambda", "-d", "3", "-r", "1", "--from", "1500", "--to", "1501",
     "--route", "both"],
    ["seq", "--family", "oracle", "-d", "3", "--from", "5000", "--to", "5000"],
    ["seq", "--family", "oracle", "-d", "5", "-r", "2", "--from", "5000", "--to", "5000"],
)

SEQ_FORMATS = ("table", "csv", "json", "bfile")
DECOMPOSE_FORMATS = ("table", "csv", "json")


def _jitter(rng: random.Random, centre: int, spread: int, lo: int = 1) -> int:
    return max(lo, centre + rng.randint(-spread, spread))


def _seq_op(family, d, r, n_from, n_to, route, fmt, interior) -> dict:
    argv = ["seq", "--family", family, "-d", str(d)]
    if r is not None:
        argv += ["-r", str(r)]
    argv += ["--from", str(n_from), "--to", str(n_to)]
    if route is not None:
        argv += ["--route", route]
    argv += ["--format", fmt]
    if interior:
        argv.append("--interior")
    if route is None:
        route = "oracle" if family == "oracle" else "formula"
    return {"kind": "seq", "argv": argv, "family": family, "d": d, "r": r,
            "from": n_from, "to": n_to, "route": route, "format": fmt, "interior": interior}


def _seq_formula(rng: random.Random) -> list[dict]:
    """22 closed-form tables: every family x format, with and without interiors.

    One b-file per family runs to n = 18000; the other tables run to n = 3000.
    Each slot has a fixed dimension (up to 20) and lambda level, because
    dealing them out at random moved the cost of a pass by over 10%; the seed
    picks each table's first index in 1..40, moves its end by up to 100 and
    shuffles the order.  Values run far past 64 bits.
    """
    slots = {
        "alpha": [("bfile", False, 12), ("table", False, 18), ("table", True, 6),
                  ("csv", False, 3), ("csv", True, 20), ("json", False, 9), ("json", True, 15)],
        "beta": [("bfile", False, 10), ("table", False, 4), ("csv", False, 16),
                 ("json", False, 8)],
        "gamma": [("bfile", False, 9), ("table", False, 14), ("csv", False, 7),
                  ("json", False, 4)],
        "lambda": [("bfile", False, 12), ("table", False, 20), ("table", True, 7),
                   ("csv", False, 4), ("csv", True, 16), ("json", False, 10),
                   ("json", True, 18)],
    }
    ops = []
    for family, family_slots in slots.items():
        for fmt, interior, d in family_slots:
            r = d // 2 if family == "lambda" else None
            n_to = _jitter(rng, 18000 if fmt == "bfile" else 3000, 100)
            ops.append(_seq_op(family, d, r, rng.randint(1, 40), n_to, None, fmt, interior))
    rng.shuffle(ops)
    return ops


def _seq_oracle(rng: random.Random) -> list[dict]:
    """Deep oracle tables: 9 descriptors, each opened cold and extended twice.

    Simplices and hypersimplices go through `--route both --interior` or the
    oracle family, cross-polytopes and hypercubes through `--route oracle
    --interior`.  All 9 descriptors are opened in a fixed order, then all
    are extended, then extended again.  A descriptor shares faces with the
    others, so the order decides which op pays for filling them; a seeded
    order moved the tail latency by over 20%.  The seed names each
    hypersimplex by r or by its mirror d-1-r, which is the same descriptor,
    and moves the indices.  A first op starts at n <= 100 and each extension
    starts up to 200 below the deepest n already filled, so the recursion
    never runs deeper than the seed oracle can take; each op adds about 1000
    rows and the last table of a descriptor ends near n = 3000.
    """
    strata = [("alpha", 4, None, "both"), ("beta", 3, None, "oracle"),
              ("gamma", 3, None, "oracle"), ("oracle", 5, 1, None), ("alpha", 7, None, "oracle"),
              ("beta", 5, None, "oracle"), ("gamma", 5, None, "oracle"), ("lambda", 6, 2, "both"),
              ("lambda", 7, 2, "both")]
    tops = [0] * len(strata)
    ops = []
    for step in range(3):
        for k, (family, d, r, route) in enumerate(strata):
            if r is not None and rng.random() < 0.5:
                r = d - 1 - r
            if route == "oracle" and family == "alpha":
                family, route = "oracle", None
            n_from = rng.randint(1, 100) if step == 0 else tops[k] - rng.randint(0, 200)
            n_to = (n_from if step == 0 else tops[k]) + rng.randint(900, 1100)
            fmt = SEQ_FORMATS[(k + step) % 3]
            ops.append(_seq_op(family, d, r, n_from, n_to, route, fmt, family != "oracle"))
            tops[k] = n_to
    return ops


def _decompose_op(mode, d, fmt, r=None, a=None, b=None) -> dict:
    argv = ["decompose", "--lambda" if mode == "lambda" else "--shift", "-d", str(d)]
    argv += ["-r", str(r)] if mode == "lambda" else ["-a", str(a), "-b", str(b)]
    argv += ["--format", fmt]
    return {"kind": "decompose", "argv": argv, "mode": mode, "d": d, "r": r, "a": a,
            "b": b, "format": fmt}


def _decompose_large(rng: random.Random) -> list[dict]:
    """26 `--lambda` ops and 6 `--shift` ops with a up to 300, b up to 200.

    The lambda ops take 2 levels r for each dimension from 20 to 32: a low
    level near d/3 and the top level 2d/3, so generalized-binomial rows are
    shared.  Dimensions and top levels are fixed, because the cost of a
    dimension grows like d**2 * r_max**3, and one dimension per step keeps
    op costs spread evenly instead of in clusters that a percentile rank
    could fall between.  The order is fixed too: dimensions ascend, each low
    level before its top level, with a shift op after every second
    dimension.  With a seeded order, the rows each op paid for and the
    garbage collections it met moved the tail latency by over 10%.  The seed
    moves the low levels by up to 1 and the shift parameters a and b by up
    to 5.
    """
    shifts = [(6, 300, 200), (10, 200, 100), (14, 120, 150), (18, 60, 40), (20, 150, 0),
              (8, 250, 50)]
    ops = []
    for k, d in enumerate(range(20, 33)):
        for i, r in enumerate((_jitter(rng, d // 3, 1), 2 * d // 3)):
            ops.append(_decompose_op("lambda", d, DECOMPOSE_FORMATS[(k + i) % 3], r=r))
        if k % 2 and shifts:
            d, a, b = shifts.pop(0)
            ops.append(_decompose_op("shift", d, DECOMPOSE_FORMATS[k % 3],
                                     a=_jitter(rng, a, 5), b=_jitter(rng, b, 5, lo=0)))
    return ops


def _verify_all(rng: random.Random) -> list[dict]:
    """The one fixed op; the seed cannot vary it."""
    return [{"kind": "verify", "argv": ["verify", "--suite", "all"]}]


_GENERATORS = {
    "verify-all": _verify_all,
    "seq-formula": _seq_formula,
    "seq-oracle": _seq_oracle,
    "decompose-large": _decompose_large,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of one pass of ``workload`` for ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
