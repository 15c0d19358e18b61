"""Benchmark runner for polytopenums.

    python3 perfbench/run.py --workload seq-oracle --seed 1 --seconds 25 --trace 0

Run from anywhere; the checkout is the directory above this file, and the
package is imported from its ``src``.  A closed loop with one client: each
pass is a fresh interpreter (perfbench/child.py) that runs the workload's
seeded op list once through ``polytopenums.cli.main``, one op after the
other.  Passes repeat until --seconds have gone by, not counting the time
spent checking outputs, and at least MIN_PASSES times.  The first
pass also re-runs every op after timing and checks its output; later passes
must print byte-identical output.

--trace 1 runs one untraced and one traced pass, checks that both give the
same outcomes and output digests, and reports per-layer metrics from the
traced pass's spans, plus the cold-oracle probes and each verify suite run
alone.  `--workload all` runs every workload in turn.

Human-readable lines come first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  A fuller record (Python
version, git SHA, nproc, seed, tracing, per-pass figures) is written to
perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 5
# Import-only interpreters started before each pass, so setup_s is a median
# over many more starts than there are passes.
SETUP_PROBES_PER_PASS = 2
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def git_sha(root: str) -> str | None:
    """HEAD commit read from .git without running git; None outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "polytopenums")
    for name in sorted(os.listdir(package)):
        if name.endswith((".py", ".cfg")):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def run_child(ops: list[dict], trace: bool = False, check: bool = False,
              spans_path: str | None = None) -> dict:
    """One pass in a fresh interpreter; adds setup_s to its report."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    job = json.dumps({"ops": ops, "trace": trace, "check": check, "src": SRC,
                      "spans_path": spans_path})
    started = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, os.path.join(HERE, "child.py")], input=job,
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        tail = done.stderr.strip().splitlines()[-3:]
        raise BenchError(f"pass exited with code {done.returncode}: {' | '.join(tail)}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["imported_at"] - started
    return report


def op_failure(result: dict) -> str | None:
    if result["error"]:
        return result["error"]
    if result["code"] != 0:
        return f"exit code {result['code']}"
    return result.get("check")


def timed_run(ops: list[dict], seconds: float) -> dict:
    passes, setups, checking = [], [], 0.0
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds + checking:
        cycle_setups = [run_child([])["setup_s"] for _ in range(SETUP_PROBES_PER_PASS)]
        report = run_child(ops, check=not passes)
        checking = report.get("check_s", checking)
        report["scale"] = speed.REFERENCE_S / statistics.median(r["ref_s"] for r in report["ops"])
        setups += [(x, report["scale"]) for x in cycle_setups + [report["setup_s"]]]
        passes.append(report)

    reference_digests = [r["digest"] for r in passes[0]["ops"]]
    failures = []
    for number, report in enumerate(passes):
        for op, result, digest in zip(ops, report["ops"], reference_digests):
            problem = op_failure(result)
            if problem is None and result["digest"] != digest:
                problem = "output differs from the first pass"
            if problem is not None:
                failures.append({"pass": number, "argv": op["argv"], "problem": problem})

    def figures(scaled: bool) -> dict:
        def seconds(result):
            return result["s"] * speed.REFERENCE_S / result["ref_s"] if scaled else result["s"]

        op_ms = [seconds(r) * 1000 for report in passes for r in report["ops"]]
        # A pass's time is summed from each op's median over passes, which a
        # burst of interference moves less than the median of whole passes.
        wall = sum(statistics.median(seconds(report["ops"][i]) for report in passes)
                   for i in range(len(ops)))
        return {
            "setup_s": (statistics.median(x * (k if scaled else 1.0) for x, k in setups), "s"),
            "wall_s": (wall, "s"),
            "work_per_s": (sum(r["units"] for r in passes[0]["ops"]) / wall, "1/s"),
            "op_p50_ms": (stats.percentile(op_ms, 500), "ms"),
            "op_tail_ms": (stats.percentile(op_ms, tail), "ms"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
        }

    tail = stats.tail_percentile(MIN_PASSES * len(ops))
    metrics = figures(scaled=True)
    attempted = len(passes) * len(ops)
    return {
        "metrics": metrics, "attempted": attempted, "failed": len(failures),
        "failures": failures,
        "notes": {"passes": len(passes), "ops_per_pass": len(ops), "tail_percentile": tail / 10,
                  "failed_ratio": len(failures) / attempted,
                  "median_scale": statistics.median(r["scale"] for r in passes),
                  "unscaled": {k: v for k, (v, _) in figures(scaled=False).items()}},
        "setups_s": setups,
        "per_pass": [{"setup_s": r["setup_s"], "peak_rss_mb": r["peak_rss_mb"],
                      "scale": r["scale"], "op_s": [o["s"] for o in r["ops"]]} for r in passes],
    }


def _layer_metrics(layers: dict) -> dict:
    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def ratio(name):
        calls = get(name, "calls")
        return get(name, "distinct") / calls if calls else 0.0

    out = {}
    for name in ("rectified.shift_decomposition", "exact.gbinomial", "oracle.faces_of"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.distinct_ratio"] = (ratio(name), "ratio")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    out["rectified.eval_shift_identity.calls"] = (get("rectified.eval_shift_identity", "calls"),
                                                  "count")
    for name in ("exact.poly_mul", "regular", "rectified.closed_form", "exact.binomial"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in ("rectified.shift_decomposition_gf", "rectified.decomposition", "cli",
                 "identities.run_suite"):
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in ("oracle.polytope_number", "oracle.interior_number"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
    out["oracle.eval.self_s"] = (get("oracle.polytope_number", "self_s")
                                 + get("oracle.interior_number", "self_s"), "s")
    out["identities.checks"] = (get("identities.run_suite", "tally"), "count")
    return out


def traced_run(workload: str, ops: list[dict]) -> dict:
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{workload}.spans")
    plain = run_child(ops)
    traced = run_child(ops, trace=True, spans_path=spans_path)

    failures = []
    for op, a, b in zip(ops, plain["ops"], traced["ops"]):
        for label, result in (("untraced", a), ("traced", b)):
            problem = op_failure(result)
            if problem is not None:
                failures.append({"pass": label, "argv": op["argv"], "problem": problem})
        if (a["code"], a["error"], a["digest"]) != (b["code"], b["error"], b["digest"]):
            failures.append({"pass": "traced", "argv": op["argv"],
                             "problem": "traced outcome or output differs from untraced"})

    probe_ops = [{"kind": "probe", "argv": argv} for argv in workloads.COLD_PROBES]
    probes = run_child(probe_ops)
    probe_failures = [{"argv": op["argv"], "problem": op_failure(result)}
                      for op, result in zip(probe_ops, probes["ops"]) if op_failure(result)]

    metrics = _layer_metrics(traced["layers"])
    metrics["oracle.cold_probe_s"] = (sum(r["s"] for r in probes["ops"]), "s")
    metrics["oracle.cold_probe_failed"] = (len(probe_failures), "count")
    metrics["cli.output_bytes"] = (sum(r["bytes"] for r in traced["ops"]), "bytes")
    for suite in ("identities", "oracle", "decompositions"):
        report = run_child([{"kind": "verify", "argv": ["verify", "--suite", suite]}])
        metrics[f"verify.{suite}_s"] = (report["ops"][0]["s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    metrics["trace.missing_boundaries"] = (len(traced["missing"]), "count")
    top = {group: {name: round(value, 4) for name, value in
                   sorted(layers.items(), key=lambda item: -item[1])[:3]}
           for group, layers in traced["by_group"].items()}
    return {
        "metrics": metrics, "attempted": 2 * len(ops), "failed": len(failures),
        "failures": failures,
        "notes": {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
                  "spans": traced["spans"],
                  "spans_file": os.path.relpath(spans_path, ROOT),
                  "missing_boundaries": traced["missing"], "cold_probe_failures": probe_failures,
                  "top_self_s_by_op_group": top},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.generate(workload, seed)
    result = traced_run(workload, ops) if trace else timed_run(ops, seconds)
    result["meta"] = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
                      "python": platform.python_version(), "git_sha": git_sha(ROOT),
                      "source_sha256": source_digest(), "nproc": len(os.sched_getaffinity(0))}
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(record, "w") as handle:
        json.dump(result, handle, indent=1, default=str)
    return result


def print_human(result: dict) -> None:
    print("# " + json.dumps(result["meta"]))
    print("# " + json.dumps(result["notes"]))
    for name, (value, unit) in result["metrics"].items():
        print(f"{result['meta']['workload']:16} {name:40} {value:>16.6g} {unit}")
    for failure in result["failures"][:10]:
        print("FAILED", json.dumps(failure))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polytopenums", "__init__.py")):
        print(f"no polytopenums source under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print_human(results[-1])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    single = len(results) == 1
    metrics = {(key if single else f"{r['meta']['workload']}.{key}"): {"value": value,
                                                                      "unit": unit}
               for r in results for key, (value, unit) in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
