"""One benchmark pass in a fresh interpreter.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  It imports the
package first, so the parent can time set-up up to that point, then reads its
job as JSON from stdin: the ops, whether to trace, whether to check outputs,
and where to write spans.  Each op goes through ``polytopenums.cli.main`` with
stdout and stderr captured in memory.  Memo tables start cold in this
interpreter and stay warm across its ops.  It prints one JSON object.
"""
import time
import polytopenums

IMPORTED_AT = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from polytopenums import cli  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402


def run_op(main, argv: list[str]) -> tuple[float, int | None, str | None, str]:
    """(seconds, exit code, error, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"[:300]
        elapsed = time.perf_counter() - t0
    if code is not None and code != 0 and err.getvalue():
        error = err.getvalue().strip().splitlines()[-1][:300]
    return elapsed, code, error, out.getvalue()


def run_ops(ops, main) -> list[dict]:
    results = []
    before = speed.reference_s()
    for op in ops:
        elapsed, code, error, text = run_op(main, op["argv"])
        after = speed.reference_s()
        results.append({"s": elapsed, "ref_s": (before + after) / 2, "code": code,
                        "error": error, "digest": hashlib.sha256(text.encode()).hexdigest(),
                        "bytes": len(text.encode()),
                        "units": checks.work_units(op, text) if code == 0 else 0})
        before = after
    return results


def check_ops(ops, results) -> None:
    """Re-run each op (outside any timing) and check what it prints."""
    for op, result in zip(ops, results):
        if result["code"] != 0 or result["error"]:
            continue
        _, code, error, text = run_op(cli.main, op["argv"])
        problem = error or (f"exit code {code}" if code != 0 else None)
        if problem is None and hashlib.sha256(text.encode()).hexdigest() != result["digest"]:
            problem = "output differs between the timed run and the re-run"
        if problem is None:
            problem = checks.check_output(op, text)
        result["check"] = problem


def main() -> None:
    job = json.load(sys.stdin)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(polytopenums.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported polytopenums from {polytopenums.__file__}, not {src}")
    tracer = None
    entry = cli.main
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        entry = tracer.wrap(tracing.ROOT, cli.main)
    results = run_ops(job["ops"], entry)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"imported_at": IMPORTED_AT, "wall_s": sum(r["s"] for r in results),
              "peak_rss_mb": peak_kb / 1024, "ops": results}
    if tracer is not None:
        tracer.uninstall()
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
        groups = [f"{op['kind']} {op.get('mode') or op.get('route') or ''}".strip()
                  for op in job["ops"]]
        report.update(tracer.layer_totals(groups))
        report["missing"] = tracer.missing
        report["spans"] = len(tracer.start)
    if job["check"]:
        t0 = time.perf_counter()
        check_ops(job["ops"], results)
        report["check_s"] = time.perf_counter() - t0
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
