"""Workload process: runs passes over a workload's operations in a closed loop.

    python3 perfbench/worker.py MANIFEST           # timed passes
    python3 perfbench/worker.py --setup MANIFEST   # import + validate only

``run.py`` writes MANIFEST and reads back the report it names.  One client
calls ``vacuumsq.cli.main`` in-process; each operation starts when the
previous one has finished.  An operation fails when ``main`` returns a
nonzero exit code or an exception escapes it; the failure is recorded and
the pass goes on.  With tracing on, untraced passes fill the first half of
the time budget and traced passes the second, so the tracer's overhead can
be read off the same process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

MIN_UNTRACED_PASSES = 2  # the determinism check compares two passes


def _run_pass(cli, ops, outdir, failures) -> dict:
    os.makedirs(outdir)
    records = []
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            code = cli.main([op["command"], "--config", op["config"], "--out", outdir])
            error = None if code == 0 else f"exit code {code}"
        except Exception as exc:  # an escaped exception fails this operation only
            error = type(exc).__name__
            failures.setdefault(op["name"], traceback.format_exc())
        records.append({"name": op["name"], "command": op["command"],
                        "seconds": perf_counter() - t0, "error": error})
    return {"wall_s": perf_counter() - start, "ops": records}


def _run_phase(cli, ops, out, passes, failures, budget, min_passes, tracer=None):
    """Run passes until the next one would overrun ``budget`` seconds."""
    phase_start = perf_counter()
    done = 0
    while done < min_passes or perf_counter() - phase_start + passes[-1]["wall_s"] <= budget:
        outdir = os.path.join(out, f"pass_{len(passes)}")
        lo = tracer.span_count() if tracer else 0
        record = _run_pass(cli, ops, outdir, failures)
        if tracer is not None:
            record["spans"] = tracer.summarize(lo, tracer.span_count())
            record["counters"] = tracer.take_counters()
        record["traced"] = tracer is not None
        passes.append(record)
        done += 1


def _setup(manifest) -> int:
    from vacuumsq import cli

    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["validate", "--config", op["config"]]) for op in manifest["ops"]]
    return max(codes)


def main(argv) -> int:
    setup_only = argv[:1] == ["--setup"]
    with open(argv[-1], encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    if setup_only:
        return _setup(manifest)

    from vacuumsq import cli

    ops, out = manifest["ops"], manifest["out"]
    seconds = float(manifest["seconds"])
    passes: list[dict] = []
    failures: dict[str, str] = {}
    if not manifest["trace"]:
        _run_phase(cli, ops, out, passes, failures, seconds, MIN_UNTRACED_PASSES)
        tracer = None
    else:
        import tracer as tracing

        _run_phase(cli, ops, out, passes, failures, seconds / 2.0, 1)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        _run_phase(cli, ops, out, passes, failures,
                   seconds - sum(p["wall_s"] for p in passes), 1, tracer)
    report = {
        "passes": passes,
        "tracebacks": failures,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write(os.path.join(os.path.dirname(manifest["report"]), "spans.npz"))
    with open(manifest["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
