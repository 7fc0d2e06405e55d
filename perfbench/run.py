"""Benchmark of the vacuumsq CLI: one workload per run, metrics on stdout.

    python3 perfbench/run.py --workload oat-fig3a --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Run it from the repository root; the program is imported from ./src, and
scratch files go to ./.bench_work.  A run generates the workload's configs
from --seed, times several fresh interpreters importing vacuumsq.cli and
validating them (setup_s), then runs passes over the workload's operations
in one workload process for --seconds and checks the artifacts outside
the timed region.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json, measured with tracing off; with --trace 1 the per-layer
metrics from a traced run.  Every metric is printed by name with its unit;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit status is 1 when an output or
determinism check fails and 2 when the workload cannot run at all.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported here or in any child process.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from statistics import median  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 5          # fresh interpreters timed per run, after one warm-up
SETUP_TIMEOUT_S = 60
WORKER_GRACE_S = 100       # a pass may overrun the budget; the process may not


class BenchError(RuntimeError):
    """The workload could not be run; no result is printed."""


def _spawn(args, timeout, log_path):
    """Run the worker to completion.

    A timer kills it after ``timeout`` seconds.  The wait itself blocks
    rather than polling, because ``Popen.wait(timeout=...)`` polls in steps
    of up to 50 ms, which would quantize the set-up times.
    """
    with open(log_path, "ab") as log:
        proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=log)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
    if timed_out.is_set():
        raise BenchError(f"workload process exceeded {timeout} s; see {log_path}")
    if code != 0:
        raise BenchError(f"workload process exited with {code}; see {log_path}")


def _prepare(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "vacuumsq", "cli.py")):
        raise BenchError(f"no vacuumsq sources under {SRC}")
    work = os.path.join(ROOT, ".bench_work", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "configs"))
    ops = []
    for op in workloads.build(workload, seed):
        path = os.path.join(work, "configs", op.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op.config, fh, indent=1)
        ops.append({"name": op.name, "command": op.command, "config": path})
    manifest = {"src": SRC, "ops": ops, "out": os.path.join(work, "out"),
                "seconds": seconds, "trace": trace,
                "report": os.path.join(work, "report.json")}
    path = os.path.join(work, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return work, path, manifest


def _setup_samples(manifest_path, log_path):
    """Seconds from spawning a fresh interpreter to its exit after validation."""
    _spawn(["--setup", manifest_path], SETUP_TIMEOUT_S, log_path)  # warm-up, writes bytecode
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _spawn(["--setup", manifest_path], SETUP_TIMEOUT_S, log_path)
        samples.append(time.perf_counter() - start)
    return samples


def _command_seconds(p, command):
    return sum((r["seconds"] for r in p["ops"] if r["command"] == command), 0.0)


def _oracle_rate(p):
    ok = sum(1 for r in p["ops"] if r["command"] == "oracle" and not r["error"])
    sweep = _command_seconds(p, "oracle")
    return ok / sweep if sweep > 0 else 0.0


def _end_to_end(passes, setup_s, peak_rss_mib, attempted, failed):
    return {
        "setup_s": setup_s,
        "wall_s": median([p["wall_s"] for p in passes]),
        "peak_rss_mib": peak_rss_mib,
        "success_rate": (attempted - failed) / attempted,
    }


def _per_layer(untraced, traced, attempted, failed):
    first = traced[0]
    metrics = {}
    for name, stat in first["spans"].items():
        metrics[f"{name}.calls"] = stat["calls"]
        metrics[f"{name}.self_s"] = median([p["spans"][name]["self_s"] for p in traced])
    counters = first["counters"]
    for name in ("optimize.time_evals", "optimize.detuning_evals", "optimize.guard_rejections",
                 "dicke.tat.dim", "dicke.tat.bytes_computed", "oracle.cutoff_escalations",
                 "cli.bytes_written"):
        metrics[name] = counters.get(name, 0)
    evals = metrics["optimize.time_evals"] + metrics["optimize.detuning_evals"]
    metrics["optimize.useful_ratio"] = counters.get("optimize.finite_evals", 0) / evals \
        if evals else 0.0
    metrics["oracle.cases_failed"] = sum(
        1 for r in first["ops"] if r["command"] == "oracle" and r["error"])
    metrics["trace.overhead_s"] = (median([p["wall_s"] for p in traced])
                                   - median([p["wall_s"] for p in untraced]))
    for command in ("evolve", "optimize", "scaling"):
        metrics[f"cmd.{command}_s"] = median([_command_seconds(p, command) for p in untraced])
    metrics["cmd.oracle_cases_per_s"] = median([_oracle_rate(p) for p in untraced])
    metrics["cmd.error_rate"] = failed / attempted
    return metrics


def _provenance(seed, trace):
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=False)
        sha = done.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": seed, "trace": trace, "git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}: "
                    f"{blas.get('openblas configuration', '')}",
            "nproc": len(os.sched_getaffinity(0)), "thread_env": PINNED_ENV}


def run(workload, seed, seconds, trace):
    """Run one workload; returns (result, printable lines, exit status)."""
    work, manifest_path, manifest = _prepare(workload, seed, seconds, trace)
    log_path = os.path.join(work, "worker.log")
    setup = _setup_samples(manifest_path, log_path)
    _spawn([manifest_path], seconds + WORKER_GRACE_S, log_path)
    with open(manifest["report"], encoding="utf-8") as fh:
        report = json.load(fh)

    passes = report["passes"]
    pass_dirs = [os.path.join(manifest["out"], f"pass_{i}") for i in range(len(passes))]
    results = checks.check_operations(manifest["ops"], passes[0]["ops"], pass_dirs[0])
    results.append(checks.check_determinism(pass_dirs))
    traced = [p for p in passes if p.get("traced")]
    untraced = [p for p in passes if not p.get("traced")]
    if traced:
        same = all(p["counters"] == traced[0]["counters"]
                   and all(p["spans"][k]["calls"] == v["calls"]
                           for k, v in traced[0]["spans"].items()) for p in traced)
        results.append(("trace counts repeat", same, f"{len(traced)} traced passes"))

    records = [r for p in passes for r in p["ops"]]
    attempted = len(records)
    failed = sum(1 for r in records if r["error"])
    if trace:
        values = _per_layer(untraced, traced, attempted, failed)
        section = "per_layer"
    else:
        values = _end_to_end(passes, median(setup), report["peak_rss_mib"],
                             attempted, failed)
        section = "end_to_end"
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)[section]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    lines = [f"{workload} seed={seed} trace={trace}: {len(passes)} passes "
             f"({len(untraced)} untraced), {attempted} operations, {failed} failed"]
    errors = Counter((r["name"], r["error"]) for r in records if r["error"])
    for (name, error), count in errors.items():
        lines.append(f"  failed {name}: {error} ({count}x)")
    for name, ok, detail in results:
        lines.append(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']!r} {m['unit']}")
    provenance = _provenance(seed, trace)
    lines.append("  provenance " + json.dumps(provenance, sort_keys=True))

    correct = all(ok for _, ok, _ in results)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": provenance, "setup_samples_s": setup,
                   "passes": passes, "tracebacks": report["tracebacks"]}, fh, indent=1)
    return result, lines, 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        try:
            result, lines, code = run(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"benchmark error ({name}): {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
        status = max(status, code)
        if len(names) == 1:
            combined = result
        else:
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
