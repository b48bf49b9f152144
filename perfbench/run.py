"""The benchmark command.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The program is imported from ``src/``.
One run sets the workload up several times, measures it for ``--seconds``
with tracing off, checks every output, and sets it up several times more;
the median build time is ``setup_s``.
With ``--trace 1`` it then sets up again and measures a traced run, whose
per-layer figures it reports instead of the end-to-end ones, plus the
tracing overhead (the throughput the traced run lost). The last line of
standard output is the JSON result; earlier lines describe the run.
``--workload all`` runs each workload in its own child process in turn.
"""

from __future__ import annotations

import argparse
import gc
import json
import os

# One BLAS thread. OpenBLAS otherwise starts a thread per core whose
# spin-waits after each small matrix product burned about a third of the
# CPU per request and made throughput swing by a quarter between runs.
# Set before numpy is first imported; an explicit setting is respected.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_DIR = os.path.join(ROOT, ".perfbench")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _workloads() -> dict:
    import qa
    import semsql
    import tenants

    return {
        "qa_hot": qa.HOT,
        "qa_churn": qa.CHURN,
        "tenants_mix": tenants.WORKLOAD,
        "semsql_reviews": semsql.WORKLOAD,
    }


def _result(spec: dict, section: str, values: dict, correct: bool, attempted: int, failed: int) -> dict:
    """The result object: every metric of ``section`` by name with its
    unit; a metric the workload's layers do not produce reads 0."""
    metrics = {}
    for entry in spec[section]:
        value = values.pop(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    if values:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from harness import Tracer, end_to_end, environment, peak_rss_mb, settle, time_builds

    spec = _spec()
    workload = _workloads()[name]
    print("# env " + json.dumps(environment(ROOT)), flush=True)
    builds, state = time_builds(lambda: workload.setup(seed))
    workload.prime(state)
    settle()
    # Read before the timed phase: the outputs a run keeps for its checks
    # grow with its operation count, so a later peak would rise with
    # throughput.
    rss = peak_rss_mb()
    timed = workload.timed(state, seconds, None)
    check_start = time.perf_counter()
    problems = workload.check(state, timed, seed)
    check_s = time.perf_counter() - check_start
    state = None
    gc.unfreeze()  # the run's state, frozen by settle(), may now be collected
    builds += time_builds(lambda: workload.setup(seed))[0]
    setup_s = statistics.median(builds)
    print(
        f"# {name}: seed={seed} ops={timed.ops} failed={timed.failed} "
        f"wall_s={timed.wall_s:.3f} setup_s={setup_s:.3f} builds={len(builds)} "
        f"check_s={check_s:.3f} problems={len(problems)}",
        flush=True,
    )
    for note in timed.notes.get("report", []):
        print(f"# {name}: {note}", flush=True)
    for problem in problems[:10]:
        print(f"# {name}: PROBLEM {problem}", flush=True)
    if trace:
        traced_state = workload.setup(seed)
        workload.prime(traced_state)
        tracer = Tracer()
        collected = workload.install_tracing(traced_state, tracer)
        mark = workload.mark(traced_state)
        settle()
        try:
            traced = workload.timed(traced_state, seconds, tracer)
        finally:
            tracer.restore()
        values = workload.layer_metrics(traced_state, traced, tracer, collected, mark)
        values["trace.overhead_pct"] = (
            (timed.ops / timed.wall_s) / (traced.ops / traced.wall_s) - 1.0
        ) * 100.0
        os.makedirs(TRACE_DIR, exist_ok=True)
        with open(os.path.join(TRACE_DIR, f"trace_{name}_seed{seed}.json"), "w") as f:
            json.dump(tracer.dump(), f)
        section = "per_layer"
    else:
        values = {k: v for k, (v, _unit) in end_to_end(timed, setup_s, workload.tail_q, rss).items()}
        section = "end_to_end"
    return _result(spec, section, values, not problems, timed.ops, timed.failed)


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a child process of its own (so each reports its
    own peak memory), one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in _workloads():
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"== {name}: attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
        for line in lines[:-1]:
            print(line)
        for metric, entry in result["metrics"].items():
            print(f"   {metric:48s} {entry['value']:14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # One CPU for the whole process (threads inherit it): on the 2-vCPU
    # virtual machine the figures come from, runs spread over both CPUs
    # lost 6-7 of their 20 CPU-seconds to the host and throughput swung
    # by half between 1-second windows; pinned, they lost under one.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    src = os.path.join(ROOT, "src")
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: the program was imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    names = list(_workloads())
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # the boundary: report, print no result, exit non-zero
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
