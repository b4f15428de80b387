"""Benchmark of the wentzellflow package: one command, four workloads.

    python3 perfbench/run.py --workload <name|all> --seed <n> \\
        --seconds <s> --trace <0|1> [--smoke]

Run it from the repository root; it imports the package from ``src/``.
Each workload run is one process (``flows.py``) with BLAS and OpenMP
threads pinned to 1.  ``setup_s`` is the time from launching that process
until it is ready for its first step, the median over three launches
(two of them build the workload and exit).  With ``--trace 0`` the run
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced flow.  ``--smoke`` runs two steps per workload, for the
benchmark's own tests.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count implicit steps, so ``failed / attempted`` is the fail ratio.  Each
run also appends its full record (checks, exact counts, the tail
percentile, the environment fingerprint) to ``perfbench/out/results.jsonl``,
which ``compare.py`` reads.  The process exits non-zero, printing no
result, when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_LAUNCHES = 3
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
# A run must end within 180 s; the workload process gets the rest after
# the set-up launches.
TIMEOUT_S = 170.0


def load_benchmark():
    """Workload names, and the units of the metrics for --trace 0 and 1,
    as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = tuple({m["name"]: m["unit"] for m in bench[key]}
                  for key in ("end_to_end", "per_layer"))
    return tuple(w["name"] for w in bench["workloads"]), units


class WorkloadError(RuntimeError):
    pass


def launch(args, env, deadline):
    """Start a workload process; returns (process, seconds until READY)."""
    cmd = [sys.executable, os.path.join(HERE, "flows.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise WorkloadError(f"workload process did not start: {line!r}")
    return proc, ready


def finish(proc, deadline):
    """Wait for ``proc`` until ``deadline``; kill it past that.  Returns its
    remaining stdout."""
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkloadError("workload process timed out") from None
    if proc.returncode != 0:
        raise WorkloadError(f"workload process exited {proc.returncode}")
    return out


def run_workload(name, args, env):
    deadline = time.monotonic() + TIMEOUT_S
    base = ["--workload", name, "--seed", str(args.seed)]
    setups = []
    if not args.trace and not args.smoke:
        for _ in range(SETUP_LAUNCHES - 1):
            proc, ready = launch(base + ["--setup-only"], env, deadline)
            finish(proc, deadline)
            setups.append(ready)
    proc, ready = launch(base + ["--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]
                         + (["--smoke"] if args.smoke else []), env, deadline)
    setups.append(ready)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise WorkloadError("workload process printed no result")
    record = json.loads(lines[-1])
    if not args.trace:
        record["metrics"]["setup_s"] = statistics.median(setups)
        record["setup_samples"] = setups
    return record


def report(record, units):
    m = record["metrics"]
    print(f"== {record['workload']}  seed={record['seed']} "
          f"trace={record['trace']} flows={record['flows']} "
          f"steps={record['attempted']}")
    for name in units:
        print(f"  {name:40s} {m[name]:>16.6g} {units[name]}")
    ratio = record["failed"] / record["attempted"]
    print(f"  {'fail_ratio':40s} {ratio:>16.6g} 1  "
          f"({record['failed']} of {record['attempted']} steps)")
    if "tail" in record:
        print(f"  step_ms_tail is p{record['tail']['percentile']} of "
              f"{record['tail']['samples']} pooled steps")
    print(f"  counts: {json.dumps(record['counts'], sort_keys=True)}")
    failed = [k for k, v in record["checks"].items() if not v]
    print(f"  checks: {len(record['checks'])} run, "
          f"{'all pass' if not failed else 'FAILED ' + ', '.join(failed)}")
    if record.get("trace_file"):
        print(f"  spans: {record['trace_file']}")
    fp = record["fingerprint"]
    print(f"  env: python {fp['python']}, numpy {fp['numpy']}, "
          f"scipy {fp['scipy']}, blas {fp['blas']}, threads "
          f"{','.join(f'{k}={v}' for k, v in fp['threads'].items())}, "
          f"cpu {fp['cpu']}, nproc {fp['nproc']}")


def main(argv=None):
    workloads, units = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wentzellflow", "__init__.py")):
        print(f"perfbench: package source not found under {SRC}",
              file=sys.stderr)
        return 2
    units = units[args.trace]
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = SRC
    os.makedirs(OUT_DIR, exist_ok=True)

    names = workloads if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_workload(name, args, env)
        except WorkloadError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        if set(record["metrics"]) != set(units):
            print(f"perfbench: {name}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(record['metrics']) ^ set(units))}",
                  file=sys.stderr)
            return 1
        records.append(record)
        with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        report(record, units)

    prefix = len(records) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k):
               {"value": r["metrics"][k], "unit": u}
               for r in records for k, u in units.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
