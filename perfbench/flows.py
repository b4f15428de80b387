"""Workload process of the benchmark; ``run.py`` starts one per run.

It builds the workload (the set-up that ``setup_s`` times), prints
``READY`` to stdout, then runs flows of the workload one after another for
about ``--seconds`` (closed loop, at least one flow).  The only
instrumentation of an untraced flow is a timestamp pair around each step
call.  Every flow is re-checked by the correctness gate after its timed
region.  With ``--trace 1`` the process runs one untraced flow and then
one traced flow, and reports per-layer metrics instead.  The last stdout
line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import uuid

import numpy as np
import scipy

import gate
import spans
import workloads
from wentzellflow import flow_driver as fd

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10


class StepTimer:
    """Timestamp pair around each ``solve_step`` call of ``run_flow``."""

    def __init__(self):
        self.durations = []

    def __enter__(self):
        self._real = real = fd.solve_step
        durations, clock = self.durations, time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            sol = real(*args, **kwargs)
            durations.append(clock() - t0)
            return sol

        fd.solve_step = timed
        return self

    def __exit__(self, *exc):
        fd.solve_step = self._real


def tail_percentile(n):
    """Highest whole percentile of a flow's ``n`` step times that still
    has at least ten steps beyond it (100, the maximum, for short flows)."""
    return 100 if n <= TAIL_BEYOND else 100 * (n - TAIL_BEYOND) // n


def solver_counts(step_logs):
    """Counts that repeat exactly for one code version and seed."""
    counts = {"stages": 0, "newton_iters": 0, "rescues": 0, "dual_iters": 0}
    for log in step_logs:
        for stage in log:
            counts["stages"] += 1
            if "rescue" in stage:
                counts["rescues"] += 1
                counts["dual_iters"] += stage["iters"]
            elif "pd_gap" in stage:
                counts["dual_iters"] += stage["iters"]
            else:
                counts["newton_iters"] += stage["iters"]
    return counts


def uses_dual(log):
    return any("rescue" in s or "pd_gap" in s for s in log)


def run_one(name, case, tracer=None):
    """Run one flow, gate it, and return its record."""
    case.prepare()
    error = None
    tracing = (contextlib.nullcontext() if tracer is None else
               spans.traced(tracer, getattr(case, "model", None)))
    with StepTimer() as timer, tracing:
        t0 = time.perf_counter()
        try:
            result = case.run()
        except Exception as exc:  # a failed flow is counted, not fatal
            result, error = None, exc
        run_s = time.perf_counter() - t0
    durations = timer.durations
    flow = {"run_s": run_s, "durations": durations, "checks": {},
            "logs": [], "bytes": {"export": 0, "metrics": 0}}
    if error is not None:
        print(f"perfbench: {name}: flow raised {type(error).__name__}: "
              f"{error}", file=sys.stderr)
        flow["checks"]["completed"] = False
        flow["failed"] = case.steps - len(durations)
        case.cleanup()
        return flow
    checks = flow["checks"]
    checks.update(case.output_checks(result))
    traj = case.trajectory(result)
    failed = case.steps
    if all(checks.values()) and traj is not None:
        flow["logs"] = traj.step_logs
        flow["bytes"] = case.output_bytes()
        bad = gate.failed_steps(traj, case.step_cfg)
        checks["steps"] = not bad
        ok, dist, allowed = gate.reference_check(
            name, case, case.final_field(result))
        checks["reference"] = ok
        if not ok:
            print(f"perfbench: {name}: final field is {dist:.3e} from the "
                  f"reference, allowed {allowed:.3e}", file=sys.stderr)
        else:
            failed = len(bad)
    flow["failed"] = failed
    case.cleanup()
    return flow


def fingerprint():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_PINS},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def end_to_end(flows, steps):
    """End-to-end metrics; step times are pooled over the run's flows,
    which repeat one computation."""
    pooled = [d for f in flows for d in f["durations"]]
    q = tail_percentile(steps)
    metrics = {
        "run_s": statistics.median(f["run_s"] for f in flows),
        "step_ms_p50": 1e3 * float(np.percentile(pooled, 50)),
        "step_ms_tail": 1e3 * float(np.percentile(pooled, q)),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"percentile": q, "samples": len(pooled)}


def per_layer(tracer, traced, plain):
    """Per-layer metrics from the traced flow; step splits from the
    untraced flow of the same run."""
    summ = tracer.summary()

    def get(name, key):
        return summ.get(name, {}).get(key, 0)

    m = {}
    for short in ("envelope_pack", "resolvent", "fenchel_gap"):
        name = f"flux_models.{short}"
        cells = get(name, "work")
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
        m[f"{name}.ns_per_cell"] = (1e9 * get(name, "s") / cells
                                    if cells else 0.0)
    for name in ("flux_models.pointwise", "discretization.stencil",
                 "discretization.time_average", "expressions.source",
                 "linalg.spsolve", "linalg.lsq_linear"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    m["linalg.spsolve.nnz"] = get("linalg.spsolve", "work")
    m["step_solver.solve_step.calls"] = get("step_solver.solve_step", "calls")
    m["step_solver.self_s"] = get("step_solver.solve_step", "self_s")
    counts = solver_counts(traced["logs"])
    m.update({f"step_solver.{k}": v for k, v in counts.items()})

    logs, durs = plain["logs"], plain["durations"]
    dual_s = sum(d for d, log in zip(durs, logs) if uses_dual(log))
    dual_iters = solver_counts(logs)["dual_iters"]
    m["step_solver.us_per_dual_iter"] = (1e6 * dual_s / dual_iters
                                         if dual_iters else 0.0)
    for kind, want in (("rescue", True), ("clean", False)):
        sel = [d for d, log in zip(durs, logs)
               if any("rescue" in s for s in log) == want]
        m[f"step_solver.{kind}_step_ms_p50"] = (
            1e3 * statistics.median(sel) if sel else 0.0)

    m["flow_driver.run_flow.self_s"] = get("flow_driver.run_flow", "self_s")
    m["flow_driver.diagnostics.s"] = get("flow_driver.diagnostics", "s")
    m["flow_driver.export.s"] = get("flow_driver.export", "s")
    m["flow_driver.export.bytes"] = traced["bytes"]["export"]
    m["cli.run.self_s"] = get("cli.run", "self_s")
    m["cli.metrics.bytes"] = traced["bytes"]["metrics"]
    for layer in spans.LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            row["self_s"] for name, row in summ.items()
            if name.split(".", 1)[0] == layer)
    self_sum = sum(row["self_s"] for row in summ.values())
    m["trace.run_s"] = traced["run_s"]
    m["trace.overhead_ratio"] = traced["run_s"] / plain["run_s"]
    m["trace.self_sum_ratio"] = self_sum / traced["run_s"]
    m["trace.spans"] = len(tracer.spans)
    return m


def bypass_checks(name, m):
    """Predictions the workloads were chosen for, asserted at the default
    seed."""
    if name == "fractured-1d":
        return {"bypass.rescues": m["step_solver.rescues"] > 0}
    if name == "plaplacian-2d":
        return {"bypass.envelope_pack":
                m["flux_models.envelope_pack.calls"] == 0}
    if name == "tv-2d":
        return {"bypass.spsolve": m["linalg.spsolve.calls"] == 0}
    return {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    case = workloads.build(args.workload, args.seed, args.smoke)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    start = time.perf_counter()
    flows = [run_one(args.workload, case)]
    if args.trace:
        run_id = uuid.uuid4().hex[:12]
        tracer = spans.Tracer(run_id)
        flows.append(run_one(args.workload, case, tracer))
    else:
        # Another flow runs while it is expected to end less than half a
        # flow past the deadline.
        while not args.smoke:
            flow_s = statistics.median(f["run_s"] for f in flows)
            if time.perf_counter() - start + flow_s / 2 > args.seconds:
                break
            flows.append(run_one(args.workload, case))

    checks = {}
    for k, flow in enumerate(flows):
        checks.update({f"flow{k}.{c}": v for c, v in flow["checks"].items()})
    counts = [solver_counts(f["logs"]) for f in flows if f["logs"]]
    checks["counts_repeat"] = all(c == counts[0] for c in counts)

    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "smoke": args.smoke, "flows": len(flows),
           "attempted": case.steps * len(flows),
           "failed": sum(f["failed"] for f in flows),
           "counts": counts[0] if counts else {},
           "fingerprint": fingerprint()}
    if args.trace:
        m = per_layer(tracer, flows[1], flows[0])
        checks["trace_self_sum"] = abs(m["trace.self_sum_ratio"] - 1.0) <= 0.01
        if args.seed == workloads.DEFAULT_SEED:
            checks.update(bypass_checks(args.workload, m))
        path = os.path.join(
            workloads.OUT_DIR,
            f"trace-{args.workload}-seed{args.seed}-{run_id}.jsonl")
        tracer.write_jsonl(path)
        out.update(metrics=m, trace_file=os.path.relpath(path),
                   counts=dict(out["counts"],
                               spsolve_calls=m["linalg.spsolve.calls"],
                               lsq_linear_calls=m["linalg.lsq_linear.calls"]))
    else:
        out["metrics"], out["tail"] = end_to_end(flows, case.steps)
    out["checks"] = checks
    out["correct"] = out["failed"] == 0 and all(checks.values())
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
