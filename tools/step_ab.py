"""Side-by-side timer of single implicit steps from two source trees.

    python tools/step_ab.py --a PARENT_TREE --b CHANGED_TREE \\
        --workload cli-sources-1d --steps 1,100,250 --rounds 400

Each tree is a checkout (a directory holding ``src/wentzellflow`` and
``perfbench/workloads.py``).  The tool copies each tree's package into a
scratch directory under a new name (``wf_a``, ``wf_b``), together with that
tree's ``workloads.py`` rewritten to import it, so both versions load into
one process.  It runs one flow of the workload with each version and keeps
the arguments of the chosen ``solve_step`` calls (1-based step indices; the
carried ``_LaggedFactor`` copied as it was at the call).  It then times
those steps interleaved: every round calls each chosen step once per
version, in an order that alternates between rounds, each call on a fresh
copy of its lagged factor.  It prints, per step, the median time of each
version, the ratio b / a of the medians, and the interquartile ranges.

Steps from one process share its state of the machine, so a speed drift
of the host moves both versions alike; flows timed in separate processes
on a VM whose speed changes between phases can spread by more than the
effect measured.  Both flows must hand their chosen steps the same inputs
(w1, w2, u0, guess and dual); the tool stops if they do not.  ``--json``
writes the medians and ratios to a file.
"""

from __future__ import annotations

import argparse
import copy
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np


def load_version(tree, name, scratch):
    """The package of ``tree`` as ``name`` and its workloads module."""
    pkg_src = os.path.join(tree, "src", "wentzellflow")
    dst = os.path.join(scratch, name)
    shutil.copytree(pkg_src, dst, ignore=shutil.ignore_patterns("__pycache__"))
    for fname in os.listdir(dst):
        if fname.endswith(".py"):
            path = os.path.join(dst, fname)
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(text.replace("wentzellflow", name))
    with open(os.path.join(tree, "perfbench", "workloads.py")) as fh:
        text = fh.read()
    with open(os.path.join(scratch, f"{name}_workloads.py"), "w") as fh:
        fh.write(text.replace("wentzellflow", name))
    return (importlib.import_module(name),
            importlib.import_module(f"{name}_workloads"))


def capture(pkg, workloads, workload, seed, steps):
    """Run one flow of ``workload`` and return {step: (args, kwargs)} for
    the chosen 1-based steps of its ``solve_step`` calls."""
    fd = importlib.import_module(f"{pkg.__name__}.flow_driver")
    real = fd.solve_step
    calls = {}
    count = [0]

    def keep(*args, **kwargs):
        count[0] += 1
        if count[0] in steps:
            # the grid, model and config are shared; the data and the
            # lagged factor are copied as they are at the call
            calls[count[0]] = (args[:2] + copy.deepcopy(args[2:]),
                               copy.deepcopy(kwargs))
        return real(*args, **kwargs)

    case = workloads.build(workload, seed)
    case.prepare()
    fd.solve_step = keep
    try:
        case.run()
    finally:
        fd.solve_step = real
        case.cleanup()
    missing = sorted(set(steps) - set(calls))
    if missing:
        raise SystemExit(f"the flow has no steps {missing}")
    return calls, real


def same_inputs(a, b):
    (args_a, kw_a), (args_b, kw_b) = a, b
    # grid, model, t, h, w1, w2, cfg; then u0, guess and dual by keyword
    pairs = list(zip(args_a[2:6], args_b[2:6]))
    pairs += [(kw_a.get(k), kw_b.get(k)) for k in ("u0", "guess", "dual")]
    return all((x is None and y is None)
               or (x is not None and y is not None
                   and np.array_equal(np.asarray(x), np.asarray(y)))
               for x, y in pairs)


def time_steps(versions, steps, rounds):
    """{(label, step): [seconds]} over ``rounds`` interleaved rounds."""
    times = {(label, s): [] for label in versions for s in steps}
    labels = list(versions)
    clock = time.perf_counter
    for r in range(rounds):
        order = labels if r % 2 == 0 else labels[::-1]
        for s in steps:
            for label in order:
                solve, calls = versions[label]
                args, kwargs = calls[s]
                kwargs = dict(kwargs)
                if kwargs.get("lagged") is not None:
                    kwargs["lagged"] = copy.deepcopy(kwargs["lagged"])
                t0 = clock()
                solve(*args, **kwargs)
                times[(label, s)].append(clock() - t0)
    return times


def quartiles(xs):
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, help="baseline source tree")
    ap.add_argument("--b", required=True, help="changed source tree")
    ap.add_argument("--workload", default="cli-sources-1d")
    ap.add_argument("--steps", default="1,100,250",
                    help="comma-separated 1-based step indices")
    ap.add_argument("--rounds", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", help="write the results to this file")
    opts = ap.parse_args(argv)
    steps = sorted({int(s) for s in opts.steps.split(",")})
    scratch = tempfile.mkdtemp(prefix="step_ab_")
    sys.path.insert(0, scratch)
    try:
        versions = {}
        for label, tree in (("a", opts.a), ("b", opts.b)):
            pkg, workloads = load_version(os.path.abspath(tree), f"wf_{label}",
                                          scratch)
            calls, solve = capture(pkg, workloads, opts.workload, opts.seed,
                                   set(steps))
            versions[label] = (solve, calls)
        for s in steps:
            if not same_inputs(versions["a"][1][s], versions["b"][1][s]):
                raise SystemExit(f"step {s}: the two flows hand it different "
                                 "inputs; time steps before they part")
        gc.collect()
        times = time_steps(versions, steps, opts.rounds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    rows = []
    print(f"{opts.workload}, seed {opts.seed}, {opts.rounds} rounds "
          "(medians and quartiles in microseconds)")
    print(f"{'step':>6} {'a':>10} {'b':>10} {'b/a':>7}   a q1-q3        b q1-q3")
    for s in steps:
        a, b = times[("a", s)], times[("b", s)]
        ma, mb = statistics.median(a), statistics.median(b)
        qa, qb = quartiles(a), quartiles(b)
        rows.append({"step": s, "a_us": 1e6 * ma, "b_us": 1e6 * mb,
                     "ratio": mb / ma,
                     "a_q1_q3_us": [1e6 * q for q in qa],
                     "b_q1_q3_us": [1e6 * q for q in qb]})
        print(f"{s:>6} {1e6 * ma:>10.1f} {1e6 * mb:>10.1f} {mb / ma:>7.3f}   "
              f"{1e6 * qa[0]:.1f}-{1e6 * qa[1]:.1f}   "
              f"{1e6 * qb[0]:.1f}-{1e6 * qb[1]:.1f}")
    if opts.json:
        with open(opts.json, "w") as fh:
            json.dump({"workload": opts.workload, "seed": opts.seed,
                       "rounds": opts.rounds, "steps": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
