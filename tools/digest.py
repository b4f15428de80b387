"""Digests of everything a source tree computes on the benchmark's inputs.

    python tools/digest.py --tree PATH [--tree OTHER] --seeds 0,7,11

Each tree is a checkout (a directory holding ``src/wentzellflow`` and
``perfbench/workloads.py``).  For each workload of that tree's
``perfbench/workloads.py`` and each seed, the tool runs one flow and prints
the sha256 of its fields, fluxes (etas), step residuals, step certificates
and step logs.  It then runs ``cli.run`` on the cli-sources-1d config and,
with ``verbose=True``, on every preset and on the configs of ``MODES`` (the
convergence, contraction and asymptotics modes, and sourced flows in 1D and
2D), and prints the sha256 of each run's artifacts (every file the run
wrote, by relative path), with the manifest's echo of ``out_dir`` removed,
since that names the temporary directory.

Every tree runs in its own Python process with BLAS pinned to one thread,
imports nothing from the other tree, writes only under a temporary
directory, and leaves no bytecode behind (``-B``).  Given two trees, the
tool prints both digests of every item side by side and exits with status 1
if any item differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile


# Configs past the presets, so that every CLI mode and each way of sampling
# a source (an expression by blocks of steps; a constant, a profile, a power
# of t or a source difference once per time) is covered.
MODES = {
    "convergence": {
        "preset": "quadratic-1d", "mode": "convergence", "n": 20,
        "sources": {"f": "sin(pi*x)*exp(-t)", "g": "t**2 - 1"},
        "options": {"refinements": 2}},
    "contraction": {
        "preset": "plaplacian-1d", "mode": "contraction",
        "sources": {"f": "sin(pi*x)*exp(-t)", "g": "cos(t)"},
        "options": {"perturbation": {"f": "sin(pi*x)*exp(-t) + 0.1*cos(3*t)",
                                     "y0": "sin(pi*x) + 0.01*cos(pi*x)"}}},
    "asymptotics": {
        "preset": "quadratic-1d", "mode": "asymptotics",
        "sources": {"f": "cos(2*pi*x)", "g": "x - 0.5"}},
    "flow-sources-2d": {
        "preset": "quadratic-2d",
        "sources": {"y0": "cos(pi*x)*cos(pi*y)",
                    "f": "sin(pi*x)*cos(pi*y)*exp(-t)",
                    "g": {"profile": "noise", "amplitude": 0.1}}},
    "flow-sources-1d": {
        "preset": "plaplacian-1d",
        "sources": {"f": "cos(2*t)*x", "g": 0.5}},
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _plain(x):
    """Step-log values as JSON: numpy scalars and arrays as Python ones,
    floats by ``repr`` (JSON's own), so every bit of a double counts."""
    import numpy as np
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, np.generic):
        return x.item()
    return x


def _trajectory_digests(traj):
    import numpy as np

    def arr(a):
        return _sha(np.ascontiguousarray(a, dtype=float).tobytes())

    logs = json.dumps(_plain(traj.step_logs), sort_keys=True).encode()
    return {"fields": arr(traj.fields), "etas": arr(traj.etas),
            "residuals": arr(traj.step_residuals),
            "certificates": arr(traj.step_certificates),
            "step_logs": _sha(logs)}


def _artifact_digest(out_dir):
    """sha256 over every file under ``out_dir`` (path and bytes, in path
    order), the manifest's ``config.out_dir`` removed."""
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.json" and root == out_dir:
                manifest = json.loads(data)
                del manifest["config"]["out_dir"]
                data = json.dumps(manifest, indent=1, sort_keys=True).encode()
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            h.update(_sha(data).encode())
    return h.hexdigest()


def child(tree, seeds):
    """Digests of ``tree``, run in this process; printed as JSON."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads
    from wentzellflow import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        workloads.OUT_DIR = tmp
        for name in workloads.WORKLOADS:
            for seed in seeds:
                case = workloads.build(name, seed)
                case.prepare()
                traj = case.trajectory(case.run())
                for key, value in _trajectory_digests(traj).items():
                    out[f"{name} seed={seed} {key}"] = value
                if name == "cli-sources-1d":
                    out[f"{name} seed={seed} artifacts"] = _artifact_digest(
                        case.out_dir)
                case.cleanup()
        runs = {f"preset {name}": {"preset": name} for name in cli.PRESETS}
        runs.update((f"mode {name}", raw) for name, raw in MODES.items())
        for key, raw in runs.items():
            out_dir = os.path.join(tmp, key.replace(" ", "-"))
            cfg = cli.config_from_dict(dict(raw, out_dir=out_dir))
            code = cli.run(cfg, verbose=True)
            out[f"{key} exit"] = str(code)
            out[f"{key} artifacts"] = _artifact_digest(out_dir)
    json.dump(out, sys.stdout)


def run_tree(tree, seeds):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "-B", os.path.abspath(__file__), "--child",
         "--tree", os.path.abspath(tree),
         "--seeds", ",".join(str(s) for s in seeds)],
        env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"digest run of {tree} failed ({proc.returncode})")
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="checkout to digest (give two to compare)")
    parser.add_argument("--seeds", default="0",
                        help="comma-separated workload seeds")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.child:
        child(args.tree[0], seeds)
        return 0
    if len(args.tree) > 2:
        parser.error("give one tree, or two to compare")
    results = [run_tree(tree, seeds) for tree in args.tree]
    keys = list(dict.fromkeys(key for r in results for key in r))
    differ = 0
    for key in keys:
        values = [r.get(key, "-") for r in results]
        mark = ""
        if len(values) == 2:
            mark = "same" if values[0] == values[1] else "DIFFERENT"
            differ += mark == "DIFFERENT"
        print(f"{key:45s} " + " ".join(values) + (f" {mark}" if mark else ""))
    if len(results) == 2:
        print(f"{differ} of {len(keys)} items differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
