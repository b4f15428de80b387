"""Compare two sets of benchmark runs of the same code, or of a parent and
a change.

    python3 perfbench/compare.py A.jsonl B.jsonl [--baseline OUT.json]

Each file holds the records that ``run.py`` appends to
``perfbench/out/results.jsonl``.  The comparison refuses (exit 2) to pair
runs whose environment fingerprints differ.  For every workload and
end-to-end metric it prints each set's median, the spread
(q3 - q1) / median, and the change of B's median against A's, checked
against the metric's bound in BENCHMARK.json; the spread of ``setup_s`` is
reported but not checked.  The counts that must repeat exactly (stages,
Newton iterations, rescues, dual iterations, spsolve and lsq_linear calls)
are compared for every workload, seed and trace mode that both sets ran.
``--baseline`` writes both sets' numbers, with the per-layer metrics of
their traced runs, to a JSON file.  Exit code 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as fh:
        return [r for r in map(json.loads, fh) if not r.get("smoke")]


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sets = {"A": load(args.a), "B": load(args.b)}

    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for recs in sets.values() for r in recs}
    if len(prints) != 1:
        print("refusing to compare: the runs' environment fingerprints "
              "differ:", file=sys.stderr)
        for p in sorted(prints):
            print(f"  {p}", file=sys.stderr)
        return 2

    ok = True
    for label, recs in sets.items():
        bad = [(r["workload"], r["seed"], r["trace"]) for r in recs
               if not r["correct"] or r["failed"]]
        if bad:
            ok = False
            print(f"set {label}: runs not correct: {bad}")

    baseline = {"fingerprint": json.loads(prints.pop()), "workloads": {}}
    for wl in bench["workloads"]:
        name = wl["name"]
        entry = {"why": wl["why"], "sets": {}, "change": {}, "counts": {},
                 "per_layer": {label: [r["metrics"] for r in recs
                                       if r["workload"] == name
                                       and r["trace"]]
                               for label, recs in sets.items()}}
        print(f"== {name}")
        for label, recs in sets.items():
            runs = [r for r in recs
                    if r["workload"] == name and not r["trace"]]
            if len(runs) < 2:
                continue
            entry["tail"] = runs[0]["tail"]
            entry["sets"][label] = {
                "seeds": [r["seed"] for r in runs],
                "metrics": {m["name"]: summarize([r["metrics"][m["name"]]
                                                  for r in runs])
                            for m in bench["end_to_end"]}}
        for m in bench["end_to_end"]:
            key, bound = m["name"], m["bound"]
            cols = []
            for label in sets:
                s = entry["sets"].get(label, {}).get("metrics", {}).get(key)
                if s is None:
                    continue
                flag = ""
                if key != "setup_s" and s["spread"] > bound:
                    flag, ok = " SPREAD>BOUND", False
                cols.append(f"{label}: {s['median']:.5g} spread "
                            f"{s['spread']:.3f}{flag}")
            if len(entry["sets"]) == 2:
                a = entry["sets"]["A"]["metrics"][key]["median"]
                b = entry["sets"]["B"]["metrics"][key]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                entry["change"][key] = worse
                flag = ""
                if worse > bound:
                    flag, ok = " WORSE>BOUND", False
                cols.append(f"B vs A {worse:+.3f} (bound {bound}){flag}")
            print(f"  {key:14s} {m['unit']:3s} " + "; ".join(cols))

        pairs = {}
        for label, recs in sets.items():
            for r in recs:
                if r["workload"] == name:
                    pairs.setdefault((r["seed"], r["trace"]), {}).setdefault(
                        label, []).append(r["counts"])
        mismatched = []
        for (seed, trace), by_set in sorted(pairs.items()):
            counts = [c for cs in by_set.values() for c in cs]
            entry["counts"][f"seed{seed}.trace{trace}"] = counts[0]
            if any(c != counts[0] for c in counts):
                mismatched.append((seed, trace))
        if mismatched:
            ok = False
        print(f"  exact counts: {len(pairs)} seed/trace pairs, "
              + (f"MISMATCH at {mismatched}" if mismatched else "all repeat"))
        baseline["workloads"][name] = entry

    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
