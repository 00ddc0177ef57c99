"""Self-test of the benchmark itself: ``python3 perfbench/run.py --self-test``.

1. A tiny pass of every workload, untraced and traced, through the same code
   as a real run. Each prints every metric name with its unit and must pass
   the oracle with no failures.
2. Oracle liveness: certificates and values from those passes, corrupted one
   way at a time, must each be counted as failed attempts.
3. BENCHMARK.json must list the workloads and metrics of
   spec.py, and every layer named in spec.PREDICTIONS must be a metric.
"""

from __future__ import annotations

import copy
import fnmatch
import json
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent


def _corruptions(workload, outputs, pool):
    """(label, item index, corrupted output) triples for one workload."""
    out = []
    if workload == "detect_mixed":
        states = pool["states"]
        entry = next(i for i, o in enumerate(outputs) if o["entry_certificate"])
        distill = next(i for i, o in enumerate(outputs) if o["distill_certificate"])
        sep = next(i for i, it in enumerate(pool["items"])
                   if states[it["state"]]["kind"] == "separable")

        def edit(i, fn):
            o = copy.deepcopy(outputs[i])
            fn(o)
            return o

        def swap_slot(o):
            c = o["entry_certificate"]
            c["k_indices"][0], c["h_indices"][0] = c["h_indices"][0], c["k_indices"][0]

        def wrong_witness(o):
            w = o["entry_certificate"]["witness"]
            w["sigma"] = w["sigma"][1:] + w["sigma"][:1]

        def flip_z(o):
            o["distill_certificate"]["z"] = [[-a, -b] for a, b in o["distill_certificate"]["z"]]

        out += [
            ("entry value sign flipped", entry,
             edit(entry, lambda o: o["entry_certificate"].update(value=-o["entry_certificate"]["value"]))),
            ("entry index swapped between k and h", entry, edit(entry, swap_slot)),
            ("entry witness sigma rotated", entry, edit(entry, wrong_witness)),
            ("distill vector z negated", distill, edit(distill, flip_z)),
            ("ppt_min_eig off by 1e-3", entry,
             edit(entry, lambda o: o.update(ppt_min_eig=o["ppt_min_eig"] + 1e-3))),
            ("separable input reported entangled", sep,
             edit(sep, lambda o: o.update(verdict="entangled"))),
        ]
    elif workload == "scan_family":
        o = copy.deepcopy(outputs[0])
        row = next(r for r in o["rows"] if r["entry_value"] is not None)
        row["entry_value"] += 0.01
        out.append(("scan entry value off by 0.01", 0, o))
    elif workload == "entry_large_n":
        items = pool["items"]
        e = next(i for i, it in enumerate(items) if it["mode"] == "exact" and outputs[i])
        h = next(i for i, it in enumerate(items)
                 if it["mode"] == "heuristic" and it["state"] == items[e]["state"]
                 and it["n"] == items[e]["n"])
        o = copy.deepcopy(outputs[e])
        o["value"] -= 0.01
        out.append(("exact value below the true minimum", e, o))
        o = copy.deepcopy(outputs[e])
        o["value"] -= 1e-6
        out.append(("heuristic certificate beating exact", h, o))
    return out


def _check_benchmark_json():
    b = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        "workloads": [{"name": n, "why": w} for n, w in spec.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b_, "bound": bd}
                       for n, u, b_, bd in spec.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": spec.per_layer_better(n)}
                      for n, u in spec.PER_LAYER],
    }
    bad = [key for key, val in want.items() if b.get(key) != val]
    return [f"BENCHMARK.json {key} differs from spec.py" for key in bad] or [
        "BENCHMARK.json matches spec.py"], not bad


def _check_predictions():
    """Every layer pattern in spec.PREDICTIONS names a per-layer metric."""
    names = [n for n, _ in spec.PER_LAYER]
    stale = [pat for p in spec.PREDICTIONS for pat in p["layer"]
             if not fnmatch.filter(names, pat)]
    return [f"prediction names no metric: {pat}" for pat in stale] or [
        "every prediction names a per-layer metric"], not stale


def main(run, verify):
    ok = True
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            line, lines, extra = run(workload, seed=1, seconds=0.3, trace=trace, tiny=True)
            print("\n".join(lines))
            names = [n for n, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)]
            good = line["correct"] and list(line["metrics"]) == names
            ok &= good
            print(f"self-test: {workload} trace={trace}: "
                  f"{'ok' if good else 'FAILED'} ({line['attempted']} attempted, "
                  f"{line['failed']} failed)")
            if trace:
                continue
            pool, result = extra["pool"], extra["result"]
            outputs = [json.loads(o) for o in result["first"]]
            for label, i, bad in _corruptions(workload, outputs, pool):
                tampered = dict(result, first=list(result["first"]))
                tampered["first"][i] = json.dumps(bad)
                failed, problems, _ = verify(workload, pool, tampered)
                caught = failed[i] == result["attempts"][i] > 0
                ok &= caught
                print(f"self-test: oracle {'caught' if caught else 'MISSED'} {label}: "
                      f"{(problems[i] or ['no problem reported'])[0]}")
    for check in (_check_benchmark_json, _check_predictions):
        messages, good = check()
        ok &= good
        for m in messages:
            print(f"self-test: {m}")
    print(f"self-test: {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1
