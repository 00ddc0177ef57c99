"""witnesskit benchmark: one command, four workloads, an independent oracle.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from a checkout of the repository: the program is imported from its
``src`` directory, never from an installed copy. Each workload is a closed
loop with one client in one worker process (see worker.py); BLAS/OpenMP
threads are capped at the number of usable CPUs. Inputs come from the seed
(inputs.py), outputs are checked by oracle.py, which uses numpy only.

With ``--trace 0`` the run reports the end-to-end metrics of spec.py; with
``--trace 1`` it reports the per-layer metrics from spans recorded around
calls into witnesskit, plus the import-time breakdown of a fresh interpreter
and the tracing overhead against untraced passes of the same run. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. Without the program's sources the command exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import oracle
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
# Passes over the item pool a run always completes, whatever --seconds says:
# every item runs at least twice (the determinism check) and the latency tail
# percentile, fixed from pool size x MIN_PASSES, has at least ten samples
# beyond it. Each value puts that percentile, and the median, in the middle
# of one item's block of repeats in the sorted latencies rather than on the
# edge between two items, so the tail does not jump between items from run
# to run.
MIN_PASSES = {"cli_detect": 4, "detect_mixed": 3, "scan_family": 10, "entry_large_n": 6}
MIN_TRACE_CYCLES = 2
SETUP_TIMEOUT_S = 40
RUN_TIMEOUT_S = 165
IMPORT_MODULES = {"numpy": "import.numpy_ms", "scipy.optimize": "import.scipy_optimize_ms",
                  "witnesskit": "import.witnesskit_ms"}


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def thread_cap():
    return len(os.sched_getaffinity(0))


def worker_env():
    env = dict(os.environ)
    cap = str(thread_cap())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def environment():
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "blas_threads": thread_cap(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version}


def prepare(workload, seed, seconds, min_passes, tiny, workdir):
    """Build the pool from the seed and write the worker's inputs."""
    pool = inputs.POOLS[workload](seed, tiny)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    states = pool["states"]
    meta = [{k: s[k] for k in ("name", "kind", "dims", "ordering")} for s in states]
    manifest = {"workload": workload, "seconds": seconds, "min_passes": min_passes,
                "items": pool["items"], "states": meta}
    files = {"manifest.json": json.dumps(manifest).encode()}
    if workload == "cli_detect":
        for i, s in enumerate(states):
            files[f"state_{i}.json"] = inputs.state_to_json(s).encode()
    elif states:
        buf = io.BytesIO()
        np.savez(buf, **{f"s{i}": s["mat"] for i, s in enumerate(states)})
        files["states.npz"] = buf.getvalue()
    for name, data in files.items():
        # on disk before any worker is timed, so writeback does not overlap setup
        with open(workdir / name, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
    return pool


def launch(workdir, mode, timeout):
    """Start a worker; return seconds from launch to its 'ready' line."""
    log = workdir / f"worker-{mode}.log"
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(workdir), mode],
            stdout=subprocess.PIPE, stderr=err, text=True, env=worker_env(),
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} worker exceeded {timeout} s") from None
        finally:
            proc.stdout.close()
    if proc.returncode != 0 or line.strip() != "ready":
        tail = log.read_text().strip().splitlines()[-5:]
        raise BenchError(f"{mode} worker failed (exit {proc.returncode}): " + " | ".join(tail))
    return ready


def import_times(repeats=3):
    """Cumulative import time per module, from -X importtime (median, ms)."""
    env = dict(worker_env(), PYTHONPATH=str(ROOT / "src"))
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import witnesskit"],
                              capture_output=True, text=True, env=env, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import witnesskit failed: {proc.stderr.strip()[-300:]}")
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        for name in IMPORT_MODULES:
            samples[name].append(seen.get(name, 0.0))
    return {metric: statistics.median(samples[name]) for name, metric in IMPORT_MODULES.items()}


def verify(workload, pool, result):
    """Oracle over each item's reference output. Returns per-item failed
    attempts, problems, and the quality fractions."""
    items, states = pool["items"], pool["states"]
    refs = {}

    def ref(i):
        if i not in refs:
            s = states[i]
            refs[i] = oracle.Reference(s["mat"], *s["dims"], s["ordering"])
        return refs[i]

    problems = [[] for _ in items]
    known = detected = 0
    outputs = [None if out is None else json.loads(out) for out in result["first"]]
    for i, item in enumerate(items):
        out = outputs[i]
        if result["first"][i] is None:
            problems[i].append("no output")
            continue
        if workload in ("detect_mixed", "cli_detect"):
            s = states[item["state"]]
            p, k, d = oracle.check_detect(out, ref(item["state"]), s["kind"], s["name"])
            known, detected = known + k, detected + (k and d)
        elif workload == "scan_family":
            p, k, d = oracle.check_scan(out, item)
            known, detected = known + k, detected + d
        else:
            s = states[item["state"]]
            p = oracle.check_entry_search(out, ref(item["state"]), item["n"], item["mode"],
                                          s["kind"], s["name"])
        problems[i] += p

    quality = {"detected_frac": known and detected / known}
    if workload == "entry_large_n":
        pairs = {}
        for i, item in enumerate(items):
            pairs.setdefault((item["state"], item["n"]), {})[item["mode"]] = i
        fired = matched = 0
        for pair in pairs.values():
            e, h = pair["exact"], pair["heuristic"]
            p, match = oracle.check_entry_pair(outputs[e], outputs[h])
            problems[h] += p
            if outputs[e] is not None:
                fired += 1
                matched += match
        quality = {"heuristic_match_frac": fired and matched / fired}

    failed = [
        result["attempts"][i] if problems[i]
        else len(result["errors"][i]) + result["mismatches"][i]
        for i in range(len(items))
    ]
    for i in range(len(items)):
        problems[i] += result["errors"][i][:1]
        if result["mismatches"][i]:
            problems[i].append(f"output differs between passes ({result['mismatches'][i]}x)")
    return failed, problems, quality


def tail_percentile(n_min):
    """Highest whole percentile with at least ten of n_min samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n_min)))


def nearest_rank(sorted_vals, pct):
    return sorted_vals[max(0, math.ceil(pct / 100 * len(sorted_vals)) - 1)]


def run(workload, seed, seconds, trace, tiny=False):
    """One benchmark run. Returns (result line dict, report lines, extras)."""
    min_passes = 2 if tiny else MIN_PASSES[workload]
    workdir = WORK / f"{workload}-s{seed}-t{trace}{'-tiny' if tiny else ''}"
    pool = prepare(workload, seed, seconds,
                   (1 if tiny else MIN_TRACE_CYCLES) if trace else min_passes, tiny, workdir)
    setups = [launch(workdir, "setup", SETUP_TIMEOUT_S) for _ in range(SETUP_REPEATS)]
    launch(workdir, "trace" if trace else "run", RUN_TIMEOUT_S)
    result = json.loads((workdir / "result.json").read_text())
    failed, problems, quality = verify(workload, pool, result)
    attempted = sum(result["attempts"])
    lines = [f"witnesskit benchmark: workload={workload} seed={seed} trace={trace} "
             f"passes={result['passes']} items/pass={len(pool['items'])}",
             "environment: " + json.dumps(environment(), sort_keys=True)]

    if trace:
        per_layer = dict(result["per_layer"], **import_times())
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in spec.PER_LAYER}
    else:
        lat = sorted(dt for _, dt in result["latencies"])
        done = sum(pool["items"][i].get("points", 1) for i, _ in result["latencies"])
        pct = tail_percentile(len(pool["items"]) * min_passes)
        values = {
            "throughput_per_s": done / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": nearest_rank(lat, pct) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better, _bound in spec.END_TO_END}
        beyond = len(lat) - math.ceil(pct / 100 * len(lat))
        quality["error_rate"] = sum(failed) / attempted
        notes = {"latency_tail_ms": f"(p{pct}, {len(lat)} samples, {beyond} beyond)",
                 "setup_s": f"(median of {SETUP_REPEATS} fresh workers)",
                 "throughput_per_s": "(grid points per second)" if workload == "scan_family"
                 else "(items per second)"}
        for name, unit, better, bound in spec.END_TO_END:
            lines.append(f"  {name:<22} {values[name]:>12.4f} {unit:<6} {better:<6} "
                         f"bound {bound:.2f} {notes.get(name, '')}")
        for name, unit, better in spec.QUALITY:
            if workload in spec.QUALITY_WORKLOADS[name]:
                lines.append(f"  {name:<22} {quality[name]:>12.4f} {unit:<6} {better}")
            else:
                lines.append(f"  {name:<22} {'n/a':>12} {unit:<6} {better} "
                             f"(not defined on {workload})")
    if trace:
        for name, unit in spec.PER_LAYER:
            lines.append(f"  {name:<46} {metrics[name]['value']:>12.4f} {unit}")
        lines.append(f"spans: {workdir / 'spans.json'}")
    for i, p in enumerate(problems):
        if p:
            lines.append(f"FAILED item {i} {json.dumps(pool['items'][i])[:120]}: {'; '.join(p)[:400]}")
    line = {"correct": sum(failed) == 0, "attempted": attempted, "failed": sum(failed),
            "metrics": metrics}
    return line, lines, {"pool": pool, "result": result, "quality": quality}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="tiny pass of every workload and an oracle liveness check")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "witnesskit" / "__init__.py").is_file():
        print(f"error: no witnesskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            import selftest
            return selftest.main(run, verify)
        if args.workload is None:
            ap.error("--workload is required")
        line, lines, _ = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
