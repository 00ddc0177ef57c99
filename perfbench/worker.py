"""One benchmark worker: a fresh interpreter running one workload, one client.

Started by run.py as ``python3 perfbench/worker.py <workdir> <mode>`` with the
workload's inputs already in <workdir>. It imports witnesskit from the
checkout's ``src``, runs the pool's first item once untimed, prints ``ready``
and then, depending on the mode:

* ``setup``: exits (run.py times launch-to-ready);
* ``run``: sweeps the item pool in passes, timing each item, until the run
  time is spent and the minimum number of passes is done;
* ``trace``: alternates untraced and traced passes (and, for cli_detect,
  passes of the CLI as a process), recording spans in the traced ones.

Results go to <workdir>/result.json; the traced run's spans to
<workdir>/spans.json.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracing

CHILD_TIMEOUT_S = 60


def canonical(payload: dict) -> str:
    """Output compared across passes; timings_ms is telemetry and optional."""
    payload = dict(payload)
    payload.pop("timings_ms", None)
    return json.dumps(payload, sort_keys=True)


def entry_cert_dict(cert):
    if cert is None:
        return None
    spec = cert.witness_spec
    return {
        "n": cert.n,
        "k_indices": list(cert.k_indices),
        "h_indices": list(cert.h_indices),
        "pi1": list(cert.pi1.image),
        "sigma1": list(cert.sigma1.image),
        "value": cert.value,
        "witness": {"type": "kps", "n": spec.n, "kappa": list(spec.kappa.image),
                    "pi": list(spec.pi.image), "sigma": list(spec.sigma.image),
                    "dim_h": spec.dims.dim_h, "dim_k": spec.dims.dim_k},
    }


class Runner:
    """Runs item i of the pool; returns (canonical output, seconds timed)."""

    def __init__(self, workload, manifest, workdir, root):
        import witnesskit as wk
        from witnesskit import cli

        self.wk, self.cli = wk, cli
        # bound now, before tracing starts: the benchmark's own serialisation
        # of a detect() report is not part of the item
        self.report_to_dict = wk.report_to_dict
        self.workload, self.workdir = workload, workdir
        self.items = manifest["items"]
        self.child_env = dict(os.environ, PYTHONPATH=str(root / "src"))
        states = manifest["states"]
        if states and workload != "cli_detect":
            mats = np.load(workdir / "states.npz")
            self.rhos = [
                wk.DensityMatrix(wk.BipartiteDims(*s["dims"]), s["ordering"], mats[f"s{i}"])
                for i, s in enumerate(states)
            ]

    def fresh(self, name):
        """An output path with no file behind it. Truncating an existing file
        makes ext4 flush it on close (auto_da_alloc), tens of ms of disk
        latency that a fresh file does not pay."""
        path = self.workdir / name
        path.unlink(missing_ok=True)
        return path

    def path(self, i):
        return str(self.workdir / f"state_{self.items[i]['state']}.json")

    def __call__(self, i, in_process=False):
        item, clock = self.items[i], time.perf_counter
        if self.workload == "detect_mixed":
            rho = self.rhos[item["state"]]
            t0 = clock()
            report = self.wk.detect(rho)
            dt = clock() - t0
            return canonical(self.report_to_dict(report)), dt
        if self.workload == "entry_large_n":
            rho = self.rhos[item["state"]]
            t0 = clock()
            cert = self.wk.entry_search(rho, item["n"], item["mode"])
            dt = clock() - t0
            return json.dumps(entry_cert_dict(cert), sort_keys=True), dt
        if self.workload == "scan_family":
            out = self.fresh(f"scan_{i}.json")
            t0 = clock()
            rc = self.cli.main(item["argv"] + ["--out", str(out)])
            dt = clock() - t0
            if rc != 0:
                raise RuntimeError(f"scan exited {rc}")
            return canonical(json.loads(out.read_text())), dt
        if in_process:
            out = self.fresh(f"detect_{i}.json")
            t0 = clock()
            rc = self.cli.main(["detect", self.path(i), "--out", str(out)])
            dt = clock() - t0
            if rc != 0:
                raise RuntimeError(f"cli.main detect exited {rc}")
            return canonical(json.loads(out.read_text())), dt
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, "-m", "witnesskit.cli", "detect", self.path(i)],
            capture_output=True, text=True, env=self.child_env, timeout=CHILD_TIMEOUT_S,
        )
        dt = clock() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"detect exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return canonical(json.loads(proc.stdout)), dt


class Ledger:
    """Per-item outputs across passes: the first output is the reference."""

    def __init__(self, n):
        self.first = [None] * n
        self.attempts = [0] * n
        self.errors = [[] for _ in range(n)]
        self.mismatches = [0] * n
        self.latencies = []          # (item, seconds) of every timed attempt

    def sweep(self, runner, label=None, **kw):
        """One pass over the pool; returns the timed seconds of the pass."""
        total = 0.0
        for i in range(len(self.first)):
            if label is not None:
                label.item = i
            self.attempts[i] += 1
            try:
                out, dt = runner(i, **kw)
            except Exception as exc:  # any failure of the program is a failed item
                self.errors[i].append(f"{type(exc).__name__}: {exc}")
                continue
            total += dt
            self.latencies.append((i, dt))
            if self.first[i] is None:
                self.first[i] = out
            elif out != self.first[i]:
                self.mismatches[i] += 1
        return total


def main():
    workdir, mode = Path(sys.argv[1]), sys.argv[2]
    root = Path(__file__).resolve().parent.parent
    manifest = json.loads((workdir / "manifest.json").read_text())
    sys.path.insert(0, str(root / "src"))
    workload = manifest["workload"]
    runner = Runner(workload, manifest, workdir, root)
    if not Path(runner.wk.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"witnesskit imported from {runner.wk.__file__}, not this checkout")
    runner(0)  # warm-up item, untimed and unchecked
    print("ready", flush=True)
    if mode == "setup":
        return

    seconds, min_passes = manifest["seconds"], manifest["min_passes"]
    hard_limit = max(3 * seconds, seconds + 30)
    ledger = Ledger(len(manifest["items"]))
    result = {"passes": 0}
    t_loop = time.perf_counter()

    def spent():
        elapsed = time.perf_counter() - t_loop
        return (elapsed >= seconds and result["passes"] >= min_passes) or elapsed >= hard_limit

    if mode == "run":
        while not spent():
            ledger.sweep(runner)
            result["passes"] += 1
        usage = resource.RUSAGE_CHILDREN if workload == "cli_detect" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    else:
        tracer = tracing.Tracer()
        tracer.install()
        plain, traced, process, layers, spans = [], [], [], [], []
        while not spent():
            if workload == "cli_detect":
                tracer.active = False
                process.append(ledger.sweep(runner))
                plain.append(ledger.sweep(runner, in_process=True))
                tracer.active = True
                traced.append(ledger.sweep(runner, label=tracer, in_process=True))
            else:
                tracer.active = False
                plain.append(ledger.sweep(runner))
                tracer.active = True
                traced.append(ledger.sweep(runner, label=tracer))
            pass_spans = tracer.take()
            layers.append(tracing.layer_metrics(pass_spans))
            spans.append(pass_spans)
            result["passes"] += 1
        tracer.uninstall()
        per_layer = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
        n = len(manifest["items"])
        per_layer["cli.process_overhead_ms"] = (
            statistics.median((p - q) / n * 1e3 for p, q in zip(process, plain))
            if process else 0.0)
        per_layer["trace.overhead_pct"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
        result["per_layer"] = per_layer
        (workdir / "spans.json").write_text(json.dumps(spans))

    result.update(
        first=ledger.first, attempts=ledger.attempts, errors=ledger.errors,
        mismatches=ledger.mismatches, latencies=ledger.latencies,
    )
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
