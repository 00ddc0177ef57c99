"""Command-line surface.

Commands::

    witnesskit detect <state.json>      run every criterion, print a report
    witnesskit example <name> ...       emit a state file (e34, e35, max_ent, pure)
    witnesskit witness ...              emit a witness file (rank4 or kps)
    witnesskit scan ...                 tabulate criteria over a parameter grid
    witnesskit selfcheck                run the acceptance suite

``detect`` and ``scan`` share one criteria pass (``scan_criteria``):
``detect`` runs it on one state and adds the distill search; ``scan``
builds and domain-checks every grid state before any criterion runs, then
runs the grid through it as one stack (one batched eigvalsh of the states
and one of their partial transposes, one batched SVD, one exact entry sweep
per n, in blocks of 512 points) and tabulates the values and verdicts it
reports. The parser is built once per process and the acceptance suite is
imported only by ``selfcheck``.

Exit codes: 0 the command ran (verdicts never drive exit codes), 2 input or
validation error, 3 internal numerical failure. JSON output is byte-stable
(sorted keys, fixed indentation) and serializes complex numbers as
[re, im] pairs. The WITNESSKIT_SEED environment variable supplies the
default seed of ``detect`` and ``example pure``; an explicit --seed wins.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, states
from .detection import DetectConfig, detect, report_to_dict, scan_criteria
from .states import BipartiteDims, DomainError, FormatError, H_MAJOR, ORDERINGS
from .witnesses import Permutation, WitnessSpec, rank4_witness, witness_kps, witness_to_dict


def _write(text: str, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _emit(payload: dict, out_path):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _load_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _resolve_seed(flag_value):
    if flag_value is not None:
        return flag_value
    env = os.environ.get("WITNESSKIT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"WITNESSKIT_SEED must be an integer, got {env!r}") from None


def _floats(text: str, n: int, name: str):
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{name} needs {n} comma-separated numbers, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"{name} contains a non-numeric entry: {text!r}") from None


def _ints(text: str, name: str):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"{name} contains a non-integer entry: {text!r}") from None


def _dims(text: str) -> BipartiteDims:
    vals = _ints(text, "--dims")
    if len(vals) != 2:
        raise ValueError(f"--dims needs two comma-separated integers, got {text!r}")
    return BipartiteDims(vals[0], vals[1])


# ----------------------------------------------------------------- detect

def cmd_detect(args) -> int:
    seed = _resolve_seed(args.seed)
    config = DetectConfig(n_cap=args.n_cap, distill_restarts=args.restarts, seed=seed)
    rho = states.state_from_dict(_load_json(args.state))
    report = detect(rho, config)
    payload = report_to_dict(report)
    payload["version"] = __version__
    payload["config"] = {
        "command": "detect",
        "n_cap": config.n_cap,
        "distill_restarts": config.distill_restarts,
        "seed": config.seed,
        "dim_h": rho.dims.dim_h,
        "dim_k": rho.dims.dim_k,
    }
    if args.format == "json":
        _emit(payload, args.out)
    else:
        lines = [
            f"verdict: {report.verdict}",
            f"fired: {', '.join(report.fired) if report.fired else '(none)'}",
            f"ppt min eigenvalue: {report.ppt_min_eig:.12g}",
            f"ccnr trace norm: {report.ccnr_norm:.12g}",
        ]
        if report.entry_best is not None:
            c = report.entry_best
            lines.append(
                f"entry certificate: value {c.value:.12g} at n={c.n}, "
                f"k={list(c.k_indices)}, h={list(c.h_indices)}"
            )
        if report.distill_best is not None:
            lines.append(f"distill certificate: value {report.distill_best.value:.12g}")
        _write("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- example

def cmd_example(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.name == "e34":
        q = _floats(args.q or "0.2,0.1,0.7", 3, "--q")
        abc = _floats(args.abc or "0.05,0.05,0.05", 3, "--abc")
        rho = states.example_34(q[0], q[1], q[2], abc[0], abc[1], abc[2])
    elif args.name == "e35":
        q = _floats(args.q or "0.05,0.1,0.425,0.425", 4, "--q")
        abcd = _floats(args.abcd or "0.025,0.025,0.025,0.025", 4, "--abcd")
        rho = states.example_35(q[0], q[1], q[2], q[3], *abcd)
    elif args.name == "max_ent":
        dims = _dims(args.dims) if args.dims else BipartiteDims(args.n, args.n)
        rho = states.maximally_entangled(args.n, dims)
    elif args.name == "pure":
        dims = _dims(args.dims) if args.dims else BipartiteDims(2, 2)
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((dims.dim_h, dims.dim_k)) + 1j * rng.standard_normal(
            (dims.dim_h, dims.dim_k)
        )
        coeffs /= np.linalg.norm(coeffs)
        rho = states.PureState(dims, coeffs).density()
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown example {args.name!r}")
    _emit(states.state_to_dict(rho), args.out)
    return 0


# ---------------------------------------------------------------- witness

def cmd_witness(args) -> int:
    dims = _dims(args.dims)
    if args.ordering not in ORDERINGS:
        raise ValueError(f"--ordering must be one of {ORDERINGS}")
    if args.type == "rank4":
        w = rank4_witness(dims, args.ordering)
    else:
        if args.kappa is None:
            raise ValueError("--type kps requires --kappa")
        kappa = Permutation(_ints(args.kappa, "--kappa"))
        n = args.n if args.n is not None else kappa.n
        pi = Permutation(_ints(args.pi, "--pi")) if args.pi else Permutation.identity(n)
        sigma = Permutation(_ints(args.sigma, "--sigma")) if args.sigma else Permutation.identity(n)
        spec = WitnessSpec(n, kappa, pi, sigma, dims)
        w = witness_kps(spec, args.ordering)
    _emit(witness_to_dict(w, include_matrix=args.with_matrix), args.out)
    return 0


# ------------------------------------------------------------------- scan

_SCAN_PARAMS = {
    "e34": (("q1", "q2", "q3"), ("a", "b", "c")),
    "e35": (("q1", "q2", "q3", "q4"), ("a", "b", "c", "d")),
}


def _family_state(family, params):
    if family == "e34":
        return states.example_34(
            params["q1"], params["q2"], params["q3"], params["a"], params["b"], params["c"]
        )
    return states.example_35(
        params["q1"], params["q2"], params["q3"], params["q4"],
        params["a"], params["b"], params["c"], params["d"],
    )


def cmd_scan(args) -> int:
    family = args.family
    qnames, anames = _SCAN_PARAMS[family]
    nq = len(qnames)
    q = _floats(args.q, nq, "--q") if args.q else [1.0 / nq] * nq
    amps_text = args.abc if family == "e34" else args.abcd
    amps = _floats(amps_text, nq, "--abc(d)") if amps_text else [0.0] * nq
    base = dict(zip(qnames, q)) | dict(zip(anames, amps))

    # Every grid state is built (and domain-checked) before any criterion
    # runs; the criteria then take the whole grid as one stack.
    if args.vary is None:
        grid = [base]
        rhos = [_family_state(family, base)]
    else:
        if args.vary not in qnames[:-1]:
            raise ValueError(
                f"--vary must be one of {qnames[:-1]} (the last weight absorbs the rest)"
            )
        if args.range is None:
            raise ValueError("--vary requires --range start,stop,count")
        parts = args.range.split(",")
        if len(parts) != 3:
            raise ValueError("--range needs start,stop,count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 0:
            raise ValueError(f"--range count must be >= 0, got {count}")
        grid, rhos = [], []
        for v in np.linspace(start, stop, count):
            params = dict(base)
            params[args.vary] = float(v)
            params[qnames[-1]] = 1.0 - sum(params[name] for name in qnames[:-1])
            try:
                rhos.append(_family_state(family, params))
            except DomainError as exc:
                raise DomainError(f"grid point {args.vary} = {v:.6g} is invalid: {exc}") from exc
            grid.append(params)

    rows = []
    for params, report in zip(grid, scan_criteria(rhos)):
        row = {k: round(v, 15) for k, v in params.items()}
        row.update(
            ppt_min_eig=report.ppt_min_eig,
            ccnr_trace_norm=report.ccnr_norm,
            entry_value=None if report.entry_best is None else report.entry_best.value,
            verdict=report.verdict,
        )
        rows.append(row)

    if args.format == "json":
        payload = {
            "version": __version__,
            "config": {
                "command": "scan", "family": family, "base": base,
                "vary": args.vary, "range": args.range,
            },
            "rows": rows,
        }
        _emit(payload, args.out)
    else:
        cols = list(qnames) + list(anames) + [
            "ppt_min_eig", "ccnr_trace_norm", "entry_value", "verdict",
        ]
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join("" if row[c] is None else str(row[c]) for c in cols))
        _write("\n".join(lines) + "\n", args.out)
    return 0


# -------------------------------------------------------------- selfcheck

def cmd_selfcheck(args) -> int:
    from . import selfcheck  # only this command needs the acceptance suite

    results = selfcheck.run_all(printer=lambda line: print(line))
    return 0 if all(passed for _, passed, _, _ in results) else 1


# ------------------------------------------------------------------ main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it
    unchanged, so every call can share it)."""
    p = argparse.ArgumentParser(
        prog="witnesskit",
        description="Entanglement detection for bipartite density matrices.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("detect", help="run every criterion against a state file")
    d.add_argument("state", help="state JSON path, or - for stdin")
    d.add_argument("--n-cap", type=int, default=6,
                   help="largest exact entry-search block, 2..8 (default 6)")
    d.add_argument("--restarts", type=int, default=20,
                   help="distill search restarts, 1..1000 (default 20)")
    d.add_argument("--seed", type=int, default=None, help="search seed (default WITNESSKIT_SEED or 0)")
    d.add_argument("--format", choices=("json", "text"), default="json")
    d.add_argument("--out", default=None, help="output path (default stdout)")
    d.set_defaults(func=cmd_detect)

    e = sub.add_parser("example", help="emit a state file from a built-in family")
    e.add_argument("name", choices=("e34", "e35", "max_ent", "pure"))
    e.add_argument("--q", default=None, help="weights, comma separated")
    e.add_argument("--abc", default=None, help="e34 amplitudes a,b,c")
    e.add_argument("--abcd", default=None, help="e35 amplitudes a,b,c,d")
    e.add_argument("--n", type=int, default=2, help="rank for max_ent (default 2)")
    e.add_argument("--dims", default=None, help="dim_h,dim_k for max_ent/pure")
    e.add_argument("--seed", type=int, default=None, help="seed for pure")
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_example)

    w = sub.add_parser("witness", help="emit a witness file")
    w.add_argument("--type", choices=("rank4", "kps"), required=True)
    w.add_argument("--dims", required=True, help="dim_h,dim_k")
    w.add_argument("--n", type=int, default=None)
    w.add_argument("--kappa", default=None, help="kappa images, comma separated")
    w.add_argument("--pi", default=None, help="pi images (default identity)")
    w.add_argument("--sigma", default=None, help="sigma images (default identity)")
    w.add_argument("--ordering", default=H_MAJOR, help="h_major or k_major (default h_major)")
    w.add_argument("--with-matrix", action="store_true", help="include the realized matrix")
    w.add_argument("--out", default=None)
    w.set_defaults(func=cmd_witness)

    s = sub.add_parser("scan", help="tabulate criteria over a parameter grid")
    s.add_argument("--family", choices=("e34", "e35"), required=True)
    s.add_argument("--q", default=None, help="base weights (default uniform)")
    s.add_argument("--abc", default=None, help="e34 base amplitudes (default zeros)")
    s.add_argument("--abcd", default=None, help="e35 base amplitudes (default zeros)")
    s.add_argument("--vary", default=None, help="weight to sweep (the last one absorbs)")
    s.add_argument("--range", default=None, help="start,stop,count")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_scan)

    c = sub.add_parser("selfcheck", help="run the acceptance suite")
    c.set_defaults(func=cmd_selfcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FormatError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
