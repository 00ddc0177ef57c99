"""What the benchmark measures: workloads, metric names and units, predictions.

This module is the single source of the names printed by ``run.py``. The
root ``BENCHMARK.json`` mirrors the workload and metric lists, and
``run.py --self-test`` fails when the two disagree.
"""

WORKLOADS = {
    "cli_detect": (
        "witnesskit detect as a process on state files, 2x2..7x7 plus the "
        "paper points: interpreter start, scipy import, JSON parse and emit"
    ),
    "detect_mixed": (
        "in-process detect() on seeded 2x2..7x7 states, full-rank, low-rank "
        "and separable: distill search and Jacobi eigensolves dominate"
    ),
    "scan_family": (
        "scan over e34/e35 weight grids: distill bypassed, small-n exact "
        "entry search and 9x9/16x16 eigensolves dominate"
    ),
    "entry_large_n": (
        "entry_search exact and heuristic at n=6..8 on 7x7 and 8x8 states: "
        "the n! enumeration that detect() never reaches"
    ),
}

# (name, unit, better, bound). The bound is the share of the parent's median
# by which a metric may worsen before a change counts as a regression. On a
# shared 2-vCPU host the machine's speed drifts between runs (quartile
# spreads over ten seeds of 0.02-0.06 in quiet periods, up to 0.16 for
# cli_detect when the host slowed), so every timing gets the largest bound
# allowed; peak RSS does not drift (spread 0.003).
END_TO_END = [
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Reported on every run next to the metrics above but not compared by bound:
# error_rate is zero on a correct program (failures show as `failed`), and the
# two fractions are defined on some workloads only.
QUALITY = [
    ("error_rate", "1", "lower"),
    ("detected_frac", "1", "higher"),
    ("heuristic_match_frac", "1", "higher"),
]
QUALITY_WORKLOADS = {
    "error_rate": tuple(WORKLOADS),
    "detected_frac": ("cli_detect", "detect_mixed", "scan_family"),
    "heuristic_match_frac": ("entry_large_n",),
}

ENTRY_MODES_N = [("exact", n) for n in range(2, 9)] + [("heuristic", n) for n in range(6, 9)]

# Per-layer metrics of the traced run, each a median over traced passes of
# the per-pass value (one pass = one sweep over the workload's item pool).
PER_LAYER = (
    [
        ("numkit.hermitian_eigenvalues.calls", "count"),
        ("numkit.hermitian_eigenvalues.self_ms", "ms"),
        ("numkit.hermitian_eigenvalues.max_order", "order"),
        ("numkit.singular_values.calls", "count"),
        ("numkit.singular_values.self_ms", "ms"),
        ("numkit.hermitian_eigensystem.calls", "count"),
        ("numkit.hermitian_eigensystem.self_ms", "ms"),
        ("states.partial_transpose_first.calls", "count"),
        ("states.partial_transpose_first.self_ms", "ms"),
        ("states.realignment.calls", "count"),
        ("states.realignment.self_ms", "ms"),
        ("states.reorder.calls", "count"),
        ("states.reorder.self_ms", "ms"),
        ("states.example_34.self_ms", "ms"),
        ("states.example_35.self_ms", "ms"),
        ("states.state_from_dict.ms", "ms"),
        ("states.validate.self_ms", "ms"),
        ("detection.detect.ms", "ms"),
        ("detection.ppt_check.self_ms", "ms"),
        ("detection.ccnr_check.self_ms", "ms"),
        ("detection.distill_search.calls", "count"),
        ("detection.distill_search.self_ms", "ms"),
        ("detection.distill_search.ms_per_restart", "ms"),
        ("detection.distill_search.hit_ratio", "1"),
        ("witnesses.rotated_rank4_value.calls", "count"),
        ("witnesses.rotated_rank4_value.self_ms", "ms"),
    ]
    + [
        (f"detection.entry_search.{mode}.n{n}.{what}", unit)
        for mode, n in ENTRY_MODES_N
        for what, unit in (("calls", "count"), ("ms", "ms"))
    ]
    + [
        ("detection.entry_search.hit_ratio", "1"),
        ("detection.assignment_min_forbidden.calls", "count"),
        ("detection.assignment_min_forbidden.self_ms", "ms"),
        ("detection.report_to_dict.ms", "ms"),
        ("cli.main.ms", "ms"),
        ("cli.process_overhead_ms", "ms"),
        ("import.numpy_ms", "ms"),
        ("import.scipy_optimize_ms", "ms"),
        ("import.witnesskit_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ]
)

def per_layer_better(name):
    return "higher" if name.endswith("hit_ratio") else "lower"


# Written down before any optimisation: which end-to-end metric a per-layer
# metric should move, on which workloads, and where it should not move.
PREDICTIONS = [
    {
        "layer": ["numkit.hermitian_eigenvalues.*", "numkit.singular_values.self_ms"],
        "moves": ["latency_p50_ms", "throughput_per_s"],
        "on": ["detect_mixed", "scan_family", "cli_detect"],
        "no_change_on": ["entry_large_n"],
    },
    {
        "layer": ["numkit.hermitian_eigensystem.*"],
        "moves": ["latency_p50_ms"],
        "on": ["detect_mixed"],
        "no_change_on": ["scan_family", "entry_large_n"],
    },
    {
        "layer": ["states.partial_transpose_first.*", "states.realignment.*", "states.reorder.*"],
        "moves": ["latency_p50_ms"],
        "on": ["detect_mixed"],
        "no_change_on": ["entry_large_n"],
    },
    {
        "layer": ["states.example_34.self_ms", "states.example_35.self_ms"],
        "moves": ["throughput_per_s"],
        "on": ["scan_family"],
        "no_change_on": ["detect_mixed", "entry_large_n"],
    },
    {
        "layer": ["states.state_from_dict.ms", "states.validate.self_ms"],
        "moves": ["latency_p50_ms"],
        "on": ["cli_detect"],
        "no_change_on": ["detect_mixed", "scan_family", "entry_large_n"],
    },
    {
        "layer": ["detection.ppt_check.self_ms", "detection.ccnr_check.self_ms"],
        "moves": ["latency_p50_ms"],
        "on": ["detect_mixed"],
        "no_change_on": ["entry_large_n"],
    },
    {
        "layer": ["detection.distill_search.*", "witnesses.rotated_rank4_value.*"],
        "moves": ["latency_p50_ms", "latency_tail_ms"],
        "on": ["detect_mixed", "cli_detect"],
        "no_change_on": ["scan_family", "entry_large_n"],
    },
    {
        "layer": [
            "detection.entry_search.*",
            "detection.assignment_min_forbidden.*",
        ],
        "moves": ["throughput_per_s", "heuristic_match_frac"],
        "on": ["entry_large_n", "scan_family (small n)"],
        "no_change_on": ["detect_mixed"],
    },
    {
        "layer": ["detection.report_to_dict.ms", "cli.main.ms", "cli.process_overhead_ms"],
        "moves": ["latency_p50_ms"],
        "on": ["cli_detect"],
        "no_change_on": ["detect_mixed", "entry_large_n"],
    },
    {
        "layer": ["import.numpy_ms", "import.scipy_optimize_ms", "import.witnesskit_ms"],
        "moves": ["setup_s (every workload)", "latency_p50_ms"],
        "on": ["cli_detect"],
        "no_change_on": ["throughput_per_s of the in-process workloads"],
    },
]
