"""Benchmark of the at4 reports: one workload per call, checked and measured.

    python3 bench/run.py --workload {scan-sweep,single-p,graph-check} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload runs in a fresh worker process
(``worker.py``) that imports ``at4tools`` from ``src``, builds the seeded
inputs, warms up with one operation and then runs whole rounds of
operations through ``at4tools.cli.main`` in a closed loop, one at a time,
until ``--seconds`` have passed.  This process then checks every report
(``checks.py``) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics: the end-to-end ones
with ``--trace 0`` and the per-layer ones, from spans around every call into
the six layers, with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"
# Set-up is timed in the measuring worker and in this many set-up-only
# workers before it and after it; the median is reported.  Samples taken
# half a minute apart vary less together than samples taken back to back.
SETUP_SAMPLES_AROUND = 4
BUDGET_S = 170
# Times are scaled to a host on which the probe loop of worker.py takes
# PROBE_REF_S: the latencies of each round by the median probe of that
# round, each set-up by the probes around it.  On a shared host the speed of
# the same code drifts by a fifth over minutes, and the probe follows it.
PROBE_REF_S = 0.002

LAYERS = ("exactnum", "srg", "at4", "higman", "graphcheck", "cli")
FUNCTIONS = (
    "at4.feasible_r",
    "higman.alpha1_candidates",
    "higman.centralizer_filter",
    "higman.block_size_filter",
    "exactnum.divisors",
    "exactnum.factorize",
    "exactnum.primes_upto",
    "exactnum.is_prime",
    "graphcheck.parse_graph",
    "graphcheck.verify_srg",
    "graphcheck.verify_drg",
    "graphcheck.is_automorphism",
    "graphcheck.alpha_profile",
    "graphcheck.generate_gewirtz",
    "graphcheck.gewirtz_automorphisms",
)
PER_LAYER_UNITS = {
    **{f"{name}.{field}": unit for name in LAYERS + FUNCTIONS for field, unit in (("calls", "count"), ("self_ms", "ms"))},
    "at4.params_attempts": "count",
    "at4.params_rejected": "count",
    "exactnum.divisors.max_bits": "bits",
    "exactnum.factorize.max_bits": "bits",
    "traced_ops_per_s": "ops/s",
}


def _worker(args, workdir: Path, deadline: float, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # subprocess.run kills the worker and waits for it when the time is up
    subprocess.run(cmd, check=True, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads((workdir / "summary.json").read_text())


def _scaled_latencies(summary: dict) -> list[float]:
    n, lat, probes = len(summary["ops"]), summary["latencies_s"], summary["probes_s"]
    out = []
    for start in range(0, len(lat), n):
        scale = PROBE_REF_S / statistics.median(probes[start : start + n])
        out += [x * scale for x in lat[start : start + n]]
    return out


def _end_to_end(summary: dict, setups: list[dict]) -> dict:
    lat = _scaled_latencies(summary)
    return {
        "setup_s": (statistics.median(s["setup_s"] * PROBE_REF_S / s["setup_probe_s"] for s in setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        "output_mb": (summary["output_mb"], "MB"),
    }


def _per_layer(summary: dict) -> dict:
    layers = summary["layers"]
    lat = _scaled_latencies(summary)
    layers["traced_ops_per_s"] = len(lat) / sum(lat)
    return {name: (layers.get(name, 0), unit) for name, unit in PER_LAYER_UNITS.items()}


def _check(summary: dict, workdir: Path) -> list[str]:
    import checks  # sympy and networkx load here, after the measurement

    problems = []
    for outcome in summary["outcomes"]:
        if outcome["error"] is not None:
            continue
        op = summary["ops"][outcome["op"]]
        text = (workdir / outcome["file"]).read_text(encoding="utf-8")
        found = checks.check(op, outcome["rc"], text)
        problems += [f"{' '.join(op['argv'][3:])}: {p}" for p in found]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "at4tools" / "__init__.py").is_file():
        print(f"error: no at4tools sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rundir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        def setup_samples(tag: str) -> list[float]:
            if args.trace:
                return []
            return [
                _worker(args, rundir / f"setup-{tag}{i}", deadline, setup_only=True)
                for i in range(SETUP_SAMPLES_AROUND)
            ]

        setup = setup_samples("before")
        workdir = rundir / "run"
        summary = _worker(args, workdir, deadline)
        setup.append(summary)
        problems = _check(summary, workdir)
        setup += setup_samples("after")
        if args.trace:
            shutil.move(workdir / "trace.jsonl", RUNS / f"trace-{args.workload}.jsonl")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = _per_layer(summary) if args.trace else _end_to_end(summary, setup)
    result = {
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for p in problems[:20]:
        print(f"wrong: {p}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {summary['rounds']} rounds, "
        f"{summary['attempted']} operations attempted, {summary['failed']} failed, "
        f"{len(problems)} problems in the reports"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    lat = summary["latencies_s"]
    print(
        f"  unscaled: {len(lat) / sum(lat):.4f} ops/s, p50 {statistics.median(lat) * 1e3:.4f} ms; "
        f"median probe {statistics.median(summary['probes_s']) * 1e3:.4f} ms, reference {PROBE_REF_S * 1e3} ms"
    )
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
