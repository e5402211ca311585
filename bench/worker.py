"""One benchmark process: set-up, then whole rounds in a closed loop.

Started by ``run.py`` in a fresh interpreter, so that its set-up time and
peak memory belong to one workload and none of the checkers.  It writes a
summary file, plus one file per distinct report for the checks, and with
``--trace`` the spans of every call into the program's layers.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import inspect
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("exactnum", "srg", "at4", "higman", "graphcheck", "cli")
# functions whose largest argument, in bits, is a per-layer metric
ARG_BITS = ("exactnum.divisors", "exactnum.factorize")
# An oversize graph header makes the program allocate from the header; the
# cap turns that into a prompt MemoryError instead of touching the memory.
ADDRESS_SPACE_CAP = 3 << 30


class Tracer:
    """Spans around every public function of the six layers, kept in memory.

    A span is (name, start_ns, end_ns, parent index or -1).  The wrappers
    replace each function everywhere the package binds it, since the
    modules import one another's functions by name.
    """

    def __init__(self):
        self.spans: list = []
        self.max_bits: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        bits = self.max_bits if name in ARG_BITS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if bits is not None:
                bits[name] = max(bits[name], args[0].bit_length())
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"at4tools.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self.wrap(f"{layer}.{name}", fn)
        for mod in [*modules.values(), importlib.import_module("at4tools")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

        # feasible_r constructs At4Params directly and catches the rejections
        params = modules["at4"].At4Params
        check = params.__post_init__
        counts = self.counts

        def counted(obj):
            counts["at4.params_attempts"] += 1
            try:
                check(obj)
            except ValueError:
                counts["at4.params_rejected"] += 1
                raise

        params.__post_init__ = counted

    def totals(self, first: int, last: int) -> Counter:
        """Calls and self time per layer and per function over spans[first:last]."""
        spans = self.spans
        self_ns = [end - start for _, start, end, _ in spans[first:last]]
        for i in range(first, last):
            _, start, end, parent = spans[i]
            if parent >= first:
                self_ns[parent - first] -= end - start
        out = Counter()
        for (name, *_), ns in zip(spans[first:last], self_ns):
            layer = name.split(".", 1)[0]
            for key in (layer, name):
                out[f"{key}.calls"] += 1
                out[f"{key}.self_ms"] += ns / 1e6
        return out

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def probe() -> float:
    """Time of a fixed pure-Python loop: the host's speed at this moment.

    It runs before every operation and around the set-up, outside the
    timed regions; run.py scales times by it."""
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def run_op(cli, argv) -> tuple[float, int | None, str | None, str]:
    """Run one report; an operation that raises counts as failed."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        rc, error = cli.main(argv, out=buf), None
    except Exception as exc:  # the loop must go on; the error type is reported
        rc, error = None, type(exc).__name__
    return time.perf_counter() - start, rc, error, buf.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    args.workdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))

    setup_probes = [probe() for _ in range(5)]
    t0 = time.perf_counter()
    import at4tools.cli as cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    ops, warmup = workloads.build(args.workload, args.seed, args.workdir / "inputs")
    run_op(cli, warmup["argv"])
    setup_s = time.perf_counter() - t0
    setup_probes += [probe() for _ in range(5)]
    summary = {"setup_s": setup_s, "setup_probe_s": statistics.median(setup_probes)}
    if args.setup_only:
        (args.workdir / "summary.json").write_text(json.dumps(summary))
        return 0

    mark = len(tracer.spans) if tracer else 0
    setup_counts = Counter(tracer.counts) if tracer else Counter()
    seen: dict = {}
    outcomes, latencies, probes = [], [], []
    failed = out_chars = rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        for i, op in enumerate(ops):
            probes.append(probe())
            dt, rc, error, text = run_op(cli, op["argv"])
            latencies.append(dt)
            failed += error is not None
            out_chars += len(text)
            # every distinct outcome of an operation is kept for the checks;
            # a repeat is byte-identical to one that is checked
            key = (i, rc, error, hashlib.sha1(text.encode()).hexdigest())
            if key not in seen:
                seen[key] = path = args.workdir / f"out-{len(seen)}.txt"
                path.write_text(text, encoding="utf-8")
                outcomes.append({"op": i, "rc": rc, "error": error, "file": path.name})
        rounds += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    summary.update(
        rounds=rounds,
        attempted=len(latencies),
        failed=failed,
        latencies_s=latencies,
        probes_s=probes,
        peak_rss_mb=peak_kb * 1024 / 1e6,
        output_mb=out_chars / rounds / 1e6,
        ops=ops,
        outcomes=outcomes,
    )
    if tracer:
        # per-layer figures cover the set-up plus one round (the mean of the
        # measured rounds); the warm-up belongs to the set-up
        setup, measured = tracer.totals(0, mark), tracer.totals(mark, len(tracer.spans))
        counts = tracer.counts
        layers = {k: setup[k] + measured[k] / rounds for k in setup.keys() | measured.keys()}
        for k in ("at4.params_attempts", "at4.params_rejected"):
            layers[k] = setup_counts[k] + (counts[k] - setup_counts[k]) / rounds
        for name in ARG_BITS:
            layers[f"{name}.max_bits"] = tracer.max_bits[name]
        summary["layers"] = layers
        tracer.write(
            args.workdir / "trace.jsonl",
            {"workload": args.workload, "seed": args.seed, "measured_from": mark, "rounds": rounds},
        )
    (args.workdir / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
