"""adaedit benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload edit-default --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

The client sends the next request only after the previous one returned. A
run makes its inputs from --seed, sends one warm-up request, then measures
for --seconds. Every request's outputs are checked against the digests
pinned in bench/refs/. With --trace 0 the run prints the end-to-end metrics;
with --trace 1 it splits --seconds between an untraced and a traced window
and prints the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Details of each run (environment, every metric, failures) go to
.bench_work/ in the checkout. Workloads, metrics and the layer map are
described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import bootstrap  # first: pins the BLAS threads before numpy loads
from hostspeed import SETUP_REFERENCE, SETUP_REFERENCE_S, HostSpeed, Ticker

END_TO_END = {
    "edits_per_s": "edit/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics printed and saved but left out of the final JSON line:
# they are exactly 0 on the edit workloads, which never enter the cli layer.
PRINT_ONLY = ("cli.self_ms_per_request", "cli.bytes_written_per_request")

SETUP_PROBES = 5
READY = "bench: ready"


@dataclass
class Window:
    """What one timed window of closed-loop requests produced."""

    requests: int = 0
    edits: int = 0
    failed: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    result_evals: float = 0.0
    bytes_written: int = 0
    elapsed: List[float] = field(default_factory=list)  # seconds per request
    ok: List[bool] = field(default_factory=list)
    # reference-host seconds per second of this host during each request,
    # and the number of ticks that went into it (see hostspeed.py)
    speed: List[float] = field(default_factory=list)
    ticks: List[int] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def _times(self, scaled: bool) -> List[float]:
        if not scaled:
            return list(self.elapsed)
        return [e * f for e, f in zip(self.elapsed, self.speed)]

    def edits_per_s(self, scaled: bool = True) -> float:
        busy = sum(self._times(scaled))
        return self.edits / busy if busy else math.nan

    def latency_ms(self, q: float, scaled: bool = True) -> float:
        """Quantile of request time; a failed request misses every limit."""
        times = [t if ok else math.inf for t, ok in zip(self._times(scaled), self.ok)]
        return quantile(times, q) * 1e3


class Client:
    """Sends a workload's requests in pool order and checks each reply."""

    def __init__(self, workload, seed: int, host: HostSpeed, tracer=None):
        self.workload = workload
        self.seed = seed
        self.host = host
        self.tracer = tracer
        self.state = workload.setup(bootstrap.WORKDIR)
        self.refs = workload.load_refs()
        self.position = 0

    def send(self, window: Window, ticker: Optional[Ticker] = None) -> None:
        """One request. Its speed factor is the mean of the host-speed
        kernel run just before it and, with ``ticker``, of the ticks during
        it, whose time is left out of the request's."""
        index = self.workload.index(self.seed, self.position)
        self.position += 1
        tracer = self.tracer
        mismatches = len(tracer.mismatches) if tracer else 0
        reference = self.host.reference_s
        speeds = [reference / (ticker.sample() if ticker else self.host.sample())]
        first = len(ticker.ticks) if ticker else 0
        if tracer:
            tracer.begin_request(self.position)
        error = outcome = None
        # a failing request is counted, never fatal
        start = time.perf_counter()
        try:
            reply = self.workload.send(self.state, index)
        except Exception as exc:
            error = f"pool index {index}: {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        busy = end - start
        for tick_start, tick_end, kernel_s in (ticker.inside(start, end, first)
                                               if ticker else ()):
            busy -= tick_end - tick_start
            speeds.append(reference / kernel_s)
        window.elapsed.append(busy)
        window.speed.append(statistics.fmean(speeds))
        window.ticks.append(len(speeds) - 1)
        if tracer:
            tracer.end_request(window.speed[-1])
        if error is None:
            try:
                outcome = self.workload.check(self.state, reply)
            except Exception as exc:
                error = f"pool index {index}: {type(exc).__name__}: {exc}"
        if outcome is not None and outcome.digest != self.refs[index]:
            error = f"pool index {index}: output digest differs from the reference"
        if tracer and len(tracer.mismatches) > mismatches:
            error = f"pool index {index}: {tracer.mismatches[-1]}"
        window.requests += 1
        window.ok.append(error is None)
        if error is None:
            window.edits += outcome.edits
            window.result_evals += outcome.result_evals
            window.bytes_written += outcome.bytes_written
        else:
            window.failed += 1
            window.errors.append(error)

    def run(self, seconds: float, max_requests: Optional[int],
            ticker: Optional[Ticker] = None) -> Window:
        """Closed loop for ``seconds``."""
        window = Window()
        cpu0 = time.process_time()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            if max_requests is not None and window.requests >= max_requests:
                break
            self.send(window, ticker)
        window.wall = time.perf_counter() - start
        window.cpu = time.process_time() - cpu0
        return window


def quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:
        return ordered[lo] if pos == lo else math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def launch(cmd: List[str]) -> Tuple[float, str, str, int]:
    """Start ``cmd`` in a fresh process; return the seconds until its first
    line of output, that line, the rest of its output, and its exit code."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=bootstrap.ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait(timeout=120)
    return elapsed, line.strip(), rest, proc.returncode


def launch_reference() -> float:
    """Seconds the set-up reference process takes to its first output."""
    seconds, line, _, code = launch(
        [sys.executable, "-c", f"{SETUP_REFERENCE}; print({READY!r}, flush=True)"])
    if line != READY:
        raise RuntimeError(f"set-up reference exited {code} before it was ready")
    return seconds


def probe_setup(args) -> List[dict]:
    """Time ``args.probes`` fresh processes from launch to the moment each
    would send its first timed request: imports, inputs and one warm-up
    request. Each probe reports its warm-up request's time and speed factor
    and the time its ticks took; the host's speed factor for the rest comes
    from the set-up reference launched just before and just after it."""
    references = [launch_reference()]
    probes = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(args.probes):
        seconds, line, rest, code = launch(cmd)
        # a failed warm-up still counts as set-up; the run's own warm-up reports it
        if line != READY:
            raise RuntimeError(f"set-up probe exited {code} before it was ready")
        probes.append({"elapsed_s": seconds, **json.loads(rest)})
        references.append(launch_reference())
    for probe, before, after in zip(probes, references, references[1:]):
        probe["reference_speed"] = 2 * SETUP_REFERENCE_S / (before + after)
    return probes


def setup_seconds(probe: dict, scaled: bool) -> float:
    """One probe's set-up time, its ticks left out. Scaled, the part before
    the warm-up request runs at the set-up reference's speed factor and the
    warm-up at its own, like every timed request."""
    wall = probe["elapsed_s"] - probe["ticks_s"]
    if not scaled:
        return wall
    warmup = probe["warmup_s"]
    return (wall - warmup) * probe["reference_speed"] + warmup * probe["warmup_speed"]


def git_commit() -> str:
    if not (bootstrap.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    """Versions and settings that byte-determinism and timings depend on."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in bootstrap.BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def end_to_end_metrics(window: Window, setup_s: float, scaled: bool) -> dict:
    return {
        "edits_per_s": window.edits_per_s(scaled),
        "latency_p50_ms": window.latency_ms(0.5, scaled),
        "latency_p90_ms": window.latency_ms(0.9, scaled),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(args) -> int:
    bootstrap.prepare()
    from workloads import WORKLOADS

    logging.getLogger("adaedit").addHandler(logging.NullHandler())
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    host = HostSpeed(workload.host_kernel)
    client = Client(workload, args.seed, host, tracer)
    warmup = Window()
    if args.setup_probe:
        with Ticker(host) as ticker:
            client.send(warmup, ticker)
        print(READY, flush=True)
        print(json.dumps({"warmup_s": warmup.elapsed[0], "warmup_speed": warmup.speed[0],
                          "ticks_s": ticker.spent}), flush=True)
        return 0 if warmup.failed == 0 else 1
    client.send(warmup)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    # a traced run splits its time between an untraced and a traced window
    window_s = args.seconds / 2 if args.trace else args.seconds
    with Ticker(host) as ticker:
        plain = client.run(window_s, args.max_requests, ticker)
    windows = [warmup, plain]
    correct = True
    bootstrap.WORKDIR.mkdir(exist_ok=True)
    if not args.trace:
        probes = probe_setup(args)
        report["setup_probes"] = probes
        setup_s = statistics.median(setup_seconds(p, True) for p in probes)
        scaled = end_to_end_metrics(plain, setup_s, True)
        wall = end_to_end_metrics(plain, setup_s, False)
        metrics = {name: (value, END_TO_END[name]) for name, value in scaled.items()}
        for name in ("edits_per_s", "latency_p50_ms", "latency_p90_ms"):
            metrics[f"{name}.wall"] = (wall[name], END_TO_END[name])
        metrics["setup_s.wall"] = (statistics.median(setup_seconds(p, False) for p in probes),
                                   "s")
        metrics["host_speed"] = (statistics.median(plain.speed), "ratio")
        metrics["host_ticks_per_request"] = (statistics.fmean(plain.ticks), "count")
        metrics["failed_frac"] = (plain.failed / plain.requests, "ratio")
        metrics["latency_samples"] = (plain.requests, "count")
        report["requests"] = {"elapsed_s": plain.elapsed, "speed": plain.speed,
                              "ticks": plain.ticks, "ok": plain.ok}
        json_names = list(END_TO_END)
    else:
        tracer.install()
        try:
            with Ticker(host) as ticker:
                tracer.ticker = ticker
                traced = client.run(window_s, args.max_requests, ticker)
        finally:
            tracer.uninstall()
        windows.append(traced)
        edits = tracer.calls["pipeline.run_edit"]
        metrics = tracer.layer_metrics(edits, traced.requests, traced.bytes_written)
        metrics["pipeline.result_evals_per_edit"] = (
            traced.result_evals / edits if edits else math.nan, "count")
        metrics["process.cpu_per_wall"] = (plain.cpu / plain.wall, "ratio")
        plain_rate = plain.edits_per_s()
        metrics["trace.overhead_frac"] = (
            1.0 - traced.edits_per_s() / plain_rate if plain_rate else math.nan, "ratio")
        if not tracer.ledger_balances():
            correct = False
            report["ledger"] = "model evaluations outside every solver phase and diagnostic"
        spans = bootstrap.WORKDIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans)
        report["spans_file"] = str(spans.relative_to(bootstrap.ROOT))
        report["spans"] = len(tracer.start_col)
        json_names = [name for name in metrics if name not in PRINT_ONLY]

    attempted = sum(w.requests for w in windows)
    failed = sum(w.failed for w in windows)
    correct = correct and failed == 0
    # JSON has no inf or NaN; a value that cannot be measured is null
    metrics = {name: (v if math.isfinite(v) else None, u) for name, (v, u) in metrics.items()}
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    report["errors"] = [e for w in windows for e in w.errors]
    result_file = bootstrap.WORKDIR / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    result_file.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  window {args.seconds} s  "
          f"trace {args.trace}  requests {attempted} (failed {failed})")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for error in report["errors"][:10]:
        print(f"failed: {error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value if value is None else format(value, '.6g')} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in json_names},
    }))
    return 0


def smoke() -> int:
    """Run every workload briefly, traced and untraced, and check that every
    metric is present and non-zero, every digest matches and no request
    failed."""
    from workloads import WORKLOADS

    spec_path = bootstrap.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else None
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "7", "--seconds", "60", "--trace", str(trace),
                   "--max-requests", "2", "--probes", "1"]
            proc = subprocess.run(cmd, cwd=bootstrap.ROOT, capture_output=True, text=True,
                                  timeout=170)
            label = f"{name} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed requests")
            if spec is not None:
                key = "per_layer" if trace else "end_to_end"
                expected = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected:
                    problems.append(f"{label}: metrics {sorted(set(got) ^ set(expected))} "
                                    "differ from BENCHMARK.json")
            unmeasured = sorted(k for k, v in result["metrics"].items() if not v["value"])
            if unmeasured:
                problems.append(f"{label}: metrics {unmeasured} are null or 0")
            print(f"smoke {label}: {result['attempted']} requests, "
                  f"{len(result['metrics'])} metrics", flush=True)
    for problem in problems:
        print(f"smoke FAILED {problem}")
    return 1 if problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run each workload for a few requests and check the output")
    parser.add_argument("--max-requests", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--probes", type=int, default=SETUP_PROBES, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.smoke:
            bootstrap.prepare()
            return smoke()
        return run(args)
    except bootstrap.MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
