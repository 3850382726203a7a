"""Alternating benchmark pairs of the working tree and a base commit.

    python3 tools/bench_pairs.py LABEL [BASE]

Exports BASE (default HEAD) into a temporary directory with ``git archive``,
the committed files the benchmark builds from, and leaves no worktree behind
in .git if the run is cut short. For every workload in BENCHMARK.json and
seeds 1-10 it then runs ``bench/run.py --workload W --seed S --trace 0`` in
the base tree and in the working tree, odd seeds base first, and reads each
run's result JSON as soon as the run ends, before a later run of that tree
overwrites it. One traced run per side and workload (seed 1) adds the
per-layer counts that repeat exactly (EXACT_COUNTS), compared between the
sides. A traced run averages its counts over the requests it sent, so it
stops each of its two windows at TRACED_REQUESTS requests (``--max-requests``),
and both sides trace the same request sequence; a traced run that sent fewer
ran short of its time and is flagged, since its counts cover other requests.

Writes BENCH_<LABEL>.json at the repository root: every pair, each side's
median and quartiles of every end-to-end metric with a verdict against the
metric's bound, each side's failed_frac, the counts and any that differ,
the traced runs that ran short, the environment, the base commit and the
SHA-256 of ``git diff HEAD``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SIDES = ("base", "work")
TRACED_SEED = 1
# Requests per window of a traced run: a traced edit-mid request took
# 0.3-0.9 s of wall time on a shared 2-core host, so 8 end inside the 12.5 s
# window of a default 25 s run.
TRACED_REQUESTS = 8
EXACT_COUNTS = ("models.evaluate.calls_per_edit", "solvers.inversion.evals",
                "solvers.sampling.evals", "solvers.reconstruction.evals",
                "models.kvcache.puts_per_edit", "diagnostics.velocity_jump.evals_per_edit")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _export(commit: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")


def bench_argv(workload: str, seed: int, trace: int) -> list:
    """bench/run.py's arguments for one run; a traced run stops each window
    at TRACED_REQUESTS requests."""
    argv = ["bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    return argv + ["--max-requests", str(TRACED_REQUESTS)] if trace else argv


def _run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One bench run in ``tree``: its result JSON, read straight after it,
    with the requests it sent (the warm-up and every window) as "attempted"."""
    print(f"bench_pairs: {tree} {workload} seed {seed} trace {trace}", flush=True)
    out = subprocess.run([sys.executable, *bench_argv(workload, seed, trace)], cwd=tree,
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    path = tree / ".bench_work" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return {**json.loads(path.read_text()),
            "attempted": json.loads(out.strip().splitlines()[-1])["attempted"]}


def _values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _verdict(metric: dict, base: list, work: list) -> dict:
    """Each side's median and quartiles, and the working tree's median
    against the base's: "worse" past the bound; "unresolved" where either
    side's quartile spread, relative to its median, exceeds the bound and
    not every working run reads better than every base run; else
    "within bound"."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    sides = {"base": _spread(base), "work": _spread(work)}
    worse = sign * (sides["base"]["median"] - sides["work"]["median"]) / abs(
        sides["base"]["median"])
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in sides.values())
    every_run_better = min(sign * w for w in work) > max(sign * b for b in base)
    if worse > metric["bound"]:
        verdict = "worse"
    elif spread > metric["bound"] and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    wins = sum(sign * (w - b) > 0 for b, w in zip(base, work))
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            **sides, "worse_by": worse, "spread": spread, "work_wins": wins,
            "pairs": len(base), "verdict": verdict}


def summarize(spec: dict, pairs: list, traced: dict) -> dict:
    """The per-workload summary of ``pairs`` (each {"workload", "seed",
    "first", "base", "work"}, a side being its run's result JSON) and
    ``traced`` ({workload: {side: traced result JSON}}) under BENCHMARK.json
    ``spec``. A traced run is short when it sent fewer than the warm-up and
    two full windows: the windows take consecutive requests of the pool, so
    the traced one then covered other requests than the other side's."""
    workloads, differences, short = {}, [], []
    for name in [w["name"] for w in spec["workloads"]]:
        runs = [p for p in pairs if p["workload"] == name]
        values = {side: [_values(p[side]) for p in runs] for side in SIDES}
        end_to_end = {m["name"]: _verdict(m, *([v[m["name"]] for v in values[side]]
                                               for side in SIDES))
                      for m in spec["end_to_end"]}
        failed = {}
        for side in SIDES:
            samples = [v["latency_samples"] for v in values[side]]
            misses = sum(v["failed_frac"] * n for v, n in zip(values[side], samples))
            failed[side] = misses / sum(samples)
        counts = {}
        for count in EXACT_COUNTS:
            got = {side: _values(traced[name][side]).get(count) for side in SIDES}
            counts[count] = {**got, "equal": got["base"] == got["work"]}
            if not counts[count]["equal"]:
                differences.append(f"{name} {count}: {got['base']} -> {got['work']}")
        sent = {side: traced[name][side]["attempted"] for side in SIDES}
        short += [f"{name} {side}: {got} of {1 + 2 * TRACED_REQUESTS} requests"
                  for side, got in sent.items() if got < 1 + 2 * TRACED_REQUESTS]
        workloads[name] = {"end_to_end": end_to_end, "failed_frac": failed,
                           "exact_counts": counts, "traced_requests": sent}
    return {"workloads": workloads, "count_differences": differences,
            "short_traced_runs": short,
            "pairs": [{"workload": p["workload"], "seed": p["seed"], "first": p["first"],
                       **{side: _values(p[side]) for side in SIDES}} for p in pairs]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output, BENCH_<LABEL>.json")
    parser.add_argument("base", nargs="?", default="HEAD", help="base commit (HEAD)")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error(f"LABEL must be letters, digits, '_', '.' or '-', got {args.label!r}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    diff = hashlib.sha256(_git("diff", "HEAD", "--binary")).hexdigest()
    pairs, traced = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        trees = {"base": Path(tmp), "work": ROOT}
        _export(base, trees["base"])
        for workload in [w["name"] for w in spec["workloads"]]:
            for seed in SEEDS:
                order = SIDES if seed % 2 else SIDES[::-1]
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(trees[side], workload, seed, 0)
                pairs.append(pair)
            traced[workload] = {side: _run(trees[side], workload, TRACED_SEED, 1)
                                for side in SIDES}
    report = {"label": args.label, "base_commit": base, "diff_sha256": diff,
              "protocol": f"bench/run.py --workload W --seed S --trace 0, seeds "
                          f"{SEEDS.start}-{SEEDS.stop - 1}, odd seeds base first; "
                          f"--trace 1 --max-requests {TRACED_REQUESTS} at seed "
                          f"{TRACED_SEED} for the exact counts",
              "environment": pairs[0]["work"]["environment"],
              **summarize(spec, pairs, traced)}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, summary in report["workloads"].items():
        for metric, row in summary["end_to_end"].items():
            print(f"{name:13s} {metric:15s} {row['base']['median']:10.4g} -> "
                  f"{row['work']['median']:10.4g}  {row['verdict']}")
    for difference in report["count_differences"]:
        print(f"count differs: {difference}")
    for run in report["short_traced_runs"]:
        print(f"traced run short: {run}")
    print(f"wrote {out}")
    return 1 if report["count_differences"] or report["short_traced_runs"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
