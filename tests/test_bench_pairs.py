"""tools/bench_pairs.py's aggregation, on hand-written result dicts: no
benchmark runs here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {"workloads": [{"name": "w"}],
        "end_to_end": [{"name": "rate", "unit": "edit/s", "better": "higher", "bound": 0.2},
                       {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.2},
                       {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.1}]}


def result(rate, lat, rss, failed=0.0, samples=10, **counts):
    metrics = {"rate": rate, "lat": lat, "rss": rss, "failed_frac": failed,
               "latency_samples": samples, **counts}
    return {"metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()}}


def pairs_of(base, work):
    return [{"workload": "w", "seed": seed, "first": "base" if seed % 2 else "work",
             "base": b, "work": w} for seed, (b, w) in enumerate(zip(base, work), 1)]


COUNTS = {"models.evaluate.calls_per_edit": 70.0, "solvers.inversion.evals": 15.0}


def traced(bench_pairs, attempted=None, **work_counts):
    """Both sides' traced runs; each sent the warm-up and two full windows,
    or ``attempted`` requests on the working side."""
    full = 1 + 2 * bench_pairs.TRACED_REQUESTS
    return {"w": {"base": {**result(1, 1, 1, **COUNTS), "attempted": full},
                  "work": {**result(1, 1, 1, **{**COUNTS, **work_counts}),
                           "attempted": full if attempted is None else attempted}}}


def test_medians_quartiles_and_verdicts(bench_pairs):
    # rate: the working tree is 30% slower, past the 0.2 bound; lat: medians
    # equal, but the runs spread by more than the bound; rss: no change and
    # a spread within the bound
    base = [result(r, l, 100.0) for r, l in zip((10, 11, 12, 13), (5, 8, 10, 12))]
    work = [result(r, l, 100.0) for r, l in zip((7, 7.7, 8.4, 9.1), (5, 8, 10, 12))]
    summary = bench_pairs.summarize(SPEC, pairs_of(base, work), traced(bench_pairs))
    rows = summary["workloads"]["w"]["end_to_end"]
    assert rows["rate"]["base"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert rows["rate"]["work"]["median"] == pytest.approx(8.05)
    assert rows["rate"]["worse_by"] == pytest.approx(0.3)
    assert rows["rate"]["work_wins"] == 0 and rows["rate"]["pairs"] == 4
    assert rows["rate"]["verdict"] == "worse"
    assert rows["lat"]["worse_by"] == 0.0
    assert rows["lat"]["spread"] == pytest.approx((10.5 - 7.25) / 9.0)
    assert rows["lat"]["verdict"] == "unresolved"
    assert rows["rss"]["verdict"] == "within bound"
    assert summary["count_differences"] == []
    assert [p["seed"] for p in summary["pairs"]] == [1, 2, 3, 4]
    assert [p["first"] for p in summary["pairs"]] == ["base", "work", "base", "work"]
    assert summary["pairs"][0]["work"]["rate"] == 7


def test_a_wide_spread_is_resolved_when_every_run_of_the_change_is_better(bench_pairs):
    base = [result(10, l, 100.0) for l in (10, 14, 18, 22)]
    work = [result(10, l, 100.0) for l in (3, 5, 7, 9)]
    rows = bench_pairs.summarize(SPEC, pairs_of(base, work), traced(bench_pairs))["workloads"]["w"]
    assert rows["end_to_end"]["lat"]["spread"] > 0.2
    assert rows["end_to_end"]["lat"]["verdict"] == "within bound"
    assert rows["end_to_end"]["lat"]["work_wins"] == 4


def test_failed_frac_weighs_each_run_by_its_requests(bench_pairs):
    base = [result(10, 5, 100.0, failed=0.5, samples=2), result(10, 5, 100.0, samples=8)]
    work = [result(10, 5, 100.0), result(10, 5, 100.0)]
    rows = bench_pairs.summarize(SPEC, pairs_of(base, work), traced(bench_pairs))["workloads"]["w"]
    assert rows["failed_frac"] == {"base": 0.1, "work": 0.0}


def test_a_count_that_differs_is_flagged(bench_pairs):
    pairs = pairs_of([result(10, 5, 100.0)] * 2, [result(10, 5, 100.0)] * 2)
    summary = bench_pairs.summarize(SPEC, pairs,
                                    traced(bench_pairs, **{"solvers.inversion.evals": 16.0}))
    counts = summary["workloads"]["w"]["exact_counts"]
    assert counts["models.evaluate.calls_per_edit"] == {"base": 70.0, "work": 70.0,
                                                        "equal": True}
    assert counts["solvers.inversion.evals"]["equal"] is False
    assert summary["count_differences"] == ["w solvers.inversion.evals: 15.0 -> 16.0"]


def test_only_traced_runs_stop_at_a_fixed_request_count(bench_pairs):
    assert bench_pairs.bench_argv("edit-mid", 3, 0) == [
        "bench/run.py", "--workload", "edit-mid", "--seed", "3", "--trace", "0"]
    assert bench_pairs.bench_argv("edit-mid", 1, 1) == [
        "bench/run.py", "--workload", "edit-mid", "--seed", "1", "--trace", "1",
        "--max-requests", str(bench_pairs.TRACED_REQUESTS)]


def test_a_traced_run_that_ran_short_is_flagged(bench_pairs):
    # equal counts, but the working side's windows sent one request too few
    pairs = pairs_of([result(10, 5, 100.0)] * 2, [result(10, 5, 100.0)] * 2)
    full = 1 + 2 * bench_pairs.TRACED_REQUESTS
    summary = bench_pairs.summarize(SPEC, pairs, traced(bench_pairs, attempted=full - 1))
    assert summary["count_differences"] == []
    assert summary["workloads"]["w"]["traced_requests"] == {"base": full, "work": full - 1}
    assert summary["short_traced_runs"] == [f"w work: {full - 1} of {full} requests"]
    assert bench_pairs.summarize(SPEC, pairs, traced(bench_pairs))["short_traced_runs"] == []
