"""The benchmark's pinned output digests (bench/refs/*.sha256) hold for the
program in this checkout: every edit-default schedule x solver x toggle, a
few ablation grids and one mid-size edit, checked in about two seconds by
importing bench/workloads.py, which stays read-only. The mid-size bytes hold
for one BLAS thread only (the benchmark pins it), so the bundled OpenBLAS
runs on one thread here and gets its count back afterwards."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from adaedit import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

POOL_INDICES = {
    "edit-default": range(48),  # 4 schedules x 3 solvers x 4 toggles
    "ablate-grid": (0, 137, 300, 511),
    "edit-mid": (5,),
}


@pytest.fixture
def one_blas_thread():
    lib = cli._openblas()
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get is None:
        yield
        return
    was = get()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(was)


@pytest.mark.parametrize("name", sorted(POOL_INDICES))
def test_bench_pool_outputs_match_the_pinned_digests(monkeypatch, tmp_path, one_blas_thread,
                                                     name):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delenv("ADAEDIT_SEED", raising=False)
    workload = importlib.import_module("workloads").WORKLOADS[name]
    refs = workload.load_refs()
    state = workload.setup(tmp_path)
    wrong = [index for index in POOL_INDICES[name]
             if workload.request(state, index).digest != refs[index]]
    assert wrong == []
