"""The benchmark's layer trace (bench/spans.py) wraps program names where the
program looks them up. A renamed or removed name makes install() fail here,
in well under a second, instead of only in the benchmark's smoke run."""

from __future__ import annotations

import importlib
from pathlib import Path

from adaedit import cli, models, perturbation, pipeline
from adaedit.latent import Latent
from adaedit.models import AttentionRecord, KVCache, ToyAttentionFlow

BENCH = Path(__file__).resolve().parents[1] / "bench"
OWNERS = (pipeline, perturbation, models, cli, Latent, ToyAttentionFlow, KVCache,
          AttentionRecord)


def test_tracer_install_wraps_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = [(owner, name) for owner, names in zip(OWNERS, before)
                   for name, value in vars(owner).items() if names.get(name) is not value]
    finally:
        tracer.uninstall()
    assert (pipeline, "run_edit") in wrapped
    assert (pipeline, "is_active") in wrapped
    for owner, names in zip(OWNERS, before):
        after = dict(vars(owner))
        assert after.keys() == names.keys(), owner
        assert all(after[name] is value for name, value in names.items()), owner
