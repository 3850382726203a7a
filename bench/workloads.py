"""The benchmark's three workloads: the requests each one sends, the inputs
made before timing, and the digest that checks each request's outputs.

Every workload draws its requests from a fixed pool of request indices; a
workload seed picks where in the pool a run starts, and consecutive requests
take consecutive indices (wrapping at the end of the pool). The SHA-256
digest of every pool entry's outputs is pinned under ``refs/``, so any run on
any seed checks each request against the reference.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List

from adaedit import cli, pipeline
from adaedit.pipeline import EditConfig
from adaedit.schedules import SCHEDULE_FAMILIES
from adaedit.solvers import SOLVER_KINDS
from hostspeed import MID, SMALL, Kernel

REFS_DIR = Path(__file__).resolve().parent / "refs"

# The ROADMAP "mid" size: attention arithmetic dominates an edit here.
MID_DIMS = {"img_tokens": 256, "embed_dim": 128, "layer_count": 4, "heads": 4}

# Source latents are made before timing from their own seeds, far from the
# model seeds that the requests use.
SOURCE_COUNT = 16
SOURCE_SEED_BASE = 1_000_000

# edit-default cycles through every schedule family x solver pair, and each
# 12-request block turns on one optional module (or none).
EDIT_TOGGLES = ({}, {"soft_mask_gamma": 8.0}, {"layer_ratio_beta": 0.5},
                {"global_mix": True})

GRID_AXES = ("schedule=sigmoid,cosine,linear,binary", "alpha=0.1,0.25,0.5",
             "tau=0.5,1.0,2.0")
GRID_ROWS = 4 * 3 * 3


class RequestFailed(Exception):
    """A request ran but its outputs break the workload's contract."""


def edit_digest(result) -> str:
    """SHA-256 of the edited latent bytes, the soft mask bytes and the
    diagnostics (floats written by repr, so every bit counts)."""
    h = hashlib.sha256()
    h.update(result.edited.data.tobytes())
    h.update(result.mask.soft.tobytes())
    h.update(json.dumps(result.diagnostics, sort_keys=True).encode())
    return h.hexdigest()


def default_edit_config(index: int) -> EditConfig:
    return replace(EditConfig(), seed=index,
                   schedule=SCHEDULE_FAMILIES[index % 4],
                   solver=SOLVER_KINDS[(index // 4) % 3],
                   **EDIT_TOGGLES[(index // 12) % 4])


def mid_edit_config(index: int) -> EditConfig:
    return replace(EditConfig(), seed=index, **MID_DIMS)


@dataclass
class Outcome:
    edits: int
    digest: str
    result_evals: float  # sum of the ``evals`` column the program reports
    bytes_written: int = 0


@dataclass
class Workload:
    """``send`` is the timed request; ``check`` turns its reply into an
    Outcome outside the timed region."""

    name: str
    pool: int
    setup: Callable[[Path], object]
    send: Callable[[object, int], object]
    check: Callable[[object, object], Outcome]
    host_kernel: Kernel  # the host-speed kernel whose arrays match the workload's

    def request(self, state, index: int) -> Outcome:
        return self.check(state, self.send(state, index))

    def refs_path(self) -> Path:
        return REFS_DIR / f"{self.name}.sha256"

    def load_refs(self) -> List[str]:
        refs = self.refs_path().read_text().split()
        if len(refs) != self.pool:
            raise RuntimeError(
                f"{self.refs_path()} holds {len(refs)} digests, expected {self.pool}")
        return refs

    def index(self, seed: int, position: int) -> int:
        """Pool index of the request at ``position`` in a run with ``seed``."""
        return (seed * 2654435761 + position) % self.pool


def _edit_setup(config_for: Callable[[int], EditConfig]):
    def setup(workdir: Path):
        base = config_for(0)
        return [pipeline.generate_source_latent(replace(base, seed=SOURCE_SEED_BASE + j))
                for j in range(SOURCE_COUNT)], config_for
    return setup


def _edit_send(state, index: int):
    sources, config_for = state
    cfg = config_for(index)
    return pipeline.run_edit(sources[index % SOURCE_COUNT], cfg.source_conditioning(),
                             cfg.target_conditioning(), cfg)


def _edit_check(state, result) -> Outcome:
    return Outcome(1, edit_digest(result), result.diagnostics["evals"])


def _grid_setup(workdir: Path):
    out = workdir / "ablate"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _grid_send(out: Path, index: int) -> int:
    argv = ["ablate", "--out", str(out), "--set", f"seed={index}"]
    for axis in GRID_AXES:
        argv += ["--axis", axis]
    return cli.main(argv)


def _grid_check(out: Path, code: int) -> Outcome:
    if code != 0:
        raise RequestFailed(f"ablate exited {code}")
    data = (out / "ablation.csv").read_bytes()
    lines = data.decode().splitlines()
    if len(lines) != GRID_ROWS + 1:
        raise RequestFailed(f"ablation.csv has {len(lines) - 1} rows, expected {GRID_ROWS}")
    evals_col = lines[0].split(",").index("evals")
    evals = sum(float(line.split(",")[evals_col]) for line in lines[1:])
    written = sum(path.stat().st_size for path in out.iterdir())
    return Outcome(GRID_ROWS, hashlib.sha256(data).hexdigest(), evals, written)


WORKLOADS = {
    "edit-default": Workload("edit-default", 4096, _edit_setup(default_edit_config),
                             _edit_send, _edit_check, SMALL),
    "edit-mid": Workload("edit-mid", 256, _edit_setup(mid_edit_config), _edit_send,
                         _edit_check, MID),
    "ablate-grid": Workload("ablate-grid", 512, _grid_setup, _grid_send, _grid_check,
                            SMALL),
}
