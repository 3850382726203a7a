"""Byte-level snapshot of the CLI artifacts.

Each command runs on its defaults, plus a 2x2 ablation that includes an axis
outside the result schema, a uniform-mode edit, and a 2x2 ablation over
solvers and perturbation modes with a layer profile and global mixing.
Every artifact's SHA-256 digest must match ``golden/artifacts.sha256``. manifest.json is left out: it carries a
timestamp. Print the current digests with ``python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from adaedit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "artifacts.sha256"

COMMANDS = {
    "edit": (["edit"], ("result.csv", "mask.csv", "channels.csv", "schedule.csv")),
    "reconstruct": (["reconstruct"], ("result.csv",)),
    "sweep-schedule": (["sweep-schedule"], ("sweep.csv", "schedule_curves.csv")),
    "sweep-temperature": (["sweep-temperature"], ("temperature.csv",)),
    "ablate": (["ablate", "--axis", "schedule=binary,sigmoid",
                "--axis", "soft_mask_gamma=5,15"], ("ablation.csv",)),
    "edit-uniform": (["edit", "--set", "perturbation_mode=uniform"],
                     ("result.csv", "channels.csv")),
    "ablate-modes": (["ablate", "--axis", "solver=euler,midpoint",
                      "--axis", "perturbation_mode=uniform,channel_selective",
                      "--set", "layer_ratio_beta=0.5", "--set", "global_mix=true"],
                     ("ablation.csv",)),
}


def artifact_digests(root: Path) -> dict:
    digests = {}
    for name, (argv, artifacts) in COMMANDS.items():
        out = root / name
        assert main(argv + ["--out", str(out)]) == 0, name
        for artifact in artifacts:
            data = (out / artifact).read_bytes()
            digests[f"{name}/{artifact}"] = hashlib.sha256(data).hexdigest()
    return digests


def load_golden() -> dict:
    digests = {}
    for line in GOLDEN.read_text().splitlines():
        digest, key = line.split()
        digests[key] = digest
    return digests


def test_artifacts_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("ADAEDIT_SEED", raising=False)
    assert artifact_digests(tmp_path) == load_golden()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for key, digest in artifact_digests(Path(scratch)).items():
            sys.stdout.write(f"{digest}  {key}\n")
