"""Process set-up shared by the benchmark's scripts; import it first.

Pins the BLAS thread pools before numpy loads (the pinned mid-size digests
hold for one thread only) and puts the checkout's
``src/`` first on the import path, so the benchmark measures the program in
its own checkout and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread: within nproc on the 2-core reference box, and an extra
# thread showed no throughput gain on edit-mid while adding run-to-run noise.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"


# Set on import, before anything loads numpy; every script imports this first.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS


class MissingProgram(RuntimeError):
    pass


def prepare() -> None:
    if not (SRC / "adaedit" / "__init__.py").is_file():
        raise MissingProgram(f"no adaedit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import adaedit
    if Path(adaedit.__file__).resolve().parent != SRC / "adaedit":
        raise MissingProgram(f"adaedit imported from {adaedit.__file__}, not {SRC}")
