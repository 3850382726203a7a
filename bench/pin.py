"""Pin the reference digest of every request in each workload's pool.

    python3 bench/pin.py [WORKLOAD ...]

Run it only when the program's outputs are meant to change; the benchmark
counts any request whose digest differs from these files as failed.
"""

from __future__ import annotations

import logging
import sys

import bootstrap


def main(names) -> int:
    bootstrap.prepare()
    from workloads import WORKLOADS

    if any(name not in WORKLOADS for name in names):
        print(f"usage: python3 bench/pin.py [{' | '.join(WORKLOADS)} ...]", file=sys.stderr)
        return 2
    logging.getLogger("adaedit").addHandler(logging.NullHandler())
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        state = wl.setup(bootstrap.WORKDIR)
        digests = [wl.request(state, index).digest for index in range(wl.pool)]
        wl.refs_path().parent.mkdir(exist_ok=True)
        wl.refs_path().write_text("\n".join(digests) + "\n")
        print(f"{name}: pinned {len(digests)} digests", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
