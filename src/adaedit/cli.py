"""Command-line drivers: single edits, reconstructions, schedule/temperature
sweeps, solver-order studies, and ablation grids.

All commands are deterministic byte-for-byte given the config (the manifest
timestamp is the one exception). Exit codes: 0 success, 2 config error,
3 runtime divergence, 4 acceptance-check failure.

Configs are JSON documents mirroring EditConfig field names; single fields
can be overridden with --set key=value, and the ADAEDIT_SEED environment
variable overrides the seed last. The config is built once from the final
values, so a cross-field rule sees all of them. Every bad value is a config
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .diagnostics import psnr, ssim
from .errors import ConfigError, DivergenceError
from .models import AnalyticLinearFlow
from .latent import Latent
from .perturbation import blend_weights
from .pipeline import (RESULT_COLUMNS, EditConfig,
                       config_columns, config_hash, edit_grid, extra_columns,
                       generate_source_latent, parse_axis, parse_field,
                       run_ablation_grid, run_edit, run_reconstruction,
                       summarize_result)
from .solvers import SOLVER_KINDS, TimeGrid, integrate_forward

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_CHECK_FAILED = 4

FLOAT_FMT = "{:.17g}"

SWEEP_FAMILIES = ("binary", "sigmoid", "cosine", "linear")
ORDER_LADDER = (10, 20, 40)
EULER_ORDER_BAND = (0.7, 1.3)
MIDPOINT_ORDER_BAND = (1.7, 2.3)

# result.csv trails the reserved perceptual-metric columns, emitted empty
RESERVED_COLUMNS = ("lpips", "clip")


@dataclass
class RunManifest:
    """Provenance for one command invocation; timestamp excluded from hashes."""

    command: str
    config_path: Optional[str]
    out_dir: str
    config_hash: str
    timestamp: str
    version: str
    outputs: List[str]


def fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT.format(float(value))
    if isinstance(value, tuple):  # token ids, kept in one cell
        return " ".join(fmt(v) for v in value)
    return str(value)


def _write_artifact(path: Path, text: str) -> None:
    """Write one artifact; a path that cannot take it is a config error."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError("out", f"cannot write '{path}': {exc}")


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    _write_artifact(path, "\n".join(lines) + "\n")


def _split_assignment(item: str, option: str) -> Tuple[str, str]:
    if "=" not in item:
        raise ConfigError(option, f"expected key=value, got '{item}'")
    key, raw = item.split("=", 1)
    return key, raw


def load_config(config_path: Optional[str], sets: Sequence[str],
                env=os.environ) -> EditConfig:
    data = {}
    if config_path is not None:
        try:
            data = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise ConfigError("config", f"cannot read '{config_path}': {exc}")
        except ValueError as exc:  # bad JSON, bad UTF-8, an int past 4300 digits
            raise ConfigError("config", f"invalid JSON in '{config_path}': {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config", "top-level JSON value must be an object")
    for item in sets:
        key, raw = _split_assignment(item, "set")
        data[key] = parse_field(key, raw)
    seed_env = env.get("ADAEDIT_SEED")
    if seed_env is not None:
        data["seed"] = parse_field("seed", seed_env)
    return EditConfig.from_dict(data)


def _make_out(out_dir: str) -> Path:
    """The output directory, created if missing; a path that cannot be one
    (an existing file, a path under a file) is a config error."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out", f"cannot create directory '{out_dir}': {exc}")
    return out


def _setup(config_path: Optional[str], sets: Sequence[str],
           out_dir: str) -> Tuple[EditConfig, Path, Latent]:
    """Validated config, created output directory and seeded source latent."""
    cfg = load_config(config_path, sets)
    return cfg, _make_out(out_dir), generate_source_latent(cfg)


def write_manifest(out_dir: Path, command: str, config_path: Optional[str],
                   cfg_hash: str, outputs: List[str]) -> None:
    manifest = RunManifest(
        command=command,
        config_path=config_path,
        out_dir=str(out_dir),
        config_hash=cfg_hash,
        timestamp=datetime.now(timezone.utc).isoformat(),
        version=__version__,
        outputs=sorted(outputs),
    )
    _write_artifact(out_dir / "manifest.json",
                    json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")


def _result_row(summary: dict, extras: Sequence[str] = ()) -> list:
    row = [summary.get(col, "") for col in RESULT_COLUMNS]
    row.extend(summary.get(name, "") for name in extras)
    row.extend("" for _ in RESERVED_COLUMNS)
    return row


def _result_header(extras: Sequence[str] = ()) -> list:
    return list(RESULT_COLUMNS) + list(extras) + list(RESERVED_COLUMNS)


def _write_mask_csv(path: Path, mask) -> None:
    hard = set(mask.hard)
    rows = [(i, mask.soft[i], int(i in hard)) for i in range(mask.soft.size)]
    write_csv(path, ["token", "soft", "hard"], rows)


def _write_channels_csv(path: Path, result, cfg: EditConfig) -> None:
    weights = result.channel_weights.alpha
    blend = blend_weights(cfg, result.channel_weights)
    rows = [(c, result.channel_gaps[c], weights[c], blend[c]) for c in range(weights.size)]
    write_csv(path, ["channel", "d_c", "alpha_c", "blend_weight"], rows)


def cmd_edit(config_path: Optional[str], out_dir: str, sets: Sequence[str] = ()) -> int:
    cfg, out, source = _setup(config_path, sets, out_dir)
    result = run_edit(source, cfg.source_conditioning(), cfg.target_conditioning(), cfg)

    summary = summarize_result("000", cfg, result)
    write_csv(out / "result.csv", _result_header(), [_result_row(summary)])
    _write_mask_csv(out / "mask.csv", result.mask)
    _write_channels_csv(out / "channels.csv", result, cfg)
    write_csv(out / "schedule.csv", ["step", "weight", "active"],
              [(step, weight, active)
               for step, (weight, _, active) in enumerate(result.schedule_trace)])
    write_manifest(out, "edit", config_path, config_hash(cfg),
                   ["result.csv", "mask.csv", "channels.csv", "schedule.csv"])
    return EXIT_OK


def cmd_reconstruct(config_path: Optional[str], out_dir: str,
                    sets: Sequence[str] = ()) -> int:
    cfg, out, source = _setup(config_path, sets, out_dir)
    recon = run_reconstruction(source, cfg.source_conditioning(), cfg)

    peak = float(np.ptp(source.data)) or 1.0
    summary = config_columns("000", cfg)
    summary.update(psnr=psnr(source, recon, peak=peak), ssim=ssim(source, recon, peak=peak))
    write_csv(out / "result.csv", _result_header(), [_result_row(summary)])
    write_manifest(out, "reconstruct", config_path, config_hash(cfg), ["result.csv"])
    return EXIT_OK


def cmd_sweep_schedule(config_path: Optional[str], out_dir: str,
                       sets: Sequence[str] = ()) -> int:
    base, out, source = _setup(config_path, sets, out_dir)
    rows = run_ablation_grid(source, base, {"schedule": SWEEP_FAMILIES})
    curve_rows = []
    for family in SWEEP_FAMILIES:
        weights = replace(base, schedule=family).injection_schedule.weights
        curve_rows.extend((step, family, weight) for step, weight in enumerate(weights))
    write_csv(out / "sweep.csv", _result_header(), [_result_row(row) for row in rows])
    write_csv(out / "schedule_curves.csv", ["step", "family", "weight"], curve_rows)
    write_manifest(out, "sweep-schedule", config_path, config_hash(base),
                   ["sweep.csv", "schedule_curves.csv"])
    return EXIT_OK


def cmd_sweep_temperature(config_path: Optional[str], out_dir: str,
                          taus: Sequence[float], sets: Sequence[str] = ()) -> int:
    base, out, source = _setup(config_path, sets, out_dir)
    header = (["run_id", "tau", "alpha_var"]
              + [f"alpha_{c}" for c in range(base.channels)])
    rows = []
    for index, (_, cfg, result) in enumerate(
            edit_grid(source, base, {"tau": taus})):
        alpha = result.channel_weights.alpha
        rows.append([f"{index:03d}", float(cfg.tau), float(alpha.var())] + list(alpha))
    write_csv(out / "temperature.csv", header, rows)
    write_manifest(out, "sweep-temperature", config_path, config_hash(base),
                   ["temperature.csv"])
    return EXIT_OK


def solver_order_table() -> List[dict]:
    """Fitted global-error order per solver on the analytic flow ladder."""
    flow = AnalyticLinearFlow(decay=-1.0, drift=np.zeros(2))
    z0 = Latent(np.ones((1, 4, 2)))
    exact = flow.closed_form(z0, 0.0, 1.0)
    table = []
    for kind in SOLVER_KINDS:
        errors = []
        for steps in ORDER_LADDER:
            tr = integrate_forward(flow, z0, TimeGrid.uniform(steps), kind)
            errors.append(float(np.max(np.abs(tr.final.data - exact.data))))
        order = float(-np.polyfit(np.log(ORDER_LADDER), np.log(errors), 1)[0])
        table.append({"solver": kind, "order": order, "errors": errors})
    return table


def cmd_solver_order(out_dir: str) -> int:
    out = _make_out(out_dir)
    table = solver_order_table()
    header = ["solver", "order"] + [f"err_{steps}" for steps in ORDER_LADDER]
    rows = [[entry["solver"], entry["order"]] + entry["errors"] for entry in table]
    write_csv(out / "orders.csv", header, rows)
    write_manifest(out, "solver-order", None, config_hash(EditConfig()), ["orders.csv"])
    orders = {entry["solver"]: entry["order"] for entry in table}
    euler_ok = EULER_ORDER_BAND[0] <= orders["euler"] <= EULER_ORDER_BAND[1]
    midpoint_ok = MIDPOINT_ORDER_BAND[0] <= orders["midpoint"] <= MIDPOINT_ORDER_BAND[1]
    if not (euler_ok and midpoint_ok):
        print(f"solver order check failed: euler={orders['euler']:.3f} "
              f"midpoint={orders['midpoint']:.3f}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _parse_axis(spec: str) -> Tuple[str, list]:
    key, raw = _split_assignment(spec, "axis")
    return key, parse_axis(key, raw)


def cmd_ablate(config_path: Optional[str], out_dir: str, axis_specs: Sequence[str],
               sets: Sequence[str] = ()) -> int:
    axes = {}
    for spec in axis_specs:
        key, values = _parse_axis(spec)
        if key in axes:
            raise ConfigError(key, "repeated --axis; give all its values in one")
        axes[key] = values
    base, out, source = _setup(config_path, sets, out_dir)
    rows = run_ablation_grid(source, base, axes)
    extras = extra_columns(axes)
    write_csv(out / "ablation.csv", _result_header(extras),
              [_result_row(row, extras) for row in rows])
    write_manifest(out, "ablate", config_path, config_hash(base), ["ablation.csv"])
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state on it, and the append actions copy their default list."""
    parser = argparse.ArgumentParser(
        prog="adaedit",
        description="Deterministic desk-scale editing runs, sweeps and solver checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", default=None, help="JSON config path")
            p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                           help="override one config field")
        p.add_argument("--out", required=True, help="output directory")

    common(sub.add_parser("edit", help="run one edit"))
    common(sub.add_parser("reconstruct", help="invert and resample the source"))
    common(sub.add_parser("sweep-schedule", help="compare all schedule families"))
    p_tau = sub.add_parser("sweep-temperature", help="sweep the channel softmax temperature")
    common(p_tau)
    p_tau.add_argument("--taus", default="0.5,1.0,2.0",
                       help="comma-separated temperatures")
    common(sub.add_parser("solver-order", help="convergence orders on the analytic flow"),
           config=False)
    p_ab = sub.add_parser("ablate", help="Cartesian product over config axes")
    common(p_ab)
    p_ab.add_argument("--axis", action="append", default=[], metavar="KEY=V1,V2",
                      help="axis values, repeatable; token-id lists use ';' "
                           "between values, as in KEY=1,2,3,4;1,2,9,4")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "edit":
            return cmd_edit(args.config, args.out, args.set)
        if args.command == "reconstruct":
            return cmd_reconstruct(args.config, args.out, args.set)
        if args.command == "sweep-schedule":
            return cmd_sweep_schedule(args.config, args.out, args.set)
        if args.command == "sweep-temperature":
            return cmd_sweep_temperature(args.config, args.out,
                                         parse_axis("tau", args.taus), args.set)
        if args.command == "solver-order":
            return cmd_solver_order(args.out)
        if args.command == "ablate":
            return cmd_ablate(args.config, args.out, args.axis, args.set)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
