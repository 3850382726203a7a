"""Command-line drivers: single edits, reconstructions, schedule/temperature
sweeps, solver-order studies, and ablation grids.

A config command maps the validated config, the seeded source latent and its
one parsed option to its artifacts; one driver writes them and the manifest.
The result tables' columns are laid out here alone; the pipeline returns
results.

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
import ctypes
import functools
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .diagnostics import psnr, ssim
from .errors import ConfigError, DivergenceError
from .models import AnalyticLinearFlow, evaluation_lanes
from .latent import Latent
from .perturbation import blend_weights
from .pipeline import (EditConfig, EditResult, config_hash, edit_grid,
                       generate_source_latent, parse_axis, parse_field,
                       run_edit, run_reconstruction)
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

# A result table's columns: the run id, the config fields it echoes (column
# -> field), the measurements (empty where a command makes none), any axis
# that no column echoes, then the reserved perceptual-metric columns, empty.
CONFIG_COLUMNS = {"schedule": "schedule", "T": "total_steps", "T_inj": "injection_steps",
                  "delta_base": "delta_base", "alpha": "alpha", "tau": "tau",
                  "solver": "solver"}
MEASUREMENT_COLUMNS = ("psnr", "ssim", "max_step_delta", "velocity_jump", "evals")
RESERVED_COLUMNS = ("lpips", "clip")

# A command's artifacts in write order: file name -> (header, rows).
Artifacts = Dict[str, Tuple[Sequence[str], Sequence[Sequence]]]


def fmt(value) -> str:
    if isinstance(value, (int, np.integer)):  # bool too, as 0 or 1
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


def _int_cell(value) -> str:
    return str(int(value))


# fmt's text for the cell types the tables hold, looked up by exact type
# (np.float64 is a float, and formats as one); any other type goes through fmt
_CELL_TEXT = {str: str, int: str, bool: _int_cell, np.int64: _int_cell,
             float: FLOAT_FMT.format, np.float64: FLOAT_FMT.format}


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    text = _CELL_TEXT.get
    lines.extend(",".join(text(type(v), fmt)(v) for v in row) for row in rows)
    _write_artifact(path, "\n".join(lines) + "\n")


def _split_assignment(item: str, option: str) -> Tuple[str, str]:
    key, equals, raw = item.partition("=")
    if not (key and equals):
        raise ConfigError(option, f"expected key=value, got '{item}'")
    return key, raw


def _object_without_repeats(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice is a config error."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(key, "repeated key in the config file")
        data[key] = value
    return data


def load_config(config_path: Optional[str], sets: Sequence[str],
                env=os.environ) -> EditConfig:
    data = {}
    if config_path is not None:
        try:
            data = json.loads(Path(config_path).read_text(),
                              object_pairs_hook=_object_without_repeats)
        except ConfigError:  # a repeated key, named as itself
            raise
        except OSError as exc:
            raise ConfigError("config", f"cannot read '{config_path}': {exc}")
        except ValueError as exc:  # bad JSON, bad UTF-8, an int past 4300 digits
            raise ConfigError("config", f"invalid JSON in '{config_path}': {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config", "top-level JSON value must be an object")
    given = set()
    for item in sets:
        key, raw = _split_assignment(item, "set")
        if key in given:
            raise ConfigError(key, "repeated --set; give it once")
        given.add(key)
        data[key] = parse_field(key, raw)
    seed_env = env.get("ADAEDIT_SEED")
    if seed_env is not None:
        data["seed"] = parse_field("seed", seed_env)
    return EditConfig.from_dict(data)


def _parse_axes(specs: Sequence[str]) -> Dict[str, list]:
    """The --axis items as {field: values}; a repeated field is a config error."""
    axes = {}
    for spec in specs:
        key, raw = _split_assignment(spec, "axis")
        values = parse_axis(key, raw)
        if key in axes:
            raise ConfigError(key, "repeated --axis; give all its values in one")
        axes[key] = values
    return axes


def _make_out(out_dir: str) -> Path:
    """The output directory, created if missing; a path that cannot be one
    (an existing file, a path under a file) is a config error."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out", f"cannot create directory '{out_dir}': {exc}")
    return out


@functools.cache
def _openblas() -> Optional[ctypes.CDLL]:
    """The OpenBLAS that numpy's wheels bundle (numpy.libs), already loaded
    by numpy; None for a numpy without it."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_-*.so"))
    try:
        return ctypes.CDLL(str(libs[0])) if libs else None
    except OSError:
        return None


def _openblas_threads() -> Optional[int]:
    """The thread count the bundled OpenBLAS runs with, read from the
    library; None without the library or its query."""
    get = getattr(_openblas(), "scipy_openblas_get_num_threads64_", None)
    return None if get is None else int(get())


def _environment() -> dict:
    """What an artifact's bytes may depend on besides the config: the numpy
    and (when importable) scipy versions, the BLAS build numpy links, its
    thread setting and the thread count it runs with; and evaluation_lanes,
    who ran a split layer's second share (2: the helper thread, 1: the
    calling thread; the same bytes)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {"numpy": np.__version__,
           "blas": {"name": blas.get("name"), "version": blas.get("version"),
                    "config": blas.get("openblas configuration")},
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
           "openblas_threads": _openblas_threads(),
           "evaluation_lanes": evaluation_lanes()}
    try:
        import scipy
    except ImportError:
        pass
    else:
        env["scipy"] = scipy.__version__
    return env


def write_artifacts(out: Path, command: str, config_path: Optional[str],
                    cfg: EditConfig, artifacts: Artifacts) -> None:
    """Write each artifact as CSV in order, then the manifest listing them;
    the manifest's timestamp is excluded from every hash."""
    for name, (header, rows) in artifacts.items():
        write_csv(out / name, header, rows)
    manifest = {"command": command, "config_path": config_path, "out_dir": str(out),
                "config_hash": config_hash(cfg),
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "version": __version__, "outputs": sorted(artifacts),
                "environment": _environment()}
    _write_artifact(out / "manifest.json",
                    json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _result_table(runs: Sequence[Tuple[str, EditConfig, dict, dict]],
                  extras: Sequence[str] = ()) -> tuple:
    """Header and rows of one result table, a row per (run id, config,
    measurements, axis values); ``extras`` names the axis columns."""
    header = ["run_id", *CONFIG_COLUMNS, *MEASUREMENT_COLUMNS, *extras, *RESERVED_COLUMNS]
    blank = ["" for _ in RESERVED_COLUMNS]
    return header, [[run_id, *(getattr(cfg, name) for name in CONFIG_COLUMNS.values()),
                     *(measured.get(col, "") for col in MEASUREMENT_COLUMNS),
                     *(axis_values[name] for name in extras), *blank]
                    for run_id, cfg, measured, axis_values in runs]


def _measurements(result: EditResult) -> dict:
    return {col: result.diagnostics[col] for col in MEASUREMENT_COLUMNS}


def run_ablation_grid(source: Latent, base: EditConfig, axes: Dict[str, Sequence]) -> tuple:
    """The result table of edit_grid's rows; each axis that no result column
    echoes gets a column of its own."""
    grid = edit_grid(source, base, axes)
    extras = [name for name in axes if name not in CONFIG_COLUMNS.values()]
    return _result_table([(f"{index:03d}", cfg, _measurements(result), overrides)
                          for index, (overrides, cfg, result) in enumerate(grid)], extras)


def cmd_edit(cfg: EditConfig, source: Latent, option: None) -> Artifacts:
    result = run_edit(source, cfg.source_conditioning(), cfg.target_conditioning(), cfg)
    hard = set(result.mask.hard)
    alpha = result.channel_weights.alpha
    blend = blend_weights(cfg, result.channel_weights)
    return {
        "result.csv": _result_table([("000", cfg, _measurements(result), {})]),
        "mask.csv": (["token", "soft", "hard"],
                     [(i, soft, int(i in hard)) for i, soft in enumerate(result.mask.soft)]),
        "channels.csv": (["channel", "d_c", "alpha_c", "blend_weight"],
                         [(c, result.channel_gaps[c], alpha[c], blend[c])
                          for c in range(alpha.size)]),
        "schedule.csv": (["step", "weight", "active"],
                         [(step, weight, active) for step, (weight, active)
                          in enumerate(result.schedule_trace)]),
    }


def cmd_reconstruct(cfg: EditConfig, source: Latent, option: None) -> Artifacts:
    recon = run_reconstruction(source, cfg.source_conditioning(), cfg)
    peak = float(np.ptp(source.data)) or 1.0
    measured = {"psnr": psnr(source, recon, peak=peak), "ssim": ssim(source, recon, peak=peak)}
    return {"result.csv": _result_table([("000", cfg, measured, {})])}


def cmd_sweep_schedule(base: EditConfig, source: Latent, option: None) -> Artifacts:
    table = run_ablation_grid(source, base, {"schedule": SWEEP_FAMILIES})
    curve_rows = []
    for family in SWEEP_FAMILIES:
        weights = replace(base, schedule=family).injection_schedule.weights
        curve_rows.extend((step, family, weight) for step, weight in enumerate(weights))
    return {"sweep.csv": table,
            "schedule_curves.csv": (["step", "family", "weight"], curve_rows)}


def cmd_sweep_temperature(base: EditConfig, source: Latent,
                          taus: Sequence[float]) -> Artifacts:
    header = (["run_id", "tau", "alpha_var"]
              + [f"alpha_{c}" for c in range(base.channels)])
    rows = []
    for index, (_, cfg, result) in enumerate(edit_grid(source, base, {"tau": taus})):
        alpha = result.channel_weights.alpha
        rows.append([f"{index:03d}", cfg.tau, float(alpha.var())] + list(alpha))
    return {"temperature.csv": (header, rows)}


def cmd_ablate(base: EditConfig, source: Latent, axes: Dict[str, list]) -> Artifacts:
    return {"ablation.csv": run_ablation_grid(source, base, axes)}


def run_config_command(args: argparse.Namespace, command: Callable,
                       option_of: Callable) -> int:
    """Run one config command: parse its option, validate the config, make
    --out, seed the source latent, then write what the command returns."""
    option = option_of(args)
    cfg = load_config(args.config, args.set)
    out = _make_out(args.out)
    write_artifacts(out, args.command, args.config, cfg,
                    command(cfg, generate_source_latent(cfg), option))
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


def cmd_solver_order(args: argparse.Namespace) -> int:
    """Takes no config, so ADAEDIT_SEED is ignored; the manifest hashes EditConfig()."""
    out = _make_out(args.out)
    table = solver_order_table()
    header = ["solver", "order"] + [f"err_{steps}" for steps in ORDER_LADDER]
    rows = [[entry["solver"], entry["order"]] + entry["errors"] for entry in table]
    write_artifacts(out, args.command, None, EditConfig(), {"orders.csv": (header, rows)})
    orders = {entry["solver"]: entry["order"] for entry in table}
    euler_ok = EULER_ORDER_BAND[0] <= orders["euler"] <= EULER_ORDER_BAND[1]
    midpoint_ok = MIDPOINT_ORDER_BAND[0] <= orders["midpoint"] <= MIDPOINT_ORDER_BAND[1]
    if not (euler_ok and midpoint_ok):
        print(f"solver order check failed: euler={orders['euler']:.3f} "
              f"midpoint={orders['midpoint']:.3f}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state on it, and the append actions copy their default list. Each
    command's parsed args carry ``run``, the function that runs it."""
    parser = argparse.ArgumentParser(
        prog="adaedit",
        description="Deterministic desk-scale editing runs, sweeps and solver checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def config_command(name, command, help_text, option_of=lambda args: None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config field")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(run=lambda args: run_config_command(args, command, option_of))
        return p

    config_command("edit", cmd_edit, "run one edit")
    config_command("reconstruct", cmd_reconstruct, "invert and resample the source")
    config_command("sweep-schedule", cmd_sweep_schedule, "compare all schedule families")
    p_tau = config_command("sweep-temperature", cmd_sweep_temperature,
                           "sweep the channel softmax temperature",
                           lambda args: parse_axis("tau", args.taus))
    p_tau.add_argument("--taus", default="0.5,1.0,2.0", help="comma-separated temperatures")
    p_order = sub.add_parser("solver-order", help="convergence orders on the analytic flow")
    p_order.add_argument("--out", required=True, help="output directory")
    p_order.set_defaults(run=cmd_solver_order)
    p_ab = config_command("ablate", cmd_ablate, "Cartesian product over config axes",
                          lambda args: _parse_axes(args.axis))
    p_ab.add_argument("--axis", action="append", default=[], metavar="KEY=V1,V2",
                      help="axis values, repeatable; token-id lists use ';' "
                           "between values, as in KEY=1,2,3,4;1,2,9,4")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


def entrypoint() -> None:
    """The console script: main on one thread of the bundled OpenBLAS,
    whatever OPENBLAS_NUM_THREADS says. The artifacts' bytes at the mid size
    and up depend on the BLAS thread count, and the evaluation lanes already
    use the cores that more threads would take."""
    set_threads = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if set_threads is not None:
        set_threads(1)
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
