from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from adaedit import cli
from adaedit.cli import main
from adaedit.errors import ConfigError, DivergenceError
from adaedit.pipeline import EditConfig, build_schedule, generate_source_latent, parse_field
from adaedit.schedules import schedule_weight


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def manifest_without_timestamp(path: Path) -> dict:
    data = json.loads(path.read_text())
    data.pop("timestamp")
    return data


RESULT_HEADER = ("run_id,schedule,T,T_inj,delta_base,alpha,tau,solver,psnr,ssim,"
                 "max_step_delta,velocity_jump,evals,lpips,clip")


def test_edit_default_config(tmp_path):
    out = tmp_path / "run"
    assert main(["edit", "--out", str(out)]) == 0
    header, rows = read_csv(out / "result.csv")
    assert ",".join(header) == RESULT_HEADER
    assert len(rows) == 1
    assert rows[0]["schedule"] == "sigmoid"
    assert rows[0]["lpips"] == "" and rows[0]["clip"] == ""
    for name in ("mask.csv", "channels.csv", "schedule.csv", "manifest.json"):
        assert (out / name).exists()
    _, mask_rows = read_csv(out / "mask.csv")
    assert len(mask_rows) == 16
    _, chan_rows = read_csv(out / "channels.csv")
    assert len(chan_rows) == 8


def test_schedule_csv(tmp_path):
    out = tmp_path / "run"
    assert main(["edit", "--out", str(out)]) == 0
    data = (out / "schedule.csv").read_bytes()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert lines[0] == "step,weight,active"
    assert len(lines) == 16
    step, weight, active = lines[1].split(",")
    assert step == "0"
    assert float(weight) == schedule_weight(build_schedule(EditConfig()), 0)
    assert active == "1"


def test_edit_invalid_config_exits_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"injection_steps": 99}))
    code = main(["edit", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "injection_steps" in capsys.readouterr().err


def test_edit_unknown_field_exits_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"totle_steps": 5}))
    assert main(["edit", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "totle_steps" in capsys.readouterr().err


def test_edit_malformed_json_exits_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text("{not json")
    assert main(["edit", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text", (b"\xff\xfe{", b'{"tau": 1' + b"0" * 5000 + b"}"),
                         ids=("not-utf8", "int-past-4300-digits"))
def test_unreadable_json_exits_2(tmp_path, capsys, text):
    # bytes that are not UTF-8, and an integer past Python's 4300-digit limit
    config = tmp_path / "cfg.json"
    config.write_bytes(text)
    assert main(["edit", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "config error: config: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("make", (lambda path: None, lambda path: path.mkdir()),
                         ids=("missing", "directory"))
def test_a_config_path_that_is_no_readable_file_exits_2(tmp_path, capsys, make):
    config = tmp_path / "cfg.json"
    make(config)
    assert main(["edit", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "config error: config: cannot read" in capsys.readouterr().err


def test_edit_deterministic_across_invocations(tmp_path):
    out = tmp_path / "run"
    assert main(["edit", "--out", str(out)]) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("result.csv", "mask.csv", "channels.csv", "schedule.csv")
    }
    first_manifest = manifest_without_timestamp(out / "manifest.json")
    assert main(["edit", "--out", str(out)]) == 0
    for name, data in first.items():
        assert (out / name).read_bytes() == data
    assert manifest_without_timestamp(out / "manifest.json") == first_manifest


def test_set_override_changes_artifacts(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["edit", "--out", str(out_a)]) == 0
    assert main(["edit", "--out", str(out_b), "--set", "schedule=binary"]) == 0
    _, rows = read_csv(out_b / "result.csv")
    assert rows[0]["schedule"] == "binary"
    assert float(rows[0]["max_step_delta"]) == 0.9


def test_env_seed_override(tmp_path, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["edit", "--out", str(out_a)]) == 0
    monkeypatch.setenv("ADAEDIT_SEED", "123")
    assert main(["edit", "--out", str(out_b)]) == 0
    hash_a = json.loads((out_a / "manifest.json").read_text())["config_hash"]
    hash_b = json.loads((out_b / "manifest.json").read_text())["config_hash"]
    assert hash_a != hash_b


def test_env_seed_invalid_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ADAEDIT_SEED", "abc")
    assert main(["edit", "--out", str(tmp_path / "o")]) == 2


def test_reconstruct(tmp_path):
    out = tmp_path / "rec"
    assert main(["reconstruct", "--out", str(out)]) == 0
    header, rows = read_csv(out / "result.csv")
    assert ",".join(header) == RESULT_HEADER
    assert float(rows[0]["psnr"]) > 10.0


def test_sweep_schedule(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep-schedule", "--out", str(out)]) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert [row["schedule"] for row in rows] == ["binary", "sigmoid", "cosine", "linear"]
    binary = rows[0]
    sigmoid = rows[1]
    assert float(binary["max_step_delta"]) == 0.9
    assert abs(float(sigmoid["max_step_delta"]) - 0.2639) < 1e-4
    header, curves = read_csv(out / "schedule_curves.csv")
    assert header == ["step", "family", "weight"]
    sig0 = [row for row in curves if row["family"] == "sigmoid" and row["step"] == "0"]
    assert abs(float(sig0[0]["weight"]) - 0.970688) < 1e-6


def test_sweep_temperature(tmp_path):
    out = tmp_path / "temp"
    assert main(["sweep-temperature", "--out", str(out), "--taus", "0.5,1,2,1e6"]) == 0
    header, rows = read_csv(out / "temperature.csv")
    assert header[:3] == ["run_id", "tau", "alpha_var"]
    variances = [float(row["alpha_var"]) for row in rows]
    assert all(b <= a for a, b in zip(variances, variances[1:]))
    last = rows[-1]
    alphas = [float(last[f"alpha_{c}"]) for c in range(8)]
    assert max(abs(a - 1.0) for a in alphas) < 1e-4


def test_sweep_temperature_single_value(tmp_path):
    out = tmp_path / "temp1"
    assert main(["sweep-temperature", "--out", str(out), "--taus", "1.0"]) == 0
    _, rows = read_csv(out / "temperature.csv")
    assert len(rows) == 1


def test_sweep_temperature_rejects_nonpositive(tmp_path, capsys):
    assert main(["sweep-temperature", "--out", str(tmp_path / "t"),
                 "--taus", "0.5,-1"]) == 2


def test_solver_order(tmp_path):
    out = tmp_path / "orders"
    assert main(["solver-order", "--out", str(out)]) == 0
    header, rows = read_csv(out / "orders.csv")
    assert header == ["solver", "order", "err_10", "err_20", "err_40"]
    orders = {row["solver"]: float(row["order"]) for row in rows}
    assert 0.7 < orders["euler"] < 1.3
    assert 1.7 < orders["midpoint"] < 2.3
    assert set(orders) == {"euler", "midpoint", "reuse_velocity"}


def test_ablate(tmp_path):
    out = tmp_path / "abl"
    assert main(["ablate", "--out", str(out),
                 "--axis", "schedule=binary,sigmoid",
                 "--axis", "alpha=0.1,0.25"]) == 0
    header, rows = read_csv(out / "ablation.csv")
    assert len(rows) == 4
    assert [(r["schedule"], r["alpha"]) for r in rows] == [
        ("binary", "0.10000000000000001"), ("binary", "0.25"),
        ("sigmoid", "0.10000000000000001"), ("sigmoid", "0.25")]


def test_one_parser_serves_every_call_without_carrying_options(tmp_path):
    # the parser is built once per process; a call's --set and --axis lists
    # must not keep the values of the call before it
    assert cli.build_parser() is cli.build_parser()

    def ablate(out, seed, axis):
        return main(["ablate", "--out", str(tmp_path / out), "--set", f"seed={seed}",
                     "--axis", axis])

    assert ablate("first", 3, "schedule=binary,sigmoid") == 0
    assert ablate("second", 4, "tau=0.5,2.0") == 0
    cli.build_parser.cache_clear()
    assert ablate("fresh", 4, "tau=0.5,2.0") == 0
    second = (tmp_path / "second" / "ablation.csv").read_bytes()
    assert second == (tmp_path / "fresh" / "ablation.csv").read_bytes()
    assert second != (tmp_path / "first" / "ablation.csv").read_bytes()
    assert (manifest_without_timestamp(tmp_path / "second" / "manifest.json")["config_hash"]
            == manifest_without_timestamp(tmp_path / "fresh" / "manifest.json")["config_hash"])


def test_ablate_extra_axis_column(tmp_path):
    out = tmp_path / "abl2"
    assert main(["ablate", "--out", str(out),
                 "--axis", "soft_mask_gamma=5,15"]) == 0
    header, rows = read_csv(out / "ablation.csv")
    assert "soft_mask_gamma" in header
    assert header.index("soft_mask_gamma") == len(header) - 3  # before lpips,clip
    assert [r["soft_mask_gamma"] for r in rows] == ["5", "15"]


def test_ablate_optional_and_token_list_axis_cells(tmp_path):
    # a None value and a token-id list each write one cell; axes that no
    # result column echoes follow the result columns in axis order
    out = tmp_path / "abl"
    assert main(["ablate", "--out", str(out), "--axis", "soft_mask_gamma=none,8",
                 "--axis", "target_prompt_ids=1,2,9,4;5,6,7,8"]) == 0
    header, rows = read_csv(out / "ablation.csv")
    assert ",".join(header) == RESULT_HEADER.replace(
        "evals,", "evals,soft_mask_gamma,target_prompt_ids,")
    assert [(row["soft_mask_gamma"], row["target_prompt_ids"]) for row in rows] == [
        ("None", "1 2 9 4"), ("None", "5 6 7 8"), ("8", "1 2 9 4"), ("8", "5 6 7 8")]
    assert [row["run_id"] for row in rows] == ["000", "001", "002", "003"]


def test_csv_cells_have_fmt_text_for_every_type(tmp_path):
    # write_csv looks each cell's text up by its exact type; every type, in
    # the table or not, writes what fmt makes of it
    row = ["000", "", 15, -3, True, False, np.int64(-7), np.int32(4),
           0.1, -0.0, 1e300, float("inf"), float("nan"), 2.0 ** -1074,
           np.float64(1 / 3), np.float64(-0.0), np.float32(0.1), None, (1, 2, 9), (),
           np.bool_(True)]
    path = tmp_path / "cells.csv"
    cli.write_csv(path, ["c"] * len(row), [row])
    assert path.read_text().splitlines()[1] == ",".join(cli.fmt(v) for v in row)
    assert path.read_text().splitlines()[1].startswith(
        "000,,15,-3,1,0,-7,4,0.10000000000000001,-0,1.0000000000000001e+300,inf,nan,"
        "4.9406564584124654e-324,0.33333333333333331,-0,0.10000000149011612,None,1 2 9,,")


def test_reconstruct_leaves_the_edit_measurements_empty(tmp_path):
    out = tmp_path / "rec"
    assert main(["reconstruct", "--out", str(out)]) == 0
    _, (row,) = read_csv(out / "result.csv")
    assert [row[col] for col in ("max_step_delta", "velocity_jump", "evals",
                                 "lpips", "clip")] == ["", "", "", "", ""]
    assert row["run_id"] == "000" and row["schedule"] == "sigmoid" and row["T"] == "15"


def test_ablation_row_runs_its_own_config(tmp_path):
    # row k of an axis over a prompt field equals an edit with that value set;
    # token-id lists separate their values with ';'
    for field, values, sep in (("target_keyword_index", ["0", "1", "2"], ","),
                               ("target_prompt_ids", ["1,2,9,4", "1,2,10,4"], ";")):
        out = tmp_path / field
        assert main(["ablate", "--out", str(out),
                     "--axis", f"{field}={sep.join(values)}"]) == 0
        _, rows = read_csv(out / "ablation.csv")
        # the axis column keeps each value in one cell
        assert [row[field] for row in rows] == [v.replace(",", " ") for v in values]
        for k, value in enumerate(values):
            edit_out = tmp_path / f"{field}-{k}"
            assert main(["edit", "--out", str(edit_out), "--set", f"{field}={value}"]) == 0
            _, (edit_row,) = read_csv(edit_out / "result.csv")
            assert (rows[k]["psnr"], rows[k]["ssim"]) == (edit_row["psnr"], edit_row["ssim"])
        assert len({row["psnr"] for row in rows}) == len(values)
    assert main(["ablate", "--out", str(tmp_path / "text"),
                 "--axis", "text_tokens=4,6"]) == 0


def test_cross_field_rules_see_the_final_values(tmp_path):
    assert main(["edit", "--out", str(tmp_path / "a"),
                 "--set", "total_steps=3", "--set", "injection_steps=2"]) == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"injection_steps": 20}))
    assert main(["edit", "--config", str(config), "--out", str(tmp_path / "b"),
                 "--set", "total_steps=25"]) == 0


def test_ablate_unknown_axis_exits_2(tmp_path, capsys):
    assert main(["ablate", "--out", str(tmp_path / "x"),
                 "--axis", "bogus=1,2"]) == 2
    assert "bogus" in capsys.readouterr().err


def ablation_rows(cfg, axes):
    header, rows = cli.run_ablation_grid(generate_source_latent(cfg), cfg, axes)
    return [dict(zip(header, row)) for row in rows]


def test_ablation_schedule_axis():
    cfg = EditConfig(seed=1)
    rows = ablation_rows(cfg, {"schedule": ["binary", "sigmoid"]})
    assert len(rows) == 2
    assert rows[0]["schedule"] == "binary"
    assert rows[0]["max_step_delta"] == cfg.delta_base
    assert rows[1]["max_step_delta"] < cfg.delta_base


def test_ablation_tau_axis_variance_monotone():
    cfg = EditConfig(seed=1)
    rows = ablation_rows(cfg, {"tau": [0.25, 1.0, 4.0]})
    assert [row["tau"] for row in rows] == [0.25, 1.0, 4.0]


def test_ablation_empty_axes_single_row():
    rows = ablation_rows(EditConfig(seed=1), {})
    assert len(rows) == 1
    assert rows[0]["run_id"] == "000"


def test_ablation_unknown_axis():
    with pytest.raises(ConfigError):
        ablation_rows(EditConfig(seed=1), {"bogus_field": [1, 2]})


def test_result_table_schema():
    cfg = EditConfig(seed=0)
    header, (row,) = cli.run_ablation_grid(generate_source_latent(cfg), cfg, {})
    assert ",".join(header) == RESULT_HEADER
    assert len(row) == len(header)


def test_divergence_maps_to_exit_3(tmp_path, monkeypatch):
    import adaedit.cli as cli_mod

    def boom(*args, **kwargs):
        raise DivergenceError(3, "test blowup", "sampling")

    monkeypatch.setattr(cli_mod, "run_edit", boom)
    assert main(["edit", "--out", str(tmp_path / "d")]) == 3


def test_a_divergence_in_an_ablation_stack_exits_3_naming_the_row(tmp_path, monkeypatch,
                                                                  capsys):
    # the inversion's states peak higher than some rows' sampling states, so
    # the limit drops only while sampling
    from adaedit import pipeline, solvers

    real_forward, limit = pipeline.integrate_forward, solvers.DIVERGENCE_LIMIT

    def limited(*args, **kwargs):
        solvers.DIVERGENCE_LIMIT = 3.5 if kwargs.get("phase") == "sampling" else limit
        try:
            return real_forward(*args, **kwargs)
        finally:
            solvers.DIVERGENCE_LIMIT = limit

    monkeypatch.setattr(pipeline, "integrate_forward", limited)
    code = main(["ablate", "--out", str(tmp_path / "a"), "--set", "seed=1",
                 "--set", "total_steps=6", "--set", "injection_steps=3",
                 "--axis", "alpha=0.5,1.0,0.1", "--axis", "schedule=binary,sigmoid"])
    assert code == 3
    assert "[sampling] divergence at step 0 in row 5:" in capsys.readouterr().err


def test_solver_order_out_of_band_maps_to_exit_4(tmp_path, monkeypatch):
    import adaedit.cli as cli_mod

    def bogus_table():
        return [
            {"solver": "euler", "order": 0.2, "errors": [1.0, 1.0, 1.0]},
            {"solver": "midpoint", "order": 2.0, "errors": [1.0, 1.0, 1.0]},
            {"solver": "reuse_velocity", "order": 2.0, "errors": [1.0, 1.0, 1.0]},
        ]

    monkeypatch.setattr(cli_mod, "solver_order_table", bogus_table)
    assert main(["solver-order", "--out", str(tmp_path / "o")]) == 4


def test_set_value_parsing():
    assert parse_field("total_steps", "8") == 8
    assert parse_field("delta_base", "0.5") == 0.5
    assert parse_field("global_mix", "true") is True
    assert parse_field("global_mix", "0") is False
    assert parse_field("schedule", "cosine") == "cosine"
    assert parse_field("soft_mask_gamma", "none") is None
    assert parse_field("soft_mask_gamma", "5") == 5.0
    assert parse_field("source_prompt_ids", "1,2,3,4") == (1, 2, 3, 4)
    with pytest.raises(ConfigError):
        parse_field("bogus", "1")
    with pytest.raises(ConfigError):
        parse_field("global_mix", "maybe")


# Inputs that must end in exit 2 with an error naming the field: (argv before
# --out, JSON config as a dict or raw text, or None, field). None may end in
# a traceback or be silently coerced. A case whose config is raw text has an
# explicit id, since pytest would put the text into the id.
BAD_INPUTS = [
    (["edit", "--set", "total_steps=abc"], None, "total_steps"),
    (["edit", "--set", "source_prompt_ids=1,2,x,4"], None, "source_prompt_ids"),
    (["ablate", "--axis", "total_steps=abc"], None, "total_steps"),
    (["edit"], {"total_steps": "5"}, "total_steps"),
    (["edit"], {"source_prompt_ids": 5}, "source_prompt_ids"),
    (["edit"], {"soft_mask_gamma": "x"}, "soft_mask_gamma"),
    (["edit"], {"global_mix": "no"}, "global_mix"),
    (["edit"], {"seed": 1.7}, "seed"),
    (["edit"], {"seed": True}, "seed"),
    (["edit"], {"source_prompt_ids": [1.9, 2, 3, 4]}, "source_prompt_ids"),
    (["edit"], {"total_steps": 2.5}, "total_steps"),
    # the default sigmoid starts at w_0 ~ 0.97, so no step is active
    (["edit", "--set", "activity_threshold=0.99"], None, "activity_threshold"),
    (["edit", "--set", "sharpness=inf", "--set", "injection_steps=10"], None, "sharpness"),
    (["edit"], {"alpha": float("nan")}, "alpha"),
    (["edit", "--set", "total_steps=100000000"], None, "total_steps"),
    (["edit", "--set", "embed_dim=1000000"], None, "embed_dim"),
    (["sweep-temperature", "--taus", "0.5,inf"], None, "tau"),
    # every ablation row shares one source latent, so its shape is fixed
    (["ablate", "--axis", "img_tokens=16,25"], None, "img_tokens"),
    # a source latent is one image, so batch is an unknown field (see the end)
    (["ablate", "--axis", "batch=1,2"], None, "batch"),
    (["ablate", "--axis", "channels=4,8"], None, "channels"),
    # a repeated axis name would silently drop the earlier values
    (["ablate", "--axis", "alpha=0.1,0.5", "--axis", "alpha=0.3"], None, "alpha"),
    # the attention record of 28 active steps alone is ~3.76 GB
    (["edit"], {"img_tokens": 1024, "text_tokens": 256, "vocab_size": 512, "heads": 8,
                "layer_count": 8, "embed_dim": 64, "total_steps": 28,
                "injection_steps": 28, "schedule": "binary"}, "img_tokens"),
    # the model's weights alone are ~1.62 GB
    (["edit"], {"layer_count": 32, "embed_dim": 1024, "vocab_size": 65536,
                "img_tokens": 1024, "text_tokens": 256, "total_steps": 4,
                "injection_steps": 1, "schedule": "binary"}, "img_tokens"),
    # JSON integers past float range in float fields
    (["edit"], {"tau": 10**400}, "tau"),
    (["edit"], {"soft_mask_gamma": -10**400}, "soft_mask_gamma"),
    # a repeated key would silently keep only its last value; raw JSON text,
    # since a dict cannot repeat a key
    pytest.param(["edit"], '{"alpha": 2, "alpha": 0.1}', "alpha", id="repeated-json-key"),
    # batch set or read from a file is an unknown field too
    (["edit", "--set", "batch=2"], None, "batch"),
    (["edit"], {"batch": 2}, "batch"),
    # a repeated --set would silently keep only its last value
    (["edit", "--set", "alpha=0.1", "--set", "alpha=0.4"], None, "alpha"),
    # an assignment with an empty key names the option, not an empty field
    (["edit", "--set", "=3"], None, "set"),
    (["ablate", "--axis", "=3"], None, "axis"),
    # rules that span fields, each stated once beside the library object
    (["edit", "--set", "heads=3"], None, "heads"),
    (["edit", "--set", "img_tokens=15"], None, "img_tokens"),
    (["edit", "--set", "source_keyword_index=7"], None, "source_keyword_index"),
    (["edit", "--set", "target_prompt_ids=1,2,3"], None, "target_prompt_ids"),
    (["edit", "--set", "source_prompt_ids=1,2,3,64"], None, "source_prompt_ids"),
    (["edit", "--set", "source_prompt_ids=1,2,3,-1"], None, "source_prompt_ids"),
    # the default target prompt puts text_tokens + 5 = 9 at the keyword
    (["edit", "--set", "vocab_size=8"], None, "target_prompt_ids"),
    # a config file holds one JSON object
    pytest.param(["edit"], "[1, 2]", "config", id="json-array-config"),
    # an empty list item, also before a trailing separator, would be dropped
    (["ablate", "--axis", "alpha=0.1,,0.5"], None, "alpha"),
    (["ablate", "--axis", "alpha=0.1,0.5,"], None, "alpha"),
    (["ablate", "--axis", "alpha="], None, "alpha"),
    (["ablate", "--axis", "target_prompt_ids=1,2,9,4;"], None, "target_prompt_ids"),
    (["ablate", "--axis", "target_prompt_ids=1,2,9,4;5,,7,8"], None, "target_prompt_ids"),
    (["edit", "--set", "source_prompt_ids=1,,2,3,4"], None, "source_prompt_ids"),
    (["edit", "--set", "source_prompt_ids=1,2,3,4,"], None, "source_prompt_ids"),
    (["sweep-temperature", "--taus", "0.5,,2.0"], None, "tau"),
    (["sweep-temperature", "--taus", "0.5,1.0,"], None, "tau"),
]


@pytest.mark.parametrize("argv,config,field", BAD_INPUTS)
def test_bad_input_exits_2_naming_the_field(tmp_path, capsys, argv, config, field):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


ARTIFACTS = {"edit": "result.csv", "solver-order": "orders.csv", "ablate": "ablation.csv"}


@pytest.mark.parametrize("command", (["edit"], ["solver-order"], ["ablate", "--axis", "tau=1.0"]))
@pytest.mark.parametrize("blocked", (False, True, "artifact"))
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, command, blocked):
    # False: --out is a file; True: --out lies under a file; "artifact": the
    # command's artifact path is a directory, found only after the run
    blocker = tmp_path / "taken"
    if blocked == "artifact":
        out = tmp_path / "run"
        blocker = out / ARTIFACTS[command[0]]
        blocker.mkdir(parents=True)
    else:
        blocker.write_text("keep")
        out = blocker / "run" if blocked else blocker
    assert main(command + ["--out", str(out)]) == 2
    assert "config error: out:" in capsys.readouterr().err
    if blocked == "artifact":
        assert blocker.is_dir() and not any(blocker.iterdir())
    else:
        assert blocker.read_text() == "keep"


MANIFEST_KEYS = {"command", "config_path", "out_dir", "config_hash", "timestamp",
                 "version", "outputs", "environment"}


@pytest.mark.parametrize("command", (["edit"], ["reconstruct"], ["sweep-schedule"],
                                     ["sweep-temperature", "--taus", "0.5,2"],
                                     ["solver-order"], ["ablate", "--axis", "tau=1.0"]),
                         ids=lambda command: command[0])
def test_manifest_lists_exactly_the_files_written(tmp_path, command):
    out = tmp_path / "run"
    assert main(command + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command[0]
    written = sorted(path.name for path in out.iterdir() if path.name != "manifest.json")
    assert manifest["outputs"] == written


def test_manifest_records_the_numeric_environment(tmp_path):
    import scipy

    out = tmp_path / "run"
    assert main(["solver-order", "--out", str(out)]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert set(env) == {"numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS", "openblas_threads",
                        "evaluation_lanes"}
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"],
                           "config": blas.get("openblas configuration")}
    assert env["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
    assert env["openblas_threads"] is None or env["openblas_threads"] >= 1
    assert env["evaluation_lanes"] in (1, 2)


def test_the_openblas_thread_count_follows_the_variable_at_one():
    # the count is read from the bundled library, so it says how many
    # threads ran where OPENBLAS_NUM_THREADS is unset; None without one
    import subprocess
    import sys

    code = "from adaedit import cli; print(cli._openblas_threads())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, check=True)
    assert proc.stdout.strip() in ("1", "None")


def test_the_command_line_runs_one_blas_thread_whatever_the_variable_says(tmp_path):
    # python -m adaedit.cli, like the console script, sets the bundled
    # OpenBLAS to one thread; the manifest still records the variable as given
    import subprocess
    import sys

    out = tmp_path / "run"
    subprocess.run([sys.executable, "-m", "adaedit.cli", "solver-order", "--out", str(out)],
                   env={**os.environ, "OPENBLAS_NUM_THREADS": "2"}, capture_output=True,
                   check=True)
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env["OPENBLAS_NUM_THREADS"] == "2"
    assert env["openblas_threads"] in (1, None)


def test_main_leaves_the_blas_thread_count_alone_and_the_entrypoint_sets_one(
        monkeypatch, tmp_path):
    lib = cli._openblas()
    get = getattr(lib, "scipy_openblas_get_num_threads64_", lambda: None)
    was = get()
    try:
        if was is not None:
            lib.scipy_openblas_set_num_threads64_(2)
        before = get()
        assert main(["solver-order", "--out", str(tmp_path / "main")]) == 0
        assert get() == before
        monkeypatch.setattr("sys.argv", ["adaedit", "solver-order", "--out",
                                         str(tmp_path / "entrypoint")])
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == 0
        assert get() in (1, None)
    finally:
        if was is not None:
            lib.scipy_openblas_set_num_threads64_(was)


def test_module_entrypoint_subprocess(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "adaedit.cli", "solver-order", "--out", str(out)],
        capture_output=True)
    assert proc.returncode == 0
    assert (out / "orders.csv").exists()


def test_config_file_round_trip(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "total_steps": 8, "injection_steps": 3, "schedule": "cosine",
        "solver": "euler", "seed": 11}))
    out = tmp_path / "run"
    assert main(["edit", "--config", str(config), "--out", str(out)]) == 0
    _, rows = read_csv(out / "result.csv")
    assert rows[0]["T"] == "8"
    assert rows[0]["T_inj"] == "3"
    assert rows[0]["schedule"] == "cosine"
    assert rows[0]["evals"] == "16"  # euler: T inversion + T sampling
