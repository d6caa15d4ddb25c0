"""CLI plumbing tests: config resolution, reports, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab import cli, contrastive
from gaplab.contrastive import ContrastiveBatch, loss_bound_check
from gaplab.cli import main, resolve_config
from gaplab.embio import DTYPE_FLOAT32, MAGIC, VERSION, read_csv, write_mmeb
from gaplab.linalg import PairedEmbeddings, l2_normalize_rows


def report_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestConfigResolution:
    def test_defaults(self):
        params = resolve_config("verify-gradients", None, None)
        assert params["batches"] == 100
        assert params["seed"] == 0

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"batches": 7, "seed": 3}))
        params = resolve_config("verify-gradients", str(cfg), None)
        assert params["batches"] == 7
        assert params["seed"] == 3

    def test_cli_seed_wins(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 3}))
        assert resolve_config("verify-gradients", str(cfg), 9)["seed"] == 9

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        with pytest.raises(ValueError, match="nonsense"):
            resolve_config("verify-gradients", str(cfg), None)


# A value of the wrong type for each kind of default.
WRONG_TYPE = {bool: 1, int: 1.5, float: "abc", str: 7, list: []}
TABLE_KEYS = [(command, key) for command in sorted(cli._COMMANDS)
              for key in resolve_config(command, None, None)]


def exits_2_with_one_line(capsys, tmp_path, command, config, *flags):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith(f"gaplab {command}: error: ")
    assert "Traceback" not in err
    assert not out.exists()  # rejected before the runner ran
    return err


class TestConfigTypes:
    @pytest.mark.parametrize("command,key", TABLE_KEYS)
    def test_wrong_type_exits_2(self, capsys, tmp_path, command, key):
        default = resolve_config(command, None, None)[key]
        exits_2_with_one_line(capsys, tmp_path, command, {key: WRONG_TYPE[type(default)]})

    @pytest.mark.parametrize("command,config", [
        ("verify-gradients", {"taus": []}),
        ("train-sim", {"steps": 1.5}),
        ("simulate-init", {"n": "abc"}),
        ("stable-region", {"instances": True}),
        ("verify-gradients", {"taus": [0.07, "x"]}),
        ("gap-stats", [1, 2]),
        ("train-sim", {"tau": 0}),
        ("train-sim", {"tau": -0.07}),
        ("verify-gradients", {"taus": [0.07, 0]}),
        ("stable-region", {"taus": [-0.5, 0.07]}),
        ("shift-sweep", {"seeds": 0}),
        ("mlp-collapse", {"seeds": 0}),
        ("c3-bench", {"seeds": -1}),
        ("stable-region", {"instances": 0}),
        ("verify-gradients", {"batches": 0}),
        ("mlp-collapse", {"depth": 0}),
        ("gap-stats", {"n": 2000, "pairs_per_group": 0}),
        ("verify-gradients", {"h": 0}),
        ("verify-gradients", {"h": -1}),
        ("c3-bench", {"span_dim": -1}),
        ("shift-sweep", {"span_dim": -1}),
        ("gap-stats", {"file_format": "bogus"}),
        ("train-sim", {"init": "bogus"}),
        ("train-sim", {"gradient_form": "bogus"}),
        ("gap-stats", {"noise_mode": "bogus"}),
        ("shift-sweep", {"shift_mode": "bogus"}),
        ("export", {"in_format": "bogus"}),
        ("export", {"out_format": "bogus"}),
    ])
    def test_malformed_config_exits_2(self, capsys, tmp_path, command, config):
        exits_2_with_one_line(capsys, tmp_path, command, config)

    def test_no_shared_dimension_to_mask_exits_2(self, capsys, tmp_path):
        # dex + dey = d leaves no shared constant dimension to mask
        err = exits_2_with_one_line(capsys, tmp_path, "train-sim", {"dex": 25, "dey": 487})
        assert "masked_dims must be a non-empty 1-d array" in err

    def test_mmeb_header_promising_2_40_rows_exits_2(self, capsys, tmp_path):
        # the payload size is checked before anything is allocated
        x = tmp_path / "x.mmeb"
        x.write_bytes(struct.pack("<4sIQQI", MAGIC, VERSION, 2**40, 512, DTYPE_FLOAT32))
        err = exits_2_with_one_line(capsys, tmp_path, "gap-stats",
                                    {"x_file": str(x), "y_file": str(x)})
        assert f"payload holds 0 bytes, expected {2**40 * 512 * 4}" in err

    def test_diverged_training_exits_2(self, capsys, tmp_path):
        # the trainer detects the divergence itself; numpy warns of nothing
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            err = exits_2_with_one_line(capsys, tmp_path, "train-sim",
                                        {"learning_rate": 1e6, "steps": 50, "record_every": 10})
        assert re.fullmatch(r"gaplab train-sim: error: update diverged at step \d+\n", err)
        assert [str(w.message) for w in seen] == []

    def test_nan_never_reaches_a_report(self, tmp_path):
        with pytest.raises(ValueError):
            cli.write_reports(str(tmp_path), "shift-sweep", {"seed": 0},
                              {"curve": [float("nan")]}, {}, [])
        assert list(tmp_path.iterdir()) == []

    def test_long_running_flag_only_for_train_sim(self, capsys, tmp_path):
        exits_2_with_one_line(capsys, tmp_path, "stable-region", {}, "--long-running")

    def test_run_command_checks_params(self, tmp_path):
        params = dict(resolve_config("train-sim", None, None), steps=1.5)
        with pytest.raises(ValueError, match="steps"):
            cli.run_command("train-sim", params, str(tmp_path))
        params = resolve_config("train-sim", None, None)
        del params["steps"]
        with pytest.raises(ValueError, match="steps"):
            cli.run_command("train-sim", params, str(tmp_path))

    def test_float_default_takes_an_int(self):
        params = dict(resolve_config("stable-region", None, None), taus=[1], delta=0)
        cli._check_config("stable-region", params)


class TestCommands:
    def test_verify_gradients_passes(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"batches": 9}))
        out = tmp_path / "out"
        rc = main(["verify-gradients", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "verify-gradients.json").read_text())
        assert doc["passed"]
        assert doc["config"]["batches"] == 9
        assert doc["results"]["max_rel_error"] < 1e-5
        assert (out / "verify-gradients.errors.csv").exists()

    def test_stable_region_passes(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"instances": 60}))
        out = tmp_path / "out"
        rc = main(["stable-region", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "stable-region.json").read_text())
        assert doc["results"]["bound_violations"] == 0

    def test_stable_region_forms_each_row_once(self, tmp_path, monkeypatch):
        # one similarity row per instance, shared by every tau, and the
        # report's figures equal loss_bound_check's on the same batch
        splits, margins = [], []
        split, margin = cli._anchor_split, contrastive.margin
        monkeypatch.setattr(cli, "_anchor_split", lambda *a: splits.append(a[2]) or split(*a))
        monkeypatch.setattr(contrastive, "margin", lambda *a: margins.append(a) or margin(*a))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"instances": 10, "n": 5, "d": 6}))
        out = tmp_path / "out"
        assert main(["stable-region", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
        assert splits == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]
        assert margins == []
        taus = resolve_config("stable-region", None, None)["taus"]
        rng = np.random.default_rng(7)
        expected = []
        for batch_no in range(2):
            x = l2_normalize_rows(rng.standard_normal((5, 6)))
            y = l2_normalize_rows(rng.standard_normal((5, 6)))
            for i in range(5):
                for tau in taus:
                    rep = loss_bound_check(ContrastiveBatch(PairedEmbeddings(x=x, y=y), tau), i, 0.01)
                    expected.append([5 * batch_no + i, tau, rep.margin, rep.crowding,
                                     rep.loss_i, rep.bound])
        lines = [line for line in (out / "stable-region.instances.csv").read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0].split(",")[:7] == ["instance", "tau", "margin", "crowding", "threshold",
                                           "loss_i", "bound"]
        got = [[float(v) for i, v in enumerate(line.split(",")[:7]) if i != 4] for line in lines[1:]]
        assert got == expected

    @pytest.mark.parametrize("config,flags,want", [
        ({}, ["--long-running"], {"n": 1000, "steps": 200000, "init": "unit"}),
        ({"steps": 50}, ["--long-running"], {"n": 1000, "steps": 50, "init": "unit"}),
        ({"long_running": True, "init": "prenorm", "steps": 50}, [],
         {"n": 1000, "steps": 50, "init": "prenorm"}),
    ])
    def test_long_running_echoes_the_config_it_ran(self, tmp_path, monkeypatch, config, flags,
                                                   want):
        seen = {}

        def fake_train(init, tau, cfg, masked_dims):
            norms = np.linalg.norm(init.x.values, axis=1)
            seen.update(n=init.n, d=init.d, tau=tau, learning_rate=cfg.learning_rate,
                        steps=cfg.steps, record_every=cfg.record_every,
                        renormalize_each_step=cfg.renormalize_each_step,
                        gradient_form=cfg.gradient_form,
                        init="unit" if np.allclose(norms, 1.0) else "prenorm")
            traj = [contrastive.TrainingRecord(s, loss, 1.2, 0.82, 0.0)
                    for s, loss in ((0, 1.0), (cfg.steps, 0.5))]
            return contrastive.TrainingResult(traj, init)

        monkeypatch.setattr(cli, "train_contrastive", fake_train)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out), *flags]) == 0
        echoed = json.loads((out / "train-sim.json").read_text())["config"]
        assert echoed["long_running"] is True
        assert {k: echoed[k] for k in seen} == seen
        assert {k: seen[k] for k in want} == want
        assert seen["renormalize_each_step"] is True and seen["gradient_form"] == "exact"
        prefix = [line for line in (out / "train-sim.trajectory.csv").read_text().splitlines()
                  if line.startswith("# ")]
        assert prefix[1:] == [f"# {k}={cli._cell(v)}" for k, v in sorted(echoed.items())]

    def test_reports_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 600, "d": 64, "span_dim": 16, "group_size": 100}))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        rc_a = main(["gap-stats", "--config", str(cfg), "--out", str(out_a), "--seed", "4"])
        rc_b = main(["gap-stats", "--config", str(cfg), "--out", str(out_b), "--seed", "4"])
        assert rc_a == rc_b
        assert report_bytes(out_a) == report_bytes(out_b)

    def test_seed_changes_report(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 600, "d": 64, "span_dim": 16}))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["gap-stats", "--config", str(cfg), "--out", str(out_a), "--seed", "4"])
        main(["gap-stats", "--config", str(cfg), "--out", str(out_b), "--seed", "5"])
        assert report_bytes(out_a) != report_bytes(out_b)

    def test_csv_reports_prefixed_with_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"instances": 30}))
        out = tmp_path / "out"
        main(["stable-region", "--config", str(cfg), "--out", str(out)])
        text = (out / "stable-region.instances.csv").read_text()
        assert text.startswith("# command=stable-region\n")
        assert "# instances=30" in text
        assert "# seed=0" in text

    def test_format_selects_outputs(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"instances": 20}))
        out = tmp_path / "json_only"
        main(["stable-region", "--config", str(cfg), "--out", str(out), "--format", "json"])
        names = [p.name for p in out.iterdir()]
        assert names == ["stable-region.json"]

    def test_gap_stats_table_order(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 600, "d": 64, "span_dim": 16}))
        out = tmp_path / "out"
        main(["gap-stats", "--config", str(cfg), "--out", str(out)])
        rows = [ln.split(",")[0] for ln in (out / "gap-stats.statistics.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert rows == ["gap_length", "gap_direction", "gap_orthogonality",
                        "noise_mean", "noise_direction"]


    def test_train_sim_small_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 64, "steps": 200, "record_every": 100}))
        out = tmp_path / "out"
        rc = main(["train-sim", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "train-sim.json").read_text())
        assert doc["checks"]["masked_grad_exactly_zero"]
        assert doc["results"]["final_loss"] < 0.01
        assert (out / "train-sim.trajectory.csv").exists()

    def test_train_sim_exact_form_skips_masked_grad_check(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 64, "steps": 200, "record_every": 100,
                                   "gradient_form": "exact"}))
        out = tmp_path / "out"
        rc = main(["train-sim", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "train-sim.json").read_text())
        assert "masked_grad_exactly_zero" not in doc["checks"]
        assert doc["results"]["max_masked_grad"] > 0.0

    def test_mlp_collapse_small_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"depth": 10, "width": 64, "n_inputs": 200, "seeds": 2}))
        out = tmp_path / "out"
        rc = main(["mlp-collapse", "--config", str(cfg), "--out", str(out)])
        doc = json.loads((out / "mlp-collapse.json").read_text())
        assert set(doc["results"]["effective_dim_mean"]) == {"0", "5", "10"}
        assert rc in (0, 1)  # trend checks may be tight at this tiny scale

    def test_export_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((12, 5)).astype(np.float32).astype(np.float64)
        src = tmp_path / "in.mmeb"
        write_mmeb(m, str(src))
        dst = tmp_path / "out.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "in_file": str(src), "in_format": "mmeb",
            "out_file": str(dst), "out_format": "csv",
        }))
        rc = main(["export", "--config", str(cfg), "--out", str(tmp_path / "rep")])
        assert rc == 0
        np.testing.assert_array_equal(read_csv(str(dst)).values, m)

    def test_gap_stats_ingestion_path(self, tmp_path):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((300, 24))
        y /= np.linalg.norm(y, axis=1)[:, None]
        x = y + 0.4 * np.eye(24)[0] + 0.01 * rng.standard_normal((300, 24))
        write_mmeb(x, str(tmp_path / "x.mmeb"))
        write_mmeb(y, str(tmp_path / "y.mmeb"))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "x_file": str(tmp_path / "x.mmeb"),
            "y_file": str(tmp_path / "y.mmeb"),
            "file_format": "mmeb",
            "group_size": 100,
        }))
        out = tmp_path / "out"
        rc = main(["gap-stats", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "gap-stats.json").read_text())
        assert doc["results"]["gap_length"]["mean"] == pytest.approx(0.4, abs=0.05)

    def test_config_errors_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        rc = main(["verify-gradients", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_file_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"in_file": str(tmp_path / "absent.mmeb"),
                                   "out_file": str(tmp_path / "o.csv")}))
        rc = main(["export", "--config", str(cfg), "--out", str(tmp_path / "rep")])
        assert rc == 2

    def test_files_honour_umask(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("1.0,2.0\n3.0,4.0\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"in_file": str(src), "in_format": "csv",
                                   "out_file": str(tmp_path / "m.mmeb"), "out_format": "mmeb"}))
        old = os.umask(0o022)
        try:
            rc = main(["export", "--config", str(cfg), "--out", str(tmp_path / "rep")])
        finally:
            os.umask(old)
        assert rc == 0
        for path in (tmp_path / "m.mmeb", tmp_path / "rep" / "export.json"):
            assert path.stat().st_mode & 0o777 == 0o644
        assert [p.name for p in (tmp_path / "rep").iterdir()] == ["export.json"]


# Small configs on which every command finishes in well under a second.
SMALL = {
    "simulate-init": {"n": 60, "d": 32, "dex": 4, "dey": 8},
    "train-sim": {"n": 16, "d": 32, "dex": 4, "dey": 8, "steps": 20, "record_every": 10},
    "verify-gradients": {"batches": 2, "max_n": 4, "max_d": 4},
    "stable-region": {"n": 4, "d": 8, "instances": 4},
    "mlp-collapse": {"depth": 5, "width": 16, "n_inputs": 20, "seeds": 1},
    "gap-stats": {"n": 200, "d": 16, "span_dim": 4, "group_size": 50, "pairs_per_group": 50},
    "c3-bench": {"n": 200, "d": 32, "seeds": 1},
    "shift-sweep": {"n": 200, "d": 32, "seeds": 1, "shifts": [0.0, 1.0]},
    "export": {"in_file": "in.mmeb", "out_file": "out.csv"},
}
HOSTILE = ("zero", "minus_one", "wrong_type", "empty_list", "bad_string", "nan")


def hostile_value(kind, default):
    return {"zero": 0, "minus_one": -1, "wrong_type": WRONG_TYPE[type(default)],
            "empty_list": [], "bad_string": "bogus", "nan": math.nan}[kind]


def run_hostile(command, key, kind):
    """Run ``command`` on its small config with one key set to a hostile value,
    in a fresh working directory; return (exit status, stderr, report written)."""
    config = dict(SMALL[command])
    config[key] = hostile_value(kind, resolve_config(command, None, None)[key])
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_mmeb(np.arange(12.0).reshape(4, 3), "in.mmeb")
            with open("c.json", "w", encoding="utf-8") as fh:
                json.dump(config, fh)  # math.nan is written as the JSON extension NaN
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([command, "--config", "c.json", "--out", "out"])
            return rc, err.getvalue(), os.path.exists("out")
        finally:
            os.chdir(cwd)


class TestHostileConfigValues:
    @pytest.mark.parametrize("command", sorted(SMALL))
    def test_small_configs_run(self, command):
        rc, err, wrote = run_hostile(command, "seed", "zero")
        assert rc in (0, 1), err
        assert wrote

    @given(case=st.sampled_from(TABLE_KEYS), kind=st.sampled_from(HOSTILE))
    @settings(max_examples=400, deadline=None)
    def test_one_hostile_value_never_raises(self, case, kind):
        rc, err, wrote = run_hostile(*case, kind)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert err.count("\n") == 1 and err.startswith(f"gaplab {case[0]}: error: "), err
            assert not wrote
