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

from gaplab import bench, cli, contrastive, worlds
from gaplab.contrastive import ContrastiveBatch, loss_bound_check, stable_region_threshold
from gaplab.cli import main, resolve_config
from gaplab.embio import DTYPE_FLOAT32, MAGIC, VERSION, read_csv, write_mmeb
from gaplab.geometry import per_dim_variance
from gaplab.linalg import PairedEmbeddings, l2_normalize_rows
from gaplab.worlds import make_collapsed_init_world


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
        ("stable-region", {"taus": [0.07, 0.01]}),
        ("shift-sweep", {"seeds": 0}),
        ("mlp-collapse", {"seeds": 0}),
        ("c3-bench", {"seeds": -1}),
        ("stable-region", {"instances": 0}),
        ("stable-region", {"n": 0}),
        ("verify-gradients", {"batches": 0}),
        ("mlp-collapse", {"depth": 0}),
        ("gap-stats", {"n": 2000, "pairs_per_group": 0}),
        ("verify-gradients", {"h": 0}),
        ("verify-gradients", {"h": -1}),
        ("c3-bench", {"span_dim": -1}),
        ("shift-sweep", {"span_dim": -1}),
        ("gap-stats", {"file_format": "bogus"}),
        ("train-sim", {"gradient_form": "bogus"}),
        ("gap-stats", {"noise_mode": "bogus"}),
        ("export", {"in_format": "bogus"}),
        ("export", {"out_format": "bogus"}),
    ])
    def test_malformed_config_exits_2(self, capsys, tmp_path, command, config):
        exits_2_with_one_line(capsys, tmp_path, command, config)

    @pytest.mark.parametrize("command,key,value", [
        ("train-sim", "init", "unit"),
        ("shift-sweep", "shift_mode", "in_span"),
    ])
    def test_removed_keys_are_unknown(self, capsys, tmp_path, command, key, value):
        err = exits_2_with_one_line(capsys, tmp_path, command, {key: value})
        assert err == f"gaplab {command}: error: unknown config keys for {command}: {key}\n"

    @pytest.mark.parametrize("value", [0, 0.0, -0.1])
    def test_learning_rate_must_be_positive(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.setattr(worlds, "make_collapsed_init_world", None)  # no world is built
        err = exits_2_with_one_line(capsys, tmp_path, "train-sim", {"learning_rate": value})
        assert err == (f"gaplab train-sim: error: config key learning_rate for train-sim "
                       f"must be > 0, got {value!r}\n")

    @pytest.mark.parametrize("config,message", [
        ({"d": 16, "span_dim": 16, "gap_norm": 0.0, "seeds": 1, "n": 400},
         "c22_span needs a gap direction: span_dim must be < d, got span_dim=16, d=16"),
        ({"sigma_grid": [0.05, -0.1], "seeds": 1, "n": 400},
         "sigma_grid entry must be finite and >= 0, got -0.1"),
    ])
    def test_ablation_refuses_before_scoring(self, capsys, tmp_path, monkeypatch, config,
                                             message):
        monkeypatch.setattr(bench, "_seed_scores", None)  # no cell is scored
        err = exits_2_with_one_line(capsys, tmp_path, "c3-bench", config)
        assert err == f"gaplab c3-bench: error: {message}\n"

    @pytest.mark.parametrize("key,value,least", [
        ("probe_stride", 0, 1),
        ("width", 0, 1),
        ("n_inputs", 1, 2),
    ])
    def test_mlp_sim_config_names_key_and_value(self, capsys, tmp_path, key, value, least):
        err = exits_2_with_one_line(capsys, tmp_path, "mlp-collapse", {key: value})
        assert err == f"gaplab mlp-collapse: error: {key} must be >= {least}, got {value}\n"

    @pytest.mark.parametrize("delta", [1000.0, 1e308])
    def test_delta_above_log_dbl_max_exits_2(self, capsys, tmp_path, delta):
        err = exits_2_with_one_line(capsys, tmp_path, "stable-region", {"delta": delta})
        assert err == ("gaplab stable-region: error: delta must be <= log(DBL_MAX) = "
                       f"709.782712893384, got {delta}\n")

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_negative_seed_flag_exits_2(self, capsys, tmp_path, command):
        err = exits_2_with_one_line(capsys, tmp_path, command, {}, "--seed", "-3")
        assert err == f"gaplab {command}: error: config key seed for {command} must be >= 0, got -3\n"

    def test_negative_seed_in_config_exits_2(self, capsys, tmp_path):
        err = exits_2_with_one_line(capsys, tmp_path, "c3-bench", {"seed": -1})
        assert err == "gaplab c3-bench: error: config key seed for c3-bench must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["simulate-init", "train-sim"])
    @pytest.mark.parametrize("dey,message", [
        (256, "dex + dey must be < d to leave a shared constant dimension, "
              "got dex=256, dey=256, d=512"),
        (257, "need dex >= 1, dey >= 1, dex + dey <= d, got 256, 257, 512"),  # the world's
    ])
    def test_no_shared_dimension_to_mask_exits_2(self, capsys, tmp_path, command, dey, message):
        err = exits_2_with_one_line(capsys, tmp_path, command, {"dex": 256, "dey": dey})
        assert err == f"gaplab {command}: error: {message}\n"

    @pytest.mark.parametrize("key", ["x_file", "y_file"])
    def test_gap_stats_with_one_file_key_exits_2(self, capsys, tmp_path, monkeypatch, key):
        src = tmp_path / "e.mmeb"
        write_mmeb(np.eye(4), str(src))
        monkeypatch.setattr(worlds, "make_gap_world", None)  # no synthetic world is built
        err = exits_2_with_one_line(capsys, tmp_path, "gap-stats", {key: str(src)})
        assert err == "gaplab gap-stats: error: gap-stats needs both x_file and y_file, or neither\n"

    @pytest.mark.parametrize("key", ["in_file", "out_file"])
    def test_export_with_an_empty_path_exits_2(self, capsys, tmp_path, monkeypatch, key):
        work = tmp_path / "work"
        work.mkdir()
        src = tmp_path / "in.mmeb"
        write_mmeb(np.eye(4), str(src))
        config = {"in_file": str(src), "out_file": str(tmp_path / "out.csv"), key: ""}
        monkeypatch.chdir(work)
        err = exits_2_with_one_line(capsys, tmp_path, "export", config)
        assert err == f"gaplab export: error: config key {key} for export must name a file\n"
        assert list(work.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "in.mmeb", "work"]

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

    @pytest.mark.parametrize("command,config,message", [
        # 10**15 rows outgrow the 64-bit address space: the allocation fails at once
        ("simulate-init", {"n": 10**15}, "Unable to allocate"),
        ("stable-region", {"d": 1}, "similarity profile has a tied maximum"),
        # a threshold or a loss that would be written as inf
        ("stable-region", {"delta": 1e-320}, "report cell is not finite: inf"),
        ("stable-region", {"taus": [1e-300]}, "overflow"),
        ("c3-bench", {"sigma_grid": [1e300], "n": 200, "seeds": 1}, "encountered"),
        ("gap-stats", {"sigma": 1e300, "n": 1000}, "encountered"),
    ])
    def test_arithmetic_and_memory_errors_exit_2(self, capsys, tmp_path, command, config, message):
        # numpy errors raise inside main, so no warning is printed before the error line
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            err = exits_2_with_one_line(capsys, tmp_path, command, config)
        assert message in err
        assert [str(w.message) for w in seen] == []

    @pytest.mark.parametrize("config,results,rows", [
        ({"seed": 0}, {"curve": [float("nan")]}, []),
        ({"seed": 0}, {"curve": [1.0]}, [(0, float("inf"))]),  # JSON fine, CSV not
        ({"seed": float("nan")}, {}, [(0, 1.0)]),
    ])
    def test_nan_never_reaches_a_report(self, tmp_path, config, results, rows):
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            cli.write_reports(str(out), "shift-sweep", config, results, {},
                              [("curve", ["shift", "metric"], rows)])
        assert not out.exists()

    def test_format_flag_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            main(["stable-region", "--out", str(tmp_path / "out"), "--format", "json"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(set(cli._COMMANDS) - {"train-sim"}))
    def test_long_running_flag_only_for_train_sim(self, capsys, tmp_path, command):
        err = exits_2_with_one_line(capsys, tmp_path, command, {}, "--long-running")
        assert err == f"gaplab {command}: error: unknown config keys for {command}: long_running\n"

    def test_long_running_preset_is_train_sims_entry(self, monkeypatch):
        entry = cli._COMMANDS["train-sim"]
        monkeypatch.setitem(cli._COMMANDS, "train-sim",
                            entry._replace(long_running={"n": 3, "steps": 7}))
        params = resolve_config("train-sim", None, None, long_running=True)
        assert params == dict(entry.defaults, n=3, steps=7, long_running=True)
        assert resolve_config("train-sim", None, None) == entry.defaults
        assert [c for c, e in cli._COMMANDS.items() if e.long_running] == ["train-sim"]

    def test_choice_lists_come_from_the_layers_that_check_them(self):
        assert cli._COMMANDS["train-sim"].choices["gradient_form"] is contrastive._GRADIENT_FORMS
        assert cli._COMMANDS["gap-stats"].choices["noise_mode"] is worlds._NOISE_MODES

    def test_taus_out_of_order_exit_2_before_any_batch(self, capsys, tmp_path, monkeypatch):
        # the monotonicity check compares consecutive taus as ascending ones
        def no_batch(*args):
            raise AssertionError("a batch was drawn before taus were checked")

        monkeypatch.setattr(cli, "_random_unit_pairs", no_batch)
        err = exits_2_with_one_line(capsys, tmp_path, "stable-region", {"taus": [0.07, 0.07, 0.01]})
        assert err == ("gaplab stable-region: error: taus must be in increasing order, "
                       "got [0.07, 0.07, 0.01]\n")

    @pytest.mark.parametrize("command,key,value,bound", [
        ("verify-gradients", "max_n", 1, ">= 2"),  # numpy's "low >= high" without the check
        ("verify-gradients", "max_d", 1, ">= 2"),
        ("stable-region", "d", 0, "> 0"),  # "cannot normalize zero row" without the check
    ])
    def test_bad_size_names_its_key_before_any_batch(self, capsys, tmp_path, monkeypatch,
                                                     command, key, value, bound):
        def no_batch(*args):
            raise AssertionError(f"a batch was drawn before {key} was checked")

        monkeypatch.setattr(cli, "_random_unit_pairs", no_batch)
        err = exits_2_with_one_line(capsys, tmp_path, command, {key: value})
        assert err == (f"gaplab {command}: error: config key {key} for {command} "
                       f"must be {bound}, got {value}\n")

    @pytest.mark.parametrize("tied", [False, True])
    def test_tie_rule_is_the_thresholds(self, capsys, tmp_path, monkeypatch, tied):
        # anchor 0's positive ties its hardest negative y1, which is no tie of
        # the negatives; a copy of y1 as y2 is one, rejected as the threshold
        # rejects it
        a = 0.3
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        y = np.array([[math.cos(a), math.sin(a)], [math.cos(a), -math.sin(a)],
                      [math.cos(a), -math.sin(a)] if tied else [-1.0, 0.0]])
        pairs = PairedEmbeddings(x=l2_normalize_rows(x), y=l2_normalize_rows(y))
        monkeypatch.setattr(cli, "_random_unit_pairs", lambda rng, n, d: pairs)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 3, "d": 2, "instances": 1}))
        rc = main(["stable-region", "--config", str(cfg), "--out", str(tmp_path / "out")])
        negatives = np.delete(pairs.x.values[0] @ pairs.y.values.T, 0)
        if not tied:
            assert rc in (0, 1)
            stable_region_threshold(negatives, 0.07, 0.01)
            return
        assert rc == 2
        with pytest.raises(ValueError) as info:
            stable_region_threshold(negatives, 0.07, 0.01)
        assert capsys.readouterr().err == f"gaplab stable-region: error: {info.value}\n"
        assert str(info.value) == "similarity profile has a tied maximum"

    def test_c3_bench_sigma_grid_is_the_benchs(self):
        assert resolve_config("c3-bench", None, None)["sigma_grid"] == list(bench.SIGMA_GRID)

    @pytest.mark.parametrize("command", ["shift-sweep", "c3-bench"])
    def test_span_dim_wider_than_d_exits_2(self, capsys, tmp_path, command):
        err = exits_2_with_one_line(capsys, tmp_path, command,
                                    {"span_dim": 100, "n": 200, "seeds": 1})
        assert "span_dim must be in [1, 64], got 100" in err

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
    def test_c3_bench_builds_each_task_once(self, tmp_path, monkeypatch):
        built = []
        make = bench.make_toy_task
        monkeypatch.setattr(bench, "make_toy_task", lambda **kw: built.append(kw["seed"]) or make(**kw))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 200, "d": 32}))
        main(["c3-bench", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert built == [0, 1, 2, 3, 4]  # one per seed; none rebuilt for in_modality_mean

    def test_simulate_init_variances_match_a_per_column_var(self, tmp_path, monkeypatch):
        # bit for bit: a column's .var() sums pairwise, m.var(axis=0) does not;
        # the table comes from the library's per_dim_variance
        calls = []
        monkeypatch.setattr(cli, "per_dim_variance",
                            lambda m: calls.append(1) or per_dim_variance(m))
        config = {"n": 300, "d": 64, "dex": 5, "dey": 30}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        main(["simulate-init", "--config", str(cfg), "--out", str(out), "--seed", "3"])
        assert len(calls) == 4
        w = make_collapsed_init_world(seed=3, **config)
        expected = [[i] + [m[:, i].var() for m in (w.pre_norm_x, w.pre_norm_y,
                                                    w.pairs.x.values, w.pairs.y.values)]
                    for i in range(64)]
        lines = [line for line in (out / "simulate-init.variance.csv").read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0] == "dim,var_x_prenorm,var_y_prenorm,var_x,var_y"
        got = [[int(v) if k == 0 else float(v) for k, v in enumerate(line.split(","))]
               for line in lines[1:]]
        assert got == expected

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

    @pytest.mark.parametrize("instances", [10, 7])
    def test_stable_region_forms_each_row_once(self, tmp_path, monkeypatch, instances):
        # one kernel call per instance, shared by every tau, and the report's
        # figures equal loss_bound_check's and stable_region_threshold's on the
        # same batch; a new batch of 5 every 5 instances, the last one cut short
        calls = []
        kernel = cli._anchor_reports
        monkeypatch.setattr(cli, "_anchor_reports",
                            lambda *a: calls.append((a[1], tuple(a[2]))) or kernel(*a))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"instances": instances, "n": 5, "d": 6}))
        out = tmp_path / "out"
        assert main(["stable-region", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
        taus = resolve_config("stable-region", None, None)["taus"]
        assert calls == [(i % 5, tuple(taus)) for i in range(instances)]
        doc = json.loads((out / "stable-region.json").read_text())
        assert doc["results"]["instances"] == instances
        rng = np.random.default_rng(7)
        expected = []
        for batch_no in range(2):
            x = l2_normalize_rows(rng.standard_normal((5, 6)))
            y = l2_normalize_rows(rng.standard_normal((5, 6)))
            for i in range(min(5, instances - 5 * batch_no)):
                negatives = np.delete(x.values[i] @ y.values.T, i)
                for tau in taus:
                    rep = loss_bound_check(ContrastiveBatch(PairedEmbeddings(x=x, y=y), tau), i, 0.01)
                    expected.append([5 * batch_no + i, tau, rep.margin, rep.crowding,
                                     stable_region_threshold(negatives, tau, 0.01),
                                     rep.loss_i, rep.bound])
        lines = [line for line in (out / "stable-region.instances.csv").read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0].split(",")[:7] == ["instance", "tau", "margin", "crowding", "threshold",
                                           "loss_i", "bound"]
        got = [[float(v) for v in line.split(",")[:7]] for line in lines[1:]]
        assert got == expected

    @pytest.mark.parametrize("config,flags,want", [
        ({}, ["--long-running"], {"n": 1000, "steps": 200000, "renormalize_each_step": True}),
        ({"steps": 50}, ["--long-running"],
         {"n": 1000, "steps": 50, "renormalize_each_step": True}),
        ({"long_running": True, "renormalize_each_step": False, "steps": 50}, [],
         {"n": 1000, "steps": 50, "renormalize_each_step": False}),
    ])
    def test_long_running_echoes_the_config_it_ran(self, tmp_path, monkeypatch, config, flags,
                                                   want):
        seen, unit_rows = {}, []

        def fake_train(init, tau, cfg, masked_dims):
            unit_rows.extend(np.allclose(np.linalg.norm(side.values, axis=1), 1.0)
                             for side in (init.x, init.y))
            seen.update(n=init.n, d=init.d, tau=tau, learning_rate=cfg.learning_rate,
                        steps=cfg.steps, record_every=cfg.record_every,
                        renormalize_each_step=cfg.renormalize_each_step,
                        gradient_form=cfg.gradient_form)
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
        assert seen["gradient_form"] == "exact"
        # projected descent starts from the world's unit rows, free rows from its pre-norm rows
        assert unit_rows == [want["renormalize_each_step"]] * 2
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
        # only checks that can fail: a non-finite loss raises before any report
        assert doc["checks"] == {"loss_decreased": True, "masked_grad_exactly_zero": True,
                                 "final_loss_below_0.01": True, "masked_gap_in_band": True}
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
        assert sorted(doc["checks"]) == ["final_loss_below_0.01", "loss_decreased",
                                         "masked_gap_in_band"]
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
        doc = json.loads((tmp_path / "rep" / "export.json").read_text())
        # no check can fail once the file is written: export raises first
        assert (doc["checks"], doc["passed"]) == ({}, True)
        assert doc["results"]["written"] == dst.stat().st_size

    def test_export_into_a_missing_directory_exits_2(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("1.0,2.0\n")
        dst = tmp_path / "absent" / "x.csv"
        err = exits_2_with_one_line(capsys, tmp_path, "export",
                                    {"in_file": str(src), "in_format": "csv",
                                     "out_file": str(dst), "out_format": "csv"})
        # the path asked for, never the temp file beside it
        assert err.endswith(f"No such file or directory: {str(dst)!r}\n")
        assert ".tmp-" not in err
        assert not dst.parent.exists()

    def test_export_of_a_value_beyond_float32_exits_2(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("1.0,2.0\n3.0,1e300\n")
        dst = tmp_path / "x.mmeb"
        err = exits_2_with_one_line(capsys, tmp_path, "export",
                                    {"in_file": str(src), "in_format": "csv",
                                     "out_file": str(dst), "out_format": "mmeb"})
        assert "value 1e+300 at row 1, col 1" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "in.csv"]

    def test_gap_stats_noise_mean_check_can_fail(self, tmp_path):
        # the noise mean is 0 only up to rounding at the data's scale
        cfg = tmp_path / "c.json"
        out = tmp_path / "out"
        checks = {}
        for sigma in (1e15, 1e18):
            cfg.write_text(json.dumps({"n": 2000, "d": 64, "span_dim": 16, "sigma": sigma}))
            assert main(["gap-stats", "--config", str(cfg), "--out", str(out)]) == 1
            doc = json.loads((out / "gap-stats.json").read_text())
            checks[sigma] = doc["checks"]["noise_mean_zero"]
        assert checks == {1e15: True, 1e18: False}

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
HUGE_INT = 10**400  # an int that overflows a float


def hostile_value(kind, default):
    return {"zero": 0, "minus_one": -1, "wrong_type": WRONG_TYPE[type(default)],
            "empty_list": [], "bad_string": "bogus", "nan": math.nan,
            "huge_int": HUGE_INT, "huge_int_entry": [HUGE_INT]}[kind]


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

    @pytest.mark.parametrize("command,key,kind,must_be", [
        ("train-sim", "tau", "huge_int", "a finite number"),
        ("gap-stats", "gap_norm", "huge_int", "a finite number"),
        ("stable-region", "taus", "huge_int_entry", "a non-empty list of finite numbers"),
    ])
    def test_int_too_large_for_a_float_is_not_finite(self, command, key, kind, must_be):
        rc, err, wrote = run_hostile(command, key, kind)
        value = hostile_value(kind, 0.0)
        assert (rc, wrote) == (2, False)
        assert err == f"gaplab {command}: error: config key {key} for {command} must be " \
                      f"{must_be}, got {value!r}\n"
