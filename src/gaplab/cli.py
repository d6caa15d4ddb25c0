"""Command-line experiment runner: each command writes <command>.json and one CSV per table.

Every command is one entry of ``_COMMANDS``: its runner, its defaults, the
keys whose values must be positive, the values each enumerated string key
may take, and its long-running preset (train-sim's full-scale run; empty
elsewhere). Parameters resolve from those defaults (with the preset over
them when ``long_running`` is true), overridden by an optional JSON config
file (unknown keys rejected), overridden by the ``--seed`` flag;
``--long-running`` sets the ``long_running`` key, which only train-sim has.
Each value must have its default's type (an int default takes only an int, a
float default a finite int or float, a list default a non-empty list of
finite numbers), a positive key (``tau``, ``learning_rate``, ``h``, every
``taus`` entry, ``seeds``, ``span_dim`` and the counts ``batches``,
``instances``, ``depth``, ``pairs_per_group`` and stable-region's ``n`` and
``d``) must be > 0, ``seed`` must be >= 0, and an enumerated string key
(``gradient_form``, ``noise_mode`` and the file formats) must name one of its
choices, or the command exits with status 2 before any work starts. The
resolved config is echoed into every report, reports carry no
timestamps, and float formatting is fixed, so rerunning a command with the
same config and seed on the same BLAS build, CPU and BLAS thread count
reproduces the report files byte for byte (exact-form train-sim differs in
its last bits between one and two OpenBLAS threads). No report file holds a
NaN or an infinity: such a value fails the report before its directory is
made. ``main`` runs the command with numpy's overflow, invalid and divide
errors raised, never warned; a ValueError, OSError, ArithmeticError or
MemoryError exits with status 2 and one line on stderr, and otherwise the
exit status is 0 exactly when every check the command ran passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import bench, embio, worlds
from .contrastive import (_GRADIENT_FORMS, ContrastiveBatch, TrainerConfig, TrainingRecord,
                          _anchor_reports, _check_unique_max, _forward, _threshold,
                          exact_gradients, train_contrastive)
from .linalg import (EmbeddingMatrix, PairedEmbeddings, SpectralSummary, covariance,
                     l2_normalize_rows, spectral_summary)
from .geometry import group_pairs, group_statistics, masked_gap_distance, per_dim_variance

RANK_GAMMA = 1.0 - 1e-9


# ---------------------------------------------------------------------------
# report plumbing

def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        if math.isfinite(v):
            return repr(float(v))
        raise ValueError(f"report cell is not finite: {float(v)!r}")
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _tolist(v):
    """``json.dumps`` hook for numpy scalars and arrays (a float64 is already a float)."""
    if isinstance(v, (np.generic, np.ndarray)):
        return v.tolist()
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def write_reports(out_dir, command, config, results, checks, tables):
    """Emit <command>.json and one CSV per table under ``out_dir``; return pass flag.
    Every text is formatted before ``out_dir`` is made: a rejected report leaves none."""
    passed = all(checks.values())
    doc = {"command": command, "config": config, "results": results,
           "checks": checks, "passed": passed}
    files = [(f"{command}.json",
              json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=_tolist))]
    prefix = [f"# command={command}"] + [f"# {k}={_cell(v)}" for k, v in sorted(config.items())]
    for name, header, rows in tables:
        lines = [*prefix, ",".join(header), *(",".join(_cell(v) for v in row) for row in rows)]
        files.append((f"{command}.{name}.csv", "\n".join(lines)))
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files:
        embio._atomic_write(os.path.join(out_dir, name), (text + "\n").encode("utf-8"))
    return passed


# ---------------------------------------------------------------------------
# shared helpers

def _from_params(cls, p: dict):
    """The dataclass ``cls`` built from the params that its fields name."""
    return cls(**{f.name: p[f.name] for f in dataclasses.fields(cls)})


def _random_unit_pairs(rng: np.random.Generator, n: int, d: int) -> PairedEmbeddings:
    """n pairs of random unit rows of width d; x is drawn before y."""
    x = l2_normalize_rows(rng.standard_normal((n, d)))
    return PairedEmbeddings(x=x, y=l2_normalize_rows(rng.standard_normal((n, d))))


def finite_difference_gradients(batch: ContrastiveBatch, h: float):
    """Central-difference gradients of the contrastive loss (the one
    ``contrastive._forward`` computes), entry by entry: each entry of a copy
    of the batch is moved to entry +- h and then restored."""
    xy = (batch.pairs.x.values.copy(), batch.pairs.y.values.copy())
    grads = []
    for a in xy:
        g = np.zeros_like(a)
        for i, j in np.ndindex(a.shape):
            entry = a[i, j]
            losses = []
            for step in (h, -h):
                a[i, j] = entry + step
                losses.append(_forward(*xy, batch.tau)[2])
            a[i, j] = entry
            g[i, j] = (losses[0] - losses[1]) / (2 * h)
        grads.append(g)
    return grads[0], grads[1]


def _max_rel_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Largest entry error relative to the gradient's largest-magnitude entry.

    Truncation error of central differences is absolute-scale, so comparing
    tiny entries against themselves only measures the difference scheme;
    scale-relative error is what the analytic gradient can be held to.
    """
    scale = max(float(np.abs(exact).max()), 1e-12)
    return float(np.abs(approx - exact).max() / scale)


# ---------------------------------------------------------------------------
# commands

def _init_world(p) -> worlds.InitWorld:
    """simulate-init's and train-sim's collapsed init world, which must keep a
    shared constant dimension for their masked gap."""
    w = worlds.make_collapsed_init_world(p["n"], p["d"], p["dex"], p["dey"], p["seed"])
    if w.shared_ineffective.size == 0:
        raise ValueError(f"dex + dey must be < d to leave a shared constant dimension, "
                         f"got dex={p['dex']}, dey={p['dey']}, d={p['d']}")
    return w


def _cmd_simulate_init(p):
    w = _init_world(p)
    full = masked_gap_distance(w.pairs, np.arange(p["d"]))
    masked = masked_gap_distance(w.pairs, w.shared_ineffective)
    sx = spectral_summary(covariance(w.pre_norm_x), RANK_GAMMA)
    sy = spectral_summary(covariance(w.pre_norm_y), RANK_GAMMA)
    sx_g = SpectralSummary(sx.singular_values, p["gamma"])
    sy_g = SpectralSummary(sy.singular_values, p["gamma"])
    results = {
        "full_gap": full,
        "masked_gap": masked,
        "effective_dim_x_rank": sx.effective_dim,
        "effective_dim_y_rank": sy.effective_dim,
        "effective_dim_x_gamma": sx_g.effective_dim,
        "effective_dim_y_gamma": sy_g.effective_dim,
    }
    checks = {
        "full_gap_near_1.21": abs(full - 1.21) <= 0.1,
        "masked_gap_near_0.99": abs(masked - 0.99) <= 0.1,
        "rank_dims_exact": sx.effective_dim == p["dex"] and sy.effective_dim == p["dey"],
    }
    variances = [per_dim_variance(m) for m in (w.pre_norm_x, w.pre_norm_y, w.pairs.x, w.pairs.y)]
    tables = [("variance", ["dim", "var_x_prenorm", "var_y_prenorm", "var_x", "var_y"],
               list(zip(range(p["d"]), *variances)))]
    return results, checks, tables


def _cmd_train_sim(p):
    w = _init_world(p)
    init = w.pairs if p["renormalize_each_step"] else PairedEmbeddings(
        x=EmbeddingMatrix(w.pre_norm_x), y=EmbeddingMatrix(w.pre_norm_y))
    res = train_contrastive(init, p["tau"], _from_params(TrainerConfig, p),
                            masked_dims=w.shared_ineffective)
    traj = res.trajectory
    losses = [r.loss for r in traj]
    results = {
        "initial_loss": losses[0],
        "final_loss": losses[-1],
        "initial_gap_masked": traj[0].gap_masked,
        "final_gap_masked": traj[-1].gap_masked,
        "final_gap_full": traj[-1].gap_full,
        "max_masked_grad": max(r.masked_grad_max for r in traj),
        "checkpoints": len(traj),
    }
    checks = {"loss_decreased": losses[-1] < losses[0]}  # the trainer raises on a non-finite loss
    if p["gradient_form"] == "span":
        checks["masked_grad_exactly_zero"] = results["max_masked_grad"] == 0.0
    if p["long_running"]:
        checks["masked_gap_near_0.82"] = abs(traj[-1].gap_masked - 0.82) <= 0.1
    else:
        checks["final_loss_below_0.01"] = losses[-1] < 0.01
        checks["masked_gap_in_band"] = 0.7 <= traj[-1].gap_masked <= 1.1
    header = [f.name for f in dataclasses.fields(TrainingRecord)]
    return results, checks, [("trajectory", header, [dataclasses.astuple(r) for r in traj])]


def _cmd_verify_gradients(p):
    for key in ("max_n", "max_d"):  # n and d are drawn from [2, max]
        if p[key] < 2:
            raise ValueError(f"config key {key} for verify-gradients must be >= 2, got {p[key]!r}")
    rng = np.random.default_rng(p["seed"])
    taus = p["taus"]
    worst = {tau: 0.0 for tau in taus}
    rows = []
    for b in range(p["batches"]):
        tau = taus[b % len(taus)]
        n = int(rng.integers(2, p["max_n"] + 1))
        d = int(rng.integers(2, p["max_d"] + 1))
        batch = ContrastiveBatch(_random_unit_pairs(rng, n, d), tau)
        exact = exact_gradients(batch)
        fd_x, fd_y = finite_difference_gradients(batch, p["h"])
        err = max(_max_rel_error(fd_x, exact.grad_x), _max_rel_error(fd_y, exact.grad_y))
        worst[tau] = max(worst[tau], err)
        rows.append((b, tau, n, d, err))
    overall = max(worst.values())
    results = {"max_rel_error": overall,
               "per_tau": {repr(t): worst[t] for t in taus}}
    checks = {"max_rel_error_below_1e-5": overall < 1e-5}
    tables = [("errors", ["batch", "tau", "n", "d", "max_rel_error"], rows)]
    return results, checks, tables


def _cmd_stable_region(p):
    rng = np.random.default_rng(p["seed"])
    taus = p["taus"]
    if sorted(taus) != taus:
        raise ValueError(f"taus must be in increasing order, got {taus!r}")
    delta = p["delta"]
    rows = []
    violations = 0
    mono_failures = 0
    for done in range(p["instances"]):
        i = done % p["n"]  # anchor i of the current batch; a new batch every n instances
        if i == 0:
            pairs = _random_unit_pairs(rng, p["n"], p["d"])
        sims = pairs.x.values[i] @ pairs.y.values.T
        reports = _anchor_reports(sims, i, taus, delta)
        _check_unique_max(np.delete(sims, i))  # the threshold needs a unique hardest negative
        thresholds = [_threshold(tau, rep.crowding, delta) for tau, rep in zip(taus, reports)]
        violations += sum(rep.loss_i > rep.bound for rep in reports)
        mono_failures += any(b < a for a, b in zip(thresholds, thresholds[1:]))
        rows += [(done, tau, rep.margin, rep.crowding, thr, rep.loss_i, rep.bound,
                  rep.in_stable_region) for tau, rep, thr in zip(taus, reports, thresholds)]
    results = {"instances": p["instances"], "bound_violations": violations,
               "threshold_monotonicity_failures": mono_failures}
    checks = {"no_bound_violations": violations == 0,
              "threshold_monotone_in_tau": mono_failures == 0}
    tables = [("instances",
               ["instance", "tau", "margin", "crowding", "threshold", "loss_i", "bound", "in_stable_region"],
               rows)]
    return results, checks, tables


def _cmd_mlp_collapse(p):
    rows = []
    base = _from_params(worlds.MlpSimConfig, p)
    for s in range(p["seeds"]):
        for probe in worlds.mlp_collapse_sim(dataclasses.replace(base, seed=p["seed"] + s)):
            rows.append((p["seed"] + s, probe.layer, probe.effective_dim,
                         probe.cone_mean, probe.cone_std, probe.dead))
    layers = sorted({row[1] for row in rows})
    # per-layer means of the effective_dim and cone_mean columns, in seed order
    eff_means, cone_means = ({l: float(np.mean([row[col] for row in rows if row[1] == l]))
                              for l in layers} for col in (2, 3))
    eff_seq = [eff_means[l] for l in layers if l > 0]
    cone_seq = [cone_means[l] for l in layers if l > 0]
    results = {"effective_dim_mean": {str(l): eff_means[l] for l in layers},
               "cone_mean": {str(l): cone_means[l] for l in layers}}
    checks = {
        "effective_dim_non_increasing": all(b <= a for a, b in zip(eff_seq, eff_seq[1:])),
        "cone_strictly_increasing": all(b > a for a, b in zip(cone_seq, cone_seq[1:])),
        "cone_positive": all(c > 0 for c in cone_seq),
    }
    tables = [("probes", ["seed", "layer", "effective_dim", "cone_mean", "cone_std", "dead"], rows)]
    return results, checks, tables


def _cmd_gap_stats(p):
    if bool(p["x_file"]) != bool(p["y_file"]):
        raise ValueError("gap-stats needs both x_file and y_file, or neither")
    synthetic = not p["x_file"]
    if synthetic:
        w = worlds.make_gap_world(p["n"], p["d"], p["span_dim"], p["gap_norm"],
                                  p["sigma"], p["seed"], p["noise_mode"])
        pairs = w.pairs
    else:
        x = embio.ingest(p["x_file"], p["file_format"])
        y = embio.ingest(p["y_file"], p["file_format"])
        pairs = PairedEmbeddings(x=x, y=y)
    groups = group_pairs(pairs, p["group_size"], p["seed"])
    rep = group_statistics(groups, p["pairs_per_group"], p["seed"])
    results = {name: {"mean": mean, "std": std} for name, mean, std in rep.rows()}
    results["n_groups"] = rep.n_groups
    results["skipped_zero_pairs"] = rep.skipped_zero_pairs
    checks = {}
    if synthetic:
        checks = {
            "gap_length_matches": abs(rep.gap_length[0] - p["gap_norm"]) <= 0.02,
            "gap_direction_constant": rep.gap_direction[0] >= 0.98,
            "gap_orthogonal": abs(rep.gap_orthogonality[0]) <= 0.02,
            "noise_mean_zero": abs(rep.noise_mean[0]) <= 1e-3,
            "noise_direction_random": abs(rep.noise_direction[0]) <= 0.03,
        }
    tables = [("statistics", ["statistic", "mean", "std"], rep.rows())]
    return results, checks, tables


def _task_kwargs(p):
    """``bench.make_toy_task`` arguments shared by c3-bench and shift-sweep."""
    return dict(
        n=p["n"], d=p["d"], latent=bench.LatentSpec("classification", p["classes"]),
        gap_norm=p["gap_norm"], sigma_align=p["sigma_align"], span_dim=p["span_dim"],
    )


def _cmd_c3_bench(p):
    task_kwargs = _task_kwargs(p)
    seeds = tuple(p["seed"] + s for s in range(p["seeds"]))
    rows, in_modality = bench._ablation(task_kwargs, seeds, tuple(p["sigma_grid"]), p["lam"],
                                        in_modality=True)
    by = {r.variant: r for r in rows}
    sanity = float(np.mean(in_modality))
    header = [f.name for f in dataclasses.fields(bench.AblationRow)]
    table = [dataclasses.astuple(r) for r in rows]
    results = {"rows": [dict(zip(header, row)) for row in table], "in_modality_mean": sanity}
    c1, c21, c22, span, c3 = (by[v].mean for v in ("c1", "c21", "c22", "c22_span", "c3"))
    checks = {
        "c3_ge_c21": c3 >= c21,
        "c3_ge_c22_ge_c1": c3 >= c22 >= c1,
        "c3_minus_c1_ge_0.1": c3 - c1 >= 0.1,
        "span_within_0.05_of_c21": abs(span - c21) <= 0.05,
        "no_transfer_beats_in_modality": sanity >= c3,
    }
    return results, checks, [("ablation", header, table)]


def _cmd_shift_sweep(p):
    task_kwargs = _task_kwargs(p)
    shifts = [float(c) for c in p["shifts"]]
    curves = []
    for s in range(p["seeds"]):
        task = bench.make_toy_task(seed=p["seed"] + s, **task_kwargs)
        curves.append(dict(bench.gap_shift_sweep(task, shifts, p["lam"])))
    means = [float(np.mean([c[v] for c in curves])) for v in shifts]
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a + 0.01)
    results = {"curve": [{"shift": c, "metric": m} for c, m in zip(shifts, means)]}
    checks = {
        "at_most_one_small_inversion": inversions <= 1,
        "degrades_2x_by_last_shift": means[-1] <= 0.5 * means[0],
    }
    tables = [("curve", ["shift", "metric"], list(zip(shifts, means)))]
    return results, checks, tables


def _cmd_export(p):
    for key in ("in_file", "out_file"):
        if not p[key]:
            raise ValueError(f"config key {key} for export must name a file")
    matrix = embio.ingest(p["in_file"], p["in_format"])
    embio.export(matrix, p["out_file"], p["out_format"])
    results = {"rows": matrix.n, "cols": matrix.d,
               "written": os.path.getsize(p["out_file"])}
    return results, {}, []  # export raises unless the file was written


class _Command(NamedTuple):
    run: Callable[[dict], tuple]
    defaults: dict
    positive: tuple = ()  # keys whose value, or every entry of whose list, must be > 0
    choices: dict = {}  # string keys and the values each may take
    long_running: dict = {}  # what a true ``long_running`` puts over the defaults


_FORMATS = tuple(embio._FORMATS)

_COMMANDS = {
    "simulate-init": _Command(_cmd_simulate_init, {
        "n": 1000, "d": 512, "dex": 25, "dey": 230, "gamma": 0.99, "seed": 0}),
    "train-sim": _Command(_cmd_train_sim, {
        "n": 256, "d": 512, "dex": 25, "dey": 230, "tau": 0.07, "learning_rate": 0.1,
        "steps": 20000, "record_every": 100, "renormalize_each_step": False,
        "gradient_form": "span", "long_running": False, "seed": 0},
        positive=("tau", "learning_rate"), choices={"gradient_form": _GRADIENT_FORMS},
        long_running={"n": 1000, "steps": 200000, "renormalize_each_step": True,
                      "gradient_form": "exact"}),
    "verify-gradients": _Command(_cmd_verify_gradients, {
        "batches": 100, "max_n": 8, "max_d": 16, "taus": [0.01, 0.07, 0.5], "h": 1e-5,
        "seed": 0}, positive=("batches", "taus", "h")),
    "stable-region": _Command(_cmd_stable_region, {
        "n": 8, "d": 16, "taus": [0.01, 0.07, 0.5], "delta": 0.01, "instances": 1000,
        "seed": 0}, positive=("taus", "instances", "n", "d")),
    "mlp-collapse": _Command(_cmd_mlp_collapse, {
        "depth": 20, "width": 512, "n_inputs": 1000, "probe_stride": 5, "seeds": 5,
        "gamma": 0.99, "seed": 0}, positive=("depth", "seeds")),
    "gap-stats": _Command(_cmd_gap_stats, {
        "n": 10000, "d": 512, "span_dim": 64, "gap_norm": 0.83, "sigma": 0.05,
        "noise_mode": "full", "group_size": 100, "pairs_per_group": 1000,
        "x_file": "", "y_file": "", "file_format": "mmeb", "seed": 0},
        positive=("pairs_per_group",),
        choices={"noise_mode": worlds._NOISE_MODES, "file_format": _FORMATS}),
    "c3-bench": _Command(_cmd_c3_bench, {
        "n": 5000, "d": 64, "classes": 10, "span_dim": 16, "gap_norm": 0.83,
        "sigma_align": 0.05, "seeds": 5, "lam": 1e-3, "sigma_grid": list(bench.SIGMA_GRID),
        "seed": 0}, positive=("seeds", "span_dim")),
    "shift-sweep": _Command(_cmd_shift_sweep, {
        "n": 5000, "d": 64, "classes": 10, "span_dim": 16, "gap_norm": 0.0,
        "sigma_align": 0.05, "seeds": 5, "lam": 1e-3,
        "shifts": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0],
        "seed": 0}, positive=("seeds", "span_dim")),
    "export": _Command(_cmd_export, {
        "in_file": "", "in_format": "mmeb", "out_file": "", "out_format": "csv", "seed": 0},
        choices={"in_format": _FORMATS, "out_format": _FORMATS}),
}


def _has_type(value, default) -> bool:
    """Whether a config value may stand where ``default`` does (bools are not ints,
    and a float is finite)."""
    if isinstance(default, list):
        return isinstance(value, list) and len(value) > 0 and all(_has_type(v, 0.0) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is type(default)


def _check_config(command: str, params: dict) -> None:
    """Raise ValueError unless ``params`` has exactly the command's keys, typed as its
    defaults, its positive keys > 0, its seed >= 0 and its choice keys one of their
    values."""
    _, defaults, positive, choices, _ = _COMMANDS[command]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {', '.join(unknown)}")
    for key, default in defaults.items():
        if key not in params:
            raise ValueError(f"missing config key for {command}: {key}")
        if not _has_type(params[key], default):
            kind = {list: "a non-empty list of finite numbers", float: "a finite number"}.get(
                type(default), type(default).__name__)
            raise ValueError(f"config key {key} for {command} must be {kind}, got {params[key]!r}")
        if key in positive:
            value = params[key]
            if not all(v > 0 for v in (value if isinstance(value, list) else [value])):
                what = "every entry of" if isinstance(value, list) else "config key"
                raise ValueError(f"{what} {key} for {command} must be > 0, got {value!r}")
        if key == "seed" and params[key] < 0:
            raise ValueError(f"config key seed for {command} must be >= 0, got {params[key]!r}")
        if key in choices and params[key] not in choices[key]:
            raise ValueError(f"config key {key} for {command} must be one of "
                             f"{', '.join(choices[key])}, got {params[key]!r}")


def resolve_config(command: str, config_path: str | None, seed: int | None,
                   long_running: bool = False) -> dict:
    """Defaults (with the command's ``long_running`` preset over them when the flag
    or the file sets ``long_running``), overridden by the JSON config file,
    overridden by --seed."""
    params = dict(_COMMANDS[command].defaults)
    loaded = {}
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
    if long_running:
        loaded["long_running"] = True
    if loaded.get("long_running") is True:
        params.update(_COMMANDS[command].long_running)
    params.update(loaded)
    if seed is not None:
        params["seed"] = seed
    _check_config(command, params)
    return params


def run_command(command: str, params: dict, out_dir: str) -> bool:
    """Check ``params``, execute one command and write its reports; returns the pass flag."""
    _check_config(command, params)
    results, checks, tables = _COMMANDS[command].run(params)
    return write_reports(out_dir, command, params, results, checks, tables)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="Experiments on the geometry of multi-modal contrastive embedding spaces.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON file overriding the command's defaults")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="gaplab-reports", help="report output directory")
    parser.add_argument("--long-running", action="store_true",
                        help="train-sim only: set long_running, the full-scale "
                             "contrastive training reproduction (hours)")
    args = parser.parse_args(argv)

    try:
        params = resolve_config(args.command, args.config, args.seed, args.long_running)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ok = run_command(args.command, params, args.out)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"gaplab {args.command}: error: {exc}", file=sys.stderr)
        return 2
    if not ok:
        print(f"gaplab {args.command}: one or more checks failed (see reports)", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
