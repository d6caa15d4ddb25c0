"""The three workloads: their inputs, one round of operations, their checks.

Every workload builds its inputs from the run's seed in ``setup``, then
``run_round`` performs the same operations in the same order each round
through gaplab's public API and ``cli.run_command``, timing each call.
The benchmark checks outputs against properties computed in this file,
never against stored copies of earlier output; each check that fails is a
message in ``Round.wrong``. An operation that raises, or whose command
reports ``passed: false``, is counted in ``Round.failed`` instead.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from gaplab import bench, c3, cli, contrastive, embio, linalg, worlds

TAU = 0.07
MIB = float(1 << 20)

# train: span run at train-sim's default form, exact run at the
# --long-running form; steps cut so one round takes a few seconds.
SPAN_N, SPAN_STEPS = 256, 300
EXACT_N, EXACT_STEPS = 1000, 20
RECORD_EVERY = 100
D, DEX, DEY = 512, 25, 230

# analysis: file-based gap-stats reads the synthetic defaults' shape from
# MMEB; export converts a float32-representable matrix MMEB -> CSV -> MMEB.
EXPORT_ROWS, EXPORT_COLS = 1000, 128


class Round:
    """Timings and outcomes of one round of a workload's operations."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.failed: list[str] = []
        self.wrong: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.wrong.append(message)


def reference_loss(x: np.ndarray, y: np.ndarray, tau: float) -> tuple[float, float]:
    """Symmetric contrastive loss from max-shifted log-sum-exps, and its rounding scale.

    Each row (column) term lse - z_ii is (m - z_ii) + log(e^(z_ii - m) + S)
    with m the row maximum and S the off-diagonal sum; when the diagonal is
    the maximum this is log1p(S), which keeps its precision however small
    the loss gets. A loss formed as lse - z_ii instead rounds at the scale
    of |z_ii|, so the second value, eps * mean|z_ii|, is how far such a
    computation may sit from this one.
    """
    z = x @ y.T / tau
    diag = np.diag(z)
    off = z.copy()
    np.fill_diagonal(off, -np.inf)
    total = 0.0
    for axis in (1, 0):
        m = np.maximum(off.max(axis=axis), diag)
        rest = np.exp(off - np.expand_dims(m, axis)).sum(axis=axis)
        at_max = m == diag
        term = np.where(at_max, np.log1p(rest),
                        (m - diag) + np.log(np.exp(diag - m) + rest))
        total += float(term.sum())
    return total / (2.0 * x.shape[0]), float(np.finfo(np.float64).eps * np.abs(diag).mean())


def _loss_matches(loss: float, x: np.ndarray, y: np.ndarray) -> tuple[bool, float]:
    """``loss`` within 1e-9 relative of the reference, plus 4 ulps of |z_ii| rounding."""
    ref, scale = reference_loss(x, y, TAU)
    return abs(loss - ref) <= 1e-9 * abs(ref) + 4.0 * scale, ref


def _read_table(path: str) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a report CSV (after its '#' config lines)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[1.0 if v == "true" else 0.0 if v == "false" else float(v) for v in ln.split(",")]
            for ln in lines[1:]]
    return header, np.asarray(rows, dtype=np.float64)


class Workload:
    """Base: runs CLI commands in a work directory and checks determinism."""

    name = ""
    ops: tuple[str, ...] = ()

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.first: dict[str, object] = {}

    @staticmethod
    def timed(rnd: Round, op: str, fn, *args, **kwargs):
        """Time one call; a call that raises is a failed operation and gives None."""
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            rnd.failed.append(f"{op}: {type(exc).__name__}: {exc}")
            return None
        rnd.times[op] = time.perf_counter() - start
        return result

    def same_as_first(self, rnd: Round, op: str, value) -> None:
        """The same inputs and seed must give the same output in every round."""
        rnd.check(value == self.first.setdefault(op, value), f"{op}: differs from the first round's")

    def command(self, rnd: Round, op: str, command: str, **overrides) -> str | None:
        """Time one ``cli.run_command``; return its report directory, or None if it failed."""
        params = dict(cli.resolve_config(command, None, self.seed), **overrides)
        out = os.path.join(self.work_dir, op)
        passed = self.timed(rnd, op, cli.run_command, command, params, out)
        if passed is None:
            return None
        with open(os.path.join(out, f"{command}.json"), "rb") as fh:
            report = fh.read()
        if not passed or json.loads(report)["passed"] is not True:
            rnd.failed.append(f"{op}: {command} reported passed: false")
            return None
        self.same_as_first(rnd, op, report)
        return out

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        return []

    def detail(self, rounds: list[Round]) -> dict:
        """Per-operation figures named after what a user sees."""
        raise NotImplementedError


def _median(rounds: list[Round], op: str) -> float:
    return float(np.median([r.times[op] for r in rounds if op in r.times]))


class Train(Workload):
    name = "train"
    ops = ("train_span", "train_exact", "stable_region")

    def setup(self) -> None:
        small = worlds.make_collapsed_init_world(SPAN_N, D, DEX, DEY, self.seed)
        self.span_mask = small.shared_ineffective
        self.span_init = linalg.PairedEmbeddings(
            x=linalg.EmbeddingMatrix(small.pre_norm_x), y=linalg.EmbeddingMatrix(small.pre_norm_y))
        large = worlds.make_collapsed_init_world(EXACT_N, D, DEX, DEY, self.seed)
        self.exact_mask = large.shared_ineffective
        self.exact_init = large.pairs
        # warm-up: a few steps of each form and a small stable-region command
        self._train(self.span_init, self.span_mask, 3, "span", False)
        self._train(self.exact_init, self.exact_mask, 1, "exact", True)
        cli.run_command("stable-region", dict(cli.resolve_config("stable-region", None, self.seed),
                                              instances=24), os.path.join(self.work_dir, "warm"))

    @staticmethod
    def _train(init, mask, steps, form, projected):
        cfg = contrastive.TrainerConfig(learning_rate=0.1, steps=steps,
                                        renormalize_each_step=projected,
                                        record_every=RECORD_EVERY, gradient_form=form)
        return contrastive.train_contrastive(init, TAU, cfg, masked_dims=mask)

    def run_round(self) -> Round:
        rnd = Round()
        res = self.timed(rnd, "train_span", self._train, self.span_init, self.span_mask,
                         SPAN_STEPS, "span", False)
        if res is not None:
            losses = [r.loss for r in res.trajectory]
            m = self.span_mask
            for side in ("x", "y"):
                before = getattr(self.span_init, side).values[:, m]
                after = getattr(res.final, side).values[:, m]
                rnd.check(np.array_equal(before.view(np.int64), after.view(np.int64)),
                          f"train_span: masked {side} columns are not bit-identical")
            ok, ref = _loss_matches(losses[-1], res.final.x.values, res.final.y.values)
            rnd.check(ok, f"train_span: final loss {losses[-1]!r} != reference {ref!r}")
            rnd.check(losses[-1] < losses[0], "train_span: loss did not decrease")

        res = self.timed(rnd, "train_exact", self._train, self.exact_init, self.exact_mask,
                         EXACT_STEPS, "exact", True)
        if res is not None:
            losses = [r.loss for r in res.trajectory]
            for side in ("x", "y"):
                norms = np.linalg.norm(getattr(res.final, side).values, axis=1)
                rnd.check(np.abs(norms - 1.0).max() <= 1e-9, f"train_exact: {side} rows off the sphere")
            ok, ref = _loss_matches(losses[-1], res.final.x.values, res.final.y.values)
            rnd.check(ok, f"train_exact: final loss {losses[-1]!r} != reference {ref!r}")
            rnd.check(losses[-1] < losses[0], "train_exact: loss did not decrease")

        out = self.command(rnd, "stable_region", "stable-region")
        if out is not None:
            header, rows = _read_table(os.path.join(out, "stable-region.instances.csv"))
            col = {h: rows[:, i] for i, h in enumerate(header)}
            # log1p(o' e^(-r/tau)) with o' >= 1 bounds the anchor loss from
            # below; the relative slack absorbs one rounding of exp.
            lower = np.log1p(np.exp(-col["margin"] / col["tau"]))
            rnd.check(rows.shape[0] == 3000, f"stable_region: {rows.shape[0]} rows, expected 3000")
            rnd.check(bool(np.all(lower * (1.0 - 1e-12) <= col["loss_i"])),
                      "stable_region: loss_i below log1p(exp(-margin/tau))")
            rnd.check(bool(np.all(col["loss_i"] <= col["bound"])), "stable_region: loss_i above bound")
        return rnd

    def detail(self, rounds):
        return {
            "train_span_steps_per_s": SPAN_STEPS / _median(rounds, "train_span"),
            "train_exact_steps_per_s": EXACT_STEPS / _median(rounds, "train_exact"),
            "stable_region_s": _median(rounds, "stable_region"),
        }


class Transfer(Workload):
    name = "transfer"
    ops = ("c3_ablation", "shift_sweep")

    def setup(self) -> None:
        # inputs are the tasks both operations build from the seed; warm up
        # on small ones
        self._ablation(n=400, seeds=1)
        cli.run_command("shift-sweep", dict(cli.resolve_config("shift-sweep", None, self.seed),
                                            n=400, seeds=1), os.path.join(self.work_dir, "warm"))

    def _ablation(self, **overrides):
        """The computation of the c3-bench command at its defaults, minus its checks.

        The command itself is left out: its c3 >= c22 >= c1 ordering check
        fails on some seeds, so it cannot report passed: true on every one.
        """
        p = dict(cli.resolve_config("c3-bench", None, self.seed), **overrides)
        task_kwargs = dict(
            n=p["n"], d=p["d"], latent=bench.LatentSpec("classification", p["classes"]),
            gap_norm=p["gap_norm"], sigma_align=p["sigma_align"], span_dim=p["span_dim"],
        )
        seeds = tuple(p["seed"] + s for s in range(p["seeds"]))
        rows = bench.run_ablation(task_kwargs, seeds=seeds, sigma_grid=tuple(p["sigma_grid"]),
                                  lam=p["lam"])
        in_modality = [bench.in_modality_metric(bench.make_toy_task(seed=s, **task_kwargs), p["lam"])
                       for s in seeds]
        return [(r.variant, r.train_sigma, r.mean, r.std, r.seeds) for r in rows], in_modality

    def run_round(self) -> Round:
        rnd = Round()
        result = self.timed(rnd, "c3_ablation", self._ablation)
        if result is not None:
            rows, in_modality = result
            rnd.check([r[0] for r in rows] == list(bench.VARIANTS), "c3_ablation: wrong variants")
            rnd.check(all(0.0 <= v <= 1.0 for v in [r[2] for r in rows] + in_modality),
                      "c3_ablation: an accuracy outside [0, 1]")
            self.same_as_first(rnd, "c3_ablation", result)
        self.command(rnd, "shift_sweep", "shift-sweep")
        return rnd

    def final_checks(self) -> list[str]:
        wrong = []
        rng = np.random.default_rng(self.seed)
        n, d, sigma = 4000, 64, 0.05
        zeros = np.zeros((n, d))
        noise = c3.corrupt(zeros, c3.C3Config(sigma=sigma, seed=self.seed))
        if abs(noise.std() / sigma - 1.0) > 0.03:
            wrong.append(f"corrupt: noise std {float(noise.std())!r}, expected {sigma}")
        g = rng.standard_normal(d)
        g /= np.linalg.norm(g)
        span = c3.corrupt(zeros, c3.C3Config(sigma=sigma, mode="span_only", gap_direction=g,
                                             seed=self.seed))
        if np.abs(span @ g).max() > 1e-12:
            along = float(np.abs(span @ g).max())
            wrong.append(f"corrupt: span-only noise has {along!r} along the gap")
        a = rng.standard_normal((n, d))
        cfg = c3.C3Config(sigma=sigma, seed=self.seed + 1)
        k = n // 3
        if not np.array_equal(c3.corrupt(a[:k], cfg), c3.corrupt(a, cfg)[:k]):
            wrong.append("corrupt: a row's noise depends on the rows after it")
        task = bench.make_toy_task(seed=self.seed)
        x = linalg.l2_normalize_rows(task.pairs.y.values[task.train_idx]).values
        t = task.targets[task.train_idx]
        lam = 1e-3
        dec = bench.train_decoder(x, t, lam)
        # ridge as least squares on [X - mean; sqrt(lam) I] W = [T - mean; 0]
        xc = x - x.mean(axis=0)
        aug_x = np.vstack([xc, np.sqrt(lam) * np.eye(d)])
        aug_t = np.vstack([t - t.mean(axis=0), np.zeros((d, t.shape[1]))])
        w_ref = np.linalg.lstsq(aug_x, aug_t, rcond=None)[0]
        err = np.abs(dec.weights - w_ref).max() / np.abs(w_ref).max()
        if err > 1e-8:
            wrong.append(f"train_decoder: weights off the normal equations' solution by {float(err)!r}")
        if np.abs(dec.bias - (t.mean(axis=0) - x.mean(axis=0) @ dec.weights)).max() > 1e-12:
            wrong.append("train_decoder: bias is not mean(T) - mean(X) W")
        return wrong

    def detail(self, rounds):
        return {"c3_ablation_s": _median(rounds, "c3_ablation"),
                "shift_sweep_s": _median(rounds, "shift_sweep")}


class Analysis(Workload):
    name = "analysis"
    ops = ("simulate_init", "mlp_collapse", "gap_stats", "gap_stats_file",
           "export_csv", "export_mmeb")

    def setup(self) -> None:
        g = cli.resolve_config("gap-stats", None, self.seed)
        self.gap_world = worlds.make_gap_world(g["n"], g["d"], g["span_dim"], g["gap_norm"],
                                               g["sigma"], self.seed, g["noise_mode"])
        self.x_file = os.path.join(self.work_dir, "x.mmeb")
        self.y_file = os.path.join(self.work_dir, "y.mmeb")
        embio.write_mmeb(self.gap_world.pairs.x, self.x_file)
        embio.write_mmeb(self.gap_world.pairs.y, self.y_file)
        rng = np.random.default_rng(self.seed)
        matrix = rng.standard_normal((EXPORT_ROWS, EXPORT_COLS)).astype(np.float32)
        self.export_src = os.path.join(self.work_dir, "src.mmeb")
        embio.write_mmeb(matrix.astype(np.float64), self.export_src)
        self.csv_file = os.path.join(self.work_dir, "mid.csv")
        self.back_file = os.path.join(self.work_dir, "back.mmeb")
        # warm-up: each command on a small input
        warm = os.path.join(self.work_dir, "warm")
        for command, small in (("simulate-init", dict(n=100)),
                               ("mlp-collapse", dict(depth=5, width=64, n_inputs=100, seeds=1)),
                               ("gap-stats", dict(n=1000)),
                               ("export", dict(in_file=self.export_src, out_file=self.csv_file))):
            cli.run_command(command, dict(cli.resolve_config(command, None, self.seed), **small), warm)
        self.simulate_init = None

    def final_checks(self) -> list[str]:
        """simulate-init's effective dimensions against an SVD of the centred pre-norm matrices."""
        if self.simulate_init is None:
            return []
        p = cli.resolve_config("simulate-init", None, self.seed)
        w = worlds.make_collapsed_init_world(p["n"], p["d"], p["dex"], p["dey"], self.seed)
        wrong = []
        for side, pre in (("x", w.pre_norm_x), ("y", w.pre_norm_y)):
            s = np.linalg.svd(pre - pre.mean(axis=0), compute_uv=False)
            ratios = np.cumsum(s**2) / np.sum(s**2)
            for key, gamma in (("rank", cli.RANK_GAMMA), ("gamma", p["gamma"])):
                name = f"effective_dim_{side}_{key}"
                want = int(np.sum(ratios < gamma)) + 1
                if self.simulate_init[name] != want:
                    wrong.append(f"simulate_init: {name} {self.simulate_init[name]} != SVD's {want}")
        return wrong

    def run_round(self) -> Round:
        rnd = Round()
        out = self.command(rnd, "simulate_init", "simulate-init")
        if out is not None and self.simulate_init is None:
            # checked after the rounds; later rounds' reports are byte-identical
            self.simulate_init = self._results(out, "simulate-init")
        self.command(rnd, "mlp_collapse", "mlp-collapse")
        self.command(rnd, "gap_stats", "gap-stats")
        out = self.command(rnd, "gap_stats_file", "gap-stats", x_file=self.x_file,
                           y_file=self.y_file, file_format="mmeb")
        if out is not None:
            r = self._results(out, "gap-stats")
            true_gap = float(np.linalg.norm(self.gap_world.true_gap))
            rnd.check(abs(r["gap_length"]["mean"] - true_gap) <= 0.02,
                      f"gap_stats_file: gap length {r['gap_length']['mean']!r} vs {true_gap!r}")
            rnd.check(r["gap_direction"]["mean"] >= 0.98, "gap_stats_file: gap direction not constant")
            rnd.check(abs(r["gap_orthogonality"]["mean"]) <= 0.02, "gap_stats_file: gap not orthogonal")
            rnd.check(abs(r["noise_mean"]["mean"]) <= 1e-3, "gap_stats_file: noise mean not 0")
            rnd.check(abs(r["noise_direction"]["mean"]) <= 0.03, "gap_stats_file: noise not random")
        if os.path.exists(self.back_file):
            os.unlink(self.back_file)
        to_csv = self.command(rnd, "export_csv", "export", in_file=self.export_src,
                              in_format="mmeb", out_file=self.csv_file, out_format="csv")
        back = self.command(rnd, "export_mmeb", "export", in_file=self.csv_file,
                            in_format="csv", out_file=self.back_file, out_format="mmeb")
        if to_csv is not None and back is not None:
            with open(self.export_src, "rb") as a, open(self.back_file, "rb") as b:
                src, got = a.read(), b.read()
            rnd.check(len(got) == 28 + 4 * EXPORT_ROWS * EXPORT_COLS,
                      f"export: MMEB holds {len(got)} bytes")
            rnd.check(got == src, "export: MMEB -> CSV -> MMEB is not bit-exact")
        return rnd

    @staticmethod
    def _results(out: str, command: str) -> dict:
        with open(os.path.join(out, f"{command}.json"), encoding="utf-8") as fh:
            return json.load(fh)["results"]

    def detail(self, rounds):
        mib = 2 * EXPORT_ROWS * EXPORT_COLS * 8 / MIB
        export_s = float(np.median([r.times["export_csv"] + r.times["export_mmeb"] for r in rounds
                                    if "export_csv" in r.times and "export_mmeb" in r.times]))
        return {
            "simulate_init_s": _median(rounds, "simulate_init"),
            "mlp_collapse_s": _median(rounds, "mlp_collapse"),
            "gap_stats_s": _median(rounds, "gap_stats"),
            "gap_stats_file_s": _median(rounds, "gap_stats_file"),
            "export_mib_per_s": mib / export_s,
        }


def kernel_ms(seed: int) -> dict:
    """Median milliseconds of the public contrastive kernels at the train shapes."""
    small = worlds.make_collapsed_init_world(SPAN_N, D, DEX, DEY, seed).pairs
    large = worlds.make_collapsed_init_world(EXACT_N, D, DEX, DEY, seed).pairs
    b_small = contrastive.ContrastiveBatch(small, TAU)
    b_large = contrastive.ContrastiveBatch(large, TAU)

    def ms(fn, batch, reps):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn(batch)
            times.append(time.perf_counter() - start)
        return 1e3 * float(np.median(times))

    return {
        "contrastive.span_gradients.ms": ms(contrastive.span_gradients, b_small, 21),
        "contrastive.exact_gradients.ms": ms(contrastive.exact_gradients, b_large, 7),
        "contrastive.contrastive_loss.ms": ms(contrastive.contrastive_loss, b_small, 21),
    }


def step_gflop() -> float:
    """Nominal GFLOP of one gradient step, averaged over a train round's steps.

    A step needs the n x n logits (2 n^2 d) and the two gradient products
    W @ y and W.T @ x (2 n^2 d each), with W the summed softmaxes.
    """
    work = SPAN_STEPS * 6 * SPAN_N**2 * D + EXACT_STEPS * 6 * EXACT_N**2 * D
    return work / (SPAN_STEPS + EXACT_STEPS) / 1e9


WORKLOADS = {w.name: w for w in (Train, Transfer, Analysis)}
