"""Compare every gaplab command's reports and every demo's output between the
working tree and a revision.

    python tools/report_diff.py --base REV [--seed N ...] [--command NAME ...]

REV's committed files are unpacked (``git archive``) under the git-ignored
``tools/out/report-diff/``, which each run empties first. Every command in
either tree's ``cli._COMMANDS`` runs at its defaults in both trees, once per
seed (default 0), as ``python -m gaplab`` with that tree's ``src`` on
PYTHONPATH. Two runs on files are added: ``export`` converts an MMEB file
that this script writes to CSV, and ``gap-stats`` analyzes a pair of such
files. The configs name those files by paths relative to the run directory,
so both trees echo the same config. ``gap-stats-span`` runs gap-stats on a
world with span-mode noise, which its defaults (full-mode) do not reach.
``gap-stats-remainder-dropped`` (``{"n": 10049}``, 100 groups) and
``gap-stats-remainder-kept`` (``{"n": 10051}``, 101 groups) leave a trailing
chunk of 49 and of 51 pairs, so the grouping drops one and keeps the other;
at the defaults' 10,000 pairs no chunk trails.
``c3-bench-40-classes`` scores 40-dimensional codes (two seeds), so the
nearest-code sums run over 40 terms where the defaults' run over 10.
``c3-bench-sigma-zero`` puts sigma 0 in the grid, so the corrupting
variants are scored on noise scaled to zero; it exits 1 on both sides,
because its checks fail at its size (400 rows, one seed).
Three train-sim runs of 300 steps reach the trainer paths its defaults (span
form, free rows) do not: the long-running form, which trains in reduced
coordinates; the exact form on free rows; and the span form on projected
rows. Against a base that still has train-sim's ``init`` key, the
span-projected run exits 2 on the base side (the base starts projected
descent from pre-norm rows unless ``init`` is ``"unit"``); compare it by hand
with the base run under ``{"init": "unit", "renormalize_each_step": true,
"steps": 300}``.

``--command NAME``, repeatable, keeps only the runs of the named commands
(all four train-sim runs for ``train-sim``) and skips the demos: c3-bench and
shift-sweep alone take about 3 s a seed.

Every ``demos/*.py`` script of either tree then runs once in each tree, in
an empty directory with TMPDIR pointing into it; its stdout, with that TMPDIR
masked (demo 08 prints the temporary directory it works in), and its exit
status are compared.

For each run the script prints whether the two exit statuses and the two run
directories (reports and exported files) or demo outputs are identical, and
lists every file that differs or exists on one side only, or the first
differing line of a demo's output. For a ``*.json`` report that differs it
lists the key paths that differ instead (at most ``MAX_KEY_NOTES`` per file),
e.g. ``train-sim.json: checks.loss_finite only in base``; the summary line also gives each tree's
line count of ``src/gaplab/*.py`` (as ``wc -l``), which the exit status
ignores. It exits 0 only when everything is identical, 1 when anything
differs and 2 when REV cannot be unpacked.
Standard library only; train-sim at its defaults takes 1-2 min a side, and
one seed takes 5-6 min in all.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "tools" / "out" / "report-diff"
INPUT_ROWS, INPUT_COLS = 1000, 32  # ten groups of gap-stats' default 100 pairs
INPUT_PATH = "../../../inputs/{}.mmeb"  # from WORK/<side>/seed<N>/<run>/
MAX_KEY_NOTES = 10


def _unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def _commands(tree: Path) -> list[str]:
    code = "import json, sys; from gaplab import cli; json.dump(sorted(cli._COMMANDS), sys.stdout)"
    out = subprocess.run([sys.executable, "-c", code], env=_env(tree), check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _write_mmeb(path: Path, seed: int) -> None:
    """An MMEB file (28-byte header, float32 payload) of seeded Gaussian rows."""
    rng = random.Random(seed)
    values = [rng.gauss(0.0, 1.0) for _ in range(INPUT_ROWS * INPUT_COLS)]
    path.write_bytes(struct.pack("<4sIQQI", b"MMEB", 1, INPUT_ROWS, INPUT_COLS, 1)
                     + struct.pack(f"<{len(values)}f", *values))


def _run(tree: Path, run_dir: Path, command: str, config: dict | None, seed: int) -> int:
    run_dir.mkdir(parents=True)
    args = [sys.executable, "-m", "gaplab", command, "--seed", str(seed), "--out", "reports"]
    if config is not None:
        cfg = run_dir.with_suffix(".json")  # beside the run directory, not compared
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    return subprocess.run(args, cwd=run_dir, env=_env(tree), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _run_demo(tree: Path, run_dir: Path, name: str) -> tuple[int, list[str]]:
    """Exit status and stdout lines of one demo, run in ``run_dir`` with TMPDIR
    inside it; the TMPDIR path and what follows it up to whitespace is masked."""
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    script = tree / "demos" / name
    if not script.is_file():
        return -1, [f"<no demos/{name}>"]
    proc = subprocess.run([sys.executable, str(script)], cwd=run_dir,
                          env=dict(_env(tree), TMPDIR=str(tmp)), capture_output=True, text=True)
    out = re.sub(re.escape(str(tmp)) + r"\S*", "<tmpdir>", proc.stdout)
    (run_dir / "stdout.txt").write_text(out)
    return proc.returncode, out.splitlines()


def _verdict(label: str, status: dict, notes: list[str], size: str) -> bool:
    """Print whether one run is identical on both sides, with the exit statuses
    and ``notes`` on what differs; return True when something does."""
    if status["base"] != status["change"]:
        notes.insert(0, f"exit status: base {status['base']}, change {status['change']}")
    print(f"{label}: {'DIFFERS' if notes else 'identical'} (exit {status['base']}, {size})",
          flush=True)
    for note in notes:
        print(f"  {note}", flush=True)
    return bool(notes)


def _src_lines(tree: Path) -> int:
    """Newlines in the tree's ``src/gaplab/*.py``, the total of ``wc -l``."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "gaplab").glob("*.py"))


def _key_diffs(base, change, path=""):
    """Key paths (``a.b[2]``) at which two parsed JSON documents differ."""
    if isinstance(base, dict) and isinstance(change, dict):
        for key in sorted(set(base) | set(change)):
            sub = f"{path}.{key}" if path else key
            if key not in change:
                yield f"{sub} only in base"
            elif key not in base:
                yield f"{sub} only in change"
            else:
                yield from _key_diffs(base[key], change[key], sub)
    elif isinstance(base, list) and isinstance(change, list) and len(base) == len(change):
        for i, (a, b) in enumerate(zip(base, change)):
            yield from _key_diffs(a, b, f"{path}[{i}]")
    elif type(base) is not type(change) or base != change:
        short = {side: json.dumps(v)[:40] for side, v in (("base", base), ("change", change))}
        yield f"{path or '<document>'}: base {short['base']}, change {short['change']}"


def _file_notes(path: str, base: bytes, change: bytes) -> list[str]:
    """What differs between two versions of one file: the JSON key paths of a
    report, or just that the bytes differ."""
    keys = []
    if path.endswith(".json"):
        try:
            keys = list(_key_diffs(json.loads(base), json.loads(change)))
        except ValueError:
            pass
    if not keys:  # not JSON, or the same document written differently
        return [f"differs: {path}"]
    more = [f"{path}: {len(keys) - MAX_KEY_NOTES} more"] if len(keys) > MAX_KEY_NOTES else []
    return [f"{path}: {key}" for key in keys[:MAX_KEY_NOTES]] + more


def _files(d: Path) -> dict:
    return {p.relative_to(d).as_posix(): p.read_bytes() for p in sorted(d.rglob("*"))
            if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--seed", type=int, nargs="+", default=[0], help="seeds to run at")
    parser.add_argument("--command", action="append", metavar="NAME",
                        help="run only this command (repeatable); the demos are skipped")
    args = parser.parse_args(argv)

    shutil.rmtree(WORK, ignore_errors=True)
    base = WORK / "base-tree"
    try:
        _unpack(args.base, base)
    except subprocess.CalledProcessError as exc:
        print(f"report_diff: cannot unpack {args.base}: {exc.stderr.decode().strip()}",
              file=sys.stderr)
        return 2
    trees = {"base": base, "change": ROOT}
    (WORK / "inputs").mkdir()
    for name, seed in (("x", 1), ("y", 2)):
        _write_mmeb(WORK / "inputs" / f"{name}.mmeb", seed)
    runs = [(c, c, None) for c in sorted(set(_commands(base)) | set(_commands(ROOT)))]
    runs += [("export-mmeb-csv", "export",
              {"in_file": INPUT_PATH.format("x"), "out_file": "x.csv"}),
             ("gap-stats-files", "gap-stats",
              {"x_file": INPUT_PATH.format("x"), "y_file": INPUT_PATH.format("y")}),
             ("gap-stats-span", "gap-stats", {"noise_mode": "span"}),
             ("gap-stats-remainder-dropped", "gap-stats", {"n": 10049}),
             ("gap-stats-remainder-kept", "gap-stats", {"n": 10051}),
             ("c3-bench-40-classes", "c3-bench", {"classes": 40, "span_dim": 48, "seeds": 2}),
             ("c3-bench-sigma-zero", "c3-bench", {"sigma_grid": [0.0, 0.05], "seeds": 1, "n": 400}),
             ("train-sim-long-running", "train-sim", {"long_running": True, "steps": 300}),
             ("train-sim-exact-free", "train-sim", {"gradient_form": "exact", "steps": 300}),
             ("train-sim-span-projected", "train-sim",
              {"renormalize_each_step": True, "steps": 300})]
    if args.command:
        unknown = sorted(set(args.command) - {command for _, command, _ in runs})
        if unknown:
            parser.error(f"unknown command {unknown[0]!r}")
        runs = [run for run in runs if run[1] in args.command]

    differing = 0
    for seed in args.seed:
        for name, command, config in runs:
            dirs = {side: WORK / side / f"seed{seed}" / name for side in trees}
            status = {side: _run(tree, dirs[side], command, config, seed)
                      for side, tree in trees.items()}
            files = {side: _files(d) for side, d in dirs.items()}
            notes = []
            for path in sorted(set(files["base"]) | set(files["change"])):
                if path not in files["change"]:
                    notes.append(f"only in base: {path}")
                elif path not in files["base"]:
                    notes.append(f"only in change: {path}")
                elif files["base"][path] != files["change"][path]:
                    notes += _file_notes(path, files["base"][path], files["change"][path])
            differing += _verdict(f"seed {seed} {name}", status, notes,
                                  f"{len(files['base'])} files")
    demos = [] if args.command else sorted(
        {p.name for tree in trees.values() for p in (tree / "demos").glob("*.py")})
    for name in demos:
        status, out = {}, {}
        for side, tree in trees.items():
            status[side], out[side] = _run_demo(tree, WORK / side / "demos" / name, name)
        pairs = zip(out["base"] + [""], out["change"] + [""])  # "" marks a missing line
        notes = [f"stdout line {n}: base {a!r}, change {b!r}"
                 for n, (a, b) in enumerate(pairs, 1) if a != b][:1]
        differing += _verdict(f"demo {name}", status, notes, f"{len(out['base'])} lines")
    total = len(args.seed) * len(runs) + len(demos)
    lines = {side: _src_lines(tree) for side, tree in trees.items()}
    print(f"{total - differing} of {total} runs identical "
          f"(src/gaplab/*.py lines: base {lines['base']}, change {lines['change']})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
