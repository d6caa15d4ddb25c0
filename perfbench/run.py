"""Benchmark gaplab end to end (untraced) or layer by layer (traced).

    python3 perfbench/run.py --workload train|transfer|analysis \\
        --seed N --seconds S --trace 0|1

Run from the root of a gaplab checkout; the package is imported from its
``src/`` directory. After set-up the run repeats whole rounds of the
workload's operations until ``--seconds`` have passed, checks every output,
and prints one JSON object as its last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
the per-layer ones, from spans recorded around gaplab's public functions
(the spans are written to ``perfbench/out/trace-<workload>.jsonl``). A
line before it gives per-operation figures. Metric names and units come
from BENCHMARK.json.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "transfer", "analysis"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def per_layer(names, summary: dict, rounds: int, direct: dict) -> dict:
    """Per-layer metric values by name: ``<function or layer>.<kind>``.

    Counts, self times, rows and bytes are per round; rates are work over
    the function's total span time. ``direct`` holds the values measured or
    computed apart from the spans.
    """
    funcs, layers = summary["functions"], summary["layers"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0}
    values = {}
    for name in names:
        target, _, kind = name.rpartition(".")
        f = funcs.get(target, zero)
        if name in direct:
            values[name] = direct[name]
        elif target in layers:
            values[name] = layers[target] / rounds
        elif kind in ("calls", "self_s"):
            values[name] = f[kind] / rounds
        elif kind in ("rows", "bytes"):
            values[name] = f["work"] / rounds
        elif kind == "mib_per_s":
            values[name] = f["work"] / f["total_s"] if f["total_s"] else 0.0
        elif kind == "ms_per_step":
            values[name] = 1e3 * f["total_s"] / f["work"] if f["work"] else 0.0
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return values


def run(args, import_s: float, work_dir: str) -> int:
    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        start = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        wl.setup()
        setup_times.append(time.perf_counter() - start)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            rounds.append(wl.run_round())
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    wrong = [msg for r in rounds for msg in r.wrong] + wl.final_checks()
    failures = [msg for r in rounds for msg in r.failed]
    for msg in failures + wrong:
        print(f"perfbench {args.workload}: {msg}", file=sys.stderr)

    round_s = [sum(r.times.values()) for r in rounds]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": len(rounds), "round_s": statistics.median(round_s),
            "detail": wl.detail(rounds), "op_s": [r.times for r in rounds],
            "import_s": import_s, "setup_reps_s": setup_times}
    if tracer:
        wanted = spec["per_layer"]
        direct = dict(workloads.kernel_ms(args.seed))
        direct["contrastive.step.gflop"] = workloads.step_gflop()
        values = per_layer([m["name"] for m in wanted], tracer.summary(), len(rounds), direct)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.jsonl"))
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "round_s": statistics.median(round_s),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    print(json.dumps(info))
    print(json.dumps({"correct": not wrong, "attempted": len(rounds) * len(wl.ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gaplab", "__init__.py")):
        print(f"perfbench: no gaplab sources at {SRC}; run from a gaplab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gaplab

    if os.path.dirname(os.path.abspath(gaplab.__file__)) != os.path.join(SRC, "gaplab"):
        print(f"perfbench: imported gaplab from {gaplab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    work_dir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        return run(args, import_s, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
