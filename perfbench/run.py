"""Run one workload of the amcc benchmark and print its metrics.

    python3 perfbench/run.py --workload cf-422 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. The seed picks the batch from the pinned
inputs in universe.json and the documents are built before any timing. Set-up
time is taken in fresh processes; the batch then runs in one single-threaded
worker process for a fixed number of passes: the workload's count at 15
seconds, in proportion for other values (at least one). Every op's exact
outputs are checked against the pinned digest: an op that raises or misses
it counts as failed and its time is dropped.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run. The last line of stdout is the result as one JSON
object; the full record, with the environment block, goes to
perfbench/out/. Exits 2 when the amcc sources are missing, 1 when a worker
fails or an output is wrong.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import per_layer_specs
from worker import REFERENCE_CAL_S
from workloads import BASE_SECONDS, WORKLOADS, build_input, load_universe, select

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 10  # fresh processes timed for setup_s, besides the run itself
# Set-up (interpreter start, imports, first cache fills) slows down less than
# the calibration loop when the machine is slow: on the reference VM a loop
# 2.1 times slower came with set-up 1.7 times slower. So set-up is scaled by
# (reference / calibration) ** SETUP_SPEED_EXPONENT, which fits that ratio
# and left the least spread over 300 probes.
SETUP_SPEED_EXPONENT = 0.7
TIME_LIMIT_S = 170  # a run must end within 180 s
TAIL_MIN_OPS = 20

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


class WorkerError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    # the warm-up probe writes the bytecode caches, so every timed set-up
    # reads them, as a user's second run would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(job, deadline):
    """Start a worker, feed it the job, and return (set-up sample, report).
    Set-up time runs from just before the process starts to the moment it
    could begin its first op, less the time the worker spent reading its
    speed, and is scaled to the reference machine speed by those readings."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=worker_env(),
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{job['workload']}: worker passed the {TIME_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise WorkerError(f"{job['workload']}: worker exited {proc.returncode}\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = report["t_ready"] - t_spawn - report["setup_sampling_s"]
    cal = report["setup_cal"]
    scaled = raw * (REFERENCE_CAL_S / cal) ** SETUP_SPEED_EXPONENT
    return {"scaled_s": scaled, "raw_s": raw, "cal_s": cal}, report


def environment(report):
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "rational_backend": report["env"]["rational_backend"],
        "kernels": report["env"]["kernels"],
        "importable": {
            name: importlib.util.find_spec(name) is not None for name in ("numba", "gmpy2", "scipy")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "threads": 1,
        "platform": platform.platform(),
    }


def end_to_end(setups, report):
    """The end-to-end metrics, plus the op statistics behind them.

    The VM this was built on runs identical work up to 1.8 times slower for
    tens of seconds at a time when its neighbours are busy. So every op time
    is scaled to the reference machine speed by the calibration taken around
    it, and each op is charged its median scaled time over the run's passes.
    wall_s is the batch's time at those charged times. Percentiles are taken
    over every timed op execution at its charged time; the tail is the
    highest percentile with at least ten executions above it."""
    scaled = [
        [dt * REFERENCE_CAL_S / cal for dt, cal in zip(times, cals)]
        for times, cals in zip(report["times"], report["cals"])
    ]
    kept = [s for s in scaled if s]
    per_op = [statistics.median(s) for s in kept]
    charged = sorted(v for v, s in zip(per_op, kept) for _ in s)
    if not charged:
        return None, {}
    n = len(charged)
    if n >= TAIL_MIN_OPS:
        tail, tail_pct = charged[n - 11], 100.0 * (n - 10) / n
    else:
        tail, tail_pct = charged[-1], 100.0
    values = {
        "setup_s": statistics.median(s["scaled_s"] for s in setups),
        "wall_s": sum(per_op),
        "op_p50_ms": statistics.median(charged) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mib": report["peak_rss_kib"] / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {
        "ops": n,
        "passes": len(report["passes"]),
        "tail_percentile": tail_pct,
        "raw_pass_walls_s": report["passes"],
        "op_scaled_times_s": scaled,
    }
    return metrics, detail


def per_layer(report, check_names):
    layers = dict(report["layers"])
    for name in check_names:
        runs = report["extras"].get(name)
        layers[f"verify.check.{name}.s"] = statistics.median(runs) if runs else 0.0
    return {
        name: {"value": layers[name], "unit": unit}
        for name, unit, _ in per_layer_specs(check_names)
    }


def run_workload(args, workload, universe):
    deadline = time.monotonic() + TIME_LIMIT_S
    batch = select(universe, workload, args.seed, tiny=args.tiny)
    job = {
        "workload": workload,
        # a fixed pass count, sized from --seconds, keeps the work and the
        # op count of a run the same on every machine and every commit
        "passes": max(1, round(WORKLOADS[workload]["passes"] * args.seconds / BASE_SECONDS)),
        "inputs": [build_input(universe, workload, m) for m in batch],
        "expected": [m["digest"] for m in batch],
    }
    tag = f"{workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    OUT.mkdir(exist_ok=True)
    probes = 1 if args.tiny else SETUP_PROBES
    # the first probe also warms the bytecode and file caches, so it is not kept
    run_worker({**job, "mode": "probe"}, deadline)
    setups = [run_worker({**job, "mode": "probe"}, deadline)[0] for _ in range(probes)]
    mode = "trace" if args.trace else "run"
    setup, report = run_worker(
        {**job, "mode": mode, "spans_path": str(OUT / f"{tag}-spans.json")}, deadline
    )
    setups.append(setup)

    failed = len(report["failures"])
    check_names = [m["id"] for m in universe["workloads"]["verify-paper"]]
    e2e, detail = end_to_end(setups, report)
    result = {"correct": failed == 0 and e2e is not None, "attempted": report["attempted"], "failed": failed}
    if args.trace:
        result["metrics"] = per_layer(report, check_names)
    else:
        result["metrics"] = e2e or {}
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "env": environment(report),
        "result": result,
        "fail_ratio": failed / report["attempted"],
        "setup_samples": setups,
        "op_ids": [m["id"] for m in batch],
        "op_times_s": report["times"],
        "op_calibrations_s": report["cals"],
        "failures": report["failures"],
        **detail,
    }
    if args.trace:
        record["traced_scaled_wall_s"] = report["traced_scaled_wall_s"]
    with open(OUT / f"{tag}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def print_table(record):
    result = record["result"]
    print(
        f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"timed ops {record.get('ops', 0)} in {record.get('passes', 0)} passes  "
        f"attempted {result['attempted']}  failed {result['failed']}  "
        f"fail_ratio {record['fail_ratio']:.4g}"
    )
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{record['tail_percentile']:.1f} of {record['ops']} ops)"
        print(f"   {name:<56} {m['value']:>14.6g} {m['unit']}{note}")
    for f in record["failures"][:5]:
        print(f"   FAILED op {f['op']} ({record['op_ids'][f['op']]}): {f['error']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BASE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="two cheap ops per batch, for the self-test")
    args = parser.parse_args()

    if not (SRC / "amcc" / "__init__.py").is_file():
        print(f"error: amcc sources not found under {SRC}", file=sys.stderr)
        return 2
    universe = load_universe()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            results[workload], record = run_workload(args, workload, universe)
            print_table(record)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = results[workloads[0]] if len(workloads) == 1 else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
