"""Self-test of the benchmark, in its tiny-input mode.

    python3 perfbench/selftest.py

Run from the repository root; takes about half a minute. For every workload it
checks that:
  * `run.py --tiny` prints, with --trace 0 and with --trace 1, every metric
    BENCHMARK.json names, with its unit, and every op matches its digest;
  * with the pinned digest of one op corrupted in a copy of the benchmark,
    that op counts in `failed` (fail_ratio) and its time is dropped, while
    the other op is still timed;
and that the benchmark exits nonzero without a result in a directory that
holds only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, load_universe, select

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

problems = []


def check(ok, message):
    if not ok:
        problems.append(message)
        print(f"   FAIL {message}")


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def check_metrics(workload, result, specs):
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    check(got == want, f"{workload}: metrics or units differ from BENCHMARK.json: "
          f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, m in result["metrics"].items():
        check(isinstance(m.get("value"), (int, float)), f"{workload}: {name} has no numeric value")


def copy_benchmark(where, with_sources):
    """A checkout holding BENCHMARK.json and perfbench/, and, if asked, a
    link to the amcc sources."""
    shutil.rmtree(where, ignore_errors=True)
    shutil.copytree(HERE, where / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", where)
    if with_sources:
        (where / "src").symlink_to(ROOT / "src", target_is_directory=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")
    universe = load_universe()
    OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        print(f"== {workload}")
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result = run(workload, trace)
            check(code == 0 and result is not None, f"{workload} trace {trace}: exit {code}")
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: outputs not correct: {result}")
            check_metrics(workload, result, specs)

        # corrupt the pinned digest of the first tiny op, in a copy
        corrupt = json.loads(json.dumps(universe))
        victim = select(universe, workload, 1, tiny=True)[0]["id"]
        for m in corrupt["workloads"][workload]:
            if m["id"] == victim:
                m["digest"] = "0" * 64
        copy = OUT / "corrupt"
        copy_benchmark(copy, with_sources=True)
        (copy / "perfbench" / "universe.json").write_text(json.dumps(corrupt))
        code, result = run(workload, 0, cwd=copy)
        record = json.loads((copy / "perfbench" / "out" / f"{workload}-seed1-tiny-trace0.json").read_text())
        shutil.rmtree(copy)
        check(code == 1 and result is not None and not result["correct"],
              f"{workload}: a corrupted digest did not fail the run (exit {code})")
        if result is None:
            continue
        victim_op = record["op_ids"].index(victim)
        check(result["failed"] >= 1 and record["fail_ratio"] == result["failed"] / result["attempted"],
              f"{workload}: the corrupted op is missing from fail_ratio")
        check(all(f["op"] == victim_op for f in record["failures"]),
              f"{workload}: an uncorrupted op failed")
        check(record["op_times_s"][victim_op] == [] and record["ops"] == 1,
              f"{workload}: the corrupted op's time was kept")
        check_metrics(workload, result, bench["end_to_end"])

    print("== bare directory")
    bare = OUT / "bare"
    copy_benchmark(bare, with_sources=False)
    code, result = run("cf-422", 0, cwd=bare)
    check(code != 0 and result is None, f"bare directory: exit {code}, result {result}")
    shutil.rmtree(bare)

    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
