"""One workload process: set up, then time a fixed number of passes.

Reads a job (JSON) on stdin and writes one JSON report on stdout. The
process is single-threaded. Every op's exact outputs are digested and
compared with the pinned digest; an op that raises or misses its digest is
counted as failed and its time is dropped. Each kept op time, and the
set-up time, comes with readings of the machine's speed taken while it ran
(SpeedSampler).

Modes:
  probe  set up and report when the first op could start, then exit
  run    set up, then run `passes` passes over the batch
  trace  set up under the tracer, run `passes - 1` untraced passes (at least
         one), then one traced pass; report per-layer metrics and write the
         spans
"""

import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from time import perf_counter

from tracing import Tracer
from workloads import OPS, WORKLOADS, digest


# calibrate() on the reference VM (2-core KVM guest, Python 3.11) when no
# neighbour contends for its core
REFERENCE_CAL_S = 0.0015
SAMPLE_EVERY_S = 0.1
# set-up lasts about a fifth of a second, and the machine's speed can change
# within it, so it is read more often
SETUP_SAMPLE_EVERY_S = 0.02


def calibrate():
    """Time a fixed pure-Python Fraction loop, the same kind of work as the
    exact LP. A time t measured while the loop takes c is reported as
    t * REFERENCE_CAL_S / c: its value at the reference machine speed."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


class SpeedSampler:
    """Runs calibrate() from a SIGALRM handler every `period` seconds, so an
    op of several seconds gets speed readings from its own run time."""

    def __init__(self, period=SAMPLE_EVERY_S):
        self.period = period
        self.samples = []  # (start, duration)

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append((start, calibrate()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, t0, t1):
        """(calibration for [t0, t1], handler time spent inside it): the
        median of the samples taken in the interval widened by one period,
        so even a short op has its neighbours' readings."""
        near = [d for s, d in self.samples if t0 - SAMPLE_EVERY_S <= s <= t1 + SAMPLE_EVERY_S]
        inside = sum(d for s, d in self.samples if t0 <= s <= t1)
        return (statistics.median(near) if near else calibrate()), inside


def import_amcc():
    import amcc
    import amcc.cli

    return amcc


def fill_caches(amcc, workload):
    """The first calls that fill amcc's caches for this workload."""
    for shape in WORKLOADS[workload]["scenarios"]:
        sc = amcc.scenario.bell_scenario(*shape)
        amcc.scenario.restriction_table(sc)
        amcc.scenario.incidence_matrix(sc)
    amcc.csp.reference_plan()


class Batch:
    def __init__(self, amcc, job):
        self.amcc = amcc
        self.op = OPS[job["workload"]]
        self.inputs = job["inputs"]
        self.expected = job["expected"]
        self.times = [[] for _ in self.inputs]  # kept op times, untraced passes
        self.cals = [[] for _ in self.inputs]  # calibration time around each kept op
        self.passes = []  # raw wall time of each untraced pass
        self.scaled_passes = []  # the same, scaled to the reference speed
        self.extras = {}  # extra per-op readings, e.g. verify check runtimes
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None):
        """One pass over the batch; returns its wall time scaled to the
        reference speed. Each kept op's time excludes the sampler's handler
        time and comes with the calibration read around it."""
        kept = []  # (op, start, end, extra)
        with SpeedSampler() as sampler:
            for i, doc in enumerate(self.inputs):
                if tracer is not None:
                    tracer.op = f"pass{len(self.passes)}:{i}"
                self.attempted += 1
                t0 = perf_counter()
                try:
                    outputs, extra = self.op(self.amcc, doc)
                    error = None
                except Exception as exc:  # a failing op is counted, never fatal
                    error = f"{type(exc).__name__}: {exc}"
                t1 = perf_counter()
                if error is None and digest(outputs) != self.expected[i]:
                    error = "output digest mismatch"
                if error is None:
                    kept.append((i, t0, t1, extra))
                else:
                    self.failures.append({"op": i, "error": error})
        wall = scaled_wall = 0.0
        for i, t0, t1, extra in kept:
            cal, sampling = sampler.around(t0, t1)
            dt = t1 - t0 - sampling
            wall += dt
            scaled_wall += dt * REFERENCE_CAL_S / cal
            if tracer is None:
                self.times[i].append(dt)
                self.cals[i].append(cal)
                for key, value in (extra or {}).items():
                    self.extras.setdefault(key, []).append(value)
        if tracer is None:
            self.passes.append(wall)
            self.scaled_passes.append(scaled_wall)
        return scaled_wall


def main():
    job = json.load(sys.stdin)
    tracer = Tracer() if job["mode"] == "trace" else None
    with SpeedSampler(SETUP_SAMPLE_EVERY_S) as setup_speed:
        amcc = import_amcc()
        if tracer is None:
            fill_caches(amcc, job["workload"])
        else:
            # every amcc module is loaded before the wrappers go in, so no
            # module binds a wrapper that uninstall would miss
            tracer.install()
            fill_caches(amcc, job["workload"])
            tracer.uninstall()
        t_ready = time.monotonic()
    # the speed this process ran its set-up at, and the time it spent
    # reading it, which the set-up time leaves out; a set-up shorter than one
    # period is read once, after it
    readings = [d for _, d in setup_speed.samples]
    report = {
        "t_ready": t_ready,
        "setup_cal": statistics.median(readings or [calibrate()]),
        "setup_sampling_s": sum(readings),
    }
    if job["mode"] != "probe":
        batch = Batch(amcc, job)
        untraced = job["passes"] if tracer is None else max(1, job["passes"] - 1)
        for _ in range(untraced):
            batch.run_pass()
        if tracer is not None:
            tracer.install()
            traced_wall = batch.run_pass(tracer)
            tracer.uninstall()
            layers = tracer.layer_metrics()
            layers.update(tracer.counts)
            layers["trace.overhead_s"] = traced_wall - statistics.median(batch.scaled_passes)
            report["layers"] = layers
            report["traced_scaled_wall_s"] = traced_wall
            with open(job["spans_path"], "w") as fh:
                json.dump(
                    {"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": tracer.spans},
                    fh,
                )
        report.update(
            times=batch.times,
            cals=batch.cals,
            passes=batch.passes,
            extras=batch.extras,
            attempted=batch.attempted,
            failures=batch.failures,
            env={
                "rational_backend": amcc.rational.BACKEND,
                "kernels": amcc.kernels.KERNELS,
            },
        )
    report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
