"""conekit's benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): verify-lift, verify-kraus, seesaw, cli-io.
One client runs ops back to back in this process, with BLAS pinned to one
thread; every op's answer is checked against a known answer.  Every time
metric is host-speed normalized (see hostspeed.py): each op's wall time is
rescaled by a calibration slice timed beside it, so a shared host's speed
phases do not read as a change in conekit.  Raw wall times are in `details`.

--trace 0 prints the end-to-end metrics: set-up time from fresh
interpreters, then `--seconds` of whole rounds.  --trace 1 spends half of
`--seconds` untraced and half with the outside-in tracer installed, and
prints the per-layer metrics plus trace.overhead (traced / untraced wall_s).

Human-readable lines and a `details` JSON line (machine metadata, failure
reasons, tail percentile and sample count, self-time split, suite report
hashes, absent hook points) come first; the last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# Pin BLAS before numpy loads: one thread, so timings do not depend on what
# else the machine runs.  Child set-up probes inherit these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7
# Op time between two calibration slices: short next to the host's speed
# phases, long next to the ~10 ms slice.
SEGMENT_S = 0.2
PROBE_TIMEOUT_S = 60
ENVELOPE = ("2x2", "3x3", "4x4", "8x8")
# Printed for violation_recall and sr_k_excess on workloads that make no
# see-saw calls, so every run reports every end-to-end metric.
NOT_APPLICABLE = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_times(workload, seed):
    """Host-speed-normalized set-up time of each of several fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["ok"]:
            raise RuntimeError("set-up probe: first op gave a wrong answer")
        times.append(result["setup_s"] * hostspeed.REFERENCE_S / result["slice_s"])
    return times


class Measurement:
    """Timed whole rounds of one workload, rescaled to the reference host speed."""

    def __init__(self):
        self.rounds = []  # per round: list of (dims, host-speed-normalized seconds)
        self.raw_round_s = []  # per round: summed wall time of its ops, as measured
        self.slices = []  # calibration slice times, seconds
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (round, op label, dims, reason, known)

    def run(self, workload, seconds, tracer=None):
        start = time.perf_counter()
        last = hostspeed.slice_seconds()
        r = 0
        while r == 0 or time.perf_counter() - start < seconds:
            ops = workload.round(r)
            timings, segment, raw = [], [], 0.0
            for i, op in enumerate(ops):
                if tracer:
                    tracer.begin_op((r, i))
                exc = result = None
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except Exception as error:  # every op failure is recorded, not fatal
                    exc = error
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.end_op()
                failure = op.outcome(result, exc)
                self.attempted += op.weight
                if failure is not None:
                    self.failed += failure.count or op.weight
                    self.failures.append((r, op.label, op.dims, failure.reason, failure.known))
                raw += elapsed
                segment.append((op.dims, elapsed))
                if sum(t for _, t in segment) >= SEGMENT_S or i == len(ops) - 1:
                    now = hostspeed.slice_seconds()
                    factor = stats.speed_factor(last, now, hostspeed.REFERENCE_S)
                    timings += [(dims, t * factor) for dims, t in segment]
                    self.slices.append(now)
                    last, segment = now, []
            self.rounds.append(timings)
            self.raw_round_s.append(raw)
            r += 1
        return self

    def wall_s(self):
        """Mean over rounds of the time the round's ops took."""
        return statistics.fmean(sum(t for _, t in rnd) for rnd in self.rounds)

    def unexpected(self):
        return [f for f in self.failures if not f[4]]


def end_to_end(meas, setup, quality, peak_rss_mb):
    """End-to-end metrics: each timing is taken per round, then averaged over rounds.

    Every round has the same composition, so a per-round statistic lands on
    the same op class in every round whatever the number of rounds.  The
    op times are already rescaled to the reference host speed; the mean over
    rounds also blends what the rescaling leaves of the host's phases.
    """
    per_round = {"p50": [], "tail": []}
    rates = {dims: [] for dims in ENVELOPE}
    for rnd in meas.rounds:
        latencies_ms = [t * 1e3 for _, t in rnd]
        per_round["p50"].append(statistics.median(latencies_ms))
        tail_ms, percentile, n = stats.tail(latencies_ms)
        per_round["tail"].append(tail_ms)
        for dims in ENVELOPE:
            times = [t for d, t in rnd if d == dims]
            rates[dims].append(len(times) / sum(times))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (meas.wall_s(), "s"),
    }
    for dims in ENVELOPE:
        metrics[f"ops_per_s.{dims}"] = (statistics.fmean(rates[dims]), "1/s")
    metrics["op_ms.p50"] = (statistics.fmean(per_round["p50"]), "ms")
    metrics["op_ms.tail"] = (statistics.fmean(per_round["tail"]), "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["pass_share"] = (1.0 - meas.failed / meas.attempted, "ratio")
    quality = quality or {}
    for name in ("violation_recall", "sr_k_excess"):
        value = quality.get(name)
        metrics[name] = (NOT_APPLICABLE if value is None else value, "ratio")
    tail_info = {"percentile": round(percentile, 3), "ops_per_round": n,
                 "ops_beyond": min(10, n), "rounds": len(meas.rounds)}
    return metrics, tail_info


def blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def metadata(seed):
    import importlib.util

    import numpy as np

    import conekit

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the vendor is informational
        blas = "unknown"
    backend = getattr(conekit, "backend_name", None)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "kernel_backend": backend() if backend else "absent",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "conekit", "__init__.py")):
        print(f"error: no conekit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import conekit

    setup = [] if args.trace else setup_times(args.workload, args.seed)
    workload = workloads.make(args.workload, args.seed, ROOT)
    details = {"workload": args.workload, "trace": args.trace, "metadata": metadata(args.seed)}
    try:
        # Warm-up, untimed and unchecked: lazy imports and first-touch costs.
        with contextlib.suppress(Exception):
            workload.round(0)[0].run()
        if args.trace:
            untraced = Measurement().run(workload, args.seconds / 2)
            trace = tracing.Tracer()
            trace.install(conekit)
            try:
                traced = Measurement().run(workload, args.seconds / 2, trace)
            finally:
                trace.uninstall()
            overhead = traced.wall_s() / untraced.wall_s()
            values, absent = tracing.layer_metrics(
                trace, len(traced.rounds), workloads.all_suite_pairs(), overhead)
            units = dict(tracing.metric_names(workloads.all_suite_pairs()))
            metrics = {name: (values[name], units[name]) for name in units}
            details["absent"] = absent
            details["self_ms_per_round"] = {
                k: round(v / len(traced.rounds), 3)
                for k, v in tracing.module_split(trace).items()}
            details["rounds"] = {"untraced": len(untraced.rounds), "traced": len(traced.rounds)}
            runs = (untraced, traced)
        else:
            meas = Measurement().run(workload, args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, details["tail"] = end_to_end(meas, setup, workload.quality(), peak)
            details["fail_share"] = meas.failed / meas.attempted
            details["rounds"] = len(meas.rounds)
            details["round_wall_s"] = [round(t, 4) for t in meas.raw_round_s]
            details["round_normalized_s"] = [round(sum(t for _, t in rnd), 4)
                                             for rnd in meas.rounds]
            details["calibration_slice_ms"] = {
                "reference": hostspeed.REFERENCE_S * 1e3,
                "median": round(statistics.median(meas.slices) * 1e3, 3),
                "min": round(min(meas.slices) * 1e3, 3),
                "max": round(max(meas.slices) * 1e3, 3),
            }
            details["setup_s_probes"] = setup
            details["report_sha256"] = workload.report_hashes()
            runs = (meas,)
    finally:
        workload.close()

    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    failures = [f for m in runs for f in m.failures]
    details["failures"] = _summarize(failures)
    unexpected = [f for m in runs for f in m.unexpected()]
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    if "fail_share" in details:  # reported, not gated: it reads 0 where nothing fails
        print(f"{'fail_share':<48} {details['fail_share']:>14.6g} ratio")
    print("details " + json.dumps(details, default=str))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _summarize(failures):
    """Failure reasons grouped by (op, dims, known), with counts."""
    groups = {}
    for _, label, dims, reason, known in failures:
        key = f"{dims} {label} ({'known defect' if known else 'UNEXPECTED'})"
        entry = groups.setdefault(key, {"count": 0, "example": reason[:300]})
        entry["count"] += 1
    return groups


if __name__ == "__main__":
    sys.exit(main())
