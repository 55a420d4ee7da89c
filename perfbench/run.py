"""Benchmark of sbm_miss: time to solution with quality gates, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  Call times are reported relative to a
fixed reference kernel (reference.py) timed next to every call.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is a JSON report with the machine, commit, workload parameters, samples
and per-network scores.  The exit code is 1 when an output check failed and
2 when the sources are missing.  ``--smoke`` runs every workload at tiny size
in both modes and checks the emitted names and units against BENCHMARK.json.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import os

# One BLAS thread, so that timings do not depend on how many cores happen to
# be free.  Set before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
from tracer import LAYER_UNITS, Tracer  # noqa: E402

workloads = None  # imported by load_workloads() once the sources are found

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
SUBPROCESS_TIMEOUT = 150

END_TO_END_UNITS = {
    "rel_time": "ref", "setup_s": "s", "peak_mem_mb": "MB", "iters_per_fit": "iter",
    "neg_elbo": "nat", "icl": "nat", "ari": "1", "auc": "1",
}
# Per-layer metrics besides the tracer's own (see tracer.LAYER_UNITS).
EXTRA_LAYER_UNITS = {"trace.untraced_wall_s": "s", "trace.overhead_s": "s",
                     "sampling.psi_err": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke mode")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if not (SRC / "sbm_miss" / "__init__.py").is_file():
        print(f"error: no sbm_miss package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload is None:
        parser.error("--workload is required")
    load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.get(args.workload, tiny=args.tiny)
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        setup_times = set_up(wl, args.seed, work / "inputs", args.tiny,
                             repeats=1 if args.trace else SETUP_REPEATS)
        bench = Bench(wl, workloads.load_cases(wl, work / "inputs", work / "outputs"))
        if args.trace:
            metrics = bench.trace_run(args.seconds)
        else:
            metrics = bench.timing_run(args.seconds, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    correct = not bench.failures
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "params": wl.describe(), "commit": commit(), "machine": machine(),
        "setup_s_samples": setup_times, **bench.report(),
    }
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):
            metric["value"] = None  # nothing succeeded to measure; JSON has no NaN
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


def load_workloads() -> None:
    """Import the workload module, which imports sbm_miss from ``src/``."""
    global workloads
    sys.path.insert(0, str(SRC))
    import workloads


def set_up(wl, seed: int, inputs: Path, tiny: bool, repeats: int) -> list[float]:
    """Time fresh-process set-ups (import, input generation, file writing)."""
    cmd = [sys.executable, str(HERE / "setup_inputs.py"), wl.name, str(seed), str(inputs)]
    if tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd)
        # Popen.wait(timeout) polls in steps of up to 50 ms, which would
        # quantize the set-up time; wait blocking and kill from a timer.
        watchdog = threading.Timer(SUBPROCESS_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            returncode = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, cmd)
    return times


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def wall_clock(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


class RelativeClock:
    """Times each call, then the reference kernel right after it.  A call's
    relative time is its wall time over the mean of the kernel times just
    before and just after it, so the host's speed at that moment cancels."""

    def __init__(self):
        self.before = reference.timed()
        self.refs = [self.before]

    def __call__(self, fn):
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            before, self.before = self.before, reference.timed()
            self.refs.append(self.before)
        return result, (wall, wall / ((before + self.before) / 2.0))


def peak_memory(fn):
    """Peak traced allocation of one call, in MB; tracemalloc slows the call
    several times over, so it never runs inside a timed pass."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


def traced(fn):
    tracer = Tracer()
    return tracer.call(fn), tracer.layer_metrics()


class Bench:
    """Runs one workload's timed call over its panel and checks every output."""

    def __init__(self, wl, cases):
        self.wl = wl
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[int, set[str]] = {case.index: set() for case in cases}
        self.scores: dict[int, dict] = {}
        self.samples: dict[str, dict[int, list[float]]] = {}

    def call(self, case, measure):
        """One checked call; returns the measurement, or None if the run failed."""
        self.attempted += 1
        try:
            result, value = measure(partial(workloads.run, self.wl, case))
            out = workloads.collect(self.wl, case, result)
        except Exception as exc:  # a failing run is counted, the benchmark goes on
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self._fail(case, [f"{type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"])
            return None
        errors = workloads.check(case, out)
        self.digests[case.index].add(out.digest)
        if len(self.digests[case.index]) > 1:
            errors.append("outputs differ between runs of the same input")
        if errors:
            self._fail(case, errors)
            return None
        self.scores.setdefault(case.index, workloads.score(case, out))
        return value

    def _fail(self, case, errors):
        self.failed += 1
        self.failures.extend(f"case {case.index}: {e}" for e in errors)

    def sample(self, seconds: float, *measures) -> list[dict[int, list]]:
        """Cycle over the panel, one call per measure on each network in
        turn, until ``seconds`` have passed and every network has run at
        least once.  Returns the samples of each measure by network."""
        per_case = [{case.index: [] for case in self.cases} for _ in measures]
        tried = 0
        start = time.perf_counter()
        while True:
            for case in self.cases:
                if tried >= len(self.cases) and time.perf_counter() - start >= seconds:
                    return per_case
                for samples, measure in zip(per_case, measures):
                    value = self.call(case, measure)
                    if value is not None:
                        samples[case.index].append(value)
                tried += 1

    def timing_run(self, seconds: float, setup_times: list[float]) -> dict:
        # The peak-memory pass comes first and doubles as the warm-up.
        peaks = {case.index: self.call(case, peak_memory)
                 for case in self.cases[:self.wl.peak_cases]}
        self.samples["peak_mem_mb"] = {k: [] if v is None else [v] for k, v in peaks.items()}
        clock = RelativeClock()
        [both] = self.sample(seconds, clock)
        self.samples["wall_s"] = {k: [w for w, _ in v] for k, v in both.items()}
        rels = self.samples["rel_time"] = {k: [r for _, r in v] for k, v in both.items()}
        self.samples["reference_s"] = {0: clock.refs}
        self.gate()
        values = {
            "rel_time": panel_mean(rels),
            "setup_s": statistics.median(setup_times),
            "peak_mem_mb": panel_mean(self.samples["peak_mem_mb"]),
            **{key: self.mean_score(key) for key in
               ("iters_per_fit", "neg_elbo", "icl", "ari", "auc")},
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()}

    def trace_run(self, seconds: float) -> dict:
        # Untraced and traced calls alternate, so that the overhead compares
        # calls made under the same load on the host.
        untraced, layers = self.sample(seconds, wall_clock, traced)
        self.samples["untraced_wall_s"] = untraced
        values = {name: panel_mean({k: [m[name] for m in runs] for k, runs in layers.items()})
                  for name in LAYER_UNITS}
        self.samples["traced_wall_s"] = {k: [m["trace.wall_s"] for m in runs]
                                         for k, runs in layers.items()}
        values["trace.untraced_wall_s"] = panel_mean(untraced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        values["sampling.psi_err"] = self.mean_score("psi_err")
        self.gate()
        units = {**LAYER_UNITS, **EXTRA_LAYER_UNITS}
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    def gate(self) -> None:
        """Quality gates on the panel: a failure makes the result incorrect."""
        self.failures.extend(workloads.gate({key: self.mean_score(key) for key in ("ari", "auc")}))

    def mean_score(self, key: str) -> float:
        """Panel mean, leaving out networks where the score is undefined (AUC)."""
        values = [s[key] for s in self.scores.values() if math.isfinite(s[key])]
        return statistics.fmean(values) if values else math.nan

    def report(self) -> dict:
        out = {
            "failed_frac": self.failed / max(self.attempted, 1),
            "converged_frac": self.mean_score("converged_frac"),
            "failures": self.failures[:20],
            "digests": {k: sorted(v) for k, v in self.digests.items()},
            "scores": self.scores,
        }
        for label, per_case in self.samples.items():
            flat = [v for runs in per_case.values() for v in runs]
            if flat:
                out[label] = {"n": len(flat), "quartiles": quartiles(flat),
                              "per_network": {k: v for k, v in per_case.items() if v}}
        return out


def panel_mean(per_case: dict[int, list]) -> float:
    """Mean over the panel's networks of each network's median."""
    medians = [statistics.median(v) for v in per_case.values() if v]
    return statistics.fmean(medians) if medians else math.nan


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "platform": platform.platform(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
    }


# ---------------------------------------------------------------------------
# smoke mode
# ---------------------------------------------------------------------------

def smoke() -> int:
    """Run every workload at tiny size in both modes; check names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                   "--seed", "0", "--seconds", "0", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
                                f" {proc.stdout.strip()[-1000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in spec[key]}
            if emitted != declared:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(emitted.items()) ^ set(declared.items()))}")
            print(f"{label}: {'ok' if emitted == declared else 'MISMATCH'}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
