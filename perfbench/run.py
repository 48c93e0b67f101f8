"""normlog benchmark: time to a trustworthy verdict, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite-serial --seed 20240901 \
        --seconds 20 --trace 0

A run is a closed loop of passes, one after another, each in a fresh
interpreter (``child.py suite``), until ``--seconds`` have elapsed. Every
pass's report is checked against the verdict oracle in ``workloads.py``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one
traced pass at ``--jobs 1`` and a traced kernel probe, and reports the
per-layer metrics. The last line of stdout is the result object; the
line before it holds the environment and per-pass detail, which are also
written with the spans under ``.perfbench_run/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

from tracer import layer_metrics, load, per_call_ms
from workloads import DEFAULT_SEED, WORKLOADS, count_failures

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0  # a run must exit within 180 s
SETUP_SAMPLES = 11

KERNELS = ("spectral.normal_eig", "logs.exp_general", "linalg.modulus",
           "spectral.spectral_measure", "rng.random_unitary",
           "linalg.commutant_basis")
TABLE_SIZES = (4, 16, 32, 64, 128)
COMMUTANT_SKIP = ("not measured: n^2 x n^2 complex SVD, 4096^2 x 16 B = "
                  "268 MB at n=64, O(n^6) time")


class ChildFailed(Exception):
    pass


class Runner:
    def __init__(self, workload_name: str, seed: int):
        self.workload = WORKLOADS[workload_name]
        self.t0 = time.monotonic()
        self.dir = os.path.join(ROOT, ".perfbench_run", workload_name)
        os.makedirs(self.dir, exist_ok=True)
        self.config = os.path.join(self.dir, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(self.workload.config(seed), fh)
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []
        self.passes: list[dict] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def child(self, *args: str) -> dict:
        """Run child.py in its own process group; return its JSON output."""
        spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, *args], env=self.env,
                                cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{args[0]} timed out")
        if proc.returncode != 0:
            raise ChildFailed(f"{args[0]} exited {proc.returncode}: "
                              f"{err.strip()[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        if "ready" in result:
            result["setup_s"] = result["ready"] - spawn
        return result

    def setup(self) -> dict:
        info = self.child("setup", "--config", self.config)
        self.setups.append(info["setup_s"])
        return info

    def run_pass(self, jobs: int, spans: str | None = None) -> dict:
        """One suite pass, checked against the oracle."""
        report = os.path.join(self.dir, "report.json")
        args = ["suite", "--config", self.config, "--report", report,
                "--jobs", str(jobs)]
        if spans:
            args += ["--spans", spans]
        self.attempted += self.workload.checks_per_pass()
        try:
            result = self.child(*args)
        except ChildFailed:
            self.failed += self.workload.checks_per_pass()
            raise
        with open(report, encoding="utf-8") as fh:
            rows = json.load(fh)["results"]
        result["failed"] = count_failures(self.workload, rows)
        result["checks"] = len(rows)
        result["instances"] = len({(r["family"], r["n"], r["seed"])
                                   for r in rows})
        result["worst_margin"] = worst_margin(rows)
        self.failed += result["failed"]
        return result


def worst_margin(rows: list) -> float:
    """Largest residual / tolerance over rows whose hypothesis holds.

    ``nearest_congruence`` is left out: its sense is inverted (it passes
    when the residual is above its bound).
    """
    worst = 0.0
    for row in rows:
        if not row["hypothesis_met"]:
            continue
        for key, value in row["residuals"].items():
            tol = row["tolerances"].get(key)
            if key != "nearest_congruence" and tol:
                worst = max(worst, value / tol)
    return worst


def kernel_table(spans: list) -> tuple[dict, list[str]]:
    ms = per_call_ms(spans)
    metrics, lines = {}, ["kernel ms/call  " + "  ".join(
        f"n={n:<7}" for n in TABLE_SIZES)]
    for kernel in KERNELS:
        cells = []
        for n in TABLE_SIZES:
            if (kernel, n) in ms:
                metrics[f"{kernel}.ms_per_call.n{n}"] = (ms[(kernel, n)], "ms")
                cells.append(f"{ms[(kernel, n)]:<9.4g}")
            else:
                cells.append(f"{'-':<9}")
        lines.append(f"{kernel:<26}" + "  ".join(cells))
    lines.append(f"linalg.commutant_basis at n>=64: {COMMUTANT_SKIP}")
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "normlog", "__init__.py")):
        print("error: src/normlog not found; run from a normlog checkout",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    jobs = runner.workload.jobs
    detail = {"workload": args.workload, "seed": args.seed, "jobs": jobs}
    traced = probe = None
    try:
        info = runner.child("setup", "--config", runner.config)  # warm-up
        detail["environment"] = {
            "nproc": len(os.sched_getaffinity(0)),
            "python": info["python"], "numpy": info["numpy"],
            "blas": info["blas"],
            "caller_thread_vars": {k: os.environ[k] for k in THREAD_VARS
                                   if k in os.environ}}
        runner.run_pass(jobs)  # warm-up: checked, not timed
        start = runner.elapsed()
        while not runner.passes or runner.elapsed() - start < args.seconds:
            runner.passes.append(runner.run_pass(jobs))
        runner.setups = [p["setup_s"] for p in runner.passes]
        while len(runner.setups) < SETUP_SAMPLES:
            runner.setup()
        if args.trace:
            spans_path = os.path.join(runner.dir, "spans.json")
            traced = runner.run_pass(1, spans_path)
            base = runner.passes if jobs == 1 else [runner.run_pass(1)]
            traced["overhead_ratio"] = (traced["suite_s"]
                                        / median([p["suite_s"] for p in base]))
            probe_path = os.path.join(runner.dir, "probe_spans.json")
            runner.child("probe", "--seed", str(args.seed),
                         "--spans", probe_path)
            probe = load(probe_path)[0]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        detail["error"] = str(exc)

    passes = runner.passes
    if not passes:
        return 1
    detail["passes"] = passes
    detail["fail_ratio"] = runner.failed / max(1, runner.attempted)
    metrics = {}
    if not args.trace:
        metrics = {
            "suite_s": (median([p["suite_s"] for p in passes]), "s"),
            "setup_s": (median(runner.setups), "s"),
            "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
        }
    elif traced and probe:
        metrics = {
            "suite.cpu_s": (median([p["cpu_s"] for p in passes]), "s"),
            "suite.nivcsw": (median([p["nivcsw"] for p in passes]), "count"),
            "suite.instances": (passes[0]["instances"], "count"),
            "suite.checks": (passes[0]["checks"], "count"),
            "checks.worst_margin": (max(p["worst_margin"] for p in passes),
                                    "ratio"),
            "trace.overhead_ratio": (traced["overhead_ratio"], "ratio"),
        }
        metrics.update(layer_metrics(*load(spans_path)))
        kernels, table = kernel_table(probe)
        metrics.update(kernels)
        detail["kernel_table"] = table
        print("\n".join(table))

    with open(os.path.join(runner.dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": runner.failed == 0 and "error" not in detail,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
