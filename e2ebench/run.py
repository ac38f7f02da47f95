"""End-to-end benchmark of the paper pipeline and the serving scenarios.

Usage::

    python3 e2ebench/run.py --workload paper-validation --seed 1 --seconds 25 --trace 0

Each workload is a closed loop of one client: this runner starts
operations back to back, each in a fresh worker interpreter
(``worker.py``) with ``--jobs 1``, so every operation pays what a CLI
user pays -- ``import repro``, workload calibration, cold per-process
memos -- and the result cache points at an empty directory.  Set-up-only
samples alternate with the operations.  While a worker runs, the runner
probes the host's speed on the same CPU (``hostspeed.py``), and every
host timing is reported at a fixed reference speed; the raw seconds and
the probe samples are kept beside it in the run manifest.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced operations and prints the per-layer metrics from the
spans (``spans.py``) plus ``bench.trace_overhead``.  Outputs are checked
on every operation (digests, cell counts, run counts, trace validity);
the last stdout line is the JSON result.  See ``NOTES.md`` for why each
workload exists and which layer should move which number.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("paper-validation", "diurnal-day", "serving-stress")
DEFAULT_SEED = 1
#: Set-up-only samples per untraced run, and per traced run.
MIN_SETUPS = 10
TRACE_SETUPS = 3
#: A run stops early once this many steps have failed.
MAX_FAILURES = 3
#: Wall-clock ceiling of a whole run: no operation starts that would
#: likely end past it, and a worker still running 10 s past it is killed.
RUN_BUDGET_S = 165.0

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "sim_requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

FALLBACK_SLUGS = tuple(slug for _, slug in worker.FALLBACK_SLUGS) + ("other",)

PER_LAYER = {
    "workloads.make_workload.calls": "count",
    "workloads.make_workload.self_s": "s",
    "simulator.server_sim.calls": "count",
    "simulator.server_sim.self_s": "s",
    "simulator.server_sim.sim_requests": "count",
    "simulator.sweep.evaluations": "count",
    "simulator.sweep.self_s": "s",
    "memsim.self_s": "s",
    "process.import_s": "s",
    "scenario.compile.self_s": "s",
    "scenario.compile.runs_planned": "count",
    "cluster.cohort.calls": "count",
    "cluster.cohort.self_s": "s",
    "cluster.cohort.sim_requests": "count",
    "cluster.scalar.calls": "count",
    "cluster.scalar.self_s": "s",
    "cluster.scalar.sim_requests": "count",
    **{f"cluster.fallback.{slug}": "count" for slug in FALLBACK_SLUGS},
    "cluster.useful_ratio": "ratio",
    "cluster.retries": "count",
    "cluster.hedges": "count",
    "cluster.shed": "count",
    "obs.export.self_s": "s",
    "obs.export.spans": "count",
    "obs.export.bytes": "B",
    "perf.parallel.pmap.self_s": "s",
    "op.self_s": "s",
    "paper.cells_in_band": "count",
    "paper.mean_abs_delta_pp": "pp",
    "host.probe_s": "s",
    "host.raw_run_s": "s",
    "host.raw_setup_s": "s",
    "bench.trace_overhead": "ratio",
}


class Run:
    """One benchmark run: its steps, samples, failures and manifest."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = ROOT / ".e2ebench-runs" / (
            f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}-{time.time_ns()}")
        self.dir.mkdir(parents=True)
        self.started = time.monotonic()
        self.steps = 0
        self.setups: List[dict] = []
        self.ops: List[dict] = []
        self.failures: List[dict] = []
        self.first_digests: Dict[str, str] = {}
        golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
        self.golden = golden[workload] if seed == DEFAULT_SEED else None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, mode: str, traced: bool = False) -> Optional[dict]:
        """Run one worker to completion, probing the host while it runs;
        the worker's result, or None on failure."""
        self.steps += 1
        name = f"{mode}{self.steps:03d}"
        work_dir = self.dir / name
        task = {
            "workload": self.workload, "seed": self.seed, "mode": mode,
            "trace": traced, "inputs_dir": str(self.dir / "inputs"),
            "work_dir": str(work_dir),
            "result_path": str(self.dir / f"{name}.json"),
            "spans_path": str(self.dir / f"{name}-spans.jsonl"),
        }
        env = dict(os.environ, REPRO_CACHE_DIR=str(work_dir / "cache"))
        deadline = self.started + RUN_BUDGET_S + 10.0
        stderr_path = self.dir / f"{name}.stderr"
        probes: List[tuple] = []  # (monotonic time at the probe's end, CPU s)
        with open(stderr_path, "wb") as stderr:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(task)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr)
            code = None
            try:
                while time.monotonic() < deadline:
                    try:
                        code = proc.wait(timeout=hostspeed.PROBE_INTERVAL_S)
                        break
                    except subprocess.TimeoutExpired:
                        cpu_s = hostspeed.probe()
                        probes.append((time.monotonic(), cpu_s))
            finally:
                if code is None:  # over the budget, or the runner is stopping
                    proc.kill()
                    proc.wait()
            ended = time.monotonic()
        shutil.rmtree(work_dir, ignore_errors=True)
        result_path = Path(task["result_path"])
        result = None
        if result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
            result_path.unlink()
        if code is None:
            return self.fail(name, f"timed out after {ended - started:.0f} s")
        if code != 0 or result is None or not result.get("ok"):
            tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            detail = (result or {}).get("error") or tail
            return self.fail(name, f"exit code {code}: {detail}")
        stderr_path.unlink()
        if not probes:  # a step shorter than one probe interval
            probes.append((time.monotonic(), hostspeed.probe()))
        samples = [cpu_s for _, cpu_s in probes]
        result.update(step=name, traced=traced, raw_s=ended - started,
                      probes=samples)
        result["scaled_s"] = hostspeed.scale(result["raw_s"], samples)
        result["factor"] = result["scaled_s"] / result["raw_s"]
        if mode == "setup":
            ready = result["t_ready"]
            result["raw_setup_s"] = ready - started
            before = [cpu_s for at, cpu_s in probes if at <= ready] or samples[:1]
            result["setup_s"] = hostspeed.scale(result["raw_setup_s"], before)
        return result

    def fail(self, step: str, reason: str) -> None:
        self.failures.append({"step": step, "reason": reason})
        return None

    def check_op(self, result: dict) -> None:
        reasons = list(result.get("checks", []))
        for name, value in sorted(result.get("digests", {}).items()):
            first = self.first_digests.setdefault(name, value)
            if value != first:
                reasons.append(f"digest {name} {value} differs from this run's first {first}")
            if self.golden is not None and self.golden.get(name) != value:
                reasons.append(f"digest {name} {value} != golden {self.golden.get(name)}")
        layers = result.get("layers")
        if layers is not None:
            self_sum = sum(entry["self_s"] for entry in layers.values())
            if self_sum > result["raw_s"]:
                reasons.append(f"layer self times {self_sum:.3f} s exceed the "
                               f"operation's {result['raw_s']:.3f} s")
        if reasons:
            self.fail(result["step"], "; ".join(reasons))

    def op(self, traced: bool) -> None:
        """One operation; it is timed even when its outputs fail a check
        (the run then reports ``correct: false``)."""
        result = self.spawn("op", traced)
        if result is not None:
            self.check_op(result)
            self.ops.append(result)

    def setup(self) -> None:
        result = self.spawn("setup")
        if result is not None:
            self.setups.append(result)

    def more(self, ops: int = 1) -> bool:
        """Start ``ops`` more operations?  Only while most of their time
        falls inside ``--seconds`` and all of it inside the run budget."""
        if len(self.failures) >= MAX_FAILURES:
            return False
        if not self.ops:
            return True
        longest = max(r["raw_s"] for r in self.ops)
        return (self.elapsed() + ops * longest / 2 < self.seconds
                and self.elapsed() + 1.2 * ops * longest < RUN_BUDGET_S)

    def execute(self) -> None:
        if self.spawn("prepare") is None:
            return
        setups = TRACE_SETUPS if self.trace else MIN_SETUPS
        # Set-up samples alternate with operations, so both are spread
        # over the whole run; any still missing are taken at the end.
        while self.more(2 if self.trace else 1):
            if len(self.setups) < setups:
                self.setup()
            for traced in ((True, False) if self.trace else (False,)):
                self.op(traced)
        while (len(self.failures) < MAX_FAILURES and len(self.setups) < setups
               and self.elapsed() < RUN_BUDGET_S):
            self.setup()

    # -- reporting ---------------------------------------------------------

    def attempted(self) -> int:
        checked = {failure["step"] for failure in self.failures}
        return (len(self.setups) + len(self.failures)
                + sum(1 for r in self.ops if r["step"] not in checked))

    def end_to_end(self) -> Dict[str, float]:
        ops = [r for r in self.ops if not r["traced"]]
        return {
            "run_s": statistics.median([r["scaled_s"] for r in ops]),
            "setup_s": statistics.median([r["setup_s"] for r in self.setups]),
            "sim_requests_per_s": statistics.median(
                [r["sim_requests"] / r["scaled_s"] for r in ops]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in ops]),
        }

    def per_layer(self) -> Dict[str, float]:
        traced = [r for r in self.ops if r["traced"]]
        plain = [r for r in self.ops if not r["traced"]]
        per_op = [layer_metrics(r["layers"], r["factor"]) for r in traced]
        metrics = {key: statistics.median([m[key] for m in per_op]) for key in per_op[0]}
        metrics["process.import_s"] = statistics.median(
            [r["import_s"] * r["factor"] for r in self.setups + self.ops])
        paper = traced[0].get("paper", {})
        metrics["paper.cells_in_band"] = paper.get("cells_in_band", 0)
        metrics["paper.mean_abs_delta_pp"] = paper.get("mean_abs_delta_pp", 0.0)
        metrics["host.probe_s"] = statistics.median(
            [cpu_s for r in self.setups + self.ops for cpu_s in r["probes"]])
        metrics["host.raw_run_s"] = statistics.median([r["raw_s"] for r in plain])
        metrics["host.raw_setup_s"] = statistics.median([r["raw_setup_s"] for r in self.setups])
        metrics["bench.trace_overhead"] = (statistics.median([r["scaled_s"] for r in traced])
                                           / statistics.median([r["scaled_s"] for r in plain]))
        return metrics

    def manifest(self, metrics: Dict[str, float]) -> dict:
        def timing(r, raw_key, scaled_key):
            return {"step": r["step"], "raw_s": r[raw_key], "scaled_s": r[scaled_key],
                    "import_s": r["import_s"], "probe_samples_s": r["probes"]}

        engines = self.ops[0].get("engines", []) if self.ops else []
        return {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace,
            "python": sys.version, "platform": platform.platform(),
            "numpy": numpy_version(), "git_revision": git_revision(),
            "reference_probe_s": hostspeed.REFERENCE_PROBE_S,
            "setups": [timing(r, "raw_setup_s", "setup_s") for r in self.setups],
            "ops": [dict(timing(r, "raw_s", "scaled_s"), traced=r["traced"],
                         sim_requests=r["sim_requests"], peak_rss_mb=r["peak_rss_mb"],
                         digests=r.get("digests", {}), paper=r.get("paper"),
                         layers=r.get("layers"))
                    for r in self.ops],
            "engines": engines,
            "failures": self.failures,
            "metrics": metrics,
            "wall_s": self.elapsed(),
        }


def layer_metrics(layers: Dict[str, Dict[str, float]], factor: float) -> Dict[str, float]:
    """One traced operation's per-layer numbers; self times times the
    operation's reference-speed ``factor``."""
    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def self_s(name):
        return get(name, "self_s") * factor

    clusters = [entry for name, entry in layers.items() if name.startswith("cluster.")]

    def cluster_sum(key):
        return sum(entry.get(key, 0) for entry in clusters)

    attempts = cluster_sum("attempts")
    metrics = {
        "workloads.make_workload.calls": get("workloads.make_workload", "calls"),
        "workloads.make_workload.self_s": self_s("workloads.make_workload"),
        "simulator.sweep.evaluations": get("simulator.sweep", "evaluations"),
        "simulator.sweep.self_s": self_s("simulator.sweep"),
        "memsim.self_s": self_s("memsim"),
        "scenario.compile.self_s": self_s("scenario.compile"),
        "scenario.compile.runs_planned": get("scenario.compile", "runs_planned"),
        "cluster.useful_ratio": cluster_sum("useful") / attempts if attempts else 0.0,
        "cluster.retries": cluster_sum("retries"),
        "cluster.hedges": cluster_sum("hedges"),
        "cluster.shed": cluster_sum("shed"),
        "obs.export.self_s": self_s("obs.export"),
        "obs.export.spans": get("obs.export", "spans"),
        "obs.export.bytes": get("obs.export", "bytes"),
        "perf.parallel.pmap.self_s": self_s("perf.parallel.pmap"),
        "op.self_s": self_s("op"),
    }
    for name in ("simulator.server_sim", "cluster.cohort", "cluster.scalar"):
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.self_s"] = self_s(name)
        metrics[f"{name}.sim_requests"] = get(name, "sim_requests")
    for slug in FALLBACK_SLUGS:
        metrics[f"cluster.fallback.{slug}"] = cluster_sum(f"fallback.{slug}")
    return metrics


def numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def git_revision() -> Optional[str]:
    """HEAD of the checkout read from ``.git`` (None outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 1 or args.seconds < 1:
        parser.error("--seed and --seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    # Runner and worker share one CPU, so the probes see the host speed
    # the worker runs at (``hostspeed.py``).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    metrics: Dict[str, float] = {}
    wanted_traced = {True, False} if run.trace else {False}
    if run.setups and wanted_traced <= {r["traced"] for r in run.ops}:
        metrics = run.per_layer() if run.trace else run.end_to_end()
    (run.dir / "manifest.json").write_text(
        json.dumps(run.manifest(metrics), indent=2) + "\n", encoding="utf-8")

    for failure in run.failures:
        print(f"FAILED {failure['step']}: {failure['reason']}", file=sys.stderr)
    paper = next((r["paper"] for r in run.ops if r.get("paper")), None)
    if paper:
        print(f"paper-validation: {paper['cells_in_band']}/{paper['cells']} cells within "
              f"+/-{worker.PAPER_BAND * 100:.0f}pp of the paper; mean absolute delta "
              f"{paper['mean_abs_delta_pp']:.1f}pp")
    engines = Counter(
        (e["scenario"], e["engine_used"], e["fallback_reason"] or "-")
        for e in (run.ops[0].get("engines", []) if run.ops else []))
    for (scenario, engine, reason), count in sorted(engines.items()):
        print(f"engine {scenario}: {count} runs on {engine} (fallback: {reason})")
    if not metrics:
        print("error: no complete measurement; see the manifest in "
              f"{run.dir}", file=sys.stderr)
        return 1
    units = PER_LAYER if run.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"manifest: {run.dir / 'manifest.json'}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted(),
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
