"""One benchmark step in a fresh interpreter, driven by ``run.py``.

Usage: ``python3 e2ebench/worker.py TASK_JSON`` where the task names the
workload, the seed, the mode and the files to use:

- ``prepare`` writes the run's input specs (scenario seed from ``--seed``);
- ``setup`` imports the program, loads the inputs and compiles them, then
  reports the moment it was ready and exits -- a set-up-only sample;
- ``op`` does what a user's CLI command does, checks the outputs and
  reports digests, counts and (when traced) per-layer spans.

The worker calls only public CLIs and functions of ``repro``; tracing
wraps them from the outside (``spans.py``).  Its result is one JSON file.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import canonical  # noqa: E402  (benchmark-local modules beside this file)
import spans  # noqa: E402

#: Library scenarios each workload runs; a run's scenario seed is the
#: library seed shifted by ``--seed - 1``, so seed 1 is the shipped spec.
SCENARIOS = {
    "diurnal-day": ["multirack-diurnal"],
    "serving-stress": ["ext8-availability", "ext10-overload", "ext11-trace-attribution"],
}

#: Compared cells in the validation report (Figure 2(c) x4, Figure 4(b),
#: Table 3(b), Figure 5) and the band of its "overall" summary line.
PAPER_CELLS = 146
PAPER_BAND = 0.25

#: ``cohort_supported`` reasons -> metric slug (first keyword that matches).
FALLBACK_SLUGS = (
    ("closed-loop", "closed_loop"),
    ("tracer", "tracer"),
    ("remote memory", "remote_memory"),
    ("stochastic fault", "faults"),
    ("scripted", "scripted_failures"),
    ("redundancy", "redundancy"),
    ("maintenance", "maintenance"),
    ("disk model", "disk_model"),
)


def fallback_slug(reason: str) -> str:
    for keyword, slug in FALLBACK_SLUGS:
        if keyword in reason:
            return slug
    return "other"


def spec_paths(task) -> list:
    return [str(Path(task["inputs_dir"]) / f"{name}.json")
            for name in SCENARIOS.get(task["workload"], [])]


def prepare(task) -> None:
    import compileall
    import dataclasses

    from repro.scenario.library import library_scenario
    from repro.scenario.loader import save_scenario

    # Byte-compile the program once so no timed step pays for it.
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
    Path(task["inputs_dir"]).mkdir(parents=True, exist_ok=True)
    for name, path in zip(SCENARIOS.get(task["workload"], []), spec_paths(task)):
        scenario = library_scenario(name)
        seed = scenario.seed + task["seed"] - 1
        save_scenario(dataclasses.replace(scenario, seed=seed), path)


class Capture:
    """Counting hooks every op needs, traced or not, plus the spans."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.des_requests = 0
        self.scenario_results = []

    def install(self, workload: str) -> None:
        rec = self.recorder
        if workload == "paper-validation":
            import inspect

            from repro.simulator.server_sim import ServerSimulator

            init, run = ServerSimulator.__init__, ServerSimulator.run
            signature = inspect.signature(init)

            def init_hook(sim, *args, **kwargs):
                init(sim, *args, **kwargs)
                bound = signature.bind(sim, *args, **kwargs)
                bound.apply_defaults()
                config = bound.arguments["config"]
                sim.e2ebench_requests = config.warmup_requests + config.measure_requests

            def run_hook(sim):
                span = rec.begin("simulator.server_sim") if rec else None
                try:
                    result = run(sim)
                finally:
                    if span is not None:
                        rec.end(span)
                requests = sim.e2ebench_requests
                self.des_requests += requests
                if span is not None:
                    span.counts["sim_requests"] = requests
                return result

            ServerSimulator.__init__ = init_hook
            ServerSimulator.run = run_hook
        else:
            from repro.scenario.compiler import CompiledScenario

            execute = CompiledScenario.execute

            def execute_hook(compiled, *args, **kwargs):
                result = execute(compiled, *args, **kwargs)
                self.scenario_results.append((compiled, result))
                return result

            CompiledScenario.execute = execute_hook
        if rec is not None:
            install_spans(rec)


def _count(name, fn):
    def annotate(span, args, kwargs, result):
        span.counts[name] = fn(args, result)
    return annotate


def install_spans(rec) -> None:
    """Wrap each layer's public entry points in spans (traced runs only)."""
    import repro.memsim.remote_memory  # noqa: F401  (imported lazily by callers)
    import repro.memsim.twolevel as twolevel
    import repro.obs.export  # noqa: F401
    import repro.perf.parallel  # noqa: F401
    import repro.scenario.compiler  # noqa: F401
    import repro.workloads.suite  # noqa: F401
    from repro.cluster.balancer import ClusterSimulator
    from repro.simulator.sweep import QosSweep

    def wrap(name, annotate=None, rename=None):
        return lambda fn: spans.traced(rec, name, fn, annotate, rename)

    spans.patch_function("repro.workloads.suite", "make_workload",
                         wrap("workloads.make_workload"))
    spans.patch_method(QosSweep, "find_peak", wrap(
        "simulator.sweep",
        _count("evaluations", lambda args, result: result.evaluations)))
    memsim = wrap("memsim")
    spans.patch_method(twolevel.TwoLevelMemorySimulator, "run", memsim)
    for attr in ("lru_miss_curve", "lru_fraction_sweep", "measured_slowdown"):
        spans.patch_function("repro.memsim.twolevel", attr, memsim)
    spans.patch_function("repro.memsim.remote_memory", "make_remote_memory_model", memsim)
    spans.patch_function("repro.scenario.compiler", "compile_scenario", wrap(
        "scenario.compile",
        _count("runs_planned", lambda args, result: len(result.plans))))
    spans.patch_method(ClusterSimulator, "run", wrap(
        "cluster", annotate=annotate_cluster,
        rename=lambda args, result: f"cluster.{args[0].engine_used}"))
    spans.patch_function("repro.perf.parallel", "pmap", wrap("perf.parallel.pmap"))
    spans.patch_function("repro.obs.export", "write_spans_jsonl",
                         wrap("obs.export", annotate_export))
    spans.patch_function("repro.obs.export", "write_chrome_trace",
                         wrap("obs.export", annotate_export))


def annotate_export(span, args, kwargs, result) -> None:
    span.counts["bytes"] = os.path.getsize(result)
    if result.endswith(".jsonl"):
        span.counts["spans"] = sum(
            len(trace.spans) for _, traces in args[0] for trace in traces)


def annotate_cluster(span, args, kwargs, result) -> None:
    sim = args[0]
    completions = sum(result.server_completions)
    counts = span.counts
    counts["sim_requests"] = completions
    if sim.fallback_reason:
        counts["fallback." + fallback_slug(sim.fallback_reason)] = 1
    faults, overload = result.fault_report, result.overload_report
    wasted = faults.wasted_completions if faults else 0
    timeouts = faults.timeouts if faults else 0
    shed = overload.total_shed if overload else 0
    counts["retries"] = faults.retries if faults else 0
    counts["hedges"] = faults.hedges if faults else 0
    counts["shed"] = shed
    counts["useful"] = completions - wasted
    counts["attempts"] = completions + timeouts + shed


def run_validation(task, capture) -> dict:
    from repro.perf.cache import ResultCache
    from repro.perf.parallel import run_experiments, set_intra_jobs
    from repro.simulator.server_sim import SimConfig

    set_intra_jobs(1)
    cache = ResultCache(Path(task["work_dir"]) / "cache")
    overrides = {"validation": {"config": SimConfig(seed=task["seed"])}}
    [(_, result)] = run_experiments(["validation"], jobs=1, cache=cache,
                                    overrides=overrides)
    print(result.render())
    deltas = [d for block in result.data.values() for d in block]
    in_band = sum(1 for d in deltas if d.within(PAPER_BAND))
    mean_abs_pp = sum(abs(d.absolute_delta) for d in deltas) / len(deltas) * 100.0
    checks = []
    if len(deltas) != PAPER_CELLS:
        checks.append(f"validation compared {len(deltas)} cells, expected {PAPER_CELLS}")
    return {
        "checks": checks,
        "digests": {"validation": canonical.digest(canonical.validation_fields(result))},
        "sim_requests": capture.des_requests,
        "paper": {"cells": len(deltas), "cells_in_band": in_band,
                  "mean_abs_delta_pp": mean_abs_pp},
    }


def run_scenarios(task, capture) -> dict:
    from repro.obs.export import validate_chrome_trace
    from repro.scenario.cli import main as scenario_cli

    checks, digests, engines = [], {}, []
    traces_written = 0
    for index, spec in enumerate(spec_paths(task)):
        out = Path(task["work_dir"]) / f"out{index}"
        before = len(capture.scenario_results)
        code = scenario_cli(["run", spec, "--jobs", "1", "--output", str(out)])
        if code != 0 or len(capture.scenario_results) != before + 1:
            checks.append(f"{spec}: repro-scenario run exited {code}")
            continue
        compiled, result = capture.scenario_results[-1]
        name = result.scenario_name
        digests[name] = canonical.digest(canonical.scenario_fields(result))
        for r in result.runs:
            engines.append({"scenario": name, "run_id": r.run_id,
                            "engine_used": r.engine_used,
                            "fallback_reason": r.fallback_reason})
            if not (r.throughput_rps > 0 and sum(r.result.server_completions) > 0):
                checks.append(f"{name}/{r.run_id}: served no requests")
        written = json.loads((out / "result.json").read_text(encoding="utf-8"))
        if not len(written["runs"]) == len(result.runs) == len(compiled.plans):
            checks.append(f"{name}: result.json has {len(written['runs'])} runs, "
                          f"{len(compiled.plans)} planned")
        if any(r.tracer is not None and r.tracer.traces for r in result.runs):
            trace_path = out / "trace.json"
            if not (out / "spans.jsonl").exists() or not trace_path.exists():
                checks.append(f"{name}: traced runs but no span exports")
            else:
                problems = validate_chrome_trace(
                    json.loads(trace_path.read_text(encoding="utf-8")))
                checks.extend(f"{name}: trace.json: {p}" for p in problems[:5])
                traces_written += 1
    if task["workload"] == "serving-stress" and traces_written == 0:
        checks.append("serving-stress wrote no trace.json")
    sim_requests = sum(sum(r.result.server_completions)
                       for _, result in capture.scenario_results for r in result.runs)
    return {"checks": checks, "digests": digests, "engines": engines,
            "sim_requests": sim_requests}


def import_program(workload: str) -> None:
    """The imports the workload's CLI performs before doing any work."""
    if workload == "paper-validation":
        import repro.experiments.runner  # noqa: F401
        import repro.perf.cache  # noqa: F401
    else:
        import repro.scenario.cli  # noqa: F401
        import repro.scenario.compiler  # noqa: F401
        import repro.scenario.loader  # noqa: F401


def setup(task) -> None:
    """A set-up-only sample: imports, input load and compile."""
    if task["workload"] == "paper-validation":
        from repro.simulator.server_sim import SimConfig

        SimConfig(seed=task["seed"])
        return
    from repro.scenario.compiler import compile_scenario
    from repro.scenario.loader import load_scenario

    for path in spec_paths(task):
        compile_scenario(load_scenario(path))


def main(argv) -> int:
    task = json.loads(argv[1])
    out: dict = {"ok": False}
    try:
        if task["mode"] == "prepare":
            prepare(task)
        else:
            started = time.monotonic()
            import_program(task["workload"])
            out["import_s"] = time.monotonic() - started
            if task["mode"] == "setup":
                setup(task)
                out["t_ready"] = time.monotonic()
            else:
                out.update(operation(task))
        out["ok"] = True
    except Exception:  # report any failure of the program to the runner
        out["error"] = traceback.format_exc()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(task["result_path"]).write_text(json.dumps(out), encoding="utf-8")
    return 0 if out["ok"] else 1


def operation(task) -> dict:
    recorder = spans.Recorder() if task["trace"] else None
    capture = Capture(recorder)
    capture.install(task["workload"])
    Path(task["work_dir"]).mkdir(parents=True, exist_ok=True)
    root = recorder.begin("op") if recorder else None
    try:
        if task["workload"] == "paper-validation":
            out = run_validation(task, capture)
        else:
            out = run_scenarios(task, capture)
    finally:
        if root is not None:
            recorder.end(root)
    if recorder is not None:
        recorder.write_jsonl(task["spans_path"])
        out["layers"] = spans.layer_totals(recorder.spans)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv))
