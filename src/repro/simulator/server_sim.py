"""Single-server simulation, closed loop or open loop.

One server model with two arrival processes:

- *Closed loop* (the default, the paper's client driver of section 2.1):
  ``population`` clients each loop: think (exponential), issue one
  request, wait for its response, repeat.  This answers "what is the
  peak?" (:mod:`repro.simulator.sweep`).
- *Open loop* (``arrival_rate_rps``): requests arrive in a Poisson
  stream regardless of completions, the regime of a production service
  below saturation.  This answers "what is the latency at a given
  load?" and, with deterministic single-station workloads, validates the
  DES against the M/D/1, M/M/1 and M/M/1/K closed forms
  (``tests/simulator/test_openloop.py``, ``test_queueing.py``).  With
  ``queue_cap`` the server holds at most that many requests (in service
  plus waiting); excess arrivals are dropped and counted in
  ``SimResult.dropped_requests``/``drop_rate``.  Without a cap, a load
  beyond capacity grows the queue without bound and the run fails
  loudly; with a cap the run always completes, so a ``RuntimeWarning``
  is emitted instead when more than half the measured arrivals were
  dropped (the latency figures then describe only the admitted
  minority).

A request visits the server's resources in order -- CPU cores, memory
channels, disk, NIC -- with service times derived from the request's
platform-independent demand through the
:class:`~repro.platforms.platform.Platform` model.

Measurement uses a completion-count protocol: the first
``warmup_requests`` completions are discarded, the next
``measure_requests`` completions define the measurement window, and
throughput is completions divided by window duration.  Response times of
requests completing inside the window feed the QoS tracker.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Protocol

from repro.obs.span import SpanKind
from repro.obs.tracer import record_stage, record_stage_parts
from repro.perf.variates import exponential_sampler
from repro.platforms.platform import Platform
from repro.simulator.engine import Simulation
from repro.simulator.resources import Resource
from repro.workloads.base import ResourceDemand, Workload
from repro.workloads.qos import QosTracker


class DiskModel(Protocol):
    """Strategy for turning a request's disk demand into service time.

    The default uses the platform's disk device directly; the flash-cache
    experiments (paper section 3.5) substitute a model that consults the
    flash cache first.
    """

    def service_ms(self, demand: ResourceDemand, rng: random.Random) -> float:
        """Disk service time for one request."""
        ...  # pragma: no cover - protocol


class PlatformDiskModel:
    """Default disk model: every I/O goes to the platform's disk."""

    def __init__(self, platform: Platform):
        self._platform = platform

    def service_ms(self, demand: ResourceDemand, rng: random.Random) -> float:
        return self._platform.disk_time_ms(
            demand.disk_ios, demand.disk_bytes, write=demand.disk_write
        )

    def service_components(self, demand: ResourceDemand, rng: random.Random):
        """Typed breakdown of :meth:`service_ms` (identical RNG draws)."""
        return [("disk", "disk", self.service_ms(demand, rng))]


@dataclass(frozen=True)
class SimConfig:
    """Measurement-protocol parameters."""

    warmup_requests: int = 300
    measure_requests: int = 2500
    seed: int = 1

    def __post_init__(self) -> None:
        if self.warmup_requests < 0 or self.measure_requests <= 0:
            raise ValueError("invalid request counts")


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    throughput_rps: float
    mean_response_ms: float
    qos_percentile_ms: float
    qos_met: bool
    utilization: Dict[str, float]
    population: int
    measured_requests: int
    #: Arrivals rejected by a finite queue cap during the measurement
    #: window (open-loop runs with ``queue_cap`` only).
    dropped_requests: int = 0
    #: Fraction of measurement-window arrivals rejected by the cap.
    drop_rate: float = 0.0

    def describe(self) -> str:
        flags = "" if self.qos_met else " [QoS violated]"
        return (
            f"{self.throughput_rps:.2f} req/s, mean {self.mean_response_ms:.1f} ms,"
            f" p95 {self.qos_percentile_ms:.1f} ms{flags}"
        )


class ServerSimulator:
    """Simulates one server of ``platform`` running ``workload``.

    Closed loop by default.  ``arrival_rate_rps`` replaces the client
    population with Poisson arrivals at that rate, optionally into a
    loss system holding at most ``queue_cap`` requests.
    """

    def __init__(
        self,
        platform: Platform,
        workload: Workload,
        population: Optional[int] = None,
        config: SimConfig = SimConfig(),
        disk_model: Optional[DiskModel] = None,
        memory_slowdown: float = 1.0,
        tracer=None,
        metrics=None,
        *,
        arrival_rate_rps: Optional[float] = None,
        queue_cap: Optional[int] = None,
    ):
        if population is not None and population <= 0:
            raise ValueError("population must be positive")
        if memory_slowdown < 1.0:
            raise ValueError("memory_slowdown is a multiplier >= 1.0")
        if arrival_rate_rps is not None:
            if population is not None:
                raise ValueError(
                    "population (closed loop) and arrival_rate_rps "
                    "(open loop) are exclusive"
                )
            if arrival_rate_rps <= 0:
                raise ValueError("arrival rate must be positive")
        elif queue_cap is not None:
            raise ValueError("queue_cap needs an open-loop arrival_rate_rps")
        if queue_cap is not None and queue_cap < 1:
            raise ValueError("queue_cap must be positive (or None)")
        self._platform = platform
        self._workload = workload
        self._profile = workload.profile
        #: Poisson arrivals per ms in open loop, ``None`` in closed loop.
        self._rate_per_ms = (
            None if arrival_rate_rps is None else arrival_rate_rps / 1000.0
        )
        self._queue_cap = queue_cap
        if arrival_rate_rps is not None:
            self._population = 0
        elif population is not None:
            self._population = population
        else:
            self._population = self._profile.population.population(
                platform.cpu.total_cores
            )
        self._config = config
        self._disk_model = disk_model or PlatformDiskModel(platform)
        #: Uniform CPU-time multiplier modelling remote-memory paging
        #: overhead (paper section 3.4's "2% slowdown" style adjustments).
        self._memory_slowdown = memory_slowdown
        #: Optional :class:`repro.obs.Tracer`; sampling decisions are a
        #: pure hash of the request sequence number, so traced runs
        #: consume the same RNG stream as untraced ones.
        self._tracer = tracer
        #: Optional :class:`repro.obs.MetricsRegistry` for labeled
        #: counters/histograms alongside the scalar ``SimResult``.
        self._metrics = metrics

    @property
    def population(self) -> int:
        """Closed-loop client count (0 for an open-loop run)."""
        return self._population

    def run(self) -> SimResult:
        """Execute the simulation and return measurements."""
        sim = Simulation()
        rng = random.Random(self._config.seed)
        # Stream-identical fast path for rng.expovariate (same values,
        # same generator state, no per-draw method dispatch).  Think
        # times, arrivals and workload samples share this generator, so
        # the order of the draws is part of every result.
        sample_exp = exponential_sampler(rng)
        platform = self._platform
        profile = self._profile
        tracer = self._tracer
        metrics = self._metrics
        rate_per_ms = self._rate_per_ms
        queue_cap = self._queue_cap
        # Request sequence number: the tracer's sampling key.  Only
        # maintained when tracing -- the untraced path is untouched.
        rid = [0]

        cpu = Resource(sim, "cpu", platform.cpu.total_cores)
        mem = Resource(sim, "mem", platform.memory.channels)
        disk = Resource(sim, "disk", 1)
        nic = Resource(sim, "nic", 1)

        warmup = self._config.warmup_requests
        measure = self._config.measure_requests
        state = _MeasureState(warmup=warmup, target=measure)
        #: Open-loop in-flight bound: queues past this mean the offered
        #: load exceeds capacity and latencies are meaningless -- fail
        #: loudly instead.
        overload_threshold = max(2000, (warmup + measure) // 4)
        qos = QosTracker(profile.qos) if profile.qos else None
        responses: list = []
        busy_at_start: Dict[str, float] = {r.name: 0.0 for r in (cpu, mem, disk, nic)}

        def client_loop() -> None:
            if state.done:
                return
            think = (
                sample_exp(1.0 / profile.think_time_ms)
                if profile.think_time_ms > 0
                else 0.0
            )
            sim.schedule(think, issue_request)

        def arrive() -> None:
            # Open loop.  The step order fixes the draw order on the
            # shared generator: count the arrival, apply the cap or
            # overload check, draw the next arrival, sample the request.
            if state.done:
                return
            state.arrivals += 1
            measuring = state.completions >= warmup
            if measuring:
                state.window_arrivals += 1
            # Admitted requests still in the system, this one excluded.
            in_flight = state.arrivals - state.completions - state.dropped - 1
            if queue_cap is not None and in_flight >= queue_cap:
                # Finite system: the arrival is rejected, not queued.
                state.dropped += 1
                if measuring:
                    state.window_dropped += 1
                sim.schedule(sample_exp(rate_per_ms), arrive)
                return
            if in_flight >= overload_threshold:
                state.overloaded = True
                state.done = True
                sim.stop()
                return
            sim.schedule(sample_exp(rate_per_ms), arrive)
            issue_request()

        def issue_request() -> None:
            if state.done:
                return
            request = self._workload.sample(rng)
            demand = request.demand
            start = sim.now
            if tracer is not None:
                trace = tracer.begin(rid[0], start)
                rid[0] += 1
            else:
                trace = None

            cpu_ms = (
                platform.cpu_time_ms(
                    demand.cpu_ms_ref,
                    profile.cache_sensitivity,
                    profile.inorder_ipc_factor,
                    profile.stall_fraction,
                )
                * self._memory_slowdown
            )
            mem_ms = platform.memory_channel_time_ms(demand.mem_ms_ref)
            # The typed breakdown and the plain total consume identical
            # RNG draws (service_ms delegates to service_components), so
            # asking for components only on traced requests changes
            # nothing downstream.
            disk_parts = None
            if trace is not None:
                parts_fn = getattr(self._disk_model, "service_components", None)
                if parts_fn is not None:
                    disk_parts = parts_fn(demand, rng)
                    disk_ms = sum(part[2] for part in disk_parts)
                else:
                    disk_ms = self._disk_model.service_ms(demand, rng)
            else:
                disk_ms = self._disk_model.service_ms(demand, rng)
            net_ms = platform.net_time_ms(demand.net_bytes)
            # Service-start times are recovered retroactively at each
            # stage-completion callback (service is contiguous on these
            # FCFS resources), so tracing adds no events to the heap.
            cursor = [start] if trace is not None else None
            root = trace.root if trace is not None else None

            def after_net() -> None:
                if trace is not None:
                    record_stage(
                        trace, root, cursor[0], sim.now, SpanKind.NET, net_ms
                    )
                    trace.close(sim.now)
                _complete(start)

            def after_disk() -> None:
                if trace is not None:
                    if disk_parts is not None:
                        record_stage_parts(
                            trace, root, cursor[0], sim.now, disk_parts, disk_ms
                        )
                    else:
                        record_stage(
                            trace, root, cursor[0], sim.now, SpanKind.DISK,
                            disk_ms,
                        )
                    cursor[0] = sim.now
                nic.acquire(net_ms, after_net)

            def after_mem() -> None:
                if trace is not None:
                    record_stage(
                        trace, root, cursor[0], sim.now, SpanKind.MEM, mem_ms
                    )
                    cursor[0] = sim.now
                disk.acquire(disk_ms, after_disk)

            # Fork/join: requests with software parallelism split their
            # CPU work into concurrent slices across cores (total work
            # unchanged; latency shrinks when cores are free).
            slices = max(1, min(platform.cpu.total_cores, demand.cpu_parallelism))

            def after_cpu() -> None:
                if trace is not None:
                    # With one slice the contiguous-service interval is
                    # exact; sliced requests report the last slice's
                    # share and annotate the fan-out.
                    span = record_stage(
                        trace, root, cursor[0], sim.now, SpanKind.CPU,
                        cpu_ms / slices,
                    )
                    if slices > 1:
                        span.annotate(slices=slices)
                    cursor[0] = sim.now
                mem.acquire(mem_ms, after_mem)

            if slices == 1:
                cpu.acquire(cpu_ms, after_cpu)
            else:
                join = {"remaining": slices}

                def after_slice() -> None:
                    join["remaining"] -= 1
                    if join["remaining"] == 0:
                        after_cpu()

                for _ in range(slices):
                    cpu.acquire(cpu_ms / slices, after_slice)

        def _complete(start_ms: float) -> None:
            state.completions += 1
            if state.completions == warmup:
                state.window_start = sim.now
                for resource in (cpu, mem, disk, nic):
                    busy_at_start[resource.name] = resource.stats.busy_time_ms
            elif state.completions > warmup and not state.done:
                response = sim.now - start_ms
                responses.append(response)
                if qos is not None:
                    qos.record(response)
                if metrics is not None:
                    metrics.counter("server.requests").inc()
                    metrics.histogram("server.response_ms").record(response)
                if state.completions >= warmup + measure:
                    state.done = True
                    state.window_end = sim.now
                    sim.stop()
                    return
            if rate_per_ms is None:
                client_loop()

        if rate_per_ms is None:
            for _ in range(self._population):
                client_loop()
        else:
            sim.schedule(sample_exp(rate_per_ms), arrive)
        sim.run()

        if state.overloaded or not state.done:
            if rate_per_ms is not None:
                raise RuntimeError(
                    "the server cannot sustain the offered load of "
                    f"{rate_per_ms * 1000:.1f} req/s "
                    "(in-flight requests grew without bound)"
                )
            raise RuntimeError(
                "simulation drained its event queue before the measurement "
                "window completed; increase population or request counts"
            )

        if tracer is not None:
            tracer.finalize(sim.now)

        window = max(state.window_end - state.window_start, 1e-9)
        throughput = len(responses) / (window / 1000.0)
        mean_response = sum(responses) / len(responses)
        percentile = qos.percentile_ms() if qos and qos.count else mean_response
        qos_met = qos.satisfied() if qos else True
        utilization = {
            r.name: min(
                1.0,
                (r.stats.busy_time_ms - busy_at_start[r.name]) / (r.servers * window),
            )
            for r in (cpu, mem, disk, nic)
        }
        drop_rate = (
            state.window_dropped / state.window_arrivals
            if state.window_arrivals
            else 0.0
        )

        if metrics is not None:
            metrics.gauge("server.throughput_rps").set(throughput)
            for name, value in utilization.items():
                metrics.gauge("server.utilization", resource=name).set(value)
        if drop_rate > 0.5:
            warnings.warn(
                f"offered load of {rate_per_ms * 1000:.1f} req/s is "
                f"unsustainable: the queue cap of {queue_cap} dropped "
                f"{drop_rate:.0%} of arrivals; latency figures describe only "
                "the admitted requests",
                RuntimeWarning,
                stacklevel=2,
            )

        return SimResult(
            throughput_rps=throughput,
            mean_response_ms=mean_response,
            qos_percentile_ms=percentile,
            qos_met=qos_met,
            utilization=utilization,
            population=self._population,
            measured_requests=len(responses),
            dropped_requests=state.window_dropped,
            drop_rate=drop_rate,
        )


class _MeasureState:
    """Mutable counters shared by the simulation callbacks (slotted)."""

    __slots__ = ("warmup", "target", "completions", "window_start",
                 "window_end", "done", "arrivals", "dropped",
                 "window_arrivals", "window_dropped", "overloaded")

    def __init__(self, warmup: int, target: int):
        self.warmup = warmup
        self.target = target
        self.completions = 0
        self.window_start = 0.0
        self.window_end = 0.0
        self.done = False
        # Open-loop arrival accounting (unused in closed loop).
        self.arrivals = 0
        self.dropped = 0
        self.window_arrivals = 0
        self.window_dropped = 0
        self.overloaded = False
