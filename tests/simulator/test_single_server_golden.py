"""Golden pin of the single-server engine's results.

Each case is one :class:`ServerSimulator` run, closed loop or open loop.
Its :class:`SimResult` is encoded as text, one ``name value`` line per
field in a fixed order, with floats as their exact ``repr``.  The stored
values in ``data/single_server_golden.txt`` were captured from the
separate closed-loop and open-loop engines before they were merged into
one class, so any change to the draw order, the event order or the
measurement window of either arrival mode shows up here as a mismatch.

To re-pin after a deliberate change of the engine's results, run this
file as a script (``PYTHONPATH=src python tests/simulator/
test_single_server_golden.py``) and say why in the change log.
"""

import os
import warnings

import pytest

from repro.flashcache.models import FlashCachedDiskModel, RemoteSanDiskModel
from repro.platforms.catalog import platform
from repro.platforms.storage import LAPTOP_DISK
from repro.simulator import ServerSimulator, SimConfig
from repro.workloads.suite import make_workload

DATA = os.path.join(os.path.dirname(__file__), "data", "single_server_golden.txt")
FORMAT = "single-server-golden v1"

#: Scalar ``SimResult`` fields, in encoding order.
FIELDS = (
    "throughput_rps",
    "mean_response_ms",
    "qos_percentile_ms",
    "qos_met",
    "population",
    "measured_requests",
    "dropped_requests",
    "drop_rate",
)
#: Utilization keys, in encoding order.
RESOURCES = ("cpu", "mem", "disk", "nic")


def _flash_webmail():
    return FlashCachedDiskModel(RemoteSanDiskModel(LAPTOP_DISK), "webmail")


#: name -> (platform, workload, seed, ServerSimulator keywords, warns).
#: ``disk_model`` is given as a factory: a flash cache carries state.
CASES = {
    "closed-srvr1-websearch-p16": (
        "srvr1", "websearch", 3, {"population": 16}, False),
    "closed-emb1-webmail": ("emb1", "webmail", 4, {}, False),
    "closed-desk-ytube": ("desk", "ytube", 5, {}, False),
    "closed-desk-webmail-flash": (
        "desk", "webmail", 6, {"disk_model": _flash_webmail}, False),
    "open-desk-websearch-12rps": (
        "desk", "websearch", 7, {"arrival_rate_rps": 12.0}, False),
    "open-desk-websearch-28rps": (
        "desk", "websearch", 8, {"arrival_rate_rps": 28.0}, False),
    "open-srvr1-webmail-slowdown": (
        "srvr1", "webmail", 9,
        {"arrival_rate_rps": 50.0, "memory_slowdown": 1.2}, False),
    "open-desk-webmail-cap-overload": (
        "desk", "webmail", 10,
        {"arrival_rate_rps": 60.0, "queue_cap": 6}, True),
    "open-desk-webmail-cap-moderate": (
        "desk", "webmail", 11,
        {"arrival_rate_rps": 18.0, "queue_cap": 3}, False),
}


def run_case(name):
    """Run one golden case; returns its ``SimResult``."""
    system, bench, seed, kwargs, _ = CASES[name]
    kwargs = dict(kwargs)
    if "disk_model" in kwargs:
        kwargs["disk_model"] = kwargs["disk_model"]()
    config = SimConfig(warmup_requests=200, measure_requests=1500, seed=seed)
    return ServerSimulator(
        platform(system), make_workload(bench), config=config, **kwargs
    ).run()


def encode(result):
    """Fixed-order text lines for one result (floats as exact ``repr``)."""
    assert tuple(sorted(result.utilization)) == tuple(sorted(RESOURCES))
    lines = [f"{field} {getattr(result, field)!r}" for field in FIELDS]
    lines += [f"utilization.{r} {result.utilization[r]!r}" for r in RESOURCES]
    return lines


def render(results):
    """The whole data file for ``{case name: SimResult}``."""
    lines = [FORMAT]
    for name in CASES:
        lines.append(f"[{name}]")
        lines.extend(encode(results[name]))
    return "\n".join(lines) + "\n"


def _load():
    with open(DATA) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == FORMAT
    pinned, name = {}, None
    for line in lines[1:]:
        if line.startswith("["):
            name = line[1:-1]
            pinned[name] = []
        else:
            pinned[name].append(line)
    return pinned


def _run_quietly(name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_case(name)
    warned = any(issubclass(w.category, RuntimeWarning) for w in caught)
    return result, warned


def test_every_case_is_pinned():
    assert list(_load()) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_result_matches_pin(name):
    result, warned = _run_quietly(name)
    assert encode(result) == _load()[name]
    assert warned == CASES[name][4]


if __name__ == "__main__":
    results = {name: _run_quietly(name)[0] for name in CASES}
    with open(DATA, "w") as handle:
        handle.write(render(results))
    print(f"wrote {len(results)} cases to {DATA}")
