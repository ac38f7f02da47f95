"""Canonical output digests built only from public result fields.

The program's own ``stream_digest``/payload hashes pickle whole result
objects, so they change whenever a class gains a field or an engine is
refactored.  The digests here encode a fixed list of public fields as
text -- strings JSON-quoted, integers in decimal, floats as their exact
``repr`` -- one ``path=value`` line each, in the order given, under a
version tag.  Two results hash equal exactly when those fields are equal.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Tuple

VERSION = "e2ebench-canonical-v1"


def encode_value(value: Any) -> str:
    # bool before int: ``True`` is an ``int`` too.
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, str):
        return "s:" + json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(encode_value(v) for v in value) + "]"
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def encode(fields: Iterable[Tuple[str, Any]]) -> str:
    lines = [VERSION]
    for path, value in fields:
        lines.append(f"{path}={encode_value(value)}")
    return "\n".join(lines) + "\n"


def digest(fields: Iterable[Tuple[str, Any]]) -> str:
    return hashlib.sha256(encode(fields).encode("utf-8")).hexdigest()


def validation_fields(result) -> Iterable[Tuple[str, Any]]:
    """``repro-experiments validation``: every compared cell, in order."""
    for block, deltas in result.data.items():
        for d in deltas:
            yield f"{block}/{d.row}/{d.column}", [float(d.paper), float(d.measured)]


_FAULT_COUNTERS = ("timeouts", "retries", "hedges", "wasted_completions", "gave_up")
_OVERLOAD_COUNTERS = ("rejected_queue_full", "shed_deadline", "shed_admission",
                      "rate_limited", "breaker_rejections", "retries_denied")


def scenario_fields(result) -> Iterable[Tuple[str, Any]]:
    """``repro-scenario run``: per-run public outcomes, engine excluded.

    ``engine_used``/``fallback_reason`` are left out on purpose: both
    engines must serve the identical request stream, so porting a
    feature from the scalar fallback to the cohort engine keeps the digest.
    """
    yield "scenario", result.scenario_name
    for key in sorted(result.scale):
        yield f"scale/{key}", float(result.scale[key])
    for r in result.runs:
        base = f"run/{r.run_id}"
        yield base, [r.tier, r.overlay, r.rack, r.segment]
        yield f"{base}/rates", [float(r.offered_rps), float(r.throughput_rps),
                                float(r.goodput_rps), float(r.per_server_rps)]
        yield f"{base}/latency", [float(r.p99_ms), float(r.qos_violation_rate)]
        cluster = r.result
        yield f"{base}/completions", [int(c) for c in cluster.server_completions]
        yield f"{base}/response", [float(cluster.mean_response_ms),
                                   float(cluster.qos_percentile_ms)]
        if cluster.fault_report is not None:
            yield f"{base}/faults", [int(getattr(cluster.fault_report, k))
                                     for k in _FAULT_COUNTERS]
        if cluster.overload_report is not None:
            yield f"{base}/overload", [int(getattr(cluster.overload_report, k))
                                       for k in _OVERLOAD_COUNTERS]
