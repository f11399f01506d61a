"""Per-layer metrics from the spans a traced server wrote.

Span records are ``(id, parent, name, start, end, job, attrs)`` as written
by :class:`launcher.SpanRecorder`.  A span's self time is its duration
minus the durations of its child spans; child spans run on the caller's
thread, so they never overlap each other.  Metrics named ``*_s_per_op``
are seconds per timed operation: self time for layers that call into
other wrapped layers (``container.*``, ``metrics.iteration_stats``,
``encoder.assign_self``), inclusive time for the rest.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

import numpy as np

__all__ = ["span_metrics", "percentile"]


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _container_kind(span, by_id) -> str:
    """Which container operation a container span serves: the topmost
    container ancestor decides."""
    top = span
    parent = by_id.get(span[1])
    while parent is not None and parent[2].startswith("container."):
        top = parent
        parent = by_id.get(parent[1])
    return {"container.to_bytes": "to_bytes",
            "container.from_bytes": "from_bytes"}.get(top[2], "append")


def span_metrics(spans: list, since: float, ops: int) -> dict[str, float]:
    """Layer metrics over the spans that start at or after ``since``."""
    spans = [tuple(s) for s in spans if s[3] >= since]
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1] in by_id:
            child_time[s[1]] += s[4] - s[3]

    incl: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durs: dict[str, list[float]] = defaultdict(list)
    attrs: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    container: dict[str, float] = defaultdict(float)
    fit_outer = 0.0
    for s in spans:
        name, dur = s[2], s[4] - s[3]
        own = dur - child_time[s[0]]
        incl[name] += dur
        self_t[name] += own
        calls[name] += 1
        durs[name].append(dur)
        for key, value in s[6].items():
            attrs[name][key] += value
        if name.startswith("container."):
            container[_container_kind(s, by_id)] += own
        parent = by_id.get(s[1])
        if name == "fit" and not (parent and parent[2] == "fit"):
            fit_outer += dur

    n = max(ops, 1)
    wire_t = incl["wire.unpack"] + incl["wire.pack"]
    wire_b = attrs["wire.unpack"]["bytes"] + attrs["wire.pack"]["bytes"]
    enc = attrs["encoder.encode"]
    out: dict[str, Any] = {
        "wire.unpack_s_per_op": incl["wire.unpack"] / n,
        "wire.pack_s_per_op": incl["wire.pack"] / n,
        "wire.mb_s": wire_b / wire_t / 1e6 if wire_t else 0.0,
        "chains.append_ms_p50": 1e3 * percentile(durs["chains.append"], 50),
        "chains.container_ms_p50":
            1e3 * percentile(durs["chains.container"], 50),
        "change.ratios_s_per_op": incl["change.ratios"] / n,
        "change.calls_per_op": calls["change.ratios"] / n,
        "fit.s_per_op": fit_outer / n,
        "fit.calls_per_op": calls["fit"] / n,
        "kmeans.lloyd_s_per_op": incl["kmeans.lloyd"] / n,
        "kmeans.calls_per_op": calls["kmeans.lloyd"] / n,
        "kmeans.sweeps_per_op": attrs["kmeans.lloyd"]["sweeps"] / n,
        "encoder.encode_s_per_op": incl["encoder.encode"] / n,
        "encoder.assign_self_s_per_op": self_t["encoder.encode"] / n,
        "encoder.incompressible_frac":
            enc["incompressible"] / enc["points"] if enc["points"] else 0.0,
        "metrics.iteration_stats_s_per_op":
            self_t["metrics.iteration_stats"] / n,
        "decoder.decode_s_per_op": incl["decoder.decode"] / n,
        "decoder.calls_per_op": calls["decoder.decode"] / n,
        "bitpack.pack_mvals_s": (attrs["bitpack.pack"]["values"]
                                 / incl["bitpack.pack"] / 1e6
                                 if incl["bitpack.pack"] else 0.0),
        "bitpack.unpack_mvals_s": (attrs["bitpack.unpack"]["values"]
                                   / incl["bitpack.unpack"] / 1e6
                                   if incl["bitpack.unpack"] else 0.0),
        "bitpack.calls_per_op":
            (calls["bitpack.pack"] + calls["bitpack.unpack"]) / n,
        "container.append_s_per_op": container["append"] / n,
        "container.to_bytes_s_per_op": container["to_bytes"] / n,
        "container.from_bytes_s_per_op": container["from_bytes"] / n,
    }
    return out
