"""Per-layer metrics, computed from the spans of the traced run.

Each entry reads the spans of a set of traces (rounds, the traced set-up,
or direct-call probes) and returns ``None`` when those traces hold no span
it can use.  ``*_s`` metrics are seconds per trace (per round, per set-up,
or per probe call), the median over the traces that have the span.  A
span's duration is its ``seconds``: reference seconds, set by the run from
its :class:`~dblbench.clock.Clock`.
"""

from __future__ import annotations

import statistics


def _duration(s):
    return s["seconds"]


def _per_trace(spans, names, ids, value):
    per = {}
    for s in spans:
        if s["name"] in names and s["trace"] in ids:
            v = value(s)
            if v is not None:
                per[s["trace"]] = per.get(s["trace"], 0.0) + v
    return per


def total(name):
    """Seconds spent in spans called ``name``, per trace."""

    def metric(spans, ids):
        per = _per_trace(spans, (name,), ids, _duration)
        return statistics.median(per.values()) if per else None

    return metric


def self_total(name):
    """Seconds spent in spans called ``name`` less the time their direct
    children cover, per trace."""

    def metric(spans, ids):
        child = {}
        for s in spans:
            if s["parent"] is not None and s["trace"] in ids:
                child[s["parent"]] = child.get(s["parent"], 0.0) + _duration(s)
        per = _per_trace(spans, (name,), ids, lambda s: _duration(s) - child.get(s["id"], 0.0))
        return statistics.median(per.values()) if per else None

    return metric


def attr_total(attr, *names):
    """Sum of a count recorded on the spans, per trace."""

    def metric(spans, ids):
        per = _per_trace(spans, names, ids, lambda s: s["attrs"].get(attr))
        return statistics.median(per.values()) if per else None

    return metric


def ratio(name, attr, scale=1.0, invert=False):
    """Time per recorded unit (or, inverted, units per second) over all the
    spans called ``name``."""

    def metric(spans, ids):
        chosen = [s for s in spans if s["name"] == name and s["trace"] in ids and attr in s["attrs"]]
        seconds = sum(_duration(s) for s in chosen)
        units = sum(s["attrs"][attr] for s in chosen)
        if not chosen or not seconds or not units:
            return None
        return units / seconds if invert else seconds / units * scale

    return metric


def median_ms(name, status):
    """Median duration, in milliseconds, of the spans called ``name`` whose
    report has the given status."""

    def metric(spans, ids):
        ms = [
            _duration(s) * 1e3
            for s in spans
            if s["name"] == name and s["trace"] in ids and s["attrs"].get("status") == status
        ]
        return statistics.median(ms) if ms else None

    return metric


def eq_ns(spans, ids):
    """Per-call cost of ``Collector.eq`` with ``Budget.spend``: the probe
    loop's time less the same loop with an empty body, per call."""
    loop = _per_trace(spans, ("report.eq.loop",), ids, _duration)
    ns = [
        (_duration(s) - loop[s["trace"]]) / s["attrs"]["calls"] * 1e9
        for s in spans
        if s["name"] == "report.eq" and s["trace"] in loop
    ]
    return statistics.median(ns) if ns else None


PER_LAYER = (
    ("kernel.check_s", "s", total("kernel.check")),
    ("kernel.check_ns_per_instance", "ns", ratio("kernel.check", "instances", scale=1e9)),
    ("kernel.check_instances", "count", attr_total("instances", "kernel.check")),
    ("kernel.interchange_instances", "count", attr_total("interchange", "kernel.check")),
    ("kernel.reject_ms", "ms", median_ms("kernel.check", "fail")),
    ("kernel.quintet_s", "s", total("kernel.quintet")),
    ("kernel.product_s", "s", total("kernel.product")),
    ("kernel.transpose_s", "s", total("kernel.transpose")),
    ("kernel.pullback_s", "s", total("kernel.pullback")),
    ("kernel.validate_s", "s", total("kernel.validate")),
    ("report.eq_ns", "ns", eq_ns),
    ("functors.compose_pseudo_s", "s", total("functors.compose_pseudo")),
    ("functors.check_pseudo_functor_s", "s", total("functors.check_pseudo_functor")),
    ("functors.check_pseudo_functor_instances", "count", attr_total("instances", "functors.check_pseudo_functor")),
    ("internal.monoid_to_internal_s", "s", total("internal.monoid_to_internal")),
    ("internal.pseudomonoid_to_internal_s", "s", total("internal.pseudomonoid_to_internal")),
    ("internal.triple_pullbacks_s", "s", total("internal.triple_pullbacks")),
    ("internal.check_internal_s", "s", total("internal.check_internal")),
    ("internal.check_internal_instances", "count", attr_total("instances", "internal.check_internal")),
    ("builders.enumerate_plain_verticals_s", "s", total("builders.enumerate_plain_verticals")),
    ("weak.check_pseudo_double_s", "s", total("weak.check_pseudo_double")),
    ("weak.check_bicategory_s", "s", total("weak.check_bicategory")),
    ("graytensor.normalize_words_per_s", "words/s", ratio("graytensor.normalize", "words", invert=True)),
    ("graytensor.embedding_s", "s", total("graytensor.embedding")),
    ("dsl.parse_s", "s", total("dsl.parse")),
    ("dsl.parse_bytes_per_s", "B/s", ratio("dsl.parse", "bytes", invert=True)),
    ("dsl.serialize_s", "s", total("dsl.serialize")),
    ("dsl.serialize_bytes_per_s", "B/s", ratio("dsl.serialize", "bytes", invert=True)),
    ("cli.check_s", "s", self_total("cli.check")),
    ("cli.construct_s", "s", self_total("cli.construct")),
    ("cli.compare_s", "s", self_total("cli.compare")),
)


def layer_metrics(spans, sources):
    """Every per-layer metric, from the first ``(label, trace ids)`` in
    ``sources`` that gives it a value; returns the metrics and, for each,
    the label of the traces it came from."""
    out, origin = {}, {}
    for name, unit, metric in PER_LAYER:
        for label, ids in sources:
            value = metric(spans, ids)
            if value is not None:
                out[name] = {"value": value, "unit": unit}
                origin[name] = label
                break
    return out, origin
