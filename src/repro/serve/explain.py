"""``python -m repro.serve.explain`` — one request's full waterfall.

The flight recorder retains causally complete traces; this tool answers
the operator question those traces exist for: *why was request N slow?*
Given an exported flight file (``repro.serve.loadgen --flight``) or a
live :class:`~repro.obs.flight.FlightRecorder`, it reconstructs one
request's journey as an ordered list of **hops** — admit → queue →
every launch attempt (each linked to the fused-launch span it rode in,
with its coalesced peer traces) → retry/failover hops → completion —
and renders it as a text waterfall or JSON.

Usage::

    python -m repro.serve.explain serve.flight.json 4817
    python -m repro.serve.explain serve.flight.json t000012 --json out.json
    python -m repro.serve.explain serve.flight.json 4817 --gantt

The identifier may be a trace id (``t000012``) or a bare request id;
``--gantt`` appends the per-device utilization timeline around the
request's lifetime.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.flight import (
    DeviceEvent,
    FlightRecorder,
    load_flight,
    render_gantt,
)

#: Link kinds that mark a hop as a recovery step.
_RECOVERY_KINDS = ("retry-of", "failover-of")


def _as_document(source) -> dict:
    """Normalize a recorder / document / path into the export format."""
    if isinstance(source, FlightRecorder):
        return source.to_dict()
    if isinstance(source, dict):
        return source
    return load_flight(source)


def _find_trace(doc: dict, ident: "str | int") -> "dict | None":
    """Locate a retained trace by trace id or request id."""
    for trace in doc.get("traces", []):
        if trace["trace_id"] == ident:
            return trace
    try:
        request_id = int(ident)
    except (TypeError, ValueError):
        return None
    for trace in doc.get("traces", []):
        if trace.get("request_id") == request_id:
            return trace
    return None


def waterfall(source, ident: "str | int") -> dict:
    """Reconstruct one request's journey from a flight source.

    Returns a JSON-friendly dict: the trace's identity and flags, one
    ``hops`` entry per span in start order (recovery hops carry their
    ``kind`` — ``retry-of``/``failover-of`` — and launch hops their
    fused-launch span plus coalesced ``peers``), and ``connected`` —
    True when every attempt past the first links back to a predecessor
    (the property the chaos tests assert).

    Raises ``KeyError`` when the id names no retained trace (it may
    have been tail-sampled away — only interesting, head-sampled and
    exemplar-pinned traces survive).
    """
    doc = _as_document(source)
    trace = _find_trace(doc, ident)
    if trace is None:
        raise KeyError(
            f"no retained trace for {ident!r} — the request may have been "
            "dropped by tail sampling (only interesting, head-sampled or "
            "exemplar-pinned traces are kept)"
        )
    batch_spans = {
        span["span_id"]: span for span in doc.get("batch_spans", [])
    }
    spans = sorted(
        trace["spans"], key=lambda s: (s["start_s"], s["span_id"])
    )
    hops: "list[dict]" = []
    attempts = 0
    linked_attempts = 0
    fused_links = 0
    for span in spans:
        hop = {
            "name": span["name"],
            "start_s": span["start_s"],
            "end_s": span.get("end_s"),
            "dur_s": (
                None
                if span.get("end_s") is None
                else span["end_s"] - span["start_s"]
            ),
            "outcome": span.get("attrs", {}).get("outcome"),
            "attrs": dict(span.get("attrs", {})),
            "kind": None,
            "links": [dict(link) for link in span.get("links", [])],
        }
        is_attempt = span["name"].startswith("attempt-")
        if is_attempt:
            attempts += 1
        for link in span.get("links", []):
            if link["kind"] in _RECOVERY_KINDS:
                hop["kind"] = link["kind"]
                if is_attempt:
                    linked_attempts += 1
            elif link["kind"] == "fused-launch":
                fused_links += 1
                hop["fused_span"] = link["span_id"]
                fused = batch_spans.get(link["span_id"])
                if fused is not None:
                    hop["fused"] = {
                        "trace_id": fused["trace_id"],
                        "batch": fused.get("attrs", {}).get("batch"),
                        "device": fused.get("attrs", {}).get("device"),
                        "size": fused.get("attrs", {}).get("size"),
                        "outcome": fused.get("attrs", {}).get("outcome"),
                    }
                    # Coalesced peers: every rider of the same fused
                    # launch except this request's own trace.
                    hop["peers"] = sorted(
                        {
                            peer["trace_id"]
                            for peer in fused.get("links", [])
                            if peer["kind"] == "coalesced"
                            and peer["trace_id"] != trace["trace_id"]
                        }
                    )
        hops.append(hop)
    return {
        "trace_id": trace["trace_id"],
        "request_id": trace.get("request_id"),
        "flags": list(trace.get("flags", [])),
        "hops": hops,
        "attempts": attempts,
        "fused_links": fused_links,
        # Connected: the causal chain has no gaps — attempt k+1 always
        # links back to attempt k, and every launch linked its batch.
        "connected": (
            attempts > 0
            and linked_attempts == attempts - 1
            and fused_links == attempts
        ),
    }


def _fmt_ms(seconds: "float | None") -> str:
    return "  open" if seconds is None else f"{seconds * 1e3:8.3f}"


def render_waterfall(explained: dict) -> str:
    """The waterfall as aligned text, one line per hop."""
    lines = [
        f"trace {explained['trace_id']}  request "
        f"{explained['request_id']}  flags: "
        f"{', '.join(sorted(explained['flags'])) or '-'}"
    ]
    lines.append(
        f"  {'start ms':>10}  {'dur ms':>8}  hop"
    )
    origin = explained["hops"][0]["start_s"] if explained["hops"] else 0.0
    for hop in explained["hops"]:
        start_ms = (hop["start_s"] - origin) * 1e3
        label = hop["name"]
        if hop.get("kind"):
            label += f"  [{hop['kind']}]"
        if hop.get("outcome"):
            label += f"  -> {hop['outcome']}"
        detail = []
        fused = hop.get("fused")
        if fused is not None:
            detail.append(
                f"fused batch={fused['batch']} device={fused['device']} "
                f"size={fused['size']}"
            )
        if hop.get("peers"):
            detail.append(f"peers: {', '.join(hop['peers'])}")
        lines.append(
            f"  {start_ms:10.3f}  {_fmt_ms(hop['dur_s'])}  {label}"
        )
        for extra in detail:
            lines.append(f"  {'':10}  {'':8}    {extra}")
    lines.append(
        f"  attempts: {explained['attempts']}  "
        f"connected: {explained['connected']}"
    )
    return "\n".join(lines)


def _gantt_for(doc: dict, explained: dict, width: int = 72) -> str:
    """The device timeline clipped to the request's lifetime."""
    hops = explained["hops"]
    if not hops:
        return "(no hops)"
    t0 = min(h["start_s"] for h in hops)
    t1 = max(
        (h["end_s"] for h in hops if h["end_s"] is not None), default=t0
    )
    events = [
        DeviceEvent(**e)
        for e in doc.get("device_events", [])
        if e["end_s"] >= t0 and e["start_s"] <= t1
    ]
    return render_gantt(events, width=width)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.explain",
        description="Reconstruct one request's waterfall from a flight file.",
    )
    parser.add_argument("flight", help="flight JSON written by loadgen --flight")
    parser.add_argument(
        "ident", help="trace id (t000012) or request id (4817)"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the waterfall as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--gantt", action="store_true",
        help="append the per-device timeline around the request",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    doc = load_flight(args.flight)
    try:
        explained = waterfall(doc, args.ident)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    print(render_waterfall(explained))
    if args.gantt:
        print()
        print(_gantt_for(doc, explained))
    if args.json is not None:
        payload = json.dumps(explained, indent=1, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
