#!/usr/bin/env python3
"""Summarise (and validate) a MUSA Chrome trace produced by run_dse.

Loads a merged Chrome trace_event JSON (`run_dse --trace-out sweep.json`)
or one or more raw `*.events.jsonl` process sidecars, validates the event
stream (well-formed JSON, required fields, non-negative durations,
per-(pid, tid) monotone start timestamps), and prints:

  * per-stage duration totals (burst / kernel / replay / power / point),
  * per-(pid, tid) worker lane occupancy over the trace's span,
  * outcome counts (ok / fail / quarantined / memo-hit / retry),
  * instant-event counts (quarantine / retry markers).

CI's chaos leg uses `--expect-quarantines N` to assert the merged trace
carries exactly one quarantine marker per injected fault: any mismatch
(or any validation error) exits 1.

Usage:
  tools/trace_summary.py sweep.trace.json
  tools/trace_summary.py sweep.trace.json --expect-quarantines 3
  tools/trace_summary.py sweep.trace.json.worker-*.events.jsonl
"""
import argparse
import json
import sys

COMPLETE, INSTANT, METADATA = "X", "i", "M"
REQUIRED = ("name", "ph", "ts", "pid", "tid")


def load_events(path):
    """Return the list of event dicts in `path` (trace JSON or JSONL)."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if path.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines() if line]
    doc = json.loads(text)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace (no traceEvents)")
    return doc["traceEvents"]


def validate(events, errors):
    """Structural checks; appends human-readable problems to `errors`."""
    last_ts = {}  # (pid, tid) -> last complete-event start ts
    for i, ev in enumerate(events):
        where = f"event {i}"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        if ev.get("ph") == METADATA:
            # Metadata events carry no timestamp, only identity.
            if "name" not in ev or "pid" not in ev:
                errors.append(f"{where}: metadata event missing name/pid")
            continue
        missing = [k for k in REQUIRED if k not in ev]
        if missing:
            errors.append(f"{where}: missing {','.join(missing)}")
            continue
        if ev["ph"] not in (COMPLETE, INSTANT):
            errors.append(f"{where}: unknown phase {ev['ph']!r}")
            continue
        if ev["ph"] == COMPLETE and ev.get("dur", 0) < 0:
            errors.append(f"{where}: negative duration")
        lane = (ev["pid"], ev["tid"])
        # Tracer::drain sorts by ts, and sidecars are wall-clock anchored:
        # within one worker lane start times must never run backwards.
        if ev["ph"] == COMPLETE:
            if lane in last_ts and ev["ts"] < last_ts[lane]:
                errors.append(
                    f"{where}: ts {ev['ts']} < predecessor "
                    f"{last_ts[lane]} in lane pid={lane[0]} tid={lane[1]}"
                )
            last_ts[lane] = ev["ts"]


def summarise(events):
    stages = {}  # name -> [count, total_us]
    lanes = {}  # (pid, tid) -> busy_us over complete 'point' spans
    outcomes = {}
    instants = {}
    t_min, t_max = None, None
    for ev in events:
        if not isinstance(ev, dict) or ev.get("ph") == METADATA:
            continue
        outcome = ev.get("args", {}).get("outcome")
        if outcome:
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if ev.get("ph") == INSTANT:
            instants[ev["name"]] = instants.get(ev["name"], 0) + 1
            continue
        if ev.get("ph") != COMPLETE:
            continue
        dur = ev.get("dur", 0)
        s = stages.setdefault(ev["name"], [0, 0])
        s[0] += 1
        s[1] += dur
        # Occupancy counts only top-level point spans: stage spans nest
        # inside them, so adding both would double-count the lane.
        if ev["name"] == "point":
            lane = (ev["pid"], ev["tid"])
            lanes[lane] = lanes.get(lane, 0) + dur
        t_min = ev["ts"] if t_min is None else min(t_min, ev["ts"])
        t_max = max(t_max or 0, ev["ts"] + dur)
    span_us = (t_max - t_min) if t_min is not None else 0
    return stages, lanes, outcomes, instants, span_us


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", help="trace JSON and/or JSONL files")
    ap.add_argument(
        "--expect-quarantines",
        type=int,
        default=None,
        metavar="N",
        help="exit 1 unless exactly N quarantine markers are present",
    )
    args = ap.parse_args()

    events, errors = [], []
    for path in args.paths:
        try:
            events.extend(load_events(path))
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"ERROR: {e}", file=sys.stderr)
            return 1
    validate(events, errors)
    stages, lanes, outcomes, instants, span_us = summarise(events)

    print(f"{len(events)} event(s) from {len(args.paths)} file(s), "
          f"spanning {span_us / 1e6:.3f}s")
    if stages:
        print("per-stage totals:")
        for name in sorted(stages, key=lambda n: -stages[n][1]):
            count, total = stages[name]
            print(f"  {name:16s} {count:6d} span(s) {total / 1e6:10.3f}s")
    if lanes and span_us > 0:
        print("worker lanes (occupancy = point-span time / trace span):")
        for pid, tid in sorted(lanes):
            busy = lanes[(pid, tid)]
            print(f"  pid {pid:3d} tid {tid:4d}  busy {busy / 1e6:8.3f}s "
                  f"({100.0 * busy / span_us:5.1f}%)")
    if outcomes:
        print("outcomes:",
              ", ".join(f"{k}={outcomes[k]}" for k in sorted(outcomes)))
    if instants:
        print("instant markers:",
              ", ".join(f"{k}={instants[k]}" for k in sorted(instants)))

    for e in errors:
        print(f"INVALID: {e}", file=sys.stderr)
    if errors:
        return 1

    if args.expect_quarantines is not None:
        got = instants.get("quarantine", 0)
        if got != args.expect_quarantines:
            print(
                f"FAIL: expected {args.expect_quarantines} quarantine "
                f"marker(s), found {got}",
                file=sys.stderr,
            )
            return 1
        print(f"quarantine markers match expectation ({got})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
