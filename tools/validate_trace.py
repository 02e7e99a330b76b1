#!/usr/bin/env python3
"""CI validator for the telemetry subsystem's on-disk artifacts.

Usage:
    validate_trace.py --trace trace.json [--metrics metrics.json]
        [--collapsed profile.collapsed] [--prometheus metrics.prom]

Checks, in order:
  1. the trace file is well-formed JSON with the Chrome trace-event shape
     (an object with a "traceEvents" array),
  2. every event carries the required fields (name, ph, ts, pid, tid),
     complete events ("ph": "X") additionally a non-negative dur, counter
     events ("ph": "C") a numeric args payload,
  3. timestamps are monotonically non-decreasing in file order (the tracer
     serializes sorted by ts, so an out-of-order event means the writer
     broke), and no timestamp is negative,
  4. if --metrics is given, the metrics snapshot has the registry schema:
     top-level counters/gauges/histograms objects, integer counter values,
     gauges with value/max, histograms with count/sum/buckets,
  5. if --collapsed is given, the profiler output (SC_PROFILE) is valid
     collapsed-stack: every line is "frame(;frame)* <positive integer>",
     flamegraph.pl-consumable, and stack prefixes are consistent (a line
     "a;b;c N" implies frames a and a;b exist as paths),
  6. if --prometheus is given, the exposition parses: sample lines are
     `name{labels} value` with grammar-legal metric names, every # TYPE
     kind is known, and histogram _bucket series are cumulative with the
     +Inf bucket equal to _count.

Exits nonzero with a message on the first violation; prints a one-line
summary on success.  Stdlib only — safe for any CI image with python3.
"""

import argparse
import json
import sys


def fail(message):
    print("validate_trace: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def validate_trace(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail("%s: not readable as JSON: %s" % (path, err))

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("%s: missing top-level 'traceEvents' array" % path)
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("%s: 'traceEvents' must be a non-empty array" % path)

    required = ("name", "ph", "ts", "pid", "tid")
    last_ts = -1.0
    phases = {}
    for index, event in enumerate(events):
        where = "%s: event %d" % (path, index)
        if not isinstance(event, dict):
            fail(where + ": not an object")
        for field in required:
            if field not in event:
                fail(where + ": missing required field '%s'" % field)
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(where + ": 'ts' must be a non-negative number, got %r" % ts)
        if ts < last_ts:
            fail(where + ": timestamps not monotonic (%s after %s)"
                 % (ts, last_ts))
        last_ts = ts
        ph = event["ph"]
        phases[ph] = phases.get(ph, 0) + 1
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(where + ": complete event needs non-negative 'dur'")
        elif ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                    isinstance(v, (int, float)) for v in args.values()):
                fail(where + ": counter event needs numeric 'args'")
    return len(events), phases


def validate_metrics(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail("%s: not readable as JSON: %s" % (path, err))

    for section in ("counters", "gauges", "histograms"):
        if section not in doc or not isinstance(doc[section], dict):
            fail("%s: missing top-level '%s' object" % (path, section))
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail("%s: counter %s must be a non-negative integer, got %r"
                 % (path, name, value))
    for name, gauge in doc["gauges"].items():
        if not isinstance(gauge, dict) or "value" not in gauge \
                or "max" not in gauge:
            fail("%s: gauge %s must carry 'value' and 'max'" % (path, name))
    for name, hist in doc["histograms"].items():
        for field in ("count", "sum", "buckets"):
            if field not in hist:
                fail("%s: histogram %s missing '%s'" % (path, name, field))
        if not isinstance(hist["buckets"], dict):
            fail("%s: histogram %s 'buckets' must be an object" % (path, name))
    return (len(doc["counters"]), len(doc["gauges"]), len(doc["histograms"]))


def validate_collapsed(path):
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        fail("%s: not readable: %s" % (path, err))
    if not lines:
        fail("%s: empty collapsed-stack profile" % path)

    paths = set()
    for index, line in enumerate(lines):
        where = "%s: line %d" % (path, index + 1)
        space = line.rfind(" ")
        if space <= 0:
            fail(where + ": expected 'frame(;frame)* value', got %r" % line)
        stack, value = line[:space], line[space + 1:]
        if not value.isdigit() or int(value) <= 0:
            fail(where + ": value must be a positive integer, got %r" % value)
        frames = stack.split(";")
        if any(not frame for frame in frames):
            fail(where + ": empty frame in %r" % stack)
        paths.add(stack)

    # Prefix consistency: interior nodes with zero exclusive time are
    # legitimately absent, but a path must never contradict itself (the
    # same stack emitted twice would double-count in flamegraph.pl).
    if len(paths) != len(lines):
        fail("%s: duplicate stack lines" % path)
    return len(lines)


def validate_prometheus(path):
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        fail("%s: not readable: %s" % (path, err))
    if not lines:
        fail("%s: empty exposition" % path)

    def name_ok(name):
        if not name:
            return False
        first, rest = name[0], name[1:]
        alpha = first.isalpha() or first in "_:"
        return alpha and all(c.isalnum() or c in "_:" for c in rest)

    samples = 0
    buckets = {}  # series name -> [(le, cumulative)]
    counts = {}
    for index, line in enumerate(lines):
        where = "%s: line %d" % (path, index + 1)
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "histogram"):
                fail(where + ": malformed TYPE comment: %r" % line)
            continue
        if line.startswith("#"):
            fail(where + ": unknown comment: %r" % line)
        space = line.rfind(" ")
        if space <= 0:
            fail(where + ": expected 'name value': %r" % line)
        series, value = line[:space], line[space + 1:]
        label_start = series.find("{")
        name = series if label_start < 0 else series[:label_start]
        if label_start >= 0 and not series.endswith("}"):
            fail(where + ": unterminated label block: %r" % line)
        if not name_ok(name):
            fail(where + ": illegal metric name %r" % name)
        try:
            number = float(value)
        except ValueError:
            fail(where + ": unparsable value %r" % value)
        samples += 1
        if name.endswith("_bucket"):
            le_at = series.find('le="')
            if le_at < 0:
                fail(where + ": _bucket sample without an le label")
            le = series[le_at + 4:series.find('"', le_at + 4)]
            buckets.setdefault(name, []).append((le, number))
        elif name.endswith("_count"):
            counts[name[:-len("_count")]] = number

    for name, series in buckets.items():
        base = name[:-len("_bucket")]
        cumulative = -1.0
        for le, number in series:
            if number < cumulative:
                fail("%s: %s buckets not cumulative at le=%s"
                     % (path, name, le))
            cumulative = number
        if series[-1][0] != "+Inf":
            fail("%s: %s missing +Inf bucket" % (path, name))
        if base in counts and series[-1][1] != counts[base]:
            fail("%s: %s +Inf bucket %s != _count %s"
                 % (path, name, series[-1][1], counts[base]))
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", required=True,
                        help="Chrome trace-event JSON written via SC_TRACE")
    parser.add_argument("--metrics",
                        help="metrics snapshot JSON written via SC_METRICS")
    parser.add_argument("--collapsed",
                        help="collapsed-stack profile written via SC_PROFILE")
    parser.add_argument("--prometheus",
                        help="Prometheus exposition written via SC_PROM")
    options = parser.parse_args()

    count, phases = validate_trace(options.trace)
    summary = "validate_trace: OK: %s: %d events (%s)" % (
        options.trace, count,
        ", ".join("%s=%d" % kv for kv in sorted(phases.items())))
    if options.metrics:
        counters, gauges, histograms = validate_metrics(options.metrics)
        summary += "; %s: %d counters, %d gauges, %d histograms" % (
            options.metrics, counters, gauges, histograms)
    if options.collapsed:
        summary += "; %s: %d stacks" % (options.collapsed,
                                        validate_collapsed(options.collapsed))
    if options.prometheus:
        summary += "; %s: %d samples" % (
            options.prometheus, validate_prometheus(options.prometheus))
    print(summary)


if __name__ == "__main__":
    main()
