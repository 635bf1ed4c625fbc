#!/usr/bin/env python3
"""Validates a TelemetrySampler JSON export against schema_version 1.

Run by the CI telemetry smoke step against the file
example_fluctuating_streams writes, and usable locally against any
TelemetrySampler::WriteJson output:

    python3 tools/validate_telemetry.py telemetry.json [--require-edges]

The record keys come from the field tables in src/common/telemetry_fields.h
(the X-macro rows `X(type, name, default, counter|gauge)` the C++ export is
generated from), so the validator and the exporter cannot drift.

Checks:
  * top level: telemetry (string), schema_version == 1, meta, samples, trace
  * meta: period_us, capacity, samples_taken, samples_kept, tasks — all
    non-negative integers, samples_kept == len(samples) <= samples_taken
  * every sample: t_us, an exchange rollup, a tasks array and an edges
    array; the rollup, each task (by kind: joiner / reshuffler / agg) and
    each edge carry every field of their table as a non-negative number
  * every `counter` field never decreases across samples: per task id, per
    (producer, consumer) edge, and for the exchange rollup
  * every trace event: index, a known kind, task, t_us, a, b; non-object
    entries and unknown kind strings are reported as failures, never
    skipped
  * --require-edges: at least one sample must carry a non-empty edges array
    (threaded exports; sim-engine exports have no exchange plane)
  * --require-scale-events: the trace must carry at least one scale_grow and
    one scale_shrink event (elastic-autoscaling smoke runs)
  * --require-shed-events: the trace must carry at least one shed_enter
    event and some joiner sample must report a shed rate below 1000000 ppm
    (overload-shedding smoke runs)
  * --require-agg-tasks: some sample must carry at least one agg task, and
    the final sample's agg tasks must all report flushed == 1 (group-by
    pipeline smoke runs that end with a drained EOS barrier)

Exit code 0 = valid; 1 = findings (printed one per line).
"""

import argparse
import json
import pathlib
import re
import sys

FIELDS_HEADER = (pathlib.Path(__file__).resolve().parent.parent / "src" /
                 "common" / "telemetry_fields.h")
TABLE_RE = re.compile(r"#define AJOIN_(\w+)_FIELDS\(X\)((?:.*\\\n)*.*)")
ROW_RE = re.compile(r"X\(\s*[\w:]+\s*,\s*(\w+)\s*,[^,]*,\s*(counter|gauge)\s*\)")


def load_tables(path=FIELDS_HEADER):
    """{"joiner": {name: kind}, ...} parsed from the X-macro field tables."""
    text = path.read_text(encoding="utf-8")
    return {m.group(1).lower(): dict(ROW_RE.findall(m.group(2)))
            for m in TABLE_RE.finditer(text)}


TABLES = load_tables()
TASK_KINDS = ("joiner", "reshuffler", "agg")
RECORD_TABLES = TASK_KINDS + ("exchange", "edge")
SAMPLE_KEYS = ("t_us", "exchange", "tasks", "edges")
TRACE_KINDS = ("epoch_change", "migration_begin", "migration_finalize",
               "credit_stall", "scale_grow", "scale_shrink", "shed_enter",
               "shed_exit", "shed_rate_change")
EXACT_PPM = 1000000  # shed_rate_ppm at or above this means shedding is off


def require(errors, cond, msg):
    if not cond:
        errors.append(msg)


def check_counter(errors, obj, key, where):
    require(errors, key in obj, f"{where}: missing '{key}'")
    if key in obj:
        value = obj[key]
        require(errors, isinstance(value, (int, float)) and value >= 0,
                f"{where}: '{key}' is not a non-negative number")


def records(sample, i):
    """Yields (where, table, identity, record) for every record in a
    sample; identity keys the monotonicity check across samples."""
    if "exchange" in sample:  # absence is reported by check_sample
        yield f"samples[{i}].exchange", "exchange", ("exchange",), \
            sample["exchange"]
    for t, task in enumerate(sample.get("tasks", [])):
        kind = task.get("kind") if isinstance(task, dict) else None
        table = kind if kind in TASK_KINDS else None
        ident = ("task", kind, task.get("task")) if table else None
        yield f"samples[{i}].tasks[{t}]", table, ident, task
    for e, edge in enumerate(sample.get("edges", [])):
        ident = (("edge", edge.get("producer"), edge.get("consumer"))
                 if isinstance(edge, dict) else None)
        yield f"samples[{i}].edges[{e}]", "edge", ident, edge


def check_sample(errors, sample, i):
    where = f"samples[{i}]"
    if not isinstance(sample, dict):
        errors.append(f"{where}: not an object")
        return
    for key in SAMPLE_KEYS:
        require(errors, key in sample, f"{where}: missing '{key}'")
    for rwhere, table, _, record in records(sample, i):
        if not isinstance(record, dict):
            errors.append(f"{rwhere}: not an object")
            continue
        if table not in TABLES:
            errors.append(f"{rwhere}: bad kind {record.get('kind')!r}")
            continue
        for key in TABLES[table]:
            check_counter(errors, record, key, rwhere)


def check_monotone(errors, samples):
    prev = {}
    for i, sample in enumerate(samples):
        if not isinstance(sample, dict):
            continue  # already reported by check_sample
        for rwhere, table, ident, record in records(sample, i):
            if not isinstance(record, dict) or table not in TABLES:
                continue
            for key, kind in TABLES[table].items():
                cur = record.get(key)
                if kind != "counter" or not isinstance(cur, (int, float)):
                    continue
                last = prev.get((ident, key))
                require(errors, last is None or cur >= last,
                        f"{rwhere}: counter '{key}' went backwards "
                        f"({last} -> {cur})")
                prev[(ident, key)] = cur


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="TelemetrySampler::WriteJson output")
    parser.add_argument("--require-edges", action="store_true",
                        help="fail unless some sample has per-edge stats")
    parser.add_argument("--require-scale-events", action="store_true",
                        help="fail unless the trace has at least one "
                             "scale_grow and one scale_shrink event")
    parser.add_argument("--require-shed-events", action="store_true",
                        help="fail unless the trace has a shed_enter event "
                             "and some joiner sample reports an active shed "
                             "rate")
    parser.add_argument("--require-agg-tasks", action="store_true",
                        help="fail unless some sample carries agg tasks and "
                             "the final sample's agg tasks all report "
                             "flushed == 1")
    args = parser.parse_args()

    missing = [t for t in RECORD_TABLES if not TABLES.get(t)]
    if missing:
        print(f"{FIELDS_HEADER}: no field table for {', '.join(missing)}")
        return 1

    errors = []
    try:
        with open(args.path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{args.path}: unreadable or invalid JSON: {exc}")
        return 1

    require(errors, isinstance(doc.get("telemetry"), str),
            "top level: missing 'telemetry' name")
    require(errors, doc.get("schema_version") == 1,
            f"top level: schema_version {doc.get('schema_version')!r} != 1")
    meta = doc.get("meta")
    require(errors, isinstance(meta, dict), "top level: missing 'meta'")
    samples = doc.get("samples")
    require(errors, isinstance(samples, list), "top level: missing 'samples'")
    trace = doc.get("trace")
    require(errors, isinstance(trace, list), "top level: missing 'trace'")
    if errors:
        for error in errors:
            print(error)
        return 1

    for key in ("period_us", "capacity", "samples_taken", "samples_kept",
                "tasks"):
        check_counter(errors, meta, key, "meta")
    if "samples_kept" in meta:
        require(errors, meta["samples_kept"] == len(samples),
                f"meta: samples_kept {meta['samples_kept']} != "
                f"{len(samples)} samples present")
    if "samples_taken" in meta and "samples_kept" in meta:
        require(errors, meta["samples_kept"] <= meta["samples_taken"],
                "meta: samples_kept exceeds samples_taken")

    for i, sample in enumerate(samples):
        check_sample(errors, sample, i)
    check_monotone(errors, samples)

    for i, event in enumerate(trace):
        where = f"trace[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        require(errors, event.get("kind") in TRACE_KINDS,
                f"{where}: unknown kind {event.get('kind')!r}")
        for key in ("index", "task", "t_us", "a", "b"):
            check_counter(errors, event, key, where)

    if args.require_edges:
        require(errors,
                any(sample.get("edges") for sample in samples),
                "--require-edges: no sample carries per-edge stats")

    kinds = {event.get("kind") for event in trace
             if isinstance(event, dict)}
    if args.require_scale_events:
        require(errors, "scale_grow" in kinds,
                "--require-scale-events: no scale_grow trace event")
        require(errors, "scale_shrink" in kinds,
                "--require-scale-events: no scale_shrink trace event")

    if args.require_shed_events:
        require(errors, "shed_enter" in kinds,
                "--require-shed-events: no shed_enter trace event")
        shed_seen = any(
            task.get("kind") == "joiner"
            and 0 < task.get("shed_rate_ppm", EXACT_PPM) < EXACT_PPM
            for sample in samples if isinstance(sample, dict)
            for task in sample.get("tasks", []) if isinstance(task, dict))
        require(errors, shed_seen,
                "--require-shed-events: no joiner sample reports an active "
                "shed rate (shed_rate_ppm < 1000000)")

    if args.require_agg_tasks:
        agg_seen = any(
            task.get("kind") == "agg"
            for sample in samples if isinstance(sample, dict)
            for task in sample.get("tasks", []) if isinstance(task, dict))
        require(errors, agg_seen,
                "--require-agg-tasks: no sample carries an agg task")
        if samples and isinstance(samples[-1], dict):
            final_aggs = [task for task in samples[-1].get("tasks", [])
                          if isinstance(task, dict)
                          and task.get("kind") == "agg"]
            require(errors,
                    final_aggs and all(task.get("flushed") == 1
                                       for task in final_aggs),
                    "--require-agg-tasks: final sample's agg tasks are not "
                    "all flushed (EOS barrier never drained)")

    for error in errors:
        print(error)
    if errors:
        print(f"\n{len(errors)} telemetry schema failure(s)", file=sys.stderr)
        return 1
    n_tasks = max((len(s.get("tasks", [])) for s in samples), default=0)
    print(f"telemetry schema valid: {len(samples)} samples, "
          f"{n_tasks} tasks, {len(trace)} trace events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
