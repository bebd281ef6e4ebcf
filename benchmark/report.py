#!/usr/bin/env python3
"""Result handling for the benchmark scripts (standard library only).

  report.py merge --out FILE --expected "W1 W2" --reference REF PART...
      Merge per-workload runner results into one results file (adding
      quartiles and sample counts), merge their span traces into
      trace.json beside it, and flag fingerprints that differ from the
      recorded reference. With several workloads, print one combined
      result line.
  report.py ab --benchmark BENCHMARK.json --runs DIR
      Compare base-<i>.json / head-<i>.json pairs under DIR/<workload>/.
  report.py selftest --benchmark BENCHMARK.json --untraced FILE
                     --traced FILE --trace FILE --guard FILE
      Check the self-test runs (merged results files and a trace).
"""

import argparse
import json
import math
import os
import statistics
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values):
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


# ---- merge ------------------------------------------------------------------

def merge(args):
    parts = [load(p) for p in args.parts]
    reference = load(args.reference) if os.path.exists(args.reference) else {}
    expected_fps = reference.get("fingerprints", {})
    expected = args.expected.split()

    workloads = {}
    for part in parts:
        name = part["workload"]
        entry = {k: part[k] for k in ("seed", "trace", "smoke", "correct",
                                       "attempted", "failed", "failures",
                                       "fingerprint", "k1_fingerprint")}
        metrics = {}
        for metric, m in part["metrics"].items():
            metrics[metric] = {"value": m["value"], "unit": m["unit"]}
            samples = part["samples"].get(metric)
            if samples:
                metrics[metric].update(describe(samples))
        entry["metrics"] = metrics
        entry["raw"] = {k: describe(v) for k, v in part["raw_samples"].items()
                        if v}
        entry["layers"] = part["layers"]
        entry["result"] = part["result"]
        ref = None if part["smoke"] else \
            expected_fps.get(name, {}).get(str(part["seed"]))
        entry["reference_fingerprint"] = ref
        entry["fingerprint_matches_reference"] = \
            None if ref is None else ref == part["fingerprint"]
        if ref is not None and ref != part["fingerprint"]:
            print("run.sh: %s seed %s: fingerprint %s differs from the "
                  "recorded %s -- figure statistics changed"
                  % (name, part["seed"], part["fingerprint"], ref),
                  file=sys.stderr)
        workloads[name] = entry
    for name in expected:
        if name not in workloads:
            workloads[name] = {"correct": False, "attempted": 1,
                               "failed": 1, "metrics": {}, "layers": {},
                               "failures": ["crashed or exited non-zero"]}

    provenance = dict(parts[0]["provenance"]) if parts else {}
    provenance["reps"] = {p["workload"]: p["provenance"]["reps"]
                          for p in parts}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"provenance": provenance, "workloads": workloads}, f,
                  indent=1)

    merge_traces(args.parts, os.path.join(os.path.dirname(args.out),
                                           "trace.json"))

    print("%-20s %-8s %14s %10s %11s  %s" % (
        "workload", "correct", "misses/s", "setup_s", "peak_rss_mb",
        "fingerprint"), file=sys.stderr)
    for name in expected:
        e = workloads[name]
        m = e["metrics"]
        value = lambda k: m[k]["value"] if k in m else float("nan")
        print("%-20s %-8s %14.1f %10.4f %11.1f  %s" % (
            name, e["correct"], value("misses_per_s"), value("setup_s"),
            value("peak_rss_mb"), e.get("fingerprint", "-")),
            file=sys.stderr)
    print("results: %s" % args.out, file=sys.stderr)

    if len(expected) > 1:
        combined = {}
        for name in expected:
            result = workloads[name].get("result", {"metrics": {}})
            for metric, m in result["metrics"].items():
                combined[name + "." + metric] = m
        print(json.dumps({
            "correct": all(workloads[n]["correct"] for n in expected),
            "attempted": sum(workloads[n]["attempted"] for n in expected),
            "failed": sum(workloads[n]["failed"] for n in expected),
            "metrics": combined}))


def merge_traces(part_paths, out):
    """One Chrome trace, one process row per workload."""
    events = []
    for pid, path in enumerate(part_paths, start=1):
        trace_path = path[:-len(".json")] + ".trace.json"
        if not os.path.exists(trace_path):
            continue
        name = os.path.basename(path)[:-len(".json")]
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 1, "args": {"name": name}})
        for ev in load(trace_path)["traceEvents"]:
            ev["pid"] = pid
            events.append(ev)
    if events:
        with open(out, "w") as f:
            json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


# ---- A/B --------------------------------------------------------------------

def ab(args):
    bench = load(args.benchmark)
    metrics = bench["end_to_end"]
    rows = []
    bad = False
    for workload in [w["name"] for w in bench["workloads"]]:
        wdir = os.path.join(args.runs, workload)
        pairs = []
        i = 0
        while os.path.exists(os.path.join(wdir, "base-%d.json" % i)) and \
                os.path.exists(os.path.join(wdir, "head-%d.json" % i)):
            pairs.append((load(os.path.join(wdir, "base-%d.json" % i)),
                          load(os.path.join(wdir, "head-%d.json" % i))))
            i += 1
        if not pairs:
            continue
        fps = {side: {p[k]["fingerprint"] for p in pairs}
               for k, side in ((0, "base"), (1, "head"))}
        same_fp = fps["base"] == fps["head"] and len(fps["base"]) == 1
        correct = all(b["correct"] and h["correct"] for b, h in pairs)
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            base = [b["metrics"][name]["value"] for b, _ in pairs]
            head = [h["metrics"][name]["value"] for _, h in pairs]
            better = lambda x, y: x > y if higher else x < y
            wins = sum(better(h, b) for b, h in zip(base, head))
            bq1, bmed, bq3 = quartiles(base)
            hq1, hmed, hq3 = quartiles(head)
            gain = (hmed - bmed) if higher else (bmed - hmed)
            worse = -gain / bmed if bmed else 0.0
            spread = max(bq3 - bq1, hq3 - hq1) / bmed if bmed else 0.0
            if wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
                verdict = "gain"
            elif spread > m["bound"]:
                all_better = all(better(h, b) for h in head for b in base)
                verdict = "better (every run)" if all_better \
                    else "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "no change"
            bad |= verdict == "REGRESSION"
            rows.append((workload, name, bmed, bq1, bq3, hmed, hq1, hq3,
                         "%d/%d" % (wins, len(pairs)), same_fp, correct,
                         verdict))
        bad |= not same_fp or not correct

    header = ("workload", "metric", "base_med", "base_q1", "base_q3",
              "head_med", "head_q1", "head_q3", "wins", "same_fp",
              "correct", "verdict")
    print("%-18s %-13s %12s %12s %12s %12s %12s %12s %6s %7s %7s  %s"
          % header)
    for r in rows:
        print("%-18s %-13s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g "
              "%6s %7s %7s  %s" % r)
    if args.json:
        with open(args.json, "w") as f:
            json.dump([dict(zip(header, r)) for r in rows], f, indent=1)
    return 1 if bad else 0


# ---- self-test --------------------------------------------------------------

def selftest(args):
    bench = load(args.benchmark)
    errors = []

    def check_metric(where, name, m, spec):
        if m is None:
            errors.append("%s: %s missing" % (where, name))
        elif spec is None:
            errors.append("%s: %s is not in BENCHMARK.json" % (where, name))
        elif not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            errors.append("%s: %s not finite" % (where, name))
        elif m["unit"] != spec["unit"]:
            errors.append("%s: %s unit %r, expected %r"
                          % (where, name, m["unit"], spec["unit"]))

    def check_results(results, specs):
        """The result line of every workload carries every metric."""
        for w in bench["workloads"]:
            entry = results["workloads"].get(w["name"])
            if entry is None or "result" not in entry:
                errors.append("%s: no result" % w["name"])
                continue
            if not entry["correct"] or not entry["result"]["correct"]:
                errors.append("%s: not correct: %s"
                              % (w["name"], entry.get("failures")))
            line = entry["result"]["metrics"]
            for spec in specs:
                check_metric(w["name"] + " result line", spec["name"],
                             line.get(spec["name"]), spec)
            for name in line:
                if name not in {s["name"] for s in specs}:
                    errors.append("%s: result line has extra metric %s"
                                  % (w["name"], name))
        return results

    untraced = check_results(load(args.untraced), bench["end_to_end"])
    for name, entry in untraced["workloads"].items():
        for metric, m in entry["result"]["metrics"].items():
            if m["value"] == 0:
                errors.append("%s: end-to-end %s reads 0" % (name, metric))

    # The results file lists only the layer metrics that apply to each
    # workload; every layer metric applies to at least one.
    traced = check_results(load(args.traced), bench["per_layer"])
    specs = {s["name"]: s for s in bench["per_layer"]}
    seen = set()
    for name, entry in traced["workloads"].items():
        if not entry["layers"]:
            errors.append("%s: no layer metrics apply" % name)
        for metric, m in entry["layers"].items():
            check_metric(name + " layers", metric, m, specs.get(metric))
            seen.add(metric)
    for metric in sorted(set(specs) - seen):
        errors.append("%s applies to no workload" % metric)

    events = [e for e in load(args.trace)["traceEvents"] if e["ph"] == "X"]
    by_pid = {}
    for e in events:
        by_pid.setdefault(e["pid"], []).append(e)
    if len(by_pid) != len(bench["workloads"]):
        errors.append("trace.json has %d workload rows, expected %d"
                      % (len(by_pid), len(bench["workloads"])))
    slack = 1.0  # microseconds of rounding
    for pid, spans in by_pid.items():
        if len({e["args"]["run"] for e in spans}) != 1:
            errors.append("pid %d: spans carry several run ids" % pid)
        index = {e["args"]["span"]: e for e in spans}
        for e in spans:
            parent = e["args"]["parent"]
            if parent < 0:
                continue
            p = index.get(parent)
            if p is None:
                errors.append("pid %d: span %s has no parent %d"
                              % (pid, e["name"], parent))
            elif e["ts"] < p["ts"] - slack or \
                    e["ts"] + e["dur"] > p["ts"] + p["dur"] + slack:
                errors.append("pid %d: span %s lies outside its parent %s"
                              % (pid, e["name"], p["name"]))
        if not any(e["args"]["parent"] >= 0 for e in spans):
            errors.append("pid %d: no nested spans" % pid)

    for name, guard in load(args.guard)["workloads"].items():
        if guard["correct"] or guard["attempted"] == 0 or \
                guard["failed"] != guard["attempted"]:
            errors.append("%s: a wrong expected fingerprint did not fail "
                          "every rep (failed %s of %s)"
                          % (name, guard["failed"], guard["attempted"]))

    for e in errors:
        print("selftest: " + e, file=sys.stderr)
    print("selftest: %s (%d problems)" % ("FAIL" if errors else "ok",
                                          len(errors)))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("merge")
    p.add_argument("--out", required=True)
    p.add_argument("--expected", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("parts", nargs="*")
    p = sub.add_parser("ab")
    p.add_argument("--benchmark", required=True)
    p.add_argument("--runs", required=True)
    p.add_argument("--json")
    p = sub.add_parser("selftest")
    for flag in ("--benchmark", "--untraced", "--traced", "--trace",
                 "--guard"):
        p.add_argument(flag, required=True)
    args = parser.parse_args()
    if args.cmd == "merge":
        merge(args)
        return 0
    return ab(args) if args.cmd == "ab" else selftest(args)


if __name__ == "__main__":
    sys.exit(main())
