#!/usr/bin/env python3
"""Compares bench_e2e runs of two commits, or summarizes sets of runs.

Run records are the JSON lines `run.py --record FILE` appends (only
--trace 0 records are used).

Compare a parent and a change (the choosing-metrics guide's rule):

    python3 bench/e2e/compare.py parent.jsonl change.jsonl [--json out.json]

Runs are paired per workload in file order (make them alternating: parent,
change, parent, ...). For every workload x end-to-end metric the verdict
is one of

    improved       >= 10 pairs, the change wins >= 9/10 of them (ties
                   count for neither), its median is better by more than
                   the parent's interquartile range, and no more
                   operations failed than at the parent;
    regressed      the change's median is worse than the parent's by more
                   than the metric's bound in BENCHMARK.json, and either
                   the parent's own spread (IQR / median) is within the
                   bound or every change run is worse than every parent run;
    unresolved     otherwise, when the parent's spread is wider than the
                   bound and not every change run beats every parent run;
    no-regression  otherwise.

The loss digests of runs with the same workload and seed must match: a
mismatch means the change altered the arithmetic. Exit status 1 when any
pair regressed or any digest differs.

Summarize sets of runs (the committed baseline is made this way):

    python3 bench/e2e/compare.py --summarize set1.jsonl set2.jsonl \
        [--json results/BENCH_baseline.json]

prints, per set and workload x end-to-end metric, the median, the
quartiles and the spread, and checks the benchmark's acceptance rule:
each spread but setup_s's within the bound, and each set's median no
worse than the first set's by more than the bound. A spread within a
third of the bound is marked steady.

    python3 bench/e2e/compare.py --self-test

runs the verdict logic on synthetic inputs that hit every verdict.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """Q1, median, Q3 as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(path):
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace", 0) == 0:
                runs[rec["workload"]].append(rec)
    return runs


def better(direction, a, b):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(metric, parent, change):
    """Verdict for one workload x metric. parent/change: lists of run
    records in pair order."""
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    pv = [r["metrics"][name]["value"] for r in parent]
    cv = [r["metrics"][name]["value"] for r in change]
    pq1, pmed, pq3 = quartiles(pv)
    _, cmed, _ = quartiles(cv)
    pairs = list(zip(pv, cv))
    wins = sum(1 for p, c in pairs if better(direction, c, p))
    spread = (pq3 - pq1) / abs(pmed) if pmed else float("inf")
    worse = (cmed - pmed) / abs(pmed) if pmed else 0.0
    if direction == "higher":
        worse = -worse
    failed_p = sum(r["failed"] for r in parent)
    failed_c = sum(r["failed"] for r in change)
    all_better = all(better(direction, c, p) for p in pv for c in cv)
    all_worse = all(better(direction, p, c) for p in pv for c in cv)
    row = {"metric": name, "parent_median": pmed, "change_median": cmed,
           "parent_iqr": pq3 - pq1, "parent_spread": spread,
           "pairs": len(pairs), "wins": wins, "worse_share": worse,
           "bound": bound}
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and better(direction, cmed, pmed)
            and abs(cmed - pmed) > pq3 - pq1 and failed_c <= failed_p):
        row["verdict"] = "improved"
    elif worse > bound and (spread <= bound or all_worse):
        row["verdict"] = "regressed"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "no-regression"
    return row


def digest_mismatches(parent_runs, change_runs):
    parent = {(w, r["seed"]): r["loss_digest"]
              for w, rs in parent_runs.items() for r in rs}
    out = []
    for w, rs in change_runs.items():
        for r in rs:
            d = parent.get((w, r["seed"]))
            if d is not None and d != r["loss_digest"]:
                out.append({"workload": w, "seed": r["seed"],
                            "parent": d, "change": r["loss_digest"]})
    return out


def compare(spec, parent_runs, change_runs):
    rows = []
    for w in sorted(set(parent_runs) & set(change_runs)):
        n = min(len(parent_runs[w]), len(change_runs[w]))
        for metric in spec["end_to_end"]:
            row = verdict(metric, parent_runs[w][:n], change_runs[w][:n])
            row["workload"] = w
            rows.append(row)
    return rows, digest_mismatches(parent_runs, change_runs)


def summarize(spec, sets):
    out = {"sets": [], "acceptance": []}
    first = None
    for path, runs in sets:
        summary = {"file": os.path.basename(path), "workloads": {}}
        for w, recs in sorted(runs.items()):
            cell = {"runs": len(recs), "host": recs[0]["host"],
                    "seeds": [r["seed"] for r in recs],
                    "correct": all(r["correct"] for r in recs),
                    "failed": sum(r["failed"] for r in recs),
                    "loss_digests": sorted({r["loss_digest"] for r in recs}),
                    "metrics": {}}
            for metric in spec["end_to_end"]:
                vals = [r["metrics"][metric["name"]]["value"] for r in recs]
                q1, med, q3 = quartiles(vals)
                cell["metrics"][metric["name"]] = {
                    "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / abs(med) if med else None,
                    "values": vals}
            summary["workloads"][w] = cell
        out["sets"].append(summary)
        first = first or summary
        for w, cell in summary["workloads"].items():
            for metric in spec["end_to_end"]:
                m = cell["metrics"][metric["name"]]
                ref = first["workloads"].get(w, {}).get("metrics", {}).get(
                    metric["name"])
                drift = None
                if ref and ref["median"]:
                    drift = (m["median"] - ref["median"]) / abs(ref["median"])
                    if metric["better"] == "higher":
                        drift = -drift
                within = (m["spread"] is not None and
                          m["spread"] <= metric["bound"])
                out["acceptance"].append({
                    "set": summary["file"], "workload": w,
                    "metric": metric["name"], "spread": m["spread"],
                    "drift_vs_first": drift, "bound": metric["bound"],
                    "ok": (within or metric["name"] == "setup_s") and
                          (drift is None or drift <= metric["bound"]) and
                          cell["correct"],
                    "steady": m["spread"] is not None and
                              m["spread"] <= metric["bound"] / 3})
    return out


def print_rows(rows, digests):
    print("%-22s %-12s %12s %12s %6s %8s  %s" % (
        "workload", "metric", "parent", "change", "wins", "worse", "verdict"))
    for r in rows:
        print("%-22s %-12s %12.5g %12.5g %3d/%-2d %+7.1f%%  %s" % (
            r["workload"], r["metric"], r["parent_median"],
            r["change_median"], r["wins"], r["pairs"],
            100 * r["worse_share"], r["verdict"]))
    if digests:
        for d in digests:
            print("loss_digest MISMATCH %s seed %s: %s != %s" % (
                d["workload"], d["seed"], d["parent"], d["change"]))
    else:
        print("loss_digest: all paired runs match")


def self_test():
    spec = {"end_to_end": [
        {"name": "t_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}

    def runs(values_t, values_r, digest="d", failed=0):
        return [{"workload": "w", "seed": i, "trace": 0, "failed": failed,
                 "loss_digest": digest, "correct": True, "host": {},
                 "metrics": {"t_ms": {"value": t}, "rate": {"value": r}}}
                for i, (t, r) in enumerate(zip(values_t, values_r))]

    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 70.0, 130.0, 90.0, 110.0]
    cases = {
        # 20% faster on every pair: a gain.
        "improved": (runs(base, base), runs([v * 0.8 for v in base], base)),
        # 25% slower beyond a 10% bound with a tight parent spread.
        "regressed": (runs(base, base), runs([v * 1.25 for v in base], base)),
        # 3% slower: within the bound.
        "no-regression": (runs(base, base),
                          runs([v * 1.03 for v in base], base)),
        # Parent spread far wider than the bound, overlapping change.
        "unresolved": (runs(noisy, base), runs([v * 1.2 for v in base], base)),
    }
    # A noisy parent still shows a regression when every change run is
    # worse than every parent run, and no regression when every one is
    # better (here by less than the parent's IQR, so not a gain).
    cases_noisy = {
        "regressed": (runs(noisy, base), runs([v * 2.0 for v in base], base)),
        "no-regression": (runs(noisy, base),
                          runs([v * 0.4 for v in base], base)),
    }
    ok = True
    for expect, (parent, change) in (list(cases.items()) +
                                     list(cases_noisy.items())):
        rows, _ = compare(spec, {"w": parent}, {"w": change})
        got = rows[0]["verdict"]
        if got != expect:
            print("self-test FAIL: expected %s, got %s" % (expect, got))
            ok = False
        if rows[1]["verdict"] != "no-regression":
            print("self-test FAIL: unchanged rate judged %s"
                  % rows[1]["verdict"])
            ok = False
    # Fewer than 10 pairs can never claim a gain.
    parent, change = runs(base[:5], base[:5]), runs(
        [v * 0.8 for v in base[:5]], base[:5])
    if compare(spec, {"w": parent}, {"w": change})[0][0]["verdict"] \
            == "improved":
        print("self-test FAIL: 5 pairs claimed a gain")
        ok = False
    # A gain with more failed operations than the parent does not count.
    parent, change = runs(base, base), runs([v * 0.8 for v in base], base,
                                            failed=1)
    if compare(spec, {"w": parent}, {"w": change})[0][0]["verdict"] \
            == "improved":
        print("self-test FAIL: a gain with extra failures counted")
        ok = False
    # Digests: equal digests match, a changed one is reported.
    _, mism = compare(spec, {"w": runs(base, base)},
                      {"w": runs(base, base)})
    _, mism2 = compare(spec, {"w": runs(base, base)},
                       {"w": runs(base, base, digest="e")})
    if mism or len(mism2) != len(base):
        print("self-test FAIL: loss digest matching")
        ok = False
    print("compare.py self-test: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="*")
    ap.add_argument("--benchmark", default=os.path.join(ROOT,
                                                        "BENCHMARK.json"))
    ap.add_argument("--summarize", action="store_true")
    ap.add_argument("--json", help="also write the result here")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    with open(args.benchmark) as f:
        spec = json.load(f)
    if args.summarize:
        if not args.files:
            ap.error("--summarize needs at least one run file")
        result = summarize(spec, [(p, load_runs(p)) for p in args.files])
        for a in result["acceptance"]:
            print("%-10s %-22s %-12s spread %6s drift %7s  %-12s %s" % (
                a["set"][:10], a["workload"], a["metric"],
                "n/a" if a["spread"] is None else "%.1f%%" % (100 * a["spread"]),
                "n/a" if a["drift_vs_first"] is None
                else "%+.1f%%" % (100 * a["drift_vs_first"]),
                "ok" if a["ok"] else "OUT OF BOUND",
                "steady" if a["steady"] else "spread > bound/3"))
        failed = not all(a["ok"] for a in result["acceptance"])
    else:
        if len(args.files) != 2:
            ap.error("give the parent's and the change's run files")
        rows, digests = compare(spec, load_runs(args.files[0]),
                                load_runs(args.files[1]))
        print_rows(rows, digests)
        result = {"verdicts": rows, "digest_mismatches": digests}
        failed = bool(digests) or any(r["verdict"] == "regressed"
                                      for r in rows)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
