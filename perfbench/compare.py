#!/usr/bin/env python3
"""Compare two sets of benchmark results, check their spread, self-test.

    python3 perfbench/compare.py BASE_DIR CAND_DIR   # gate CAND against BASE
    python3 perfbench/compare.py --spread DIR        # run-to-run spread in DIR
    python3 perfbench/compare.py --self-test [DIR]   # doctored results must fail

A results directory holds the records perfbench/run.py writes (one JSON file
per run, under <build root>/results/). Only untraced runs are compared.

Gate rules, per workload and end-to-end metric of BENCHMARK.json:
  * any candidate run with a failed query, or correct = false, fails;
  * a metric or workload missing from the candidate fails;
  * on the same host class (CPU model, core count, caches, ISA) the
    candidate's median may be worse than the baseline's by at most the
    metric's bound;
  * across host classes absolute numbers do not compare, so each workload's
    ratio is divided by the smallest ratio of that metric over all workloads
    (the host factor), and the result may exceed 1 + bound by at most a
    further 25%. A uniform change across every workload then cannot be told
    from a host difference; a change to one workload still shows, whatever
    the two hosts' core counts are.

Exit status: 0 pass, 1 regression / failure / missing data, 3 nothing to
compare (for instance a single workload across host classes).
"""

import copy
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CROSS_CLASS_SLACK = 1.25


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_records(directory):
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            records.append(rec)
    return records


def host_class(rec):
    h = rec["detail"]["host"]
    caches = tuple((c["level"], c["type"], c["size"], c["shared"]) for c in h["caches"])
    return (h["cpu_model"], h["nproc"], caches, h["isa"])


def by_workload(records):
    out = {}
    for rec in records:
        out.setdefault(rec["workload"], []).append(rec)
    return out


def worse_ratio(base, cand, better):
    """How much worse cand is than base, as a factor (> 1 = worse)."""
    if better == "lower":
        return cand / base if base > 0 else float("inf")
    return base / cand if cand > 0 else float("inf")


def compare(base_records, cand_records, bench):
    """Returns (status, findings): status 0 pass, 1 fail, 3 unresolved."""
    if not base_records or not cand_records:
        return 3, ["UNRESOLVED no untraced results on one side"]
    findings = []
    failed = False
    metrics = bench["end_to_end"]
    base = by_workload(base_records)
    cand = by_workload(cand_records)
    for rec in cand_records:
        res = rec["result"]
        if not res.get("correct") or res.get("failed", 1) != 0:
            findings.append(f"FAIL {rec['workload']} seed {rec['seed']}: "
                            f"{res.get('failed')} of {res.get('attempted')} queries failed")
            failed = True
        for m in metrics:
            if m["name"] not in res.get("metrics", {}):
                findings.append(f"FAIL {rec['workload']} seed {rec['seed']}: "
                                f"metric {m['name']} missing")
                failed = True
    for wl in base:
        if wl not in cand:
            findings.append(f"FAIL workload {wl} missing from the candidate")
            failed = True
    workloads = [wl for wl in base if wl in cand]
    classes = {host_class(r) for r in base_records} | {host_class(r) for r in cand_records}
    same_class = len(classes) == 1
    if not same_class and len(workloads) < 2:
        findings.append("UNRESOLVED host classes differ and fewer than two workloads "
                        "remain to separate a host factor")
        return (1 if failed else 3), findings

    for m in metrics:
        name = m["name"]
        ratios = {}
        for wl in workloads:
            b = [r["result"]["metrics"][name]["value"] for r in base[wl]
                 if name in r["result"].get("metrics", {})]
            c = [r["result"]["metrics"][name]["value"] for r in cand[wl]
                 if name in r["result"].get("metrics", {})]
            if b and c:
                ratios[wl] = (statistics.median(b), statistics.median(c),
                              worse_ratio(statistics.median(b), statistics.median(c),
                                          m["better"]))
        if not ratios:
            continue
        factor = 1.0 if same_class else min(r[2] for r in ratios.values())
        limit = (1 + m["bound"]) * (1.0 if same_class else CROSS_CLASS_SLACK)
        for wl, (b, c, ratio) in ratios.items():
            rel = ratio / factor if factor > 0 else float("inf")
            verdict = "ok" if rel <= limit else "FAIL"
            failed |= verdict == "FAIL"
            findings.append(f"{verdict:4s} {wl:12s} {name:16s} base {b:.6g} cand {c:.6g} "
                            f"worse x{rel:.3f} (limit x{limit:.3f}"
                            f"{'' if same_class else f', host factor {factor:.3f}'})")
    return (1 if failed else 0), findings


def spread(records, bench):
    """Per workload and metric: median and interquartile range / median."""
    lines = []
    for wl, recs in sorted(by_workload(records).items()):
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in recs
                    if m["name"] in r["result"].get("metrics", {})]
            if len(vals) < 2:
                continue
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            s = (q[2] - q[0]) / med if med else float("inf")
            third = "ok" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "OVER")
            lines.append(f"{wl:12s} {m['name']:16s} n={len(vals):2d} median {med:.6g} "
                         f"iqr/median {s:.4f} bound {m['bound']} [{third}]")
    return lines


# --- self-test ---------------------------------------------------------------

def synthetic_records(bench, nproc):
    """Plausible untraced records: three workloads x five seeds."""
    typical = {
        "project_4m": {"setup_s": 1.4, "qps": 1.3, "query_p50_ms": 740, "query_tail_ms": 650,
                       "cd_p50_ms": 800, "peak_rss_mb": 430},
        "stream_16m": {"setup_s": 2.3, "qps": 0.45, "query_p50_ms": 2200, "query_tail_ms": 2000,
                       "cd_p50_ms": 2200, "peak_rss_mb": 1930},
        "serve_mix": {"setup_s": 0.013, "qps": 1050, "query_p50_ms": 0.75, "query_tail_ms": 7.9,
                      "cd_p50_ms": 2.3, "peak_rss_mb": 38},
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    host = {"cpu_model": "Synthetic CPU", "nproc": nproc, "isa": "avx2",
            "caches": [{"level": "2", "type": "Unified", "size": "2048K", "shared": False},
                       {"level": "3", "type": "Unified", "size": "32768K", "shared": True}]}
    records = []
    for wl, values in typical.items():
        for seed in range(1, 6):
            jitter = 1 + 0.02 * ((seed * 7) % 5 - 2) / 2
            metrics = {k: {"value": v * jitter, "unit": units[k]} for k, v in values.items()}
            records.append({"workload": wl, "seed": seed, "trace": 0,
                            "detail": {"host": copy.deepcopy(host)},
                            "result": {"correct": True, "attempted": 100, "failed": 0,
                                       "metrics": metrics}})
    return records


def on_other_host(records, bench, nproc, speed):
    """The same results as measured on a host with another core count that
    is uniformly `speed` times faster."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    out = copy.deepcopy(records)
    for rec in out:
        rec["detail"]["host"]["nproc"] = nproc
        for name, m in rec["result"]["metrics"].items():
            if better.get(name) == "lower" and name != "peak_rss_mb":
                m["value"] /= speed
            elif better.get(name) == "higher":
                m["value"] *= speed
    return out


def self_test(base_dir=None):
    bench = load_benchmark()
    base = load_records(base_dir) if base_dir else synthetic_records(bench, nproc=4)
    if not base:
        print(f"self-test: no untraced results in {base_dir}")
        return 1
    workload = sorted(by_workload(base))[0]
    nproc = base[0]["detail"]["host"]["nproc"]

    def doctor_p50(records):
        out = copy.deepcopy(records)
        for rec in out:
            if rec["workload"] == workload:
                rec["result"]["metrics"]["query_p50_ms"]["value"] *= 2
        return out

    def doctor_failed(records):
        out = copy.deepcopy(records)
        out[0]["result"]["failed"] = 1
        out[0]["result"]["correct"] = False
        return out

    def doctor_missing(records):
        out = copy.deepcopy(records)
        del out[0]["result"]["metrics"]["cd_p50_ms"]
        return out

    other = nproc * 2 if nproc > 1 else 4
    cases = [
        ("unchanged, same host", base, 0),
        (f"unchanged, {other} cores and 1.6x faster", on_other_host(base, bench, other, 1.6), 0),
    ]
    for label, doctor in (("2x query_p50_ms on " + workload, doctor_p50),
                          ("a failed query", doctor_failed),
                          ("a missing metric", doctor_missing)):
        cases.append((f"{label}, same host", doctor(base), 1))
        cases.append((f"{label}, {other} cores",
                      on_other_host(doctor(base), bench, other, 1.6), 1))
    bad = 0
    for label, cand, expected in cases:
        status, findings = compare(base, cand, bench)
        caught = status != 0
        ok = caught == (expected != 0)
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} {label}: "
              f"{'caught' if caught else 'accepted'} (status {status})")
        if not ok:
            print("\n".join("    " + f for f in findings))
    print(f"self-test: {len(cases) - bad}/{len(cases)} cases behave")
    return 1 if bad else 0


def main(argv):
    if len(argv) >= 1 and argv[0] == "--self-test":
        return self_test(argv[1] if len(argv) > 1 else None)
    if len(argv) == 2 and argv[0] == "--spread":
        print("\n".join(spread(load_records(argv[1]), load_benchmark())))
        return 0
    if len(argv) == 2:
        status, findings = compare(load_records(argv[0]), load_records(argv[1]),
                                   load_benchmark())
        print("\n".join(findings))
        return status
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
