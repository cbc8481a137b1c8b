#!/usr/bin/env python3
"""Tooling for the repository benchmark (perfbench/run.py).

    python3 perfbench/check.py counters A.json B.json
        Compare the deterministic work counters of two reports written
        by run.py (.bench_out/*.json) for one workload at one seed:
        the "counters" section, every metric counted in "count", and
        the seed-determined provenance (dataset identity, input sizes).
        Equal counters mean the two runs did the same work, so a timing
        difference between them is speed, not work. Prints every
        counter that differs; exits 1 if any does.

    python3 perfbench/check.py smoke
        Smoke test of the benchmark itself at tiny inputs: every
        workload runs twice untraced and once traced; each result line
        must carry exactly the metrics BENCHMARK.json declares, each
        with its unit, with no failed operation, and the counters must
        repeat exactly between the two untraced invocations and agree
        with the traced one. Exits 1 on the first problem found.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("deanon", "payments", "consensus")
SMOKE_SEED = 5

# Provenance fields fixed by the workload and seed.
DETERMINISTIC_PROVENANCE = (
    "workload", "seed", "size", "dataset_key", "columns_fingerprint", "result_digest",
    "history_payments", "history_accounts", "accounts", "trust_lines",
    "offers", "stream_payments", "node_txs", "rounds_per_pass", "validators",
)


def work_counters(report):
    """Every deterministic count a report carries, by name."""
    counters = {f"counters.{k}": v for k, v in report["counters"].items()}
    counters.update({f"metrics.{k}": m["value"] for k, m in report["metrics"].items()
                     if m["unit"] == "count"})
    counters.update({f"provenance.{k}": report["provenance"][k]
                     for k in DETERMINISTIC_PROVENANCE if k in report["provenance"]})
    return counters


def counter_differences(a, b):
    ca, cb = work_counters(a), work_counters(b)
    return [f"{name}: {ca[name]} != {cb[name]}"
            for name in sorted(ca.keys() & cb.keys()) if ca[name] != cb[name]]


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print(f"reports differ in workload or seed: {a['workload']}@{a['seed']} vs "
              f"{b['workload']}@{b['seed']}; counters compare only at one seed")
        return 1
    shared = work_counters(a).keys() & work_counters(b).keys()
    differences = counter_differences(a, b)
    for line in differences:
        print(f"COUNTER DIFFERS  {line}")
    print(f"{len(shared)} counters compared, {len(differences)} differ")
    return 1 if differences else 0


def run(workload, trace):
    """One tiny invocation; returns (result line, full report)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SMOKE_SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit code {done.returncode}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{SMOKE_SEED}-trace{trace}-tiny"
    report = json.loads((ROOT / ".bench_out" / f"{stem}.json").read_text())
    return line, report


def check_line(bench, workload, trace, line):
    where = f"{workload} trace {trace}"
    if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{where}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
        raise AssertionError(f"{where}: correct={line['correct']} "
                             f"failed={line['failed']} attempted={line['attempted']}")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    if [m["name"] for m in declared] != list(line["metrics"]):
        raise AssertionError(f"{where}: metrics {list(line['metrics'])}")
    for metric in declared:
        got = line["metrics"][metric["name"]]
        if got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{where}: {metric['name']} = {got}")


def smoke():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for workload in WORKLOADS:
            first, first_report = run(workload, 0)
            second, second_report = run(workload, 0)
            traced, traced_report = run(workload, 1)
            for trace, line in ((0, first), (0, second), (1, traced)):
                check_line(bench, workload, trace, line)
            for label, other in (("second untraced", second_report),
                                 ("traced", traced_report)):
                differences = counter_differences(first_report, other)
                if differences:
                    raise AssertionError(f"{workload}: {label} run did other work: "
                                         f"{differences}")
            print(f"smoke {workload}: {len(first['metrics'])} end-to-end and "
                  f"{len(traced['metrics'])} per-layer metrics with units, 0 failed, "
                  f"{len(work_counters(first_report))} counters repeat")
    except AssertionError as problem:
        print(f"SMOKE FAILED: {problem}")
        return 1
    print("smoke OK")
    return 0


def main(argv):
    if argv[:1] == ["counters"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv == ["smoke"]:
        return smoke()
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
