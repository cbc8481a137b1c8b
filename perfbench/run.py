#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload deanon|payments|consensus \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere; paths resolve against the checkout that holds this
file. On first use it configures and builds perfbench/ — which compiles
the program from src/ in Release — into .bench_build/perfbench, then
runs the workload in one process: closed loop, one caller, with
XRPL_THREADS set to the CPUs this process may use and no dataset cache.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, measured with spans and the
program's obs metrics off; with --trace 1 they are its per_layer list,
from traced passes (a per-layer metric of a layer the workload does not
exercise reads 0; perfbench/layers.json says which apply where).

The full report — every metric, the headline rates under the
workload's own names, the deterministic work counters, per-layer self
times and provenance — is written to .bench_out/<workload>-seed<N>-
trace<T>.json, and a traced run's spans to the matching .spans.json.
perfbench/check.py compares the counters of two reports and runs the
smoke test.

Exits 2 without printing a result when the program's sources, the
build or the run fail.
"""
import argparse
import fcntl
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("deanon", "payments", "consensus")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny inputs are for perfbench/check.py smoke")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        parser.error("--seed must be in [0, 2^64) and --seconds >= 1")
    return args


def load_definitions():
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        layers = json.loads((HERE / "layers.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read the benchmark definition: {error}")
    listed = {metric["name"] for metric in bench["per_layer"]}
    if listed != set(layers["per_layer"]):
        fail("BENCHMARK.json and perfbench/layers.json list different "
             f"per-layer metrics: {sorted(listed ^ set(layers['per_layer']))}")
    return bench, layers


def cpus():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found at {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # Concurrent invocations in one checkout share the build directory.
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(cpus())])
        # Compiler temporaries stay inside the checkout too.
        scratch = BUILD_DIR / "tmp"
        scratch.mkdir(exist_ok=True)
        env = dict(os.environ, TMPDIR=str(scratch))
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode:
                fail("build failed: " + " ".join(step))
    return BUILD_DIR / "xrpl_perfbench"


def source_digest():
    """sha256 over the program and benchmark sources, so a report names
    the code it measured even where no git metadata exists."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(binary, args, raw_path, spans_path):
    env = dict(os.environ)
    env["XRPL_THREADS"] = str(cpus())
    env["XRPL_OBS"] = str(args.trace)
    env.pop("XRPL_DATASET_DIR", None)  # set-up always pays generation
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--report", str(raw_path)]
    if args.trace:
        command += ["--spans", str(spans_path)]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=3 * args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        fail(f"{args.workload} exited with code {done.returncode}")
    return json.loads(raw_path.read_text())


def result_metrics(bench, layers, args, report):
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    measured = report["metrics"]
    result = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name} measured in {measured[name]['unit']}, declared in {unit}")
            result[name] = {"value": measured[name]["value"], "unit": unit}
        elif args.trace and args.workload not in layers["per_layer"][name]["workloads"]:
            result[name] = {"value": 0.0, "unit": unit}  # layer idle here
        else:
            fail(f"{args.workload} did not report {name}")
    return result


def main(argv):
    # A terminated run must still stop and reap its children: turn
    # SIGTERM into an exception, on which subprocess.run kills and waits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    bench, layers = load_definitions()
    binary = build()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        stem += f"-{args.size}"
    raw_path = OUT_DIR / f"{stem}.raw.json"
    spans_path = OUT_DIR / f"{stem}.spans.json"
    report = run_workload(binary, args, raw_path, spans_path)
    raw_path.unlink()

    metrics = result_metrics(bench, layers, args, report)
    attempted, failed = report["attempted"], report["failed"]
    mismatches = report["counter_mismatches"]
    correct = attempted >= 1 and failed == 0 and not mismatches

    provenance = dict(report["provenance"])
    provenance.update({"commit": git_commit(), "source_sha256": source_digest(),
                       "python": platform.python_version(),
                       "machine": platform.machine(), "cpus": cpus()})
    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "result": metrics, "metrics": report["metrics"],
        "counters": report["counters"], "counter_mismatches": mismatches,
        "self_seconds": report["self_seconds"], "passes": report["passes"],
        "provenance": provenance,
        "spans": str(spans_path.relative_to(ROOT)) if args.trace else None,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n")

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed, correct={correct}")
    if mismatches:
        print(f"  counters differ between passes: {mismatches}")
    for name, value in sorted(report["metrics"].items()):
        print(f"  {name:36} {value['value']:.6g} {value['unit']}")
    print(f"  report: {(OUT_DIR / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
