"""Driver for the three static-analysis passes (DESIGN.md §14).

Tree mode (default) analyzes the repository and writes deterministic
artifacts — `include_graph.dot` and `stats.json` — into `--out`
(default `build/analyze`):

  layer-graph     src/ include graph vs. the declared module DAG
  capture-race    shared-mutable captures in parallel bodies
                  (src/ + bench/ + examples/)
  global-state    mutable namespace-scope variables in src/
                  (src/util and src/obs own the sanctioned state)

Self-test mode (`--self-test`) proves every pass both fires on its
committed bad fixture and stays silent on its good one — the same
contract tools/lint.py --self-test keeps.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import sys
from pathlib import Path

from tools.analyze import captures, cxxtok, globals_pass, layers
from tools.analyze.report import Annotations, Finding

REPO = Path(__file__).resolve().parent.parent.parent
FIXTURES = REPO / "tests" / "analyze" / "fixtures"
SOURCE_SUFFIXES = (".hpp", ".h", ".cpp", ".cc")

CAPTURE_ROOTS = ("src", "bench", "examples")
GLOBAL_EXEMPT = ("util", "obs")  # src/<module> dirs owning global state


def _files(root):
    for path in sorted(root.rglob("*")):
        if path.suffix in SOURCE_SUFFIXES and path.is_file():
            yield path


def analyze_tree(out_dir):
    findings = []

    layer_findings, edges, file_counts = layers.check(REPO / "src")
    findings.extend(layer_findings)

    # capture + global passes share one annotation ledger per file so
    # a stale `// analyze-shared` is reported exactly once.
    for root_name in CAPTURE_ROOTS:
        for path in _files(REPO / root_name):
            rel = path.relative_to(REPO).as_posix()
            text = path.read_text(encoding="utf-8")
            annotations = Annotations(cxxtok.comment_lines(text))
            findings.extend(captures.check_file(rel, text, annotations))
            if root_name == "src" and \
                    path.relative_to(REPO / "src").parts[0] not in GLOBAL_EXEMPT:
                findings.extend(globals_pass.check_file(rel, text, annotations))
            for line, why in annotations.stale():
                findings.append(Finding(rel, line, "stale-annotation",
                                        f"`// analyze-shared` annotation {why}"))

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "include_graph.dot").write_text(
            layers.to_dot(edges, file_counts), encoding="utf-8")
        (out_dir / "stats.json").write_text(
            json.dumps({
                "modules": layers.stats(edges, file_counts),
                "findings": len(findings),
                "rules": sorted({f.rule for f in findings}),
            }, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)
    scanned = sum(1 for root in CAPTURE_ROOTS for _ in _files(REPO / root))
    print(f"analyze: {scanned} files scanned, "
          f"{len(layers.allowed_dependencies())} modules in the DAG, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


# Every fixture maps to the exact rule set it must trigger; the good
# fixtures prove the passes don't cry wolf. Directory fixtures run the
# layer pass (over `<fixture>/src`); file fixtures run capture +
# global passes, mirroring tree mode.
SELF_TEST_EXPECTATIONS = {
    "layer_good": set(),
    "layer_bad": {"layer-edge", "layer-cycle"},
    "capture_good.cpp": set(),
    "capture_bad.cpp": {"capture-race"},
    "capture_stale.cpp": {"stale-annotation"},
    "globals_good.cpp": set(),
    "globals_bad.cpp": {"global-state"},
    "globals_braced_bad.cpp": {"global-state"},
}


def _fixture_rules(name):
    path = FIXTURES / name
    if not path.exists():
        return None
    if path.is_dir():
        findings, _, _ = layers.check(path / "src")
        return {f.rule for f in findings}
    text = path.read_text(encoding="utf-8")
    annotations = Annotations(cxxtok.comment_lines(text))
    findings = captures.check_file(name, text, annotations)
    findings.extend(globals_pass.check_file(name, text, annotations))
    findings.extend(Finding(name, line, "stale-annotation", why)
                    for line, why in annotations.stale())
    return {f.rule for f in findings}


def run_self_test():
    failures = []
    for name, expected in sorted(SELF_TEST_EXPECTATIONS.items()):
        got = _fixture_rules(name)
        if got is None:
            failures.append(f"{name}: fixture missing")
        elif got != expected:
            failures.append(f"{name}: expected rules {sorted(expected)}, "
                            f"got {sorted(got)}")
    for failure in failures:
        print(f"analyze --self-test: {failure}")
    print(f"analyze --self-test: {len(SELF_TEST_EXPECTATIONS)} fixtures, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tools/analyze",
                                     description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="check each committed fixture triggers exactly "
                             "its expected rules")
    parser.add_argument("--out", default=str(REPO / "build" / "analyze"),
                        help="directory for include_graph.dot + stats.json "
                             "(tree mode; default build/analyze)")
    parser.add_argument("--no-artifacts", action="store_true",
                        help="skip writing DOT/JSON artifacts")
    args = parser.parse_args(argv)
    if args.self_test:
        return run_self_test()
    return analyze_tree(None if args.no_artifacts else args.out)
