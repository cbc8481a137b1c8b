"""Pass 1 — layer-graph: the src/ include graph against the declared
module DAG.

The declared architecture (DESIGN.md §14):

    util → {ledger, obs, exec} → snap → core → {consensus, paths,
    analytics, datagen} → node        (tests/bench/examples on top)

snap is the XCOL snapshot codec + dataset cache: it persists what
ledger stores through exec's pool, and datagen (the producer) and the
consumer layers above reach DOWN to it — never the reverse, so a
format change can never ripple below the persistence boundary.

Layer sets are shorthand for "may depend on every module in a lower
layer"; the two deliberate intra-layer edges are declared explicitly
below. Anything else — an upward edge, an undeclared sibling edge, or
a cycle — fails the build, because a stateful dependency smuggled into
a leaf module is one of the two structural ways thread-count can leak
into results (the other is pass 2's shared captures).

Besides the gate, the pass emits a deterministic DOT rendering of the
observed graph and per-module fan-in/fan-out stats (consumed by the
CI artifact upload).
"""

from pathlib import Path

from tools.analyze import cxxtok
from tools.analyze.report import Finding

LAYERS = [
    ["util"],
    ["ledger", "obs", "exec"],
    ["snap"],
    ["core"],
    ["consensus", "paths", "analytics", "datagen"],
    ["node"],
]

# The two intra-layer edges the architecture commits to:
#   exec → obs      the pool records its own batch/queue metrics;
#   datagen → paths the generator drives the payment engine to settle
#                   every synthetic payment it emits.
INTRA_LAYER_EDGES = {
    ("exec", "obs"),
    ("datagen", "paths"),
}


def allowed_dependencies():
    """module -> set of modules it may include, expanded from the
    layer diagram plus the declared intra-layer edges."""
    allowed = {}
    below = set()
    for layer in LAYERS:
        for module in layer:
            allowed[module] = set(below)
        below.update(layer)
    for src, dst in INTRA_LAYER_EDGES:
        allowed[src].add(dst)
    return allowed


def module_of(rel_path):
    return rel_path.parts[0]


def scan_include_graph(src_root):
    """Walk src_root and return (edges, file_counts, findings) where
    edges maps (from_module, to_module) -> [(relpath, line, target)]."""
    src_root = Path(src_root)
    edges = {}
    file_counts = {}
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in (".hpp", ".h", ".cpp", ".cc") or not path.is_file():
            continue
        rel = path.relative_to(src_root)
        mod = module_of(rel)
        file_counts[mod] = file_counts.get(mod, 0) + 1
        text = path.read_text(encoding="utf-8")
        for line, style, target in cxxtok.extract_includes(text):
            if style != '"':
                continue
            resolved = src_root / target
            if not resolved.exists():
                continue  # lint.py owns include resolution diagnostics
            dst = module_of(Path(target))
            if dst == mod:
                continue
            edges.setdefault((mod, dst), []).append((rel.as_posix(), line, target))
    return edges, file_counts


def check(src_root):
    edges, file_counts = scan_include_graph(src_root)
    allowed = allowed_dependencies()
    findings = []

    for (src, dst), sites in sorted(edges.items()):
        known = src in allowed and dst in allowed
        if known and dst in allowed[src]:
            continue
        for rel, line, target in sites:
            if not known:
                message = (f'include of "{target}" crosses into '
                           f"undeclared module '{dst}'" if dst not in allowed
                           else f"module '{src}' is not in the declared DAG")
            else:
                message = (f'"{target}": {src} → {dst} is not a declared '
                           "edge of the module DAG (DESIGN.md §14) — "
                           "an upward or sibling dependency")
            findings.append(Finding(f"src/{rel}", line, "layer-edge", message))

    for cycle in find_cycles({s: {d for (s2, d) in edges if s2 == s}
                              for s in {s for s, _ in edges}}):
        findings.append(Finding("src", 0, "layer-cycle",
                                "include cycle: " + " → ".join(cycle)))
    return findings, edges, file_counts


def find_cycles(graph):
    """Deterministic list of module cycles (each reported once, from
    its lexicographically smallest node)."""
    cycles = []
    visiting, done = set(), set()

    def visit(node, stack):
        visiting.add(node)
        stack.append(node)
        for succ in sorted(graph.get(node, ())):
            if succ in visiting:
                cycle = stack[stack.index(succ):] + [succ]
                pivot = cycle.index(min(cycle[:-1]))
                normal = cycle[:-1][pivot:] + cycle[:-1][:pivot]
                normal.append(normal[0])
                if normal not in cycles:
                    cycles.append(normal)
            elif succ not in done:
                visit(succ, stack)
        stack.pop()
        visiting.discard(node)
        done.add(node)

    for node in sorted(graph):
        if node not in done:
            visit(node, [])
    return cycles


def to_dot(edges, file_counts):
    """A deterministic GraphViz rendering: modules grouped by layer,
    one edge per module pair labelled with its include-site count."""
    lines = [
        "// Generated by tools/analyze — the OBSERVED src/ include graph.",
        "// Regenerate: cmake --build build --target analyze",
        "digraph include_graph {",
        "  rankdir=TB;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for depth, layer in enumerate(LAYERS):
        members = [m for m in layer if m in file_counts]
        if not members:
            continue
        lines.append(f"  {{ rank=same; // layer {depth}")
        for mod in members:
            lines.append(f'    {mod} [label="{mod}\\n{file_counts[mod]} files"];')
        lines.append("  }")
    for (src, dst), sites in sorted(edges.items()):
        lines.append(f'  {src} -> {dst} [label="{len(sites)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def stats(edges, file_counts):
    """Per-module fan-in/fan-out for the JSON artifact."""
    modules = sorted(set(file_counts) |
                     {s for s, _ in edges} | {d for _, d in edges})
    out = {}
    for mod in modules:
        deps = sorted(d for (s, d) in edges if s == mod)
        dependents = sorted(s for (s, d) in edges if d == mod)
        out[mod] = {
            "files": file_counts.get(mod, 0),
            "fan_out": deps,
            "fan_in": dependents,
            "include_sites_out": sum(len(sites) for (s, _), sites
                                     in edges.items() if s == mod),
        }
    return out
