"""Pass 3 — global-state: mutable namespace-scope variables.

A hidden mutable global is the other channel (besides pass 2's shared
captures) through which thread count or call order can leak into
results: two workers touching it race, and even a serial reader makes
output depend on what ran before. The tree's sanctioned global state
lives in exactly two places — the obs registry (`src/obs/`, interned
striped-atomic metrics, order-free by construction) and `src/util/`
(the options snapshot) — so those directories are exempt; everywhere
else a non-const namespace-scope (or `thread_local`) variable fails
the build unless carrying `// analyze-shared: <reason>`.

Function-local statics are out of scope here: the ones that matter
are the ones parallel bodies touch, and pass 2 catches exactly those.

Namespace-scope detection walks the brace structure: a `{` opens a
namespace scope when its introducer contains `namespace` (or
`extern "C"`); every other brace — function bodies, class bodies,
initializers — hides its contents from this pass.
"""

from tools.analyze import cxxtok
from tools.analyze.report import Finding

_SKIP_STARTERS = {
    "using", "typedef", "friend", "template", "static_assert", "asm",
    "concept", "requires", "namespace",
}
_TYPE_KEYS = {"class", "struct", "union", "enum"}


def _code_toks(toks):
    return [t for t in toks if t.kind != "comment"]


def _skip_balanced(toks, i, open_text, close_text):
    depth = 0
    while i < len(toks):
        if toks[i].text == open_text:
            depth += 1
        elif toks[i].text == close_text:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(toks)


def _opens_initializer(stmt):
    """Whether a `{` following `stmt` starts a brace initializer
    (`T g{1}`, `T g = T{1}`, `T g(T{1})`) rather than a function,
    class or enum body: the statement holds an `=` outside parentheses
    (a function's default arguments sit inside them; a template head's
    are not counted), or it holds neither a `)` nor a class key."""
    texts = [t.text for t in stmt]
    if not texts:
        return False  # a body right after a constructor's `x_{1}`
    depth = 0
    for text in texts:
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
        elif text == "=" and depth == 0 and texts[0] != "template":
            return True
    return ")" not in texts and not _TYPE_KEYS.intersection(texts)


def _statement_findings(path, stmt):
    """Classify one namespace-scope `...;` statement; return a Finding
    for a mutable variable definition, else None."""
    texts = [t.text for t in stmt]
    if not texts:
        return None
    if texts[0] in _SKIP_STARTERS or "operator" in texts:
        return None
    # `class Foo;` forward declarations and enum/struct definitions.
    if texts[0] in _TYPE_KEYS or (len(texts) > 1 and texts[0] == "inline"
                                  and texts[1] in _TYPE_KEYS):
        return None
    if "#" in texts:  # preprocessor directive swept into the stream
        return None
    if "constexpr" in texts or "consteval" in texts:
        return None
    # Function declarations / definitions: an identifier directly
    # followed by '(' with no '=' anywhere before it.
    if "(" in texts:
        paren = texts.index("(")
        if "=" not in texts[:paren] and paren > 0 and \
                stmt[paren - 1].kind == "id":
            return None
    # The declared name: last identifier of the declarator — before
    # '=', '[', or end. Only declarator tokens matter from here on;
    # an initializer's '*' is multiplication, not a pointer.
    cut = len(stmt)
    for stop in ("=", "["):
        if stop in texts:
            cut = min(cut, texts.index(stop))
    decl, decl_texts = stmt[:cut], texts[:cut]
    name = None
    name_idx = None
    for idx in range(len(decl) - 1, -1, -1):
        t = decl[idx]
        if t.kind == "id" and t.text not in ("thread_local", "static",
                                             "inline", "extern", "constinit",
                                             "volatile", "mutable", "const"):
            name, name_idx = t, idx
            break
    if name is None:
        return None
    if "const" in decl_texts:
        # A const OBJECT is fine; `const char* g` — a mutable pointer
        # to const — is not. Pointer-ness is the '*' directly left of
        # the name (cv-qualifiers in between make the pointer const).
        walk = name_idx - 1
        pointer_is_const = False
        while walk >= 0 and decl[walk].text in ("const", "volatile"):
            pointer_is_const = True
            walk -= 1
        mutable_pointer = (walk >= 0 and decl[walk].text == "*"
                           and not pointer_is_const)
        if not mutable_pointer:
            return None
    kind = ("thread_local variable" if "thread_local" in texts
            else "namespace-scope variable")
    return Finding(path, name.line, "global-state",
                   f"mutable {kind} '{name.text}' — hidden shared state "
                   "makes results depend on execution order; intern it in "
                   "the obs registry, thread it through parameters, or "
                   "annotate with `// analyze-shared: <reason>`")


def check_file(path, text, annotations):
    """`annotations` is the file's shared Annotations ledger; stale
    entries are reported by the caller after all passes ran."""
    toks = _drop_directives(_code_toks(cxxtok.tokenize(text)))
    findings = []
    # scope stack entries: True = namespace-like (contents visible)
    scopes = [True]
    stmt = []
    i = 0
    while i < len(toks):
        t = toks[i]
        if not scopes[-1]:
            i += 1
            continue  # unreachable: non-ns scopes are skipped wholesale
        if t.text == "{":
            introducer = [x.text for x in stmt]
            if "namespace" in introducer or \
                    ("extern" in introducer and len(stmt) >= 2
                     and stmt[1].kind == "str"):
                scopes.append(True)
                stmt = []
                i += 1
            elif _opens_initializer(stmt):
                # brace initializer inside the statement
                i = _skip_balanced(toks, i, "{", "}")
            else:
                # function body, class body, enum body, lambda...
                stmt = []
                i = _skip_balanced(toks, i, "{", "}")
                # ...consume a trailing ';' (class defs) silently
                if i < len(toks) and toks[i].text == ";":
                    i += 1
            continue
        if t.text == "}":
            if len(scopes) > 1:
                scopes.pop()
            stmt = []
            i += 1
            continue
        if t.text == ";":
            finding = _statement_findings(path, stmt)
            if finding is not None and not annotations.suppresses(finding.line):
                findings.append(finding)
            stmt = []
            i += 1
            continue
        stmt.append(t)
        i += 1
    return findings


def _drop_directives(toks):
    """Remove preprocessor-directive tokens: a '#' opening its line
    swallows the rest of that line (so `#include <vector>` never
    bleeds '<vector>' into a namespace-scope statement)."""
    out = []
    skip_line = None
    prev_line = 0
    for tok in toks:
        if tok.line == skip_line:
            continue
        skip_line = None
        if tok.text == "#" and tok.kind == "punct" and tok.line != prev_line:
            skip_line = tok.line
            prev_line = tok.line
            continue
        prev_line = tok.line
        out.append(tok)
    return out
