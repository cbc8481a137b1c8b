"""Pass 2 — capture-race: shared-mutable captures in parallel bodies.

Every lambda handed to the deterministic-execution entry points —
`exec::parallel_for`, `exec::map_reduce`, `ThreadPool::shared().run`
— executes concurrently on the pool. The determinism contract
(DESIGN.md §11) allows exactly two ways for such a body to produce
output:

  1. disjoint per-slot writes (`out[i] = ...`, the slot indexed by
     state the body owns), and
  2. returning a chunk partial that `map_reduce` folds in chunk order.

This pass flags everything else: a by-reference-captured (or
enclosing-scope `static`) name that the body writes — plain or
compound assignment, increment/decrement, or a known mutating member
call — without going through a subscripted slot. Such a write is a
race, or worse: a thread-count-dependent result that TSan cannot see
because the accesses happen to be atomic.

Deliberately shared state (an order-free obs histogram, a
striped-atomic counter) is allowlisted per line with

    // analyze-shared: <reason>

and a stale annotation is itself an error (report.Annotations).

Heuristics, stated honestly: this is a tokenizer-level analysis, not a
compiler. Names declared inside the body are recognized by the
`<type-ish token> name [=;({]` shape; writes through a function call
(`f(x)` mutating x) are invisible. The committed fixtures pin exactly
what fires and what stays silent.
"""

from tools.analyze import cxxtok
from tools.analyze.report import Finding

# Member calls that mutate their object. `add`, `record`, and `set`
# are the obs metric mutators — shared by design, which is precisely
# why a use inside a parallel body must carry an annotation.
MUTATING_METHODS = {
    "push_back", "emplace_back", "emplace", "insert", "erase", "clear",
    "resize", "pop_back", "assign", "append", "push", "pop", "merge",
    "try_emplace", "add", "record", "set", "store",
}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}

# Keywords that can precede an identifier without declaring it.
_NON_TYPE_KEYWORDS = {
    "return", "new", "delete", "else", "do", "goto", "case", "throw",
    "co_return", "co_yield", "co_await", "sizeof", "typeid", "not",
    "and", "or",
}


def _code_toks(toks):
    return [t for t in toks if t.kind != "comment"]


def _match_forward(toks, i, open_text, close_text):
    """Index of the token closing the bracket opened at i."""
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == open_text:
            depth += 1
        elif toks[j].text == close_text:
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


def _entry_call_sites(toks):
    """Indices of the '(' opening each parallel entry-point call:
    parallel_for(...), map_reduce[<...>](...),
    ThreadPool::shared().run(...)."""
    sites = []
    for i, tok in enumerate(toks):
        if tok.kind != "id":
            continue
        if tok.text == "parallel_for":
            if i + 1 < len(toks) and toks[i + 1].text == "(":
                sites.append(i + 1)
        elif tok.text == "map_reduce":
            j = i + 1
            if j < len(toks) and toks[j].text == "<":
                j = _match_forward(toks, j, "<", ">") + 1
            if j < len(toks) and toks[j].text == "(":
                sites.append(j)
        elif tok.text == "run":
            # ... shared ( ) . run (
            if (i + 1 < len(toks) and toks[i + 1].text == "(" and i >= 4
                    and toks[i - 1].text == "."
                    and toks[i - 2].text == ")"
                    and toks[i - 3].text == "("
                    and toks[i - 4].text == "shared"):
                sites.append(i + 1)
    return sites


# Heads of a brace that opens a scope OTHER than a block: a static
# declared directly inside one of these is visible file-wide.
_NON_BLOCK_HEADS = {"namespace", "extern", "class", "struct", "union",
                    "enum"}


def _opens_block(toks, k):
    """True when the '{' at k opens a function body (or a block nested
    in one); False for namespace, linkage and class/enum bodies. The
    head is the statement before the brace, past any template<...>."""
    head = k - 1
    while head >= 0 and toks[head].text not in (";", "{", "}"):
        head -= 1
    head += 1
    if head < k and toks[head].text == "template":
        if head + 1 < k and toks[head + 1].text == "<":
            head = _match_forward(toks, head + 1, "<", ">") + 1
    return head >= k or toks[head].text not in _NON_BLOCK_HEADS


def _static_mutables(toks):
    """(name, index, scope) for every non-const `static` local /
    file-scope variable declared in this file, where index is the
    declaration's token index and scope the (open, close) token indices
    of the enclosing block — None for a namespace- or class-scope
    static, which every later parallel body in the file can reach. Used to catch bodies touching
    function-local statics (shared across ALL threads and calls) that
    a capture list never mentions."""
    enclosing = []
    stack = []
    for tok in toks:
        enclosing.append(stack[-1] if stack else None)
        if tok.text == "{":
            stack.append(len(enclosing) - 1)
        elif tok.text == "}" and stack:
            stack.pop()

    statics = []
    i = 0
    while i < len(toks):
        if toks[i].text != "static" or toks[i].kind != "id":
            i += 1
            continue
        j = i + 1
        decl = []
        while j < len(toks) and toks[j].text not in (";", "{", "}"):
            decl.append(toks[j])
            if toks[j].text in ("=", "("):
                break
            j += 1
        if decl and decl[-1].text == "(":
            # `static T f(...)` — a function, not shared state. The
            # tree's static variables all initialize with `=`.
            i = j + 1
            continue
        if decl and decl[-1].text == "=":
            decl = decl[:-1]
        texts = [t.text for t in decl]
        if "const" in texts or "constexpr" in texts or not decl:
            i = j + 1
            continue
        name_tok = decl[-1]
        if name_tok.kind == "id" and name_tok.text not in _NON_TYPE_KEYWORDS:
            k = enclosing[i]
            scope = None
            if k is not None and _opens_block(toks, k):
                scope = (k, _match_forward(toks, k, "{", "}"))
            statics.append((name_tok.text, i, scope))
        i = j + 1
    return statics


class Lambda:
    def __init__(self, ref_default, ref_captures, value_captures, params,
                 body, capture_line):
        self.ref_default = ref_default
        self.ref_captures = ref_captures
        self.value_captures = value_captures
        self.params = params
        self.body = body  # token list
        self.capture_line = capture_line

    def captures_by_ref(self, name):
        if name in self.ref_captures:
            return True
        return self.ref_default and name not in self.value_captures


def _parse_lambdas(toks, begin, end):
    """Lambdas appearing as arguments (after '(' or ',') between
    begin and end."""
    lambdas = []
    i = begin
    while i < end:
        if toks[i].text != "[":
            i += 1
            continue
        prev = toks[i - 1].text if i > 0 else "("
        if prev not in ("(", ","):
            i += 1
            continue
        close = _match_forward(toks, i, "[", "]")
        ref_default = False
        ref_caps, val_caps = set(), set()
        j = i + 1
        while j < close:
            if toks[j].text == "&":
                if j + 1 < close and toks[j + 1].kind == "id":
                    ref_caps.add(toks[j + 1].text)
                    j += 2
                else:
                    ref_default = True
                    j += 1
            elif toks[j].kind == "id" and toks[j].text != "this":
                val_caps.add(toks[j].text)
                j += 1
            else:
                j += 1
            # skip init-capture initializers up to the next top-level comma
            if j < close and toks[j].text == "=":
                depth = 0
                while j < close:
                    if toks[j].text in ("(", "[", "{"):
                        depth += 1
                    elif toks[j].text in (")", "]", "}"):
                        depth -= 1
                    elif toks[j].text == "," and depth == 0:
                        break
                    j += 1
            if j < close and toks[j].text == ",":
                j += 1
        params = []
        j = close + 1
        if j < end and toks[j].text == "(":
            params_close = _match_forward(toks, j, "(", ")")
            depth = 0
            last_id = None
            for k in range(j + 1, params_close):
                t = toks[k]
                if t.text in ("(", "<", "["):
                    depth += 1
                elif t.text in (")", ">", "]"):
                    depth -= 1
                elif depth == 0 and t.kind == "id":
                    last_id = t.text
                elif depth == 0 and t.text == "," and last_id:
                    params.append(last_id)
                    last_id = None
            if last_id:
                params.append(last_id)
            j = params_close + 1
        while j < end and toks[j].text != "{":
            j += 1  # mutable/noexcept/-> ret
        if j >= end:
            i = close + 1
            continue
        body_close = _match_forward(toks, j, "{", "}")
        lambdas.append(Lambda(ref_default, ref_caps, val_caps, params,
                              toks[j + 1:body_close], toks[i].line))
        i = body_close + 1
    return lambdas


def _body_declarations(body, params):
    """Names the body owns: parameters plus locals declared inside.
    A declaration is `<id|>|&|*> name` followed by one of = ; ( {,
    plus structured bindings `auto [a, b]` and range-for bindings."""
    declared = set(params)
    for i, tok in enumerate(body):
        if tok.kind != "id" or tok.text in _NON_TYPE_KEYWORDS:
            continue
        nxt = body[i + 1].text if i + 1 < len(body) else ";"
        prev = body[i - 1] if i > 0 else None
        if prev is None:
            continue
        if nxt in ("=", ";", "{", "(", ":") and (
                (prev.kind == "id" and prev.text not in _NON_TYPE_KEYWORDS)
                or prev.text in (">", "&", "*", "&&")):
            declared.add(tok.text)
        # auto [a, b] = ... / for (auto& [k, v] : ...)
        if tok.text == "auto":
            j = i + 1
            while j < len(body) and body[j].text in ("&", "*", "&&", "const"):
                j += 1
            if j < len(body) and body[j].text == "[":
                close = _match_forward(body, j, "[", "]")
                for k in range(j + 1, close):
                    if body[k].kind == "id":
                        declared.add(body[k].text)
    return declared


def _lvalue_base(body, i):
    """Walk left from the operator at body[i] over member chains and
    subscripts; return (base_name or None, saw_subscript)."""
    j = i - 1
    saw_subscript = False
    while j >= 0:
        t = body[j]
        if t.text == "]":
            depth = 0
            while j >= 0:
                if body[j].text == "]":
                    depth += 1
                elif body[j].text == "[":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            saw_subscript = True
            j -= 1
        elif t.kind == "id":
            if j >= 1 and body[j - 1].text in (".", "->"):
                j -= 2
            else:
                return t.text, saw_subscript
        elif t.text == ")":
            return None, saw_subscript  # f(...) = — out of scope
        else:
            return None, saw_subscript
    return None, saw_subscript


def _shared_writes(lam, statics):
    """Yield (line, name, what) for each write in the body to a name
    the body does not own."""
    body = lam.body
    declared = _body_declarations(body, lam.params)

    def is_shared(name):
        if name is None or name in declared:
            return False
        return lam.captures_by_ref(name) or name in statics

    for i, tok in enumerate(body):
        if tok.text in ASSIGN_OPS and tok.kind == "punct":
            base, subscripted = _lvalue_base(body, i)
            if subscripted:
                continue  # disjoint per-slot write: the documented path
            if is_shared(base):
                yield (tok.line, base, f"'{base} {tok.text}' write")
        elif tok.text in ("++", "--"):
            neighbor = None
            if i + 1 < len(body) and body[i + 1].kind == "id":
                neighbor = i + 1
            elif i > 0 and body[i - 1].kind == "id":
                neighbor = i - 1
            if neighbor is None:
                continue
            name = body[neighbor].text
            after = body[neighbor + 1].text if neighbor + 1 < len(body) else ""
            if after == "[":
                continue  # ++slots[i] — subscripted slot
            if is_shared(name):
                yield (tok.line, name, f"'{tok.text}{name}'")
        elif (tok.kind == "id" and tok.text in MUTATING_METHODS
              and i + 1 < len(body) and body[i + 1].text == "("
              and i > 0 and body[i - 1].text in (".", "->")):
            base, subscripted = _lvalue_base(body, i - 1)
            if subscripted:
                continue
            if is_shared(base):
                yield (tok.line, base, f"mutating call '{base}.{tok.text}()'")

    # Any mention of a function-local static inside a parallel body is
    # shared state, written or not — statics outlive the call and are
    # visible to every worker; even a "read" of one that something else
    # mutates is order-dependent.
    for tok in body:
        if tok.kind == "id" and tok.text in statics and tok.text not in declared:
            yield (tok.line, tok.text,
                   f"function-local static '{tok.text}' touched")


def check_file(path, text, annotations):
    """Run the capture pass over one file's source text. `annotations`
    is the file's shared Annotations ledger (the caller reports stale
    entries once, after every pass has had its chance to use them)."""
    toks = _code_toks(cxxtok.tokenize(text))
    statics = _static_mutables(toks)
    findings = []
    seen = set()
    for open_paren in _entry_call_sites(toks):
        close = _match_forward(toks, open_paren, "(", ")")
        # Only statics declared before the call site, in a scope that
        # encloses it, can be reached: a function-local static is
        # invisible to a parallel body in another function.
        visible_statics = {
            name for name, index, scope in statics
            if index < open_paren
            and (scope is None or scope[0] < open_paren < scope[1])}
        for lam in _parse_lambdas(toks, open_paren + 1, close):
            for line, name, what in _shared_writes(lam, visible_statics):
                key = (line, name)
                if key in seen:
                    continue
                seen.add(key)
                if annotations.suppresses(line):
                    continue
                findings.append(Finding(
                    path, line, "capture-race",
                    f"{what} in a parallel body shares mutable state "
                    "across workers — write per-chunk slots / return a "
                    "partial for the ordered merge, or annotate the "
                    "line with `// analyze-shared: <reason>`"))
    return findings
