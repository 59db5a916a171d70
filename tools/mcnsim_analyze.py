#!/usr/bin/env python3
"""Shard-safety static analyzer for the mcnsim PDES engine.

The parallel engine (DESIGN.md §9) promises byte-identical output
for every --threads=N. That guarantee is a *property of the model
code*, not of the engine: one mutable process-global, one
pointer-ordered container iteration, one host-entropy read, and the
promise silently dies. This analyzer machine-checks the determinism
contract (DESIGN.md §11) across src/:

  R1 shard-static      No mutable namespace-scope or function-local
                       static/thread_local state in model code
                       unless the site carries an
                       MCNSIM_SHARD_SAFE("reason") annotation
                       (sim/annotate.hh) stating why it cannot leak
                       thread scheduling into modeled behaviour.

  R2 ptr-unordered-iter  No iteration over std::unordered_map/set
                       keyed on pointers: iteration order is a
                       function of allocator addresses, i.e. of
                       thread scheduling. Use an ordered container
                       or sort before use, and annotate with
                       // analyze-ok: ptr-unordered-iter (<why>).

  R3 host-entropy      No rand()/srand()/std::random_device and no
                       host wall-clock reads in model code: modeled
                       behaviour must depend only on the event queue
                       and the seeded RNG (sim/random.hh). The
                       run-metadata / event-profiler files that
                       legitimately read host time live in
                       HOST_TIME_ALLOW. (Subsumes the old
                       mcnsim_lint.py `wall-clock` rule.)

  R4 cross-shard-schedule  No direct schedule()/scheduleIn()/
                       reschedule() on a queue obtained via
                       shardQueue(): under --threads that queue may
                       belong to another shard's worker. Cross-shard
                       work goes through Simulation::postCrossShard
                       (the mailbox, DESIGN.md §9). Also tracks
                       local aliases of a shardQueue() result.
                       (Subsumes the old mcnsim_lint.py
                       `cross-shard` rule; the engine itself,
                       src/sim/, owns its queues and is exempt.)

  R5 atomic-memory-order  Atomics on the engine's synchronization
                       paths (sim/shard.*, sim/barrier.hh, and the
                       cross-thread buffer-pool refcounts) must pass
                       an explicit std::memory_order -- seq-cst by
                       default hides the intended ordering contract
                       and costs fences the barrier protocol was
                       designed to avoid. Operator forms (++, --,
                       =, +=) on atomics are flagged for the same
                       reason.

Analysis modes
  With the `clang` python bindings and a compile_commands.json
  (CMAKE_EXPORT_COMPILE_COMMANDS=ON) present, declarations are
  resolved through libclang's AST. Otherwise the analyzer announces
  a loud skip -- exactly like ci.sh's clang-tidy step -- and falls
  back to a scope-tracking textual analysis (comment/string
  stripping, brace-scope classification, multi-line declaration
  joining). The textual mode is the CI gate of record; AST mode
  additionally prunes its known false-positive classes (constructor
  -call globals, function pointers).

Suppressions
  R1 wants MCNSIM_SHARD_SAFE("reason") on the declaration line or
  up to 5 lines above. Every rule also accepts
      // analyze-ok: <rule> (<why this site is safe>)
  in the same window. Both require a non-empty justification.

Baseline
  tools/analyze_baseline.json records every annotated site plus any
  grandfathered (unfixed, unannotated) violations. --check fails on
  any violation or annotation drift from the baseline, so new
  findings fail CI while the tracked set stays reviewable.
  --update-baseline rewrites it after a sweep.

Usage
  tools/mcnsim_analyze.py                  # report findings, exit 0
  tools/mcnsim_analyze.py --check          # gate: baseline + fixtures
  tools/mcnsim_analyze.py --json OUT.json  # schema'd findings artifact
  tools/mcnsim_analyze.py --update-baseline
  tools/mcnsim_analyze.py --self-test      # classify tests/analyze_fixtures
  tools/mcnsim_analyze.py --mode textual|ast|auto
"""

import argparse
import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "tools" / "analyze_baseline.json"
FIXTURES = REPO / "tests" / "analyze_fixtures"

RULES = ("shard-static", "ptr-unordered-iter", "host-entropy",
         "cross-shard-schedule", "atomic-memory-order")

# R3: files allowed to read host time (run-elapsed metadata, the
# opt-in host-time event profiler and the shard set's opt-in
# per-worker busy/wait profiler). Entropy (rand/random_device) has
# no allowlist: nothing in model code may use it.
HOST_TIME_ALLOW = {
    "src/sim/simulation.hh",
    "src/sim/simulation.cc",
    "src/sim/event_queue.cc",
    "src/sim/shard.cc",
}

# R5 scope: the engine's synchronization paths. Everything else is
# supposed to be single-threaded within its shard and should not be
# rolling its own atomics at all (R1 catches shared globals).
ATOMIC_ORDER_SCOPE = (
    "src/sim/shard.hh", "src/sim/shard.cc", "src/sim/barrier.hh",
    "src/net/buffer_pool.hh", "src/net/buffer_pool.cc",
)

HOST_ENTROPY_RE = re.compile(
    r"\brand\s*\(\s*\)|\bsrand\s*\(|\brandom_device\b"
)
HOST_CLOCK_RE = re.compile(
    r"steady_clock|system_clock|high_resolution_clock"
    r"|gettimeofday|clock_gettime|std::time\s*\(|\btime\s*\(\s*NULL"
    r"|\btime\s*\(\s*nullptr"
)
CROSS_SHARD_RE = re.compile(
    r"\bshardQueue\s*\([^)]*\)\s*\.\s*"
    r"(?:schedule|scheduleIn|reschedule)\s*\("
)
SHARD_ALIAS_RE = re.compile(
    r"(?:auto|EventQueue)\s*&\s*(\w+)\s*=\s*[^;]*\bshardQueue\s*\("
)
ANNOT_RE = re.compile(r'MCNSIM_SHARD_SAFE\s*\(\s*"(.*?)"')
OK_RE = re.compile(r"//\s*analyze-ok:\s*([\w-]+)\s*\(([^)]+)\)")
EXPECT_RE = re.compile(r"//\s*expect:\s*([\w\-, ]+)")

ATOMIC_OPS = ("load", "store", "exchange", "fetch_add", "fetch_sub",
              "fetch_and", "fetch_or", "fetch_xor",
              "compare_exchange_weak", "compare_exchange_strong",
              "wait")

# Keywords that rule a namespace-scope line out as a variable decl.
NON_DECL_KEYWORDS = re.compile(
    r"^\s*(?:using|typedef|template|friend|return|case|goto|public|"
    r"private|protected|if|else|for|while|switch|do|try|catch|"
    r"namespace|class|struct|enum|union|extern|#|\[\[|operator|"
    r"static_assert|MCNSIM_|FAULT_POINT)\b"
)


def strip_code(text):
    """Comments and string/char literal bodies -> spaces, preserving
    line structure, so rule regexes never match inside either."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # string or char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            elif c == "\n":  # unterminated (raw string etc.): bail
                state = None
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out).split("\n")


def scope_map(code_lines):
    """Per-line (scope stack, statement-start) pairs at line start.
    Scope kinds: 'namespace' | 'class' | 'function' | 'block'. The
    statement-start flag is False on continuation lines (text since
    the last ';'/'{'/'}' is non-empty), so multi-line declarations
    are only matched at their first line."""

    def classify(head):
        head = head.strip()
        if re.search(r"\bnamespace\b(?:\s+[\w:]+)?\s*$", head):
            return "namespace"
        if re.search(r"[)\]]\s*(?:const|noexcept|override|final|"
                     r"mutable|->\s*[\w:<>,\s&*]+)*\s*$", head):
            return "function"
        if re.search(r"\b(?:class|struct|union|enum)\b", head) \
                and not head.endswith(")"):
            return "class"
        if re.search(r"\b(?:if|else|for|while|switch|do|try|catch)\b",
                     head):
            return "function"
        return "block"

    stack, head, per_line = [], "", []
    for line in code_lines:
        per_line.append((tuple(stack), head.strip() == ""))
        for ch in line:
            if ch == "{":
                stack.append(classify(head))
                head = ""
            elif ch == "}":
                if stack:
                    stack.pop()
                head = ""
            elif ch == ";":
                head = ""
            else:
                head += ch
        head += " "
    return per_line


def statement_at(code_lines, i, max_join=5):
    """Join stripped lines from i until the first of ';' '=' '{' '('
    (whichever comes first decides the declaration's shape)."""
    joined = ""
    for j in range(i, min(len(code_lines), i + max_join)):
        joined += code_lines[j] + " "
        if re.search(r"[;={(]", joined):
            break
    return joined


def balanced_args(code_lines, i, open_idx, max_join=4):
    """Text of a parenthesized argument list starting at the '(' at
    (line i, column open_idx), joined across lines."""
    depth, out = 0, []
    for j in range(i, min(len(code_lines), i + max_join)):
        seg = code_lines[j][open_idx:] if j == i else code_lines[j]
        for ch in seg:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "".join(out)
            elif depth > 0:
                out.append(ch)
    return "".join(out)


def suppression(raw_lines, i, rule, back=5):
    """('shard-safe'|'analyze-ok', reason) when line i (0-based) or
    one of the @p back lines above carries a valid annotation for
    @p rule, else None. R1 accepts both forms; other rules only
    analyze-ok."""
    window = raw_lines[max(0, i - back):i + 1]
    if rule == "shard-static":
        joined = " ".join(window)
        m = ANNOT_RE.search(joined)
        if m and m.group(1).strip():
            return ("shard-safe", m.group(1).strip())
    for line in window:
        m = OK_RE.search(line)
        if m and m.group(1) == rule and m.group(2).strip():
            return ("analyze-ok", m.group(2).strip())
    return None


class FileAnalysis:
    """Textual analysis of one translation unit (+ sibling header or
    source, for cross-file declarations like a header-declared
    member iterated in the .cc)."""

    def __init__(self, path, rel, fixture_mode=False):
        self.path = path
        self.rel = rel
        self.fixture = fixture_mode
        self.raw = path.read_text(errors="replace").split("\n")
        self.code = strip_code("\n".join(self.raw))
        self.scopes = scope_map(self.code)
        self.sibling_code = []
        sib = (path.with_suffix(".cc") if path.suffix == ".hh"
               else path.with_suffix(".hh"))
        if not fixture_mode and sib.exists():
            self.sibling_code = strip_code(
                sib.read_text(errors="replace"))

    # -- R1 ----------------------------------------------------------
    DECL_QUAL_RE = re.compile(
        r"^\s*(?:\[\[[^\]]*\]\]\s*)?"
        r"(?P<quals>(?:(?:inline|static|thread_local|extern|const|"
        r"constexpr|constinit|mutable)\b\s*)+)")

    def mutable_static_decls(self):
        """Yield (line, symbol, kind) for mutable static-storage
        declarations: static/thread_local anywhere, plus plain
        variables at namespace scope."""
        for i, line in enumerate(self.code):
            if not line.strip():
                continue
            if NON_DECL_KEYWORDS.match(line):
                continue
            if "static_cast" in line or "static_assert" in line:
                continue
            stack, clean = self.scopes[i]
            if not clean:
                continue  # continuation of a previous statement
            at_ns = all(k == "namespace" for k in stack)
            m = self.DECL_QUAL_RE.match(line)
            quals = set(m.group("quals").split()) if m else set()
            if "extern" in quals:
                continue
            if quals & {"const", "constexpr", "constinit"}:
                continue
            explicit = bool(quals & {"static", "thread_local"})
            if not explicit and not at_ns:
                continue
            stmt = statement_at(self.code, i)
            if "operator" in stmt:
                continue
            body = stmt[m.end():] if m else stmt.lstrip()
            if not explicit:
                # Plain namespace-scope decl: require TYPE NAME shape
                # so labels/macros/expressions don't match.
                if not re.match(r"^\s*[\w:]+[\w:<>,\s*&]*\s+[*&]*"
                                r"\w+\s*[;={]", body):
                    continue
                if quals & {"inline"}:
                    pass  # header inline variable: still a global
            term = re.search(r"[;={(]", body)
            if not term or term.group() == "(":
                continue  # function decl/def (or ctor-call global)
            head = body[:term.start()]
            if re.search(r"\bconst\b\s*$", head):
                continue  # e.g. "static Foo *const x"
            sym = re.findall(r"[A-Za-z_]\w*", head)
            if not sym:
                continue
            yield i, sym[-1], "explicit" if explicit else "namespace"

    def r1(self, findings):
        for i, sym, _kind in self.mutable_static_decls():
            findings.emit(
                self, i, "shard-static", sym,
                f"mutable static-storage state '{sym}' reachable "
                "from model code; make it per-Simulation/per-shard "
                "or annotate MCNSIM_SHARD_SAFE(reason) "
                "(sim/annotate.hh)")

    # -- R2 ----------------------------------------------------------
    UNORDERED_DECL_RE = re.compile(r"\bunordered_(map|set)\s*<")

    @staticmethod
    def _ptr_keyed_names(code_lines):
        names = []
        for i, line in enumerate(code_lines):
            m = FileAnalysis.UNORDERED_DECL_RE.search(line)
            if not m:
                continue
            stmt = statement_at(code_lines, i, max_join=4)
            k = stmt.find("unordered_" + m.group(1))
            open_idx = stmt.find("<", k)
            if open_idx < 0:
                continue
            depth, arg_end = 0, -1
            first_arg = None
            for p in range(open_idx, len(stmt)):
                c = stmt[p]
                if c == "<":
                    depth += 1
                elif c == ">":
                    depth -= 1
                    if depth == 0:
                        arg_end = p
                        break
                elif c == "," and depth == 1 and first_arg is None:
                    first_arg = stmt[open_idx + 1:p]
            if arg_end < 0:
                continue
            if first_arg is None:
                first_arg = stmt[open_idx + 1:arg_end]
            if not ("*" in first_arg or
                    re.search(r"\bPtr\b|_ptr\b", first_arg)):
                continue
            nm = re.match(r"\s*&?\s*(\w+)\s*[;={(]",
                          stmt[arg_end + 1:])
            if nm:
                names.append(nm.group(1))
        return names

    def r2(self, findings):
        names = set(self._ptr_keyed_names(self.code) +
                    self._ptr_keyed_names(self.sibling_code))
        if not names:
            return
        alt = "|".join(re.escape(n) for n in sorted(names))
        iter_re = re.compile(
            r":\s*[\w.\->]*\b(" + alt + r")\b\s*\)"   # range-for
            r"|\b(" + alt + r")\s*\.\s*c?begin\s*\(")
        for i, line in enumerate(self.code):
            m = iter_re.search(line)
            if not m:
                continue
            sym = m.group(1) or m.group(2)
            findings.emit(
                self, i, "ptr-unordered-iter", sym,
                f"iteration over pointer-keyed unordered container "
                f"'{sym}': order follows allocator addresses, i.e. "
                "thread scheduling; use an ordered container or "
                "sort before use")

    # -- R3 ----------------------------------------------------------
    def r3(self, findings):
        clock_ok = self.rel in HOST_TIME_ALLOW
        for i, line in enumerate(self.code):
            m = HOST_ENTROPY_RE.search(line)
            if m:
                findings.emit(
                    self, i, "host-entropy", m.group(0).strip("( )"),
                    "host entropy in model code; draw from the "
                    "seeded sim::Random (sim/random.hh) instead")
                continue
            if not clock_ok:
                m = HOST_CLOCK_RE.search(line)
                if m:
                    findings.emit(
                        self, i, "host-entropy", m.group(0).strip(),
                        "host wall-clock read in model code (breaks "
                        "determinism; allowlist: HOST_TIME_ALLOW in "
                        "tools/mcnsim_analyze.py)")

    # -- R4 ----------------------------------------------------------
    def r4(self, findings):
        if not self.fixture and self.rel.startswith("src/sim/"):
            return  # the engine owns its queues and the mailbox
        aliases = {}  # name -> decl line
        for i, line in enumerate(self.code):
            if CROSS_SHARD_RE.search(line):
                findings.emit(
                    self, i, "cross-shard-schedule", "shardQueue",
                    "direct schedule() on shardQueue(...) races "
                    "with that shard's worker; use Simulation::"
                    "postCrossShard (DESIGN.md §9)")
            m = SHARD_ALIAS_RE.search(line)
            if m:
                aliases[m.group(1)] = i
            for name, decl in list(aliases.items()):
                if i == decl or i - decl > 60:
                    continue
                if re.search(r"\b" + re.escape(name) +
                             r"\s*\.\s*(?:schedule|scheduleIn|"
                             r"reschedule)\s*\(", line):
                    findings.emit(
                        self, i, "cross-shard-schedule", name,
                        f"'{name}' aliases a shardQueue() result; "
                        "scheduling on it races with that shard's "
                        "worker; use Simulation::postCrossShard "
                        "(DESIGN.md §9)")

    # -- R5 ----------------------------------------------------------
    ATOMIC_DECL_RE = re.compile(
        r"\batomic\s*<[^;>]*(?:<[^>]*>)?[^;>]*>\s*&?\s*(\w+)\s*[;{=(,)]")

    def r5(self, findings):
        if not self.fixture and self.rel not in ATOMIC_ORDER_SCOPE:
            return
        names = set()
        for lines in (self.code, self.sibling_code):
            for i, line in enumerate(lines):
                if "atomic" not in line:
                    continue
                stmt = statement_at(lines, i, max_join=3)
                for m in self.ATOMIC_DECL_RE.finditer(stmt):
                    names.add(m.group(1))
        if not names:
            return
        alt = "|".join(re.escape(n) for n in sorted(names))
        op_re = re.compile(
            r"\b(" + alt + r")\s*(?:\.|->)\s*(" +
            "|".join(ATOMIC_OPS) + r")\s*\(")
        raw_op_re = re.compile(
            r"(?:\+\+|--)\s*(" + alt + r")\b"
            r"|\b(" + alt + r")\s*(?:\+\+|--|(?:[-+|&^]|)=[^=])")
        for i, line in enumerate(self.code):
            for m in op_re.finditer(line):
                args = balanced_args(self.code, i,
                                     line.index("(", m.start()))
                if "memory_order" not in args:
                    findings.emit(
                        self, i, "atomic-memory-order",
                        f"{m.group(1)}.{m.group(2)}",
                        f"atomic {m.group(2)}() on '{m.group(1)}' "
                        "without an explicit std::memory_order "
                        "(seq-cst by default hides the ordering "
                        "contract)")
            m = raw_op_re.search(line)
            if m and not self.ATOMIC_DECL_RE.search(
                    statement_at(self.code, i, max_join=2)):
                sym = m.group(1) or m.group(2)
                findings.emit(
                    self, i, "atomic-memory-order", sym,
                    f"operator form on atomic '{sym}' is seq-cst; "
                    "use the explicit memory-order member form")

    def run(self, findings):
        self.r1(findings)
        self.r2(findings)
        self.r3(findings)
        self.r4(findings)
        self.r5(findings)


class Findings:
    def __init__(self):
        self.violations = []  # dicts
        self.annotated = []   # dicts

    def emit(self, fa, i, rule, symbol, message):
        sup = suppression(fa.raw, i, rule)
        entry = {"file": fa.rel, "line": i + 1, "rule": rule,
                 "symbol": symbol}
        if sup:
            kind, reason = sup
            entry["annotation"] = kind
            entry["reason"] = reason
            self.annotated.append(entry)
        else:
            entry["message"] = message
            self.violations.append(entry)


def ast_refine(findings, build_dir):
    """AST mode: prune textual false positives through libclang.

    Re-checks each R1 finding's location against the AST (must be a
    VarDecl with static storage duration and a non-const type) and
    each R2 site against a range-for/iterator call. Raises on any
    environment problem; the caller falls back loudly."""
    import clang.cindex as ci  # noqa -- optional dependency

    index = ci.Index.create()
    cdb = ci.CompilationDatabase.fromDirectory(str(build_dir))
    tus = {}

    def tu_for(rel):
        src = rel
        if rel.endswith(".hh"):  # headers ride their sibling TU
            src = rel[:-3] + ".cc"
        if src in tus:
            return tus[src]
        cmds = cdb.getCompileCommands(str(REPO / src))
        if not cmds:
            tus[src] = None
            return None
        args = [a for a in list(cmds[0].arguments)[1:-1]
                if a not in ("-c", "-o")]
        tus[src] = index.parse(str(REPO / src), args=args)
        return tus[src]

    def decl_at(tu, rel, line):
        hits = []

        def walk(c):
            try:
                loc = c.location
                if (loc.file and loc.file.name.endswith(rel)
                        and loc.line == line):
                    hits.append(c)
            except ValueError:
                pass
            for ch in c.get_children():
                walk(ch)

        walk(tu.cursor)
        return hits

    kept = []
    for v in findings.violations:
        if v["rule"] != "shard-static":
            kept.append(v)
            continue
        tu = tu_for(v["file"])
        if tu is None:
            kept.append(v)
            continue
        cursors = decl_at(tu, v["file"], v["line"])
        ok = False
        for c in cursors:
            if c.kind != ci.CursorKind.VAR_DECL:
                continue
            sc = c.storage_class
            static_like = sc in (ci.StorageClass.STATIC,
                                 ci.StorageClass.NONE)
            if static_like and not c.type.is_const_qualified():
                ok = True
        if ok or not cursors:
            kept.append(v)  # confirmed (or unresolvable: keep)
    findings.violations = kept
    return findings


def baseline_key(e):
    return (e["file"], e["rule"], e["symbol"])


def load_baseline():
    if not BASELINE.exists():
        return {"grandfathered": [], "annotated": []}
    with open(BASELINE) as f:
        doc = json.load(f)
    assert doc.get("kind") == "mcnsim-analyze-baseline", BASELINE
    return doc


def write_baseline(findings):
    doc = {
        "schema_version": 1,
        "kind": "mcnsim-analyze-baseline",
        "grandfathered": sorted(
            ({"file": v["file"], "rule": v["rule"],
              "symbol": v["symbol"]} for v in findings.violations),
            key=baseline_key),
        "annotated": sorted(
            ({"file": a["file"], "rule": a["rule"],
              "symbol": a["symbol"],
              "annotation": a["annotation"]}
             for a in findings.annotated),
            key=baseline_key),
    }
    with open(BASELINE, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return doc


def check_against_baseline(findings):
    """Error strings for violations/annotations drifting from the
    committed baseline."""
    base = load_baseline()
    errs = []
    grand = {baseline_key(e) for e in base["grandfathered"]}
    known_annot = {baseline_key(e) for e in base["annotated"]}
    seen_viol = set()
    for v in findings.violations:
        k = baseline_key(v)
        seen_viol.add(k)
        if k not in grand:
            errs.append(f"{v['file']}:{v['line']}: [{v['rule']}] "
                        f"NEW violation: {v['message']}")
    for k in sorted(grand - seen_viol):
        errs.append(f"stale baseline entry (violation fixed?): "
                    f"{k[0]} [{k[1]}] {k[2]}; run --update-baseline")
    seen_annot = {baseline_key(a) for a in findings.annotated}
    for k in sorted(seen_annot - known_annot):
        errs.append(f"untracked annotated site: {k[0]} [{k[1]}] "
                    f"{k[2]}; run --update-baseline")
    for k in sorted(known_annot - seen_annot):
        errs.append(f"stale annotated baseline entry: {k[0]} "
                    f"[{k[1]}] {k[2]}; run --update-baseline")
    return errs


def self_test():
    """Classify every fixture in tests/analyze_fixtures: each line
    carrying `// expect: <rule>[, <rule>]` must be flagged with
    exactly those rules; every other line must be clean."""
    if not FIXTURES.is_dir():
        print(f"analyze: no fixtures at {FIXTURES}", file=sys.stderr)
        return 1
    failures = 0
    for path in sorted(FIXTURES.glob("*.cc")):
        rel = path.relative_to(REPO).as_posix()
        raw = path.read_text(errors="replace").split("\n")
        expected = set()
        for i, line in enumerate(raw):
            m = EXPECT_RE.search(line)
            if m:
                for rule in m.group(1).split(","):
                    rule = rule.strip()
                    assert rule in RULES, (rel, rule)
                    expected.add((i + 1, rule))
        findings = Findings()
        FileAnalysis(path, rel, fixture_mode=True).run(findings)
        got = {(v["line"], v["rule"]) for v in findings.violations}
        missing = expected - got
        spurious = got - expected
        if missing or spurious:
            failures += 1
            print(f"FAIL {rel}")
            for line, rule in sorted(missing):
                print(f"  missing: line {line} [{rule}]")
            for line, rule in sorted(spurious):
                print(f"  spurious: line {line} [{rule}]")
        else:
            n = len(expected)
            print(f"PASS {rel} ({n} expected finding"
                  f"{'' if n == 1 else 's'}, "
                  f"{len(findings.annotated)} annotated)")
    return 1 if failures else 0


def gather_files(paths):
    roots = [REPO / p for p in paths] or [REPO / "src"]
    files = []
    for r in roots:
        if r.is_file():
            files.append(r)
        elif r.is_dir():
            files.extend(sorted(r.rglob("*.hh")))
            files.extend(sorted(r.rglob("*.cc")))
    return [f for f in files
            if FIXTURES not in f.parents]


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=[],
                    help="files or directories (default: src)")
    ap.add_argument("--check", action="store_true",
                    help="gate mode: fail on baseline drift, run "
                         "the fixture self-test")
    ap.add_argument("--json", metavar="PATH",
                    help="write the schema'd findings artifact")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite tools/analyze_baseline.json")
    ap.add_argument("--self-test", action="store_true",
                    help="classify tests/analyze_fixtures only")
    ap.add_argument("--mode", choices=("auto", "ast", "textual"),
                    default="auto")
    ap.add_argument("--build-dir", default=str(REPO / "build"),
                    help="compile_commands.json location (AST mode)")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    findings = Findings()
    files = gather_files(args.paths)
    for f in files:
        rel = f.relative_to(REPO).as_posix()
        if not rel.startswith("src/"):
            continue  # the determinism contract binds model code
        FileAnalysis(f, rel).run(findings)

    mode = "textual"
    if args.mode in ("auto", "ast"):
        try:
            cc = pathlib.Path(args.build_dir) / "compile_commands.json"
            if not cc.exists():
                raise RuntimeError(f"no {cc}")
            ast_refine(findings, args.build_dir)
            mode = "ast"
        except Exception as e:  # ImportError, parse errors, ...
            msg = (f"mcnsim_analyze: libclang AST mode unavailable "
                   f"({e.__class__.__name__}: {e}); falling back to "
                   "textual analysis (install the `clang` python "
                   "bindings and configure with "
                   "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON for AST mode)")
            if args.mode == "ast":
                print(msg, file=sys.stderr)
                return 2
            print(msg, file=sys.stderr)

    for v in findings.violations:
        print(f"{v['file']}:{v['line']}: [{v['rule']}] "
              f"{v['message']}")

    if args.json:
        doc = {
            "schema_version": 1,
            "kind": "mcnsim-analyze",
            "mode": mode,
            "files_scanned": len(files),
            "violations": findings.violations,
            "annotated": findings.annotated,
        }
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")

    if args.update_baseline:
        doc = write_baseline(findings)
        print(f"analyze: baseline updated "
              f"({len(doc['grandfathered'])} grandfathered, "
              f"{len(doc['annotated'])} annotated)")
        return 0

    print(f"mcnsim_analyze [{mode}]: {len(files)} files, "
          f"{len(findings.violations)} violation"
          f"{'' if len(findings.violations) == 1 else 's'}, "
          f"{len(findings.annotated)} annotated site"
          f"{'' if len(findings.annotated) == 1 else 's'}")

    if args.check:
        errs = check_against_baseline(findings)
        for e in errs:
            print(e)
        rc = self_test()
        if errs or rc:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
