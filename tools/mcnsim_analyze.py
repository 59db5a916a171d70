#!/usr/bin/env python3
"""Source checker for mcnsim: the determinism contract and the hot-path rules.

Generic linters cannot see the simulator's own contracts, so this
checker enforces them across src/ with a scope-tracking textual
analysis (comment/string stripping, brace-scope classification,
multi-line declaration joining): one rule table, one suppression
syntax, one reviewed baseline.

Determinism contract -- byte-identical output for every --threads=N
(DESIGN.md §9, §11):
  R1  shard-static          no mutable namespace-scope or function-
                            local static/thread_local state
  R2  ptr-unordered-iter    no iteration over pointer-keyed
                            unordered containers
  R3  host-entropy          no rand()/random_device and no host clock
                            (std::chrono clocks, std::clock(), time(),
                            rdtsc, ...) outside HOST_TIME_ALLOW
  R4  cross-shard-schedule  no schedule() on a shardQueue() result or
                            an alias of one (src/sim/ is exempt)
  R5  atomic-memory-order   explicit std::memory_order on the engine's
                            atomics (ATOMIC_ORDER_SCOPE)

Hot-path contracts (DESIGN.md §5, §7):
  R6  packet-cdata          read-only packet access uses cdata(), not
                            the CoW-detaching data()
  R7  trace-gate            Trace::emit() behind an anyActive()/active()
                            gate
  R8  fault-site            FAULT_POINT() takes a "[a-z][a-z0-9-]*"
                            literal
  R9  packet-alloc          packet bytes come from the slab pool, not
                            new uint8_t[] / a heap byte vector / a
                            temporary vector fed to Packet::make()
  R10 stat-name             stat names are literal dotted lowerCamel
  R11 this-capture          a queue callback capturing this belongs to
                            a SimObject (bases resolved transitively
                            over src/ headers)

Suppressions
  One syntax for every rule, on the finding's line or starting at
  most the rule's window above it (RULES: 5 lines for R1-R5, 4 for
  this-capture, 1 for the others):

      // analyze-ok: <rule> (<why this site is safe>)

  The reason is required: an annotation without one suppresses
  nothing. It may continue over the following // lines until its
  parenthesis closes.

Baseline
  tools/analyze_baseline.json records every annotated site plus any
  grandfathered (unfixed, unannotated) violation, keyed
  (file, rule, symbol). --check fails on any violation or annotation
  drift from the baseline, so new findings fail CI while the tracked
  set stays reviewable. --update-baseline rewrites it after a sweep.

Usage
  tools/mcnsim_analyze.py                  # report findings, exit 0
  tools/mcnsim_analyze.py --check          # gate: baseline + fixtures
  tools/mcnsim_analyze.py --update-baseline
  tools/mcnsim_analyze.py --self-test      # classify tests/analyze_fixtures
"""

import argparse
import collections
import functools
import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "tools" / "analyze_baseline.json"
FIXTURES = REPO / "tests" / "analyze_fixtures"

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
# Member accessors (core_->clock(), Core::clock()) are not host
# clocks: the free functions only match unqualified-by-an-object.
HOST_CLOCK_RE = re.compile(
    r"\b(?:steady|system|high_resolution|utc|tai|gps|file)_clock\b"
    r"|\bgettimeofday\b|\bclock_gettime\b|\b_{1,2}rdtsc"
    r"|(?<![\w.>])(?:std)?::(?:clock|time)\s*\("
    r"|(?<![\w.>:])time\s*\(\s*(?:0|NULL|nullptr|&)"
)
CROSS_SHARD_RE = re.compile(
    r"\bshardQueue\s*\([^)]*\)\s*\.\s*"
    r"(?:schedule|scheduleIn|reschedule)\s*\("
)
SHARD_ALIAS_RE = re.compile(
    r"(?:auto|EventQueue)\s*&\s*(\w+)\s*=\s*[^;]*\bshardQueue\s*\("
)
OK_RE = re.compile(r"//\s*analyze-ok:\s*([\w-]+)\s*\(")
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

# R6: a packet-ish receiver calling the mutable data() overload...
PACKET_DATA_RE = re.compile(
    r"\b(\w*(?:pkt|packet|frame|seg|msg)\w*)\s*(?:->|\.)\s*data\s*\(\)",
    re.IGNORECASE,
)
# ...unless something writes through the pointer.
WRITE_THROUGH_RE = re.compile(
    r"data\s*\(\)\s*(?:\[[^\]]*\])?\s*"
    r"(?:=[^=]|\+=|-=|\^=|\|=|&=|\+\+|--)"
)

TRACE_EMIT_RE = re.compile(r"\bTrace::emit\s*\(")
TRACE_GATE_RE = re.compile(r"\banyActive\s*\(\)|\bactive\s*\(\)")

FAULT_POINT_RE = re.compile(r"\bFAULT_POINT\s*\(\s*([^)]*)\)")
FAULT_POINT_OK_RE = re.compile(r'^"[a-z][a-z0-9-]*"$')

PACKET_ALLOC_RE = re.compile(
    r"\bnew\s+(?:std::)?uint8_t\s*\["
    r"|make_unique(?:_for_overwrite)?\s*<\s*(?:std::)?uint8_t\s*\[\]"
    r"|make_shared\s*<\s*(?:std::)?vector\s*<\s*(?:std::)?uint8_t"
    r"|\bnew\s+(?:std::)?vector\s*<\s*(?:std::)?uint8_t"
)
# ...and a temporary byte vector built only to feed Packet::make():
# a vector constructed in the call (by name or from a braced list),
# or another packet's bytes() copy.
PACKET_MAKE_TEMP_RE = re.compile(
    r"\bPacket::make\s*\(\s*(?:(?:std::)?vector\s*<[^<>]*>\s*[({]"
    r"|\{"
    r"|[\w.>-]+(?:->|\.)\s*bytes\s*\(\s*\))"
)

# A stat being constructed: type, member/variable name, then the
# first constructor argument -- a literal (group 1) or whatever
# non-literal expression sits there (group 2).
STAT_CTOR_RE = re.compile(
    r"\b(?:Scalar|Average|QueueStat)\s+"
    r"\w+\s*[({]\s*(?:\"([^\"]*)\"|([^,)}]+))"
)
STAT_NAME_OK_RE = re.compile(
    r"^[a-z][a-zA-Z0-9]*(\.[a-z][a-zA-Z0-9]*)*$")

# R11: `this` as one element of a lambda capture list.
THIS_CAPTURE_RE = re.compile(
    r"\[(?:[^\[\]]*,)?\s*this\s*(?:,[^\[\]]*)?\]")
QUEUE_SCHED_RE = re.compile(
    r"(?:eventQueue\s*\(\)|queue_|\bq_|\bqueue\s*\(\))\s*\.\s*"
    r"(?:schedule|scheduleIn|reschedule)\s*\("
)
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(\w+)\s*(?:final\s*)?:([^{;]*)\{")


def strip_code(text, keep_literals=False):
    """Comments -> spaces, preserving line structure, so rule regexes
    never match inside them. String/char literal bodies are blanked
    too unless @p keep_literals (for rules that read the literal)."""
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
                out.append(c + nxt if keep_literals else "  ")
                i += 2
                continue
            if c == state or c == "\n":  # closed (or unterminated)
                state = None
                out.append(c)
            else:
                out.append(c if keep_literals else " ")
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


def annotation_reason(raw_lines, j, start):
    """Reason of the analyze-ok annotation whose '(' ends at column
    @p start of line j: the text up to the matching ')', continued
    over following // lines. None when it never closes."""
    depth, parts, text = 1, [], raw_lines[j][start:]
    while True:
        for k, ch in enumerate(text):
            depth += {"(": 1, ")": -1}.get(ch, 0)
            if depth == 0:
                parts.append(text[:k])
                return " ".join(p.strip() for p in parts).strip()
        parts.append(text)
        j += 1
        nxt = raw_lines[j].lstrip() if j < len(raw_lines) else ""
        if not nxt.startswith("//"):
            return None
        text = nxt[2:]


def suppression(raw_lines, i, rule, window):
    """Reason of a valid `// analyze-ok: <rule> (<why>)` that starts
    on line i (0-based) or up to @p window lines above, else None."""
    for j in range(max(0, i - window), i + 1):
        m = OK_RE.search(raw_lines[j])
        if m and m.group(1) == rule:
            reason = annotation_reason(raw_lines, j, m.end())
            if reason:
                return reason
    return None


def class_bases(code_lines):
    """{class: [unqualified base names]} for the class heads in
    stripped code."""
    bases = {}
    for m in CLASS_HEAD_RE.finditer(" ".join(code_lines)):
        spec = m.group(2)
        while re.search(r"<[^<>]*>", spec):  # drop template arguments
            spec = re.sub(r"<[^<>]*>", "", spec)
        bases[m.group(1)] = [re.findall(r"\w+", b)[-1]
                             for b in spec.split(",")
                             if re.search(r"\w", b)]
    return bases


@functools.lru_cache(maxsize=None)
def src_class_bases():
    bases = {}
    for hh in sorted((REPO / "src").rglob("*.hh")):
        bases.update(class_bases(strip_code(
            hh.read_text(errors="replace"))))
    return bases


def is_simobject(name, bases, seen=frozenset()):
    if name == "SimObject":
        return True
    return any(b not in seen and is_simobject(b, bases, seen | {name})
               for b in bases.get(name, ()))


class FileAnalysis:
    """Textual analysis of one translation unit (+ sibling header or
    source, for cross-file declarations like a header-declared
    member iterated in the .cc). Every rule check yields
    (line index, symbol, message)."""

    def __init__(self, path, rel, fixture_mode=False):
        self.rel = rel
        self.fixture = fixture_mode
        text = path.read_text(errors="replace")
        self.raw = text.split("\n")
        self.code = strip_code(text)
        self.lit = strip_code(text, keep_literals=True)
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

    def shard_static(self):
        """Mutable static-storage declarations: static/thread_local
        anywhere, plus plain variables at namespace scope."""
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
            # Plain namespace-scope decl: require TYPE NAME shape so
            # labels/macros/expressions don't match. (A header inline
            # variable is still a global.)
            if not explicit and not re.match(
                    r"^\s*[\w:]+[\w:<>,\s*&]*\s+[*&]*\w+\s*[;={]",
                    body):
                continue
            term = re.search(r"[;={(]", body)
            if not term or term.group() == "(":
                continue  # function decl/def (or ctor-call global)
            head = body[:term.start()]
            if re.search(r"\bconst\b\s*$", head):
                continue  # e.g. "static Foo *const x"
            sym = re.findall(r"[A-Za-z_]\w*", head)
            if not sym:
                continue
            yield (i, sym[-1],
                   f"mutable static-storage state '{sym[-1]}' "
                   "reachable from model code; make it "
                   "per-Simulation/per-shard or annotate why it is "
                   "shard-safe")

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

    def ptr_unordered_iter(self):
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
            if m:
                sym = m.group(1) or m.group(2)
                yield (i, sym,
                       f"iteration over pointer-keyed unordered "
                       f"container '{sym}': order follows allocator "
                       "addresses, i.e. thread scheduling; use an "
                       "ordered container or sort before use")

    # -- R3 ----------------------------------------------------------
    def host_entropy(self):
        clock_ok = self.rel in HOST_TIME_ALLOW
        for i, line in enumerate(self.code):
            m = HOST_ENTROPY_RE.search(line)
            if m:
                yield (i, m.group(0).strip("( )"),
                       "host entropy in model code; draw from the "
                       "seeded sim::Random (sim/random.hh) instead")
                continue
            m = None if clock_ok else HOST_CLOCK_RE.search(line)
            if m:
                yield (i, m.group(0).strip("( "),
                       "host clock read in model code (breaks "
                       "determinism; allowlist: HOST_TIME_ALLOW in "
                       "tools/mcnsim_analyze.py)")

    # -- R4 ----------------------------------------------------------
    def cross_shard_schedule(self):
        aliases = {}  # name -> decl line
        for i, line in enumerate(self.code):
            if CROSS_SHARD_RE.search(line):
                yield (i, "shardQueue",
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
                    yield (i, name,
                           f"'{name}' aliases a shardQueue() result; "
                           "scheduling on it races with that shard's "
                           "worker; use Simulation::postCrossShard "
                           "(DESIGN.md §9)")

    # -- R5 ----------------------------------------------------------
    ATOMIC_DECL_RE = re.compile(
        r"\batomic\s*<[^;>]*(?:<[^>]*>)?[^;>]*>\s*&?\s*(\w+)\s*[;{=(,)]")

    def atomic_memory_order(self):
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
                    yield (i, f"{m.group(1)}.{m.group(2)}",
                           f"atomic {m.group(2)}() on '{m.group(1)}' "
                           "without an explicit std::memory_order "
                           "(seq-cst by default hides the ordering "
                           "contract)")
            m = raw_op_re.search(line)
            if m and not self.ATOMIC_DECL_RE.search(
                    statement_at(self.code, i, max_join=2)):
                sym = m.group(1) or m.group(2)
                yield (i, sym,
                       f"operator form on atomic '{sym}' is seq-cst; "
                       "use the explicit memory-order member form")

    # -- R6 ----------------------------------------------------------
    def packet_cdata(self):
        for i, line in enumerate(self.code):
            m = PACKET_DATA_RE.search(line)
            if m and not WRITE_THROUGH_RE.search(
                    " ".join(self.code[max(0, i - 1):i + 2])):
                yield (i, m.group(1),
                       f"read-only access via {m.group(1)}->data() "
                       "detaches a shared CoW buffer; use cdata()")

    # -- R7 ----------------------------------------------------------
    def trace_gate(self):
        for i, line in enumerate(self.code):
            if TRACE_EMIT_RE.search(line) and not TRACE_GATE_RE.search(
                    " ".join(self.code[max(0, i - 5):i + 1])):
                yield (i, "Trace::emit",
                       "Trace::emit() without a Trace::anyActive()/"
                       "active() gate on the path")

    # -- R8 ----------------------------------------------------------
    def fault_site(self):
        for i, line in enumerate(self.lit):
            m = FAULT_POINT_RE.search(line)
            if m and not FAULT_POINT_OK_RE.match(m.group(1).strip()):
                arg = m.group(1).strip()
                yield (i, arg,
                       f"FAULT_POINT({arg}) must take a string literal "
                       'matching "[a-z][a-z0-9-]*" so fault specs can '
                       "address the site")

    # -- R9 ----------------------------------------------------------
    def packet_alloc(self):
        for i, line in enumerate(self.code):
            m = PACKET_ALLOC_RE.search(line)
            if m:
                yield (i, re.sub(r"\s+", "", m.group(0)),
                       "raw heap allocation of packet byte storage; "
                       "use BufferPool::acquire (net/buffer_pool.hh) "
                       "or annotate a non-packet use")
            nxt = self.code[i + 1] if i + 1 < len(self.code) else ""
            m = PACKET_MAKE_TEMP_RE.search(line + " " + nxt)
            if m and m.start() < len(line):
                yield (i, "Packet::make",
                       "temporary byte vector built only to feed "
                       "Packet::make(); write the payload in place "
                       "with Packet::makeFilled()")

    # -- R10 ---------------------------------------------------------
    def stat_name(self):
        for i, line in enumerate(self.lit):
            m = STAT_CTOR_RE.search(line)
            if not m:
                continue
            literal, expr = m.group(1), m.group(2)
            if literal is None:
                yield (i, expr.strip(),
                       f"stat name {expr.strip()!r} is not a string "
                       "literal; computed names hide the stat from "
                       "filters and report tools")
            elif not STAT_NAME_OK_RE.match(literal):
                yield (i, literal,
                       f'stat name "{literal}" must match '
                       "lowerCamel[.lowerCamel...] (e.g. "
                       '"txBytes", "txRing.usedBytes")')

    # -- R11 ---------------------------------------------------------
    def this_capture(self):
        local = class_bases(self.code + self.sibling_code)
        known = {**src_class_bases(), **local}
        if any(is_simobject(c, known) for c in local):
            return
        for i, line in enumerate(self.code):
            if THIS_CAPTURE_RE.search(line) and QUEUE_SCHED_RE.search(
                    " ".join(self.code[max(0, i - 3):i + 1])):
                yield (i, "this",
                       "event-queue callback captures this but the "
                       "owner is not a SimObject; the object may die "
                       "before the callback fires")


# One row per rule: name, suppression window (lines above the
# finding an annotation may start), path prefixes the rule does not
# apply to, and the check.
Rule = collections.namedtuple("Rule", "name window allow check")
RULES = (
    Rule("shard-static", 5, (), FileAnalysis.shard_static),
    Rule("ptr-unordered-iter", 5, (), FileAnalysis.ptr_unordered_iter),
    Rule("host-entropy", 5, (), FileAnalysis.host_entropy),
    Rule("cross-shard-schedule", 5, ("src/sim/",),
         FileAnalysis.cross_shard_schedule),
    Rule("atomic-memory-order", 5, (),
         FileAnalysis.atomic_memory_order),
    Rule("packet-cdata", 1, (), FileAnalysis.packet_cdata),
    Rule("trace-gate", 1, ("src/sim/logging.", "src/sim/trace_ring."),
         FileAnalysis.trace_gate),
    Rule("fault-site", 1, ("src/sim/fault.",), FileAnalysis.fault_site),
    Rule("packet-alloc", 1, ("src/net/buffer_pool.",),
         FileAnalysis.packet_alloc),
    Rule("stat-name", 1, ("src/sim/stats.",), FileAnalysis.stat_name),
    Rule("this-capture", 4, (), FileAnalysis.this_capture),
)
RULE_NAMES = {r.name for r in RULES}


class Findings:
    def __init__(self):
        self.violations = []  # dicts
        self.annotated = []   # dicts

    def run(self, fa):
        for rule in RULES:
            if fa.rel.startswith(rule.allow):
                continue
            for i, symbol, message in rule.check(fa):
                entry = {"file": fa.rel, "line": i + 1,
                         "rule": rule.name, "symbol": symbol}
                reason = suppression(fa.raw, i, rule.name, rule.window)
                if reason:
                    entry["reason"] = reason
                    self.annotated.append(entry)
                else:
                    entry["message"] = message
                    self.violations.append(entry)


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
        "grandfathered": [dict(zip(("file", "rule", "symbol"), k))
                          for k in sorted(map(baseline_key,
                                              findings.violations))],
        "annotated": [dict(zip(("file", "rule", "symbol"), k))
                      for k in sorted(map(baseline_key,
                                          findings.annotated))],
    }
    with open(BASELINE, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return doc


def check_against_baseline(findings):
    """Error strings for violations/annotations drifting from the
    committed baseline. Keys are counted, so a second site with an
    already-tracked key is drift too."""
    base = load_baseline()
    errs = []
    grand = collections.Counter(map(baseline_key, base["grandfathered"]))
    seen = collections.Counter()
    for v in findings.violations:
        k = baseline_key(v)
        seen[k] += 1
        if seen[k] > grand[k]:
            errs.append(f"{v['file']}:{v['line']}: [{v['rule']}] "
                        f"NEW violation: {v['message']}")
    for k in sorted(grand - seen):
        errs.append(f"stale baseline entry (violation fixed?): "
                    f"{k[0]} [{k[1]}] {k[2]}; run --update-baseline")
    known = collections.Counter(map(baseline_key, base["annotated"]))
    annot = collections.Counter(map(baseline_key, findings.annotated))
    for k in sorted(annot - known):
        errs.append(f"untracked annotated site: {k[0]} [{k[1]}] "
                    f"{k[2]}; run --update-baseline")
    for k in sorted(known - annot):
        errs.append(f"stale annotated baseline entry: {k[0]} "
                    f"[{k[1]}] {k[2]}; run --update-baseline")
    return errs


def self_test():
    """Classify every fixture in tests/analyze_fixtures: each line
    carrying `// expect: <rule>[, <rule>]` must be flagged with
    exactly those rules; every other line must be clean. Every rule
    must be expected somewhere."""
    if not FIXTURES.is_dir():
        print(f"analyze: no fixtures at {FIXTURES}", file=sys.stderr)
        return 1
    failures, covered = 0, set()
    for path in sorted(FIXTURES.glob("*.cc")):
        rel = path.relative_to(REPO).as_posix()
        raw = path.read_text(errors="replace").split("\n")
        expected = set()
        for i, line in enumerate(raw):
            m = EXPECT_RE.search(line)
            if m:
                for rule in m.group(1).split(","):
                    rule = rule.strip()
                    assert rule in RULE_NAMES, (rel, rule)
                    expected.add((i + 1, rule))
        covered |= {rule for _, rule in expected}
        findings = Findings()
        findings.run(FileAnalysis(path, rel, fixture_mode=True))
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
    for rule in sorted(RULE_NAMES - covered):
        failures += 1
        print(f"FAIL no fixture expects [{rule}]")
    return 1 if failures else 0


def gather_files(paths):
    """Model-code files under the given roots (default: src/)."""
    files = []
    for r in [REPO / p for p in paths] or [REPO / "src"]:
        if r.is_file():
            files.append(r)
        elif r.is_dir():
            files.extend(sorted(r.rglob("*.hh")))
            files.extend(sorted(r.rglob("*.cc")))
    return [f for f in files
            if f.relative_to(REPO).as_posix().startswith("src/")]


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=[],
                    help="files or directories (default: src)")
    ap.add_argument("--check", action="store_true",
                    help="gate mode: fail on baseline drift, run "
                         "the fixture self-test")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite tools/analyze_baseline.json")
    ap.add_argument("--self-test", action="store_true",
                    help="classify tests/analyze_fixtures only")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    findings = Findings()
    files = gather_files(args.paths)
    for f in files:
        findings.run(FileAnalysis(f, f.relative_to(REPO).as_posix()))

    for v in findings.violations:
        print(f"{v['file']}:{v['line']}: [{v['rule']}] "
              f"{v['message']}")

    if args.update_baseline:
        doc = write_baseline(findings)
        print(f"analyze: baseline updated "
              f"({len(doc['grandfathered'])} grandfathered, "
              f"{len(doc['annotated'])} annotated)")
        return 0

    nv, na = len(findings.violations), len(findings.annotated)
    print(f"mcnsim_analyze: {len(files)} files, {nv} violation"
          f"{'' if nv == 1 else 's'}, {na} annotated site"
          f"{'' if na == 1 else 's'}")

    if args.check:
        errs = check_against_baseline(findings)
        for e in errs:
            print(e)
        if self_test() or errs:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
