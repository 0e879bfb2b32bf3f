#!/usr/bin/env python3
"""Determinism lint: machine-checks the byte-determinism contract of src/.

The repo's core invariant — `runner::run_digest` is a pure function of the
experiment config and seed — used to be enforced only dynamically, by
digest regression tests over a handful of seeds. This linter turns the
contract into static rules:

  banned-rng            no rand()/std::random_device/std::mt19937 etc.
                        outside src/common/rng.* (all randomness flows
                        through seeded common::Rng streams)
  wall-clock            no system/steady/high_resolution_clock::now or
                        C time reads outside the loop-profiler measuring
                        site and explicitly suppressed overhead metrics
  mutable-global-state  no mutable namespace-scope, class-static or
                        function-local static state (breaks the
                        two-experiments-two-threads contract)
  unordered-iteration   no iteration over std::unordered_{map,set} in a
                        translation unit that feeds run_digest or
                        serialized obs output (hash order leaks into
                        bytes); collect-and-sort sites carry a reviewed
                        suppression
  hot-alloc             (advisory) no operator new / make_shared /
                        make_unique in hot-path files — groundwork for
                        the arena/freelist event-loop overhaul
  pointer-digest        no pointer addresses folded into digest input or
                        serialized output (reinterpret_cast to integer,
                        std::hash<T*>)

The frontend is a dependency-free C++ lexer built in here, so the lint
behaves identically on every machine and the golden tests pin its output
byte for byte.

Suppressions (all carry the rule id, so every waiver is grep-able):

  // lint:allow(rule[,rule2]) reason        same line, or on a comment
                                            line: the next code line
  // lint:allow-file(rule[,rule2]) reason   whole file

Exit codes: 0 clean (advisories allowed), 1 findings, 2 usage/config
error. `--json out.json` writes machine-readable findings
(schema paraleon.lint.v1) for the CI artifact.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import re
import sys

def die(msg):
    """Config/environment error: print and exit 2 (distinct from findings)."""
    print(msg, file=sys.stderr)
    sys.exit(2)


SEVERITY_ERROR = "error"
SEVERITY_ADVISORY = "advisory"

RULES = {
    "banned-rng": SEVERITY_ERROR,
    "wall-clock": SEVERITY_ERROR,
    "mutable-global-state": SEVERITY_ERROR,
    "unordered-iteration": SEVERITY_ERROR,
    "hot-alloc": SEVERITY_ADVISORY,
    "pointer-digest": SEVERITY_ERROR,
}

BANNED_RNG_TYPES = {
    "random_device", "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "knuth_b", "ranlux24", "ranlux48",
    "ranlux24_base", "ranlux48_base",
}
BANNED_RNG_CALLS = {"rand", "srand", "drand48", "lrand48", "srand48"}
WALL_CLOCKS = {"system_clock", "steady_clock", "high_resolution_clock"}
WALL_CALLS = {"gettimeofday", "clock_gettime", "timespec_get"}
UNORDERED_TYPES = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}
HOT_ALLOC_CALLS = {"make_shared", "make_unique"}
INT_TARGETS = {
    "uintptr_t", "intptr_t", "uint64_t", "int64_t", "size_t", "uint32_t",
    "long", "unsigned",
}

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
ALLOW_FILE_RE = re.compile(r"lint:allow-file\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


class Finding:
    def __init__(self, path, line, rule, message, severity=None):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.severity = severity or RULES[rule]
        self.suppressed = False

    def key(self):
        return (self.path, self.line, self.rule, self.message)


# --------------------------------------------------------------------------
# Lexer: comments / strings stripped into a token stream, suppressions kept.

class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind  # 'id' | 'punct' | 'num'
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.text}@{self.line}"


_ID_START = re.compile(r"[A-Za-z_]")
_ID_BODY = re.compile(r"[A-Za-z0-9_]")


def lex(text):
    """Returns (tokens, line_allows, file_allows, include_lines).

    line_allows: {line_number: set(rule)} — same-line suppressions plus
    comment-line suppressions attached to the next code line.
    include_lines: [(line, header_name)] for preprocessor includes.
    """
    tokens = []
    line_allows = {}
    file_allows = set()
    includes = []
    pending_allow = set()  # from comment-only lines, attach to next code
    i, n, line = 0, len(text), 1
    line_had_code = False

    def note_comment(comment, at_line):
        nonlocal pending_allow
        m = ALLOW_FILE_RE.search(comment)
        if m:
            file_allows.update(r.strip() for r in m.group(1).split(","))
        m = ALLOW_RE.search(comment)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")}
            if line_had_code:
                line_allows.setdefault(at_line, set()).update(rules)
            else:
                pending_allow.update(rules)

    def emit(tok):
        nonlocal line_had_code
        if not line_had_code and pending_allow:
            line_allows.setdefault(tok.line, set()).update(pending_allow)
            pending_allow.clear()
        line_had_code = True
        tokens.append(tok)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            line_had_code = False
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            note_comment(text[i:j], line)
            i = j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            block = text[i:j + 2]
            note_comment(block, line)
            line += block.count("\n")
            if "\n" in block:
                line_had_code = False
            i = j + 2
            continue
        if c == "#" and not line_had_code:
            # Preprocessor directive: consume the (possibly continued)
            # line; record includes for the banned-rng header check.
            j = i
            while j < n:
                k = text.find("\n", j)
                k = n if k == -1 else k
                if text[j:k].rstrip().endswith("\\"):
                    j = k + 1
                    continue
                break
            directive = text[i:k]
            m = re.match(r"#\s*include\s*[<\"]([^>\"]+)[>\"]", directive)
            if m:
                includes.append((line, m.group(1)))
            line += directive.count("\n")
            i = k
            continue
        if c in "\"'":
            # String/char literal (with escapes); raw strings below.
            if c == '"' and tokens and tokens[-1].text == "R":
                pass  # handled by raw-string branch via lookback
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    line += 1
                j += 1
            emit(Tok("str", "<lit>", line))
            i = j + 1
            continue
        if c == "R" and text.startswith('R"', i):
            m = re.match(r'R"([^()\\ ]*)\(', text[i:])
            if m:
                delim = ")" + m.group(1) + '"'
                j = text.find(delim, i)
                j = n if j == -1 else j + len(delim)
                chunk = text[i:j]
                emit(Tok("str", "<rawlit>", line))
                line += chunk.count("\n")
                i = j
                continue
        if _ID_START.match(c):
            j = i + 1
            while j < n and _ID_BODY.match(text[j]):
                j += 1
            emit(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._'"):
                j += 1
            emit(Tok("num", text[i:j], line))
            i = j
            continue
        # Multi-char punctuation we care about.
        for p in ("::", "->", "..."):
            if text.startswith(p, i):
                emit(Tok("punct", p, line))
                i += len(p)
                break
        else:
            emit(Tok("punct", c, line))
            i += 1
    return tokens, line_allows, file_allows, includes


# --------------------------------------------------------------------------
# Token-stream rule engine.


def _prev(tokens, i):
    return tokens[i - 1] if i > 0 else None


def _next(tokens, i):
    return tokens[i + 1] if i + 1 < len(tokens) else None


def scan_unordered_names(tokens):
    """Names declared with an unordered container type in this stream."""
    names = set()
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.kind == "id" and t.text in UNORDERED_TYPES:
            j = i + 1
            if j < len(tokens) and tokens[j].text == "<":
                depth = 0
                while j < len(tokens):
                    if tokens[j].text == "<":
                        depth += 1
                    elif tokens[j].text == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    elif tokens[j].text == ">>":
                        depth -= 2
                        if depth <= 0:
                            break
                    j += 1
                j += 1
                while j < len(tokens) and tokens[j].text in ("&", "*", "const"):
                    j += 1
                if j < len(tokens) and tokens[j].kind == "id":
                    names.add(tokens[j].text)
        i += 1
    return names


def rule_banned_rng(path, tokens, includes, findings):
    for line, header in includes:
        if header == "random":
            findings.append(Finding(
                path, line, "banned-rng",
                "#include <random> (all randomness flows through "
                "common::Rng streams seeded from the experiment config)"))
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        if t.text in BANNED_RNG_TYPES:
            findings.append(Finding(
                path, t.line, "banned-rng",
                f"raw RNG 'std::{t.text}' outside src/common/rng "
                "(use common::Rng streams seeded from the experiment "
                "config)"))
        elif t.text in BANNED_RNG_CALLS:
            nxt = _next(tokens, i)
            prv = _prev(tokens, i)
            if nxt is None or nxt.text != "(":
                continue
            if prv is not None and prv.text in (".", "->"):
                continue  # member named rand on some object
            if prv is not None and prv.text == "::":
                qual = tokens[i - 2] if i >= 2 else None
                if qual is None or qual.text != "std":
                    continue  # somelib::rand — not the libc one
            findings.append(Finding(
                path, t.line, "banned-rng",
                f"raw RNG call '{t.text}()' outside src/common/rng "
                "(use common::Rng streams seeded from the experiment "
                "config)"))


def rule_wall_clock(path, tokens, findings):
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        if t.text in WALL_CLOCKS:
            nxt = _next(tokens, i)
            nxt2 = tokens[i + 2] if i + 2 < len(tokens) else None
            if (nxt is not None and nxt.text == "::"
                    and nxt2 is not None and nxt2.text == "now"):
                findings.append(Finding(
                    path, t.line, "wall-clock",
                    f"wall-clock read 'std::chrono::{t.text}::now()' "
                    "(simulated time comes from Simulator::now; wall time "
                    "is the loop profiler's job)"))
        elif t.text in WALL_CALLS:
            nxt = _next(tokens, i)
            if nxt is not None and nxt.text == "(":
                findings.append(Finding(
                    path, t.line, "wall-clock",
                    f"wall-clock read '{t.text}()' (simulated time comes "
                    "from Simulator::now; wall time is the loop "
                    "profiler's job)"))
        elif t.text == "time":
            prv = _prev(tokens, i)
            nxt = _next(tokens, i)
            if (prv is not None and prv.text == "::" and i >= 2
                    and tokens[i - 2].text == "std"
                    and nxt is not None and nxt.text == "("):
                findings.append(Finding(
                    path, t.line, "wall-clock",
                    "wall-clock read 'std::time()' (simulated time comes "
                    "from Simulator::now; wall time is the loop "
                    "profiler's job)"))


def _scope_contexts(tokens):
    """Yields (index, context) for every token, tracking brace scopes.

    Context is the innermost enclosing brace kind:
      'ns' namespace body / file scope, 'record' class/struct/union/enum
      body, 'fn' function or control-flow body, 'init' braced initializer.
    """
    stack = []
    # Start-of-statement marker for the lookback classifier.
    last_stmt_end = -1
    out = [None] * len(tokens)
    for i, t in enumerate(tokens):
        out[i] = stack[-1] if stack else "ns"
        if t.text == "{":
            span = tokens[max(last_stmt_end + 1, 0):i]
            texts = [s.text for s in span]
            prv = _prev(tokens, i)
            ctx = None
            if "namespace" in texts:
                ctx = "ns"
            elif any(k in texts for k in ("class", "struct", "union",
                                          "enum")) and "(" not in texts:
                ctx = "record"
            elif prv is not None and prv.text in (")", "]"):
                ctx = "fn"
            elif prv is not None and (prv.text in ("=", ",", "(", "{",
                                                   "return")
                                      or prv.kind in ("id", "num")):
                ctx = "init"
            elif prv is not None and prv.text in ("do", "else", "try"):
                ctx = "fn"
            else:
                ctx = stack[-1] if stack else "ns"
                if ctx in ("fn", "init"):
                    ctx = "fn"
            stack.append(ctx)
            last_stmt_end = i
        elif t.text == "}":
            if stack:
                stack.pop()
            last_stmt_end = i
        elif t.text == ";":
            last_stmt_end = i
    return out


def rule_mutable_global(path, tokens, findings):
    contexts = _scope_contexts(tokens)
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "id" and t.text in ("static", "thread_local"):
            ctx = contexts[i]
            # Collect the declaration up to ';' or '{'.
            decl = []
            j = i + 1
            depth = 0
            while j < n:
                tj = tokens[j]
                if tj.text in ("(", "[", "<"):
                    depth += 1
                elif tj.text in (")", "]", ">"):
                    depth -= 1
                elif depth <= 0 and tj.text in (";", "{"):
                    break
                decl.append(tj)
                j += 1
            texts = [d.text for d in decl]
            is_const = any(x in ("const", "constexpr", "constinit")
                           for x in texts)
            has_assign = "=" in texts
            paren = texts.index("(") if "(" in texts else -1
            assign = texts.index("=") if has_assign else len(texts)
            # Function declarations/definitions have a parameter list
            # before any initializer; variables either have none or an
            # initializer first. `static Foo x(args);` is conservatively
            # treated as a function.
            is_function = paren != -1 and paren < assign
            name = None
            for d in decl[:assign if has_assign else len(decl)]:
                if d.kind == "id" and d.text not in (
                        "const", "constexpr", "constinit", "inline",
                        "unsigned", "signed", "long", "short", "int",
                        "char", "bool", "double", "float", "auto", "std"):
                    name = d.text  # last such id before '=' wins below
            if not is_function and not is_const and decl:
                where = {
                    "ns": "namespace-scope",
                    "record": "class-static",
                    "fn": "function-local static",
                    "init": "function-local static",
                }[ctx]
                label = name or "<unnamed>"
                kw = "thread_local" if t.text == "thread_local" else "static"
                findings.append(Finding(
                    path, t.line, "mutable-global-state",
                    f"mutable {where} state '{label}' ({kw}, non-const: "
                    "shared state breaks the two-experiments-two-threads "
                    "contract)"))
            i = j
            continue
        i += 1


def rule_unordered_iteration(path, tokens, names, findings):
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind == "id" and t.text == "for" and i + 1 < n \
                and tokens[i + 1].text == "(":
            # Find a ':' at paren depth 1 with no ';' first → range-for.
            depth = 0
            j = i + 1
            colon = -1
            while j < n:
                tj = tokens[j]
                if tj.text == "(":
                    depth += 1
                elif tj.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif depth == 1 and tj.text == ";":
                    break
                elif depth == 1 and tj.text == ":":
                    colon = j
                    break
                j += 1
            if colon == -1:
                continue
            # Range expression: colon+1 .. matching ')'.
            range_ids = []
            depth = 1
            j = colon + 1
            while j < n and depth > 0:
                tj = tokens[j]
                if tj.text == "(":
                    depth += 1
                elif tj.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                if tj.kind == "id":
                    range_ids.append(tj.text)
                j += 1
            hit = next((x for x in range_ids
                        if x in names or x in UNORDERED_TYPES), None)
            if hit is not None:
                findings.append(Finding(
                    path, t.line, "unordered-iteration",
                    f"iteration over unordered container '{hit}' in a "
                    "digest-feeding TU (hash order leaks into output; "
                    "sort into a vector or use std::map)"))
        elif (t.kind == "id" and t.text in ("begin", "cbegin")
              and t.line is not None):
            prv = _prev(tokens, i)
            nxt = _next(tokens, i)
            if (prv is not None and prv.text in (".", "->") and i >= 2
                    and tokens[i - 2].kind == "id"
                    and tokens[i - 2].text in names
                    and nxt is not None and nxt.text == "("):
                findings.append(Finding(
                    path, t.line, "unordered-iteration",
                    f"iteration over unordered container "
                    f"'{tokens[i - 2].text}' in a digest-feeding TU "
                    "(hash order leaks into output; sort into a vector "
                    "or use std::map)"))


def rule_hot_alloc(path, tokens, findings):
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        if t.text == "new":
            prv = _prev(tokens, i)
            if prv is not None and prv.text in (".", "->", "::"):
                continue
            findings.append(Finding(
                path, t.line, "hot-alloc",
                "'operator new' in a hot-path file (per-packet heap "
                "traffic; arena/freelist is the planned replacement)"))
        elif t.text in HOT_ALLOC_CALLS:
            nxt = _next(tokens, i)
            if nxt is not None and nxt.text == "<":
                findings.append(Finding(
                    path, t.line, "hot-alloc",
                    f"'std::{t.text}' in a hot-path file (per-packet heap "
                    "traffic; arena/freelist is the planned replacement)"))


def rule_pointer_digest(path, tokens, findings):
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        if t.text == "reinterpret_cast" and i + 1 < n \
                and tokens[i + 1].text == "<":
            depth = 0
            j = i + 1
            target = []
            while j < n:
                tj = tokens[j]
                if tj.text == "<":
                    depth += 1
                elif tj.text == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif tj.kind == "id":
                    target.append(tj.text)
                j += 1
            if any(x in INT_TARGETS for x in target):
                findings.append(Finding(
                    path, t.line, "pointer-digest",
                    "reinterpret_cast of a pointer to an integer in a "
                    "digest-feeding TU (addresses vary run to run and "
                    "poison the digest)"))
        elif t.text == "hash" and i + 1 < n and tokens[i + 1].text == "<":
            depth = 0
            j = i + 1
            saw_ptr = False
            while j < n:
                tj = tokens[j]
                if tj.text == "<":
                    depth += 1
                elif tj.text == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif tj.text == "*":
                    saw_ptr = True
                j += 1
            if saw_ptr:
                findings.append(Finding(
                    path, t.line, "pointer-digest",
                    "std::hash over a pointer type in a digest-feeding TU "
                    "(addresses vary run to run and poison the digest)"))


# --------------------------------------------------------------------------
# Per-file driver.


def sibling_sources(path):
    """Paired header/source of a TU, for cross-file member-type lookup."""
    stem, ext = os.path.splitext(path)
    pairs = {".cpp": [".hpp", ".h"], ".cc": [".h", ".hpp"],
             ".hpp": [".cpp", ".cc"], ".h": [".cc", ".cpp"]}
    out = []
    for other in pairs.get(ext, []):
        cand = stem + other
        if os.path.exists(cand):
            out.append(cand)
    return out


def lint_file_tokens(path, rel, cfg):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        die(f"determinism_lint: cannot read {path}: {e}")
    tokens, line_allows, file_allows, includes = lex(text)
    findings = []
    if cfg.rule_applies("banned-rng", rel):
        rule_banned_rng(rel, tokens, includes, findings)
    if cfg.rule_applies("wall-clock", rel):
        rule_wall_clock(rel, tokens, findings)
    if cfg.rule_applies("mutable-global-state", rel):
        rule_mutable_global(rel, tokens, findings)
    if cfg.rule_applies("unordered-iteration", rel):
        names = scan_unordered_names(tokens)
        for sib in sibling_sources(path):
            try:
                with open(sib, "r", encoding="utf-8",
                          errors="replace") as f:
                    sib_tokens, _, _, _ = lex(f.read())
                names |= scan_unordered_names(sib_tokens)
            except OSError:
                pass
        rule_unordered_iteration(rel, tokens, names, findings)
    if cfg.rule_applies("hot-alloc", rel):
        rule_hot_alloc(rel, tokens, findings)
    if cfg.rule_applies("pointer-digest", rel):
        rule_pointer_digest(rel, tokens, findings)
    apply_suppressions(findings, line_allows, file_allows)
    return findings


def apply_suppressions(findings, line_allows, file_allows):
    for f in findings:
        if f.rule in file_allows:
            f.suppressed = True
        elif f.rule in line_allows.get(f.line, set()):
            f.suppressed = True


# --------------------------------------------------------------------------
# Configuration.


class Config:
    def __init__(self, raw, root):
        self.root = root
        self.rules = raw.get("rules", {})
        for rule in self.rules:
            if rule not in RULES:
                die(f"determinism_lint: unknown rule '{rule}' in config")

    def _globs(self, rule, key):
        return self.rules.get(rule, {}).get(key, [])

    def severity(self, rule):
        return self.rules.get(rule, {}).get("severity", RULES[rule])

    def rule_applies(self, rule, rel):
        spec = self.rules.get(rule, {})
        if not spec.get("enabled", True):
            return False
        rel = rel.replace(os.sep, "/")
        for g in self._globs(rule, "allow"):
            if fnmatch.fnmatch(rel, g):
                return False
        files = self._globs(rule, "files")
        if files:  # scoped rule: applies only to the listed TUs
            return any(fnmatch.fnmatch(rel, g) for g in files)
        return True


def load_config(path, root):
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"determinism_lint: bad config {path}: {e}")
    return Config(raw, root)


def collect_files(paths, root):
    exts = (".cpp", ".cc", ".hpp", ".h")
    out = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            out.append(ap)
        elif os.path.isdir(ap):
            for dirpath, _, names in os.walk(ap):
                for name in names:
                    if name.endswith(exts):
                        out.append(os.path.join(dirpath, name))
        else:
            die(f"determinism_lint: no such path: {p}")
    return sorted(set(out))


def main(argv):
    ap = argparse.ArgumentParser(
        prog="determinism_lint.py",
        description="Static determinism lint over first-party C++.")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories (default: src/)")
    ap.add_argument("--config", default=None,
                    help="rule config JSON (default: lint.json beside "
                         "this script)")
    ap.add_argument("--root", default=None,
                    help="repo root for relative paths (default: two "
                         "levels above this script)")
    ap.add_argument("--json", dest="json_out", default=None,
                    help="write machine-readable findings here")
    ap.add_argument("--advisory-as-error", action="store_true",
                    help="advisory findings also fail the run")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, sev in RULES.items():
            print(f"{rule} ({sev})")
        return 0

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root) if args.root else \
        os.path.dirname(os.path.dirname(script_dir))
    config_path = args.config or os.path.join(script_dir, "lint.json")
    cfg = load_config(config_path, root)
    paths = args.paths or ["src"]
    files = collect_files(paths, root)

    findings = []
    for path in files:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        fs = lint_file_tokens(path, rel, cfg)
        for f in fs:
            f.severity = cfg.severity(f.rule)
        findings.extend(fs)

    findings.sort(key=Finding.key)
    seen = set()
    visible = []
    for f in findings:
        if f.key() in seen:
            continue
        seen.add(f.key())
        visible.append(f)

    errors = advisories = suppressed = 0
    for f in visible:
        if f.suppressed:
            suppressed += 1
            continue
        print(f"{f.path}:{f.line}: {f.severity}[{f.rule}]: {f.message}")
        if f.severity == SEVERITY_ERROR:
            errors += 1
        else:
            advisories += 1

    if args.json_out:
        doc = {
            "schema": "paraleon.lint.v1",
            "files_scanned": len(files),
            "counts": {"errors": errors, "advisories": advisories,
                       "suppressed": suppressed},
            "findings": [
                {"file": f.path, "line": f.line, "rule": f.rule,
                 "severity": f.severity, "suppressed": f.suppressed,
                 "message": f.message}
                for f in visible
            ],
        }
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")

    print(f"determinism_lint: {len(files)} files, "
          f"{errors} errors, {advisories} advisories, "
          f"{suppressed} suppressed", file=sys.stderr)
    if errors > 0 or (advisories > 0 and args.advisory_as_error):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
