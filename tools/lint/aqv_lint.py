#!/usr/bin/env python3
"""aqv_lint — machine-checks the engineering invariants of the aqv tree.

The codebase documents a set of invariants (docs/INVARIANTS.md) that the
paper-level guarantees rest on: a module dependency DAG, no exceptions
across module boundaries, seeded-only randomness, scoped lock holders,
durability syscalls centralized in storage/fs.cc, canonical include
guards, and [[nodiscard]] on every Status/Result-returning declaration.
This checker enforces them textually — stdlib only, no libclang — so the
gate runs anywhere Python 3.8+ runs.

Usage:
  tools/lint/aqv_lint.py                      # lint src/ tests/ bench/ tools/ examples/
  tools/lint/aqv_lint.py --fixtures           # self-test over committed fixtures
  tools/lint/aqv_lint.py --list-rules         # rule catalogue
  tools/lint/aqv_lint.py --report lint.json   # also write a JSON report

Suppressions (same line or the line above the finding):
  // aqv-lint: disable=<rule>[,<rule>...]          this line
  // aqv-lint: disable-next-line=<rule>[,...]      the next line
  // aqv-lint: disable-file=<rule>[,...]           whole file (first 10 lines)
Every suppression should carry an adjacent justification comment.

Exit status: 0 = clean, 1 = findings, 2 = usage/self-test failure.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# The declared module DAG (docs/ARCHITECTURE.md "module graph").
#
# ALLOWED[m] = modules whose headers files in src/<m>/ may include. Every
# module may include itself. eval <-> rewriting is the single permitted
# cycle (datalog/certain need inverse rules; the planner needs the
# evaluator's cost feedback). frontend is the ingress: only testing (the
# test-support harness) includes it, and nothing includes testing. service
# is included by frontend and testing only.
# --------------------------------------------------------------------------

MODULES = (
    "util",
    "cq",
    "containment",
    "views",
    "eval",
    "rewriting",
    "answering",
    "storage",
    "workload",
    "service",
    "frontend",
    "testing",
)

ALLOWED = {
    "util": {"util"},
    "cq": {"cq", "util"},
    "containment": {"containment", "cq", "util"},
    "views": {"views", "containment", "cq", "util"},
    "eval": {"eval", "rewriting", "views", "containment", "cq", "util"},
    "rewriting": {"rewriting", "eval", "views", "containment", "cq", "util"},
    "answering": {
        "answering", "rewriting", "eval", "views", "containment", "cq", "util",
    },
    "storage": {"storage", "eval", "views", "cq", "util"},
    "workload": {
        "workload", "rewriting", "eval", "views", "containment", "cq", "util",
    },
    "service": {
        "service", "rewriting", "eval", "views", "containment", "cq", "util",
    },
    "frontend": {
        "frontend", "service", "storage", "workload", "answering", "rewriting",
        "eval", "views", "containment", "cq", "util",
    },
    "testing": set(MODULES),
}

RULES = {
    "layering": (
        "#include edges in src/ must follow the declared module DAG "
        "(eval<->rewriting is the only cycle; nothing includes testing; "
        "only testing includes frontend; only frontend and testing include "
        "service)"
    ),
    "no-throw": (
        "`throw` is forbidden in src/: fallible operations return "
        "Status/Result<T> (util/status.h); no exception crosses a module "
        "boundary"
    ),
    "determinism": (
        "unseeded/wall-clock randomness (rand, random_device, mt19937, "
        "time(), system_clock) is forbidden in src/ and tests/: use the "
        "seeded util/rng.h so soak replays are byte-deterministic"
    ),
    "lock-discipline": (
        "raw .lock()/.unlock()/.try_lock() calls are forbidden: use "
        "std::lock_guard / std::unique_lock / std::scoped_lock so unlock "
        "is exception- and early-return-safe"
    ),
    "storage-fs": (
        "durability syscalls (rename, ::open, fsync, fdatasync) outside "
        "src/storage/fs.cc are forbidden: route them through storage/fs.h "
        "so the crash-injection fault layer sees every fault point"
    ),
    "include-guard": (
        "headers under src/ must open with the canonical include guard "
        "AQV_<MODULE>_<FILE>_H_"
    ),
    "nodiscard-decl": (
        "Status/Result<T>-returning declarations in src/ headers must be "
        "[[nodiscard]]: dropping an error silently is how swallowed "
        "failures are born"
    ),
    "suppression": (
        "suppression hygiene: disable= must name known rule ids and "
        "disable-file must sit in the first 10 lines of the file"
    ),
}

SUPPRESS_RE = re.compile(
    r"aqv-lint:\s*(disable|disable-next-line|disable-file)="
    r"([A-Za-z0-9_,-]+)"
)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

DETERMINISM_PATTERNS = (
    (re.compile(r"\bsrand\s*\("), "srand("),
    (re.compile(r"(?<!_)\brand\s*\("), "rand("),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "std::mt19937"),
    (re.compile(r"\bminstd_rand0?\b"), "std::minstd_rand"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"(?<![\w:.])time\s*\("), "time()"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
)

LOCK_RE = re.compile(r"[\w\)\]>]\s*(?:\.|->)\s*(?:lock|unlock|try_lock)\s*\(")

STORAGE_FS_PATTERNS = (
    (re.compile(r"(?<![\w:.])rename\s*\("), "rename("),
    (re.compile(r"::open\s*\("), "::open("),
    (re.compile(r"(?<![\w:.])fsync\s*\("), "fsync("),
    (re.compile(r"(?<![\w:.])fdatasync\s*\("), "fdatasync("),
)

THROW_RE = re.compile(r"\bthrow\b")

# A function declaration/definition line whose return type is Status or
# Result<...>: optional specifiers, the type, then an identifier directly
# followed by an open paren. `Status s = f();` (init) and `return
# Status::OK();` do not match; `friend` matches so hidden-friend
# declarations are covered too.
NODISCARD_DECL_RE = re.compile(
    r"^\s*(?:(?:static|virtual|inline|constexpr|explicit|friend)\s+)*"
    r"(?:aqv::)?(?:Status|Result\s*<[^;={}]*>)\s+"
    r"[A-Za-z_]\w*\s*\("
)
NODISCARD_MARK_RE = re.compile(r"\[\[\s*nodiscard\s*\]\]")

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)

    def as_json(self):
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


def strip_code(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so rule regexes never fire inside prose or literals.
    Handles //, /* */, "...", '...', and R"delim(...)delim"."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j == -1 else j + len(close)
                out.append("\n" * text.count("\n", i, j))
                i = j
            else:
                out.append(c)
                i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
            out.append('""')
        elif c == "'":
            if i > 0 and text[i - 1].isdigit():
                # C++14 digit separator (5'000'000), not a char literal.
                out.append(c)
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
            out.append("''")
        else:
            out.append(c)
            i += 1
    return "".join(out)


def parse_suppressions(raw_lines):
    """Returns (per_line, whole_file): per_line maps 1-based line number ->
    set of rule ids suppressed there; whole_file is a set of rule ids."""
    per_line = {}
    whole_file = set()
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        kind, rules = m.group(1), set(m.group(2).split(","))
        unknown = rules - set(RULES)
        if unknown:
            per_line.setdefault(idx, set()).add("__unknown__")
        if kind == "disable":
            per_line.setdefault(idx, set()).update(rules)
        elif kind == "disable-next-line":
            per_line.setdefault(idx + 1, set()).update(rules)
        elif kind == "disable-file":
            if idx <= 10:
                whole_file.update(rules)
            else:
                per_line.setdefault(idx, set()).add("__misplaced__")
    return per_line, whole_file


def top_dir(rel_path):
    parts = rel_path.replace(os.sep, "/").split("/")
    return parts[0] if parts else ""


def src_module(rel_path):
    parts = rel_path.replace(os.sep, "/").split("/")
    if len(parts) >= 3 and parts[0] == "src" and parts[1] in MODULES:
        return parts[1]
    return None


def expected_guard(rel_path):
    parts = rel_path.replace(os.sep, "/").split("/")
    module = parts[1]
    stem = os.path.splitext(parts[-1])[0]
    return "AQV_%s_%s_H_" % (module.upper(), re.sub(r"\W", "_", stem).upper())


def check_file(rel_path, text, findings):
    """Runs every applicable rule over one file. `rel_path` is the
    repo-relative path that scoping decisions key on."""
    if not rel_path.endswith(CXX_EXTENSIONS):
        return
    raw_lines = text.split("\n")
    per_line, whole_file = parse_suppressions(raw_lines)
    code_lines = strip_code(text).split("\n")

    top = top_dir(rel_path)
    module = src_module(rel_path)
    in_src = module is not None
    is_header = rel_path.endswith((".h", ".hpp"))
    basename = rel_path.replace(os.sep, "/").rsplit("/", 1)[-1]
    is_fs_impl = in_src and module == "storage" and basename in ("fs.cc",
                                                                "fs.h")

    def emit(line_no, rule, message):
        if rule in whole_file:
            return
        suppressed = per_line.get(line_no, set())
        if rule in suppressed:
            return
        findings.append(Finding(rel_path, line_no, rule, message))

    for line_no, code in enumerate(code_lines, start=1):
        # -- layering ------------------------------------------------------
        # strip_code blanks string literals, so recover the include path
        # from the raw line; the stripped line gates out commented-out
        # includes.
        m = None
        if code.lstrip().startswith("#") and "include" in code:
            m = INCLUDE_RE.match(raw_lines[line_no - 1])
        if m and in_src:
            target = m.group(1).split("/")[0]
            if target in MODULES:
                if target not in ALLOWED[module]:
                    emit(line_no, "layering",
                         "module '%s' must not include '%s' (allowed: %s)"
                         % (module, target,
                            ", ".join(sorted(ALLOWED[module]))))
            elif "/" in m.group(1):
                emit(line_no, "layering",
                     "quoted include '%s' does not resolve to a declared "
                     "module" % m.group(1))

        # -- no-throw ------------------------------------------------------
        if in_src and THROW_RE.search(code):
            emit(line_no, "no-throw",
                 "`throw` in src/ — return Status/Result<T> instead "
                 "(util/status.h)")

        # -- determinism ---------------------------------------------------
        if top in ("src", "tests"):
            for pattern, label in DETERMINISM_PATTERNS:
                if pattern.search(code):
                    emit(line_no, "determinism",
                         "%s is nondeterministic — use the seeded "
                         "util/rng.h" % label)

        # -- lock-discipline ----------------------------------------------
        if top in ("src", "tests") and LOCK_RE.search(code):
            emit(line_no, "lock-discipline",
                 "raw lock()/unlock() call — use a scoped holder "
                 "(lock_guard/unique_lock/scoped_lock)")

        # -- storage-fs ----------------------------------------------------
        if in_src and not is_fs_impl:
            for pattern, label in STORAGE_FS_PATTERNS:
                if pattern.search(code):
                    emit(line_no, "storage-fs",
                         "%s outside storage/fs.cc — durability syscalls "
                         "go through the fs.h helpers so fault injection "
                         "sees them" % label)

        # -- nodiscard-decl ------------------------------------------------
        if in_src and is_header and NODISCARD_DECL_RE.match(code):
            prev = code_lines[line_no - 2] if line_no >= 2 else ""
            if not (NODISCARD_MARK_RE.search(code)
                    or NODISCARD_MARK_RE.search(prev)):
                emit(line_no, "nodiscard-decl",
                     "Status/Result-returning declaration lacks "
                     "[[nodiscard]]")

    # -- include-guard -----------------------------------------------------
    if in_src and is_header:
        guard = expected_guard(rel_path)
        ifndef_line = None
        for line_no, code in enumerate(code_lines, start=1):
            stripped = code.strip()
            if not stripped:
                continue
            if stripped.startswith("#ifndef"):
                ifndef_line = (line_no, stripped.split()[-1])
            break  # only the first non-blank code line may open the guard
        if ifndef_line is None:
            emit(1, "include-guard",
                 "header has no include guard (expected #ifndef %s)" % guard)
        elif ifndef_line[1] != guard:
            emit(ifndef_line[0], "include-guard",
                 "include guard '%s' should be '%s'"
                 % (ifndef_line[1], guard))

    # -- suppression hygiene ----------------------------------------------
    for line_no, rules in sorted(per_line.items()):
        if "__unknown__" in rules:
            findings.append(Finding(
                rel_path, line_no, "suppression",
                "suppression names an unknown rule id (see --list-rules)"))
        if "__misplaced__" in rules:
            findings.append(Finding(
                rel_path, line_no, "suppression",
                "disable-file suppressions must sit in the first 10 lines"))


def iter_files(root, paths):
    for path in paths:
        base = os.path.join(root, path)
        if os.path.isfile(base):
            yield os.path.relpath(base, root)
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in ("fixtures", "__pycache__")
                and not d.startswith("build"))
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def run_lint(root, paths, report_path=None):
    findings = []
    count = 0
    for rel in iter_files(root, paths):
        count += 1
        with open(os.path.join(root, rel), "r", encoding="utf-8",
                  errors="replace") as fh:
            check_file(rel, fh.read(), findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.render())
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({
                "files_checked": count,
                "findings": [f.as_json() for f in findings],
            }, fh, indent=2)
            fh.write("\n")
    print("aqv_lint: %d file(s) checked, %d finding(s)"
          % (count, len(findings)), file=sys.stderr)
    return 1 if findings else 0


# --------------------------------------------------------------------------
# Fixture self-test. Each fixture file declares its pretend repo path on the
# first line (`// lint-path: src/eval/foo.h`) and marks expected findings
# with `// expect: <rule>` on the offending line. good/ fixtures must be
# clean; bad/ fixtures must produce exactly their expected findings; and
# across bad/ every rule must fire at least once (prove the gate gates).
# --------------------------------------------------------------------------

LINT_PATH_RE = re.compile(r"lint-path:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*expect:\s*([A-Za-z-]+(?:,[A-Za-z-]+)*)")


def run_fixture_file(fixture_path):
    with open(fixture_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    m = LINT_PATH_RE.search(text.split("\n", 1)[0])
    if not m:
        return None, ["%s: first line must declare `lint-path:`"
                      % fixture_path]
    rel_path = m.group(1)
    expected = set()
    for line_no, line in enumerate(text.split("\n"), start=1):
        em = EXPECT_RE.search(line)
        if em:
            for rule in em.group(1).split(","):
                expected.add((line_no, rule))
    findings = []
    check_file(rel_path, text, findings)
    actual = set((f.line, f.rule) for f in findings)
    errors = []
    for line_no, rule in sorted(expected - actual):
        errors.append("%s:%d: expected [%s] finding did not fire"
                      % (fixture_path, line_no, rule))
    for line_no, rule in sorted(actual - expected):
        errors.append("%s:%d: unexpected [%s] finding"
                      % (fixture_path, line_no, rule))
    return set(r for (_, r) in actual), errors


def run_fixtures(root):
    fixture_dir = os.path.join(root, "tools", "lint", "fixtures")
    good_dir = os.path.join(fixture_dir, "good")
    bad_dir = os.path.join(fixture_dir, "bad")
    errors = []
    fired = set()
    n = 0
    for directory, must_be_clean in ((good_dir, True), (bad_dir, False)):
        if not os.path.isdir(directory):
            errors.append("missing fixture directory: %s" % directory)
            continue
        for name in sorted(os.listdir(directory)):
            if not name.endswith(CXX_EXTENSIONS):
                continue
            n += 1
            rules, errs = run_fixture_file(os.path.join(directory, name))
            errors.extend(errs)
            if rules:
                if must_be_clean:
                    pass  # errs already flagged the unexpected findings
                else:
                    fired.update(rules)
    missing = set(RULES) - fired
    if missing:
        errors.append("rules never fired on any bad fixture: %s"
                      % ", ".join(sorted(missing)))
    for err in errors:
        print(err)
    print("aqv_lint --fixtures: %d fixture(s), %d error(s), rules fired: %s"
          % (n, len(errors), ", ".join(sorted(fired)) or "none"),
          file=sys.stderr)
    return 2 if errors else 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="aqv_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        default=["src", "tests", "bench", "tools",
                                 "examples"],
                        help="files or directories relative to --root")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this "
                             "script)")
    parser.add_argument("--fixtures", action="store_true",
                        help="run the committed good/bad fixture self-test")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="write findings as JSON to FILE")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-16s %s" % (rule, RULES[rule]))
        return 0

    root = args.root or os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    if args.fixtures:
        return run_fixtures(root)
    return run_lint(root, args.paths, args.report)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
