#!/usr/bin/env python3
"""Docs hygiene checks, run by the CI docs job (and locally).

1. Every relative markdown link in README.md, ARCHITECTURE.md, ROADMAP.md,
   and docs/**/*.md must resolve to an existing file or directory.
2. Every header under src/ that declares or references OnBatch outside a
   comment must carry a doc comment: the nearest preceding non-blank line of
   each such declaration must be a comment line. This keeps the OnBatch
   contract (the one engine entry point, default loop, no-mixed-batch
   precondition) documented where implementers see it.
3. Every public method of the external API classes must carry a doc
   comment: IngressPort/Engine in src/runtime/task.h (post-Shutdown
   rejection contract, per-port threading rules), ThreadEngine in
   src/runtime/thread_engine.h and RunState in src/runtime/run_state.h
   (worker-pool sizing, the run-state transitions), the OperatorShell
   ingress/egress shell, OperatorControl, Operator and the two join
   facades in src/core/operator.h (egress routing / id-ordering contract),
   EpochProtocol in src/core/epoch_protocol.h (the per-slot migration
   state machine both operator families share),
   Dataflow/ResultSink in src/query/dataflow.h (stage wiring, restamping),
   AggOperator/ReferenceAggregator in src/core/agg.h, WeightedAccum in
   src/core/weighted.h and AggTable in src/index/agg_table.h (weight
   contract, migration-aware cell moves, EOS flush barrier),
   FlatHashIndex in src/index/flat_index.h and JoinIndex in
   src/localjoin/join_index.h (probe-order guarantees, Reserve semantics),
   MetricsRegistry/TelemetrySampler and the
   PeriodicTicker/StageObserver loop shared with the controllers in
   src/runtime/metrics_registry.h and TraceRing in src/common/trace_ring.h
   (threading rules of the observability plane: who may publish, who may
   read, what is lock-free), and SwissTable in src/index/swiss_table.h
   (the probe, insert and sizing contract both hash tables share). An
   undocumented method is a contract hole.
4. Every backticked code identifier in ARCHITECTURE.md and
   docs/paper_map.md (`Name`, `Class::member`, `Fn(args)`; paths, flags and
   expressions are not identifiers) must occur in some file under src/,
   tests/, bench/, examples/, perfbench/ or tools/: a name the code no
   longer has is a stale description. Historical mentions are worded in
   plain text, not backticked.

Exit code 0 = clean; 1 = findings (printed one per line).
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
DOC_FILES = ["README.md", "ARCHITECTURE.md", "ROADMAP.md"]


def check_links():
    errors = []
    files = [REPO / name for name in DOC_FILES if (REPO / name).exists()]
    files += sorted((REPO / "docs").glob("**/*.md"))
    for path in files:
        text = path.read_text(encoding="utf-8")
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (path.parent / rel).resolve()
            if not resolved.exists():
                errors.append(
                    f"{path.relative_to(REPO)}: broken link '{target}'")
    return errors


def check_onbatch_doc_comments():
    errors = []
    for path in sorted((REPO / "src").glob("**/*.h")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for idx, line in enumerate(lines):
            stripped = line.strip()
            if stripped.startswith("//"):
                continue
            if "OnBatch" not in stripped:
                continue
            # Nearest preceding non-blank line must be a comment.
            prev = idx - 1
            while prev >= 0 and not lines[prev].strip():
                prev -= 1
            if prev < 0 or not lines[prev].strip().startswith("//"):
                errors.append(
                    f"{path.relative_to(REPO)}:{idx + 1}: OnBatch without an "
                    "accompanying doc comment block")
    return errors


# (header, classes) pairs whose public methods must carry doc comments.
API_SURFACES = (
    ("src/runtime/task.h", ("IngressPort", "Engine")),
    ("src/runtime/thread_engine.h", ("ThreadEngine",)),
    ("src/runtime/run_state.h", ("RunState",)),
    ("src/core/operator.h", ("OperatorShell", "OperatorControl", "Operator",
                             "JoinOperator", "ShjOperator")),
    ("src/core/epoch_protocol.h", ("EpochProtocol",)),
    ("src/query/dataflow.h", ("Dataflow", "ResultSink")),
    ("src/core/agg.h", ("AggOperator", "ReferenceAggregator")),
    ("src/core/weighted.h", ("WeightedAccum",)),
    ("src/index/agg_table.h", ("AggTable",)),
    ("src/index/flat_index.h", ("FlatHashIndex",)),
    ("src/index/swiss_table.h", ("SwissTable",)),
    ("src/localjoin/join_index.h", ("JoinIndex",)),
    ("src/runtime/metrics_registry.h", ("MetricsRegistry", "TelemetrySampler",
                                        "PeriodicTicker", "StageObserver")),
    ("src/common/trace_ring.h", ("TraceRing",)),
    ("src/check/model.h", ("ModelAtomic",)),
    ("src/check/invariants.h", ("FifoChecker", "TornReadChecker")),
)
METHOD_RE = re.compile(r"^(virtual\s+)?[A-Za-z_][\w:<>,&*\s]*\(")

# Headers whose namespace-scope free functions must carry doc comments (the
# model checker's surface is mostly free functions: Explore, Replay, Spawn,
# SchedulePoint, the ledger hooks, ...).
FREE_FUNCTION_SURFACES = ("src/check/model.h", "src/check/invariants.h")
FREE_FN_RE = re.compile(r"^[A-Za-z_][\w:<>,&*]*[\s&*]+[A-Za-z_]\w*\s*\(")
FREE_FN_SKIP = ("if ", "for ", "while ", "switch ", "return ", "namespace ")


def check_free_function_doc_comments():
    """Namespace-scope functions in FREE_FUNCTION_SURFACES need doc
    comments. Column-0 declarations only: this codebase keeps namespace
    contents unindented, so class members (indented) never match."""
    errors = []
    for header in FREE_FUNCTION_SURFACES:
        path = REPO / header
        if not path.exists():
            errors.append(f"{header}: missing (free-function doc check "
                          "has no target)")
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        in_detail = False
        for idx, line in enumerate(lines):
            # `namespace detail` is internal plumbing, not public surface.
            if line.startswith("namespace detail"):
                in_detail = True
            if in_detail:
                if line.startswith("}"):
                    in_detail = False
                continue
            if line.startswith((" ", "\t", "//", "#")):
                continue
            stripped = line.strip()
            if stripped.startswith(FREE_FN_SKIP) or "(" not in stripped:
                continue
            if not FREE_FN_RE.match(stripped):
                continue
            prev = idx - 1
            while prev >= 0 and (not lines[prev].strip()
                                 or lines[prev].strip().startswith(
                                     ("template", "static_assert"))):
                prev -= 1
            if prev < 0 or not lines[prev].strip().startswith("//"):
                errors.append(
                    f"{header}:{idx + 1}: namespace-scope function without "
                    "a doc comment")
    return errors


def check_api_header(header, classes):
    """Public methods of `classes` in `header` need doc comments."""
    errors = []
    path = REPO / header
    if not path.exists():
        return [f"{header}: missing (API doc check has no target)"]
    lines = path.read_text(encoding="utf-8").splitlines()
    for cls in classes:
        class_re = re.compile(rf"^(class|struct) {cls}\b")
        start = next((i for i, ln in enumerate(lines)
                      if class_re.match(ln.strip())), None)
        if start is None:
            errors.append(f"{header}: class {cls} not found")
            continue
        depth = 0
        public = False
        in_body = False
        for idx in range(start, len(lines)):
            line = lines[idx]
            stripped = line.strip()
            at_member_level = depth == 1
            depth += line.count("{") - line.count("}")
            if depth > 0:
                in_body = True
            elif in_body:
                break  # end of class
            if not at_member_level or not in_body:
                continue
            if stripped.startswith("public:"):
                public = True
                continue
            if stripped.startswith(("private:", "protected:")):
                public = False
                continue
            if not public or stripped.startswith("//"):
                continue
            # Constructors/destructors/operators are structural; the
            # documented contract lives on the named methods.
            if ("~" in stripped or "operator" in stripped
                    or stripped.startswith(cls + "(")):
                continue
            if not METHOD_RE.match(stripped):
                continue
            prev = idx - 1
            # Template heads and static_asserts sit between the doc comment
            # and the declaration; skip them when scanning back.
            while prev >= 0 and (not lines[prev].strip()
                                 or lines[prev].strip().startswith(
                                     ("template", "static_assert"))):
                prev -= 1
            if prev < 0 or not lines[prev].strip().startswith("//"):
                errors.append(
                    f"{header}:{idx + 1}: public {cls} method without a "
                    "doc comment")
    return errors


def check_api_doc_comments():
    """Runs the public-API doc check over every registered surface."""
    errors = []
    for header, classes in API_SURFACES:
        errors += check_api_header(header, classes)
    return errors


# Docs whose backticked identifiers must name something in the code, and the
# trees the names are looked up in.
IDENTIFIER_DOCS = ("ARCHITECTURE.md", "docs/paper_map.md")
CODE_TREES = ("src", "tests", "bench", "examples", "perfbench", "tools")
FENCE_RE = re.compile(r"^```.*?^```", re.S | re.M)
SPAN_RE = re.compile(r"`([^`\n]+)`")
# `A::b::c`, optionally called: `Fn()`, `Fn(args)`.
IDENT_SPAN_RE = re.compile(
    r"^([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)(?:\([^()]*\))?$")
WORD_RE = re.compile(r"[A-Za-z_]\w*")


def check_doc_identifiers():
    """Backticked identifiers in IDENTIFIER_DOCS must occur in CODE_TREES
    (each `::` component as a whole word)."""
    words = set()
    for tree in CODE_TREES:
        for path in (REPO / tree).rglob("*"):
            if path.is_file():
                text = path.read_bytes().decode("utf-8", errors="ignore")
                words.update(WORD_RE.findall(text))
    errors = []
    for doc in IDENTIFIER_DOCS:
        # Blank out fenced blocks but keep their newlines for line numbers.
        text = FENCE_RE.sub(lambda m: "\n" * m.group(0).count("\n"),
                            (REPO / doc).read_text(encoding="utf-8"))
        for line_no, line in enumerate(text.splitlines(), 1):
            for span in SPAN_RE.findall(line):
                match = IDENT_SPAN_RE.match(span.strip())
                if match is None:
                    continue
                missing = [part for part in match.group(1).split("::")
                           if part not in words]
                if missing:
                    errors.append(
                        f"{doc}:{line_no}: `{span}` names "
                        f"{', '.join(missing)}, which "
                        "no file under " + "/ ".join(CODE_TREES) + "/ has")
    return errors


def main():
    errors = (check_links() + check_onbatch_doc_comments()
              + check_api_doc_comments() + check_free_function_doc_comments()
              + check_doc_identifiers())
    for error in errors:
        print(error)
    if errors:
        print(f"\n{len(errors)} docs check failure(s)", file=sys.stderr)
        return 1
    print("docs checks clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
