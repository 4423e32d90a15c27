#!/usr/bin/env python3
"""Project-specific lint for the radix engine (src/ only).

Rules (each prints `file:line: [rule] message` and fails the run):

  raw-primitive      std::mutex / std::condition_variable / std::thread /
                     std::lock_guard / std::unique_lock / std::scoped_lock
                     outside src/common/ — everything else must use the
                     annotated radix::Mutex / MutexLock / CondVar wrappers
                     (common/mutex.h) or the ThreadPool so Clang Thread
                     Safety Analysis sees every lock.
  raw-new-array      `new T[...]` anywhere in src/ — the repo allocates
                     through containers and AlignedBuffer.
  notify-outside-lock  CondVar::Notify{One,All} must be called while a
                     MutexLock is live in the same scope. Notifying after
                     unlock races destruction of the waiting side (the
                     TSan-caught executor destroy race); see
                     docs/CONCURRENCY.md.
  unchecked-snprintf std::snprintf as a bare statement — check (or
                     explicitly (void)) the return value (cert-err33-c).
  tsa-escape         RADIX_NO_THREAD_SAFETY_ANALYSIS anywhere except
                     src/common/thread_pool.cc (the only sanctioned home,
                     and only with a justification comment).
  raw-intrinsics     #include <immintrin.h> (or any x86 intrinsic header)
                     outside src/common/ and outside *_avx2.cc /
                     *_avx512.cc translation units. Kernel code must go
                     through the dispatch table (common/simd_kernels.h):
                     scattered raw intrinsics dodge the runtime ISA
                     clamp, the forced-ISA test matrix, and the
                     byte-identity property tests.
  layer-violation    #include "<layer>/..." that is not in the including
                     layer's transitive dependency closure (the DAG
                     documented in src/CMakeLists.txt). Catches include
                     cycles and upward includes at review time instead of
                     link time.
  pool-construction  constructing a ThreadPool (`ThreadPool x(...)`,
                     `make_unique<ThreadPool>`, `new ThreadPool`) outside
                     src/common/ and src/engine/. Kernels run on the pool
                     their caller passes in (nullptr = serial); the
                     engine owns the one session pool. Keeps per-call and
                     hidden process-wide pools from coming back.
  fuzz-unregistered  every fuzz/*_fuzz.cc must appear in the
                     RADIX_FUZZ_HARNESSES list of fuzz/CMakeLists.txt (so
                     it builds in both libFuzzer and corpus-replay mode
                     and runs under `ctest -L fuzz`) and must have a
                     non-empty seed corpus in fuzz/corpus/<name>/. A
                     harness without seeds proves nothing on replay; one
                     without a target silently rots.

`--self-test` runs every rule against embedded seeded violations and fails
unless each one is caught — proving the gate actually gates.
"""

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# The layer DAG of src/CMakeLists.txt: direct dependencies per layer.
LAYER_DEPS = {
    "common": set(),
    "hardware": {"common"},
    "bufferpool": {"common"},
    "storage": {"common"},
    "simcache": {"common", "hardware"},
    "workload": {"common", "storage"},
    "cluster": {"common", "hardware", "simcache", "storage"},
    "costmodel": {"common", "hardware", "cluster"},
    "join": {"cluster"},
    "decluster": {"cluster", "bufferpool"},
    "pipeline": {"storage"},
    "project": {"costmodel", "decluster", "join", "pipeline", "workload"},
    "ops": {"project", "pipeline"},
    "engine": {"project", "ops"},
}


def transitive_closure(deps):
    closure = {}

    def visit(layer, stack):
        if layer in closure:
            return closure[layer]
        if layer in stack:
            raise SystemExit(f"layer cycle through {layer!r}")
        out = set()
        for d in deps[layer]:
            out.add(d)
            out |= visit(d, stack | {layer})
        closure[layer] = out
        return out

    for layer in deps:
        visit(layer, frozenset())
    return closure


CLOSURE = transitive_closure(LAYER_DEPS)

RAW_PRIMITIVE = re.compile(
    r"std::(mutex|condition_variable(_any)?|lock_guard|unique_lock|"
    r"scoped_lock|shared_mutex|shared_lock|recursive_mutex)\b"
)
# std::thread as a type/object, but not std::thread::hardware_concurrency
# (a pure query, used by the pool itself for sizing).
RAW_THREAD = re.compile(r"std::thread\b(?!::hardware_concurrency)")
RAW_NEW_ARRAY = re.compile(r"\bnew\s+[A-Za-z_][\w:<>, ]*\[")
POOL_CONSTRUCTION = re.compile(
    r"\bThreadPool\s+\w+\s*[({]|"
    r"\bmake_(unique|shared)\s*<\s*(radix::)?ThreadPool\s*>|"
    r"\bnew\s+(radix::)?ThreadPool\b"
)
# Layers that may construct a ThreadPool: the pool itself and the engine
# that owns the session pool.
POOL_OWNERS = {"common", "engine"}
NOTIFY = re.compile(r"\.Notify(One|All)\s*\(")
MUTEX_LOCK_DECL = re.compile(r"\bMutexLock\s+\w+\s*[({]")
SNPRINTF_STMT = re.compile(r"^\s*(std::)?snprintf\s*\(")
TSA_ESCAPE = re.compile(r"\bRADIX_NO_THREAD_SAFETY_ANALYSIS\b")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
ANGLE_INCLUDE = re.compile(r"^\s*#\s*include\s+<([^>]+)>")
# The x86 SIMD intrinsic headers (immintrin.h is the umbrella; the rest
# are its per-ISA pieces someone might reach for directly).
INTRINSIC_HEADERS = {
    "immintrin.h", "x86intrin.h", "xmmintrin.h", "emmintrin.h",
    "pmmintrin.h", "tmmintrin.h", "smmintrin.h", "nmmintrin.h",
    "wmmintrin.h", "avxintrin.h", "avx2intrin.h",
}
# TUs allowed to use intrinsics outside common/: per-ISA kernel files
# compiled with their own -m flags and registered in the dispatch table.
INTRINSIC_TU = re.compile(r"_(avx2|avx512)\.cc$")
LINE_COMMENT = re.compile(r"//[^\n]*")
TSA_ESCAPE_HOME = "common/thread_pool.cc"
# Files allowed to name the escape macro without using it (definition and
# the lint itself).
TSA_ESCAPE_MENTIONS = {"common/thread_annotations.h"}


def strip_comments_and_strings(line):
    """Good-enough scrub: drop // comments and "..." string contents so the
    regexes do not fire on prose. (Block comments are handled per-file.)"""
    line = LINE_COMMENT.sub("", line)
    return re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)


def strip_block_comments(text):
    """Replace /* ... */ spans with spaces, preserving line structure."""
    out = []
    in_block = False
    i = 0
    while i < len(text):
        if not in_block and text.startswith("/*", i):
            in_block = True
            i += 2
            out.append("  ")
        elif in_block and text.startswith("*/", i):
            in_block = False
            i += 2
            out.append("  ")
        elif in_block and text[i] != "\n":
            out.append(" ")
            i += 1
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def lint_file(rel, text):
    """Lint one file; `rel` is the path relative to src/ with / separators.
    Yields (lineno, rule, message)."""
    layer = rel.split("/", 1)[0]
    allowed_layers = {layer} | CLOSURE.get(layer, set())
    lines = strip_block_comments(text).split("\n")

    # Scope tracking for notify-outside-lock: a stack of brace depths at
    # which a MutexLock was declared. A Notify is fine iff some live
    # MutexLock sits at a depth <= the current one.
    depth = 0
    lock_depths = []

    for lineno, raw in enumerate(lines, start=1):
        line = strip_comments_and_strings(raw)

        # Match includes on the raw line: the string-stripper above blanks
        # the quoted path.
        m = INCLUDE.match(LINE_COMMENT.sub("", raw))
        if m:
            inc = m.group(1)
            inc_layer = inc.split("/", 1)[0]
            if inc_layer in LAYER_DEPS and inc_layer not in allowed_layers:
                yield (lineno, "layer-violation",
                       f'layer "{layer}" must not include "{inc}" '
                       f'("{inc_layer}" is not in its dependency closure; '
                       "see src/CMakeLists.txt)")

        am = ANGLE_INCLUDE.match(LINE_COMMENT.sub("", raw))
        if (am and am.group(1) in INTRINSIC_HEADERS
                and layer != "common" and not INTRINSIC_TU.search(rel)):
            yield (lineno, "raw-intrinsics",
                   f"<{am.group(1)}> outside common/ and *_avx2.cc/"
                   "*_avx512.cc; route SIMD through the dispatch table "
                   "(common/simd_kernels.h) so the ISA clamp, forced-ISA "
                   "matrix and byte-identity tests cover it")

        if layer != "common":
            if RAW_PRIMITIVE.search(line):
                yield (lineno, "raw-primitive",
                       "raw std synchronization primitive outside common/; "
                       "use radix::Mutex / MutexLock / CondVar "
                       "(common/mutex.h)")
            if RAW_THREAD.search(line):
                yield (lineno, "raw-primitive",
                       "raw std::thread outside common/; use the ThreadPool")

        if layer not in POOL_OWNERS and POOL_CONSTRUCTION.search(line):
            yield (lineno, "pool-construction",
                   "ThreadPool constructed outside common/ and engine/; "
                   "take the caller's ThreadPool* instead (nullptr = "
                   "serial kernels)")

        if RAW_NEW_ARRAY.search(line):
            yield (lineno, "raw-new-array",
                   "raw new[]; use std::vector or AlignedBuffer")

        if SNPRINTF_STMT.match(line):
            yield (lineno, "unchecked-snprintf",
                   "snprintf result discarded; check the return value "
                   "(or (void)-cast a deliberate ignore)")

        if TSA_ESCAPE.search(line):
            if rel != TSA_ESCAPE_HOME and rel not in TSA_ESCAPE_MENTIONS:
                yield (lineno, "tsa-escape",
                       "RADIX_NO_THREAD_SAFETY_ANALYSIS is only sanctioned "
                       f"in {TSA_ESCAPE_HOME} (with a justification "
                       "comment)")

        # Update scope state in positional order: braces, MutexLock
        # declarations and Notify calls interleave on one line, and a
        # notify only counts as locked if a still-live MutexLock was
        # declared before it.
        events = [(m.start(), "{" if m.group() == "{" else "}")
                  for m in re.finditer(r"[{}]", line)]
        events += [(m.start(), "lock")
                   for m in MUTEX_LOCK_DECL.finditer(line)]
        events += [(m.start(), "notify") for m in NOTIFY.finditer(line)]
        for _, kind in sorted(events):
            if kind == "{":
                depth += 1
            elif kind == "}":
                depth -= 1
                while lock_depths and lock_depths[-1] > depth:
                    lock_depths.pop()
            elif kind == "lock":
                lock_depths.append(depth)
            elif not lock_depths:
                yield (lineno, "notify-outside-lock",
                       "CondVar notify with no MutexLock live in scope; "
                       "notify under the lock (docs/CONCURRENCY.md)")


FUZZ = REPO / "fuzz"
# A harness counts as registered when its name appears on its own line
# inside fuzz/CMakeLists.txt (the RADIX_FUZZ_HARNESSES list entries).
FUZZ_LIST_ENTRY = re.compile(r"^\s*([a-z0-9_]+_fuzz)\)?\s*$", re.MULTILINE)


def lint_fuzz_registration(harness_names, cmake_text, corpus_seeds):
    """Pure core of the fuzz-unregistered rule, separated from the
    filesystem so --self-test can fabricate its inputs.

    harness_names: iterable of harness stems (e.g. "cluster_spec_fuzz")
                   for each fuzz/*_fuzz.cc present.
    cmake_text:    contents of fuzz/CMakeLists.txt.
    corpus_seeds:  dict harness stem -> number of seed files in
                   fuzz/corpus/<stem>/ (missing key = no directory).
    Yields (harness, message).
    """
    registered = set(FUZZ_LIST_ENTRY.findall(cmake_text))
    for name in sorted(harness_names):
        if name not in registered:
            yield (name,
                   f"fuzz/{name}.cc has no target: add it to the "
                   "RADIX_FUZZ_HARNESSES list in fuzz/CMakeLists.txt "
                   "(and a RADIX_FUZZ_RAND_<name> smoke depth)")
        if corpus_seeds.get(name, 0) == 0:
            yield (name,
                   f"fuzz/corpus/{name}/ is missing or empty: commit at "
                   "least one seed input (replay mode proves nothing "
                   "without seeds; see docs/FUZZING.md)")


def run_fuzz_registration():
    """Collect the real fuzz/ layout and apply the pure rule."""
    if not FUZZ.is_dir():
        return []
    harnesses = [p.stem for p in FUZZ.glob("*_fuzz.cc")]
    cmake = FUZZ / "CMakeLists.txt"
    cmake_text = cmake.read_text() if cmake.is_file() else ""
    seeds = {}
    for name in harnesses:
        corpus = FUZZ / "corpus" / name
        if corpus.is_dir():
            seeds[name] = sum(1 for f in corpus.iterdir() if f.is_file())
    return [f"fuzz/{name}.cc: [fuzz-unregistered] {msg}"
            for name, msg in lint_fuzz_registration(harnesses, cmake_text,
                                                    seeds)]


def run(paths=None):
    failures = []
    files = sorted(SRC.rglob("*.h")) + sorted(SRC.rglob("*.cc"))
    if paths:
        files = [pathlib.Path(p) for p in paths]
    for path in files:
        rel = path.resolve().relative_to(SRC).as_posix()
        for lineno, rule, msg in lint_file(rel, path.read_text()):
            failures.append(f"src/{rel}:{lineno}: [{rule}] {msg}")
    if not paths:
        failures.extend(run_fuzz_registration())
    return failures


SELF_TEST_CASES = [
    # (relative-path-to-pretend, source, expected rule or None)
    ("engine/bad.cc", "std::mutex mu_;\n", "raw-primitive"),
    ("engine/bad.cc", "std::lock_guard<std::mutex> l(mu_);\n",
     "raw-primitive"),
    ("pipeline/bad.cc", "std::thread t([] {});\n", "raw-primitive"),
    ("common/ok.cc", "std::mutex mu_;\n", None),  # common/ may wrap raws
    ("cluster/bad.cc", "auto* p = new uint64_t[n];\n", "raw-new-array"),
    ("engine/bad.cc", "  std::snprintf(buf, sizeof(buf), \"%d\", x);\n",
     "unchecked-snprintf"),
    ("engine/ok.cc",
     "  const int n = std::snprintf(buf, sizeof(buf), \"%d\", x);\n", None),
    ("cluster/bad.cc", "void F() RADIX_NO_THREAD_SAFETY_ANALYSIS;\n",
     "tsa-escape"),
    ("common/thread_pool.cc",
     "void F() RADIX_NO_THREAD_SAFETY_ANALYSIS;\n", None),
    ("bufferpool/bad.cc", '#include "engine/engine.h"\n', "layer-violation"),
    ("storage/bad.cc", '#include "cluster/radix_cluster.h"\n',
     "layer-violation"),
    ("engine/ok.cc", '#include "cluster/radix_cluster.h"\n', None),
    # ops sits below engine: an upward include must be caught...
    ("ops/bad.cc", '#include "engine/engine.h"\n', "layer-violation"),
    # ...while its sanctioned deps (project + closure) are clean, and
    # engine may reach down into ops.
    ("ops/ok.cc", '#include "project/dsm_post.h"\n', None),
    ("ops/ok.cc", '#include "join/positional_join.h"\n', None),
    ("engine/ok.cc", '#include "ops/plan.h"\n', None),
    ("engine/bad.cc",
     "void F() {\n  { MutexLock lock(mu_); x = 1; }\n  cv_.NotifyAll();\n}\n",
     "notify-outside-lock"),
    ("engine/ok.cc",
     "void F() {\n  MutexLock lock(mu_);\n  x = 1;\n  cv_.NotifyAll();\n}\n",
     None),
    ("engine/ok.cc",
     "void F() {\n  { MutexLock lock(mu_); cv_.NotifyOne(); }\n}\n", None),
    # Pools: only common/ and the engine construct one; everyone else
    # takes the caller's ThreadPool*.
    ("project/bad.cc", "  ThreadPool pool(num_threads);\n",
     "pool-construction"),
    ("ops/bad.cc", "  auto p = std::make_unique<ThreadPool>(n);\n",
     "pool-construction"),
    ("join/bad.cc", "  pool_ = new radix::ThreadPool(4);\n",
     "pool-construction"),
    ("engine/ok.cc", "  pool_ = std::make_unique<ThreadPool>(threads);\n",
     None),
    ("common/ok.cc", "  ThreadPool pool(1);\n", None),
    ("project/ok.cc", "void F(ThreadPool* pool);\n", None),
    ("project/ok.cc", "  ThreadPool* pool = KernelPool(options.pool);\n",
     None),
    ("project/ok.cc", "  ThreadPool& pool = *options.pool;\n", None),
    # Comments and strings must not fire.
    ("engine/ok.cc", "// std::mutex is banned here\n", None),
    ("engine/ok.cc", 's += "std::mutex";\n', None),
    # Raw intrinsics: banned in ordinary layer code...
    ("cluster/bad.cc", "#include <immintrin.h>\n", "raw-intrinsics"),
    ("join/bad.h", "#include <emmintrin.h>\n", "raw-intrinsics"),
    # ...allowed in common/ (the dispatch table lives there) and in
    # per-ISA kernel TUs that get their own -m flags...
    ("common/simd_kernels.h", "#include <immintrin.h>\n", None),
    ("cluster/scatter_avx2.cc", "#include <immintrin.h>\n", None),
    ("cluster/scatter_avx512.cc", "#include <immintrin.h>\n", None),
    # ...and prose or non-intrinsic angle includes never fire.
    ("cluster/ok.cc", "// #include <immintrin.h> is banned\n", None),
    ("cluster/ok.cc", "#include <vector>\n", None),
]

# Fabricated fuzz/ layouts for the fuzz-unregistered rule:
# (harness names, CMakeLists text, corpus seed counts, expected hit count).
FUZZ_CMAKE_OK = (
    "set(RADIX_FUZZ_HARNESSES\n  alpha_fuzz\n  beta_fuzz)\n"
)
FUZZ_SELF_TEST_CASES = [
    # Both registered, both seeded: clean.
    (["alpha_fuzz", "beta_fuzz"], FUZZ_CMAKE_OK,
     {"alpha_fuzz": 3, "beta_fuzz": 1}, 0),
    # Harness source exists but is absent from the list: caught.
    (["alpha_fuzz", "beta_fuzz", "gamma_fuzz"], FUZZ_CMAKE_OK,
     {"alpha_fuzz": 3, "beta_fuzz": 1, "gamma_fuzz": 2}, 1),
    # Registered but the corpus directory is empty: caught.
    (["alpha_fuzz", "beta_fuzz"], FUZZ_CMAKE_OK,
     {"alpha_fuzz": 3, "beta_fuzz": 0}, 1),
    # ...or missing entirely: caught.
    (["alpha_fuzz", "beta_fuzz"], FUZZ_CMAKE_OK, {"alpha_fuzz": 3}, 1),
    # Unregistered AND unseeded: two findings for the one harness.
    (["alpha_fuzz", "beta_fuzz", "gamma_fuzz"], FUZZ_CMAKE_OK,
     {"alpha_fuzz": 3, "beta_fuzz": 1}, 2),
    # The name must be a list entry, not prose in a comment.
    (["alpha_fuzz"], "# alpha_fuzz is documented here\n",
     {"alpha_fuzz": 3}, 1),
]


def self_test():
    bad = 0
    for i, (rel, source, expected) in enumerate(SELF_TEST_CASES):
        hits = [rule for (_, rule, _) in lint_file(rel, source)]
        if expected is None:
            if hits:
                print(f"self-test case {i} ({rel}): expected clean, "
                      f"got {hits}")
                bad += 1
        elif expected not in hits:
            print(f"self-test case {i} ({rel}): seeded {expected} "
                  f"violation NOT caught (got {hits})")
            bad += 1
    for i, (names, cmake, seeds, expected) in enumerate(FUZZ_SELF_TEST_CASES):
        hits = list(lint_fuzz_registration(names, cmake, seeds))
        if len(hits) != expected:
            print(f"fuzz self-test case {i}: expected {expected} "
                  f"finding(s), got {len(hits)}: {hits}")
            bad += 1
    if bad:
        print(f"radix_lint self-test: {bad} case(s) FAILED")
        return 1
    print(f"radix_lint self-test: all "
          f"{len(SELF_TEST_CASES) + len(FUZZ_SELF_TEST_CASES)} cases pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded seeded-violation suite")
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (default: all of src/)")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    failures = run(args.paths)
    for f in failures:
        print(f)
    if failures:
        print(f"radix_lint: {len(failures)} violation(s)")
        return 1
    print("radix_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
