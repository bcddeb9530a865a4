"""gnav_analyzer — AST-accurate project checks over the compile database.

The regex lint (tools/determinism_lint.py) can see tokens; this package
sees scopes, lock extents, and types. It drives libclang (clang.cindex)
over the exported compile database and enforces the repo's concurrency
and determinism contracts as named checks. Each check encodes a bug
class a past PR fixed by hand:

  tls-scope-pinning      fresh std::thread bodies that reach kernel code
                         must pin a BackendScope first (TLS does not
                         inherit across threads).
  guarded-ref-escape     public methods of capability classes must not
                         return references/pointers into GNAV_GUARDED_BY
                         fields (AST successor to the regex rule).
  lock-held-reentry      no virtual dispatch, user callback
                         (std::function / function pointer), or
                         BackendFactory::create while a support::Mutex
                         is held — the factory self-deadlock class.
  rng-stream-discipline  no outer-Rng references or Rng copies inside
                         parallel_for/submit bodies; per-task streams
                         come from task_seed.
  unordered-iteration    no range-for over unordered containers
                         (hash-order leaks into results).

Escape hatches: an inline `// gnav-analyzer(<check>): <reason>` on the
flagged line (or the line directly above), or an entry in
tools/gnav_analyzer/ALLOWLIST — both REQUIRE a justification.

This module and the plumbing (compiledb, suppress, report) import
without libclang; only engine/checks need clang.cindex. The CLI exits
77 (ctest SKIP) when libclang is unavailable.
"""

__version__ = "1.0.0"

# Check metadata lives here — cindex-free — so report writers and the
# plumbing tests can enumerate rules without libclang installed. The
# implementations in checks.py must cover exactly these names
# (engine.run asserts the two sets match).
CHECK_DESCRIPTIONS = {
    "tls-scope-pinning": (
        "std::thread body reaches kernel code without constructing a "
        "BackendScope first; fresh threads inherit no "
        "thread-local backend selection."
    ),
    "guarded-ref-escape": (
        "public method of a capability class returns a reference or "
        "pointer into a GNAV_GUARDED_BY field — a live alias the next "
        "locked mutation rewrites under the caller."
    ),
    "lock-held-reentry": (
        "virtual dispatch, user callback (std::function or function "
        "pointer), or BackendFactory::create invoked while a "
        "support::Mutex is held — arbitrary code under a lock can "
        "re-enter and self-deadlock."
    ),
    "rng-stream-discipline": (
        "parallel_for/submit body references an Rng declared outside "
        "the task or copies one; per-task streams must be constructed "
        "from task_seed so results are schedule-independent."
    ),
    "unordered-iteration": (
        "range-for over an unordered container; iteration is hash-order "
        "and leaks nondeterminism into anything order-sensitive."
    ),
}

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_CONFIG_ERROR = 2
EXIT_SKIP = 77  # matches the ctest SKIP_RETURN_CODE property
