"""The five AST checks. Requires clang.cindex (import via engine only).

Each check is a generator `check(ctx) -> Iterable[Finding]` over one
parsed TU; `registry()` maps check names (the same names documented in
gnav_analyzer.CHECK_DESCRIPTIONS) to implementations.

Soundness notes (the documented limits of same-TU analysis):
  - reachability (tls-scope-pinning) follows direct calls plus calls to
    functions DEFINED IN THE SAME TU; a call through a std::function or
    into another TU is opaque — by design those boundaries carry their
    own contracts (stage closures re-pin scopes at the boundary).
  - lock extents are lexical: a MutexLock/UniqueLock local holds from
    its declaration to the end of its enclosing compound statement.
    Manual unlock() before a flagged call is what the inline
    `// gnav-analyzer(lock-held-reentry): <reason>` hatch is for.
"""

from __future__ import annotations

from gnav_analyzer.engine import cindex
from gnav_analyzer.report import Finding

_UNORDERED = (
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
)
_SCOPE_TYPES = ("BackendScope",)
_LOCK_TYPES = ("support::MutexLock", "support::UniqueLock")


# ---------------------------------------------------------------- utils


def _walk(cursor):
    for child in cursor.get_children():
        yield child
        yield from _walk(child)


def _ctype(t) -> str:
    try:
        return t.get_canonical().spelling
    except Exception:
        return t.spelling


def _attr_texts(cursor) -> list[str]:
    out = []
    for child in cursor.get_children():
        if child.kind.is_attribute():
            out.append(" ".join(tok.spelling for tok in child.get_tokens()))
    return out


def _qualified_name(cursor) -> str:
    cx = cindex()
    parts = []
    c = cursor
    while c is not None and c.kind != cx.CursorKind.TRANSLATION_UNIT:
        if c.spelling:
            parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


def _offset(cursor) -> int:
    return cursor.location.offset


def _finding(check: str, cursor, message: str) -> Finding:
    loc = cursor.location
    return Finding(
        check=check,
        file=loc.file.name if loc.file else "<unknown>",
        line=loc.line,
        column=loc.column,
        message=message,
    )


def _function_definitions(ctx):
    """Every function-like definition in scope, lambdas included."""
    cx = cindex()
    kinds = {
        cx.CursorKind.FUNCTION_DECL,
        cx.CursorKind.CXX_METHOD,
        cx.CursorKind.CONSTRUCTOR,
        cx.CursorKind.DESTRUCTOR,
        cx.CursorKind.CONVERSION_FUNCTION,
        cx.CursorKind.LAMBDA_EXPR,
    }
    for cursor in _walk(ctx.tu.cursor):
        if cursor.kind in kinds and ctx.in_scope(cursor):
            if cursor.kind == cx.CursorKind.LAMBDA_EXPR or \
                    cursor.is_definition():
                yield cursor


def _body_of(fn):
    cx = cindex()
    for child in fn.get_children():
        if child.kind == cx.CursorKind.COMPOUND_STMT:
            return child
    return None


# ------------------------------------------------- guarded-ref-escape


def check_guarded_ref_escape(ctx):
    """Public methods of capability classes must not return refs or
    pointers whose expression reaches a GNAV_GUARDED_BY field. Methods
    annotated GNAV_REQUIRES / GNAV_RETURN_CAPABILITY are the designed
    hand-the-lock-to-the-caller surfaces and are exempt.
    """
    cx = cindex()
    ref_kinds = {
        cx.TypeKind.POINTER,
        cx.TypeKind.LVALUEREFERENCE,
        cx.TypeKind.RVALUEREFERENCE,
    }
    class_kinds = {
        cx.CursorKind.CLASS_DECL,
        cx.CursorKind.STRUCT_DECL,
        cx.CursorKind.CLASS_TEMPLATE,
    }
    for cls in _walk(ctx.tu.cursor):
        if cls.kind not in class_kinds or not cls.is_definition():
            continue
        if not ctx.in_scope(cls):
            continue
        guarded: dict[str, str] = {}
        for member in cls.get_children():
            if member.kind != cx.CursorKind.FIELD_DECL:
                continue
            for attr in _attr_texts(member):
                if "guarded_by" in attr:
                    guarded[member.get_usr()] = member.spelling
        if not guarded:
            continue
        for method in cls.get_children():
            if method.kind != cx.CursorKind.CXX_METHOD:
                continue
            if method.access_specifier != cx.AccessSpecifier.PUBLIC:
                continue
            if method.result_type.get_canonical().kind not in ref_kinds:
                continue
            attrs = " ".join(_attr_texts(method))
            if ("requires_capability" in attrs
                    or "exclusive_locks_required" in attrs
                    or "lock_returned" in attrs
                    or "assert_capability" in attrs):
                continue
            definition = method.get_definition()
            if definition is None:
                definition = method if method.is_definition() else None
            if definition is None:
                continue
            for node in _walk(definition):
                if node.kind != cx.CursorKind.RETURN_STMT:
                    continue
                for expr in _walk(node):
                    if expr.kind != cx.CursorKind.MEMBER_REF_EXPR:
                        continue
                    ref = expr.get_referenced()
                    if ref is not None and ref.get_usr() in guarded:
                        yield _finding(
                            "guarded-ref-escape",
                            expr,
                            f"public method '{cls.spelling}::"
                            f"{method.spelling}' returns a reference/"
                            f"pointer into guarded field "
                            f"'{guarded[ref.get_usr()]}' — return a "
                            "value snapshot, or annotate the method "
                            "GNAV_REQUIRES/GNAV_RETURN_CAPABILITY if "
                            "handing out the lock is the design",
                        )
                        break


# -------------------------------------------------- lock-held-reentry


def _is_lock_decl(cx, stmt) -> bool:
    if stmt.kind != cx.CursorKind.DECL_STMT:
        return False
    for decl in stmt.get_children():
        if decl.kind == cx.CursorKind.VAR_DECL:
            spelling = _ctype(decl.type)
            if any(lock in spelling for lock in _LOCK_TYPES):
                return True
    return False


def _reentry_findings(cx, call):
    """Classify one CALL_EXPR made while a lock is held."""
    ref = call.get_referenced()
    if ref is not None:
        if ref.kind in (
            cx.CursorKind.CONSTRUCTOR,
            cx.CursorKind.CONVERSION_FUNCTION,
        ):
            return None
        if (ref.spelling == "create"
                and ref.semantic_parent is not None
                and ref.semantic_parent.spelling == "BackendFactory"):
            return ("BackendFactory::create() invoked under a held "
                    "support::Mutex — creators are arbitrary user code "
                    "and may re-enter the factory (self-deadlock)")
        if ref.kind == cx.CursorKind.CXX_METHOD:
            parent = ref.semantic_parent
            parent_type = _ctype(parent.type) if parent is not None else ""
            if (ref.spelling == "operator()"
                    and "function<" in parent_type):
                return ("std::function invoked under a held "
                        "support::Mutex — user callbacks must run "
                        "outside the lock (copy the callable out first)")
            if ref.is_virtual_method():
                return (f"virtual call '{_qualified_name(ref)}' under a "
                        "held support::Mutex — overrides are arbitrary "
                        "user code and may re-enter the lock")
        if ref.kind in (
            cx.CursorKind.FIELD_DECL,
            cx.CursorKind.VAR_DECL,
            cx.CursorKind.PARM_DECL,
        ):
            t = ref.type.get_canonical()
            if t.kind == cx.TypeKind.POINTER and \
                    t.get_pointee().kind == cx.TypeKind.FUNCTIONPROTO:
                return (f"call through function pointer "
                        f"'{ref.spelling}' under a held support::Mutex "
                        "— the callee is arbitrary user code")
        return None
    # Unresolved callee: detect raw function-pointer calls structurally.
    children = list(call.get_children())
    if children:
        t = children[0].type.get_canonical()
        if t.kind == cx.TypeKind.POINTER and \
                t.get_pointee().kind == cx.TypeKind.FUNCTIONPROTO:
            return ("call through function pointer under a held "
                    "support::Mutex — the callee is arbitrary user code")
    return None


def check_lock_held_reentry(ctx):
    cx = cindex()
    for fn in _function_definitions(ctx):
        body = _body_of(fn)
        if body is None:
            continue
        findings: list[Finding] = []

        def scan_stmt(node, held: bool):
            if node.kind == cx.CursorKind.LAMBDA_EXPR:
                # A nested lambda's body runs when invoked, not here;
                # it is scanned as its own function definition.
                return
            if node.kind == cx.CursorKind.COMPOUND_STMT:
                scan_compound(node, held)
                return
            if held and node.kind == cx.CursorKind.CALL_EXPR:
                message = _reentry_findings(cx, node)
                if message is not None:
                    findings.append(
                        _finding("lock-held-reentry", node, message)
                    )
            for child in node.get_children():
                scan_stmt(child, held)

        def scan_compound(compound, held: bool):
            locked = held
            for stmt in compound.get_children():
                if not locked and _is_lock_decl(cx, stmt):
                    locked = True
                    continue
                scan_stmt(stmt, locked)

        scan_compound(body, False)
        yield from findings


# -------------------------------------------------- tls-scope-pinning


def _is_kernel_call(cx, call) -> bool:
    ref = call.get_referenced()
    if ref is None:
        return False
    qname = _qualified_name(ref)
    if "kernels::" in qname and ref.kind != cx.CursorKind.CONSTRUCTOR:
        return True
    if qname.endswith("compute::current_backend"):
        return True
    if ref.kind == cx.CursorKind.CXX_METHOD:
        parent = ref.semantic_parent
        if parent is not None and parent.spelling == "ComputeBackend":
            return True
    return False


def check_tls_scope_pinning(ctx):
    """std::thread bodies reaching kernel code (directly or through
    functions defined in the same TU) must construct a BackendScope, the
    one thread-local selection pin, before the first reaching call —
    thread-locals do not cross thread creation.
    """
    cx = cindex()

    # Same-TU call graph: usr -> callees, usr -> whether any direct call
    # touches kernel code.
    defined: dict[str, object] = {}
    direct_kernel: dict[str, bool] = {}
    callees: dict[str, set[str]] = {}
    for fn in _function_definitions(ctx):
        if fn.kind == cx.CursorKind.LAMBDA_EXPR:
            continue  # lambdas are entry points, handled below
        usr = fn.get_usr()
        if not usr:
            continue
        defined[usr] = fn
        direct_kernel[usr] = False
        callees[usr] = set()
        body = _body_of(fn)
        if body is None:
            continue
        for node in _walk(body):
            if node.kind != cx.CursorKind.CALL_EXPR:
                continue
            if _is_kernel_call(cx, node):
                direct_kernel[usr] = True
            ref = node.get_referenced()
            if ref is not None:
                callee_usr = ref.get_usr()
                if callee_usr:
                    callees[usr].add(callee_usr)

    reach_memo: dict[str, bool] = {}

    def reaches_kernel(usr: str, trail: set[str]) -> bool:
        if usr in reach_memo:
            return reach_memo[usr]
        if usr in trail:
            return False
        if direct_kernel.get(usr):
            reach_memo[usr] = True
            return True
        trail.add(usr)
        result = any(
            callee in defined and reaches_kernel(callee, trail)
            for callee in callees.get(usr, ())
        )
        trail.discard(usr)
        reach_memo[usr] = result
        return result

    def thread_lambdas():
        seen_offsets = set()
        for cursor in _walk(ctx.tu.cursor):
            if not ctx.in_scope(cursor):
                continue
            spelling = _ctype(cursor.type)
            is_thread_expr = spelling == "std::thread"
            if not is_thread_expr and cursor.kind == cx.CursorKind.CALL_EXPR:
                ref = cursor.get_referenced()
                if (ref is not None
                        and ref.spelling in ("emplace_back", "push_back")):
                    # e.g. workers_.emplace_back([...]{...}) on a
                    # std::vector<std::thread> — the call itself returns
                    # void/reference, so look at the container operand.
                    is_thread_expr = any(
                        "std::thread" in _ctype(child.type)
                        for child in cursor.get_children()
                    )
            if not is_thread_expr:
                continue
            for node in _walk(cursor):
                if node.kind == cx.CursorKind.LAMBDA_EXPR:
                    key = (node.location.offset, node.extent.end.offset)
                    if key not in seen_offsets:
                        seen_offsets.add(key)
                        yield node

    for lam in thread_lambdas():
        body = _body_of(lam)
        if body is None:
            continue
        first_reach = None  # (offset, cursor, why)
        for node in _walk(body):
            if node.kind != cx.CursorKind.CALL_EXPR:
                continue
            if _is_kernel_call(cx, node):
                if first_reach is None or _offset(node) < first_reach[0]:
                    first_reach = (_offset(node), node, "calls kernel code")
                continue
            ref = node.get_referenced()
            if ref is None:
                continue
            usr = ref.get_usr()
            if usr and usr in defined and reaches_kernel(usr, set()):
                if first_reach is None or _offset(node) < first_reach[0]:
                    first_reach = (
                        _offset(node),
                        node,
                        f"reaches kernel code via '{ref.spelling}()'",
                    )
        if first_reach is None:
            continue
        scope_offset = None
        for node in _walk(body):
            if node.kind == cx.CursorKind.VAR_DECL:
                spelling = _ctype(node.type)
                if any(s in spelling for s in _SCOPE_TYPES):
                    if scope_offset is None or _offset(node) < scope_offset:
                        scope_offset = _offset(node)
        if scope_offset is None or scope_offset > first_reach[0]:
            yield _finding(
                "tls-scope-pinning",
                first_reach[1],
                f"std::thread body {first_reach[2]} without first "
                "constructing a BackendScope — fresh "
                "threads inherit no thread-local backend selection",
            )


# ----------------------------------------------- rng-stream-discipline


def _is_rng_type(spelling: str) -> bool:
    return "support::Rng" in spelling


def _is_parallel_entry(cx, ref) -> bool:
    if ref.spelling == "parallel_for":
        return "support" in _qualified_name(ref)
    if ref.spelling == "submit":
        parent = ref.semantic_parent
        return parent is not None and "ThreadPool" in parent.spelling
    return False


def check_rng_stream_discipline(ctx):
    """Task bodies handed to ThreadPool::parallel_for/submit must not
    touch an Rng declared outside the body (shared stream ⇒ results
    depend on the schedule) and must not copy an Rng; fresh per-task
    streams come from support::task_seed.
    """
    cx = cindex()
    for call in _walk(ctx.tu.cursor):
        if call.kind != cx.CursorKind.CALL_EXPR:
            continue
        if not ctx.in_scope(call):
            continue
        ref = call.get_referenced()
        if ref is None or not _is_parallel_entry(cx, ref):
            continue
        for lam in _walk(call):
            if lam.kind != cx.CursorKind.LAMBDA_EXPR:
                continue
            extent = (lam.extent.start.offset, lam.extent.end.offset)
            # Walk only the BODY: the capture list also emits DECL_REF
            # cursors, and a captured-but-unused Rng is not a use.
            scan_root = _body_of(lam) or lam
            for node in _walk(scan_root):
                if node.kind in (
                    cx.CursorKind.DECL_REF_EXPR,
                    cx.CursorKind.MEMBER_REF_EXPR,
                ):
                    decl = node.get_referenced()
                    if decl is None or decl.kind not in (
                        cx.CursorKind.VAR_DECL,
                        cx.CursorKind.PARM_DECL,
                        cx.CursorKind.FIELD_DECL,
                    ):
                        continue
                    if not _is_rng_type(_ctype(decl.type)):
                        continue
                    declared_inside = (
                        decl.location.file is not None
                        and decl.location.file.name
                        == (lam.location.file.name
                            if lam.location.file else None)
                        and extent[0] <= decl.location.offset <= extent[1]
                    )
                    if not declared_inside:
                        yield _finding(
                            "rng-stream-discipline",
                            node,
                            f"task body references Rng '{decl.spelling}'"
                            " declared outside the task — construct a "
                            "per-task stream from support::task_seed "
                            "instead of sharing one",
                        )
                elif node.kind == cx.CursorKind.VAR_DECL and \
                        _is_rng_type(_ctype(node.type)):
                    for init in _walk(node):
                        if init.kind == cx.CursorKind.DECL_REF_EXPR:
                            src = init.get_referenced()
                            if (src is not None
                                    and src != node
                                    and src.kind in (
                                        cx.CursorKind.VAR_DECL,
                                        cx.CursorKind.PARM_DECL,
                                        cx.CursorKind.FIELD_DECL,
                                    )
                                    and _is_rng_type(_ctype(src.type))):
                                yield _finding(
                                    "rng-stream-discipline",
                                    node,
                                    f"Rng '{node.spelling}' is copied "
                                    f"from '{src.spelling}' inside a "
                                    "task body — duplicate streams "
                                    "collide; derive a fresh one from "
                                    "support::task_seed",
                                )
                                break


# ------------------------------------------------ unordered-iteration


def check_unordered_iteration(ctx):
    cx = cindex()
    for node in _walk(ctx.tu.cursor):
        if node.kind != cx.CursorKind.CXX_FOR_RANGE_STMT:
            continue
        if not ctx.in_scope(node):
            continue
        children = list(node.get_children())
        for child in children[:-1]:  # the last child is the loop body
            spelling = _ctype(child.type)
            if any(u in spelling for u in _UNORDERED):
                yield _finding(
                    "unordered-iteration",
                    node,
                    f"range-for over '{spelling}' iterates in hash "
                    "order — iterate a sorted/dense structure, or "
                    "annotate if order provably cannot escape",
                )
                break


def registry():
    return {
        "tls-scope-pinning": check_tls_scope_pinning,
        "guarded-ref-escape": check_guarded_ref_escape,
        "lock-held-reentry": check_lock_held_reentry,
        "rng-stream-discipline": check_rng_stream_discipline,
        "unordered-iteration": check_unordered_iteration,
    }
