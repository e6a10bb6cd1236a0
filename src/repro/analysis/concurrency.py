"""Static concurrency analyzer: interprocedural locksets + guarded-by.

PR 3's runtime sanitizer (R rules) only catches races that *manifest*
during an observed bounded run; this module proves lock discipline over
**all** paths, statically, before a single thread is started.  It is the
fifth rule family (S001-S010, S006 retired) reported through the
shared :mod:`repro.analysis.diagnostics` machinery.

How it works, per analyzed file:

1. **Lock discovery** — every class attribute assigned a
   ``threading.Lock()`` / ``RLock()`` / ``hooks.make_lock("name")``
   (directly or through a small helper, resolved to a bounded call
   depth) becomes a *lock field*.  ``hooks.make_lock`` string arguments
   become the lock's display name, so findings speak the same names
   as the runtime sanitizer ("Pusher.spill", ...).
2. **Lockset walk** — each method body is walked with the set of held
   locks at every statement: ``with self._lock:`` pushes, bare
   ``acquire()`` followed by ``try/finally: release()`` pushes for the
   ``try`` body (anything else is S005).  Every ``self.X`` read/write,
   internal call site and callback invocation is recorded together
   with the local lockset.
3. **Interprocedural propagation** — private helpers inherit the
   *intersection* of their callers' locksets (public or
   callback-escaped methods conservatively inherit nothing), iterated
   to a fixpoint, so "callers hold the lock" helper patterns are
   understood without annotations.
4. **Guarded-by inference** — an attribute written under lock L on at
   least half of its (non-``__init__``) writes is *claimed* by L; every
   access that cannot prove L is held raises S001/S002/S003/S004.
   ``# guarded-by: <lock>`` forces a claim; ``# unguarded: <reason>``
   declares an intentional racy access on that line.

Lock order is the runtime sanitizer's R001 (one rule per invariant):
its graph is built on the lock tracker R002/R003 already need.

Rule catalog (docs/STATIC_ANALYSIS.md):

====  ========  =====================================================
code  severity  condition
====  ========  =====================================================
S001  error     write to a claimed attribute without its guard
S002  warning   read of a claimed attribute without its guard
S003  error     claimed attribute accessed under a *different* lock
S004  error     check-then-act: tested unguarded, then acted on
S005  error     ``acquire()`` without ``with`` / ``try-finally``
S007  error     object published into a guarded container / thread,
                then mutated without the guard
S008  error     lock created per call instead of per instance
S009  warning   callback attribute invoked while holding its guard
S010  warning   stale or unverifiable guarded-by / unguarded comment
====  ========  =====================================================

Known limits (by design, to stay fast and predictable): analysis is
per-class (inherited attributes are attributed to the defining class),
locals are not tracked through aliasing, and module-level globals are
out of scope except for the per-call lock check (S008).

Suppression: ``# wintermute: ignore[S0xx]`` on the offending line
(counted in ``check``'s ``ignored`` total); intentional racy accesses
should prefer ``# unguarded: <reason>`` which documents intent.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.suppress import InlineSuppressions

#: threading constructors that count as "a lock" for S005/S008 and
#: lock-field discovery.
_LOCK_CTORS = {"Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition"}

#: attribute method names treated as *writes* to the attribute.
_MUTATORS = {
    "append", "extend", "insert", "add", "update", "clear", "remove",
    "discard", "pop", "popleft", "appendleft", "setdefault", "sort",
    "reverse", "put", "put_nowait",
}

#: attribute names that look like locks even without a visible ctor.
_LOCK_NAME_HINT = re.compile(r"(lock|mutex)", re.IGNORECASE)

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][\w.]*)")
_UNGUARDED_RE = re.compile(r"#\s*unguarded:\s*(.*)$")

_SEVERITY = {
    "S001": "error", "S002": "warning", "S003": "error", "S004": "error",
    "S005": "error", "S007": "error", "S008": "error",
    "S009": "warning", "S010": "warning",
}

#: codes an ``# unguarded: reason`` annotation waives on its line.
_UNGUARDED_WAIVES = {"S001", "S002", "S003", "S004", "S007", "S009"}

_MAX_CALL_DEPTH = 4
_MAX_FIXPOINT_ROUNDS = 10


# ---------------------------------------------------------------------------
# per-method walk records


@dataclass
class LockField:
    attr: str
    display: str
    line: int


@dataclass
class AttrAccess:
    attr: str
    kind: str  # 'read' | 'write'
    line: int
    method: str
    lockset: FrozenSet[str]
    exempt: bool = False  # __init__ / init-only helper access


@dataclass
class CallEvent:
    """``self.m(...)`` — internal call site with the lockset held."""

    callee: str
    lockset: FrozenSet[str]
    line: int
    method: str


@dataclass
class AttrCallEvent:
    """``self.X(...)`` — a callback stored in an attribute, invoked."""

    attr: str
    lockset: FrozenSet[str]
    line: int
    method: str


@dataclass
class IfEvent:
    """``if <test reading attrs>: <body>`` — S004 raw material."""

    test_reads: List[AttrAccess]
    body_writes: Set[str]
    body_locks: Set[str]
    line: int
    method: str


@dataclass
class PublishEvent:
    """Local name stored into a shared container or handed to a thread."""

    name: str
    container: Optional[str]  # None == passed to a thread/executor
    lockset: FrozenSet[str]
    line: int
    order: int
    method: str


@dataclass
class MutateEvent:
    name: str
    lockset: FrozenSet[str]
    line: int
    order: int
    method: str


@dataclass
class MethodInfo:
    name: str
    node: ast.AST
    is_public: bool
    accesses: List[AttrAccess] = field(default_factory=list)
    calls: List[CallEvent] = field(default_factory=list)
    attr_calls: List[AttrCallEvent] = field(default_factory=list)
    ifs: List[IfEvent] = field(default_factory=list)
    publishes: List[PublishEvent] = field(default_factory=list)
    mutates: List[MutateEvent] = field(default_factory=list)


@dataclass
class ClassInfo:
    name: str
    file: str
    node: ast.ClassDef
    locks: Dict[str, LockField] = field(default_factory=dict)
    methods: Dict[str, MethodInfo] = field(default_factory=dict)
    #: method names referenced without a call (callbacks, timers, ...).
    escaped: Set[str] = field(default_factory=set)
    #: attr -> (lock attr, annotation line) forced by # guarded-by.
    forced_claims: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: inferred claims: attr -> lock attr (filled by finalization).
    claims: Dict[str, str] = field(default_factory=dict)
    #: attr -> (guarded writes, total writes, total reads) bookkeeping.
    stats: Dict[str, Tuple[int, int, int]] = field(default_factory=dict)

    def display(self, lock_attr: str) -> str:
        lf = self.locks.get(lock_attr)
        return lf.display if lf else f"{self.name}.{lock_attr}"


@dataclass
class FileInfo:
    path: str
    sup: InlineSuppressions
    guarded_by: Dict[int, str]
    unguarded: Dict[int, str]
    classes: List[ClassInfo] = field(default_factory=list)
    #: guarded-by annotation lines consumed by an attribute assignment.
    consumed_guards: Set[int] = field(default_factory=set)


@dataclass
class ConcurrencyModel:
    """Everything one ``check --concurrency`` run inferred."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    ignored: int = 0
    files: List[FileInfo] = field(default_factory=list)


# ---------------------------------------------------------------------------
# lock-field discovery


def _lock_ctor_display(
    call: ast.Call, module_funcs: Dict[str, ast.AST], depth: int
) -> Optional[str]:
    """Display name if ``call`` constructs a lock; None otherwise.

    Returns ``""`` for anonymous ctors (``threading.Lock()``); the
    caller substitutes ``Class.attr``.  ``hooks.make_lock("name")``
    aliases resolve through same-module helper functions up to
    ``depth`` calls deep.
    """
    func = call.func
    name = None
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    if name in _LOCK_CTORS:
        return ""
    if name == "make_lock":
        if call.args and isinstance(call.args[0], ast.Constant) and \
                isinstance(call.args[0].value, str):
            return call.args[0].value
        return ""
    if depth <= 0:
        return None
    helper = module_funcs.get(name) if isinstance(func, ast.Name) else None
    if helper is None:
        return None
    for node in ast.walk(helper):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
            got = _lock_ctor_display(node.value, module_funcs, depth - 1)
            if got is not None:
                return got
    return None


def _discover_locks(
    ci: ClassInfo, module_funcs: Dict[str, ast.AST]
) -> None:
    """Populate ``ci.locks`` from the class body."""
    # class-level: ``X = threading.Lock()`` shared across instances.
    for stmt in ci.node.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            disp = _lock_ctor_display(stmt.value, module_funcs,
                                      _MAX_CALL_DEPTH)
            if disp is None:
                continue
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    ci.locks[tgt.id] = LockField(
                        tgt.id, disp or f"{ci.name}.{tgt.id}", stmt.lineno
                    )
    for method in _iter_methods(ci.node):
        for node in ast.walk(method):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)):
                continue
            for tgt in node.targets:
                attr = _self_attr(tgt)
                if attr is None:
                    continue
                disp = _lock_ctor_display(
                    node.value, module_funcs, _MAX_CALL_DEPTH
                )
                if disp is not None:
                    ci.locks.setdefault(attr, LockField(
                        attr, disp or f"{ci.name}.{attr}", node.lineno
                    ))
    # implicit locks: ``with self.X`` / ``self.X.acquire()`` on a
    # lock-looking name defined elsewhere (e.g. in a base class).
    for method in _iter_methods(ci.node):
        for node in ast.walk(method):
            target = None
            if isinstance(node, ast.With):
                for item in node.items:
                    target = _self_attr(item.context_expr) or target
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) and node.func.attr in (
                    "acquire", "release"):
                target = _self_attr(node.func.value)
            if target and target not in ci.locks and \
                    _LOCK_NAME_HINT.search(target):
                ci.locks[target] = LockField(
                    target, f"{ci.name}.{target}", node.lineno
                )


def _iter_methods(cls: ast.ClassDef):
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


def _self_attr(node) -> Optional[str]:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


# ---------------------------------------------------------------------------
# the per-method lockset walker


class _MethodWalker:
    """Walks one method body tracking the held lockset at each point."""

    def __init__(self, ci: ClassInfo, mi: MethodInfo, exempt: bool,
                 fi: FileInfo, diags: "_Emitter") -> None:
        self.ci = ci
        self.mi = mi
        self.exempt = exempt
        self.fi = fi
        self.diags = diags
        self.order = 0
        self.loopvars: Dict[str, str] = {}

    # -- statements -----------------------------------------------------

    def walk(self) -> None:
        self._body(self.mi.node.body, frozenset())

    def _body(self, stmts: Sequence[ast.stmt], ls: FrozenSet[str]) -> None:
        i = 0
        while i < len(stmts):
            stmt = stmts[i]
            lock = self._acquire_stmt(stmt)
            if lock is not None:
                nxt = stmts[i + 1] if i + 1 < len(stmts) else None
                if isinstance(nxt, ast.Try) and self._releases(nxt, lock):
                    held = ls | {lock}
                    self._body(nxt.body, held)
                    for handler in nxt.handlers:
                        self._body(handler.body, held)
                    self._body(nxt.orelse, held)
                    self._body(nxt.finalbody, ls)
                    i += 2
                    continue
                self.diags.emit(
                    "S005", self.fi, stmt.lineno,
                    f"{self.ci.name}.{self.mi.name}",
                    f"self.{lock}.acquire() without try/finally release "
                    f"— use 'with self.{lock}:'",
                )
                i += 1
                continue
            self._stmt(stmt, ls)
            i += 1

    def _acquire_stmt(self, stmt: ast.stmt) -> Optional[str]:
        call = None
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.value,
                                                         ast.Call):
            call = stmt.value
        if call is None or not isinstance(call.func, ast.Attribute) or \
                call.func.attr != "acquire":
            return None
        attr = _self_attr(call.func.value)
        if attr and attr in self.ci.locks:
            return attr
        return None

    def _releases(self, node: ast.Try, lock: str) -> bool:
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and isinstance(
                        sub.func, ast.Attribute) and \
                        sub.func.attr == "release" and \
                        _self_attr(sub.func.value) == lock:
                    return True
        return False

    def _stmt(self, stmt: ast.stmt, ls: FrozenSet[str]) -> None:
        if isinstance(stmt, ast.With):
            held = ls
            for item in stmt.items:
                attr = _self_attr(item.context_expr)
                if attr and attr in self.ci.locks:
                    held = held | {attr}
                else:
                    self._expr(item.context_expr, ls)
            self._body(stmt.body, held)
        elif isinstance(stmt, ast.If):
            mark = len(self.mi.accesses)
            self._expr(stmt.test, ls)
            test_reads = [a for a in self.mi.accesses[mark:]
                          if a.kind == "read"]
            writes, locks = self._branch_effects(stmt.body + stmt.orelse)
            if test_reads:
                self.mi.ifs.append(IfEvent(
                    test_reads, writes, locks, stmt.lineno, self.mi.name
                ))
            self._body(stmt.body, ls)
            self._body(stmt.orelse, ls)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            container = _self_attr(_unwrap_copy(stmt.iter))
            self._expr(stmt.iter, ls)
            saved = None
            if container and container not in self.ci.locks and \
                    isinstance(stmt.target, ast.Name):
                saved = (stmt.target.id, self.loopvars.get(stmt.target.id))
                self.loopvars[stmt.target.id] = container
            self._body(stmt.body, ls)
            self._body(stmt.orelse, ls)
            if saved:
                name, prev = saved
                if prev is None:
                    self.loopvars.pop(name, None)
                else:
                    self.loopvars[name] = prev
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test, ls)
            self._body(stmt.body, ls)
            self._body(stmt.orelse, ls)
        elif isinstance(stmt, ast.Try):
            self._body(stmt.body, ls)
            for handler in stmt.handlers:
                self._body(handler.body, ls)
            self._body(stmt.orelse, ls)
            self._body(stmt.finalbody, ls)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested def runs later, not under the current lockset.
            self._body(stmt.body, frozenset())
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = getattr(stmt, "value", None)
            if value is not None:
                self._expr(value, ls)
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for tgt in targets:
                # ``self.x += 1`` is a read-modify-write; _target records
                # the write (the implied read rides along with it).
                self._target(tgt, ls, stmt.lineno, value)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, ls)

    def _branch_effects(
        self, stmts: Sequence[ast.stmt]
    ) -> Tuple[Set[str], Set[str]]:
        writes: Set[str] = set()
        locks: Set[str] = set()
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AugAssign,
                                     ast.AnnAssign)):
                    tgts = (node.targets if isinstance(node, ast.Assign)
                            else [node.target])
                    for tgt in tgts:
                        attr = _self_attr(tgt)
                        if attr is None and isinstance(tgt, ast.Subscript):
                            attr = _self_attr(tgt.value)
                        if attr:
                            writes.add(attr)
                elif isinstance(node, ast.With):
                    for item in node.items:
                        attr = _self_attr(item.context_expr)
                        if attr and attr in self.ci.locks:
                            locks.add(attr)
                elif isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute) and \
                        node.func.attr in _MUTATORS:
                    attr = _self_attr(node.func.value)
                    if attr:
                        writes.add(attr)
        return writes, locks

    # -- expressions ----------------------------------------------------

    def _expr(self, node, ls: FrozenSet[str]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Call):
            self._call(node, ls)
            return
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None:
                if attr in self.ci.methods:
                    # bare method reference: escapes as a callback.
                    self.ci.escaped.add(attr)
                elif attr not in self.ci.locks:
                    self._access(attr, "read", node.lineno, ls)
                return
            self._expr(node.value, ls)
            return
        if isinstance(node, ast.Lambda):
            self._expr(node.body, frozenset())
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, ls)
            elif isinstance(child, (ast.comprehension,)):
                self._expr(child.iter, ls)
                for cond in child.ifs:
                    self._expr(cond, ls)

    def _call(self, node: ast.Call, ls: FrozenSet[str]) -> None:
        func = node.func
        self._maybe_thread_publish(node, ls)
        handled_func = False
        if isinstance(func, ast.Attribute):
            recv = _self_attr(func.value)
            direct = _self_attr(func)
            if direct is not None:
                handled_func = True
                if direct in self.ci.methods:
                    self.mi.calls.append(CallEvent(
                        direct, ls, node.lineno, self.mi.name
                    ))
                elif direct not in self.ci.locks:
                    # calling through a data attribute: self.handler(...)
                    self._access(direct, "read", node.lineno, ls)
                    self.mi.attr_calls.append(AttrCallEvent(
                        direct, ls, node.lineno, self.mi.name
                    ))
            elif recv is not None:
                handled_func = True
                if recv in self.ci.locks:
                    if func.attr == "acquire":
                        self.diags.emit(
                            "S005", self.fi, node.lineno,
                            f"{self.ci.name}.{self.mi.name}",
                            f"self.{recv}.acquire() outside a statement "
                            f"position cannot be paired with a release — "
                            f"use 'with self.{recv}:'",
                        )
                else:
                    kind = "write" if func.attr in _MUTATORS else "read"
                    self._access(recv, kind, node.lineno, ls)
                    if kind == "write":
                        for arg in node.args:
                            if isinstance(arg, ast.Name):
                                self.order += 1
                                self.mi.publishes.append(PublishEvent(
                                    arg.id, recv, ls, node.lineno,
                                    self.order, self.mi.name,
                                ))
            else:
                local = func.value
                if isinstance(local, ast.Name) and \
                        func.attr in _MUTATORS:
                    self.order += 1
                    self.mi.mutates.append(MutateEvent(
                        local.id, ls, node.lineno, self.order, self.mi.name
                    ))
                    handled_func = True
        elif isinstance(func, ast.Name) and func.id in self.loopvars \
                and ls:
            self.mi.attr_calls.append(AttrCallEvent(
                self.loopvars[func.id], ls, node.lineno, self.mi.name
            ))
            handled_func = True
        if not handled_func:
            self._expr(func, ls)
        for arg in node.args:
            self._expr(arg, ls)
        for kw in node.keywords:
            self._expr(kw.value, ls)

    def _maybe_thread_publish(self, node: ast.Call, ls: FrozenSet[str]):
        func = node.func
        fname = ""
        if isinstance(func, ast.Attribute):
            fname = func.attr
        elif isinstance(func, ast.Name):
            fname = func.id
        if fname not in ("Thread", "Timer", "submit"):
            return
        published: List[ast.Name] = []
        for arg in node.args:
            if isinstance(arg, ast.Name):
                published.append(arg)
            elif isinstance(arg, (ast.Tuple, ast.List)):
                published.extend(
                    e for e in arg.elts if isinstance(e, ast.Name)
                )
        for kw in node.keywords:
            if kw.arg in ("args", "kwargs") and isinstance(
                    kw.value, (ast.Tuple, ast.List)):
                published.extend(
                    e for e in kw.value.elts if isinstance(e, ast.Name)
                )
        for name in published:
            self.order += 1
            self.mi.publishes.append(PublishEvent(
                name.id, None, ls, node.lineno, self.order, self.mi.name
            ))

    def _target(self, tgt, ls: FrozenSet[str], line: int, value) -> None:
        if isinstance(tgt, (ast.Tuple, ast.List)):
            for elt in tgt.elts:
                self._target(elt, ls, line, None)
            return
        attr = _self_attr(tgt)
        if attr is not None:
            if attr not in self.ci.locks:
                self._access(attr, "write", line, ls)
                self._maybe_forced_claim(attr, line)
            return
        if isinstance(tgt, ast.Subscript):
            base = _self_attr(tgt.value)
            self._expr(tgt.slice, ls)
            if base is not None and base not in self.ci.locks:
                self._access(base, "write", line, ls)
                if isinstance(value, ast.Name):
                    self.order += 1
                    self.mi.publishes.append(PublishEvent(
                        value.id, base, ls, line, self.order, self.mi.name
                    ))
                return
            if isinstance(tgt.value, ast.Name):
                self.order += 1
                self.mi.mutates.append(MutateEvent(
                    tgt.value.id, ls, line, self.order, self.mi.name
                ))
                return
            self._expr(tgt.value, ls)
            return
        if isinstance(tgt, ast.Attribute):
            if isinstance(tgt.value, ast.Name):
                self.order += 1
                self.mi.mutates.append(MutateEvent(
                    tgt.value.id, ls, line, self.order, self.mi.name
                ))
                return
            self._expr(tgt.value, ls)
        elif isinstance(tgt, ast.Starred):
            self._target(tgt.value, ls, line, None)

    def _maybe_forced_claim(self, attr: str, line: int) -> None:
        name = self.fi.guarded_by.get(line)
        if name is None:
            return
        self.fi.consumed_guards.add(line)
        if attr not in self.ci.forced_claims:
            self.ci.forced_claims[attr] = (name, line)

    def _access(self, attr: str, kind: str, line: int,
                ls: FrozenSet[str]) -> None:
        self.mi.accesses.append(AttrAccess(
            attr, kind, line, self.mi.name, ls, self.exempt
        ))


def _unwrap_copy(node):
    """``list(self.x)`` / ``sorted(self.x)`` → the inner ``self.x``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("list", "tuple", "sorted", "set") and \
            len(node.args) == 1:
        return node.args[0]
    return node

# ---------------------------------------------------------------------------
# diagnostic emission (annotations + suppression aware)


class _Emitter:
    """Routes raw findings through annotations and inline suppressions."""

    def __init__(self) -> None:
        self.diagnostics: List[Diagnostic] = []
        self.ignored = 0
        self._seen: Set[Tuple[str, str, int, str]] = set()

    def emit(self, code: str, fi: FileInfo, line: int, path: str,
             message: str) -> None:
        if code in _UNGUARDED_WAIVES and line in fi.unguarded:
            return  # declared intent: # unguarded: <reason>
        if fi.sup.active(line, code):
            self.ignored += 1
            return
        key = (code, fi.path, line, path)
        if key in self._seen:
            return
        self._seen.add(key)
        self.diagnostics.append(Diagnostic(
            code=code, severity=_SEVERITY[code], message=message,
            path=path, file=fi.path, line=line,
        ))


# ---------------------------------------------------------------------------
# per-class analysis


def _is_public(name: str) -> bool:
    if name == "__init__":
        return False
    if name.startswith("__") and name.endswith("__"):
        return True
    return not name.startswith("_")


def _analyze_class(ci: ClassInfo, fi: FileInfo, emitter: _Emitter,
                   module_funcs: Dict[str, ast.AST]) -> None:
    _discover_locks(ci, module_funcs)
    for method in _iter_methods(ci.node):
        ci.methods.setdefault(method.name, MethodInfo(
            method.name, method, _is_public(method.name)
        ))
    for mi in ci.methods.values():
        walker = _MethodWalker(
            ci, mi, mi.name == "__init__", fi, emitter
        )
        walker.walk()
    _mark_init_only(ci)


def _mark_init_only(ci: ClassInfo) -> None:
    """Private helpers reachable only from ``__init__`` are exempt."""
    callers: Dict[str, Set[str]] = {}
    for mi in ci.methods.values():
        for call in mi.calls:
            callers.setdefault(call.callee, set()).add(call.method)
    init_only = set()
    changed = True
    while changed:
        changed = False
        for name, mi in ci.methods.items():
            if name in init_only or mi.is_public or name == "__init__":
                continue
            if name in ci.escaped or not callers.get(name):
                continue
            if all(c == "__init__" or c in init_only
                   for c in callers[name]):
                init_only.add(name)
                changed = True
    for name in init_only:
        for access in ci.methods[name].accesses:
            access.exempt = True


def _incoming_locksets(ci: ClassInfo) -> Dict[str, FrozenSet[str]]:
    """Fixpoint: lockset every caller of a private method must hold."""
    callsites: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {}
    for mi in ci.methods.values():
        for call in mi.calls:
            callsites.setdefault(call.callee, []).append(
                (call.method, call.lockset)
            )
    top = object()
    inc: Dict[str, object] = {}
    for name, mi in ci.methods.items():
        if mi.is_public or name in ci.escaped or not callsites.get(name):
            inc[name] = frozenset()
        else:
            inc[name] = top
    for _ in range(_MAX_FIXPOINT_ROUNDS):
        changed = False
        for name, sites in callsites.items():
            if name not in inc or inc[name] == frozenset():
                continue
            vals = []
            for caller, ls in sites:
                caller_in = inc.get(caller, frozenset())
                if caller_in is top:
                    continue
                vals.append(frozenset(caller_in) | ls)
            if not vals:
                continue
            new = frozenset.intersection(*vals)
            if inc[name] is top or new != inc[name]:
                inc[name] = new
                changed = True
        if not changed:
            break
    return {
        name: (frozenset() if val is top else val)  # unreachable helpers
        for name, val in inc.items()
    }


def _infer_claims(ci: ClassInfo, fi: FileInfo, emitter: _Emitter,
                  inc: Dict[str, FrozenSet[str]]) -> None:
    """Guarded-by inference (a tie claims) + forced annotations."""
    def must(access: AttrAccess) -> FrozenSet[str]:
        return access.lockset | inc.get(access.method, frozenset())

    by_attr: Dict[str, List[AttrAccess]] = {}
    for mi in ci.methods.values():
        for access in mi.accesses:
            by_attr.setdefault(access.attr, []).append(access)

    for attr, (lock_name, line) in ci.forced_claims.items():
        resolved = _resolve_lock_name(ci, lock_name)
        if resolved is None:
            emitter.emit(
                "S010", fi, line, f"{ci.name}.{attr}",
                f"# guarded-by: {lock_name!r} names no lock field of "
                f"{ci.name} (known: {sorted(ci.locks) or 'none'})",
            )
        else:
            ci.claims[attr] = resolved

    for attr, accesses in sorted(by_attr.items()):
        writes = [a for a in accesses
                  if a.kind == "write" and not a.exempt]
        reads = [a for a in accesses
                 if a.kind == "read" and not a.exempt]
        if attr not in ci.claims:
            if not writes or not ci.locks:
                continue
            votes = {
                lock: sum(1 for w in writes if lock in must(w))
                for lock in ci.locks
            }
            lock, n = min(
                votes.items(), key=lambda kv: (-kv[1], kv[0])
            )
            if 2 * n < len(writes):
                continue
            ci.claims[attr] = lock
        lock = ci.claims[attr]
        guarded_writes = sum(1 for w in writes if lock in must(w))
        ci.stats[attr] = (guarded_writes, len(writes), len(reads))


def _check_accesses(ci: ClassInfo, fi: FileInfo, emitter: _Emitter,
                    inc: Dict[str, FrozenSet[str]]) -> None:
    def must(access: AttrAccess) -> FrozenSet[str]:
        return access.lockset | inc.get(access.method, frozenset())

    # S004 first: check-then-act converts the test read's S002.
    s004_reads: Set[Tuple[str, int]] = set()
    for mi in ci.methods.values():
        for ev in mi.ifs:
            for access in ev.test_reads:
                lock = ci.claims.get(access.attr)
                if lock is None or access.exempt:
                    continue
                held = access.lockset | inc.get(ev.method, frozenset())
                if lock in held:
                    continue
                if access.attr in ev.body_writes or lock in ev.body_locks:
                    s004_reads.add((access.attr, access.line))
                    emitter.emit(
                        "S004", fi, access.line,
                        f"{ci.name}.{access.attr}",
                        f"check-then-act: {access.attr!r} tested without "
                        f"{ci.display(lock)!r}, then acted on — test and "
                        f"act under one 'with self.{lock}:' block",
                    )

    for mi in ci.methods.values():
        for access in mi.accesses:
            lock = ci.claims.get(access.attr)
            if lock is None or access.exempt:
                continue
            held = must(access)
            if lock in held:
                continue
            if access.kind == "read" and \
                    (access.attr, access.line) in s004_reads:
                continue
            others = held & (set(ci.locks) - {lock})
            if others:
                other = sorted(others)[0]
                emitter.emit(
                    "S003", fi, access.line, f"{ci.name}.{access.attr}",
                    f"{access.attr!r} is guarded by {ci.display(lock)!r} "
                    f"but accessed under {ci.display(other)!r}",
                )
            elif access.kind == "write":
                guarded, total, _ = ci.stats.get(access.attr, (0, 0, 0))
                emitter.emit(
                    "S001", fi, access.line, f"{ci.name}.{access.attr}",
                    f"write to {access.attr!r} without its guard "
                    f"{ci.display(lock)!r} (guarded on {guarded}/{total} "
                    f"writes)",
                )
            else:
                emitter.emit(
                    "S002", fi, access.line, f"{ci.name}.{access.attr}",
                    f"read of {access.attr!r} without its guard "
                    f"{ci.display(lock)!r}",
                )


def _check_publishes(ci: ClassInfo, fi: FileInfo, emitter: _Emitter,
                     inc: Dict[str, FrozenSet[str]]) -> None:
    """S007 — published then mutated without the container's guard."""
    for mi in ci.methods.values():
        if not mi.publishes:
            continue
        for pub in mi.publishes:
            if pub.container is not None:
                lock = ci.claims.get(pub.container)
                if lock is None:
                    continue
            else:
                lock = None  # handed to a thread: any mutation races
            for mut in mi.mutates:
                if mut.name != pub.name or mut.order <= pub.order:
                    continue
                held = mut.lockset | inc.get(mut.method, frozenset())
                if lock is not None and lock in held:
                    continue
                if lock is None and held:
                    continue
                where = (
                    f"container {pub.container!r} (guard "
                    f"{ci.display(lock)!r})" if lock is not None
                    else "a thread"
                )
                emitter.emit(
                    "S007", fi, mut.line, f"{ci.name}.{mi.name}",
                    f"{pub.name!r} was published into {where} on line "
                    f"{pub.line} but is still mutated afterwards without "
                    f"the guard",
                )
                break


def _check_callbacks(ci: ClassInfo, fi: FileInfo, emitter: _Emitter,
                     inc: Dict[str, FrozenSet[str]]) -> None:
    """S009 — callback invoked while holding the lock guarding it."""
    for mi in ci.methods.values():
        for ev in mi.attr_calls:
            lock = ci.claims.get(ev.attr)
            if lock is None:
                continue
            held = ev.lockset | inc.get(ev.method, frozenset())
            if lock in held:
                emitter.emit(
                    "S009", fi, ev.line, f"{ci.name}.{ev.attr}",
                    f"callback stored in {ev.attr!r} invoked while "
                    f"holding its guard {ci.display(lock)!r} — snapshot "
                    f"under the lock, call outside it",
                )


def _check_annotations(fi: FileInfo, emitter: _Emitter) -> None:
    """S010 — stale / unverifiable intent annotations."""
    for line, name in sorted(fi.guarded_by.items()):
        if line not in fi.consumed_guards:
            emitter.emit(
                "S010", fi, line, "",
                f"# guarded-by: {name!r} does not annotate a 'self.<attr>"
                f" = ...' assignment — move it onto the attribute's "
                f"initialisation line",
            )
    for line, reason in sorted(fi.unguarded.items()):
        if not reason.strip():
            emitter.emit(
                "S010", fi, line, "",
                "# unguarded: annotation requires a reason explaining "
                "why the racy access is acceptable",
            )


def _resolve_lock_name(ci: ClassInfo, name: str) -> Optional[str]:
    if name in ci.locks:
        return name
    for attr, lf in ci.locks.items():
        if lf.display == name:
            return attr
    return None


# ---------------------------------------------------------------------------
# S008 — per-call lock creation (methods and module functions)


def _check_percall_locks(tree: ast.Module, fi: FileInfo,
                         emitter: _Emitter,
                         module_funcs: Dict[str, ast.AST]) -> None:
    for func in [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        if func.name == "__init__":
            continue
        ctor_calls: List[ast.Call] = []
        local_names: Set[str] = set()
        returned = False
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                disp = _lock_ctor_display(node, {}, 0)
                if disp is not None:
                    ctor_calls.append(node)
            elif isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, ast.Call) and \
                        _lock_ctor_display(node.value, {}, 0) is not None:
                    returned = True
                elif isinstance(node.value, ast.Name):
                    local_names.add(node.value.id)
        if not ctor_calls or returned:
            continue
        assigned_then_returned = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call) and \
                    _lock_ctor_display(node.value, {}, 0) is not None:
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name) and \
                            tgt.id in local_names:
                        assigned_then_returned.add(id(node.value))
        for call in ctor_calls:
            if id(call) in assigned_then_returned:
                continue
            emitter.emit(
                "S008", fi, call.lineno, func.name,
                f"lock created inside {func.name}() — per-call locks "
                f"guard nothing; hoist to __init__ or module scope "
                f"(or return it from a factory)",
            )


# ---------------------------------------------------------------------------
# entry points


def _parse_annotations(source: str) -> Tuple[Dict[int, str], Dict[int, str]]:
    guarded: Dict[int, str] = {}
    unguarded: Dict[int, str] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        if "#" not in line:
            continue
        m = _GUARDED_BY_RE.search(line)
        if m:
            guarded[i] = m.group(1)
        m = _UNGUARDED_RE.search(line)
        if m:
            unguarded[i] = m.group(1).strip()
    return guarded, unguarded


def _collect_files(paths: Sequence[str]) -> List[str]:
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d != "__pycache__" and not d.startswith(".")
                )
                out.extend(
                    os.path.join(root, f) for f in sorted(files)
                    if f.endswith(".py")
                )
        elif path.endswith(".py"):
            out.append(path)
    return out


def analyze_source(source: str, path: str,
                   model: Optional[ConcurrencyModel] = None,
                   emitter: Optional[_Emitter] = None) -> ConcurrencyModel:
    """Analyze one source blob into (a possibly shared) model."""
    own = model is None
    if model is None:
        model = ConcurrencyModel()
    if emitter is None:
        emitter = _Emitter()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return model  # astlint owns reporting unparsable files (L000)
    guarded, unguarded = _parse_annotations(source)
    fi = FileInfo(
        path=path, sup=InlineSuppressions(source),
        guarded_by=guarded, unguarded=unguarded,
    )
    module_funcs = {
        n.name: n for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            ci = ClassInfo(node.name, path, node)
            _analyze_class(ci, fi, emitter, module_funcs)
            fi.classes.append(ci)
    _check_percall_locks(tree, fi, emitter, module_funcs)
    model.files.append(fi)
    if own:
        _finalize(model, emitter)
    return model


def _finalize(model: ConcurrencyModel, emitter: _Emitter) -> None:
    for fi in model.files:
        for ci in fi.classes:
            inc = _incoming_locksets(ci)
            _infer_claims(ci, fi, emitter, inc)
            _check_accesses(ci, fi, emitter, inc)
            _check_publishes(ci, fi, emitter, inc)
            _check_callbacks(ci, fi, emitter, inc)
        _check_annotations(fi, emitter)
    model.diagnostics = emitter.diagnostics
    model.ignored = emitter.ignored


def analyze_concurrency(paths: Sequence[str]) -> ConcurrencyModel:
    """Analyze every ``.py`` file under ``paths`` (dirs recurse)."""
    model = ConcurrencyModel()
    emitter = _Emitter()
    for file in _collect_files(paths):
        try:
            with open(file, encoding="utf-8") as fh:
                source = fh.read()
        except OSError:
            continue
        analyze_source(source, file, model, emitter)
    _finalize(model, emitter)
    return model


def render_concurrency_report(model: ConcurrencyModel) -> str:
    """The inferred guarded-by table per class (``--concurrency-report``)."""
    lines: List[str] = ["concurrency: inferred guarded-by relation"]
    for fi in model.files:
        for ci in fi.classes:
            if not ci.locks:
                continue
            lines.append(f"class {ci.name} ({fi.path})")
            for attr, lf in sorted(ci.locks.items()):
                lines.append(f"  lock {attr} -> {lf.display!r}")
            for attr, lock in sorted(ci.claims.items()):
                guarded, writes, reads = ci.stats.get(attr, (0, 0, 0))
                forced = " (annotated)" if attr in ci.forced_claims else ""
                lines.append(
                    f"  {attr:<24} guarded by {ci.display(lock)!r}"
                    f"{forced}  [{guarded}/{writes} writes, "
                    f"{reads} reads]"
                )
            if not ci.claims:
                lines.append("  (no guarded attributes inferred)")
    return "\n".join(lines)
