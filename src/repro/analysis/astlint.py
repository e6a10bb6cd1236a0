"""Repo-specific AST lint pass (the ``--lint`` half of ``check``).

Generic linters don't know this codebase's invariants; these rules do:

- **L002** — ``time.time()`` / ``time.monotonic()`` inside ``simulator/``
  or ``plugins/`` breaks the simulated-clock discipline: everything in
  those trees must take timestamps as arguments, or determinism and the
  Section VI scaling results die silently.
- **L003** — ``except Exception: pass`` (or bare ``except:``) swallows
  errors invisibly; use ``contextlib.suppress`` for the rare deliberate
  case so the intent is explicit.
- **L004** — operator plugins must not write ``self.*`` state inside
  ``compute_unit``/``compute_window``/``compute``: parallel unit mode
  runs units on a thread pool, so per-unit state belongs in the model
  returned by
  ``make_model()`` (placed per-unit or shared by
  :meth:`~repro.core.operator.OperatorBase.model_for`).
- **L005** — ``threading.Thread(...)`` without a ``daemon=`` argument in
  a scope that never ``join()``\\ s a thread leaks a non-daemon thread:
  it blocks interpreter shutdown and outlives the component that spawned
  it.  Pass ``daemon=`` explicitly or join the thread.
- **L006** — ``time.sleep`` inside an operator compute path stalls the
  whole scheduling slot (and, under a wall-clock driver, every
  contender on the driver lock); operators wait by returning and being
  re-invoked at their interval, never by sleeping.
- **L008** — a mutable class-level default (``list``/``dict``/``set``
  literal, comprehension or constructor call) on an operator plugin
  class is shared by every instance — and operator instances are shared
  across units, so one unit's mutation bleeds into all others.
  Initialise mutable state in ``__init__`` (or ``make_model``).
  ALL_CAPS names are treated as read-only class constants and exempt.

Lock discipline is the concurrency pass's (S001-S003): one rule per
invariant.  Suppression: ``# wintermute: ignore[CODE]`` on the offending
line (:mod:`repro.analysis.suppress`).
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, sort_key
from repro.analysis.suppress import InlineSuppressions

#: Rule codes implemented by this module.
LINT_CODES = ("L002", "L003", "L004", "L005", "L006", "L008")

_WALL_CLOCK_FUNCS = {"time", "monotonic"}
_COMPUTE_METHODS = {"compute", "compute_unit", "compute_window"}
#: Methods on the operator computation path for the sleep rule (L006):
#: everything invoked from a scheduled compute pass or REST trigger.
_COMPUTE_PATH_METHODS = {
    "compute",
    "compute_unit",
    "compute_window",
    "compute_batch",
    "compute_operator_outputs",
    "trigger",
    "_compute_results",
    "_compute_each",
}


def _is_self_attr(node: ast.AST, name: Optional[str] = None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (name is None or node.attr == name)
    )


def _assigned_self_attrs(stmt: ast.stmt) -> Iterable[ast.Attribute]:
    """``self.X`` attributes written by one statement (incl. ``self.X[..]``)."""
    for sub in ast.walk(stmt):
        targets: List[ast.expr] = []
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = [sub.target]
        for target in targets:
            base = target
            while isinstance(base, ast.Subscript):
                base = base.value
            if _is_self_attr(base):
                yield base


def _iter_methods(cls: ast.ClassDef) -> Iterable[ast.FunctionDef]:
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item


def _is_operator_plugin_class(cls: ast.ClassDef) -> bool:
    """Heuristic: decorated with ``@operator_plugin(...)`` or based on a
    class whose name mentions ``OperatorBase``."""
    for deco in cls.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", ""
        )
        if name == "operator_plugin":
            return True
    for base in cls.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(
            base, "id", ""
        )
        if name.endswith("OperatorBase") or name.endswith("Operator"):
            return True
    return False


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

def _lint_wall_clock(
    tree: ast.Module, path: str, out: List[Diagnostic],
    sup: InlineSuppressions,
) -> None:
    """L002 — wall-clock reads in clock-disciplined subtrees."""
    parts = path.replace(os.sep, "/")
    if "simulator/" not in parts and "plugins/" not in parts:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and func.attr in _WALL_CLOCK_FUNCS
        ) and not sup.active(node.lineno, "L002"):
            out.append(Diagnostic(
                code="L002",
                severity="error",
                message=(
                    f"time.{func.attr}() in a clock-disciplined subtree; "
                    f"take the simulated timestamp as an argument instead"
                ),
                file=path,
                line=node.lineno,
            ))


def _lint_silent_except(
    tree: ast.Module, path: str, out: List[Diagnostic],
    sup: InlineSuppressions,
) -> None:
    """L003 — broad except handlers that silently discard the error."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad = node.type is None or (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
        )
        silent = all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in node.body
        )
        suppressed = sup.active(node.lineno, "L003") or any(
            sup.active(stmt.lineno, "L003") for stmt in node.body
        )
        if broad and silent and not suppressed:
            what = (
                "bare except" if node.type is None
                else f"except {node.type.id}"  # type: ignore[union-attr]
            )
            out.append(Diagnostic(
                code="L003",
                severity="error",
                message=(
                    f"{what}: pass silently swallows errors; use "
                    f"contextlib.suppress(...) or handle/log the exception"
                ),
                file=path,
                line=node.lineno,
            ))


def _lint_compute_state(
    tree: ast.Module, path: str, out: List[Diagnostic],
    sup: InlineSuppressions,
) -> None:
    """L004 — operator plugins writing shared state in compute paths."""
    parts = path.replace(os.sep, "/")
    if "repro/plugins/" not in parts:
        return
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        if not _is_operator_plugin_class(cls):
            continue
        for method in _iter_methods(cls):
            if method.name not in _COMPUTE_METHODS:
                continue
            for stmt in ast.walk(method):
                if not isinstance(
                    stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)
                ):
                    continue
                for attr in _assigned_self_attrs(stmt):
                    if sup.active(attr.lineno, "L004"):
                        continue
                    out.append(Diagnostic(
                        code="L004",
                        severity="error",
                        message=(
                            f"{cls.name}.{method.name} writes "
                            f"self.{attr.attr}: parallel unit mode runs "
                            f"units on a thread pool — keep per-unit state "
                            f"in the model (make_model/model_for)"
                        ),
                        file=path,
                        line=attr.lineno,
                    ))


def _is_thread_ctor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (
            func.attr == "Thread"
            and isinstance(func.value, ast.Name)
            and func.value.id == "threading"
        )
    return isinstance(func, ast.Name) and func.id == "Thread"


def _has_thread_join(scope: ast.AST) -> bool:
    """Whether ``scope`` contains a plausible ``<thread>.join(...)``.

    ``str.join`` is the false friend here: calls whose receiver is a
    string literal are excluded; other receivers are given the benefit
    of the doubt (a missed finding beats a false positive).
    """
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and not (
                isinstance(node.func.value, ast.Constant)
                and isinstance(node.func.value.value, str)
            )
        ):
            return True
    return False


def _lint_thread_lifecycle(
    tree: ast.Module, path: str, out: List[Diagnostic],
    sup: InlineSuppressions,
) -> None:
    """L005 — threads created with neither a daemon flag nor a join."""

    def check(ctors: List[ast.Call], scope: ast.AST) -> None:
        pending = [
            c for c in ctors
            if not any(kw.arg == "daemon" for kw in c.keywords)
        ]
        if not pending or _has_thread_join(scope):
            return
        for call in pending:
            if sup.active(call.lineno, "L005"):
                continue
            out.append(Diagnostic(
                code="L005",
                severity="error",
                message=(
                    "threading.Thread created without a daemon= argument "
                    "and never joined in this scope; a leaked non-daemon "
                    "thread blocks interpreter shutdown"
                ),
                file=path,
                line=call.lineno,
            ))

    claimed: Set[int] = set()
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        ctors = [
            n for n in ast.walk(cls)
            if _is_thread_ctor(n) and id(n) not in claimed
        ]
        claimed.update(id(c) for c in ctors)
        check(ctors, cls)
    check(
        [
            n for n in ast.walk(tree)
            if _is_thread_ctor(n) and id(n) not in claimed
        ],
        tree,
    )


def _lint_sleep_in_compute(
    tree: ast.Module, path: str, out: List[Diagnostic],
    sup: InlineSuppressions,
) -> None:
    """L006 — ``time.sleep`` on an operator computation path."""
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        if not _is_operator_plugin_class(cls):
            continue
        for method in _iter_methods(cls):
            if method.name not in _COMPUTE_PATH_METHODS:
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                is_sleep = (
                    isinstance(func, ast.Attribute)
                    and func.attr == "sleep"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                ) or (isinstance(func, ast.Name) and func.id == "sleep")
                if is_sleep and not sup.active(node.lineno, "L006"):
                    out.append(Diagnostic(
                        code="L006",
                        severity="error",
                        message=(
                            f"{cls.name}.{method.name} calls time.sleep: "
                            f"operator compute paths must never block — "
                            f"return and let the scheduler re-invoke at "
                            f"the configured interval"
                        ),
                        file=path,
                        line=node.lineno,
                    ))


#: Expression nodes whose value is a freshly built *mutable* container.
_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)
_MUTABLE_CTORS = ("list", "dict", "set", "defaultdict", "deque",
                  "OrderedDict", "Counter")


def _is_mutable_default(value: ast.AST) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", ""
        )
        return name in _MUTABLE_CTORS
    return False


def _is_constant_name(name: str) -> bool:
    """ALL_CAPS (optionally ``_``-prefixed) names follow the read-only
    class-constant convention and are exempt from L008."""
    bare = name.lstrip("_")
    return bool(bare) and bare == bare.upper()


def _lint_mutable_class_default(
    tree: ast.Module, path: str, out: List[Diagnostic],
    sup: InlineSuppressions,
) -> None:
    """L008 — mutable class-level default on an operator plugin class."""
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        if not _is_operator_plugin_class(cls):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names or all(_is_constant_name(n) for n in names):
                continue
            if not _is_mutable_default(value):
                continue
            if sup.active(stmt.lineno, "L008"):
                continue
            out.append(Diagnostic(
                code="L008",
                severity="error",
                message=(
                    f"{cls.name}.{names[0]} is a mutable class-level "
                    f"default shared by every instance (and operator "
                    f"instances are shared across units) — initialise it "
                    f"in __init__ or make_model, or rename it ALL_CAPS "
                    f"if it is a read-only constant"
                ),
                file=path,
                line=stmt.lineno,
            ))


_RULES = (
    _lint_wall_clock,
    _lint_silent_except,
    _lint_compute_state,
    _lint_thread_lifecycle,
    _lint_sleep_in_compute,
    _lint_mutable_class_default,
)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def lint_source(source: str, path: str = "<string>") -> List[Diagnostic]:
    """Lint one Python source string; returns sorted diagnostics."""
    diags, _ignored = lint_source_counted(source, path)
    return diags


def lint_source_counted(
    source: str, path: str = "<string>"
) -> Tuple[List[Diagnostic], int]:
    """Like :func:`lint_source`, also counting fired suppressions."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Diagnostic(
            code="L000",
            severity="error",
            message=f"syntax error: {exc.msg}",
            file=path,
            line=exc.lineno or 0,
        )], 0
    sup = InlineSuppressions(source)
    out: List[Diagnostic] = []
    for rule in _RULES:
        rule(tree, path, out, sup)
    return sorted(out, key=sort_key), sup.matched


def lint_paths(paths: Sequence[str]) -> List[Diagnostic]:
    """Lint files and directories (recursing into ``*.py``)."""
    diags, _ignored = lint_paths_counted(paths)
    return diags


def lint_paths_counted(
    paths: Sequence[str],
) -> Tuple[List[Diagnostic], int]:
    """Like :func:`lint_paths`, also counting fired suppressions."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                files.extend(
                    os.path.join(dirpath, f)
                    for f in sorted(filenames)
                    if f.endswith(".py")
                )
        else:
            files.append(path)
    out: List[Diagnostic] = []
    ignored = 0
    for file in files:
        with open(file, "r", encoding="utf-8") as fh:
            diags, n = lint_source_counted(fh.read(), path=file)
        out.extend(diags)
        ignored += n
    return sorted(out, key=sort_key), ignored
