"""MUT001 — ``SystemState`` mutates only through its commit methods.

:class:`repro.core.base.SystemState` is both a snapshot and an in-batch
planning ledger: as a scheduler assigns jobs it *commits* each decision so
later jobs in the batch see the load earlier ones will create. The commit
methods (``commit_ic``, and ``commit_ec``, which books on the estimate's
own entry of ``state.sites``) keep the coupled fields consistent —
machine free times, link backlogs and the pending-completion pool move
together. A scheduler that pokes
``state.ic_free[0] = t`` or ``state.upload_backlog_mb += mb`` directly
bypasses that coupling and silently skews every later decision in the
batch.

Detection is annotation-driven (static, no type inference): the rule
tracks

* function parameters annotated ``SystemState`` / ``ECSiteState``
  (including string and ``Optional[...]`` forms),
* local aliases created via ``tracked.clone()``,
* ``self.<attr>`` bound to a tracked parameter in ``__init__``,

and flags attribute/item assignment, augmented assignment, and mutating
container calls (``append``, ``extend``, ...) on them. Methods defined on
the state classes themselves whose names start with ``commit`` (plus
dunders) are the sanctioned mutation sites.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

from ..lint import LintRule, ModuleContext, Violation

__all__ = ["StateMutationRule"]

_STATE_CLASSES = frozenset({"SystemState", "ECSiteState"})

_MUTATOR_METHODS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse", "update"}
)

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _annotation_is_state(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation).replace('"', "").replace("'", "")
    for cls in _STATE_CLASSES:
        if text == cls or text == f"Optional[{cls}]" or text == f"{cls} | None":
            return True
    return False


def _tracked_params(func: _FuncDef) -> set[str]:
    args = func.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    return {a.arg for a in every if _annotation_is_state(a.annotation)}


def _self_attrs_bound_to_state(cls: ast.ClassDef) -> set[str]:
    """Attribute names ``__init__`` binds to a state-annotated parameter."""
    init = next(
        (
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "__init__"
        ),
        None,
    )
    if init is None:
        return set()
    tracked = _tracked_params(init)
    bound: set[str] = set()
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign):
            continue
        if not (isinstance(node.value, ast.Name) and node.value.id in tracked):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                bound.add(target.attr)
    return bound


class _FunctionScanner:
    """Scans one function body with a known tracked-expression set."""

    def __init__(
        self,
        rule: "StateMutationRule",
        ctx: ModuleContext,
        tracked_names: set[str],
        tracked_self_attrs: set[str],
    ) -> None:
        self.rule = rule
        self.ctx = ctx
        self.tracked_names = set(tracked_names)
        self.tracked_self_attrs = tracked_self_attrs

    def _is_tracked_expr(self, node: ast.expr) -> bool:
        """The expression denotes a tracked state object."""
        if isinstance(node, ast.Name):
            return node.id in self.tracked_names
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr in self.tracked_self_attrs
        return False

    def _state_field_of(self, node: ast.expr) -> Optional[str]:
        """Field name when ``node`` is ``<tracked>.<field>`` (or an item of it)."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) and self._is_tracked_expr(node.value):
            return node.attr
        return None

    def scan(self, func: _FuncDef) -> Iterator[Violation]:
        for stmt in func.body:
            yield from self._scan_node(stmt)

    def _scan_node(self, node: ast.AST) -> Iterator[Violation]:
        # Nested defs get their own parameter scope but inherit closures.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = _FunctionScanner(
                self.rule,
                self.ctx,
                self.tracked_names | _tracked_params(node),
                self.tracked_self_attrs,
            )
            yield from inner.scan(node)
            return

        if isinstance(node, ast.Assign):
            # Alias tracking: ``shadow = state.clone()``.
            if (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "clone"
                and self._is_tracked_expr(node.value.func.value)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.tracked_names.add(target.id)
            for target in node.targets:
                field = self._state_field_of(target)
                if field is not None:
                    yield self.rule.violation(
                        self.ctx, node, f"direct assignment to state field `{field}`"
                    )
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            target = node.target
            field = self._state_field_of(target)
            if field is not None:
                yield self.rule.violation(
                    self.ctx, node, f"in-place mutation of state field `{field}`"
                )
        elif isinstance(node, ast.Call):
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr in _MUTATOR_METHODS
            ):
                field = self._state_field_of(func_expr.value)
                if field is not None:
                    yield self.rule.violation(
                        self.ctx,
                        node,
                        f"mutating call `{field}.{func_expr.attr}(...)` on state field",
                    )

        for child in ast.iter_child_nodes(node):
            yield from self._scan_node(child)


class StateMutationRule(LintRule):
    """MUT001 — flag SystemState/ECSiteState mutation outside commits."""

    code = "MUT001"
    name = "no-state-mutation"
    description = (
        "SystemState couples machine availability, link backlogs and the "
        "pending-completion pool; only its commit methods keep them consistent"
    )
    hint = (
        "route the update through SystemState.commit_ic / commit_ec "
        "(add a commit method if the planning pattern is new)"
    )
    scope = ("repro",)

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        yield from self._scan_body(ctx, ctx.tree.body, current_class=None)

    def _scan_body(
        self,
        ctx: ModuleContext,
        body: list[ast.stmt],
        current_class: Optional[ast.ClassDef],
    ) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                yield from self._scan_body(ctx, stmt.body, current_class=stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._is_sanctioned(stmt, current_class):
                    continue
                tracked_self = (
                    _self_attrs_bound_to_state(current_class)
                    if current_class is not None
                    else set()
                )
                scanner = _FunctionScanner(
                    self, ctx, _tracked_params(stmt), tracked_self
                )
                # Methods of the state classes mutate ``self`` freely only in
                # commit methods (filtered above); elsewhere ``self`` counts
                # as tracked too.
                if current_class is not None and current_class.name in _STATE_CLASSES:
                    scanner.tracked_names.add("self")
                yield from scanner.scan(stmt)

    @staticmethod
    def _is_sanctioned(
        func: _FuncDef, current_class: Optional[ast.ClassDef]
    ) -> bool:
        """Commit methods (and dunders) of the state classes themselves."""
        if current_class is None or current_class.name not in _STATE_CLASSES:
            return False
        return func.name.startswith("commit") or (
            func.name.startswith("__") and func.name.endswith("__")
        )
