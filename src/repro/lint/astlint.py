"""AST lint for the ready/valid coding discipline.

The cycle-accurate kernel assumes every ``clock()``/``on_cycle()``
body follows the handshake discipline the hardware imposes:

* a ``push()`` only happens once readiness is established — a
  ``can_push`` test, or a room computation over the channel's
  ``capacity``/``occupancy`` (the multi-word-burst form used by the
  CRC and framing stages);
* a ``pop()``/``peek()`` only happens once valid is established — a
  ``can_pop`` test, or a truth test of the channel itself (``if
  self.inp:``; a channel is its queue, so its truth is ``can_pop``);
* modules only operate on channels bound directly on ``self`` (their
  own ports);
* the programmable framing octets come from
  :mod:`repro.hdlc.constants`, never bare ``0x7E``/``0x7D`` literals.

The guard analysis is deliberately syntactic and conservative in the
way real RTL lints are: a guard *dominates* a channel operation if it
appears in an enclosing ``if``/``while`` test, or in a preceding
early-exit ``if`` (one whose body unconditionally returns, raises,
breaks or continues).  Guard polarity is not tracked — mentioning the
handshake signal on the decision path is the discipline being
enforced; getting the polarity right is what the simulator's
:class:`~repro.errors.BackpressureOverflow` is for.

Suppression: append ``# lint: ignore[CODE]`` (or a bare
``# lint: ignore``) to the offending line.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET
from repro.lint.rules import Finding
from repro.lint.suppress import suppressed_lines

__all__ = ["lint_source", "lint_file", "lint_paths"]

#: The RFC 1662 default framing octets; bare literals of these values
#: must come from repro.hdlc.constants instead (rule P5L003).
_FRAMING_VALUES = {FLAG_OCTET, ESC_OCTET}

#: Files allowed to spell the framing octets literally.
_FRAMING_DEFINERS = ("hdlc/constants.py",)

_CLOCK_METHODS = {"clock", "on_cycle"}
_PUSH_GUARD_ATTRS = {"can_push", "capacity", "occupancy"}
_POP_GUARD_ATTRS = {"can_pop"}


def _dotted(node: ast.AST) -> Optional[str]:
    """``self.out`` -> ``"self.out"``; None for non-name chains."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _guard_keys(test: ast.AST) -> Tuple[Set[str], Set[str]]:
    """Channels whose handshake signals the test mentions.

    Returns ``(push_guarded, pop_guarded)`` receiver chains: a mention
    of ``X.can_push`` / ``X.capacity`` / ``X.occupancy`` guards pushes
    to ``X``; a mention of ``X.can_pop``, or ``X`` itself tested for
    truth (``if X``, ``if not X``, an operand of ``and``/``or``),
    guards pops from ``X``.
    """
    push_keys: Set[str] = set()
    pop_keys: Set[str] = set()
    truth_tested = [test]
    while truth_tested:
        node = truth_tested.pop()
        if isinstance(node, ast.BoolOp):
            truth_tested.extend(node.values)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            truth_tested.append(node.operand)
        else:
            receiver = _dotted(node)
            if receiver is not None:
                pop_keys.add(receiver)
    for node in ast.walk(test):
        if not isinstance(node, ast.Attribute):
            continue
        receiver = _dotted(node.value)
        if receiver is None:
            continue
        if node.attr in _PUSH_GUARD_ATTRS:
            push_keys.add(receiver)
        elif node.attr in _POP_GUARD_ATTRS:
            pop_keys.add(receiver)
    return push_keys, pop_keys


def _terminates(body: Sequence[ast.stmt]) -> bool:
    """True if every path through the statement list exits the block."""
    if not body:
        return False
    last = body[-1]
    if isinstance(last, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
        return True
    if isinstance(last, ast.If):
        return _terminates(last.body) and _terminates(last.orelse)
    return False


class _ClockBodyChecker:
    """Walks one clock()/on_cycle() body tracking dominating guards."""

    def __init__(self, filename: str, class_name: str, findings: List[Finding]):
        self.filename = filename
        self.class_name = class_name
        self.findings = findings

    # -- channel operation recognition ----------------------------------
    @staticmethod
    def _channel_op(node: ast.AST) -> Optional[Tuple[str, str, ast.Attribute]]:
        """Return ``(kind, receiver, func)`` for push/pop/peek calls."""
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return None
        name = node.func.attr
        if name == "push" and len(node.args) == 1 and not node.keywords:
            kind = "push"
        elif name in ("pop", "peek") and not node.args and not node.keywords:
            kind = "pop"
        else:
            return None
        receiver = _dotted(node.func.value)
        if receiver is None:
            return None
        return kind, receiver, node.func

    def _emit(self, code: str, message: str, node: ast.AST) -> None:
        self.findings.append(Finding.of(
            code, message, subject=self.class_name,
            file=self.filename, line=getattr(node, "lineno", None),
        ))

    def _check_ops_in(self, stmt: ast.AST,
                      push_guards: Set[str], pop_guards: Set[str]) -> None:
        """Flag unguarded/foreign channel ops under one AST node."""
        for node in ast.walk(stmt):
            op = self._channel_op(node)
            if op is None:
                continue
            kind, receiver, _func = op
            parts = receiver.split(".")
            if parts[0] != "self" or len(parts) != 2:
                self._emit(
                    "P5L004",
                    f"{self.class_name}.clock operates on {receiver!r}, "
                    f"which is not a channel bound directly on self",
                    node,
                )
                continue
            if kind == "push" and receiver not in push_guards:
                self._emit(
                    "P5L001",
                    f"push to {receiver!r} is not dominated by a "
                    f"can_push/room guard",
                    node,
                )
            elif kind == "pop" and receiver not in pop_guards:
                self._emit(
                    "P5L002",
                    f"pop/peek of {receiver!r} is not dominated by a "
                    f"can_pop guard",
                    node,
                )

    def check_body(self, body: Sequence[ast.stmt],
                   push_guards: Set[str], pop_guards: Set[str]) -> None:
        push_guards = set(push_guards)
        pop_guards = set(pop_guards)
        for stmt in body:
            if isinstance(stmt, ast.If):
                new_push, new_pop = _guard_keys(stmt.test)
                # ``if ch.can_pop and ch.peek().eof:`` — the test's own
                # ops are covered by guards appearing in the same test.
                self._check_ops_in_expr(stmt.test, push_guards | new_push,
                                        pop_guards | new_pop)
                self.check_body(stmt.body, push_guards | new_push,
                                pop_guards | new_pop)
                self.check_body(stmt.orelse, push_guards | new_push,
                                pop_guards | new_pop)
                # An early-exit guard dominates the rest of the block.
                if _terminates(stmt.body):
                    push_guards |= new_push
                    pop_guards |= new_pop
            elif isinstance(stmt, ast.While):
                new_push, new_pop = _guard_keys(stmt.test)
                self._check_ops_in_expr(stmt.test, push_guards | new_push,
                                        pop_guards | new_pop)
                self.check_body(stmt.body, push_guards | new_push,
                                pop_guards | new_pop)
                self.check_body(stmt.orelse, push_guards, pop_guards)
            elif isinstance(stmt, ast.For):
                self.check_body(stmt.body, push_guards, pop_guards)
                self.check_body(stmt.orelse, push_guards, pop_guards)
            elif isinstance(stmt, (ast.With,)):
                self.check_body(stmt.body, push_guards, pop_guards)
            elif isinstance(stmt, ast.Try):
                self.check_body(stmt.body, push_guards, pop_guards)
                for handler in stmt.handlers:
                    self.check_body(handler.body, push_guards, pop_guards)
                self.check_body(stmt.orelse, push_guards, pop_guards)
                self.check_body(stmt.finalbody, push_guards, pop_guards)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                continue  # nested scopes are out of the discipline's reach
            else:
                self._check_ops_in(stmt, push_guards, pop_guards)

    # Tests may themselves contain ops (e.g. ``if ch.pop():``); the
    # walker handles expressions and statements alike.
    _check_ops_in_expr = _check_ops_in


def _lint_clock_discipline(tree: ast.Module, filename: str) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    item.name in _CLOCK_METHODS:
                checker = _ClockBodyChecker(filename, node.name, findings)
                checker.check_body(item.body, set(), set())
    return findings


def _lint_framing_literals(
    tree: ast.Module, filename: str, source_lines: Sequence[str]
) -> List[Finding]:
    normalized = filename.replace("\\", "/")
    if any(normalized.endswith(allowed) for allowed in _FRAMING_DEFINERS):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant) and type(node.value) is int
                and node.value in _FRAMING_VALUES):
            continue
        # Only the hex spelling is a framing-octet claim: decimal 125
        # or 126 is a count/duration (e.g. the 125 us SONET frame
        # period), not an escape octet.
        line = source_lines[node.lineno - 1] if node.lineno <= len(source_lines) else ""
        if line[node.col_offset : node.col_offset + 2].lower() != "0x":
            continue
        findings.append(Finding.of(
            "P5L003",
            f"bare framing octet literal 0x{node.value:02X}; use "
            f"repro.hdlc.constants instead",
            subject=f"0x{node.value:02X}",
            file=filename, line=node.lineno,
        ))
    return findings


def lint_source(source: str, filename: str = "<string>") -> List[Finding]:
    """Lint one file's source text; returns findings (empty = clean)."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [Finding.of(
            "P5L001",
            f"file does not parse: {exc.msg}",
            subject=filename, file=filename, line=exc.lineno or 1,
        )]
    findings = _lint_clock_discipline(tree, filename)
    findings += _lint_framing_literals(tree, filename, source.splitlines())
    ignores = suppressed_lines(source)
    kept = []
    for finding in findings:
        codes = ignores.get(finding.line or -1)
        if codes is not None and (not codes or finding.code in codes):
            continue
        kept.append(finding)
    return kept


def lint_file(path) -> List[Finding]:
    """Lint one file on disk."""
    path = pathlib.Path(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def lint_paths(paths: Iterable) -> List[Finding]:
    """Lint every ``*.py`` under the given files/directories."""
    findings: List[Finding] = []
    for entry in paths:
        entry = pathlib.Path(entry)
        files = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for file in files:
            findings.extend(lint_file(file))
    return findings
