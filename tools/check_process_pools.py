#!/usr/bin/env python
"""Lint rule: ``ProcessPoolExecutor`` may only be constructed in the scheduler.

The persistent warm worker pool (:mod:`repro.runtime.scheduler`) is the
tree's single point of process-pool ownership — that is what makes the
"request N+1 pays zero pool spawn" guarantee checkable, and what keeps
every pool worker wired to the scheduler's worker initializer (the
span sink and fault plan the parent resolved, the parent-death
sentinel).  A
``ProcessPoolExecutor`` constructed anywhere else under ``src/`` would
silently reintroduce per-call pool churn, so this checker fails the lint
step when one appears.

Usage: ``python tools/check_process_pools.py`` (wired into ``make lint``
and CI).  Exits 1 listing each offending ``file:line``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: The one module allowed to construct (or even import) the executor.
ALLOWED = Path("src/repro/runtime/scheduler.py")

#: Names whose construction or import we flag.
FORBIDDEN = ("ProcessPoolExecutor",)


def violations(root: Path) -> list[str]:
    found: list[str] = []
    for path in sorted((root / "src").rglob("*.py")):
        relative = path.relative_to(root)
        if relative == ALLOWED:
            continue
        try:
            tree = ast.parse(path.read_text(), filename=str(relative))
        except SyntaxError as exc:
            found.append(f"{relative}:{exc.lineno}: unparsable: {exc.msg}")
            continue
        for node in ast.walk(tree):
            name = None
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in FORBIDDEN:
                        name = alias.name
            elif isinstance(node, ast.Name) and node.id in FORBIDDEN:
                name = node.id
            elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN:
                name = node.attr
            if name is not None:
                found.append(
                    f"{relative}:{node.lineno}: {name} outside {ALLOWED} "
                    "— route process pools through "
                    "repro.runtime.scheduler.WorkerPool"
                )
    return found


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    found = violations(root)
    for line in found:
        print(line)
    if found:
        return 1
    print("check_process_pools: ok "
          f"(ProcessPoolExecutor only in {ALLOWED})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
