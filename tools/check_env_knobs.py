#!/usr/bin/env python
"""Lint rule: library code names only allowlisted ``REPRO_*`` variables.

Every answer this repo gives is byte-identical on either kernel backend,
either trace transport and with or without batch planning, so the code
picks those implementations itself instead of reading a user-set switch.
The few environment variables that remain either override that choice for
testing (``REPRO_ACCEL``) or configure side channels that never touch a
result (tracing, logging, fault injection).  This checker fails the lint
step when ``src/repro/`` names any other ``REPRO_*`` variable, so a
removed selector cannot quietly return as an environment variable.

Usage: ``python tools/check_env_knobs.py`` (wired into ``make lint`` and
CI).  Exits 1 listing each offending ``file:line``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: The environment variables library code may name.
ALLOWED = {
    "REPRO_ACCEL",
    "REPRO_FAULTS",
    "REPRO_LOG",
    "REPRO_LOG_LEVEL",
    "REPRO_TRACE_OUT",
}

_NAME = re.compile(r"\bREPRO_[A-Z0-9_]+\b")


def violations(root: Path) -> list[str]:
    found: list[str] = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(root)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for name in _NAME.findall(line):
                if name not in ALLOWED:
                    found.append(
                        f"{relative}:{lineno}: {name} is not an allowlisted "
                        "environment variable — let the code pick the "
                        "implementation instead of adding a switch"
                    )
    return found


def main() -> int:
    found = violations(Path(__file__).resolve().parent.parent)
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
