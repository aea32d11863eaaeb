"""Where the benchmark finds the library, and what it records about the host."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "kummerlab" / "__init__.py"


def use_checkout_source() -> None:
    """Import ``kummerlab`` from this checkout's ``src/`` and nowhere else.

    Exits with a message (status 1) when the sources are missing, so the
    benchmark never measures an installed copy by mistake.
    """
    if not PACKAGE_INIT.is_file():
        sys.exit(f"perfbench: no kummerlab sources at {PACKAGE_INIT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kummerlab

    if Path(kummerlab.__file__).resolve() != PACKAGE_INIT.resolve():
        sys.exit(f"perfbench: kummerlab was imported from {kummerlab.__file__}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # Only ask git inside a work tree of its own: a plain source checkout
    # must not report the commit of some enclosing repository.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    """Host facts recorded in every output file."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }
