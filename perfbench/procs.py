"""Spawn one child process, time it from spawn to exit, and read its
rusage from ``os.wait4`` (which on Linux includes the pool workers it
reaped)."""

from __future__ import annotations

import os
import signal
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

#: A child that runs longer than this is killed.
TIMEOUT_S = 120.0


@dataclass
class Run:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    #: Spawn to the child's first line on stdout (``ready_line=True``).
    ready_s: Optional[float] = None
    #: Factor to the reference machine speed, set by the caller.
    scale: float = 1.0


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(argv: List[str], env: Dict[str, str], cwd: Path, stderr_path: Path,
        *, ready_line: bool = False) -> Run:
    """Run ``argv`` to completion; its stdout is discarded unless
    ``ready_line``, when the time to its first stdout line is recorded."""
    with open(stderr_path, "ab") as stderr:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stderr=stderr, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if ready_line else subprocess.DEVNULL,
        )
        watchdog = threading.Timer(TIMEOUT_S, _kill, args=(proc.pid,))
        watchdog.start()
        ready = None
        try:
            if proc.stdout is not None:
                if proc.stdout.readline():
                    ready = perf_counter() - start
                proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        except BaseException:
            _kill(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            if proc.stdout is not None:
                proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        ready_s=ready,
    )
