"""Native fused Algorithm 4.1 kernel, built on first use and loaded with ctypes.

The NumPy backend runs the ``O(n)`` preprocessing as array operations
but the TEMP_S sweep as a Python loop, because the sweep is a
sequential DP with a bisect that NumPy cannot vectorise.  This package
ships one small C file, ``fused_chain.c``, that does the whole query in
one pass over the prefix-weight array: the prime-window scan, the
membership intervals, the non-redundant edge reduction and the sweep
with cut reconstruction.  Every float expression and tie-break mirrors
:mod:`repro.engine.kernels`, so the answers are bit-identical to the
pure-Python reference (``tests/engine/test_native.py`` checks this).

**Build on first use.**  Nothing is compiled at ``import repro``.  The
first :func:`fused_solve` call compiles the source with the system C
compiler (``cc``, ``gcc`` or ``clang`` on ``PATH``) into a per-user
cache: ``~/.cache/repro/native``, or a private ``repro-native-<uid>``
directory under the system temp directory when the home cache is not
writable.  The file name carries a hash of the source, the flags and
the platform, and the library is written under a temporary name and
moved into place with ``os.replace``, so concurrent builders (forked
pool workers, say) never see a half-written file.  A loaded library is
checked once on the paper's Figure 1 instance before it is used.

**Fallback.**  When no compiler or writable directory is available, or
the build, load or self-check fails, :func:`load` returns ``None`` and
callers run the NumPy structure build plus the Python sweep instead.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any, List, NamedTuple, Optional

import numpy as np

#: The C source shipped next to this module (setuptools package data).
SOURCE_NAME = "fused_chain.c"
#: Compile flags.  ``-ffp-contract=off`` forbids fused multiply-adds and
#: there is deliberately no ``-ffast-math``: either could round a float
#: expression differently from the interpreter.
CFLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-fPIC", "-shared")
COMPILERS = ("cc", "gcc", "clang")
SYMBOL = "repro_fused_chain_solve"


class FusedResult(NamedTuple):
    """One solved query: the optimal cut (sorted edge indices), its
    weight, the prime and reduced-edge counts, and the smallest prime
    weight — the exclusive upper end of the bound interval over which
    the answer stays valid."""

    cut: List[int]
    weight: float
    p: int
    r: int
    min_prime_weight: float


_lock = threading.Lock()
#: ``[]`` until the first load attempt, then ``[function or None]``.
_loaded: List[Optional[Any]] = []


def source_path() -> Path:
    return Path(__file__).with_name(SOURCE_NAME)


def library_name(source: bytes) -> str:
    """Cache file name: a hash of the source, the flags and the platform."""
    key = hashlib.sha256(source)
    key.update(" ".join(CFLAGS).encode())
    key.update(f"{sys.platform}-{platform.machine()}".encode())
    return f"fused_chain-{key.hexdigest()[:20]}.so"


def _private_dir(path: Path) -> bool:
    """Create ``path`` (mode 0700) if needed; true when it is a directory
    owned by this user that nobody else can write to."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = path.stat()
    except OSError:
        return False
    owner_ok = not hasattr(os, "getuid") or info.st_uid == os.getuid()
    shared = info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    return stat.S_ISDIR(info.st_mode) and owner_ok and not shared and os.access(
        path, os.W_OK
    )


def _home_cache() -> Optional[Path]:
    try:
        return Path.home() / ".cache" / "repro" / "native"
    except (RuntimeError, KeyError):  # no resolvable home directory
        return None


def cache_dirs() -> List[Path]:
    """Candidate build-cache directories, most preferred first."""
    uid = os.getuid() if hasattr(os, "getuid") else 0
    temp = Path(tempfile.gettempdir()) / f"repro-native-{uid}"
    return [d for d in (_home_cache(), temp) if d is not None]


def _compile(source: Path, target: Path) -> bool:
    """Compile into ``target`` atomically; false when it cannot."""
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        return False
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        done = subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, str(source)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
            check=False,
        )
        if done.returncode != 0:
            return False
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(library: Path) -> Optional[Any]:
    """The kernel function of a built library, or ``None``."""
    import ctypes

    try:
        fn = getattr(ctypes.CDLL(str(library)), SYMBOL)
    except (OSError, AttributeError):
        return None
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_void_p,  # prefix (n + 1 doubles)
        ctypes.c_void_p,  # beta (n - 1 doubles)
        ctypes.c_int64,  # n
        ctypes.c_double,  # bound
        ctypes.c_int,  # apply the edge reduction
        ctypes.c_void_p,  # cut out (max(n - 1, 1) int64)
        ctypes.c_void_p,  # {weight, min prime weight} out
        ctypes.c_void_p,  # {p, r} out
    )
    # Figure 1 of the paper: K=9 gives cut {1, 3} of weight 3.
    prefix = np.array([0.0, 4.0, 7.0, 12.0, 14.0, 20.0])
    beta = np.array([7.0, 1.0, 9.0, 2.0])
    got = _call(fn, prefix, beta, 9.0, True)
    if got != FusedResult([1, 3], 3.0, 3, 4, 10.0):
        return None
    return fn


def _build_and_open() -> Optional[Any]:
    try:
        source = source_path().read_bytes()
    except OSError:
        return None
    name = library_name(source)
    for directory in cache_dirs():
        if not _private_dir(directory):
            continue
        library = directory / name
        if library.exists():
            fn = _open(library)
            if fn is not None:
                return fn
        if _compile(source_path(), library):
            return _open(library)
    return None


def load() -> Optional[Any]:
    """The native kernel function, building it on first use; ``None``
    when it cannot be built or loaded (callers then fall back)."""
    if _loaded:
        return _loaded[0]
    with _lock:
        if not _loaded:
            _loaded.append(_build_and_open())
        return _loaded[0]


def _call(
    fn: Any, prefix: "np.ndarray", beta: "np.ndarray", bound: float,
    apply_reduction: bool,
) -> FusedResult:
    n = prefix.shape[0] - 1
    cut = np.empty(max(n - 1, 1), dtype=np.int64)
    out_f = np.empty(2, dtype=np.float64)
    out_i = np.empty(2, dtype=np.int64)
    count = fn(
        prefix.ctypes.data, beta.ctypes.data, n, bound, int(apply_reduction),
        cut.ctypes.data, out_f.ctypes.data, out_i.ctypes.data,
    )
    if count < 0:
        raise MemoryError(f"native kernel could not allocate scratch for n={n}")
    return FusedResult(
        cut[:count].tolist(),
        float(out_f[0]),
        int(out_i[0]),
        int(out_i[1]),
        float(out_f[1]),
    )


def fused_solve(
    prefix: "np.ndarray",
    beta: "np.ndarray",
    bound: float,
    apply_reduction: bool = True,
) -> Optional[FusedResult]:
    """Algorithm 4.1 for one validated ``(chain, bound)`` in native code.

    ``prefix`` (length ``n + 1``) and ``beta`` (length ``n - 1``) are the
    chain's own read-only float64 arrays (passed without a copy), and ``bound``
    must already have passed ``validate_bound_array``.  Returns ``None``
    when the native kernel is unavailable.
    """
    fn = load()
    if fn is None:
        return None
    prefix = np.ascontiguousarray(prefix, dtype=np.float64)
    beta = np.ascontiguousarray(beta, dtype=np.float64)
    if prefix.ndim != 1 or prefix.shape[0] < 2 or beta.shape != (
        prefix.shape[0] - 2,
    ):
        raise ValueError(
            f"need prefix of length n + 1 >= 2 and beta of length n - 1, "
            f"got shapes {prefix.shape} and {beta.shape}"
        )
    return _call(fn, prefix, beta, float(bound), apply_reduction)
