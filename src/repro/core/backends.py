"""Pluggable planner backends: pure numpy vs an optional compiled kernel.

The batched planner (:mod:`repro.core.batch_plan`) has two interchangeable
implementations of its hot loop, the Lemma 4.7 cut dynamic program behind
the Fig. 1 heuristic:

* ``"numpy"`` — the broadcast ``(batch, prev, j)`` DP, always available;
* ``"compiled"`` — the C kernel in ``_cut_dp.c``, built on demand with the
  host C compiler and loaded through :mod:`ctypes`.  No build step, no new
  dependency: the first use compiles the shared object into a cache
  directory keyed by the source hash plus the toolchain fingerprint
  (compiler, version, flags, machine), so rebuilds happen exactly when the
  kernel source or the machine code it would produce changes.

The machine picks the backend, not the caller: the planner always asks
:func:`auto_kernel` (what ``resolve_backend("auto")`` names), which prefers
the compiled kernel and silently falls back to numpy when no toolchain (or
no cache directory) is available, bumping the ``planner.backend_fallback``
obs counter so the degradation is observable.  It reads the environment
once per call, so a planner call resolves its backend with one read; that
read goes to ``os.environ``'s own dict, which costs about 0.15 us where
``os.environ.get`` raises and catches two ``KeyError``s for an unset name
(about 1.5 us).
``resolve_backend("compiled")`` raises instead of degrading, for a check
that must know the kernel loads.

The same library holds ``repro_step_walks``, the batched ``RandomWalk``
step that :func:`repro.cellnet.mobility.step_random_walks` runs when
:func:`auto_kernel` returns the library; without it that function makes
the same ``Generator`` calls in a Python loop.  It also holds
``repro_draw_participants``, the sorted
``Generator.choice(n, size, replace=False)`` that
:class:`repro.cellnet.calls.PoissonConferenceCalls` draws a call's
participants with; without the library that class calls ``choice``.  And
it holds ``repro_serve_round``, one shared paging round of
:class:`repro.cellnet.engine.ChannelScheduler` over its call slots, bound
once through a ``RoundState`` structure; without the library (or when
pages can be lost) the scheduler serves the same slots in Python.  So
``REPRO_DISABLE_COMPILED`` switches movement, participant draws and
contended rounds as well as planning, and ``planner.backend_fallback``
counts every kind of call.

Environment (tested in ``tests/core/test_backends.py``):

* ``REPRO_DISABLE_COMPILED=1`` — pretend no toolchain exists (the no-
  compiler CI job, and the tests' numpy runs, use this);
* ``REPRO_CACHE_DIR`` — where the compiled object is cached (default
  ``~/.cache/repro``).

Both backends are bit-identical: the kernel documents (and the property
suite in ``tests/core/test_batch_plan.py`` asserts) that every float is
computed by the same sequence of IEEE operations as the numpy backend in
:mod:`repro.core.batch_plan`, compiled with ``-ffp-contract=off`` so no
fused multiply-adds sneak in.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

from ..errors import ReproError
from ..obs.instrument import count

__all__ = [
    "BACKENDS",
    "BackendUnavailableError",
    "auto_kernel",
    "available_backends",
    "compiled_available",
    "load_compiled",
    "resolve_backend",
]

#: The backend names, in preference order for ``auto``.
BACKENDS: Tuple[str, ...] = ("compiled", "numpy")

_SOURCE = Path(__file__).with_name("_cut_dp.c")

#: ``-ffp-contract=off`` is load-bearing: fused multiply-adds would change
#: the DP candidates in the last ulp and break bit-identity with numpy.
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fopenmp-simd",
           "-shared", "-fPIC")

_lib: Optional[ctypes.CDLL] = None
_lib_error: Optional[str] = None

_DISABLE = "REPRO_DISABLE_COMPILED"
#: The switch's key in ``os.environ._data``, the dict behind the mapping
#: that ``os.environ[...] = ...`` (and so ``monkeypatch.setenv``) updates.
_DISABLE_KEY = getattr(os.environ, "encodekey", str)(_DISABLE)


class BackendUnavailableError(ReproError):
    """The compiled planner kernel cannot be provided on this machine."""


def _compiled_disabled() -> bool:
    """Whether ``REPRO_DISABLE_COMPILED`` is set to a non-empty value now.

    Reads the live environment on every call.
    """
    data = getattr(os.environ, "_data", None)
    if data is None:
        return bool(os.environ.get(_DISABLE))
    return bool(data.get(_DISABLE_KEY))


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _compiler() -> Optional[Tuple[str, str]]:
    """``(name, version banner)`` of the first working C compiler, if any."""
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if not name:
            continue
        try:
            probe = subprocess.run(
                [name, "--version"], capture_output=True, check=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            continue
        banner = probe.stdout.decode(errors="replace").splitlines()
        return name, banner[0] if banner else ""
    return None


def _object_digest(source: str, compiler: str, version: str) -> str:
    """Cache key for a built kernel object.

    The digest covers everything that determines the machine code, not just
    the C source: a cache directory shared across machines (REPRO_CACHE_DIR)
    or a toolchain upgrade must not reuse a ``.so`` built with different
    flags or for a different microarchitecture (``-march=native`` makes
    that a SIGILL, not a clean fallback).
    """
    fingerprint = "\x00".join(
        (source, compiler, version, " ".join(_CFLAGS), platform.machine())
    )
    return hashlib.sha256(fingerprint.encode()).hexdigest()[:16]


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the kernel signatures.

    Array arguments are plain addresses (``array.ctypes.data``): a typed
    ``POINTER`` would cost a ctypes cast per array per call.  Callers
    guarantee dtype (``double``, ``ssize_t``, ``unsigned char``) and C
    contiguity by allocating with ``np.empty`` or ``np.ascontiguousarray``.
    """
    ssize = ctypes.c_ssize_t
    ptr = ctypes.c_void_p
    lib.repro_plan_batch.restype = ctypes.c_int
    lib.repro_plan_batch.argtypes = [
        ptr, ssize, ssize, ssize, ssize, ssize, ptr, ptr, ptr, ptr,
    ]
    lib.repro_optimize_cuts_batch.restype = ctypes.c_int
    lib.repro_optimize_cuts_batch.argtypes = [
        ptr, ssize, ssize, ssize, ssize, ptr, ptr, ptr,
    ]
    lib.repro_step_walks.restype = ctypes.c_int
    lib.repro_step_walks.argtypes = [ptr, ssize, ptr, ptr, ssize, ptr, ptr, ptr]
    lib.repro_draw_participants.restype = ctypes.c_int
    lib.repro_draw_participants.argtypes = [ptr, ssize, ssize, ptr]
    lib.repro_serve_round.restype = ssize
    lib.repro_serve_round.argtypes = [ptr, ptr, ssize]
    return lib


def _build_library() -> ctypes.CDLL:
    source = _SOURCE.read_text()
    # The compiler probe runs even when a cached object exists: its identity
    # is part of the cache key, so a toolchain change triggers a rebuild
    # instead of loading an object compiled for a different setup.
    found = _compiler()
    if found is None:
        raise BackendUnavailableError("no C compiler found on PATH")
    compiler, version = found
    digest = _object_digest(source, compiler, version)
    cache = _cache_dir()
    target = cache / f"cut_dp-{digest}.so"
    if not target.exists():
        cache.mkdir(parents=True, exist_ok=True)
        # Build into a private temp name, then atomically publish, so two
        # concurrent processes never load a half-written object.
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
        os.close(fd)
        try:
            subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                capture_output=True,
                check=True,
                timeout=300,
            )
            os.replace(tmp, target)
        except subprocess.CalledProcessError as error:
            raise BackendUnavailableError(
                "planner kernel failed to compile: "
                + error.stderr.decode(errors="replace").strip()
            ) from error
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return _declare(ctypes.CDLL(str(target)))


def load_compiled() -> ctypes.CDLL:
    """The compiled kernel, building and caching it on first use.

    Raises :class:`BackendUnavailableError` when the toolchain is absent,
    the build fails, or ``REPRO_DISABLE_COMPILED`` is set.  The outcome
    (library or error) is memoized per process.
    """
    global _lib, _lib_error
    if _compiled_disabled():
        raise BackendUnavailableError(
            "compiled backend disabled by REPRO_DISABLE_COMPILED"
        )
    if _lib is not None:
        return _lib
    if _lib_error is not None:
        raise BackendUnavailableError(_lib_error)
    try:
        _lib = _build_library()
    except BackendUnavailableError as error:
        _lib_error = str(error)
        raise
    except OSError as error:
        _lib_error = f"cannot build planner kernel: {error}"
        raise BackendUnavailableError(_lib_error) from error
    return _lib


def auto_kernel() -> Optional[ctypes.CDLL]:
    """The kernel ``"auto"`` runs: the compiled library, or None for numpy.

    Reads ``REPRO_DISABLE_COMPILED`` once, before the per-process memo, so
    setting it inside a process still switches the next call to numpy.  A
    fallback bumps the ``planner.backend_fallback`` obs counter.
    """
    if _lib is not None and not _compiled_disabled():
        return _lib
    try:
        return load_compiled()
    except BackendUnavailableError:
        count("planner.backend_fallback")
        return None


def compiled_available() -> bool:
    """True when :func:`load_compiled` would succeed right now."""
    try:
        load_compiled()
    except BackendUnavailableError:
        return False
    return True


def available_backends() -> Tuple[str, ...]:
    """The usable backends on this machine, in ``auto`` preference order."""
    return tuple(
        name
        for name in BACKENDS
        if name != "compiled" or compiled_available()
    )


def resolve_backend(backend: str = "auto") -> str:
    """Map a backend name to the implementation that will run.

    ``"auto"`` prefers the compiled kernel and falls back to numpy —
    silently, except for the ``planner.backend_fallback`` obs counter.  An
    explicit ``"compiled"`` raises :class:`BackendUnavailableError` when the
    kernel cannot load.
    """
    if backend == "auto":
        return "numpy" if auto_kernel() is None else "compiled"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown planner backend {backend!r}; known: auto, "
            + ", ".join(BACKENDS)
        )
    if backend == "compiled":
        load_compiled()  # raises BackendUnavailableError when absent
    return backend
