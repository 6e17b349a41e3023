"""cffi kernel provider: the C kernels compiled with the system toolchain.

The provider that makes the compiled layer available wherever a C
compiler is.  ``load()`` compiles
:data:`repro.kernels._csource.C_SOURCE` once into a shared object cached
under a path keyed by the source, compiler, flags and platform
(``$REPRO_KERNELS_CACHE``, defaulting to a per-user directory below the
system temp dir) and opens it in cffi ABI mode; subsequent processes
reuse the cached ``.so`` without recompiling.  A cached library that
fails to open is deleted and rebuilt once; one that opens but fails the
registry's self-check is dropped through :func:`discard` and rebuilt
once too.

Only plain ``-O2`` is passed (see the bit-identity note in ``_csource``).
Build failures raise with the compiler's stderr attached; the registry
turns that into a clean fallback under auto-detection and a loud error
when the provider was requested explicitly.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shlex
import subprocess
import sys
import tempfile
from shutil import which
from types import SimpleNamespace

from repro.kernels._csource import C_SOURCE, CDEF

#: Compiler flags; part of the cache key (see the bit-identity note in
#: ``_csource`` before adding any).
_CFLAGS = ("-O2", "-fPIC", "-shared")


def _cache_dir() -> str:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return override
    uid = getattr(os, "getuid", lambda: 0)()
    return os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}")


def compiler_argv() -> list[str]:
    """``$CC`` (default ``cc``) split like a shell would split it, so a
    multi-word value such as ``gcc -std=c99`` names the executable
    ``gcc`` plus its leading flags.  An unset, empty or blank ``$CC``
    means ``cc``."""
    return shlex.split(os.environ.get("CC", "")) or ["cc"]


def _so_path() -> str:
    """Cached library path, keyed by everything that shapes the binary:
    the C source, the resolved compiler argv, the flags and the platform."""
    cc, *cc_flags = compiler_argv()
    key = "\0".join(
        (
            C_SOURCE, which(cc) or cc, *cc_flags, *_CFLAGS,
            sys.platform, platform.machine(),
        )
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"repro_kernels_{digest}.so")


def _ensure_built() -> str:
    """Compile the kernel source (once) and return the shared-object path."""
    so_path = _so_path()
    if os.path.exists(so_path):
        return so_path
    cache = os.path.dirname(so_path)
    os.makedirs(cache, exist_ok=True)
    argv = compiler_argv()
    fd, c_path = tempfile.mkstemp(dir=cache, suffix=".c")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(C_SOURCE)
        tmp_so = c_path[:-2] + ".so"
        proc = subprocess.run(
            [*argv, *_CFLAGS, "-o", tmp_so, c_path],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{shlex.join(argv)} failed to build the kernel library "
                f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}"
            )
        # atomic within the cache dir: concurrent builders race benignly
        os.replace(tmp_so, so_path)
    finally:
        if os.path.exists(c_path):
            os.unlink(c_path)
    return so_path


def _unlink(path: str) -> bool:
    try:
        os.unlink(path)
    except FileNotFoundError:
        return False
    return True


def discard(impl: SimpleNamespace) -> bool:
    """Unload ``impl``'s library and delete its cached file.

    For a cached library that opens but fails the registry's self-check
    (a corrupted write, or a binary from another toolchain under the same
    key): the next :func:`load` rebuilds it.  Unloading first matters —
    the dynamic loader would otherwise hand back the stale image for the
    same path.  Returns ``False`` when there was no file to delete.
    """
    impl.ffi.dlclose(impl.lib)
    return _unlink(impl.path)


def load() -> SimpleNamespace:
    """Build/open the library and return the low-level impl namespace.

    The returned callables follow the provider protocol: numpy arrays
    in, scalar status codes out.  Arrays must be C-contiguous with the
    protocol dtypes (``int64`` walkers/CSR, ``float64`` uniforms,
    ``uint8`` occupancy) — the ``KernelSet`` wrappers in the package root
    guarantee that.
    """
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    path = _ensure_built()
    try:
        lib = ffi.dlopen(path)
    except OSError:
        # junk or a truncated file under the cache key: rebuild once
        _unlink(path)
        path = _ensure_built()
        lib = ffi.dlopen(path)
    # typed from_buffer views decay to pointers at the call boundary and
    # cost ~4x less per argument than cast("i64 *", a.ctypes.data) — at
    # kernel call rates the marshalling is a measurable slice of the
    # min_width crossover
    from_buffer = ffi.from_buffer

    def pi(a):
        return from_buffer("i64[]", a)

    def pd(a):
        return from_buffer("double[]", a)

    def pu(a):
        return from_buffer("unsigned char[]", a)

    return SimpleNamespace(
        name="cffi",
        ffi=ffi,
        lib=lib,
        path=path,
        csr_step=lambda indptr, indices, pos, u, out, k: lib.repro_csr_step(
            pi(indptr), pi(indices), pi(pos), pd(u), pi(out), k
        ),
        vacant=lambda occ, rep_off, pos, k, out: lib.repro_vacant(
            pu(occ), pi(rep_off), pi(pos), k, pi(out)
        ),
        settle_round=lambda occ, rep, pos, prio, k, n, best, touched, winners: (
            lib.repro_settle_round(
                pu(occ), pi(rep), pi(pos), pi(prio), k, n,
                pi(best), pi(touched), pi(winners),
            )
        ),
        finish_seq=lambda indptr, indices, occ, starts, steps_row, settled_row,
        buf, nbuf, state, m, lazy, budget: lib.repro_finish_seq(
            pi(indptr), pi(indices), pu(occ), pi(starts), pi(steps_row),
            pi(settled_row), pd(buf), nbuf, pi(state), m, lazy, budget,
        ),
        finish_par1=lambda indptr, indices, occ, buf, nbuf, state, lazy,
        guard, budget: lib.repro_finish_par1(
            pi(indptr), pi(indices), pu(occ), pd(buf), nbuf,
            pi(state), lazy, guard, budget,
        ),
        walk_fill=lambda indptr, indices, out, steps, buf, nbuf, state: (
            lib.repro_walk_fill(
                pi(indptr), pi(indices), pi(out), steps, pd(buf), nbuf,
                pi(state),
            )
        ),
        walk_hit=lambda indptr, indices, hit, buf, nbuf, state, limit: (
            lib.repro_walk_hit(
                pi(indptr), pi(indices), pu(hit), pd(buf), nbuf,
                pi(state), limit,
            )
        ),
        par_rounds=lambda indptr, indices, buf, block, rep, pid, pos, bptr,
        k, free, occ, steps, settled, rnd, prio, use_prio, n, m, lazy, st,
        tail_total, budget, best, touched, state: lib.repro_par_rounds(
            pi(indptr), pi(indices), pd(buf), block, pi(rep), pi(pid),
            pi(pos), pi(bptr), pi(k), pi(free), pu(occ), pi(steps),
            pi(settled), pi(rnd), pi(prio), use_prio, n, m, lazy, st,
            tail_total, budget, pi(best), pi(touched), pi(state),
        ),
        seq_ticks=lambda indptr, indices, buf, block, live, pos, pstep,
        current, occ, starts, steps, settled, n, m, lazy, tail_total, budget,
        done, state: lib.repro_seq_ticks(
            pi(indptr), pi(indices), pd(buf), block, pi(live), pi(pos),
            pi(pstep), pi(current), pu(occ), pi(starts), pi(steps),
            pi(settled), n, m, lazy, tail_total, budget, pi(done), pi(state),
        ),
        ctu_ticks=lambda indptr, indices, fam, buf, block, lg, lstride,
        window, lanes, k, clock, pos, steps, settled, settle_clock, order,
        pool, occ, final_clock, n, m, rate, state: lib.repro_ctu_ticks(
            pi(indptr), pi(indices), pi(fam), pd(buf), block, pd(lg),
            lstride, window, pi(lanes), pi(k), pd(clock), pi(pos), pi(steps),
            pi(settled), pd(settle_clock), pi(order), pi(pool), pu(occ),
            pd(final_clock), n, m, rate, pi(state),
        ),
    )
