"""Numba kernel provider: ``@njit`` twins of the C kernels.

Importing this module requires numba; the registry in
:mod:`repro.kernels` gates the import and falls back to the other
providers when it is absent.  Each function mirrors the corresponding C
routine in :mod:`repro.kernels._csource` statement for statement — the
bit-identity argument is made once, in the C comments, and holds here
because numba lowers ``int(u * d)`` to the same IEEE multiply +
truncation.  ``cache=True`` persists the compiled machine code next to
this file so the one-time JIT cost is paid once per environment; the
registry's load-time self-check forces compilation of every kernel up
front, so a broken numba install fails at selection time, not mid-run.
"""

from __future__ import annotations

from numba import njit

name = "numba"


@njit(cache=True)
def csr_step(indptr, indices, pos, u, out, k):
    for i in range(k):
        p = pos[i]
        s = indptr[p]
        d = indptr[p + 1] - s
        off = int(u[i] * d)
        if off > d - 1:
            off = d - 1
        if off < 0:
            off = 0
        out[i] = indices[s + off]


@njit(cache=True)
def vacant(occ, rep_off, pos, k, out):
    c = 0
    for i in range(k):
        if occ[rep_off[i] + pos[i]] == 0:
            out[c] = i
            c += 1
    return c


@njit(cache=True)
def settle_round(occ, rep, pos, prio, k, n, best, touched, winners):
    total = 0
    i = 0
    while i < k:
        r = rep[i]
        off = r * n
        j = i
        nt = 0
        while j < k and rep[j] == r:
            v = pos[j]
            if occ[off + v] == 0:
                b = best[v]
                if b < 0:
                    touched[nt] = v
                    nt += 1
                    best[v] = j
                elif prio[j] < prio[b]:
                    best[v] = j
            j += 1
        touched[:nt].sort()
        for q in range(nt):
            winners[total] = best[touched[q]]
            total += 1
            best[touched[q]] = -1
        i = j
    return total


@njit(cache=True)
def finish_seq(
    indptr, indices, occ, starts, steps_row, settled_row,
    buf, nbuf, state, m, lazy, budget,
):
    particle = state[0]
    pos = state[1]
    t = state[2]
    total = state[3]
    i = 0
    while True:
        if i >= nbuf:
            state[0] = particle
            state[1] = pos
            state[2] = t
            state[3] = total
            return 0
        u = buf[i]
        i += 1
        total += 1
        t += 1
        if total > budget:
            state[0] = particle
            state[1] = pos
            state[2] = t
            state[3] = total
            return -1
        if lazy:
            if u < 0.5:
                continue
            u = 2.0 * (u - 0.5)
        s = indptr[pos]
        d = indptr[pos + 1] - s
        pos = indices[s + int(u * d)]
        if occ[pos]:
            continue
        occ[pos] = 1
        steps_row[particle] = t
        settled_row[particle] = pos
        particle += 1
        while particle < m:  # instant_settle_chain
            v = starts[particle]
            if occ[v]:
                break
            occ[v] = 1
            steps_row[particle] = 0
            settled_row[particle] = v
            particle += 1
        if particle == m:
            state[0] = particle
            state[1] = pos
            state[2] = t
            state[3] = total
            return 1
        pos = starts[particle]
        t = 0


@njit(cache=True)
def finish_par1(indptr, indices, occ, buf, nbuf, state, lazy, guard, budget):
    v = state[0]
    t = state[1]
    i = 0
    while True:
        if i >= nbuf:
            state[0] = v
            state[1] = t
            return 0
        t += 1
        if t > budget:
            state[0] = v
            state[1] = t
            return -1
        u = buf[i]
        i += 1
        if lazy:
            if u < 0.5:
                continue
            u = 2.0 * (u - 0.5)
        s = indptr[v]
        d = indptr[v + 1] - s
        off = int(u * d)
        if guard and off >= d:
            off = d - 1
        v = indices[s + off]
        if occ[v]:
            continue
        occ[v] = 1
        state[0] = v
        state[1] = t
        return 1


@njit(cache=True)
def walk_fill(indptr, indices, out, steps, buf, nbuf, state):
    t = state[0]
    pos = state[1]
    i = 0
    while t < steps:
        if i >= nbuf:
            state[0] = t
            state[1] = pos
            return 0
        u = buf[i]
        i += 1
        s = indptr[pos]
        d = indptr[pos + 1] - s
        pos = indices[s + int(u * d)]
        t += 1
        out[t] = pos
    state[0] = t
    state[1] = pos
    return 1


@njit(cache=True)
def walk_hit(indptr, indices, hit, buf, nbuf, state, limit):
    steps = state[0]
    pos = state[1]
    i = 0
    while True:
        if i >= nbuf:
            state[0] = steps
            state[1] = pos
            return 0
        u = buf[i]
        i += 1
        s = indptr[pos]
        d = indptr[pos + 1] - s
        pos = indices[s + int(u * d)]
        steps += 1
        if hit[pos]:
            state[0] = steps
            state[1] = pos
            return 1
        if steps >= limit:
            state[0] = steps
            state[1] = pos
            return -1


@njit(cache=True)
def _par_need(kr, lazy, st):
    if lazy and kr > st:
        return 2 * kr
    return kr


@njit(cache=True)
def par_rounds(
    indptr, indices, buf, block, rep, pid, pos, bptr, k, free,
    occ, steps, settled, rnd, prio, use_prio, n, m, lazy, st,
    tail_total, budget, best, touched, state,
):
    nl = state[0]
    t = state[1]
    live = 0
    kmax = 0
    ok = True
    i = 0
    while i < nl:
        r = rep[i]
        kr = k[r]
        live += 1
        if kr > kmax:
            kmax = kr
        if bptr[r] + _par_need(kr, lazy, st) > block:
            ok = False
        i += kr
    while True:
        if nl == 0:
            return 1
        if tail_total > 0 and live <= tail_total and kmax <= st:
            return 2
        if not ok:
            return 0
        t += 1
        if t > budget:
            state[1] = t
            return -1
        w = 0
        i = 0
        live = 0
        kmax = 0
        while i < nl:
            r = rep[i]
            kr = k[r]
            off = r * n
            nt = 0
            wide = lazy != 0 and kr > st
            end = i + kr
            base = r * block + bptr[r] - i
            for j in range(i, end):
                p = pos[j]
                u = buf[base + j]
                if not lazy or u >= 0.5:
                    if lazy:
                        u = buf[base + j + kr] if wide else 2.0 * (u - 0.5)
                    s = indptr[p]
                    d = indptr[p + 1] - s
                    o = int(u * d)
                    if o > d - 1:
                        o = d - 1
                    if o < 0:
                        o = 0
                    p = indices[s + o]
                    pos[j] = p
                if occ[off + p]:
                    continue
                b = best[p]
                if b < 0:
                    touched[nt] = p
                    nt += 1
                    best[p] = j
                elif use_prio:
                    if prio[r * m + pid[j]] < prio[r * m + pid[b]]:
                        best[p] = j
                elif pid[j] < pid[b]:
                    best[p] = j
            bptr[r] += _par_need(kr, lazy, st)
            for q in range(nt):
                v = touched[q]
                j = best[v]
                cell = r * m + pid[j]
                best[v] = -1
                occ[off + v] = 1
                steps[cell] = t
                settled[cell] = v
                rnd[cell] = t
                pid[j] = -1
            free[r] -= nt
            kn = kr - nt
            if kn and free[r] == 0:
                for j in range(i, end):
                    if pid[j] >= 0:
                        steps[r * m + pid[j]] = t
                kn = 0
            if kn:
                if nt == 0 and w == i:  # nothing moved
                    w = end
                else:
                    for j in range(i, end):
                        if pid[j] >= 0:
                            rep[w] = r
                            pid[w] = pid[j]
                            pos[w] = pos[j]
                            w += 1
                live += 1
                if kn > kmax:
                    kmax = kn
                if bptr[r] + _par_need(kn, lazy, st) > block:
                    ok = False
            k[r] = kn
            i = end
        nl = w
        state[0] = nl
        state[1] = t
