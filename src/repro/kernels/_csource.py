"""C source for the cffi kernel provider.

One translation unit, compiled with plain ``-O2`` (never ``-ffast-math``:
the offset computation ``(i64)(u * (double)deg)`` must be the same IEEE
double multiply + truncation the numpy path performs, or the bit-identity
contract of :mod:`repro.kernels` breaks).  The functions mirror, line for
line, the numpy round bodies in :mod:`repro.core.batched` and the scalar
micro-loops in ``_finish_parallel_rep`` / ``_finish_sequential_rep`` /
:mod:`repro.walks.single` — every behavioural quirk (the *unclamped*
``int(u * deg)`` of the scalar loops, the clamped vector step, the draw
order around the budget checks) is deliberate and pinned by
``tests/test_differential_drivers.py``.

Nine entry points.  The loop kernels consume uniforms from a
caller-provided buffer and return ``0`` when it runs dry; the Python
wrapper refills in exactly the serial drivers' block cadence (see
``KernelSet`` in the package root), so generator fetch positions stay on
the serial grid.  ``repro_par_rounds`` extends the same status protocol
to whole lock-step rounds of the parallel driver: ``0`` when a live
repetition's buffer cannot serve the next round (the wrapper refills
those rows and calls again), ``2`` at the tail-finisher handoff, ``1``
when every lane settled, ``-1`` past ``max_rounds``.
``repro_seq_ticks`` does the same for whole lock-step ticks of the
sequential driver: ``0`` when the shared cursor reaches the end of the
chunk (the wrapper refills the live rows and calls again), ``2`` at the
tail-finisher handoff, ``1`` when every repetition finished, ``-1`` past
``max_total_steps``.
"""

from __future__ import annotations

#: Prototypes for ``cffi.FFI.cdef`` — keep in sync with :data:`C_SOURCE`.
CDEF = """
typedef long long i64;
void repro_csr_step(const i64 *indptr, const i64 *indices, const i64 *pos,
                    const double *u, i64 *out, i64 k);
i64 repro_vacant(const unsigned char *occ, const i64 *rep_off,
                 const i64 *pos, i64 k, i64 *out);
i64 repro_settle_round(const unsigned char *occ, const i64 *rep,
                       const i64 *pos, const i64 *prio, i64 k, i64 n,
                       i64 *best, i64 *touched, i64 *winners);
i64 repro_finish_seq(const i64 *indptr, const i64 *indices,
                     unsigned char *occ, const i64 *starts, i64 *steps_row,
                     i64 *settled_row, const double *buf, i64 nbuf,
                     i64 *state, i64 m, i64 lazy, double budget);
i64 repro_finish_par1(const i64 *indptr, const i64 *indices,
                      unsigned char *occ, const double *buf, i64 nbuf,
                      i64 *state, i64 lazy, i64 guard, double budget);
i64 repro_walk_fill(const i64 *indptr, const i64 *indices, i64 *out,
                    i64 steps, const double *buf, i64 nbuf, i64 *state);
i64 repro_walk_hit(const i64 *indptr, const i64 *indices,
                   const unsigned char *hit, const double *buf, i64 nbuf,
                   i64 *state, double limit);
i64 repro_par_rounds(const i64 *indptr, const i64 *indices,
                     const double *buf, i64 block, i64 *rep, i64 *pid,
                     i64 *pos, i64 *bptr, i64 *k, i64 *freev,
                     unsigned char *occ, i64 *steps, i64 *settled, i64 *rnd,
                     const i64 *prio, i64 use_prio, i64 n, i64 m, i64 lazy,
                     i64 st, i64 tail_total, double budget, i64 *best,
                     i64 *touched, i64 *state);
i64 repro_seq_ticks(const i64 *indptr, const i64 *indices,
                    const double *buf, i64 block, i64 *live, i64 *pos,
                    i64 *pstep, i64 *current, unsigned char *occ,
                    const i64 *starts, i64 *steps, i64 *settled, i64 n,
                    i64 m, i64 lazy, i64 tail_total, double budget,
                    i64 *done, i64 *state);
"""

C_SOURCE = """
#include <stdint.h>
#include <stdlib.h>

typedef long long i64;

/* Fused CSR step: deg gather, offset truncation, clamp, slot gather.
 * Bit-identical to the numpy chain
 *     deg = indptr[pos+1]-indptr[pos]; off = (u*deg).astype(int64);
 *     minimum(off, deg-1); indices[indptr[pos]+off]
 * Negative u (the lazy drivers pass 2*(u-0.5) for *hold* walkers whose
 * result is discarded by `where`) clamps to slot 0 instead of numpy's
 * harmless wraparound gather -- any in-range slot works, OOB does not. */
void repro_csr_step(const i64 *indptr, const i64 *indices, const i64 *pos,
                    const double *u, i64 *out, i64 k)
{
    for (i64 i = 0; i < k; i++) {
        i64 p = pos[i];
        i64 s = indptr[p];
        i64 d = indptr[p + 1] - s;
        i64 off = (i64)(u[i] * (double)d);
        if (off > d - 1) off = d - 1;
        if (off < 0) off = 0;
        out[i] = indices[s + off];
    }
}

/* Occupancy probe: indices i with occ[rep_off[i] + pos[i]] == 0,
 * ascending -- what flatnonzero returns, in one pass with no transients. */
i64 repro_vacant(const unsigned char *occ, const i64 *rep_off,
                 const i64 *pos, i64 k, i64 *out)
{
    i64 c = 0;
    for (i64 i = 0; i < k; i++)
        if (!occ[rep_off[i] + pos[i]]) out[c++] = i;
    return c;
}

static int repro_cmp_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* Fused probe + per-(repetition, vertex) contest of one settlement round.
 * Walkers arrive grouped by repetition ascending (the flat-state
 * invariant), so one n-cell scratch `best` (persistently -1) serves all
 * repetitions.  Winner = smallest priority per vacant cell, first
 * occurrence on ties (matches the stable lexsort of select_settlers);
 * winners are emitted ordered by (repetition, vertex), i.e. by the
 * lexsort's key.  Scratch cells are restored to -1 before returning. */
i64 repro_settle_round(const unsigned char *occ, const i64 *rep,
                       const i64 *pos, const i64 *prio, i64 k, i64 n,
                       i64 *best, i64 *touched, i64 *winners)
{
    i64 total = 0, i = 0;
    while (i < k) {
        i64 r = rep[i], off = r * n, j = i, nt = 0;
        for (; j < k && rep[j] == r; j++) {
            i64 v = pos[j];
            if (occ[off + v]) continue;
            i64 b = best[v];
            if (b < 0) { touched[nt++] = v; best[v] = j; }
            else if (prio[j] < prio[b]) best[v] = j;
        }
        qsort(touched, (size_t)nt, sizeof(i64), repro_cmp_i64);
        for (i64 q = 0; q < nt; q++) {
            winners[total++] = best[touched[q]];
            best[touched[q]] = -1;
        }
        i = j;
    }
    return total;
}

/* _finish_sequential_rep's inner loop.  state = [particle, pos, t, total];
 * returns 1 when all m particles settled (state[3] = consumed doubles),
 * 0 when the uniform buffer ran dry (resume with a fresh buffer), -1 on
 * budget excess.  The serial loop draws u *before* the budget check and
 * indexes nbrs *unclamped* -- both reproduced exactly. */
i64 repro_finish_seq(const i64 *indptr, const i64 *indices,
                     unsigned char *occ, const i64 *starts, i64 *steps_row,
                     i64 *settled_row, const double *buf, i64 nbuf,
                     i64 *state, i64 m, i64 lazy, double budget)
{
    i64 particle = state[0], pos = state[1], t = state[2], total = state[3];
    i64 i = 0;
    for (;;) {
        if (i >= nbuf) {
            state[0] = particle; state[1] = pos;
            state[2] = t; state[3] = total;
            return 0;
        }
        double u = buf[i++];
        total += 1;
        t += 1;
        if ((double)total > budget) {
            state[0] = particle; state[1] = pos;
            state[2] = t; state[3] = total;
            return -1;
        }
        if (lazy) {
            if (u < 0.5) continue;
            u = 2.0 * (u - 0.5);
        }
        {
            i64 s = indptr[pos];
            i64 d = indptr[pos + 1] - s;
            pos = indices[s + (i64)(u * (double)d)];
        }
        if (occ[pos]) continue;
        occ[pos] = 1;
        steps_row[particle] = t;
        settled_row[particle] = pos;
        particle += 1;
        while (particle < m) {           /* instant_settle_chain */
            i64 v = starts[particle];
            if (occ[v]) break;
            occ[v] = 1;
            steps_row[particle] = 0;
            settled_row[particle] = v;
            particle += 1;
        }
        if (particle == m) {
            state[0] = particle; state[1] = pos;
            state[2] = t; state[3] = total;
            return 1;
        }
        pos = starts[particle];
        t = 0;
    }
}

/* The k == 1 branch of _finish_parallel_rep: one straggler particle, no
 * contest.  state = [v, t]; returns 1 settled, 0 buffer dry, -1 budget.
 * `guard` is the serial wide-phase flag (k > scalar_threshold): clamped
 * vector-step offsets when set, the raw scalar truncation otherwise. */
i64 repro_finish_par1(const i64 *indptr, const i64 *indices,
                      unsigned char *occ, const double *buf, i64 nbuf,
                      i64 *state, i64 lazy, i64 guard, double budget)
{
    i64 v = state[0], t = state[1], i = 0;
    for (;;) {
        if (i >= nbuf) { state[0] = v; state[1] = t; return 0; }
        t += 1;
        if ((double)t > budget) { state[0] = v; state[1] = t; return -1; }
        double u = buf[i++];
        if (lazy) {
            if (u < 0.5) continue;
            u = 2.0 * (u - 0.5);
        }
        {
            i64 s = indptr[v];
            i64 d = indptr[v + 1] - s;
            i64 off = (i64)(u * (double)d);
            if (guard && off >= d) off = d - 1;
            v = indices[s + off];
        }
        if (occ[v]) continue;
        occ[v] = 1;
        state[0] = v;
        state[1] = t;
        return 1;
    }
}

/* random_walk's loop: fill out[state[0]+1 ..] until `steps` steps taken.
 * state = [t, pos]; returns 1 done, 0 buffer dry. */
i64 repro_walk_fill(const i64 *indptr, const i64 *indices, i64 *out,
                    i64 steps, const double *buf, i64 nbuf, i64 *state)
{
    i64 t = state[0], pos = state[1], i = 0;
    while (t < steps) {
        if (i >= nbuf) { state[0] = t; state[1] = pos; return 0; }
        double u = buf[i++];
        i64 s = indptr[pos];
        i64 d = indptr[pos + 1] - s;
        pos = indices[s + (i64)(u * (double)d)];
        t += 1;
        out[t] = pos;
    }
    state[0] = t;
    state[1] = pos;
    return 1;
}

/* walk_until_hit's loop.  state = [steps, pos]; returns 1 on hit,
 * 0 buffer dry, -1 when `limit` steps elapsed without a hit. */
i64 repro_walk_hit(const i64 *indptr, const i64 *indices,
                   const unsigned char *hit, const double *buf, i64 nbuf,
                   i64 *state, double limit)
{
    i64 steps = state[0], pos = state[1], i = 0;
    for (;;) {
        if (i >= nbuf) { state[0] = steps; state[1] = pos; return 0; }
        double u = buf[i++];
        i64 s = indptr[pos];
        i64 d = indptr[pos + 1] - s;
        pos = indices[s + (i64)(u * (double)d)];
        steps += 1;
        if (hit[pos]) { state[0] = steps; state[1] = pos; return 1; }
        if ((double)steps >= limit) {
            state[0] = steps; state[1] = pos;
            return -1;
        }
    }
}

/* Doubles repetition r draws in one lock-step round with kr live lanes:
 * the lazy wide phase (kr > st) reads kr hold gates then kr step
 * uniforms, every other round one uniform per lane. */
static i64 repro_par_need(i64 kr, i64 lazy, i64 st)
{
    return (lazy && kr > st) ? 2 * kr : kr;
}

/* Whole lock-step rounds of batched_parallel_idla, in place.
 * Lanes (rep, pid, pos) are grouped by repetition ascending, k[r] of them
 * per repetition; lane j of rank q within its group reads its uniform at
 * buf[r*block + bptr[r] + q].  Each round: clamped CSR step (lazy: hold
 * below 0.5; wide rounds step with the uniform k[r] further on, narrow
 * rounds with 2(u - 0.5)), then the per-(repetition, vertex) contest of
 * the lanes on vacant cells -- smallest priority wins, priority pid or
 * prio[r*m + pid].  Winners fill occ/steps/settled/rnd; a repetition whose
 * last vertex filled stops its surplus lanes (m > n) with t steps each;
 * survivors are compacted in order.  Winner emission order is immaterial
 * here (each writes its own cells), so the contest needs no sort.
 * state = [live lanes, t].  Returns 1 when no lane is left, 2 when the
 * tail-finisher handoff holds (<= tail_total live repetitions, each with
 * <= st lanes), 0 when a live repetition's buffer cannot serve the next
 * round (refill rows with bptr[r] + need > block, reset their bptr, call
 * again), -1 when the next round would exceed `budget`. */
i64 repro_par_rounds(const i64 *indptr, const i64 *indices,
                     const double *buf, i64 block, i64 *rep, i64 *pid,
                     i64 *pos, i64 *bptr, i64 *k, i64 *freev,
                     unsigned char *occ, i64 *steps, i64 *settled, i64 *rnd,
                     const i64 *prio, i64 use_prio, i64 n, i64 m, i64 lazy,
                     i64 st, i64 tail_total, double budget, i64 *best,
                     i64 *touched, i64 *state)
{
    i64 nl = state[0], t = state[1];
    i64 live = 0, kmax = 0, ok = 1;
    for (i64 i = 0; i < nl; i += k[rep[i]]) {
        i64 r = rep[i], kr = k[r];
        live++;
        if (kr > kmax) kmax = kr;
        if (bptr[r] + repro_par_need(kr, lazy, st) > block) ok = 0;
    }
    for (;;) {
        if (nl == 0) return 1;
        if (tail_total > 0 && live <= tail_total && kmax <= st) return 2;
        if (!ok) return 0;
        t += 1;
        if ((double)t > budget) { state[1] = t; return -1; }
        i64 w = 0, i = 0;
        live = 0; kmax = 0;
        while (i < nl) {
            i64 r = rep[i], kr = k[r], off = r * n, nt = 0;
            i64 wide = lazy && kr > st, end = i + kr;
            const double *u0 = buf + r * block + bptr[r];
            for (i64 j = i; j < end; j++) {
                i64 p = pos[j];
                double u = u0[j - i];
                if (!lazy || u >= 0.5) {
                    if (lazy) u = wide ? u0[j - i + kr] : 2.0 * (u - 0.5);
                    i64 s = indptr[p];
                    i64 d = indptr[p + 1] - s;
                    i64 o = (i64)(u * (double)d);
                    if (o > d - 1) o = d - 1;
                    if (o < 0) o = 0;
                    p = indices[s + o];
                    pos[j] = p;
                }
                if (occ[off + p]) continue;
                i64 b = best[p];
                if (b < 0) { touched[nt++] = p; best[p] = j; }
                else if (use_prio ? prio[r * m + pid[j]] < prio[r * m + pid[b]]
                                  : pid[j] < pid[b]) best[p] = j;
            }
            bptr[r] += repro_par_need(kr, lazy, st);
            for (i64 q = 0; q < nt; q++) {
                i64 v = touched[q], j = best[v], cell = r * m + pid[j];
                best[v] = -1;
                occ[off + v] = 1;
                steps[cell] = t;
                settled[cell] = v;
                rnd[cell] = t;
                pid[j] = -1;
            }
            freev[r] -= nt;
            i64 kn = kr - nt;
            if (kn && freev[r] == 0) {
                for (i64 j = i; j < end; j++)
                    if (pid[j] >= 0) steps[r * m + pid[j]] = t;
                kn = 0;
            }
            if (kn) {
                if (nt == 0 && w == i) w = end;  /* nothing moved */
                else for (i64 j = i; j < end; j++) {
                    if (pid[j] < 0) continue;
                    rep[w] = r; pid[w] = pid[j]; pos[w] = pos[j];
                    w++;
                }
                live++;
                if (kn > kmax) kmax = kn;
                if (bptr[r] + repro_par_need(kn, lazy, st) > block) ok = 0;
            }
            k[r] = kn;
            i = end;
        }
        nl = w;
        state[0] = nl;
        state[1] = t;
    }
}

/* Whole lock-step ticks of batched_sequential_idla, in place.
 * One lane per live repetition, ascending: live[j] = r, pos[j] its
 * walking particle's vertex, pstep[j] that particle's steps so far,
 * current[r] its index.  Every live repetition consumes exactly one
 * double per tick, so one shared cursor serves all rows: lane j reads
 * buf[r*block + cursor].  Each tick: clamped CSR step (lazy: hold below
 * 0.5, step with 2(u - 0.5)); a walker on a vacant vertex settles there
 * and the instant-settle chain releases its successors; a repetition
 * whose last particle settled appends (r, tick) to `done` and leaves;
 * survivors are compacted in order.  state = [live lanes, cursor, ticks,
 * finished pairs this call].  Returns 1 when no lane is left, 2 when
 * 0 < live <= tail_total (the tail-finisher handoff), 0 when
 * cursor == block (refill the live rows, reset the cursor, call again),
 * -1 when the next tick would exceed `budget`. */
i64 repro_seq_ticks(const i64 *indptr, const i64 *indices,
                    const double *buf, i64 block, i64 *live, i64 *pos,
                    i64 *pstep, i64 *current, unsigned char *occ,
                    const i64 *starts, i64 *steps, i64 *settled, i64 n,
                    i64 m, i64 lazy, i64 tail_total, double budget,
                    i64 *done, i64 *state)
{
    i64 nl = state[0], cursor = state[1], ticks = state[2], nd = 0;
    i64 status;
    for (;;) {
        if (nl == 0) { status = 1; break; }
        if (nl <= tail_total) { status = 2; break; }
        if (cursor == block) { status = 0; break; }
        ticks += 1;
        if ((double)ticks > budget) { status = -1; break; }
        i64 w = 0;
        for (i64 j = 0; j < nl; j++) {
            i64 r = live[j], p = pos[j], ps = pstep[j] + 1;
            double u = buf[r * block + cursor];
            if (!lazy || u >= 0.5) {
                if (lazy) u = 2.0 * (u - 0.5);
                i64 s = indptr[p];
                i64 d = indptr[p + 1] - s;
                i64 o = (i64)(u * (double)d);
                if (o > d - 1) o = d - 1;
                if (o < 0) o = 0;
                p = indices[s + o];
                unsigned char *occ_r = occ + r * n;
                if (!occ_r[p]) {
                    i64 base = r * m, c = current[r];
                    occ_r[p] = 1;
                    steps[base + c] = ps;
                    settled[base + c] = p;
                    /* instant_settle_chain */
                    for (c++; c < m && !occ_r[starts[base + c]]; c++) {
                        i64 v = starts[base + c];
                        occ_r[v] = 1;
                        steps[base + c] = 0;
                        settled[base + c] = v;
                    }
                    if (c == m) {
                        done[2 * nd] = r;
                        done[2 * nd + 1] = ticks;
                        nd++;
                        continue;
                    }
                    current[r] = c;
                    p = starts[base + c];
                    ps = 0;
                }
            }
            live[w] = r; pos[w] = p; pstep[w] = ps;
            w++;
        }
        cursor += 1;
        nl = w;
    }
    state[0] = nl; state[1] = cursor; state[2] = ticks; state[3] = nd;
    return status;
}
"""
