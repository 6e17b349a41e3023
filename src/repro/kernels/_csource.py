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

Ten entry points.  The loop kernels consume uniforms from a
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
``repro_ctu_ticks`` plays whole ticks of the CTU driver and is the one
kernel that also steps implicit graphs: its walk step goes through the
static helper ``repro_adj_step``, which reads either the CSR arrays or
an implicit-family descriptor (family code plus int64 parameters, see
``adjacency_descriptor`` in the package root).  It returns ``0`` when
the tick window of precomputed clock logarithms runs out (the wrapper
refills the live rows when the chunk is spent too, and calls again)
and ``1`` when every lane settled.  No kernel calls ``log1p``: libm's
and numpy's disagree in the last bit on a few percent of doubles, so
the CTU clock's logarithms are computed by numpy and handed in.
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
i64 repro_ctu_ticks(const i64 *indptr, const i64 *indices, const i64 *fam,
                    const double *buf, i64 block, const double *lg,
                    i64 lstride, i64 window, i64 *lanes, i64 *k,
                    double *clock, i64 *pos, i64 *steps, i64 *settled,
                    double *settle_clock, i64 *order, i64 *pool,
                    unsigned char *occ, double *final_clock, i64 n, i64 m,
                    double rate, i64 *state);
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

/* Offset draw of the clamped vector step: (i64)(u * deg), at most deg-1. */
static i64 repro_offset(double u, i64 d)
{
    i64 o = (i64)(u * (double)d);
    if (o > d - 1) o = d - 1;
    if (o < 0) o = 0;
    return o;
}

/* One clamped walk step from v with uniform u: the neighbour in slot
 * (i64)(u * deg(v)) of either the CSR arrays (fam = [0, n]) or an
 * implicit family, fam = [code, n, params...], in the slot orders
 * documented in repro.graphs.implicit:
 *   1 cycle: (v+1) % n, (v-1) % n
 *   2 path: [1] at 0, [n-2] at n-1, else v+1, v-1
 *   3 complete: slot o is o + (o >= v)
 *   4 grid [d, sides[d], strides[d]]: forward moves on the axes where
 *     coord < side-1 in axis order, then backward moves where coord > 0
 *   5 torus [a, sides[a], strides[a]] over the a active (side >= 3) axes:
 *     forward wraps in axis order, then backward wraps
 *   6 hypercube [dim]: clear bits ascending, then set bits ascending
 *   7 btree: children 2v+1, 2v+2 while in range, then the parent
 * A vertex of degree 0 never steps (the drivers only walk unsettled
 * particles, and a one-vertex graph has none). */
static i64 repro_adj_step(const i64 *indptr, const i64 *indices,
                          const i64 *fam, i64 v, double u)
{
    switch (fam[0]) {
    case 1: {
        i64 n = fam[1];
        if (repro_offset(u, 2) == 0) return v + 1 == n ? 0 : v + 1;
        return v == 0 ? n - 1 : v - 1;
    }
    case 2: {
        i64 n = fam[1];
        i64 d = (v == 0 || v == n - 1) ? 1 : 2;
        if (repro_offset(u, d) == 0) return v == n - 1 ? v - 1 : v + 1;
        return v - 1;
    }
    case 3: {
        i64 o = repro_offset(u, fam[1] - 1);
        return o + (o >= v);
    }
    case 4: {
        i64 na = fam[2], d = 0;
        const i64 *side = fam + 3, *stride = fam + 3 + na;
        for (i64 a = 0; a < na; a++) {
            i64 c = (v / stride[a]) % side[a];
            d += (c < side[a] - 1) + (c > 0);
        }
        i64 o = repro_offset(u, d);
        for (i64 a = 0; a < na; a++)
            if ((v / stride[a]) % side[a] < side[a] - 1 && o-- == 0)
                return v + stride[a];
        for (i64 a = 0; a < na; a++)
            if ((v / stride[a]) % side[a] > 0 && o-- == 0)
                return v - stride[a];
        return v;
    }
    case 5: {
        i64 na = fam[2];
        i64 o = repro_offset(u, 2 * na), a = o < na ? o : o - na;
        i64 s = fam[3 + a], st = fam[3 + na + a], c = (v / st) % s;
        if (o < na) return c == s - 1 ? v + (1 - s) * st : v + st;
        return c == 0 ? v + (s - 1) * st : v - st;
    }
    case 6: {
        i64 dim = fam[2], o = repro_offset(u, dim);
        for (i64 b = 0; b < dim; b++)
            if (!((v >> b) & 1) && o-- == 0) return v ^ (1LL << b);
        for (i64 b = 0; b < dim; b++)
            if (((v >> b) & 1) && o-- == 0) return v ^ (1LL << b);
        return v;
    }
    case 7: {
        i64 half = (fam[1] - 1) / 2;
        i64 d = v == 0 ? 2 : (v < half ? 3 : 1);
        i64 o = repro_offset(u, d);
        return (v < half && o < 2) ? 2 * v + 1 + o : (v - 1) >> 1;
    }
    default: {
        i64 s = indptr[v];
        return indices[s + repro_offset(u, indptr[v + 1] - s)];
    }
    }
}

/* Whole lock-step ticks of batched_ctu_idla, in place.
 * One lane per live repetition, ascending: lanes[j] = r, k[j] its
 * unsettled-pool size, clock[j] its clock.  Every live lane consumes
 * three doubles per tick at the shared cursor of its row,
 * u = buf[r*block + cursor ..]: u[0] the exponential clock, whose
 * log1p(-u[0]) the caller precomputed into lg[r*lstride + tick of the
 * window], u[1] the ringer's slot in the pool, u[2] the walk step.
 * Each tick: clock += -lg / (k*rate); ringer p = pool[r*m + i] with
 * i = min((i64)(u[1]*k), k-1); one step of p; on a vacant vertex p
 * settles (settled, settle_clock, order[r*m + m-k]) and leaves the pool
 * by swap-remove; a repetition whose pool emptied records its clock in
 * final_clock and leaves; survivors are compacted in order.
 * state = [live lanes, cursor].  Plays at most `window` ticks, then
 * returns 0 (the caller refills the live rows if cursor + 3 > block,
 * precomputes the next window, calls again); returns 1 when no lane is
 * left. */
i64 repro_ctu_ticks(const i64 *indptr, const i64 *indices, const i64 *fam,
                    const double *buf, i64 block, const double *lg,
                    i64 lstride, i64 window, i64 *lanes, i64 *k,
                    double *clock, i64 *pos, i64 *steps, i64 *settled,
                    double *settle_clock, i64 *order, i64 *pool,
                    unsigned char *occ, double *final_clock, i64 n, i64 m,
                    double rate, i64 *state)
{
    i64 nl = state[0], cursor = state[1];
    for (i64 t = 0; t < window && nl > 0; t++, cursor += 3) {
        i64 w = 0;
        for (i64 j = 0; j < nl; j++) {
            i64 r = lanes[j], kr = k[j], base = r * m;
            const double *u = buf + r * block + cursor;
            double dt = -lg[r * lstride + t];
            dt /= (double)kr * rate;
            double c = clock[j] + dt;
            i64 i = (i64)(u[1] * (double)kr);
            if (i > kr - 1) i = kr - 1;
            i64 p = pool[base + i], cell = base + p;
            i64 v = repro_adj_step(indptr, indices, fam, pos[cell], u[2]);
            pos[cell] = v;
            steps[cell] += 1;
            if (!occ[r * n + v]) {
                occ[r * n + v] = 1;
                settled[cell] = v;
                settle_clock[cell] = c;
                order[base + m - kr] = p;
                kr -= 1;
                pool[base + i] = pool[base + kr];
                if (kr == 0) {
                    final_clock[r] = c;
                    continue;
                }
            }
            lanes[w] = r; k[w] = kr; clock[w] = c;
            w++;
        }
        nl = w;
    }
    state[0] = nl; state[1] = cursor;
    return nl == 0;
}
"""
