/* Batched Fig. 1 planner kernel: weight ordering + Lemma 4.7 cut DP.
 * The file also holds the batched RandomWalk step (repro_step_walks) and
 * the participant draw (repro_draw_participants), which draw through
 * numpy's generator and need no float contract beyond comparing the
 * generator's own doubles, and, at the end, the contention scheduler's
 * paging round (repro_serve_round), which draws nothing.
 *
 * Bit-identity contract with the numpy backend (repro.core.batch_plan):
 *  - weights are sequential per-cell sums over devices (same add order);
 *  - the descending stable argsort matches np.argsort(-w, kind="stable");
 *  - find probabilities are sequential prefix sums multiplied device-major;
 *  - every DP candidate is computed as best[prev] + (double)(j-prev)*F[prev]
 *    with no FP contraction (compile with -ffp-contract=off), and the level
 *    value is a max over that candidate set (order-independent);
 *  - the backtrack takes the first predecessor whose candidate equals the
 *    level value, matching np.argmax's first-occurrence rule.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <math.h>
#include <string.h>

#define BLK 32

/* ------------------------------------------------------------------ */
/* Stable descending argsort of non-negative, non-NaN doubles.         */
/* LSD byte radix on the raw IEEE bit patterns (monotone for non-      */
/* negative doubles): 8 stable counting passes from low byte to high,  */
/* each scattering digit 255 first, gives descending order with ties   */
/* in original index order — the exact permutation of a stable         */
/* descending mergesort (and of np.lexsort((arange(n), -w))).  Passes  */
/* whose byte is constant across all keys leave the order unchanged    */
/* and are skipped.                                                    */
/* ------------------------------------------------------------------ */
static void radix_argsort_desc(const double *w, ptrdiff_t *idx,
                               uint64_t *ka, uint64_t *kb,
                               ptrdiff_t *ia, ptrdiff_t *ib, ptrdiff_t n) {
    uint32_t hist[8][256];
    memset(hist, 0, sizeof(hist));
    for (ptrdiff_t i = 0; i < n; ++i) {
        uint64_t k;
        memcpy(&k, &w[i], 8);
        ka[i] = k;
        ia[i] = i;
        for (int pass = 0; pass < 8; ++pass)
            ++hist[pass][(k >> (8 * pass)) & 255u];
    }
    uint64_t *ksrc = ka, *kdst = kb;
    ptrdiff_t *isrc = ia, *idst = ib;
    for (int pass = 0; pass < 8; ++pass) {
        const uint32_t *h = hist[pass];
        int constant = 0;
        for (int v = 0; v < 256; ++v)
            if (h[v] == (uint32_t)n) { constant = 1; break; }
        if (constant) continue;
        uint32_t offsets[256];
        uint32_t run = 0;
        for (int v = 255; v >= 0; --v) { offsets[v] = run; run += h[v]; }
        const int shift = 8 * pass;
        for (ptrdiff_t i = 0; i < n; ++i) {
            uint64_t k = ksrc[i];
            uint32_t pos = offsets[(k >> shift) & 255u]++;
            kdst[pos] = k;
            idst[pos] = isrc[i];
        }
        uint64_t *kt = ksrc; ksrc = kdst; kdst = kt;
        ptrdiff_t *it = isrc; isrc = idst; idst = it;
    }
    memcpy(idx, isrc, (size_t)n * sizeof(ptrdiff_t));
}

/* ------------------------------------------------------------------ */
/* One DP level, register-blocked over 32 outputs.                     */
/*                                                                     */
/* next[j] = max over 1 <= g <= min(j, b) of prev[j-g] + g*F[j-g].     */
/* The prev row and F are stored with `pad` slots below index 0 filled */
/* with -inf and 0.0 respectively, so predecessors j-g < 0 contribute  */
/* -inf + g*0 = -inf and never win; slack above c is -inf/0.0 so       */
/* overshooting blocks stay -inf.  Each 32-wide block accumulates      */
/* across all gaps before storing, eliminating the per-diagonal        */
/* read-modify-write traffic of a (prev, j) sweep.                     */
/* ------------------------------------------------------------------ */
static void dp_level_blocked(const double *restrict prev_pad,
                             const double *restrict F_pad,
                             double *restrict next,
                             ptrdiff_t c, ptrdiff_t b) {
    for (ptrdiff_t j0 = 0; j0 <= c; j0 += BLK) {
        double acc[BLK];
        for (int k = 0; k < BLK; ++k) acc[k] = -INFINITY;
        ptrdiff_t ghi = j0 + BLK - 1 < b ? j0 + BLK - 1 : b;
        for (ptrdiff_t g = 1; g <= ghi; ++g) {
            const double gd = (double)g;
            const double *pb = prev_pad + j0 - g;
            const double *fp = F_pad + j0 - g;
            #pragma omp simd
            for (int k = 0; k < BLK; ++k) {
                double v = pb[k] + gd * fp[k];
                acc[k] = acc[k] > v ? acc[k] : v;
            }
        }
        for (int k = 0; k < BLK; ++k) next[j0 + k] = acc[k];
    }
    next[0] = -INFINITY;
}

/* Scratch layout: every DP row and the F array carry `pad` slots below
 * index 0 and BLK slots of slack above index c. */
typedef struct {
    ptrdiff_t c, d, pad, rowlen;
    double *F;       /* padded: F[-pad..c+BLK-1] */
    double *rows;    /* d padded rows */
    double *pd;      /* pd[p] = (double)p, 0..c */
    double *w;
    double *cum;
    uint64_t *ka, *kb;
    ptrdiff_t *ia, *ib;
} Scratch;

static int scratch_init(Scratch *s, ptrdiff_t c, ptrdiff_t d) {
    s->c = c; s->d = d;
    s->pad = c + 1;
    s->rowlen = s->pad + c + 1 + BLK;
    /* One allocation, carved into the arrays below: a plan of a few cells
     * is cheap enough that separate mallocs would show. */
    size_t doubles = (size_t)((1 + d) * s->rowlen + (c + 1) + c + (c + 1));
    size_t words = (size_t)(4 * c);
    s->F = malloc(doubles * sizeof(double) + words * 8);
    if (!s->F) return -1;
    s->rows = s->F + s->rowlen;
    s->pd = s->rows + d * s->rowlen;
    s->w = s->pd + (c + 1);
    s->cum = s->w + c;
    s->ka = (uint64_t *)(s->cum + (c + 1));
    s->kb = s->ka + c;
    s->ia = (ptrdiff_t *)(s->kb + c);
    s->ib = s->ia + c;
    /* F: zeros below 0 and above c; rows: -inf below 0 and above c. */
    for (ptrdiff_t k = 0; k < s->pad; ++k) s->F[k] = 0.0;
    for (ptrdiff_t k = s->pad + c + 1; k < s->rowlen; ++k) s->F[k] = 0.0;
    for (ptrdiff_t lv = 0; lv < d; ++lv) {
        double *row = s->rows + lv * s->rowlen;
        for (ptrdiff_t k = 0; k < s->pad; ++k) row[k] = -INFINITY;
        for (ptrdiff_t k = s->pad + c + 1; k < s->rowlen; ++k) row[k] = -INFINITY;
    }
    for (ptrdiff_t p = 0; p <= c; ++p) s->pd[p] = (double)p;
    return 0;
}

static void scratch_free(Scratch *s) {
    free(s->F);
}

static double *scratch_row(Scratch *s, ptrdiff_t level) {
    return s->rows + level * s->rowlen + s->pad;
}

static double *scratch_F(Scratch *s) {
    return s->F + s->pad;
}

/* Lemma 4.7 cut DP over the padded scratch rows; returns feasibility. */
static int cut_dp(Scratch *s, ptrdiff_t b, ptrdiff_t *sizes, double *value) {
    ptrdiff_t c = s->c, d = s->d;
    /* A group can never exceed c cells, so b > c plans identically to
     * b == c.  The clamp also keeps dp_level_blocked's gap loop (g up to
     * min(j0 + BLK - 1, b)) inside the pad = c + 1 slots below each row. */
    if (b > c) b = c;
    const double *F = scratch_F(s);
    double *base = scratch_row(s, 0);
    for (ptrdiff_t j = 0; j <= c; ++j)
        base[j] = (j >= 1 && j <= b) ? 0.0 : -INFINITY;
    for (ptrdiff_t level = 1; level < d; ++level)
        dp_level_blocked(scratch_row(s, level - 1), F,
                         scratch_row(s, level), c, b);
    double top = scratch_row(s, d - 1)[c];
    if (!isfinite(top)) return 0;
    *value = (double)c - top;
    ptrdiff_t cut = c;
    for (ptrdiff_t level = d - 1; level >= 1; --level) {
        const double *prev_best = scratch_row(s, level - 1);
        double target = scratch_row(s, level)[cut];
        const double cutd = (double)cut;
        ptrdiff_t lo = cut - b > 0 ? cut - b : 0;
        ptrdiff_t parent = 0;
        for (ptrdiff_t p = lo; p < cut; ++p) {
            double v = prev_best[p] + (cutd - s->pd[p]) * F[p];
            if (v == target) { parent = p; break; }
        }
        sizes[level] = cut - parent;
        cut = parent;
    }
    sizes[0] = cut;
    return 1;
}

/* Weights, stable descending order, and find-probability prefix (Fig. 1). */
static void prepare_instance(Scratch *s, const double *mat, ptrdiff_t m,
                             ptrdiff_t *order) {
    ptrdiff_t c = s->c;
    double *w = s->w, *cum = s->cum, *F = scratch_F(s);
    for (ptrdiff_t j = 0; j < c; ++j) w[j] = mat[j];
    for (ptrdiff_t dev = 1; dev < m; ++dev) {
        const double *row = mat + dev * c;
        for (ptrdiff_t j = 0; j < c; ++j) w[j] += row[j];
    }
    /* Canonicalize -0.0 to +0.0: the radix sort orders raw bit patterns,
     * where -0.0 (0x8000...) would sort before every positive weight,
     * while np.argsort treats -0.0 == 0.0 as a tie broken by index. */
    for (ptrdiff_t j = 0; j < c; ++j)
        if (w[j] == 0.0) w[j] = 0.0;
    radix_argsort_desc(w, order, s->ka, s->kb, s->ia, s->ib, c);
    for (ptrdiff_t dev = 0; dev < m; ++dev) {
        const double *row = mat + dev * c;
        double acc = 0.0;
        cum[0] = 0.0;
        for (ptrdiff_t k = 1; k <= c; ++k) {
            acc += row[order[k - 1]];
            cum[k] = acc;
        }
        if (dev == 0) memcpy(F, cum, (size_t)(c + 1) * sizeof(double));
        else { for (ptrdiff_t k = 0; k <= c; ++k) F[k] *= cum[k]; }
    }
}

static void mark_infeasible(ptrdiff_t *sizes, double *value, ptrdiff_t d) {
    *value = NAN;
    for (ptrdiff_t r = 0; r < d; ++r) sizes[r] = 0;
}

/* Full pipeline: matrices (batch, m, c) -> orders, group sizes, values. */
int repro_plan_batch(
    const double *matrices, ptrdiff_t batch, ptrdiff_t m, ptrdiff_t c,
    ptrdiff_t d, ptrdiff_t b,
    ptrdiff_t *orders, ptrdiff_t *sizes, double *values, unsigned char *feasible
) {
    Scratch s;
    if (scratch_init(&s, c, d) != 0) { scratch_free(&s); return -1; }
    for (ptrdiff_t i = 0; i < batch; ++i) {
        prepare_instance(&s, matrices + i * m * c, m, orders + i * c);
        feasible[i] = (unsigned char)cut_dp(&s, b, sizes + i * d, values + i);
        if (!feasible[i]) mark_infeasible(sizes + i * d, values + i, d);
    }
    scratch_free(&s);
    return 0;
}

/* Cut DP only: finds (batch, c+1) -> group sizes, values. */
int repro_optimize_cuts_batch(
    const double *finds, ptrdiff_t batch, ptrdiff_t c, ptrdiff_t d, ptrdiff_t b,
    ptrdiff_t *sizes, double *values, unsigned char *feasible
) {
    Scratch s;
    if (scratch_init(&s, c, d) != 0) { scratch_free(&s); return -1; }
    double *F = scratch_F(&s);
    for (ptrdiff_t i = 0; i < batch; ++i) {
        memcpy(F, finds + i * (c + 1), (size_t)(c + 1) * sizeof(double));
        feasible[i] = (unsigned char)cut_dp(&s, b, sizes + i * d, values + i);
        if (!feasible[i]) mark_infeasible(sizes + i * d, values + i, d);
    }
    scratch_free(&s);
    return 0;
}

/* ------------------------------------------------------------------ */
/* One RandomWalk step of many devices, drawn from numpy's generator.  */
/* ------------------------------------------------------------------ */
/* Layout of numpy's bitgen_t (numpy/random/bitgen.h), the struct that */
/* BitGenerator.ctypes.bit_generator points to.                        */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} repro_bitgen;

/* Generator.integers(k) for k >= 2: numpy's buffered_bounded_lemire_uint32
 * with rng = k - 1, on the generator's own next_uint32 (which keeps the
 * bit generator's 32-bit buffer). */
static uint32_t bounded_lemire(repro_bitgen *g, uint32_t k) {
    uint64_t m = (uint64_t)g->next_uint32(g->state) * k;
    uint32_t leftover = (uint32_t)m;
    if (leftover < k) {
        const uint32_t threshold = (UINT32_MAX - (k - 1)) % k;
        while (leftover < threshold) {
            m = (uint64_t)g->next_uint32(g->state) * k;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* Device i in cells[i] stays when random() < stay[i], else moves to one of
 * its neighbors neighbors[offsets[cell] .. offsets[cell + 1]) picked by
 * integers(k); k == 1 draws nothing and k == 0 stays.  The same draws, in
 * the same order, as RandomWalk.step called device by device.  Returns -1,
 * before drawing anything, if a cell lies outside 0 .. ncells - 1. */
int repro_step_walks(
    void *bitgen, ptrdiff_t n, const ptrdiff_t *cells, const double *stay,
    ptrdiff_t ncells, const ptrdiff_t *offsets, const ptrdiff_t *neighbors,
    ptrdiff_t *out
) {
    for (ptrdiff_t i = 0; i < n; ++i)
        if (cells[i] < 0 || cells[i] >= ncells) return -1;
    repro_bitgen *g = (repro_bitgen *)bitgen;
    for (ptrdiff_t i = 0; i < n; ++i) {
        const ptrdiff_t cell = cells[i];
        if (g->next_double(g->state) < stay[i]) { out[i] = cell; continue; }
        const ptrdiff_t start = offsets[cell];
        const ptrdiff_t k = offsets[cell + 1] - start;
        if (k == 0) out[i] = cell;
        else if (k == 1) out[i] = neighbors[start];
        else out[i] = neighbors[start + bounded_lemire(g, (uint32_t)k)];
    }
    return 0;
}

static int compare_ptrdiff(const void *a, const void *b) {
    const ptrdiff_t x = *(const ptrdiff_t *)a, y = *(const ptrdiff_t *)b;
    return (x > y) - (x < y);
}

/* Generator.choice(n, size, replace=False), sorted, for the n and size at
 * which numpy runs Floyd's algorithm (n <= 10000 or size <= n // 50) and
 * n <= UINT32_MAX.  Floyd: for j in n - size .. n - 1 draw integers(j + 1)
 * (j == 0 draws nothing) and take j instead of a value already taken.
 * Then the size - 1 draws of choice's shuffle, whose permutation sorting
 * discards.  Writes the set in ascending order to out; returns -1, before
 * drawing anything, for a size outside 0 .. n or if the set's scratch
 * cannot be allocated. */
int repro_draw_participants(void *bitgen, ptrdiff_t n, ptrdiff_t size,
                            ptrdiff_t *out) {
    if (size < 0 || size > n || n > (ptrdiff_t)UINT32_MAX) return -1;
    /* Open-addressed set of the values taken, at most half full. */
    ptrdiff_t slots = 16;
    while (slots < 2 * size) slots *= 2;
    ptrdiff_t local[16];
    ptrdiff_t *set = slots == 16 ? local : malloc((size_t)slots * sizeof(ptrdiff_t));
    if (!set) return -1;
    for (ptrdiff_t k = 0; k < slots; ++k) set[k] = -1;
    const size_t mask = (size_t)slots - 1;
    repro_bitgen *g = (repro_bitgen *)bitgen;
    for (ptrdiff_t j = n - size; j < n; ++j) {
        ptrdiff_t val = j == 0 ? 0 : (ptrdiff_t)bounded_lemire(g, (uint32_t)(j + 1));
        size_t loc = (size_t)val & mask;
        while (set[loc] != -1 && set[loc] != val) loc = (loc + 1) & mask;
        if (set[loc] == val) {
            val = j;
            loc = (size_t)val & mask;
            while (set[loc] != -1) loc = (loc + 1) & mask;
        }
        set[loc] = val;
        out[j - (n - size)] = val;
    }
    for (ptrdiff_t i = size - 1; i >= 1; --i)
        (void)bounded_lemire(g, (uint32_t)(i + 1));
    if (set != local) free(set);
    qsort(out, (size_t)size, sizeof(ptrdiff_t), compare_ptrdiff);
    return 0;
}

/* ------------------------------------------------------------------ */
/* One shared paging round over the contention scheduler's call slots. */
/* ------------------------------------------------------------------ */
/* The mirror of repro.cellnet.engine's RoundState: every field is a   */
/* ptrdiff_t or a pointer to ptrdiff_t, in this order.  Each call is a */
/* slot: `stride` words of `rows` from s * stride, holding INFO_FIELDS */
/* counters, then its found cells (-1 while unfound), schedule, group  */
/* ends and participants, then scratch room for a re-page or sweep.    */
/* A strategy group's pending cells are its own stretch of the         */
/* schedule, compacted in place.                                       */
typedef struct {
    ptrdiff_t ncells, slots, max_wait, max_retries, stride, nqueue, noutages;
    ptrdiff_t *queue, *rows, *used, *closed, *outages;
    /* Scratch for what the round produces, in queue order. */
    ptrdiff_t *finds, *done, *blocked, *parked;
    /* All of it, packed: see repro_serve_round. */
    ptrdiff_t *out;
} repro_round_state;

/* A slot's counters; keep in step with the _F_* names in the engine.
 * Admission writes them all, and the rows after them, in one go. */
enum {
    F_KIND, F_PEND, F_NPEND, F_WAITED, F_NREMAIN, F_PAGED, F_ROUNDS,
    F_PHASE, F_FALLBACK, F_RETRIES, F_RETRY_AT, F_NSCHED, F_NGROUPS,
    F_NPARTS, INFO_FIELDS
};
enum { KIND_STRATEGY, KIND_RETRY, KIND_FALLBACK };

/* Serve one round at step `time` against the devices' cells `positions`.
 * Calls are served in queue order; the queue keeps the calls still in
 * setup, in order.  A call pages the pending cells of its phase in order,
 * skipping closed ones, until everyone has answered; each page takes one
 * of its cell's slots, and a cell out of slots closes for the round.  A
 * call that took no slot is deferred, and blocked past max_wait.  A spent
 * phase moves to the next strategy group; after the last one a call with
 * a retry left is handed back to be parked, else it loads the
 * network-wide sweep once, else it is done, degraded.  A call admitted
 * with an empty plan is done at once.  Pages are always delivered: a run
 * that can lose pages is served by the Python executor.
 *
 * Writes to `out`, and returns how many words it wrote: the counts nfinds,
 * ndone, nblocked, nparked, ndeferred, noccupancy and pages; the round's
 * per-cell usage folded into noccupancy (slots used, cells) pairs, in the
 * order each count first appears over the cells; nfinds (device, cell)
 * pairs; then the parked, done and blocked slots. */
ptrdiff_t repro_serve_round(repro_round_state *st, const ptrdiff_t *positions,
                            ptrdiff_t time) {
    const ptrdiff_t ncells = st->ncells, slots = st->slots;
    ptrdiff_t *used = st->used, *closed = st->closed;
    memset(used, 0, (size_t)ncells * sizeof(ptrdiff_t));
    memset(closed, 0, (size_t)ncells * sizeof(ptrdiff_t));
    for (ptrdiff_t k = 0; k < st->noutages; ++k) {
        const ptrdiff_t *outage = st->outages + 3 * k;
        if (outage[1] <= time && time < outage[2]) closed[outage[0]] = 1;
    }
    ptrdiff_t nfinds = 0, ndone = 0, nblocked = 0, nparked = 0, ndeferred = 0;
    ptrdiff_t keep = 0;
    for (ptrdiff_t q = 0; q < st->nqueue; ++q) {
        const ptrdiff_t s = st->queue[q];
        ptrdiff_t *info = st->rows + s * st->stride;
        if (info[F_NGROUPS] == 0) { st->done[ndone++] = s; continue; }
        const ptrdiff_t nparts = info[F_NPARTS];
        ptrdiff_t *found = info + INFO_FIELDS;
        const ptrdiff_t *ends = found + nparts + info[F_NSCHED];
        const ptrdiff_t *part = ends + info[F_NGROUPS];
        ptrdiff_t remain = info[F_NREMAIN], sent = 0, still = 0;
        if (remain) {
            ptrdiff_t *pend = info + info[F_PEND];
            const ptrdiff_t npend = info[F_NPEND];
            for (ptrdiff_t i = 0; i < npend && remain; ++i) {
                const ptrdiff_t cell = pend[i];
                if (closed[cell]) { pend[still++] = cell; continue; }
                if (++used[cell] >= slots) closed[cell] = 1;
                ++sent;
                for (ptrdiff_t local = 0; local < nparts; ++local) {
                    if (found[local] < 0 && positions[part[local]] == cell) {
                        found[local] = cell;
                        --remain;
                        st->finds[2 * nfinds] = part[local];
                        st->finds[2 * nfinds + 1] = cell;
                        ++nfinds;
                    }
                }
            }
            if (!sent) {
                ++ndeferred;
                if (++info[F_WAITED] > st->max_wait) st->blocked[nblocked++] = s;
                else st->queue[keep++] = s;
                continue;
            }
            info[F_NPEND] = still;
            info[F_NREMAIN] = remain;
            info[F_PAGED] += sent;
        }
        ++info[F_ROUNDS];
        if (!remain) { st->done[ndone++] = s; continue; }
        if (!still) {
            if (info[F_KIND] == KIND_STRATEGY && info[F_PHASE] + 1 < info[F_NGROUPS]) {
                const ptrdiff_t g = ++info[F_PHASE];
                info[F_PEND] = INFO_FIELDS + nparts + ends[g - 1];
                info[F_NPEND] = ends[g] - ends[g - 1];
            } else if (info[F_RETRIES] < st->max_retries) {
                st->parked[nparked++] = s;
                continue;
            } else if (!info[F_FALLBACK]) {
                const ptrdiff_t scratch = (part + nparts) - info;
                info[F_FALLBACK] = 1;
                info[F_KIND] = KIND_FALLBACK;
                info[F_PEND] = scratch;
                info[F_NPEND] = ncells;
                for (ptrdiff_t cell = 0; cell < ncells; ++cell) info[scratch + cell] = cell;
            } else {
                st->done[ndone++] = s;
                continue;
            }
        }
        st->queue[keep++] = s;
    }
    st->nqueue = keep;
    ptrdiff_t *out = st->out, *occupancy = out + 7, noccupancy = 0, pages = 0;
    for (ptrdiff_t cell = 0; cell < ncells; ++cell) {
        const ptrdiff_t u = used[cell];
        pages += u;
        ptrdiff_t k = 0;
        while (k < noccupancy && occupancy[2 * k] != u) ++k;
        if (k == noccupancy) { occupancy[2 * k] = u; occupancy[2 * k + 1] = 0; ++noccupancy; }
        ++occupancy[2 * k + 1];
    }
    out[0] = nfinds; out[1] = ndone; out[2] = nblocked; out[3] = nparked;
    out[4] = ndeferred; out[5] = noccupancy; out[6] = pages;
    ptrdiff_t n = 7 + 2 * noccupancy;
    memcpy(out + n, st->finds, (size_t)(2 * nfinds) * sizeof(ptrdiff_t));
    n += 2 * nfinds;
    memcpy(out + n, st->parked, (size_t)nparked * sizeof(ptrdiff_t));
    n += nparked;
    memcpy(out + n, st->done, (size_t)ndone * sizeof(ptrdiff_t));
    n += ndone;
    memcpy(out + n, st->blocked, (size_t)nblocked * sizeof(ptrdiff_t));
    return n + nblocked;
}
