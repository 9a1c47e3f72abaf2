/* Hot-path kernels for the METIS-style partitioner.
 *
 * Compiled on demand by repro._native with the system C compiler and
 * loaded through ctypes; every routine is an exact int64 re-statement
 * of the pure-Python oracles in tests/metis/reference_kernels.py:
 *
 *   kway_refine   one greedy K-way refinement sweep (edge-cut or
 *                 TotalVol gain) of refine.greedy_kway_refine;
 *   hem_claim     the heavy-edge matching claim loop;
 *   contract      coarsen.contract (matched pairs -> coarse graph);
 *   rb_extract    induced subgraphs of disjoint ascending vertex sets
 *                 (one set = CSRGraph.subgraph);
 *   rb_initial    greedy graph growing (initial.greedy_graph_growing);
 *   rb_refine     refine._rebalance_bisection + the FM pass loop
 *                 (refine.fm_refine_bisection);
 *   rb_partition  all of bisection.recursive_bisection: per recursion
 *                 depth, subgraph extraction, HEM coarsening rounds,
 *                 greedy graph growing, FM refinement, uncoarsening
 *                 and the left/right split, random streams included;
 *   rb_bisect     bisection.multilevel_bisection, one level of the
 *                 same driver with one group;
 *   rng_seed, rng_permutations, rng_integers  batches of the drivers'
 *                 random streams, each drawing exactly what NumPy's
 *                 default_rng(seed) draws (metis/rng.py);
 *   json_int_array  the JSON text of an int64 array (the response
 *                 bodies' assignment and gid lists);
 *   json_int_arrays  the int arrays of a JSON text (the request
 *                 bodies' old assignments), parsed in one pass;
 *   part_metrics  an assignment's Table-2 quantities in one pass over
 *                 a CSR or a mesh's neighbour table;
 *   transport_rhs the SEAM core's transport right-hand side, the
 *                 derivative GEMMs summed as BLAS sums them (in FMA
 *                 chains; see its comment);
 *   rk3_stage, dss_apply, pdss_gather, pdss_exchange, pdss_scatter
 *                 the SEAM core's SSP-RK3 stage combination and its
 *                 serial and partitioned DSS projections.
 *
 * The METIS kernels return -1 on allocation failure and -3 when a
 * gain bound exceeds the caller's max_bound (rb_partition's further
 * codes are listed with it); the caller raises (repro._native.check).
 *
 * Bit-identity contract: the Python oracles drain a lazy max-priority
 * queue whose keys (-gain, insertion counter) are unique, so the pop
 * order is exactly "highest gain first, FIFO within a gain value".
 * The linked-list bucket queues below reproduce that order verbatim;
 * kway_refine has no queue and visits vertices in the caller's
 * order.  All arithmetic is int64, matching Python's exact integers
 * on every value these algorithms can produce.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* malloc that never returns NULL for a zero-length request. */
static void *xmalloc(int64_t count, size_t size)
{
    return malloc((size_t)(count > 0 ? count : 1) * size);
}

typedef struct {
    int64_t n;
    const int64_t *indptr;
    const int64_t *indices;
    const int64_t *eweights;
    const int64_t *vweights;
} csr_t;

/* Largest total edge weight incident to one vertex (0 if n == 0). */
static int64_t max_incident(const csr_t *g)
{
    int64_t bound = 0;
    for (int64_t v = 0; v < g->n; v++) {
        int64_t s = 0;
        for (int64_t i = g->indptr[v]; i < g->indptr[v + 1]; i++)
            s += g->eweights[i];
        if (s > bound) bound = s;
    }
    return bound;
}

/* ------------------------------------------------------------------ */
/* FM bisection refinement                                             */
/* ------------------------------------------------------------------ */

/* refine._rebalance_bisection: while a side is over its cap, move the
 * vertex of that side with the largest FM gain (first in index order
 * on ties) among those that fit under the other side's cap.  `gain`
 * is n-entry scratch; gains are kept current incrementally, which is
 * exactly the Python loop's per-move recomputation. */
static void rebalance_bisection(
    const csr_t *g, int64_t *side, const int64_t caps[2], int64_t w[2],
    int64_t *gain)
{
    const int64_t *indptr = g->indptr, *indices = g->indices;
    const int64_t *eweights = g->eweights, *vweights = g->vweights;
    for (int64_t v = 0; v < g->n; v++) {
        int64_t s = 0;
        for (int64_t i = indptr[v]; i < indptr[v + 1]; i++)
            s += (side[indices[i]] != side[v]) ? eweights[i] : -eweights[i];
        gain[v] = s;
    }
    for (;;) {
        int64_t over = w[0] > caps[0] ? 0 : (w[1] > caps[1] ? 1 : -1);
        if (over < 0) return;
        int64_t other = 1 - over;
        int64_t room = caps[other] - w[other];
        int64_t best = -1;
        for (int64_t v = 0; v < g->n; v++)
            if (side[v] == over && vweights[v] <= room &&
                (best < 0 || gain[v] > gain[best]))
                best = v;
        if (best < 0) return;
        side[best] = other;
        w[over] -= vweights[best];
        w[other] += vweights[best];
        int64_t s = 0;
        for (int64_t i = indptr[best]; i < indptr[best + 1]; i++) {
            int64_t u = indices[i];
            int64_t wt = eweights[i];
            s += (side[u] != other) ? wt : -wt;
            if (u == best) continue;
            /* Edge u-best flips between internal and external. */
            gain[u] += (side[u] == over) ? 2 * wt : -2 * wt;
        }
        gain[best] = s;
    }
}

/* The FM pass loop of fm_refine_bisection (after rebalancing and the
 * edgeless early exit); `side` is updated in place. */
static void fm_passes(
    const csr_t *g, int64_t *side,
    int64_t cap0, int64_t cap1, int64_t pcap0, int64_t pcap1,
    int64_t max_passes, int64_t bound, int64_t w0, int64_t w1,
    int64_t *gain, int64_t *head, int64_t *tail,
    int64_t *ev, int64_t *enext, int64_t *moves)
{
    const int64_t n = g->n;
    const int64_t *indptr = g->indptr, *indices = g->indices;
    const int64_t *eweights = g->eweights, *vweights = g->vweights;
    int64_t nbuckets = 2 * bound + 1;
    int64_t locked_mark = bound + 1;

    for (int64_t pass = 0; pass < max_passes; pass++) {
        /* Seed gains and the bucket queue (ascending vertex order =
         * the FIFO insertion order of the Python seeding). */
        memset(head, 0xff, (size_t)nbuckets * sizeof(int64_t));
        int64_t nentries = 0;
        int64_t pending = 0;
        int64_t maxg = -bound;
        for (int64_t v = 0; v < n; v++) {
            int64_t sv = side[v];
            int64_t gv = 0;
            for (int64_t i = indptr[v]; i < indptr[v + 1]; i++)
                gv += (side[indices[i]] != sv) ? eweights[i] : -eweights[i];
            gain[v] = gv;
            int64_t gi = gv + bound;
            int64_t e = nentries++;
            ev[e] = v;
            enext[e] = -1;
            if (head[gi] < 0) head[gi] = e; else enext[tail[gi]] = e;
            tail[gi] = e;
            if (gv > maxg) maxg = gv;
            pending++;
        }

        int64_t nmoves = 0, cum = 0, best_cum = 0, best_len = 0;
        while (pending) {
            while (head[maxg + bound] < 0) maxg--;
            int64_t e = head[maxg + bound];
            head[maxg + bound] = enext[e];
            pending--;
            int64_t v = ev[e];
            if (gain[v] != maxg) continue; /* stale entry */
            int64_t frm = side[v];
            int64_t vw = vweights[v];
            if (frm == 0) {
                if (w1 + vw > pcap1) continue;
                w0 -= vw; w1 += vw;
            } else {
                if (w0 + vw > pcap0) continue;
                w1 -= vw; w0 += vw;
            }
            gain[v] = locked_mark;
            side[v] = 1 - frm;
            cum += maxg;
            moves[nmoves++] = v;
            if (cum > best_cum && w0 <= cap0 && w1 <= cap1) {
                best_cum = cum;
                best_len = nmoves;
            }
            for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) {
                int64_t u = indices[i];
                int64_t gu = gain[u];
                if (gu > bound) continue; /* locked */
                int64_t w = eweights[i];
                /* Edge u-v flips between internal and external. */
                gu += (side[u] == frm) ? 2 * w : -2 * w;
                gain[u] = gu;
                int64_t gi = gu + bound;
                int64_t e2 = nentries++;
                ev[e2] = u;
                enext[e2] = -1;
                if (head[gi] < 0) head[gi] = e2; else enext[tail[gi]] = e2;
                tail[gi] = e2;
                if (gu > maxg) maxg = gu;
                pending++;
            }
        }
        /* Roll back past the best feasible prefix. */
        for (int64_t i = nmoves - 1; i >= best_len; i--) {
            int64_t v = moves[i];
            int64_t to = 1 - side[v];
            int64_t vw = vweights[v];
            side[v] = to;
            if (to == 0) { w1 -= vw; w0 += vw; } else { w0 -= vw; w1 += vw; }
        }
        if (best_cum <= 0) break;
    }
}

/* All of fm_refine_bisection: weights, rebalance, edgeless exit, one
 * atom of pass slack, FM passes.  The bound check and every
 * allocation come before `side` is touched, so a failed call leaves
 * it as it was.  Returns 0, -1 (allocation) or -3 (bound). */
static int64_t bisect_refine(
    const csr_t *g, int64_t *side, int64_t cap0, int64_t cap1,
    int64_t max_passes, int64_t max_bound)
{
    const int64_t n = g->n;
    int64_t m2 = g->indptr[n];
    int64_t bound = max_incident(g);
    if (bound > max_bound) return -3;
    int64_t total = 0, w1 = 0, maxvw = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t vw = g->vweights[v];
        total += vw;
        w1 += side[v] * vw;
        if (vw > maxvw) maxvw = vw;
    }
    int64_t nbuckets = 2 * bound + 1;
    int64_t cap_entries = n + m2 + 1;
    int64_t *gain = xmalloc(n, sizeof(int64_t));
    int64_t *head = xmalloc(nbuckets, sizeof(int64_t));
    int64_t *tail = xmalloc(nbuckets, sizeof(int64_t));
    int64_t *ev = xmalloc(cap_entries, sizeof(int64_t));
    int64_t *enext = xmalloc(cap_entries, sizeof(int64_t));
    int64_t *moves = xmalloc(n, sizeof(int64_t));
    int64_t rc = -1;
    if (gain && head && tail && ev && enext && moves) {
        int64_t caps[2] = {cap0, cap1};
        int64_t w[2] = {total - w1, w1};
        if (w[0] > cap0 || w[1] > cap1)
            rebalance_bisection(g, side, caps, w, gain);
        /* Edgeless: every gain is 0 and a pass rolls everything back. */
        if (m2)
            fm_passes(g, side, cap0, cap1, cap0 + maxvw, cap1 + maxvw,
                      max_passes, bound, w[0], w[1],
                      gain, head, tail, ev, enext, moves);
        rc = 0;
    }
    free(gain); free(head); free(tail); free(ev); free(enext); free(moves);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Greedy K-way refinement                                             */
/* ------------------------------------------------------------------ */

/* TotalVol census of boundary vertex v: returns the destination-free
 * part of the gain (before_v - after_v plus the parts of frm that
 * moving v erases at its neighbors) and writes into pen[k] how many
 * neighbors the move to cand[k] introduces cand[k] at.  `cnt` must be
 * all zero on entry and is left so. */
static int64_t kway_volume_census(
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *assign,
    int64_t v,
    int64_t frm,
    int64_t has_frm,
    const int64_t *cand,
    int64_t ncand,
    int64_t *pen,
    int64_t *cnt)
{
    /* Every candidate is adjacent to v, so after_v = ncand - 1
     * whatever the destination. */
    int64_t base = (ncand - has_frm) - (ncand - 1);
    for (int64_t k = 0; k < ncand; k++) pen[k] = 0;
    for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) {
        int64_t u = indices[i];
        int64_t pu = assign[u];
        for (int64_t j = indptr[u]; j < indptr[u + 1]; j++)
            cnt[assign[indices[j]]]++;
        if (frm != pu && cnt[frm] == 1) base++;
        for (int64_t k = 0; k < ncand; k++)
            if (cand[k] != pu && cnt[cand[k]] == 0) pen[k]++;
        for (int64_t j = indptr[u]; j < indptr[u + 1]; j++)
            cnt[assign[indices[j]]] = 0;
    }
    return base;
}

/* One sweep of greedy_kway_refine's pass loop, visiting vertices in
 * the order `perm` (drawn by the caller, one permutation per pass).
 * `assign` and `pweights` are updated in place; `npw` is the length
 * of `pweights`, which covers every part id in `assign` (it may
 * exceed nparts).  `volume` selects the TotalVol gain instead of the
 * edge-cut gain.
 *
 * Candidates are the distinct parts adjacent to v in order of first
 * appearance in its adjacency slice (the Python dict's insertion
 * order), tie-broken by connectivity, and accepted under the same
 * three rules: strict gain, any gain under hard overflow, zero gain
 * that drains a part above ideal_cap.  The volume gain is the same
 * two-hop census as the oracle's _VolumeGainKernel, evaluated for every candidate
 * in one sweep over the census.
 *
 * Returns the number of accepted moves, or -1 on allocation failure
 * (before anything is modified).
 */
int64_t kway_refine(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *vweights,
    const int64_t *perm,
    int64_t *assign,
    int64_t *pweights,
    int64_t npw,
    int64_t cap,
    int64_t ideal_cap,
    int64_t volume)
{
    /* conn[p]: connectivity of v to part p; slot[p]: p's index in
     * cand (-1 if not adjacent); pen[k]: census penalty of cand[k];
     * cnt: the census scratch of kway_volume_census. */
    size_t sz = (size_t)(npw > 0 ? npw : 1) * sizeof(int64_t);
    int64_t *conn = malloc(sz);
    int64_t *slot = malloc(sz);
    int64_t *cand = malloc(sz);
    int64_t *pen = malloc(sz);
    int64_t *cnt = calloc(1, sz);
    if (!conn || !slot || !cand || !pen || !cnt) {
        free(conn); free(slot); free(cand); free(pen); free(cnt);
        return -1;
    }
    memset(slot, 0xff, sz);
    int64_t nmoves = 0;

    for (int64_t t = 0; t < n; t++) {
        int64_t v = perm[t];
        int64_t frm = assign[v];
        int64_t vw = vweights[v];
        int64_t ncand = 0;
        for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) {
            int64_t p = assign[indices[i]];
            if (slot[p] < 0) {
                slot[p] = ncand;
                cand[ncand++] = p;
                conn[p] = 0;
            }
            conn[p] += eweights[i];
        }
        int64_t has_frm = slot[frm] >= 0;
        int64_t best_to = -1, best_gain = 0, best_conn = -1;
        /* Interior (or isolated) vertices have no other part. */
        if (ncand > has_frm) {
            int64_t internal = has_frm ? conn[frm] : 0;
            int64_t vbase = volume ? kway_volume_census(
                indptr, indices, assign, v, frm, has_frm,
                cand, ncand, pen, cnt) : 0;
            for (int64_t k = 0; k < ncand; k++) {
                int64_t p = cand[k];
                if (p == frm || pweights[p] + vw > cap) continue;
                int64_t c = conn[p];
                int64_t gain = volume ? vbase - pen[k] : c - internal;
                if (best_to < 0 || gain > best_gain ||
                    (gain == best_gain && c > best_conn)) {
                    best_to = p;
                    best_gain = gain;
                    best_conn = c;
                }
            }
        }
        for (int64_t k = 0; k < ncand; k++) slot[cand[k]] = -1;
        if (best_to >= 0 && (
                best_gain > 0 ||
                pweights[frm] > cap || /* hard overflow: any gain */
                (best_gain == 0 && pweights[frm] > ideal_cap &&
                 ideal_cap >= pweights[best_to] + vw))) {
            assign[v] = best_to;
            pweights[frm] -= vw;
            pweights[best_to] += vw;
            nmoves++;
        }
    }

    free(conn); free(slot); free(cand); free(pen); free(cnt);
    return nmoves;
}

/* ------------------------------------------------------------------ */
/* Heavy-edge matching claim loop                                      */
/* ------------------------------------------------------------------ */

/* Sequential HEM claims in the given visit order: each unmatched
 * vertex claims its heaviest unmatched neighbor (first in adjacency
 * order on ties).  `matched` is n bytes of scratch. */
static void hem_core(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *order,
    int64_t *match,
    uint8_t *matched)
{
    memset(matched, 0, (size_t)n);
    for (int64_t v = 0; v < n; v++) match[v] = v;
    for (int64_t t = 0; t < n; t++) {
        int64_t v = order[t];
        if (matched[v]) continue;
        int64_t best_w = -1, best_u = -1;
        for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) {
            int64_t u = indices[i];
            if (!matched[u] && eweights[i] > best_w) {
                best_w = eweights[i];
                best_u = u;
            }
        }
        if (best_u >= 0) {
            match[v] = best_u;
            match[best_u] = v;
            matched[v] = 1;
            matched[best_u] = 1;
        }
    }
}

/* heavy_edge_matching's claim loop.  Returns 0, or -1 on allocation
 * failure. */
int64_t hem_claim(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *order,
    int64_t *match)
{
    uint8_t *matched = xmalloc(n, 1);
    if (!matched) return -1;
    hem_core(n, indptr, indices, eweights, order, match, matched);
    free(matched);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Contraction                                                         */
/* ------------------------------------------------------------------ */

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

static void sort_i64(int64_t *a, int64_t len)
{
    if (len > 16) {
        qsort(a, (size_t)len, sizeof(int64_t), cmp_i64);
        return;
    }
    for (int64_t i = 1; i < len; i++) {
        int64_t x = a[i], j = i - 1;
        while (j >= 0 && a[j] > x) { a[j + 1] = a[j]; j--; }
        a[j + 1] = x;
    }
}

/* Scratch of contract_core, five n-entry int64 arrays. */
#define CONTRACT_SCRATCH 5

/* coarsen.contract: coarse vertices are the distinct values of
 * min(v, match[v]) in ascending order (np.unique's numbering); a
 * coarse vertex weighs the sum of its members; each coarse row lists
 * its distinct coarse neighbors in ascending order with summed edge
 * weights, edges inside a coarse vertex dropped.  `match` must hold
 * ids in [0, n).  Writes f2c (n) and the coarse CSR (out_indptr gets
 * nc + 1 entries); returns nc. */
static int64_t contract_core(
    const csr_t *g, const int64_t *match, int64_t *f2c,
    int64_t *out_indptr, int64_t *out_indices, int64_t *out_eweights,
    int64_t *out_vweights, int64_t *scratch)
{
    const int64_t n = g->n;
    int64_t *rank = scratch, *cstart = scratch + n, *memb = scratch + 2 * n;
    int64_t *acc = scratch + 3 * n, *stamp = scratch + 4 * n;
    for (int64_t v = 0; v < n; v++) rank[v] = 0;
    for (int64_t v = 0; v < n; v++) rank[match[v] < v ? match[v] : v] = 1;
    int64_t nc = 0;
    for (int64_t r = 0; r < n; r++) rank[r] = rank[r] ? nc++ : -1;
    for (int64_t v = 0; v < n; v++) f2c[v] = rank[match[v] < v ? match[v] : v];
    /* Members of each coarse vertex in ascending fine order (counting
     * sort; rank is reused as the fill cursor). */
    for (int64_t c = 0; c < nc; c++) {
        rank[c] = 0;
        out_vweights[c] = 0;
        stamp[c] = -1;
    }
    for (int64_t v = 0; v < n; v++) {
        rank[f2c[v]]++;
        out_vweights[f2c[v]] += g->vweights[v];
    }
    int64_t s = 0;
    for (int64_t c = 0; c < nc; c++) {
        cstart[c] = s;
        s += rank[c];
        rank[c] = cstart[c];
    }
    for (int64_t v = 0; v < n; v++) memb[rank[f2c[v]]++] = v;
    int64_t nnz = 0;
    out_indptr[0] = 0;
    for (int64_t c = 0; c < nc; c++) {
        int64_t row = nnz;
        int64_t end = c + 1 < nc ? cstart[c + 1] : n;
        for (int64_t j = cstart[c]; j < end; j++) {
            int64_t v = memb[j];
            for (int64_t i = g->indptr[v]; i < g->indptr[v + 1]; i++) {
                int64_t d = f2c[g->indices[i]];
                if (d == c) continue;
                if (stamp[d] != c) {
                    stamp[d] = c;
                    acc[d] = g->eweights[i];
                    out_indices[nnz++] = d;
                } else {
                    acc[d] += g->eweights[i];
                }
            }
        }
        sort_i64(out_indices + row, nnz - row);
        for (int64_t j = row; j < nnz; j++) out_eweights[j] = acc[out_indices[j]];
        out_indptr[c + 1] = nnz;
    }
    return nc;
}

/* coarsen.contract.  Returns nc (the coarse CSR has out_indptr[nc]
 * edges), or -1 on allocation failure. */
int64_t contract(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *vweights,
    const int64_t *match,
    int64_t *f2c,
    int64_t *out_indptr,
    int64_t *out_indices,
    int64_t *out_eweights,
    int64_t *out_vweights)
{
    csr_t g = {n, indptr, indices, eweights, vweights};
    int64_t *scratch = xmalloc(CONTRACT_SCRATCH * n, sizeof(int64_t));
    if (!scratch) return -1;
    int64_t nc = contract_core(&g, match, f2c, out_indptr, out_indices,
                               out_eweights, out_vweights, scratch);
    free(scratch);
    return nc;
}

/* ------------------------------------------------------------------ */
/* Induced subgraph extraction                                         */
/* ------------------------------------------------------------------ */

/* Induced subgraphs of k disjoint vertex sets of the parent graph,
 * ids[gv[g]:gv[g+1]] for set g, each strictly ascending (so local ids
 * are monotone in parent ids and each output row keeps the parent's
 * order — the arrays of the lexsort-based CSRGraph.subgraph).
 *
 * Output: a disjoint union in flat buffers.  Graph g's vertices sit
 * at gv[g] (out_vweights), its n_g + 1 indptr entries at gv[g] + g
 * (starting from 0), its edges at out_ge[g] (local neighbor ids);
 * out_ge gets k + 1 entries.  out_stats[3g:3g+3] = [max incident
 * weight, total vertex weight, max vertex weight].  Returns the total
 * edge count, -1 on allocation failure, -2 if a set is not strictly
 * ascending, leaves [0, n_parent) or meets another set.
 */
int64_t rb_extract(
    int64_t n_parent,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *vweights,
    const int64_t *ids,
    const int64_t *gv,
    int64_t k,
    int64_t *out_indptr,
    int64_t *out_indices,
    int64_t *out_eweights,
    int64_t *out_vweights,
    int64_t *out_ge,
    int64_t *out_stats)
{
    for (int64_t g = 0; g < k; g++)
        for (int64_t i = gv[g]; i < gv[g + 1]; i++)
            if (ids[i] < 0 || ids[i] >= n_parent ||
                (i > gv[g] && ids[i] <= ids[i - 1]))
                return -2;
    /* local[x]: position of parent vertex x in ids, or -1. */
    int64_t *local = xmalloc(n_parent, sizeof(int64_t));
    if (!local) return -1;
    memset(local, 0xff, (size_t)n_parent * sizeof(int64_t));
    for (int64_t i = 0; i < gv[k]; i++) {
        if (local[ids[i]] >= 0) { free(local); return -2; }
        local[ids[i]] = i;
    }
    int64_t nnz = 0;
    for (int64_t g = 0; g < k; g++) {
        int64_t lo = gv[g], hi = gv[g + 1], e0 = nnz;
        int64_t *ip = out_indptr + lo + g;
        int64_t maxinc = 0, max_vw = 0;
        uint64_t total_vw = 0;  /* wraps as NumPy's int64 sum does */
        out_ge[g] = nnz;
        ip[0] = 0;
        for (int64_t i = lo; i < hi; i++) {
            int64_t x = ids[i];
            int64_t inc = 0;
            for (int64_t j = indptr[x]; j < indptr[x + 1]; j++) {
                int64_t li = local[indices[j]];
                if (li >= lo && li < hi) {
                    out_indices[nnz] = li - lo;
                    out_eweights[nnz] = eweights[j];
                    inc += eweights[j];
                    nnz++;
                }
            }
            if (inc > maxinc) maxinc = inc;
            ip[i - lo + 1] = nnz - e0;
            int64_t vw = vweights[x];
            out_vweights[i] = vw;
            total_vw += (uint64_t)vw;
            if (vw > max_vw) max_vw = vw;
        }
        out_stats[3 * g] = maxinc;
        out_stats[3 * g + 1] = (int64_t)total_vw;
        out_stats[3 * g + 2] = max_vw;
    }
    out_ge[k] = nnz;
    free(local);
    return nnz;
}

/* ------------------------------------------------------------------ */
/* Coarsening rounds                                                   */
/* ------------------------------------------------------------------ */

/* One level of a group's coarsening hierarchy, in one allocation
 * (block): the coarse graph, the map from the finer level's vertices
 * to its vertices, and its bisection side. */
typedef struct {
    csr_t g;
    int64_t *f2c;
    int64_t *side;
    int64_t *block;
} level_t;

/* One round of coarsen.coarsen_to on `fine`: the visit order is perm
 * (a permutation of fine's vertices) stably sorted by degree
 * (heavy_edge_matching's SHEM order), then the HEM claims and the
 * contraction into a freshly allocated level.  Scratch: order, match
 * and matched hold n entries, cnt one more than the largest degree,
 * contract CONTRACT_SCRATCH * n.  Returns the coarse vertex count, or
 * -1 on allocation failure (nothing allocated). */
static int64_t coarsen_round(
    const csr_t *fine, const int64_t *perm, int64_t *order, int64_t *match,
    uint8_t *matched, int64_t *cnt, int64_t *contract, level_t *out)
{
    const int64_t n = fine->n, nnz = fine->indptr[n];
    const int64_t *indptr = fine->indptr;
    int64_t *b = xmalloc(n + 1 + 2 * nnz + 3 * n, sizeof(int64_t));
    if (!b) return -1;
    int64_t *ip = b, *ix = b + n + 1, *ew = ix + nnz, *vw = ew + nnz;
    out->f2c = vw + n;
    out->side = out->f2c + n;
    out->block = b;
    /* Stable counting sort of the permutation by degree. */
    int64_t maxdeg = 0;
    for (int64_t v = 0; v < n; v++)
        if (indptr[v + 1] - indptr[v] > maxdeg) maxdeg = indptr[v + 1] - indptr[v];
    memset(cnt, 0, (size_t)(maxdeg + 1) * sizeof(int64_t));
    for (int64_t t = 0; t < n; t++)
        cnt[indptr[perm[t] + 1] - indptr[perm[t]]]++;
    int64_t s = 0;
    for (int64_t d = 0; d <= maxdeg; d++) {
        int64_t c = cnt[d];
        cnt[d] = s;
        s += c;
    }
    for (int64_t t = 0; t < n; t++)
        order[cnt[indptr[perm[t] + 1] - indptr[perm[t]]]++] = perm[t];
    hem_core(n, indptr, fine->indices, fine->eweights, order, match, matched);
    int64_t nc = contract_core(fine, match, out->f2c, ip, ix, ew, vw, contract);
    csr_t g = {nc, ip, ix, ew, vw};
    out->g = g;
    return nc;
}

/* ------------------------------------------------------------------ */
/* Greedy graph growing (GGGP)                                         */
/* ------------------------------------------------------------------ */

/* BFS levels from `source` (no mask); `level` must hold n entries. */
static void bfs_levels(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    int64_t source,
    int64_t *level,
    int64_t *queue)
{
    for (int64_t i = 0; i < n; i++) level[i] = -1;
    level[source] = 0;
    queue[0] = source;
    int64_t qh = 0, qt = 1;
    while (qh < qt) {
        int64_t v = queue[qh++];
        int64_t lv = level[v] + 1;
        for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) {
            int64_t u = indices[i];
            if (level[u] < 0) {
                level[u] = lv;
                queue[qt++] = u;
            }
        }
    }
}

/* George-Liu pseudo-peripheral vertex, starting from vertex 0. */
static int64_t pseudo_peripheral(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    int64_t *level,
    int64_t *queue)
{
    int64_t current = 0;
    int64_t ecc = -1;
    for (;;) {
        bfs_levels(n, indptr, indices, current, level, queue);
        int64_t far = level[0];
        for (int64_t i = 1; i < n; i++)
            if (level[i] > far) far = level[i];
        if (far <= ecc) return current;
        ecc = far;
        for (int64_t i = 0; i < n; i++)
            if (level[i] == far) { current = i; break; }
    }
}

/* One bucket-queue growth trial; mirrors _grow_trial_buckets.  Returns
 * the growth cut and writes the side assignment (0 = grown side).
 */
static int64_t ggg_grow_one(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *vweights,
    const int64_t *total_w,
    int64_t start,
    int64_t target_left,
    int64_t bound,
    int64_t *side,
    int64_t *gain_cache,
    uint8_t *frontier_seen,
    int64_t *head,
    int64_t *tail,
    int64_t *ev,
    int64_t *enext)
{
    int64_t nbuckets = 2 * bound + 1;
    int64_t sent = bound + 1;
    for (int64_t i = 0; i < n; i++) side[i] = 1;
    memset(gain_cache, 0, (size_t)n * sizeof(int64_t));
    memset(frontier_seen, 0, (size_t)n);
    memset(head, 0xff, (size_t)nbuckets * sizeof(int64_t));
    int64_t weight_left = 0;
    int64_t cut = 0;
    int64_t g0 = -total_w[start];
    gain_cache[start] = g0;
    frontier_seen[start] = 1;
    int64_t nentries = 0;
    ev[0] = start;
    enext[0] = -1;
    head[g0 + bound] = 0;
    tail[g0 + bound] = 0;
    nentries = 1;
    int64_t pending = 1;
    int64_t maxg = g0;
    while (weight_left < target_left) {
        int64_t v = -1;
        while (pending) {
            while (head[maxg + bound] < 0) maxg--;
            int64_t e = head[maxg + bound];
            head[maxg + bound] = enext[e];
            pending--;
            int64_t u = ev[e];
            if (gain_cache[u] == maxg) { v = u; break; }
        }
        if (v < 0) {
            /* Queue exhausted (component done): jump to the first
             * unabsorbed vertex. */
            for (int64_t u = 0; u < n; u++)
                if (gain_cache[u] <= bound) { v = u; break; }
            if (v < 0) break;
            if (!frontier_seen[v]) {
                /* No absorbed neighbors: absorbing adds its whole
                 * incident weight to the cut. */
                gain_cache[v] = -total_w[v];
            }
        }
        side[v] = 0;
        weight_left += vweights[v];
        cut -= gain_cache[v];
        gain_cache[v] = sent;
        for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) {
            int64_t u = indices[i];
            int64_t g = gain_cache[u];
            if (g > bound) continue;
            if (!frontier_seen[u]) {
                g = -total_w[u];
                frontier_seen[u] = 1;
            }
            g += 2 * eweights[i];
            gain_cache[u] = g;
            int64_t gi = g + bound;
            int64_t e2 = nentries++;
            ev[e2] = u;
            enext[e2] = -1;
            if (head[gi] < 0) head[gi] = e2; else enext[tail[gi]] = e2;
            tail[gi] = e2;
            if (g > maxg) maxg = g;
            pending++;
        }
    }
    return cut;
}

/* Full GGGP: ntrials growths (starts[t] < 0 means "pseudo-peripheral
 * from vertex 0"), best (lowest, first-wins) cut kept in best_side.
 * Returns 0, -1 (allocation) or -3 (bound above max_bound), in the
 * last two cases before writing best_side.
 */
static int64_t ggg_one(
    const csr_t *gr,
    const int64_t *starts,
    int64_t ntrials,
    int64_t target_left,
    int64_t max_bound,
    int64_t *best_side)
{
    const int64_t n = gr->n;
    const int64_t *indptr = gr->indptr, *indices = gr->indices;
    if (n == 0) return 0;
    int64_t *total_w = xmalloc(n, sizeof(int64_t));
    if (!total_w) return -1;
    int64_t bound = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t s = 0;
        for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) s += gr->eweights[i];
        total_w[v] = s;
        if (s > bound) bound = s;
    }
    if (bound > max_bound) {
        free(total_w);
        return -3;
    }
    int64_t nbuckets = 2 * bound + 1;
    int64_t cap_entries = indptr[n] + 2;
    int64_t *side = xmalloc(n, sizeof(int64_t));
    int64_t *gain_cache = xmalloc(n, sizeof(int64_t));
    uint8_t *frontier_seen = xmalloc(n, 1);
    int64_t *head = xmalloc(nbuckets, sizeof(int64_t));
    int64_t *tail = xmalloc(nbuckets, sizeof(int64_t));
    int64_t *ev = xmalloc(cap_entries, sizeof(int64_t));
    int64_t *enext = xmalloc(cap_entries, sizeof(int64_t));
    int64_t rc = -1;
    /* level/queue scratch for the pseudo-peripheral BFS reuses
     * gain_cache/side before the trials start. */
    if (side && gain_cache && frontier_seen && head && tail && ev && enext) {
        int64_t best_cut = 0;
        int has_best = 0;
        for (int64_t t = 0; t < ntrials; t++) {
            int64_t start = starts[t];
            if (start < 0)
                start = pseudo_peripheral(n, indptr, indices, gain_cache, side);
            int64_t cut = ggg_grow_one(
                n, indptr, indices, gr->eweights, gr->vweights, total_w,
                start, target_left, bound,
                side, gain_cache, frontier_seen, head, tail, ev, enext);
            if (!has_best || cut < best_cut) {
                has_best = 1;
                best_cut = cut;
                memcpy(best_side, side, (size_t)n * sizeof(int64_t));
            }
        }
        rc = 0;
    }
    free(total_w); free(side); free(gain_cache); free(frontier_seen);
    free(head); free(tail); free(ev); free(enext);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Single-graph bisection stages                                       */
/* ------------------------------------------------------------------ */

/* greedy_graph_growing: ntrials growths of side 0 toward target_left
 * (starts[t] < 0: from a pseudo-peripheral vertex), the lowest cut's
 * sides into side.  Returns 0, -1 or -3. */
int64_t rb_initial(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *vweights,
    int64_t target_left,
    const int64_t *starts,
    int64_t ntrials,
    int64_t max_bound,
    int64_t *side)
{
    csr_t g = {n, indptr, indices, eweights, vweights};
    return ggg_one(&g, starts, ntrials, target_left, max_bound, side);
}

/* fm_refine_bisection: rebalance, then FM passes, of side in place
 * under the caps cap0 / cap1.  Returns 0, -1 or -3. */
int64_t rb_refine(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *vweights,
    int64_t *side,
    int64_t cap0,
    int64_t cap1,
    int64_t max_passes,
    int64_t max_bound)
{
    csr_t g = {n, indptr, indices, eweights, vweights};
    return bisect_refine(&g, side, cap0, cap1, max_passes, max_bound);
}

/* ------------------------------------------------------------------ */
/* SSP-RK3 stage combination (SEAM)                                    */
/* ------------------------------------------------------------------ */

/* Returned for a stage outside 0..3 (repro._native.check). */
#define RK3_BAD_STAGE -8

/* Stage `stage` of the SSP-RK3 step from q (the step's start), qk (the
 * previous stage; stage 1 ignores it) and r (the tendency at qk):
 *
 *   0  q
 *   1  q + dt r
 *   2  0.75 q + 0.25 (qk + dt r)
 *   3  q / 3 + 2/3 (qk + dt r)
 *
 * in NumPy's op order for the same expressions: q / 3.0 is a true
 * division and 2.0 / 3.0 the folded constant, and -ffp-contract=off
 * keeps every multiply and add separately rounded. */
static inline double rk3_combine(
    int64_t stage, double dt, double q, double qk, double r)
{
    switch (stage) {
    case 1: return q + dt * r;
    case 2: return 0.75 * q + 0.25 * (qk + dt * r);
    case 3: return q / 3.0 + 2.0 / 3.0 * (qk + dt * r);
    default: return q;
    }
}

/* One loop per stage, so the stage's formula is resolved outside it. */
static inline void rk3_loop(
    int64_t stage, int64_t n, double dt,
    const double *q, const double *qk, const double *r, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = rk3_combine(stage, dt, q[i], qk[i], r[i]);
}

/* out = stage `stage` of (q, qk, r), n values; out may alias qk or r
 * (each value is read before it is written).  Returns 0, or
 * RK3_BAD_STAGE. */
int64_t rk3_stage(
    int64_t n, int64_t stage, double dt,
    const double *q, const double *qk, const double *r, double *out)
{
    switch (stage) {
    case 0: rk3_loop(0, n, dt, q, qk, r, out); break;
    case 1: rk3_loop(1, n, dt, q, qk, r, out); break;
    case 2: rk3_loop(2, n, dt, q, qk, r, out); break;
    case 3: rk3_loop(3, n, dt, q, qk, r, out); break;
    default: return RK3_BAD_STAGE;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Direct stiffness summation (SEAM)                                   */
/* ------------------------------------------------------------------ */

/* Fused DSS projection, compacted to the element-boundary points.
 *
 * Interior GLL points (multiplicity 1) are fixed points of the
 * projection up to one rounding (num/mass == field), so the kernel
 * copies the field through and only runs the average over the nb
 * element-local copies of shared points.  Copies are stored
 * segment-major — sorted by boundary point, original (ascending
 * element-local) order preserved inside each segment — so the
 * weighted sum per point accumulates in registers instead of
 * scattering into memory:
 *
 *   bidx[j]   flat element-local index of boundary copy j
 *   seg[p]    start of point p's copies in bidx/bmass (seg[nbpoints]=nb)
 *   bmass[j]  J-weighted quadrature mass at copy j
 *   inv_bgmass[p]  reciprocal of the summed mass of boundary point p
 *
 * field/out are (n, ncomp) C-order; num is caller scratch of size
 * nbpoints * ncomp.  When out == field the projection runs in place
 * and the passthrough copy is skipped.
 *
 * The constant geometry of the operator arrives as a 7-slot "plan"
 * (built once per DSSOperator) so the per-call ctypes marshalling is
 * 5 arguments instead of 11 — this call sits on the RK3 hot path at
 * ~10us total, where argument conversion is a measurable cost:
 *
 *   plan[0] n         total element-local points
 *   plan[1] nb        boundary copies
 *   plan[2] nbpoints  distinct boundary points
 *   plan[3] bidx      (const int64_t *)
 *   plan[4] seg       (const int64_t *), nbpoints + 1 offsets
 *   plan[5] bmass     (const double *)
 *   plan[6] inv_bgmass (const double *)
 *
 * Bit-identity contract with the NumPy oracle in tests/seam:
 * each point's contributions accumulate in ascending element-local
 * order (the same per-point order as weighted np.bincount over the
 * segment-major id array), the average is a multiply by the
 * reciprocal mass, and the library is compiled with -ffp-contract=off
 * so the mul/add pair is never fused into an FMA the oracle would
 * not perform.
 */
int64_t dss_apply(
    const int64_t *plan, int64_t ncomp,
    const double *field, double *num, double *out)
{
    const int64_t n = plan[0], nbpoints = plan[2];
    const int64_t *bidx = (const int64_t *)plan[3];
    const int64_t *seg = (const int64_t *)plan[4];
    const double *bmass = (const double *)plan[5];
    const double *inv_bgmass = (const double *)plan[6];
    if (out != field)
        memcpy(out, field, (size_t)(n * ncomp) * sizeof(double));
    if (ncomp == 1) {
        for (int64_t p = 0; p < nbpoints; p++) {
            double s = 0.0;
            for (int64_t j = seg[p]; j < seg[p + 1]; j++)
                s += bmass[j] * field[bidx[j]];
            num[p] = s * inv_bgmass[p];
        }
        for (int64_t p = 0; p < nbpoints; p++) {
            double v = num[p];
            for (int64_t j = seg[p]; j < seg[p + 1]; j++) out[bidx[j]] = v;
        }
    } else if (ncomp == 3) {
        for (int64_t p = 0; p < nbpoints; p++) {
            double s0 = 0.0, s1 = 0.0, s2 = 0.0;
            for (int64_t j = seg[p]; j < seg[p + 1]; j++) {
                double w = bmass[j];
                const double *src = field + bidx[j] * 3;
                s0 += w * src[0];
                s1 += w * src[1];
                s2 += w * src[2];
            }
            double g = inv_bgmass[p];
            num[p * 3] = s0 * g;
            num[p * 3 + 1] = s1 * g;
            num[p * 3 + 2] = s2 * g;
        }
        for (int64_t p = 0; p < nbpoints; p++) {
            double v0 = num[p * 3], v1 = num[p * 3 + 1], v2 = num[p * 3 + 2];
            for (int64_t j = seg[p]; j < seg[p + 1]; j++) {
                double *dst = out + bidx[j] * 3;
                dst[0] = v0;
                dst[1] = v1;
                dst[2] = v2;
            }
        }
    } else {
        for (int64_t p = 0; p < nbpoints; p++) {
            double g = inv_bgmass[p];
            for (int64_t c = 0; c < ncomp; c++) {
                double s = 0.0;
                for (int64_t j = seg[p]; j < seg[p + 1]; j++)
                    s += bmass[j] * field[bidx[j] * ncomp + c];
                num[p * ncomp + c] = s * g;
            }
        }
        for (int64_t p = 0; p < nbpoints; p++) {
            const double *src = num + p * ncomp;
            for (int64_t j = seg[p]; j < seg[p + 1]; j++) {
                double *dst = out + bidx[j] * ncomp;
                for (int64_t c = 0; c < ncomp; c++) dst[c] = src[c];
            }
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Partitioned DSS                                                     */
/* ------------------------------------------------------------------ */

/* The three passes of repro.seam.parallel.PartitionedDSS.apply_stage over
 * its rank-segmented slot buffer (one slot per (rank, global point)
 * pair a rank's elements touch).  The constant layout arrives as an
 * 8-slot plan built once per operator:
 *
 *   plan[0] n           element-local points
 *   plan[1] nslots      slots
 *   plan[2] slot_of     (const int64_t *) slot of each element-local point
 *   plan[3] local_mass  (const double *) J-weighted mass of each point
 *   plan[4] nmsg        messages (shared-point values sent)
 *   plan[5] recv_dst    (const int64_t *) destination slot of every
 *                       message
 *   plan[6] recv_src    (const int64_t *) source slot of every message;
 *                       source ranks ascend among one slot's messages
 *   plan[7] mass        (const double *) assembled mass of each slot
 *
 * Bit-identity contract with a rank-by-rank execution (the oracle in
 * tests/seam/reference_parallel.py): every
 * sum starts from 0.0 and adds in its order — a slot's
 * points in ascending element-local index; a slot's own partial, then
 * its co-owners' in ascending source rank — and the average divides
 * by the mass instead of multiplying by its reciprocal.  Starting from
 * 0.0 rather than from the first term keeps 0.0 + -0.0 = +0.0, as
 * bincount has it.  The library is compiled with -ffp-contract=off, so
 * no multiply-add is fused.
 */
static inline void pdss_gather_loop(
    const int64_t *plan, int64_t stage, double dt,
    const double *q, const double *qk, const double *r, double *partial)
{
    const int64_t n = plan[0];
    const int64_t *slot_of = (const int64_t *)plan[2];
    const double *local_mass = (const double *)plan[3];
    for (int64_t i = 0; i < n; i++)
        partial[slot_of[i]] +=
            local_mass[i] * rk3_combine(stage, dt, q[i], qk[i], r[i]);
}

/* Gathers stage `stage` of (q, qk, r) (see rk3_combine; stage 0 is q
 * itself), so no stage field is stored: each element-local point adds
 * local_mass * its stage value into its slot, in the same order as a
 * gather of the stored stage field.  qk and r must hold n values even
 * where the stage ignores them.  Returns 0, or RK3_BAD_STAGE. */
int64_t pdss_gather(
    const int64_t *plan, int64_t stage, double dt,
    const double *q, const double *qk, const double *r, double *partial)
{
    const int64_t nslots = plan[1];
    if (stage < 0 || stage > 3) return RK3_BAD_STAGE;
    for (int64_t s = 0; s < nslots; s++) partial[s] = 0.0;
    switch (stage) {
    case 0: pdss_gather_loop(plan, 0, dt, q, qk, r, partial); break;
    case 1: pdss_gather_loop(plan, 1, dt, q, qk, r, partial); break;
    case 2: pdss_gather_loop(plan, 2, dt, q, qk, r, partial); break;
    default: pdss_gather_loop(plan, 3, dt, q, qk, r, partial); break;
    }
    return 0;
}

/* BSP exchange: total must not alias partial, so every message reads
 * the pre-exchange partial of its source slot. */
int64_t pdss_exchange(const int64_t *plan, const double *partial, double *total)
{
    const int64_t nslots = plan[1], nmsg = plan[4];
    const int64_t *recv_dst = (const int64_t *)plan[5];
    const int64_t *recv_src = (const int64_t *)plan[6];
    for (int64_t s = 0; s < nslots; s++) total[s] = 0.0 + partial[s];
    for (int64_t m = 0; m < nmsg; m++)
        total[recv_dst[m]] += partial[recv_src[m]];
    return 0;
}

/* Divides total by the mass in place, then copies each slot's average
 * to every element-local point of the slot.  The division takes two
 * slots a step, which -O2 turns into one packed division: the same
 * correctly rounded quotients at twice the throughput. */
int64_t pdss_scatter(const int64_t *plan, double *total, double *out)
{
    const int64_t n = plan[0], nslots = plan[1];
    const int64_t *slot_of = (const int64_t *)plan[2];
    const double *mass = (const double *)plan[7];
    int64_t s = 0;
    for (; s + 2 <= nslots; s += 2) {
        double a = total[s] / mass[s], b = total[s + 1] / mass[s + 1];
        total[s] = a;
        total[s + 1] = b;
    }
    for (; s < nslots; s++) total[s] = total[s] / mass[s];
    for (int64_t i = 0; i < n; i++) out[i] = total[slot_of[i]];
    return 0;
}

/* ------------------------------------------------------------------ */
/* Transport right-hand side (SEAM)                                    */
/* ------------------------------------------------------------------ */

/* Returned for nelem < 0 or np outside [2, TRANSPORT_MAX_NP]. */
#define TRANSPORT_BAD_SIZE -9
#define TRANSPORT_MAX_NP (1 << 20)

/* The right-hand side -(1/J) div(J u q) of repro.seam.transport's
 * TransportSolver, one element at a time.  With fu = Fu q and
 * fv = Fv q (each product rounded once), every output point is
 *
 *   out[e,i,b] = (s1 + s2) * neg_inv_jac[e,i,b]
 *   s1 = sum_j D[i,j] fu[e,j,b]      (d/dxi_1, the first tensor index)
 *   s2 = sum_j fv[e,i,j] D[b,j]      (d/dxi_2, the second)
 *
 * diff is D, (np, np) C-order; the other arrays are (nelem, np, np)
 * C-order.
 *
 * Bit-identity contract with the NumPy oracle in tests/seam (a batched
 * matmul for s1 and one GEMM for s2): each of s1 and s2 is a
 * left-to-right chain of fused multiply-adds over j starting at 0.0,
 * which is the order OpenBLAS's GEMM sums these shapes in (x86-64
 * Haswell kernels, every np from 2 to 16; at np = 17 it sums in
 * another order).  Separately rounded multiplies and adds would not
 * match: at (Ne, np) = (16, 8) they change 3% of the values for a
 * cosine bell and 44% for a random field.  So this kernel is the one
 * place that fuses on purpose, through explicit fma calls and
 * intrinsics that -ffp-contract=off leaves alone.  Its two paths give
 * the same bits: four output columns at a time with AVX2+FMA where the
 * CPU has them (checked at run time; building with -DREPRO_NO_AVX2
 * leaves this path out), and C99 fma() anywhere else.
 *
 * Scratch holds fu and fv of one element and D transposed, each row
 * padded to a multiple of 8 columns.  Returns 0, TRANSPORT_BAD_SIZE,
 * or -1 if the scratch cannot be allocated. */

#if (defined(__x86_64__) || defined(__i386__)) && !defined(REPRO_NO_AVX2)
#include <immintrin.h>
#define TRANSPORT_AVX2 1

/* The lanes of a 4-column block that has `left` columns of its row
 * left (all four when left >= 4). */
__attribute__((target("avx2,fma")))
static inline __m256i block_lanes(int64_t left)
{
    return _mm256_setr_epi64x(left > 0 ? -1 : 0, left > 1 ? -1 : 0,
                              left > 2 ? -1 : 0, left > 3 ? -1 : 0);
}

/* out[at..] = s * neg_inv_jac[at..] for the block's `left` columns. */
__attribute__((target("avx2,fma")))
static inline void rhs_store(
    double *out, const double *neg_inv_jac, int64_t at, int64_t left, __m256d s)
{
    if (left >= 4) {
        _mm256_storeu_pd(out + at, _mm256_mul_pd(
            s, _mm256_loadu_pd(neg_inv_jac + at)));
    } else if (left > 0) {
        __m256i m = block_lanes(left);
        _mm256_maskstore_pd(out + at, m, _mm256_mul_pd(
            s, _mm256_maskload_pd(neg_inv_jac + at, m)));
    }
}

/* Scratch rows are padded to np8 columns, a multiple of 8, so that
 * every tile below covers two whole blocks; the padding stays 0. */
__attribute__((target("avx2,fma")))
static void transport_rhs_avx2(
    int64_t nelem, int64_t np, int64_t np8, const double *diff,
    const double *dt, const double *flux_u, const double *flux_v,
    const double *neg_inv_jac, const double *q, double *out,
    double *fu, double *fv)
{
    const int64_t pp = np * np;
    for (int64_t e = 0; e < nelem; e++) {
        const int64_t o = e * pp;
        for (int64_t j = 0; j < np; j++) {
            const int64_t r = o + j * np, w = j * np8;
            for (int64_t b = 0; b < np; b += 4) {
                __m256d x, u, v;
                if (np - b >= 4) {
                    x = _mm256_loadu_pd(q + r + b);
                    u = _mm256_loadu_pd(flux_u + r + b);
                    v = _mm256_loadu_pd(flux_v + r + b);
                } else {
                    __m256i m = block_lanes(np - b);
                    x = _mm256_maskload_pd(q + r + b, m);
                    u = _mm256_maskload_pd(flux_u + r + b, m);
                    v = _mm256_maskload_pd(flux_v + r + b, m);
                }
                _mm256_storeu_pd(fu + w + b, _mm256_mul_pd(u, x));
                _mm256_storeu_pd(fv + w + b, _mm256_mul_pd(v, x));
            }
        }
        /* Tiles of rows i and i + 1 (i + 1 clamped to the last row, so
         * an odd np recomputes that row) by two column blocks: eight
         * independent FMA chains, each broadcast of D or fv feeding two
         * of them and each load of fu or D^T two others. */
        for (int64_t i = 0; i < np; i += 2) {
            const int64_t k = i + 1 < np ? i + 1 : i;
            const double *da = diff + i * np, *db = diff + k * np;
            const double *fa = fv + i * np8, *fb = fv + k * np8;
            const int64_t ra = o + i * np, rb = o + k * np;
            for (int64_t b = 0; b < np; b += 8) {
                __m256d a0 = _mm256_setzero_pd(), a1 = a0, b0 = a0, b1 = a0;
                __m256d c0 = a0, c1 = a0, e0 = a0, e1 = a0;
                for (int64_t j = 0; j < np; j++) {
                    const double *uj = fu + j * np8 + b, *dj = dt + j * np8 + b;
                    __m256d u0 = _mm256_loadu_pd(uj), u1 = _mm256_loadu_pd(uj + 4);
                    __m256d x = _mm256_set1_pd(da[j]), y = _mm256_set1_pd(db[j]);
                    a0 = _mm256_fmadd_pd(x, u0, a0);
                    a1 = _mm256_fmadd_pd(x, u1, a1);
                    b0 = _mm256_fmadd_pd(y, u0, b0);
                    b1 = _mm256_fmadd_pd(y, u1, b1);
                    __m256d d0 = _mm256_loadu_pd(dj), d1 = _mm256_loadu_pd(dj + 4);
                    x = _mm256_set1_pd(fa[j]);
                    y = _mm256_set1_pd(fb[j]);
                    c0 = _mm256_fmadd_pd(x, d0, c0);
                    c1 = _mm256_fmadd_pd(x, d1, c1);
                    e0 = _mm256_fmadd_pd(y, d0, e0);
                    e1 = _mm256_fmadd_pd(y, d1, e1);
                }
                const int64_t left = np - b;
                rhs_store(out, neg_inv_jac, ra + b, left, _mm256_add_pd(a0, c0));
                rhs_store(out, neg_inv_jac, rb + b, left, _mm256_add_pd(b0, e0));
                rhs_store(out, neg_inv_jac, ra + b + 4, left - 4, _mm256_add_pd(a1, c1));
                rhs_store(out, neg_inv_jac, rb + b + 4, left - 4, _mm256_add_pd(b1, e1));
            }
        }
    }
}
#endif

static void transport_rhs_portable(
    int64_t nelem, int64_t np, int64_t np8, const double *diff,
    const double *dt, const double *flux_u, const double *flux_v,
    const double *neg_inv_jac, const double *q, double *out,
    double *fu, double *fv)
{
    const int64_t pp = np * np;
    for (int64_t e = 0; e < nelem; e++) {
        const int64_t o = e * pp;
        for (int64_t j = 0; j < np; j++)
            for (int64_t b = 0; b < np; b++) {
                fu[j * np8 + b] = flux_u[o + j * np + b] * q[o + j * np + b];
                fv[j * np8 + b] = flux_v[o + j * np + b] * q[o + j * np + b];
            }
        for (int64_t i = 0; i < np; i++)
            for (int64_t b = 0; b < np; b++) {
                double s1 = 0.0, s2 = 0.0;
                for (int64_t j = 0; j < np; j++) {
                    s1 = fma(diff[i * np + j], fu[j * np8 + b], s1);
                    s2 = fma(fv[i * np8 + j], dt[j * np8 + b], s2);
                }
                out[o + i * np + b] = (s1 + s2) * neg_inv_jac[o + i * np + b];
            }
    }
}

int64_t transport_rhs(
    int64_t nelem, int64_t np, const double *diff,
    const double *flux_u, const double *flux_v, const double *neg_inv_jac,
    const double *q, double *out)
{
    if (nelem < 0 || np < 2 || np > TRANSPORT_MAX_NP) return TRANSPORT_BAD_SIZE;
    const int64_t np8 = (np + 7) & ~(int64_t)7;
    double *scratch = calloc((size_t)(3 * np * np8), sizeof(double));
    if (!scratch) return -1;
    double *fu = scratch, *fv = fu + np * np8, *dt = fv + np * np8;
    for (int64_t j = 0; j < np; j++)
        for (int64_t b = 0; b < np; b++) dt[j * np8 + b] = diff[b * np + j];
#ifdef TRANSPORT_AVX2
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        transport_rhs_avx2(nelem, np, np8, diff, dt, flux_u, flux_v,
                           neg_inv_jac, q, out, fu, fv);
    else
#endif
        transport_rhs_portable(nelem, np, np8, diff, dt, flux_u, flux_v,
                               neg_inv_jac, q, out, fu, fv);
    free(scratch);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Partition-quality metrics                                           */
/* ------------------------------------------------------------------ */

/* The Table-2 quantities of an assignment in one pass over a CSR
 * (repro.partition.metrics; oracle: tests/partition/reference_metrics.py).
 * A negative neighbour id is "no neighbour" and is skipped, so a
 * mesh's (K, 8) neighbour table reads as a fixed-degree CSR.
 * vweights may be NULL (every vertex weighs 1).  Writes four rows of
 * nparts to parts -- element counts, vertex weights, send points (the
 * weight of every directed cut edge, summed over its source's part)
 * and boundary vertices (those with a cut edge) -- and to cuts the
 * edgecut and the weighted edgecut, each undirected edge counted once
 * from its lower endpoint (CSRGraph.edge_array's u < v).  Weight sums
 * run in uint64, wrapping as NumPy's int64 sums do.  Returns 0,
 * or -7 when an offset leaves [0, nnz] or decreases, a neighbour id
 * reaches n, or a part id leaves [0, nparts). */
int64_t part_metrics(
    int64_t n, const int64_t *indptr, const int64_t *indices,
    const int64_t *eweights, const int64_t *vweights, int64_t nnz,
    const int64_t *assign, int64_t nparts, int64_t *parts, int64_t *cuts)
{
    int64_t *count = parts, *boundary = parts + 3 * nparts, cut = 0;
    uint64_t *weight = (uint64_t *)(parts + nparts);
    uint64_t *send = (uint64_t *)(parts + 2 * nparts), wcut = 0;
    memset(parts, 0, (size_t)(4 * nparts) * sizeof(int64_t));
    for (int64_t v = 0; v < n; v++) {
        const int64_t p = assign[v], lo = indptr[v], hi = indptr[v + 1];
        if (p < 0 || p >= nparts || lo < 0 || hi < lo || hi > nnz) return -7;
        uint64_t sent = 0;
        int64_t any = 0;
        for (int64_t j = lo; j < hi; j++) {
            const int64_t u = indices[j];
            if (u < 0) continue;
            if (u >= n) return -7;
            const int64_t q = assign[u];
            if (q == p) continue;
            sent += (uint64_t)eweights[j];
            any = 1;
            if (v < u) {
                cut++;
                wcut += (uint64_t)eweights[j];
            }
        }
        count[p]++;
        weight[p] += vweights ? (uint64_t)vweights[v] : 1;
        send[p] += sent;
        boundary[p] += any;
    }
    cuts[0] = cut;
    cuts[1] = (int64_t)wcut;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Space-filling-curve keying                                          */
/* ------------------------------------------------------------------ */

/* Per-level table layout (stride 66 int64 slots per refinement level,
 * coarsest level first; built by repro.sfc.keys.schedule_tables):
 *
 *   [0]          radix r (2 or 3)
 *   [1]          child block size s at this level
 *   [2]          log2(s) when s is a power of two, else -1
 *   [3  + b]     visit rank of child block b = bx*3 + by
 *   [12 + i]     inverse-transform mxx of child i
 *   [21 + i]     inverse-transform mxy
 *   [30 + i]     inverse-transform myx
 *   [39 + i]     inverse-transform myy
 *   [48 + i]     1 when mxx + mxy < 0 (the s-1 x-offset applies)
 *   [57 + i]     1 when myx + myy < 0 (the s-1 y-offset applies)
 *
 * Decode contract (bit-identity with repro.sfc.keys._keys_numpy and
 * the generator's visit order): per level, the block coordinates
 * identify the child, the child's rank digit extends the mixed-radix
 * key, and the child's inverse D4 transform maps the cell into the
 * child's canonical frame.  All arithmetic is exact int64; keys are
 * accumulated in uint64 (n*n can reach 2^62 before overflow).
 */
#define SFC_STRIDE 66

int64_t sfc_keys(
    int64_t npts, int64_t nlevels, const int64_t *tables,
    int64_t n, const int64_t *x, const int64_t *y, uint64_t *keys)
{
    (void)n;
    for (int64_t p = 0; p < npts; p++) {
        int64_t u = x[p], v = y[p];
        uint64_t key = 0;
        const int64_t *lv = tables;
        for (int64_t l = 0; l < nlevels; l++, lv += SFC_STRIDE) {
            const int64_t r = lv[0], s = lv[1], shift = lv[2];
            int64_t bx, by;
            if (shift >= 0) {
                bx = u >> shift;
                by = v >> shift;
            } else {
                bx = u / s;
                by = v / s;
            }
            const int64_t i = lv[3 + bx * 3 + by];
            key = key * (uint64_t)(r * r) + (uint64_t)i;
            u -= bx * s;
            v -= by * s;
            const int64_t un =
                lv[12 + i] * u + lv[21 + i] * v + lv[48 + i] * (s - 1);
            v = lv[30 + i] * u + lv[39 + i] * v + lv[57 + i] * (s - 1);
            u = un;
        }
        keys[p] = key;
    }
    return 0;
}

/* Global cubed-sphere keys straight from element ids: gid -> face +
 * face-local (ix, iy) -> chain-oriented (u, v) -> face-local curve key
 * (same per-level decode as sfc_keys) + the face's chain offset.
 * rank[face] is the face's position in the canonical chain; coef holds
 * six (mxx, mxy, myx, myy, xneg, yneg) rows — the inverse orientation
 * of each face.  Fusing the face decode keeps the whole pipeline in
 * registers (a vectorized NumPy decode pays ~10 array passes for it). */
int64_t sfc_face_keys(
    int64_t npts, int64_t nlevels, const int64_t *tables, int64_t ne,
    const int64_t *rank, const int64_t *coef,
    const int64_t *gids, uint64_t *keys)
{
    const int64_t n2 = ne * ne;
    for (int64_t p = 0; p < npts; p++) {
        const int64_t gid = gids[p];
        const int64_t face = gid / n2, rem = gid % n2;
        const int64_t iy = rem / ne, ix = rem % ne;
        const int64_t *c = coef + 6 * face;
        int64_t u = c[0] * ix + c[1] * iy + c[4] * (ne - 1);
        int64_t v = c[2] * ix + c[3] * iy + c[5] * (ne - 1);
        uint64_t key = 0;
        const int64_t *lv = tables;
        for (int64_t l = 0; l < nlevels; l++, lv += SFC_STRIDE) {
            const int64_t r = lv[0], s = lv[1], shift = lv[2];
            int64_t bx, by;
            if (shift >= 0) {
                bx = u >> shift;
                by = v >> shift;
            } else {
                bx = u / s;
                by = v / s;
            }
            const int64_t i = lv[3 + bx * 3 + by];
            key = key * (uint64_t)(r * r) + (uint64_t)i;
            u -= bx * s;
            v -= by * s;
            const int64_t un =
                lv[12 + i] * u + lv[21 + i] * v + lv[48 + i] * (s - 1);
            v = lv[30 + i] * u + lv[39 + i] * v + lv[57 + i] * (s - 1);
            u = un;
        }
        keys[p] = key + (uint64_t)rank[face] * (uint64_t)n2;
    }
    return 0;
}

/* JSON text of an int64 array, byte-for-byte what Python's
 * json.dumps(arr.tolist()) writes: "[a, b, c]" with ", " separators,
 * "[]" when empty, a leading '-' on negatives and the full int64 range
 * (INT64_MIN is negated in uint64).  out must hold
 * 2 + 22 n bytes: 20 characters for "-9223372036854775808" plus the
 * separator.  Returns the number of bytes written. */
int64_t json_int_array(int64_t n, const int64_t *a, char *out)
{
    char *p = out;
    *p++ = '[';
    for (int64_t i = 0; i < n; i++) {
        if (i) {
            *p++ = ',';
            *p++ = ' ';
        }
        const int64_t v = a[i];
        uint64_t u = (uint64_t)v;
        if (v < 0) {
            *p++ = '-';
            u = (uint64_t)0 - u;
        }
        char digits[20];
        int k = 0;
        do {
            digits[k++] = (char)('0' + u % 10);
            u /= 10;
        } while (u);
        while (k)
            *p++ = digits[--k];
    }
    *p++ = ']';
    return (int64_t)(p - out);
}

static int json_ws(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/* One strict JSON integer, -?(0|[1-9][0-9]*), within int64, at
 * t[*p]; advances *p past it.  Returns 0, or -1 (*p unspecified) when
 * there is none or it overflows.  A digit after a leading 0 is left
 * for the caller to reject. */
static int json_int(const char *t, int64_t n, int64_t *p, int64_t *out)
{
    int64_t i = *p;
    const int neg = i < n && t[i] == '-';
    i += neg;
    if (i >= n || t[i] < '0' || t[i] > '9')
        return -1;
    /* |value| <= 2^63 - 1 + neg = 10 cap + last */
    const uint64_t cap = 922337203685477580u, last = 7u + (uint64_t)neg;
    uint64_t u = 0;
    if (t[i] == '0')
        i++;
    else
        for (; i < n && t[i] >= '0' && t[i] <= '9'; i++) {
            const uint64_t d = (uint64_t)(t[i] - '0');
            if (u > cap || (u == cap && d > last))
                return -1;
            u = u * 10 + d;
        }
    *out = neg ? (int64_t)((uint64_t)0 - u) : (int64_t)u;
    *p = i;
    return 0;
}

/* The array opening at t[i] == '[' if it holds only strict integers
 * separated by commas and JSON whitespace: its values go to out, its
 * length to *count, and the result is one past its ']'.  Otherwise
 * -1. */
static int64_t json_int_list(
    const char *t, int64_t n, int64_t i, int64_t *out, int64_t *count)
{
    int64_t p = i + 1, m = 0;
    while (p < n && json_ws(t[p]))
        p++;
    if (p < n && t[p] == ']') {
        *count = 0;
        return p + 1;
    }
    for (;;) {
        if (json_int(t, n, &p, out + m))
            return -1;
        m++;
        while (p < n && json_ws(t[p]))
            p++;
        if (p >= n)
            return -1;
        if (t[p] == ']') {
            *count = m;
            return p + 1;
        }
        if (t[p] != ',')
            return -1;
        for (p++; p < n && json_ws(t[p]); p++)
            ;
    }
}

/* The int arrays of the JSON text t[0:n], for the server's request
 * decoder.  One pass that skips strings (and their backslash escapes)
 * and tries every '[' whose previous significant byte is ':' -- an
 * object member's value.  An array of strict JSON integers within
 * int64 (json_int_list) is recorded as one row of spans, [start,
 * stop, count]: its text is t[start:stop], and its count values follow
 * the previous arrays' in values.  Anything else (floats, exponents,
 * leading zeros, trailing commas, out-of-range ints, nested values)
 * stays text, and the scan goes on inside it.  The text need not be
 * valid JSON; the caller decodes it.  Every recorded array costs at
 * least ":[]", and every value a digit and a separator, so spans
 * needs 3 (n / 3 + 1) entries and values n / 2 + 1.  Returns the
 * number of arrays. */
int64_t json_int_arrays(int64_t n, const char *t, int64_t *spans, int64_t *values)
{
    int64_t narrays = 0, nvalues = 0;
    char prev = 0;
    for (int64_t i = 0; i < n; i++) {
        const char c = t[i];
        if (c == '"') {
            for (i++; i < n && t[i] != '"'; i++)
                if (t[i] == '\\')
                    i++;
            prev = '"';
        } else if (c == '[' && prev == ':') {
            int64_t count;
            const int64_t stop = json_int_list(t, n, i, values + nvalues, &count);
            prev = '[';
            if (stop < 0)
                continue;
            spans[3 * narrays] = i;
            spans[3 * narrays + 1] = stop;
            spans[3 * narrays + 2] = count;
            narrays++;
            nvalues += count;
            i = stop - 1;
            prev = ']';
        } else if (!json_ws(c)) {
            prev = c;
        }
    }
    return narrays;
}

/* ---------------------------------------------------------------------
 * NumPy's default_rng(seed) streams: SeedSequence-seeded PCG64
 *
 * Every random draw of the METIS drivers comes from here.  A stream is
 * RNG_SLOTS uint64 words: the 128-bit LCG state and increment (high
 * word first), then PCG64's buffered-half-word flag and the buffered
 * upper 32 bits.  The seeding, the XSL-RR output, the 32-bit buffering
 * and the two draws restate NumPy's C (bit_generator.pyx SeedSequence,
 * pcg64.h, distributions.c random_interval and the buffered 32-bit
 * Lemire bounded integers, Generator.shuffle's Fisher-Yates), so each
 * stream draws exactly what np.random.default_rng(seed) draws;
 * tests/metis/test_rng.py pins that against the installed NumPy.
 * ------------------------------------------------------------------ */

typedef unsigned __int128 u128;

#define RNG_SLOTS 6
#define PCG_MULT ((((u128)2549297995355413924ULL) << 64) | 4865540595714422341ULL)

typedef struct {
    u128 state, inc;
    int has32;
    uint32_t buf32;
} pcg64_t;

static void pcg_load(pcg64_t *r, const uint64_t *s)
{
    r->state = ((u128)s[0] << 64) | s[1];
    r->inc = ((u128)s[2] << 64) | s[3];
    r->has32 = s[4] != 0;
    r->buf32 = (uint32_t)s[5];
}

static void pcg_store(const pcg64_t *r, uint64_t *s)
{
    s[0] = (uint64_t)(r->state >> 64);
    s[1] = (uint64_t)r->state;
    s[2] = (uint64_t)(r->inc >> 64);
    s[3] = (uint64_t)r->inc;
    s[4] = (uint64_t)r->has32;
    s[5] = r->buf32;
}

static uint64_t pcg_next64(pcg64_t *r)
{
    r->state = r->state * PCG_MULT + r->inc;
    const uint64_t x = (uint64_t)(r->state >> 64) ^ (uint64_t)r->state;
    const unsigned rot = (unsigned)(r->state >> 122);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

/* Half a 64-bit output per call: the low half, then the buffered high. */
static uint32_t pcg_next32(pcg64_t *r)
{
    if (r->has32) {
        r->has32 = 0;
        return r->buf32;
    }
    const uint64_t next = pcg_next64(r);
    r->has32 = 1;
    r->buf32 = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static uint32_t ss_hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= 0x931e8875u;
    value *= *hash;
    return value ^ (value >> 16);
}

static uint32_t ss_mix(uint32_t x, uint32_t y)
{
    const uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ (r >> 16);
}

/* PCG64(SeedSequence(seed)) from the seed's little-endian 32-bit words
 * (one word, 0, for seed 0): the 4-word entropy pool, its 8-word
 * generate_state(4, uint64) output, and pcg64_set_seed. */
static void pcg_seed(pcg64_t *r, const uint32_t *words, int64_t nwords)
{
    uint32_t pool[4], hash = 0x43b0d7e5u, st[8];
    for (int i = 0; i < 4; i++)
        pool[i] = ss_hashmix(i < nwords ? words[i] : 0, &hash);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst], ss_hashmix(pool[src], &hash));
    for (int64_t src = 4; src < nwords; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = ss_mix(pool[dst], ss_hashmix(words[src], &hash));
    hash = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i & 3] ^ hash;
        hash *= 0x58f38dedu;
        v *= hash;
        st[i] = v ^ (v >> 16);
    }
    const u128 initstate = ((u128)(((uint64_t)st[1] << 32) | st[0]) << 64)
                           | (((uint64_t)st[3] << 32) | st[2]);
    const u128 initseq = ((u128)(((uint64_t)st[5] << 32) | st[4]) << 64)
                         | (((uint64_t)st[7] << 32) | st[6]);
    r->state = 0;
    r->inc = (initseq << 1) | 1;
    pcg_next64(r);
    r->state += initstate;
    pcg_next64(r);
    r->has32 = 0;
    r->buf32 = 0;
}

/* Uniform in [0, max] by masked rejection (NumPy's random_interval). */
static uint64_t rng_interval(pcg64_t *r, uint64_t max)
{
    if (max == 0)
        return 0;
    uint64_t mask = max, v;
    for (int s = 1; s < 64; s <<= 1)
        mask |= mask >> s;
    if (max <= 0xffffffffULL) {
        while ((v = pcg_next32(r) & mask) > max)
            ;
    } else {
        while ((v = pcg_next64(r) & mask) > max)
            ;
    }
    return v;
}

/* Uniform in [0, rng], rng < 2^32, by Lemire's multiply-shift with
 * rejection (NumPy's random_bounded_uint64_fill, unmasked, 32-bit
 * range). */
static uint32_t rng_bounded(pcg64_t *r, uint32_t rng)
{
    if (rng == 0)
        return 0;
    if (rng == UINT32_MAX)
        return pcg_next32(r);
    const uint32_t excl = rng + 1;
    uint64_t m = (uint64_t)pcg_next32(r) * excl;
    if ((uint32_t)m < excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % excl;
        while ((uint32_t)m < threshold)
            m = (uint64_t)pcg_next32(r) * excl;
    }
    return (uint32_t)(m >> 32);
}

/* permutation(n) into out: arange, then Fisher-Yates from the top
 * down. */
static void rng_permutation(pcg64_t *r, int64_t n, int64_t *out)
{
    for (int64_t j = 0; j < n; j++)
        out[j] = j;
    for (int64_t j = n - 1; j > 0; j--) {
        const int64_t k = (int64_t)rng_interval(r, (uint64_t)j);
        const int64_t t = out[k];
        out[k] = out[j];
        out[j] = t;
    }
}

/* Seed stream i from words[offsets[i]:offsets[i+1]] (nonempty). */
int64_t rng_seed(int64_t nstreams, const uint32_t *words, const int64_t *offsets,
                 uint64_t *states)
{
    for (int64_t i = 0; i < nstreams; i++) {
        if (offsets[i + 1] <= offsets[i])
            return -4;
        pcg64_t r;
        pcg_seed(&r, words + offsets[i], offsets[i + 1] - offsets[i]);
        pcg_store(&r, states + RNG_SLOTS * i);
    }
    return 0;
}

/* Stream i's permutation(sizes[i]), the streams' written back to back
 * into out. */
int64_t rng_permutations(int64_t nstreams, uint64_t *states, const int64_t *sizes,
                         int64_t *out)
{
    for (int64_t i = 0; i < nstreams; i++)
        if (sizes[i] < 0)
            return -4;
    for (int64_t i = 0; i < nstreams; i++) {
        pcg64_t r;
        pcg_load(&r, states + RNG_SLOTS * i);
        rng_permutation(&r, sizes[i], out);
        pcg_store(&r, states + RNG_SLOTS * i);
        out += sizes[i];
    }
    return 0;
}

/* Stream i's integers(highs[i], size=k), 1 <= highs[i] <= 2^32, into
 * row i of out (nstreams x k). */
int64_t rng_integers(int64_t nstreams, uint64_t *states, const int64_t *highs,
                     int64_t k, int64_t *out)
{
    for (int64_t i = 0; i < nstreams; i++)
        if (highs[i] < 1 || highs[i] > ((int64_t)1 << 32) || k < 0)
            return -4;
    for (int64_t i = 0; i < nstreams; i++) {
        pcg64_t r;
        pcg_load(&r, states + RNG_SLOTS * i);
        const uint32_t rng = (uint32_t)(highs[i] - 1);
        for (int64_t j = 0; j < k; j++)
            out[k * i + j] = rng_bounded(&r, rng);
        pcg_store(&r, states + RNG_SLOTS * i);
    }
    return 0;
}

/* ---------------------------------------------------------------------
 * Recursive bisection (bisection.recursive_bisection)
 *
 * The whole pmetis recursion in one call.  It runs level-synchronously:
 * every bisection depends only on its vertex set, its part range and
 * its seed base + depth * 7919 + first part, never on the order a
 * depth-first loop would visit it, so each recursion depth ("level")
 * extracts all of its groups' subgraphs at once and then bisects them
 * one after the other.  A group's multilevel bisection
 * (multilevel_bisection) coarsens with rounds of coarsen_round, round
 * lvl visiting in the permutation of a fresh stream seeded with the
 * group seed + lvl, until the graph has at most `coarsest` vertices or
 * a round shrinks it by less than 10% (that round is dropped); grows
 * the coarsest graph's bisection (ggg_one, trial starts from a fresh
 * stream on the group seed), refines it, and projects and refines it
 * back up (bisect_refine).  Each stream draws what NumPy's
 * default_rng(seed) draws, so the result is the depth-first oracle's
 * (tests/metis/reference_kernels.py) bit for bit.
 *
 * params holds five int64: [coarsest, max_levels, ntrials,
 * fm_passes, max_bound].  The base seed arrives as its little-endian
 * 32-bit words (SeedSequence's entropy, at least one word, no zero
 * words on top); every offset is added with carry.  timing is NULL, or
 * RB_TIMES int64 per level: [groups, start (ns after the call began),
 * then ns spent in subgraph, coarsen, initial, refine and uncoarsen].
 * Error codes beyond -1, -3 and -4: -5, a split target not strictly
 * between 0 and its group's weight; -6, vertex weights too large for
 * exact float split targets (total * left parts >= 2^53).
 * ------------------------------------------------------------------ */

#define RB_TIMES 7

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* A run's parent graph, seed, caps factor, tuning constants and the
 * scratch every group reuses: a level's subgraph union (rb_extract's
 * layout, group g's stats at stats[3g:3g+3]) and the coarsening
 * buffers, sized for the parent graph. */
typedef struct {
    csr_t graph;
    const uint32_t *seed;
    int64_t nseed;
    double ubfactor;
    int64_t coarsest, max_levels, ntrials, fm_passes, max_bound;
    int64_t t_start;
    int64_t *u_indptr, *u_indices, *u_eweights, *u_vweights, *u_ge, *stats;
    int64_t *perm, *order, *match, *cnt, *contract, *starts;
    uint8_t *matched;
    uint32_t *words;
    level_t *levels;
    int64_t *block;
} rb_t;

static void rb_free(rb_t *rb)
{
    free(rb->block);
    free(rb->matched);
    free(rb->words);
    free(rb->levels);
}

/* Returns 0, -1 (allocation) or -4 (no seed word). */
static int64_t rb_init(
    rb_t *rb, int64_t n, const int64_t *indptr, const int64_t *indices,
    const int64_t *eweights, const int64_t *vweights, const uint32_t *seed,
    int64_t nseed, double ubfactor, const int64_t *params)
{
    memset(rb, 0, sizeof *rb);
    if (nseed < 1) return -4;
    csr_t g = {n, indptr, indices, eweights, vweights};
    rb->graph = g;
    rb->seed = seed;
    rb->nseed = nseed;
    rb->ubfactor = ubfactor;
    rb->coarsest = params[0];
    rb->max_levels = params[1];
    rb->ntrials = params[2];
    rb->fm_passes = params[3];
    rb->max_bound = params[4];
    rb->t_start = now_ns();
    const int64_t nnz = indptr[n];
    /* A level has at most n / 2 groups; every graph of a hierarchy has
     * at most nnz edges, so no degree exceeds nnz. */
    int64_t sizes[] = {
        2 * n + 1, nnz, nnz, n, n + 1, 3 * n,  /* union, stats */
        n, n, n, nnz + 1, CONTRACT_SCRATCH * n, rb->ntrials,
    };
    int64_t total = 0;
    for (size_t i = 0; i < sizeof sizes / sizeof *sizes; i++) total += sizes[i];
    rb->block = xmalloc(total, sizeof(int64_t));
    rb->matched = xmalloc(n, 1);
    rb->words = xmalloc(nseed + 3, sizeof(uint32_t));
    rb->levels = xmalloc(rb->max_levels, sizeof(level_t));
    if (!rb->block || !rb->matched || !rb->words || !rb->levels) {
        rb_free(rb);
        return -1;
    }
    int64_t **slots[] = {
        &rb->u_indptr, &rb->u_indices, &rb->u_eweights, &rb->u_vweights,
        &rb->u_ge, &rb->stats, &rb->perm, &rb->order, &rb->match, &rb->cnt,
        &rb->contract, &rb->starts,
    };
    int64_t *p = rb->block;
    for (size_t i = 0; i < sizeof sizes / sizeof *sizes; i++) {
        *slots[i] = p;
        p += sizes[i];
    }
    return 0;
}

/* A fresh stream on the run's seed + offset. */
static void rb_stream(rb_t *rb, uint64_t offset, pcg64_t *r)
{
    uint64_t carry = 0;
    int64_t i = 0;
    for (; i < rb->nseed || offset || carry; i++) {
        uint64_t s = (i < rb->nseed ? rb->seed[i] : 0) + (offset & 0xffffffffu) + carry;
        rb->words[i] = (uint32_t)s;
        carry = s >> 32;
        offset >>= 32;
    }
    pcg_seed(r, rb->words, i);
}

/* A side's weight cap, floor(ub * t + 1e-9) clipped to [t, total], as
 * NumPy computed it: max(int64(min(floor(...), double(total))), t),
 * where an out-of-range float-to-int64 conversion gives INT64_MIN. */
static int64_t side_cap(double ub, int64_t t, int64_t total)
{
    double c = floor(ub * (double)t + 1e-9);
    double m = (double)total;
    if (c < m) m = c;
    int64_t cap = (m >= -0x1p63 && m < 0x1p63) ? (int64_t)m : INT64_MIN;
    return cap > t ? cap : t;
}

/* multilevel_bisection of one group's graph g toward `target` under
 * the caps cap0 / cap1, its streams seeded with the run's seed +
 * offset (+ lvl for coarsening round lvl); side gets g's n sides.
 * times (NULL or 4 slots) accumulates ns of coarsen, initial, refine
 * and uncoarsen.  Returns 0, -1, -3 or -4. */
static int64_t bisect_group(
    rb_t *rb, const csr_t *g, int64_t target, int64_t cap0, int64_t cap1,
    uint64_t offset, int64_t *side, int64_t *times)
{
    level_t *lv = rb->levels;
    int64_t nl = 0, rc = 0;
    int64_t t0 = times ? now_ns() : 0;
    const csr_t *fine = g;
    for (int64_t lvl = 0; lvl < rb->max_levels && fine->n > rb->coarsest; lvl++) {
        pcg64_t r;
        rb_stream(rb, offset + (uint64_t)lvl, &r);
        rng_permutation(&r, fine->n, rb->perm);
        int64_t nc = coarsen_round(fine, rb->perm, rb->order, rb->match,
                                   rb->matched, rb->cnt, rb->contract, lv + nl);
        if (nc < 0) {
            rc = nc;
            goto done;
        }
        if ((double)nc > 0.9 * (double)fine->n) {
            free(lv[nl].block);
            break;
        }
        fine = &lv[nl++].g;
    }
    if (times) {
        int64_t t = now_ns();
        times[0] += t - t0;
        t0 = t;
    }
    /* The coarsest graph: GGGP (trial 0 from a pseudo-peripheral
     * vertex), then FM. */
    int64_t *cside = nl ? lv[nl - 1].side : side;
    if (fine->n < 1 || fine->n > ((int64_t)1 << 32)) {
        rc = -4;
        goto done;
    }
    pcg64_t r;
    rb_stream(rb, offset, &r);
    rb->starts[0] = -1;
    for (int64_t t = 1; t < rb->ntrials; t++)
        rb->starts[t] = rng_bounded(&r, (uint32_t)(fine->n - 1));
    rc = ggg_one(fine, rb->starts, rb->ntrials, target, rb->max_bound, cside);
    if (rc) goto done;
    if (times) {
        int64_t t = now_ns();
        times[1] += t - t0;
        t0 = t;
    }
    rc = bisect_refine(fine, cside, cap0, cap1, rb->fm_passes, rb->max_bound);
    if (rc) goto done;
    if (times) {
        int64_t t = now_ns();
        times[2] += t - t0;
        t0 = t;
    }
    /* Uncoarsening, deepest level first: project, then refine. */
    for (int64_t j = nl - 1; j >= 0; j--) {
        const csr_t *fg = j ? &lv[j - 1].g : g;
        int64_t *fs = j ? lv[j - 1].side : side;
        for (int64_t v = 0; v < fg->n; v++) fs[v] = lv[j].side[lv[j].f2c[v]];
        rc = bisect_refine(fg, fs, cap0, cap1, rb->fm_passes, rb->max_bound);
        if (rc) goto done;
    }
    if (times) times[3] += now_ns() - t0;
done:
    for (int64_t j = 0; j < nl; j++) free(lv[j].block);
    return rc;
}

/* multilevel_bisection of the k groups of one level: group g is the
 * strictly ascending vertex set ids[gv[g]:gv[g+1]] of the parent
 * graph, split toward targets[g] with seed offset offsets[g]; side
 * (aligned with ids) gets the sides, row (NULL or RB_TIMES slots) the
 * level's timings.  Returns 0, -1, -2, -3, -4 or -5. */
static int64_t bisect_level(
    rb_t *rb, const int64_t *ids, const int64_t *gv, int64_t k,
    const int64_t *targets, const int64_t *offsets, int64_t *side,
    int64_t *row)
{
    int64_t t0 = row ? now_ns() : 0;
    const csr_t *pg = &rb->graph;
    int64_t rc = rb_extract(pg->n, pg->indptr, pg->indices, pg->eweights,
                            pg->vweights, ids, gv, k, rb->u_indptr,
                            rb->u_indices, rb->u_eweights, rb->u_vweights,
                            rb->u_ge, rb->stats);
    if (rc < 0) return rc;
    for (int64_t g = 0; g < k; g++)
        if (!(targets[g] > 0 && targets[g] < rb->stats[3 * g + 1])) return -5;
    if (row) {
        row[0] = k;
        row[1] = t0 - rb->t_start;
        row[2] = now_ns() - t0;
        for (int i = 3; i < RB_TIMES; i++) row[i] = 0;
    }
    for (int64_t g = 0; g < k; g++) {
        const int64_t lo = gv[g], ge = rb->u_ge[g];
        const int64_t total = rb->stats[3 * g + 1], t = targets[g];
        csr_t sub = {gv[g + 1] - lo, rb->u_indptr + lo + g, rb->u_indices + ge,
                     rb->u_eweights + ge, rb->u_vweights + lo};
        rc = bisect_group(rb, &sub, t, side_cap(rb->ubfactor, t, total),
                          side_cap(rb->ubfactor, total - t, total),
                          (uint64_t)offsets[g], side + lo, row ? row + 3 : NULL);
        if (rc) return rc;
    }
    return 0;
}

/* The split step of recursive_bisection for k groups: group g owns
 * ids[gv[g]:gv[g+1]] with sides side[gv[g]:gv[g+1]] and parts
 * [first[g], first[g] + parts[g]).  Its left child (side 0) takes
 * parts // 2 parts, its right child (side 1) the rest; if a child
 * gets fewer vertices than parts, the split is the order-based
 * ids[:half[g]] / ids[half[g]:] instead.  A child with one part is
 * written into assignment; the others (left before right) become the
 * next level's groups: their ids, vertex offsets (count + 1), first
 * parts and part counts.  Returns the next level's group count.
 */
static int64_t rb_split(
    int64_t k,
    const int64_t *ids,
    const int64_t *gv,
    const int64_t *side,
    const int64_t *first,
    const int64_t *parts,
    const int64_t *half,
    int64_t *assignment,
    int64_t *out_ids,
    int64_t *out_gv,
    int64_t *out_first,
    int64_t *out_parts)
{
    int64_t nk = 0, pos = 0;
    out_gv[0] = 0;
    for (int64_t g = 0; g < k; g++) {
        int64_t lo = gv[g], hi = gv[g + 1];
        int64_t lp = parts[g] / 2, rp = parts[g] - lp;
        int64_t nl = 0, nr = 0;
        for (int64_t i = lo; i < hi; i++) {
            nl += side[i] == 0;
            nr += side[i] == 1;
        }
        int64_t by_order = nl < lp || nr < rp;
        for (int64_t c = 0; c < 2; c++) {
            int64_t cfirst = c ? first[g] + lp : first[g];
            int64_t cparts = c ? rp : lp;
            for (int64_t i = lo; i < hi; i++) {
                int in_child = by_order ? ((i - lo < half[g]) == !c)
                                        : side[i] == c;
                if (!in_child) continue;
                if (cparts == 1) assignment[ids[i]] = cfirst;
                else out_ids[pos++] = ids[i];
            }
            if (cparts > 1) {
                out_first[nk] = cfirst;
                out_parts[nk] = cparts;
                out_gv[++nk] = pos;
            }
        }
    }
    return nk;
}

/* recursive_bisection into nparts >= 2 parts: every vertex's part
 * into assignment.  Each level's group g (parts[g] >= 2 parts from
 * first[g]) is split toward rint(total * (parts // 2) / parts) weight
 * on the left with seed offset depth * 7919 + first[g], then rb_split
 * passes its children on.  Returns the level count, or -1, -3, -4, -5
 * or -6. */
int64_t rb_partition(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *vweights,
    int64_t nparts,
    const uint32_t *seed,
    int64_t nseed,
    double ubfactor,
    const int64_t *params,
    int64_t *assignment,
    int64_t *timing)
{
    rb_t rb;
    int64_t rc = rb_init(&rb, n, indptr, indices, eweights, vweights, seed,
                         nseed, ubfactor, params);
    if (rc) return rc;
    /* This level's and the next level's groups (ids, gv, first,
     * parts), and per group its order-based split, target and seed
     * offset; side is aligned with ids. */
    int64_t *block = xmalloc(2 * (4 * n + 1) + 4 * n, sizeof(int64_t));
    if (!block) {
        rb_free(&rb);
        return -1;
    }
    int64_t *ids = block, *gv = ids + n, *first = gv + n + 1, *parts = first + n;
    int64_t *next_ids = parts + n, *next_gv = next_ids + n;
    int64_t *next_first = next_gv + n + 1, *next_parts = next_first + n;
    int64_t *half = next_parts + n, *targets = half + n, *offsets = targets + n;
    int64_t *side = offsets + n;
    for (int64_t i = 0; i < n; i++) ids[i] = i;
    gv[0] = 0;
    gv[1] = n;
    first[0] = 0;
    parts[0] = nparts;
    int64_t k = nparts > 1, depth = 0;
    while (k) {
        for (int64_t g = 0; g < k; g++) {
            /* int64 arithmetic wraps as NumPy's did. */
            uint64_t total = 0;
            for (int64_t i = gv[g]; i < gv[g + 1]; i++)
                total += (uint64_t)vweights[ids[i]];
            const int64_t left = parts[g] / 2;
            const int64_t scaled = (int64_t)(total * (uint64_t)left);
            if (scaled >= ((int64_t)1 << 53)) {
                rc = -6;
                goto done;
            }
            targets[g] = (int64_t)rint((double)scaled / (double)parts[g]);
            offsets[g] = depth * 7919 + first[g];
            const int64_t size = gv[g + 1] - gv[g];
            int64_t h = (int64_t)rint((double)(size * left) / (double)parts[g]);
            if (h > size - (parts[g] - left)) h = size - (parts[g] - left);
            half[g] = h > left ? h : left;
        }
        rc = bisect_level(&rb, ids, gv, k, targets, offsets, side,
                          timing ? timing + RB_TIMES * depth : NULL);
        if (rc) goto done;
        k = rb_split(k, ids, gv, side, first, parts, half, assignment,
                     next_ids, next_gv, next_first, next_parts);
        int64_t *t;
        t = ids; ids = next_ids; next_ids = t;
        t = gv; gv = next_gv; next_gv = t;
        t = first; first = next_first; next_first = t;
        t = parts; parts = next_parts; next_parts = t;
        depth++;
    }
    rc = depth;
done:
    free(block);
    rb_free(&rb);
    return rc;
}

/* multilevel_bisection of the whole graph toward target_left: one
 * level with one group and seed offset 0.  side gets the n sides,
 * timing (NULL or RB_TIMES slots) the level's timings.  Returns 1, or
 * -1, -3, -4 or -5. */
int64_t rb_bisect(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *vweights,
    int64_t target_left,
    const uint32_t *seed,
    int64_t nseed,
    double ubfactor,
    const int64_t *params,
    int64_t *side,
    int64_t *timing)
{
    rb_t rb;
    int64_t rc = rb_init(&rb, n, indptr, indices, eweights, vweights, seed,
                         nseed, ubfactor, params);
    if (rc) return rc;
    int64_t *ids = xmalloc(n, sizeof(int64_t));
    if (!ids) {
        rb_free(&rb);
        return -1;
    }
    for (int64_t i = 0; i < n; i++) ids[i] = i;
    const int64_t gv[2] = {0, n}, offset = 0;
    rc = bisect_level(&rb, ids, gv, 1, &target_left, &offset, side, timing);
    free(ids);
    rb_free(&rb);
    return rc ? rc : 1;
}
