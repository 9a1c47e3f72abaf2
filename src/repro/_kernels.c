/* Hot-path kernels for the METIS-style partitioner.
 *
 * Compiled on demand by repro._native with the system C compiler and
 * loaded through ctypes; every routine is an exact int64 re-statement
 * of the pure-Python kernels in repro.metis.refine / repro.metis.initial
 * (which remain the reference implementation and the fallback):
 * fm_refine (FM bisection passes), kway_refine (one greedy K-way
 * sweep, edge-cut or TotalVol gain), hem_claim, subgraph_extract and
 * ggg_partition.
 *
 * Bit-identity contract: the Python kernels drain a lazy max-priority
 * queue whose keys (-gain, insertion counter) are unique, so the pop
 * order is exactly "highest gain first, FIFO within a gain value".
 * The linked-list bucket queues below reproduce that order verbatim;
 * kway_refine has no queue and visits vertices in the caller's
 * order.  All arithmetic is int64, matching Python's exact integers
 * on every value these algorithms can produce.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* FM bisection refinement                                             */
/* ------------------------------------------------------------------ */

/* Runs the full pass loop of fm_refine_bisection (after the caller has
 * handled rebalancing and the edgeless early exit).  `side` is updated
 * in place.  Returns 0 on success, -1 on allocation failure (caller
 * falls back to Python).
 */
int64_t fm_refine(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *vweights,
    int64_t *side,
    int64_t cap0, int64_t cap1,
    int64_t pcap0, int64_t pcap1,
    int64_t max_passes,
    int64_t bound,
    int64_t w0, int64_t w1)
{
    int64_t m2 = indptr[n];
    int64_t nbuckets = 2 * bound + 1;
    int64_t cap_entries = n + m2 + 1;
    int64_t locked_mark = bound + 1;
    int64_t *gain = malloc((size_t)n * sizeof(int64_t));
    int64_t *head = malloc((size_t)nbuckets * sizeof(int64_t));
    int64_t *tail = malloc((size_t)nbuckets * sizeof(int64_t));
    int64_t *ev = malloc((size_t)cap_entries * sizeof(int64_t));
    int64_t *enext = malloc((size_t)cap_entries * sizeof(int64_t));
    int64_t *moves = malloc((size_t)n * sizeof(int64_t));
    if (!gain || !head || !tail || !ev || !enext || !moves) {
        free(gain); free(head); free(tail); free(ev); free(enext); free(moves);
        return -1;
    }

    for (int64_t pass = 0; pass < max_passes; pass++) {
        /* Seed gains and the bucket queue (ascending vertex order =
         * the FIFO insertion order of the Python seeding). */
        memset(head, 0xff, (size_t)nbuckets * sizeof(int64_t));
        int64_t nentries = 0;
        int64_t pending = 0;
        int64_t maxg = -bound;
        for (int64_t v = 0; v < n; v++) {
            int64_t sv = side[v];
            int64_t g = 0;
            for (int64_t i = indptr[v]; i < indptr[v + 1]; i++)
                g += (side[indices[i]] != sv) ? eweights[i] : -eweights[i];
            gain[v] = g;
            int64_t gi = g + bound;
            int64_t e = nentries++;
            ev[e] = v;
            enext[e] = -1;
            if (head[gi] < 0) head[gi] = e; else enext[tail[gi]] = e;
            tail[gi] = e;
            if (g > maxg) maxg = g;
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
                int64_t g = gain[u];
                if (g > bound) continue; /* locked */
                int64_t w = eweights[i];
                /* Edge u-v flips between internal and external. */
                g += (side[u] == frm) ? 2 * w : -2 * w;
                gain[u] = g;
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

    free(gain); free(head); free(tail); free(ev); free(enext); free(moves);
    return 0;
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
 * two-hop census as _VolumeGainKernel, evaluated for every candidate
 * in one sweep over the census.
 *
 * Returns the number of accepted moves, or -1 on allocation failure
 * (before anything is modified; the caller falls back to Python).
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
 * order on ties).  Returns 0 on success, -1 on allocation failure.
 */
int64_t hem_claim(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *order,
    int64_t *match)
{
    uint8_t *matched = calloc((size_t)n, 1);
    if (!matched) return -1;
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
    free(matched);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Induced subgraph extraction                                         */
/* ------------------------------------------------------------------ */

/* Induced subgraph on `verts` (must be strictly ascending, so local
 * ids are monotone in global ids and each output adjacency row keeps
 * the parent's sorted order — the exact arrays of the lexsort-based
 * NumPy path).  Writes CSR arrays plus [max_incident, total_vweight,
 * max_vweight] into out_scalars.  Returns the output edge count, -1
 * on allocation failure, -2 if `verts` is not strictly ascending.
 */
int64_t subgraph_extract(
    int64_t n_parent,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *vweights,
    const int64_t *verts,
    int64_t k,
    int64_t *out_indptr,
    int64_t *out_indices,
    int64_t *out_weights,
    int64_t *out_vweights,
    int64_t *out_scalars)
{
    for (int64_t i = 1; i < k; i++)
        if (verts[i] <= verts[i - 1]) return -2;
    int64_t *local = malloc((size_t)n_parent * sizeof(int64_t));
    if (!local) return -1;
    memset(local, 0xff, (size_t)n_parent * sizeof(int64_t));
    for (int64_t i = 0; i < k; i++) local[verts[i]] = i;
    int64_t nnz = 0, maxinc = 0, total_vw = 0, max_vw = 0;
    out_indptr[0] = 0;
    for (int64_t i = 0; i < k; i++) {
        int64_t g = verts[i];
        int64_t inc = 0;
        for (int64_t j = indptr[g]; j < indptr[g + 1]; j++) {
            int64_t li = local[indices[j]];
            if (li >= 0) {
                out_indices[nnz] = li;
                out_weights[nnz] = eweights[j];
                inc += eweights[j];
                nnz++;
            }
        }
        if (inc > maxinc) maxinc = inc;
        out_indptr[i + 1] = nnz;
        int64_t vw = vweights[g];
        out_vweights[i] = vw;
        total_vw += vw;
        if (vw > max_vw) max_vw = vw;
    }
    free(local);
    out_scalars[0] = maxinc;
    out_scalars[1] = total_vw;
    out_scalars[2] = max_vw;
    return nnz;
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
 * from vertex 0"), best (lowest, first-wins) cut kept.  Writes the
 * winning side into `best_side`.  Returns 0 on success, -1 on
 * allocation failure.
 */
int64_t ggg_partition(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *eweights,
    const int64_t *vweights,
    const int64_t *starts,
    int64_t ntrials,
    int64_t target_left,
    int64_t bound,
    int64_t *best_side)
{
    int64_t m2 = indptr[n];
    int64_t nbuckets = 2 * bound + 1;
    int64_t cap_entries = m2 + 2;
    int64_t *total_w = malloc((size_t)n * sizeof(int64_t));
    int64_t *side = malloc((size_t)n * sizeof(int64_t));
    int64_t *gain_cache = malloc((size_t)n * sizeof(int64_t));
    uint8_t *frontier_seen = malloc((size_t)n);
    int64_t *head = malloc((size_t)nbuckets * sizeof(int64_t));
    int64_t *tail = malloc((size_t)nbuckets * sizeof(int64_t));
    int64_t *ev = malloc((size_t)cap_entries * sizeof(int64_t));
    int64_t *enext = malloc((size_t)cap_entries * sizeof(int64_t));
    /* level/queue scratch for the pseudo-peripheral BFS reuses
     * gain_cache/side before the trials start. */
    if (!total_w || !side || !gain_cache || !frontier_seen ||
        !head || !tail || !ev || !enext) {
        free(total_w); free(side); free(gain_cache); free(frontier_seen);
        free(head); free(tail); free(ev); free(enext);
        return -1;
    }
    for (int64_t v = 0; v < n; v++) {
        int64_t s = 0;
        for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) s += eweights[i];
        total_w[v] = s;
    }
    int64_t best_cut = 0;
    int has_best = 0;
    for (int64_t t = 0; t < ntrials; t++) {
        int64_t start = starts[t];
        if (start < 0)
            start = pseudo_peripheral(n, indptr, indices, gain_cache, side);
        int64_t cut = ggg_grow_one(
            n, indptr, indices, eweights, vweights, total_w,
            start, target_left, bound,
            side, gain_cache, frontier_seen, head, tail, ev, enext);
        if (!has_best || cut < best_cut) {
            has_best = 1;
            best_cut = cut;
            memcpy(best_side, side, (size_t)n * sizeof(int64_t));
        }
    }
    free(total_w); free(side); free(gain_cache); free(frontier_seen);
    free(head); free(tail); free(ev); free(enext);
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
 * Bit-identity contract with the numpy fallback in repro.seam.dss:
 * each point's contributions accumulate in ascending element-local
 * order (the same per-point order as weighted np.bincount over the
 * segment-major id array), the average is a multiply by the
 * reciprocal mass, and the library is compiled with -ffp-contract=off
 * so the mul/add pair is never fused into an FMA the fallback would
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
 * registers (the vectorized fallback pays ~10 array passes for it). */
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
