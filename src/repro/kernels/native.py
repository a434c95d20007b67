"""The ``cnative`` backend: the kernels as C, compiled on demand.

The C source below is the only implementation of the kernels.  Each one
replicates a numpy engine path (its oracle) with the same integer and
float operations in the same order, so results are byte-identical to
``REPRO_KERNELS=numpy`` — ``tests/test_kernel_parity.py`` checks every
kernel against its oracle.  The source is compiled once per source digest
with the system C compiler into a shared library under the kernel cache
directory (``$REPRO_KERNELS_CACHE`` or ``~/.cache/repro-kernels``), and
loaded via :mod:`ctypes`.  Builds are atomic (tmp + :func:`os.replace`) and
keyed by the sha256 of the source, so concurrent processes race benignly
and a source change can never pick up a stale binary.

Anything going wrong — no compiler, sandboxed filesystem, a cross-compile
toolchain that produces unloadable objects — raises
:class:`NativeBuildError`, which the dispatch layer in
:mod:`repro.kernels` treats as "backend unavailable" (falling back to
numpy); it is never fatal.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np

__all__ = ["NativeBuildError", "build_native_kernels", "library_path", "route_args"]


class NativeBuildError(RuntimeError):
    """The C backend could not be built or loaded on this machine."""


C_SOURCE = r"""
/* repro.kernels native backend.
 *
 * All arrays are C-contiguous; int64/uint64/double/uint8 match the numpy
 * dtypes the wrappers enforce.  The event queue replicates
 * repro.simulation.events.BatchEventQueue structurally: a min-heap of
 * DISTINCT times, per-time FIFO buckets as intrusive linked lists over the
 * event slots, and an open-addressing time->bucket hash with tombstones
 * (state -1 = empty, -2 = dead).  Distinct heap times make time-only
 * ordering reproduce the (time, insertion-sequence) contract.
 */
#include <stdint.h>
#include <string.h>

/* Every exported kernel starts on a cache line, so an edit elsewhere in
 * the source cannot shift its hot loop across one and slow it down. */
#define EXPORT __attribute__((visibility("default"), aligned(64)))

/* ------------------------------------------------------------------ apsp */

/* repro.graphs.apsp._BitSweep + the batched_eccentricities loop: reach /
 * scratch are (n, w) ping-pong buffers, reach seeded with the identity
 * bits, ecc at -1.  Returns 1 when the upper_bound cut fired (< 0 turns
 * it off), else 0. */
EXPORT int64_t ecc_sweep(
    const int64_t *succ, uint64_t *reach, uint64_t *scratch,
    const uint64_t *full_row, int64_t *ecc, uint8_t *done,
    int64_t n, int64_t d, int64_t w, int64_t upper_bound)
{
    int64_t num_done = 0;
    for (int64_t u = 0; u < n; u++) {
        int complete = 1;
        for (int64_t i = 0; i < w; i++) {
            if (reach[u * w + i] != full_row[i]) { complete = 0; break; }
        }
        if (complete) { done[u] = 1; ecc[u] = 0; num_done++; }
    }
    uint64_t *cur = reach;
    uint64_t *nxt = scratch;
    int64_t level = 0;
    while (num_done < n) {
        if (upper_bound >= 0 && level >= upper_bound) return 1;
        level++;
        if (d == 0) break;  /* no out-arcs anywhere: converged */
        int changed = 0;
        for (int64_t u = 0; u < n; u++) {
            const int64_t *row = succ + u * d;
            uint64_t *out = nxt + u * w;
            const uint64_t *s0 = cur + row[0] * w;
            for (int64_t i = 0; i < w; i++) out[i] = s0[i];
            for (int64_t j = 1; j < d; j++) {
                const uint64_t *sj = cur + row[j] * w;
                for (int64_t i = 0; i < w; i++) out[i] |= sj[i];
            }
            const uint64_t *self = cur + u * w;
            for (int64_t i = 0; i < w; i++) out[i] |= self[i];
            if (!changed) {
                for (int64_t i = 0; i < w; i++) {
                    if (out[i] != self[i]) { changed = 1; break; }
                }
            }
        }
        if (!changed) break;  /* converged: the rest can never complete */
        uint64_t *tmp = cur; cur = nxt; nxt = tmp;
        for (int64_t u = 0; u < n; u++) {
            if (done[u]) continue;
            int complete = 1;
            for (int64_t i = 0; i < w; i++) {
                if (cur[u * w + i] != full_row[i]) { complete = 0; break; }
            }
            if (complete) { done[u] = 1; ecc[u] = level; num_done++; }
        }
    }
    return 0;
}

/* Transposed sweep: bit b of state row v = "sources[b] reaches v"; a bit
 * new at level L writes rows[b, v] = L (rows pre-filled: -1, diagonal 0). */
EXPORT void subset_rows_sweep(
    const int64_t *pred, uint64_t *state, uint64_t *scratch,
    int64_t *rows, int64_t n, int64_t d, int64_t w)
{
    if (d == 0) return;
    uint64_t *cur = state;
    uint64_t *nxt = scratch;
    int64_t level = 0;
    for (;;) {
        level++;
        int changed = 0;
        for (int64_t v = 0; v < n; v++) {
            const int64_t *row = pred + v * d;
            uint64_t *out = nxt + v * w;
            const uint64_t *p0 = cur + row[0] * w;
            for (int64_t i = 0; i < w; i++) out[i] = p0[i];
            for (int64_t j = 1; j < d; j++) {
                const uint64_t *pj = cur + row[j] * w;
                for (int64_t i = 0; i < w; i++) out[i] |= pj[i];
            }
            const uint64_t *self = cur + v * w;
            for (int64_t i = 0; i < w; i++) out[i] |= self[i];
            if (!changed) {
                for (int64_t i = 0; i < w; i++) {
                    if (out[i] != self[i]) { changed = 1; break; }
                }
            }
        }
        if (!changed) return;
        for (int64_t v = 0; v < n; v++) {
            for (int64_t i = 0; i < w; i++) {
                uint64_t x = nxt[v * w + i] & ~cur[v * w + i];
                while (x) {
                    int64_t b = __builtin_ctzll(x);
                    rows[(i * 64 + b) * n + v] = level;
                    x &= x - 1;
                }
            }
        }
        uint64_t *tmp = cur; cur = nxt; nxt = tmp;
    }
}

/* The out-arc slot of every (column b, vertex u) of k distance-to-target
 * rows (rows[b, u] = dist(u, t_b), -1 unreachable): the lowest j with
 * rows[b, succ[u, j]] == rows[b, u] - 1, else 255 (u unreachable or u is
 * t_b).  The numpy derivation of repro.routing.routers is the oracle. */
EXPORT void slot_columns(
    const int64_t *succ, const int64_t *rows, uint8_t *slot,
    int64_t n, int64_t d, int64_t k)
{
    for (int64_t b = 0; b < k; b++) {
        const int64_t *row = rows + b * n;
        uint8_t *out = slot + b * n;
        for (int64_t u = 0; u < n; u++) {
            int64_t closer = row[u] - 1;
            if (closer < 0) closer = INT64_MIN;  /* no head can match */
            const int64_t *heads = succ + u * d;
            int64_t s = 255;
            for (int64_t j = d - 1; j >= 0; j--)  /* branch-free: lowest wins */
                s = row[heads[j]] == closer ? j : s;
            out[u] = (uint8_t)s;
        }
    }
}

/* Transposed sweep with streaming per-source eccentricities: full masks
 * the k valid bits, done is the completed-source bitmask, ecc starts at
 * -1.  Returns 1 when the upper_bound cut fired. */
EXPORT int64_t subset_ecc_sweep(
    const int64_t *pred, uint64_t *state, uint64_t *scratch,
    const uint64_t *full, uint64_t *done, int64_t *ecc,
    int64_t n, int64_t d, int64_t w, int64_t k, int64_t upper_bound)
{
    int64_t num_done = 0;
    for (int64_t i = 0; i < w; i++) {
        uint64_t c = state[i];
        for (int64_t v = 1; v < n; v++) c &= state[v * w + i];
        c &= full[i];
        done[i] = c;
        while (c) {
            int64_t b = __builtin_ctzll(c);
            ecc[i * 64 + b] = 0;
            num_done++;
            c &= c - 1;
        }
    }
    uint64_t *cur = state;
    uint64_t *nxt = scratch;
    int64_t level = 0;
    while (num_done < k) {
        if (upper_bound >= 0 && level >= upper_bound) return 1;
        level++;
        if (d == 0) break;
        int changed = 0;
        for (int64_t v = 0; v < n; v++) {
            const int64_t *row = pred + v * d;
            uint64_t *out = nxt + v * w;
            const uint64_t *p0 = cur + row[0] * w;
            for (int64_t i = 0; i < w; i++) out[i] = p0[i];
            for (int64_t j = 1; j < d; j++) {
                const uint64_t *pj = cur + row[j] * w;
                for (int64_t i = 0; i < w; i++) out[i] |= pj[i];
            }
            const uint64_t *self = cur + v * w;
            for (int64_t i = 0; i < w; i++) out[i] |= self[i];
            if (!changed) {
                for (int64_t i = 0; i < w; i++) {
                    if (out[i] != self[i]) { changed = 1; break; }
                }
            }
        }
        if (!changed) break;  /* converged: the rest can never cover */
        uint64_t *tmp = cur; cur = nxt; nxt = tmp;
        for (int64_t i = 0; i < w; i++) {
            uint64_t c = cur[i];
            for (int64_t v = 1; v < n; v++) c &= cur[v * w + i];
            uint64_t newly = (c & full[i]) & ~done[i];
            done[i] |= c & full[i];
            while (newly) {
                int64_t b = __builtin_ctzll(newly);
                ecc[i * 64 + b] = level;
                num_done++;
                newly &= newly - 1;
            }
        }
    }
    return 0;
}

/* ---------------------------------------------------------------- screen */

/* One queue BFS from vertex 0 over an (n, d) int32 adjacency table: -1 when
 * a vertex is unreachable, 1 when a distance exceeds bound, else 0.  The
 * visit is branch-free (every head is written at queue[tail], kept only
 * when unseen), so queue holds n + 1 entries.  Cache-line aligned: its
 * loop ran ~15% slower starting 32 bytes past a 64-byte boundary. */
__attribute__((aligned(64))) static int64_t bfs_from_zero(
    const int32_t *adj, int32_t *dist, int32_t *queue, int64_t n, int64_t d,
    int64_t bound)
{
    for (int64_t v = 0; v < n; v++) dist[v] = -1;
    dist[0] = 0;
    queue[0] = 0;
    int64_t head = 0, tail = 1;
    while (head < tail) {
        int32_t u = queue[head++];
        int32_t du = dist[u] + 1;
        const int32_t *row = adj + (int64_t)u * d;
        for (int64_t j = 0; j < d; j++) {
            int32_t v = row[j];
            int32_t dv = dist[v];
            int64_t unseen = dv < 0;
            dist[v] = unseen ? du : dv;
            queue[tail] = v;
            tail += unseen;
        }
    }
    if (tail < n) return -1;
    if (dist[queue[n - 1]] > bound) return 1;
    return 0;
}

/* Stages 1-2 of repro.otis.search.h_diameter for every split H(p[k], q[k], d):
 * forward, then reverse BFS from vertex 0.  The tables come from
 * repro.otis.h_digraph's formula by additions only: transmitter
 * t = i*q + j lights receiver r = (q-j-1)*p + (p-i-1), so succ[t] =
 * node_of[r] and pred[r] = node_of[t] with node_of[x] = x / d.  work holds
 * node_of | succ | pred (m = p*q each) | dist (n = m/d) | queue (n + 1) for
 * the largest split.  status[k] is -1 when a vertex is unreachable, 1 when a
 * distance exceeds min(upper_bound, n), 0 when the split passed. */
EXPORT void screen_splits(
    const int64_t *ps, const int64_t *qs, int64_t count, int64_t d,
    int64_t upper_bound, int32_t *work, int64_t *status)
{
    for (int64_t k = 0; k < count; k++) {
        int64_t p = ps[k], q = qs[k];
        int64_t m = p * q, n = m / d;
        int32_t *node_of = work;
        int32_t *succ = work + m;
        int32_t *pred = work + 2 * m;
        int32_t *dist = work + 3 * m;
        int32_t *queue = dist + n;
        int32_t node = 0;
        int64_t slot = 0;
        for (int64_t x = 0; x < m; x++) {
            node_of[x] = node;
            if (++slot == d) { slot = 0; node++; }
        }
        int64_t t = 0, first = m;
        for (int64_t i = 0; i < p; i++) {
            first--;  /* receiver of transmitter (i, 0): m - 1 - i */
            int64_t r = first;
            for (int64_t j = 0; j < q; j++, t++, r -= p) succ[t] = node_of[r];
        }
        int64_t bound = upper_bound < n ? upper_bound : n;
        int64_t verdict = bfs_from_zero(succ, dist, queue, n, d, bound);
        if (verdict == 0) {
            /* most splits stop above, so the reverse table is built here */
            t = 0; first = m;
            for (int64_t i = 0; i < p; i++) {
                first--;
                int64_t r = first;
                for (int64_t j = 0; j < q; j++, t++, r -= p) pred[r] = node_of[t];
            }
            verdict = bfs_from_zero(pred, dist, queue, n, d, bound);
        }
        status[k] = verdict;
    }
}

/* --------------------------------------------------------------- routing */

/* pw[j] = base**j for j < D (the wrappers keep D <= 63) and *shift = the
 * bits of base; returns 1 when base is a power of two, whose words take
 * shifts and masks instead of % and /. */
static inline int shift_powers(int64_t base, int64_t D, int64_t *pw, int64_t *shift)
{
    int64_t s = 0;
    while (((int64_t)1 << s) < base) s++;
    *shift = s;
    pw[0] = 1;
    for (int64_t j = 1; j < D; j++) pw[j] = pw[j - 1] * base;
    return ((int64_t)1 << s) == base;
}

/* The vertex count of a shift spec: n_to, or base**D for the identity
 * relabelling (INT64_MAX past int64). */
static inline int64_t shift_vertices(int64_t base, int64_t D, const int64_t *pw, int64_t n_to)
{
    if (n_to > 0) return n_to;
    return pw[D - 1] > INT64_MAX / base ? INT64_MAX : pw[D - 1] * base;
}

/* The longest suffix(u) / prefix(v) overlap of two word codes, longest
 * first: the largest j < D with u mod base**j == v div base**(D-j), else 0. */
static inline int64_t shift_overlap(
    int64_t u, int64_t v, int64_t D, const int64_t *pw, int64_t shift, int pow2)
{
    if (pow2) {
        for (int64_t j = D - 1; j > 0; j--)
            if ((u & (pw[j] - 1)) == (v >> (shift * (D - j)))) return j;
    } else {
        for (int64_t j = D - 1; j > 0; j--)
            if (u % pw[j] == v / pw[D - j]) return j;
    }
    return 0;
}

/* Word code -> vertex: binary search over the sorted codes, from_code, or
 * the identity; the caller keeps code inside from_code. */
static inline int64_t shift_decode(
    int64_t code, const int64_t *to_code, int64_t n_to,
    const int64_t *from_code, int64_t n_from, int64_t sorted_codes)
{
    if (sorted_codes) {
        int64_t lo = 0, hi = n_to;
        while (lo < hi) {
            int64_t mid = (lo + hi) >> 1;
            if (to_code[mid] < code) lo = mid + 1;
            else hi = mid;
        }
        return lo;
    }
    return n_from > 0 ? from_code[code] : code;
}

/* Closed-form next hops; n_to / n_from = 0 means identity relabelling.
 * Returns -1, or the first pair whose vertex or code is out of range. */
EXPORT int64_t shift_next_hops(
    const int64_t *cur, const int64_t *tgt, int64_t count, int64_t base,
    int64_t D, const int64_t *to_code, int64_t n_to, const int64_t *from_code,
    int64_t n_from, int64_t sorted_codes, int64_t *out)
{
    int64_t pw[64], shift;
    int pow2 = shift_powers(base, D, pw, &shift);
    int64_t n = shift_vertices(base, D, pw, n_to);
    for (int64_t i = 0; i < count; i++) {
        int64_t u = cur[i];
        int64_t v = tgt[i];
        if (u < 0 || u >= n || v < 0 || v >= n) return i;
        if (n_to > 0) {
            u = to_code[u];
            v = to_code[v];
        }
        int64_t code;
        if (u == v) {
            code = u;
        } else if (pow2) {
            int64_t overlap = shift_overlap(u, v, D, pw, shift, 1);
            int64_t digit = (v >> (shift * (D - 1 - overlap))) & (base - 1);
            code = ((u & (pw[D - 1] - 1)) << shift) | digit;
        } else {
            int64_t overlap = shift_overlap(u, v, D, pw, shift, 0);
            int64_t digit = (v / pw[D - 1 - overlap]) % base;
            code = (u % pw[D - 1]) * base + digit;
        }
        if (!sorted_codes && n_from > 0 && (code < 0 || code >= n_from)) return i;
        out[i] = shift_decode(code, to_code, n_to, from_code, n_from, sorted_codes);
    }
    return -1;
}

/* Closed-form hop counts of the shift walk, which shifts in v's letters
 * past the overlap one per hop: 0 when u == v, else D minus the longest
 * suffix(u) / prefix(v) overlap.  Takes shift_next_hops' arguments;
 * returns -1, or the first pair with a vertex out of range. */
EXPORT int64_t shift_path_lengths(
    const int64_t *cur, const int64_t *tgt, int64_t count, int64_t base,
    int64_t D, const int64_t *to_code, int64_t n_to, const int64_t *from_code,
    int64_t n_from, int64_t sorted_codes, int64_t *out)
{
    int64_t pw[64], shift;
    int pow2 = shift_powers(base, D, pw, &shift);
    int64_t n = shift_vertices(base, D, pw, n_to);
    for (int64_t i = 0; i < count; i++) {
        int64_t u = cur[i];
        int64_t v = tgt[i];
        if (u < 0 || u >= n || v < 0 || v >= n) return i;
        if (n_to > 0) {
            u = to_code[u];
            v = to_code[v];
        }
        out[i] = u == v ? 0 : D - shift_overlap(u, v, D, pw, shift, pow2);
    }
    return -1;
}

/* ------------------------------------------------------------- simulator */

/* The queue arrays travel together, in this order (C = event slots,
 * H = power-of-two hash size >= 2C):
 *   heap_time f8[C], heap_bid i64[C]   heap of distinct live times + bucket
 *   bucket_head/bucket_tail i64[C]     per-bucket FIFO ends over the slots
 *   next_slot i64[C]                   intrusive slot list (-1 = end)
 *   free_bids i64[C]                   bucket-id free list
 *   hash_time f8[H], hash_state i64[H] time -> bucket id, -1 empty, -2 dead
 *   qstate i64[4]                      heap size, free-list top, used slots */
#define QUEUE_PARAMS \
    double *heap_time, int64_t *heap_bid, \
    int64_t *bucket_head, int64_t *bucket_tail, int64_t *next_slot, \
    int64_t *free_bids, double *hash_time, int64_t *hash_state, \
    int64_t *qstate, int64_t H
#define QUEUE_ARGS \
    heap_time, heap_bid, bucket_head, bucket_tail, next_slot, \
    free_bids, hash_time, hash_state, qstate, H

static inline uint64_t hash_bits(double t)
{
    if (t == 0.0) t = 0.0;  /* +0.0 and -0.0 share a bucket, like dict keys */
    uint64_t b;
    __builtin_memcpy(&b, &t, 8);
    b ^= b >> 33; b ^= b << 25; b ^= b >> 13; b ^= b << 41; b ^= b >> 29;
    return b;
}

/* Find t's bucket id (idx_out = its table index), or -1 (idx_out = where
 * to insert: the first tombstone probed, else the empty slot). */
static int64_t hash_locate(
    const double *hash_time, const int64_t *hash_state, int64_t H,
    double t, int64_t *idx_out)
{
    uint64_t mask = (uint64_t)(H - 1);
    uint64_t idx = hash_bits(t) & mask;
    int64_t first_free = -1;
    for (;;) {
        int64_t s = hash_state[idx];
        if (s == -1) {
            *idx_out = first_free >= 0 ? first_free : (int64_t)idx;
            return -1;
        }
        if (s == -2) {
            if (first_free < 0) first_free = (int64_t)idx;
        } else if (hash_time[idx] == t) {
            *idx_out = (int64_t)idx;
            return s;
        }
        idx = (idx + 1) & mask;
    }
}

/* Enqueue slot at time t: append to the existing bucket (FIFO), or claim
 * a bucket id off the free list and push the new distinct time onto the
 * heap.  qstate = [heap size, free-list top, used hash slots]. */
static void queue_push(QUEUE_PARAMS, double t, int64_t slot)
{
    next_slot[slot] = -1;
    int64_t ins;
    int64_t bid = hash_locate(hash_time, hash_state, H, t, &ins);
    if (bid >= 0) {
        next_slot[bucket_tail[bid]] = slot;
        bucket_tail[bid] = slot;
        return;
    }
    qstate[1]--;
    bid = free_bids[qstate[1]];
    bucket_head[bid] = slot;
    bucket_tail[bid] = slot;
    if (hash_state[ins] == -1) qstate[2]++;  /* consuming a never-used slot */
    hash_time[ins] = t;
    hash_state[ins] = bid;
    int64_t i = qstate[0]++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (t < heap_time[p]) {
            heap_time[i] = heap_time[p];
            heap_bid[i] = heap_bid[p];
            i = p;
        } else break;
    }
    heap_time[i] = t;
    heap_bid[i] = bid;
    if (2 * qstate[2] > H) {
        /* rebuild from the live heap entries, dropping all tombstones */
        for (int64_t x = 0; x < H; x++) hash_state[x] = -1;
        uint64_t mask = (uint64_t)(H - 1);
        for (int64_t e = 0; e < qstate[0]; e++) {
            double te = heap_time[e];
            uint64_t idx = hash_bits(te) & mask;
            while (hash_state[idx] != -1) idx = (idx + 1) & mask;
            hash_time[idx] = te;
            hash_state[idx] = heap_bid[e];
        }
        qstate[2] = qstate[0];
    }
}

EXPORT void queue_schedule(
    QUEUE_PARAMS, const int64_t *slots, const double *times, int64_t count)
{
    for (int64_t c = 0; c < count; c++)
        queue_push(QUEUE_ARGS, times[c], slots[c]);
}

/* Drain the minimum-time bucket (up to limit events) into slots_out and
 * return the count; a limit hit leaves the leftovers queued at t. */
static int64_t queue_pop(QUEUE_PARAMS, int64_t limit, int64_t *slots_out)
{
    double t = heap_time[0];
    int64_t bid = heap_bid[0];
    int64_t count = 0;
    int64_t cur = bucket_head[bid];
    while (cur >= 0 && count < limit) {
        slots_out[count++] = cur;
        cur = next_slot[cur];
    }
    if (cur >= 0) {
        bucket_head[bid] = cur;  /* limit hit: leftovers stay queued at t */
    } else {
        /* bucket drained: retire it and pop the time off the heap */
        free_bids[qstate[1]] = bid;
        qstate[1]++;
        int64_t idx;
        hash_locate(hash_time, hash_state, H, t, &idx);
        hash_state[idx] = -2;  /* tombstone */
        int64_t size = qstate[0] - 1;
        qstate[0] = size;
        double mt = heap_time[size];
        int64_t mb = heap_bid[size];
        int64_t i = 0;
        for (;;) {
            int64_t c = 2 * i + 1;
            if (c >= size) break;
            if (c + 1 < size && heap_time[c + 1] < heap_time[c]) c = c + 1;
            if (heap_time[c] < mt) {
                heap_time[i] = heap_time[c];
                heap_bid[i] = heap_bid[c];
                i = c;
            } else break;
        }
        if (size > 0) { heap_time[i] = mt; heap_bid[i] = mb; }
    }
    return count;
}

/* queue_pop, then gather the forwarding subset's node / destination into
 * tails_out / dests_out without mutating state; *nfwd = their number.
 * Returns the popped count. */
static int64_t pop_round(
    QUEUE_PARAMS, int64_t limit, const int64_t *loc, const int64_t *dst,
    int64_t *slots_out, int64_t *tails_out, int64_t *dests_out, int64_t *nfwd)
{
    int64_t count = queue_pop(QUEUE_ARGS, limit, slots_out);
    int64_t f = 0;
    for (int64_t k = 0; k < count; k++) {
        int64_t cur = slots_out[k];
        int64_t node = loc[cur];
        if (node != dst[cur]) {
            tails_out[f] = node;
            dests_out[f] = dst[cur];
            f++;
        }
    }
    *nfwd = f;
    return count;
}

/* The simulator state arrays run_rounds and run_scenario share. */
#define STATE_PARAMS \
    int64_t *loc, const int64_t *dst, int64_t *hops, double *arrival, \
    int64_t *prev_link, const int64_t *rep, double *last_time, \
    double *busy_until, int64_t *queue_len, int64_t *max_queue, \
    int64_t *tx_count, \
    const int64_t *group_keys, const int64_t *group_ptr, \
    const int64_t *flat_links, const int64_t *vertex_groups, \
    int64_t n, int64_t m
#define STATE_ARGS \
    loc, dst, hops, arrival, prev_link, rep, last_time, busy_until, \
    queue_len, max_queue, tx_count, group_keys, group_ptr, flat_links, \
    vertex_groups, n, m

/* The routing arguments: slot columns of a table router (n_col > 0: the
 * hop from u towards t is succ[u, slot[col[t] * n + u]], 255 unreachable),
 * else the shift rule of shift_next_hops. */
#define ROUTE_PARAMS \
    int64_t base, int64_t D, const int64_t *to_code, int64_t n_to, \
    const int64_t *from_code, int64_t n_from, int64_t sorted_codes, \
    const int64_t *succ, int64_t d, const uint8_t *slot, \
    const int64_t *col, int64_t n_col
#define ROUTE_ARGS \
    base, D, to_code, n_to, from_code, n_from, sorted_codes, \
    succ, d, slot, col, n_col

/* Next hops of count (node, target) pairs by slot columns or shift rule.
 * Returns -1, or the first pair outside the relabelling or the columns. */
static int64_t route_pairs(
    const int64_t *cur, const int64_t *tgt, int64_t count, int64_t n,
    ROUTE_PARAMS, int64_t *out)
{
    if (n_col == 0)
        return shift_next_hops(cur, tgt, count, base, D, to_code, n_to,
                               from_code, n_from, sorted_codes, out);
    for (int64_t i = 0; i < count; i++) {
        int64_t u = cur[i], c = col[tgt[i]];
        if (c < 0) return i;
        uint8_t s = slot[c * n + u];
        out[i] = s == 255 ? (u == tgt[i] ? u : -1) : succ[u * d + s];
    }
    return -1;
}

/* The routed paths of count (source, target) pairs, pair i's vertices at
 * vertices[offsets[i] .. offsets[i + 1]) (none: unreachable; else its hop
 * count plus one).  By slot columns, a walk; by the shift rule, the words
 * in closed form: after h of L hops, the last D - h letters of u then the
 * h letters of v past their overlap.  n is the table's vertex count (0 for
 * a shift spec, whose own count is used).  Returns -1, or the first pair
 * whose endpoint is outside the vertices or the columns, or whose column
 * walk does not end at its target after its hop count. */
EXPORT int64_t route_paths(
    const int64_t *src, const int64_t *tgt, int64_t count, int64_t n,
    ROUTE_PARAMS, const int64_t *offsets, int64_t *vertices)
{
    int64_t pw[64], shift = 0;
    int pow2 = 0;
    if (n_col == 0) {
        pow2 = shift_powers(base, D, pw, &shift);
        n = shift_vertices(base, D, pw, n_to);
    }
    for (int64_t i = 0; i < count; i++) {
        int64_t at = offsets[i], hops = offsets[i + 1] - at - 1;
        if (hops < 0) continue;  /* unreachable */
        int64_t u = src[i], t = tgt[i];
        if (u < 0 || u >= n || t < 0 || t >= n) return i;
        int64_t *path = vertices + at;
        path[0] = u;
        if (n_col > 0) {
            if (col[t] < 0) return i;
            const uint8_t *column = slot + col[t] * n;
            for (int64_t h = 1; h <= hops; h++) {
                uint8_t s = column[u];
                if (s == 255) return i;
                path[h] = u = succ[u * d + s];
            }
            if (u != t) return i;
            continue;
        }
        int64_t uc = n_to > 0 ? to_code[u] : u, vc = n_to > 0 ? to_code[t] : t;
        if (hops > D) return i;
        for (int64_t h = 1; h < hops; h++) {
            int64_t code = pow2
                ? ((uc & (pw[D - h] - 1)) << (shift * h))
                      | ((vc >> (shift * (hops - h))) & (pw[h] - 1))
                : (uc % pw[D - h]) * pw[h] + (vc / pw[hops - h]) % pw[h];
            path[h] = shift_decode(code, to_code, n_to, from_code, n_from,
                                   sorted_codes);
        }
        path[hops] = t;
    }
    return -1;
}

/* Resolve one popped batch in sequence order with the float ops of
 * NetworkSimulator (start = max(t, busy), finish = start + T; earliest-free
 * link by strict < over ascending ids); nxt holds the forwarders' next
 * hops.  Returns 0, or 1 on a non-arc hop (meta = node, hop). */
static int64_t finish_round(
    double t, double T, double L, int64_t count,
    const int64_t *slots, const int64_t *nxt, STATE_PARAMS, QUEUE_PARAMS,
    int64_t *meta)
{
    int64_t j = 0;
    for (int64_t k2 = 0; k2 < count; k2++) {
        int64_t i = slots[k2];
        int64_t r = rep[i];
        last_time[r] = t;
        int64_t il = prev_link[i];
        if (il >= 0) {
            hops[i]++;
            queue_len[il]--;
        }
        int64_t node = loc[i];
        if (node == dst[i]) {
            arrival[i] = t;
            continue;
        }
        int64_t nx = nxt[j++];
        if (nx < 0) continue;  /* unreachable: drop */
        /* the vertex's groups are contiguous in the sorted key array and
           number at most the out-degree: linear-probe that tiny range */
        int64_t key = node * n + nx;
        int64_t g = -1;
        for (int64_t q2 = vertex_groups[node]; q2 < vertex_groups[node + 1]; q2++) {
            if (group_keys[q2] == key) { g = q2; break; }
        }
        if (g < 0) {  /* the router named a hop that is not an arc */
            meta[0] = node;
            meta[1] = nx;
            return 1;
        }
        int64_t base = r * m;
        int64_t p0 = group_ptr[g], p1 = group_ptr[g + 1];
        int64_t best = base + flat_links[p0];
        double bb = busy_until[best];
        for (int64_t p = p0 + 1; p < p1; p++) {
            int64_t cand = base + flat_links[p];
            double cb = busy_until[cand];
            if (cb < bb) { best = cand; bb = cb; }
        }
        double start = t > bb ? t : bb;
        double finish = start + T;
        busy_until[best] = finish;
        int64_t depth = queue_len[best] + 1;
        queue_len[best] = depth;
        if (depth > max_queue[r]) max_queue[r] = depth;
        tx_count[r]++;
        prev_link[i] = best;
        loc[i] = nx;
        queue_push(QUEUE_ARGS, finish + L, i);
    }
    return 0;
}

/* The healthy event loop of BatchedNetworkSimulator.run_many (its numpy
 * vector path is the oracle): per round pop_round, route_pairs,
 * finish_round.  Returns 0, 1 on a non-arc hop, 2 on a pair outside the
 * relabelling (meta = node, hop or destination). */
EXPORT int64_t run_rounds(
    double T, double L, int64_t has_until, double until, int64_t max_events,
    STATE_PARAMS, QUEUE_PARAMS, int64_t *slots_buf, int64_t *meta,
    ROUTE_PARAMS, int64_t *tails_buf, int64_t *dests_buf, int64_t *nxt_buf)
{
    int64_t processed = 0;
    while (qstate[0] > 0) {
        double t = heap_time[0];
        if (has_until && t > until) break;
        int64_t limit = max_events - processed;
        if (limit <= 0) break;
        int64_t nfwd;
        int64_t count = pop_round(QUEUE_ARGS, limit, loc, dst, slots_buf,
                                  tails_buf, dests_buf, &nfwd);
        processed += count;
        int64_t bad = route_pairs(tails_buf, dests_buf, nfwd, n, ROUTE_ARGS,
                                  nxt_buf);
        if (bad >= 0) {
            meta[0] = tails_buf[bad];
            meta[1] = dests_buf[bad];
            return 2;
        }
        int64_t status = finish_round(t, T, L, count, slots_buf, nxt_buf,
                                      STATE_ARGS, QUEUE_ARGS, meta);
        if (status != 0) return status;
    }
    return 0;
}

/* Is some link of link group g up? */
static inline int group_live(
    const int64_t *group_ptr, const int64_t *flat_links,
    const uint8_t *link_down, int64_t g)
{
    for (int64_t p = group_ptr[g]; p < group_ptr[g + 1]; p++) {
        if (!link_down[flat_links[p]]) return 1;
    }
    return 0;
}

/* A whole degrading-scenario pass (the scalar loop of
 * repro.simulation.network._scenario_loop is its oracle): fault slots
 * >= num_messages, node/TTL drops, table or shift primary hops, greedy
 * deflection over healthy hop-count columns (dist(v, t) is
 * distance[dist_col[t] * n + v]), live links with buffer room, retries.
 * n_distance == 0 is reroute "none"; ttl / capacity < 0 disable them.
 * counters: five per replica (retransmits, drops by code 1 fault / 2 hops
 * / 3 buffer, rerouted). */
EXPORT int64_t run_scenario(
    double T, double L, int64_t has_until, double until, int64_t max_events,
    STATE_PARAMS, QUEUE_PARAMS, int64_t *slots_buf, int64_t *meta,
    ROUTE_PARAMS,
    int64_t R, int64_t num_messages,
    const int64_t *fault_kind, const int64_t *fault_target,
    uint8_t *link_down, uint8_t *node_down,
    const int32_t *distance, const int64_t *dist_col, int64_t n_distance,
    int64_t ttl, int64_t capacity, int64_t retry, double retry_delay,
    int64_t max_retries, int64_t *retries, int8_t *drop_code,
    int64_t *counters)
{
    int64_t processed = 0;
    while (qstate[0] > 0) {
        double t = heap_time[0];
        if (has_until && t > until) break;
        int64_t limit = max_events - processed;
        if (limit <= 0) break;
        int64_t count = queue_pop(QUEUE_ARGS, limit, slots_buf);
        processed += count;
        for (int64_t k = 0; k < count; k++) {
            int64_t i = slots_buf[k];
            if (i >= num_messages) {
                int64_t f = i - num_messages;
                int64_t kind = fault_kind[f];
                if (kind < 2) link_down[fault_target[f]] = (uint8_t)(1 - kind);
                else node_down[fault_target[f]] = (uint8_t)(3 - kind);
                for (int64_t r = 0; r < R; r++) last_time[r] = t;  /* global */
                continue;
            }
            int64_t r = rep[i];
            last_time[r] = t;
            int64_t il = prev_link[i];
            if (il >= 0) {
                hops[i]++;
                queue_len[il]--;
                prev_link[i] = -1;
            }
            int64_t node = loc[i];
            int64_t target = dst[i];
            if (node_down[node]) {
                drop_code[i] = 1;
                counters[5 * r + 1]++;
                continue;
            }
            if (node == target) {
                arrival[i] = t;
                continue;
            }
            if (ttl >= 0 && hops[i] >= ttl) {
                drop_code[i] = 2;
                counters[5 * r + 2]++;
                continue;
            }
            int64_t primary;
            if (route_pairs(&node, &target, 1, n, ROUTE_ARGS, &primary) >= 0) {
                meta[0] = node;
                meta[1] = target;
                return 2;
            }
            if (primary < 0) continue;  /* unreachable in the healthy topology */
            int64_t key = node * n + primary;
            int64_t g = -1;
            for (int64_t q2 = vertex_groups[node]; q2 < vertex_groups[node + 1]; q2++) {
                if (group_keys[q2] == key) { g = q2; break; }
            }
            if (g < 0) {  /* the router named a hop that is not an arc */
                meta[0] = node;
                meta[1] = primary;
                return 1;
            }
            int rerouted = 0;
            if (node_down[primary]
                || !group_live(group_ptr, flat_links, link_down, g)) {
                /* greedy deflection: the usable neighbour (ascending, so
                   strict < keeps the lowest id) closest to the target */
                int64_t best_g = -1;
                int64_t best_distance = -1;
                if (n_distance > 0) {
                    for (int64_t q2 = vertex_groups[node]; q2 < vertex_groups[node + 1]; q2++) {
                        int64_t nb = group_keys[q2] - node * n;
                        if (nb == primary || node_down[nb]) continue;
                        if (!group_live(group_ptr, flat_links, link_down, q2)) continue;
                        int64_t dd = distance[dist_col[target] * n + nb];
                        if (dd < 0) continue;
                        if (best_g < 0 || dd < best_distance) {
                            best_g = q2;
                            best_distance = dd;
                        }
                    }
                }
                if (best_g < 0) {
                    drop_code[i] = 1;
                    counters[5 * r + 1]++;
                    continue;
                }
                g = best_g;
                rerouted = 1;
            }
            /* the earliest-free live link with buffer room, lowest id on ties */
            int64_t rbase = r * m;
            int64_t best = -1;
            double bb = 0.0;
            for (int64_t p = group_ptr[g]; p < group_ptr[g + 1]; p++) {
                int64_t lid = flat_links[p];
                if (link_down[lid]) continue;
                int64_t cand = rbase + lid;
                if (capacity >= 0 && queue_len[cand] >= capacity) continue;
                double cb = busy_until[cand];
                if (best < 0 || cb < bb) { best = cand; bb = cb; }
            }
            if (best < 0) {
                if (retry && retries[i] < max_retries) {
                    retries[i]++;
                    counters[5 * r]++;
                    queue_push(QUEUE_ARGS, t + retry_delay, i);
                } else {
                    drop_code[i] = 3;
                    counters[5 * r + 3]++;
                }
                continue;
            }
            double start = t > bb ? t : bb;
            double finish = start + T;
            busy_until[best] = finish;
            int64_t depth = queue_len[best] + 1;
            queue_len[best] = depth;
            if (depth > max_queue[r]) max_queue[r] = depth;
            tx_count[r]++;
            if (rerouted) counters[5 * r + 4]++;
            prev_link[i] = best;
            loc[i] = group_keys[g] - node * n;
            queue_push(QUEUE_ARGS, finish + L, i);
        }
    }
    return 0;
}

/* ---------------------------------------------------------------- traffic */

/* A block of raw PCG64 words read the way numpy's Generator draws from
 * it: next_uint32 hands out the buffered high half of the last word
 * (has / buf are the bit generator's has_uint32 / uinteger) or takes the
 * low half of the next word and buffers its high half; next_double takes
 * the next whole word. */
typedef struct {
    const uint64_t *words;
    int64_t num_words, pos;
    int64_t has;
    uint32_t buf;
} raw_stream;

/* 0 when the block ran out */
static inline int raw_u32(raw_stream *s, uint32_t *out)
{
    if (s->has) {
        s->has = 0;
        *out = s->buf;
        return 1;
    }
    if (s->pos == s->num_words) return 0;
    uint64_t w = s->words[s->pos++];
    s->has = 1;
    s->buf = (uint32_t)(w >> 32);
    *out = (uint32_t)w;
    return 1;
}

/* integers(n) for 2 <= n < 2**32: Lemire's bounded draw with rejection
 * (numpy's buffered_bounded_lemire_uint32, rng = n - 1); threshold =
 * (2**32 - n) % n.  0 when the block ran out. */
static inline int raw_bounded(
    raw_stream *s, uint32_t n, uint32_t threshold, uint32_t *out)
{
    uint32_t x;
    if (!raw_u32(s, &x)) return 0;
    uint64_t m = (uint64_t)x * n;
    if ((uint32_t)m < n) {
        while ((uint32_t)m < threshold) {
            if (!raw_u32(s, &x)) return 0;
            m = (uint64_t)x * n;
        }
    }
    *out = (uint32_t)(m >> 32);
    return 1;
}

/* repro.simulation.workloads._hotspot_endpoints_scalar from a block of raw
 * words: per message source = integers(n), then random() (a whole word
 * >> 11, times 2**-53) < fraction and source != hotspot sends to the
 * hotspot, else destination = integers(n) until it differs from the
 * source.  buffer = {has_uint32, uinteger} in and out.  Returns the words
 * consumed, or -1 when the block ran out (buffer then untouched). */
EXPORT int64_t hotspot_pairs(
    const uint64_t *words, int64_t num_words, int64_t count, int64_t n,
    int64_t hotspot, double fraction, int64_t *buffer,
    int64_t *src, int64_t *dst)
{
    raw_stream s = {words, num_words, 0, buffer[0], (uint32_t)buffer[1]};
    uint32_t un = (uint32_t)n;
    uint32_t threshold = (0u - un) % un;
    for (int64_t i = 0; i < count; i++) {
        uint32_t source, destination;
        if (!raw_bounded(&s, un, threshold, &source)) return -1;
        if (s.pos == s.num_words) return -1;
        double u = (double)(words[s.pos++] >> 11) * (1.0 / 9007199254740992.0);
        if (u < fraction && (int64_t)source != hotspot) {
            destination = (uint32_t)hotspot;
        } else {
            do {
                if (!raw_bounded(&s, un, threshold, &destination)) return -1;
            } while (destination == source);
        }
        src[i] = source;
        dst[i] = destination;
    }
    buffer[0] = s.has;
    buffer[1] = s.buf;
    return s.pos;
}

/* ------------------------------------------------------------------ serve */

static inline const char *json_ws(const char *p, const char *end)
{
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) p++;
    return p;
}

/* The closing quote of a string whose opening quote is just before p, or
 * NULL unless every byte up to it is printable ASCII other than '\\'. */
static inline const char *json_plain_string(const char *p, const char *end)
{
    for (; p < end; p++) {
        unsigned char c = (unsigned char)*p;
        if (c == '"') return p;
        if (c < 0x20 || c >= 0x80 || c == '\\') return 0;
    }
    return 0;
}

/* An integer of at most 18 digits without a leading zero (so it fits in
 * int64) into *out; the byte after it, or NULL. */
static inline const char *json_int(const char *p, const char *end, int64_t *out)
{
    int negative = p < end && *p == '-';
    p += negative;
    const char *first = p;
    int64_t value = 0;
    for (; p < end && *p >= '0' && *p <= '9'; p++) {
        if (p - first == 18) return 0;
        value = value * 10 + (*p - '0');
    }
    if (p == first || (*first == '0' && p - first > 1)) return 0;
    *out = negative ? -value : value;
    return p;
}

/* A [[int, int], ...] array of at most cap pairs into src / dst; the
 * byte after it (its count in *count), or NULL. */
static const char *json_pairs(
    const char *p, const char *end, int64_t cap, int64_t *src, int64_t *dst,
    int64_t *count)
{
    if (p == end || *p++ != '[') return 0;
    p = json_ws(p, end);
    int64_t k = 0;
    if (p < end && *p == ']') {
        *count = 0;
        return p + 1;
    }
    for (;;) {
        if (k == cap || p == end || *p++ != '[') return 0;
        if (!(p = json_int(json_ws(p, end), end, src + k))) return 0;
        p = json_ws(p, end);
        if (p == end || *p++ != ',') return 0;
        if (!(p = json_int(json_ws(p, end), end, dst + k))) return 0;
        p = json_ws(p, end);
        if (p == end || *p++ != ']') return 0;
        k++;
        p = json_ws(p, end);
        if (p == end) return 0;
        if (*p == ']') {
            *count = k;
            return p + 1;
        }
        if (*p++ != ',') return 0;
        p = json_ws(p, end);
    }
}

/* A canonical query body: one JSON object holding exactly the keys "op",
 * "topology" (plain ASCII strings: no escape) and "pairs" ([[int, int],
 * ...] of at most cap pairs, ints as json_int reads them), in any order,
 * with any JSON whitespace and nothing after it.  The pairs go to src /
 * dst and spans = {op start, op length, topology start, topology length}
 * in body.  Returns the pair count, or -1 to decline anything else. */
EXPORT int64_t read_query(
    const char *body, int64_t len, int64_t cap, int64_t *spans,
    int64_t *src, int64_t *dst)
{
    const char *p = json_ws(body, body + len), *end = body + len;
    int64_t count = 0;
    int seen = 0;
    if (p == end || *p++ != '{') return -1;
    for (;;) {
        p = json_ws(p, end);
        if (p == end || *p++ != '"') return -1;
        const char *key = p;
        if (!(p = json_plain_string(p, end))) return -1;
        int64_t key_len = p++ - key;
        int which;
        if (key_len == 2 && !memcmp(key, "op", 2)) which = 0;
        else if (key_len == 8 && !memcmp(key, "topology", 8)) which = 1;
        else if (key_len == 5 && !memcmp(key, "pairs", 5)) which = 2;
        else return -1;
        if (seen & (1 << which)) return -1;
        seen |= 1 << which;
        p = json_ws(p, end);
        if (p == end || *p++ != ':') return -1;
        p = json_ws(p, end);
        if (which == 2) {
            if (!(p = json_pairs(p, end, cap, src, dst, &count))) return -1;
        } else {
            if (p == end || *p++ != '"') return -1;
            const char *value = p;
            if (!(p = json_plain_string(p, end))) return -1;
            spans[2 * which] = value - body;
            spans[2 * which + 1] = p++ - value;
        }
        p = json_ws(p, end);
        if (p == end) return -1;
        if (*p == '}') break;
        if (*p++ != ',') return -1;
    }
    if (json_ws(p + 1, end) != end || seen != 7) return -1;
    return count;
}

/* The decimal text of v at out; the byte after it (at most 20 bytes). */
static inline char *put_int(char *out, int64_t v)
{
    char digits[20];
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    int k = 0;
    do {
        digits[k++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (v < 0) *out++ = '-';
    while (k) *out++ = digits[--k];
    return out;
}

/* An int64 of a byte buffer that need not be aligned. */
static inline int64_t load_i64(const char *p, int64_t i)
{
    int64_t x;
    memcpy(&x, p + 8 * i, 8);
    return x;
}

/* The JSON replies of one round, each json.dumps of its lists plus "\n".
 * meta = 11 int64s (kind, R, the address and length of a, of v and of
 * etas, the length of text, F, cap), then R reply pair counts, then the
 * lengths of reply i's text pieces (its head up to its first array, for
 * kind 1 the text between its two arrays, then its tail), which lie in
 * text one after the other; reply i's arrays hold counts[i] pairs from
 * where reply i - 1's end.
 *   kind 0: a = the pairs' ints (hops);
 *   kind 1: a = hop counts, then etas from table: F text ends, F double
 *           values, then the F texts; slot 0 for a count < 0, else slot
 *           count + 1, whose value etas must equal bit for bit;
 *   kind 2: a = count + 1 path offsets per reply into the vertices v: a
 *           list per pair, null for an empty one.
 * Reply i goes to out[ends[i - 1]:ends[i]], ends = the R int64s at
 * out + cap.  Returns the bytes written, or -1 when out would overflow, a
 * count, offset or piece would read past its array or text, or a value is
 * off its table (the caller then encodes in Python).  The scalars travel
 * in meta because each ctypes argument costs about as much as writing a
 * 16-pair reply. */
EXPORT int64_t write_replies(
    const char *meta, const char *text, const char *table, char *out)
{
    int64_t kind = load_i64(meta, 0), R = load_i64(meta, 1);
    const int64_t *a = (const int64_t *)(intptr_t)load_i64(meta, 2);
    const int64_t *v = (const int64_t *)(intptr_t)load_i64(meta, 4);
    const double *etas = (const double *)(intptr_t)load_i64(meta, 6);
    int64_t a_len = load_i64(meta, 3), v_len = load_i64(meta, 5);
    int64_t etas_len = load_i64(meta, 7), text_left = load_i64(meta, 8);
    int64_t F = load_i64(meta, 9), cap = load_i64(meta, 10);
    char *o = out, *end = out + cap;
    const char *floats = table + 16 * F;
    int64_t at = 0, piece = 11 + R;
#define ROOM(bytes) if (end - o < (bytes)) return -1
#define PIECE() do { \
        int64_t piece_len = load_i64(meta, piece++); \
        if (piece_len < 0 || piece_len > text_left) return -1; \
        ROOM(piece_len); \
        memcpy(o, text, piece_len); \
        o += piece_len; \
        text += piece_len; \
        text_left -= piece_len; \
    } while (0)
    for (int64_t r = 0; r < R; r++) {
        int64_t count = load_i64(meta, 11 + r);
        if (count < 0 || at + count + (kind == 2) > a_len) return -1;
        if (kind == 1 && at + count > etas_len) return -1;
        PIECE();
        ROOM(1);
        *o++ = '[';
        for (int64_t i = at; i < at + count; i++) {
            ROOM(24);
            if (i > at) {
                *o++ = ',';
                *o++ = ' ';
            }
            if (kind != 2) {
                o = put_int(o, a[i]);
                continue;
            }
            int64_t lo = a[i], hi = a[i + 1];
            if (lo >= hi) {
                memcpy(o, "null", 4);
                o += 4;
                continue;
            }
            if (lo < 0 || hi > v_len) return -1;
            *o++ = '[';
            for (int64_t j = lo; j < hi; j++) {
                ROOM(23);
                if (j > lo) {
                    *o++ = ',';
                    *o++ = ' ';
                }
                o = put_int(o, v[j]);
            }
            *o++ = ']';
        }
        ROOM(1);
        *o++ = ']';
        if (kind == 1) {
            PIECE();
            ROOM(1);
            *o++ = '[';
            for (int64_t i = at; i < at + count; i++) {
                if (a[i] > F - 2) return -1;
                int64_t slot = a[i] < 0 ? 0 : a[i] + 1;
                if (memcmp(&etas[i], table + 8 * (F + slot), 8)) return -1;
                int64_t lo = slot ? load_i64(table, slot - 1) : 0;
                int64_t len = load_i64(table, slot) - lo;
                ROOM(2 + len);
                if (i > at) {
                    *o++ = ',';
                    *o++ = ' ';
                }
                memcpy(o, floats + lo, len);
                o += len;
            }
            ROOM(1);
            *o++ = ']';
        }
        PIECE();
        int64_t written = o - out;
        memcpy(end + 8 * r, &written, 8);
        at += count + (kind == 2);
    }
#undef PIECE
#undef ROOM
    return o - out;
}
"""

SOURCE_DIGEST = hashlib.sha256(C_SOURCE.encode()).hexdigest()

_BUILD_LOCK = threading.Lock()
_LIB_CACHE: dict[str, SimpleNamespace] = {}

_i64 = ctypes.POINTER(ctypes.c_int64)
_i32 = ctypes.POINTER(ctypes.c_int32)
_u64 = ctypes.POINTER(ctypes.c_uint64)
_u8 = ctypes.POINTER(ctypes.c_uint8)
_i8 = ctypes.POINTER(ctypes.c_int8)
_f64 = ctypes.POINTER(ctypes.c_double)
_I = ctypes.c_int64
_D = ctypes.c_double
_V = ctypes.c_void_p  # an address from _address
_S = ctypes.c_char_p  # a bytes object, read in place
_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)

# The C-side expansion of QUEUE_PARAMS.
_QSIG = [_f64, _i64, _i64, _i64, _i64, _i64, _f64, _i64, _i64, _I]

# The C-side expansion of STATE_PARAMS, as pointer types of the arrays
# (n and m follow as integers).
_STATE_TYPES = (
    _i64, _i64, _i64, _f64,                   # loc, dst, hops, arrival
    _i64, _i64, _f64,                         # prev_link, rep, last_time
    _f64, _i64, _i64, _i64,                   # busy_until, queue_len, max_queue, tx_count
    _i64, _i64, _i64, _i64,                   # group_keys, group_ptr, flat_links, vertex_groups
)

# The C-side expansion of ROUTE_PARAMS: a shift spec's first seven.
_ROUTE_SIG = [
    # fmt: off
    _I, _I, _i64, _I, _i64, _I, _I,           # base, D, to_code, n_to, from_code, n_from, sorted
    _i64, _I, _u8, _i64, _I,                  # succ, d, slot, col, n_col
    # fmt: on
]

# The parameters run_rounds and run_scenario share.
_LOOP_SIG = (
    # fmt: off
    [_D, _D, _I, _D, _I]                      # T, L, has_until, until, max_events
    + list(_STATE_TYPES) + [_I, _I]           # STATE_PARAMS
    + _QSIG
    + [_i64, _i64]                            # slots buffer, meta
    + _ROUTE_SIG
    # fmt: on
)

_SIGNATURES = {
    "ecc_sweep": (_I, [_i64, _u64, _u64, _u64, _i64, _u8, _I, _I, _I, _I]),
    "subset_rows_sweep": (None, [_i64, _u64, _u64, _i64, _I, _I, _I]),
    "slot_columns": (None, [_i64, _i64, _u8, _I, _I, _I]),
    "subset_ecc_sweep": (
        _I,
        [_i64, _u64, _u64, _u64, _u64, _i64, _I, _I, _I, _I, _I],
    ),
    "screen_splits": (None, [_i64, _i64, _I, _I, _I, _i32, _i64]),
    "hotspot_pairs": (_I, [_u64, _I, _I, _I, _I, _D, _i64, _i64, _i64]),
    "read_query": (_I, [_S, _I, _I, _V, _V, _V]),
    "write_replies": (_I, [_S, _S, _S, _V]),  # meta, text, table, out
    "shift_next_hops": (_I, [_i64, _i64, _I] + _ROUTE_SIG[:7] + [_i64]),
    "shift_path_lengths": (_I, [_i64, _i64, _I] + _ROUTE_SIG[:7] + [_i64]),
    "route_paths": (_I, [_i64, _i64, _I, _I] + _ROUTE_SIG + [_i64, _i64]),
    "queue_schedule": (None, _QSIG + [_i64, _f64, _I]),
    "run_rounds": (
        _I,
        _LOOP_SIG + [_i64, _i64, _i64],       # tails, dests, next hops buffers
    ),
    "run_scenario": (
        _I,
        # fmt: off
        _LOOP_SIG
        + [_I, _I,                            # R, num_messages
           _i64, _i64, _u8, _u8,              # fault_kind, fault_target, link_down, node_down
           _i32, _i64, _I,                    # distance, dist_col, n_distance
           _I, _I, _I, _D, _I,                # ttl, capacity, retry, retry_delay, max_retries
           _i64, _i8, _i64],                  # retries, drop_code, counters
        # fmt: on
    ),
}


def cache_dir() -> Path:
    """The directory compiled kernel libraries live in."""
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def library_path() -> Path:
    """Where the shared library for the current source digest belongs."""
    suffix = ".dll" if os.name == "nt" else ".so"
    return cache_dir() / f"repro_kernels_{SOURCE_DIGEST[:16]}{suffix}"


def _find_compiler() -> str:
    override = os.environ.get("REPRO_CC")
    if override:
        return override
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    raise NativeBuildError("no C compiler found (cc/gcc/clang; set REPRO_CC)")


def _compile() -> Path:
    lib = library_path()
    if lib.exists():
        return lib
    cc = _find_compiler()
    directory = lib.parent
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise NativeBuildError(f"cannot create kernel cache {directory}: {exc}")
    src = directory / f"repro_kernels_{SOURCE_DIGEST[:16]}.c"
    fd, tmp = tempfile.mkstemp(suffix=lib.suffix, dir=directory)
    os.close(fd)
    try:
        src.write_text(C_SOURCE)
        cmd = [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(src)]
        if sys.platform == "darwin":
            cmd.insert(1, "-dynamiclib")
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise NativeBuildError(
                f"kernel compile failed ({' '.join(cmd)}):\n{proc.stderr}"
            )
        os.replace(tmp, lib)  # atomic: concurrent builders race benignly
    except NativeBuildError:
        raise
    except Exception as exc:
        raise NativeBuildError(f"kernel compile failed: {exc}")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _load(lib_path: Path) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError as exc:
        raise NativeBuildError(f"cannot load kernel library {lib_path}: {exc}")
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def _ptr(arr, ctype):
    return arr.ctypes.data_as(ctype)


def _address(arr) -> int:
    """The data address of a C-contiguous array, for a ``_V`` argument;
    a third of the cost of ``arr.ctypes`` for a writable array."""
    if not arr.nbytes:
        return 0
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    except TypeError:  # read-only
        return arr.ctypes.data



def _event_queue(num_slots):
    """Fresh kernel queue arrays (layout at QUEUE_PARAMS) and their
    QUEUE_ARGS: at most ``num_slots`` live distinct times / buckets, a
    power-of-two hash of at least twice that."""
    C = max(num_slots, 1)
    H = 2
    while H < 2 * C:
        H *= 2
    queue = (
        np.empty(C),  # heap_time
        np.empty(C, dtype=np.int64),  # heap_bid
        np.empty(C, dtype=np.int64),  # bucket_head
        np.empty(C, dtype=np.int64),  # bucket_tail
        np.empty(C, dtype=np.int64),  # next_slot
        np.arange(C, dtype=np.int64),  # free_bids
        np.empty(H),  # hash_time
        np.full(H, -1, dtype=np.int64),  # hash_state
        np.array([0, C, 0, 0], dtype=np.int64),  # qstate
    )
    return queue, (*map(_ptr, queue, _QSIG[:-1]), H)


def route_args(base, D, to_code, from_code, sorted_codes):
    """The C-side routing arguments of a closed-form description: build
    them once per shift spec (:class:`~repro.routing.routers.
    ClosedFormRouter` does at construction) and pass them to
    ``shift_next_hops``, ``shift_path_lengths`` and ``route_paths``."""
    if not (1 <= D < 64 and 1 <= base < 1 << 31):
        raise ValueError(
            f"shift routing needs 1 <= D < 64 and 1 <= base < 2**31, got {base}, {D}"
        )
    return (
        base, D,
        _ptr(to_code, _i64), to_code.shape[0],
        _ptr(from_code, _i64), from_code.shape[0],
        1 if sorted_codes else 0,
    )


def _table_args(succ, slot, col, n):
    """The C-side routing arguments of a table router's slot columns over
    ``n`` vertices (an empty ``col``: none)."""
    if col.shape[0] and not succ.shape[0] == slot.shape[1] == col.shape[0] == n:
        raise ValueError(
            f"slot columns over {col.shape[0]} vertices cannot route a "
            f"topology of {n}"
        )
    return _ptr(succ, _i64), succ.shape[1], _ptr(slot, _u8), _ptr(col, _i64), col.shape[0]


_EMPTY = np.zeros(0, dtype=np.int64)
#: ``route_paths``' routing arguments for the side it does not route by.
_NO_SHIFT = route_args(2, 1, _EMPTY, _EMPTY, False)
_NO_TABLE = _table_args(
    np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.uint8), _EMPTY, 0
)


def build_native_kernels() -> SimpleNamespace:
    """Compile (or reuse) the shared library and return wrapped kernels.

    The wrappers take arrays plus python-int scalars and derive the C-side
    shape arguments from the array shapes; arrays must be C-contiguous with
    the documented dtypes — the integration layer allocates them that way.

    Raises :class:`NativeBuildError` when the backend is unavailable.
    """
    cached = _LIB_CACHE.get(SOURCE_DIGEST)
    if cached is not None:  # built: no lock needed to read it
        return cached
    with _BUILD_LOCK:
        cached = _LIB_CACHE.get(SOURCE_DIGEST)
        if cached is not None:
            return cached
        lib = _load(_compile())

        def ecc_sweep(succ, reach, scratch, full_row, ecc, done, upper_bound):
            n, d = succ.shape
            w = reach.shape[1]
            return int(
                lib.ecc_sweep(
                    _ptr(succ, _i64), _ptr(reach, _u64), _ptr(scratch, _u64),
                    _ptr(full_row, _u64), _ptr(ecc, _i64), _ptr(done, _u8),
                    n, d, w, upper_bound,
                )
            )

        def subset_rows_sweep(pred, state, scratch, rows):
            n, d = pred.shape
            w = state.shape[1]
            lib.subset_rows_sweep(
                _ptr(pred, _i64), _ptr(state, _u64), _ptr(scratch, _u64),
                _ptr(rows, _i64), n, d, w,
            )

        def slot_columns(succ, rows, slot):
            n, d = succ.shape
            k = rows.shape[0]
            if rows.shape != (k, n) or slot.shape != (k, n):
                raise ValueError("slot_columns needs (k, n) rows and slots")
            lib.slot_columns(
                _ptr(succ, _i64), _ptr(rows, _i64), _ptr(slot, _u8), n, d, k,
            )

        def subset_ecc_sweep(pred, state, scratch, full, done, ecc, upper_bound):
            n, d = pred.shape
            w = state.shape[1]
            k = ecc.shape[0]
            return int(
                lib.subset_ecc_sweep(
                    _ptr(pred, _i64), _ptr(state, _u64), _ptr(scratch, _u64),
                    _ptr(full, _u64), _ptr(done, _u64), _ptr(ecc, _i64),
                    n, d, w, k, upper_bound,
                )
            )

        def screen_splits(p, q, d, upper_bound=None):
            p = np.ascontiguousarray(p, dtype=np.int64)
            q = np.ascontiguousarray(q, dtype=np.int64)
            if p.ndim != 1 or p.shape != q.shape:
                raise ValueError("screen_splits needs two 1-D arrays of equal length")
            if d < 1 or (upper_bound is not None and upper_bound < 0):
                raise ValueError("screen_splits needs d >= 1 and upper_bound >= 0")
            status = np.empty(p.shape[0], dtype=np.int64)
            if not p.shape[0]:
                return status
            if min(p.min(), q.min()) < 1:
                raise ValueError("screen_splits needs p >= 1 and q >= 1")
            m = [a * b for a, b in zip(p.tolist(), q.tolist())]
            if any(x % d for x in m):
                raise ValueError(f"screen_splits needs d={d} to divide every p*q")
            m_max = max(m)
            n_max = m_max // d
            if n_max >= 1 << 31:
                raise ValueError("screen_splits needs n = p*q/d < 2**31")
            # per call, so threads never share one (the C runs without the GIL)
            work = np.empty(3 * m_max + 2 * n_max + 1, dtype=np.int32)
            bound = n_max if upper_bound is None else int(upper_bound)
            lib.screen_splits(
                _ptr(p, _i64), _ptr(q, _i64), p.shape[0], int(d), bound,
                _ptr(work, _i32), _ptr(status, _i64),
            )
            return status

        def shift_pairs(kernel):
            """A per-pair shift kernel over ``route``, the
            :func:`route_args` of a shift spec."""

            def call(cur, tgt, count, route, out):
                if min(cur.shape[0], tgt.shape[0], out.shape[0]) < count:
                    raise ValueError(f"{kernel.__name__} arrays hold fewer than count pairs")
                return kernel(_ptr(cur, _i64), _ptr(tgt, _i64), count, *route, _ptr(out, _i64))

            return call

        def route_paths(src, tgt, offsets, vertices, route=None, table=None):
            """Pair ``i``'s routed path into ``vertices[offsets[i]:offsets[i + 1]]``
            by ``route`` (the :func:`route_args` of a shift spec) or
            ``table`` (the ``(succ, slot, col)`` columns of a table router
            covering ``tgt``); see the C source."""
            count = src.shape[0]
            if tgt.shape[0] != count or offsets.shape[0] != count + 1 or (
                vertices.shape[0] != offsets[-1]
            ):
                raise ValueError("route_paths needs count pairs, count + 1 offsets and their vertices")
            n = 0 if table is None else table[2].shape[0]
            return lib.route_paths(
                _ptr(src, _i64), _ptr(tgt, _i64), count, n,
                *(_NO_SHIFT if route is None else route),
                *(_NO_TABLE if table is None else _table_args(*table, n)),
                _ptr(offsets, _i64), _ptr(vertices, _i64),
            )

        def hotspot_pairs(words, count, n, hotspot, fraction, buffer, src, dst):
            if not 2 <= n < 1 << 32:
                raise ValueError(f"hotspot_pairs needs 2 <= n < 2**32, got {n}")
            if min(src.shape[0], dst.shape[0]) < count or buffer.shape[0] != 2:
                raise ValueError(
                    "hotspot_pairs needs count-long src / dst and a 2-entry buffer"
                )
            return lib.hotspot_pairs(
                _ptr(words, _u64), words.shape[0], int(count), int(n),
                int(hotspot), float(fraction), _ptr(buffer, _i64),
                _ptr(src, _i64), _ptr(dst, _i64),
            )

        def event_loop(kernel, events, state, T, L, until, max_events, route, table, *tail):
            """Call the C event loop ``kernel`` over a fresh queue holding
            ``events = (slots, times)``, pushed in that order (the sequence
            order at equal times).  ``state`` is the 15 arrays of
            STATE_PARAMS (n and m follow from their shapes), ``route`` a
            shift spec and ``table`` the ``(succ, slot, col)`` columns of a
            table router (an empty ``col``: shift routing).  Returns
            ``(status, meta)``: 0, or 1 on a non-arc hop and 2 on a pair
            outside the relabelling or the columns, ``meta`` naming it."""
            slots, times = events
            n = state[-1].shape[0] - 1
            queue, q = _event_queue(slots.shape[0])
            lib.queue_schedule(*q, _ptr(slots, _i64), _ptr(times, _f64), slots.shape[0])
            slots_buf = np.empty(queue[0].shape[0], dtype=np.int64)
            meta = np.zeros(2, dtype=np.int64)
            status = kernel(
                T, L,
                0 if until is None else 1,
                0.0 if until is None else until,
                (1 << 62) if max_events is None else max_events,
                *map(_ptr, state, _STATE_TYPES),
                n, state[-2].shape[0],  # n, m
                *q, _ptr(slots_buf, _i64), _ptr(meta, _i64),
                *route_args(*route), *_table_args(*table, n),
                *tail,
            )
            return status, meta

        def run_rounds(events, state, T, L, until, max_events, route, table):
            # tails, dests, next hops: one row per forwarder of a round
            bufs = np.empty((3, max(events[0].shape[0], 1)), dtype=np.int64)
            return event_loop(
                lib.run_rounds, events, state, T, L, until, max_events, route, table,
                *(_ptr(row, _i64) for row in bufs),
            )

        def run_scenario(events, state, T, L, until, max_events, route, table, scenario):
            (num_messages, fault_kind, fault_target, link_down, node_down,
             distance, dist_col, ttl, capacity, retry, retry_delay,
             max_retries, retries, drop_code, counters) = scenario
            return event_loop(
                lib.run_scenario, events, state, T, L, until, max_events, route, table,
                counters.shape[0] // 5, num_messages,
                _ptr(fault_kind, _i64), _ptr(fault_target, _i64),
                _ptr(link_down, _u8), _ptr(node_down, _u8),
                _ptr(distance, _i32), _ptr(dist_col, _i64), dist_col.shape[0],
                ttl, capacity, retry, retry_delay, max_retries,
                _ptr(retries, _i64), _ptr(drop_code, _i8), _ptr(counters, _i64),
            )

        def read_query(body, max_pairs=None):
            """``(op, topology, sources, targets)`` of a canonical query
            body (see the C source) of at most ``max_pairs`` pairs, or None
            when the C declines it.  The arrays are views of one int64
            buffer."""
            if type(body) is not bytes:
                return None
            cap = len(body) // 5 + 1  # a pair takes five bytes and a comma
            if max_pairs is not None:
                cap = min(cap, max_pairs)
            out = np.empty(4 + 2 * cap, dtype=np.int64)
            at = _address(out)
            count = lib.read_query(body, len(body), cap, at, at + 32, at + 32 + 8 * cap)
            if count < 0:
                return None
            op, op_len, topology, topology_len = out[:4].tolist()
            return (
                body[op : op + op_len].decode("ascii"),
                body[topology : topology + topology_len].decode("ascii"),
                out[4 : 4 + count],
                out[4 + cap : 4 + cap + count],
            )

        def write_replies(kind, counts, pieces, text, a, v=None, etas=None, table=None):
            """The replies of one round as JSON bytes, one per entry of
            ``counts``, or None when the C declines (see the C source for
            ``kind`` and the layout).  ``a``, ``v`` and ``etas`` are
            one-dimensional C-contiguous int64, int64 and float64 arrays;
            ``table`` is the :func:`eta_table` of kind 1."""
            R = len(counts)
            for x, dtype in ((a, _INT64), (v, _INT64), (etas, _FLOAT64)):
                if x is not None and (
                    x.dtype != dtype or x.ndim != 1 or not x.flags.c_contiguous
                ):
                    raise ValueError("write_replies needs 1-d C-contiguous arrays")
            if (
                (kind == 1) != (etas is not None) or (kind == 2) != (v is not None)
                or len(pieces) != R * (3 if kind == 1 else 2)
            ):
                raise ValueError("write_replies needs the arrays and pieces of its kind")
            table, F, widest = table or (b"", 0, 0)
            width = 24 + (2 + widest if kind == 1 else 0)
            cap = len(text) + 4 * R + width * a.shape[0] + (0 if v is None else 22 * v.shape[0])
            cap += -cap % 8
            out = ctypes.create_string_buffer(cap + 8 * R)
            meta = struct.pack(
                f"{11 + R + len(pieces)}q",
                kind, R,
                _address(a), a.shape[0],
                0 if v is None else _address(v), 0 if v is None else v.shape[0],
                0 if etas is None else _address(etas), 0 if etas is None else etas.shape[0],
                len(text), F, cap,
                *counts, *pieces,
            )
            total = lib.write_replies(meta, text, table, ctypes.addressof(out))
            if total < 0:
                return None
            if R == 1:
                return [out[:total]]
            ends = struct.unpack_from(f"{R}q", out, cap)
            return [out[s:e] for s, e in zip((0, *ends), ends)]

        def eta_table(texts, values):
            """``write_replies``' ETA table of the JSON ``texts`` of the
            float ``values``, slot by slot."""
            ends = np.cumsum([len(text) for text in texts], dtype=np.int64)
            values = np.array(values, dtype=np.float64)
            table = ends.tobytes() + values.tobytes() + "".join(texts).encode()
            return table, len(texts), max(map(len, texts))

        kernels = SimpleNamespace(
            ecc_sweep=ecc_sweep,
            subset_rows_sweep=subset_rows_sweep,
            slot_columns=slot_columns,
            subset_ecc_sweep=subset_ecc_sweep,
            screen_splits=screen_splits,
            shift_next_hops=shift_pairs(lib.shift_next_hops),
            shift_path_lengths=shift_pairs(lib.shift_path_lengths),
            route_paths=route_paths,
            hotspot_pairs=hotspot_pairs,
            read_query=read_query,
            write_replies=write_replies,
            eta_table=eta_table,
            run_rounds=run_rounds,
            run_scenario=run_scenario,
        )
        _LIB_CACHE[SOURCE_DIGEST] = kernels
        return kernels
