r"""The compiled-kernel algorithms, written once in scalar-loop form.

This module is the *reference source* of the kernel semantics:

* the ``cnative`` backend (:mod:`repro.kernels.native`) is a line-for-line C
  translation of these loops, kept in the same function/argument order so
  the two can be diffed side by side;
* the plain-python build (``PY_KERNELS`` below) runs the very same loops
  interpreted.  It is far too slow to be a production fallback (that role
  belongs to the vectorised numpy paths in ``repro.graphs.apsp``,
  ``repro.graphs.traversal`` and ``repro.simulation.network``), but it is
  invaluable as an independent executable reference for the differential
  tests in ``tests/test_kernel_parity.py`` — it runs everywhere, compiler
  or not.

Bit-identity contract: every floating-point operation here replicates the
reference engines op-for-op (``start = max(t, busy)``, ``finish = start +
T``, one sequential add per FIFO slot — never ``start + k*T``), and all
graph-side kernels are pure ``uint64``/``int64`` arithmetic, so results are
*byte-identical* to the numpy paths, not merely close.

The simulator kernels replicate :class:`repro.simulation.events.
BatchEventQueue` *structurally*: a binary min-heap of **distinct** event
times plus, per live time, a FIFO bucket of event slots (an intrusive
linked list — append at tail, drain from head, so bucket order is insertion
order, exactly the bucketed queue's sequence order).  Times map to buckets
through an open-addressing hash on the canonicalised float bit pattern
(``-0.0`` hashes as ``+0.0``, matching python dict keys); dead entries
tombstone and the table rebuilds from the live heap when tombstones pile
up.  Since bucket times are distinct, ordering the heap by time alone
reproduces the ``(time, insertion-sequence)`` contract.

The queue state is a flat tuple of arrays (``QUEUE``/``Q`` below)::

    heap_time   f8[C]   heap of distinct live times (C = event capacity)
    heap_bid    i64[C]  bucket id of each heap entry
    bucket_head i64[C]  per-bucket-id first slot
    bucket_tail i64[C]  per-bucket-id last slot
    next_slot   i64[C]  intrusive linked list over event slots (-1 = end)
    free_bids   i64[C]  bucket-id free list
    hash_time   f8[H]   open-addressing table: key (H = power of two)
    hash_state  i64[H]  bucket id, -1 empty, -2 tombstone
    qstate      i64[4]  [0] heap size, [1] free-list top, [2] used slots
    fbits       f8[1]   \ one shared 8-byte buffer, viewed both ways —
    ubits       u64[1]  / portable float-bit punning for the hash
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

__all__ = ["build_kernels", "PY_KERNELS", "KERNEL_NAMES"]

#: The functions every backend must provide (the dispatch surface).
KERNEL_NAMES = (
    "ecc_sweep",
    "subset_rows_sweep",
    "subset_ecc_sweep",
    "bfs_screen",
    "shift_next_hops",
    "make_round_driver",
)


def build_kernels():
    """Build the interpreted kernel set (one namespace of closures)."""

    # ------------------------------------------------------------- apsp
    def ecc_sweep(succ, reach, scratch, full_row, ecc, done, upper_bound):
        """Level-synchronous uint64 bit sweep with streaming eccentricities.

        Mirrors ``repro.graphs.apsp._BitSweep`` + the ``batched_
        eccentricities`` driver loop exactly: ``reach``/``scratch`` are the
        two ``(n, words)`` ping-pong buffers (``reach`` pre-seeded with the
        identity bits), ``ecc`` starts at ``-1``, ``done`` at 0.  Returns 1
        when the ``upper_bound`` cut fired (``upper_bound < 0`` disables
        it), 0 otherwise.
        """
        n = succ.shape[0]
        d = succ.shape[1]
        w = reach.shape[1]
        num_done = 0
        for u in range(n):
            complete = True
            for i in range(w):
                if reach[u, i] != full_row[i]:
                    complete = False
                    break
            if complete:
                done[u] = 1
                ecc[u] = 0
                num_done += 1
        cur = reach
        nxt = scratch
        level = 0
        while num_done < n:
            if upper_bound >= 0 and level >= upper_bound:
                return 1
            level += 1
            if d == 0:
                break  # no out-arcs anywhere: the sweep has converged
            changed = False
            for u in range(n):
                s0 = succ[u, 0]
                for i in range(w):
                    nxt[u, i] = cur[s0, i]
                for j in range(1, d):
                    sj = succ[u, j]
                    for i in range(w):
                        nxt[u, i] |= cur[sj, i]
                for i in range(w):
                    nxt[u, i] |= cur[u, i]
                if not changed:
                    for i in range(w):
                        if nxt[u, i] != cur[u, i]:
                            changed = True
                            break
            if not changed:
                break  # converged: the remaining sources can never complete
            tmp = cur
            cur = nxt
            nxt = tmp
            for u in range(n):
                if done[u]:
                    continue
                complete = True
                for i in range(w):
                    if cur[u, i] != full_row[i]:
                        complete = False
                        break
                if complete:
                    done[u] = 1
                    ecc[u] = level
                    num_done += 1
        return 0

    def subset_rows_sweep(pred, state, scratch, rows):
        """Transposed sweep extracting per-level distance rows.

        ``state`` is the ``(n, kwords)`` bit matrix (bit ``b`` of row ``v``
        = "``sources[b]`` reaches ``v``"), pre-seeded with the source bits;
        ``rows`` is the ``(k, n)`` output, pre-filled with ``-1`` and the
        ``rows[b, sources[b]] = 0`` diagonal.  Newly-set bits at level
        ``L`` write ``rows[b, v] = L``.
        """
        n = pred.shape[0]
        d = pred.shape[1]
        w = state.shape[1]
        if d == 0:
            return
        cur = state
        nxt = scratch
        level = 0
        while True:
            level += 1
            changed = False
            for v in range(n):
                p0 = pred[v, 0]
                for i in range(w):
                    nxt[v, i] = cur[p0, i]
                for j in range(1, d):
                    pj = pred[v, j]
                    for i in range(w):
                        nxt[v, i] |= cur[pj, i]
                for i in range(w):
                    nxt[v, i] |= cur[v, i]
                if not changed:
                    for i in range(w):
                        if nxt[v, i] != cur[v, i]:
                            changed = True
                            break
            if not changed:
                return
            for v in range(n):
                for i in range(w):
                    x = nxt[v, i] & ~cur[v, i]
                    while x:
                        b = 0
                        while (x >> np.uint64(b)) & np.uint64(1) == 0:
                            b += 1
                        rows[i * 64 + b, v] = level
                        x &= x - np.uint64(1)
            tmp = cur
            cur = nxt
            nxt = tmp

    def subset_ecc_sweep(pred, state, scratch, full, done, ecc, upper_bound):
        """Transposed sweep with streaming per-source eccentricities.

        ``full`` masks the valid ``k`` bits; ``done`` is the
        completed-source ``(kwords,)`` bitmask; ``ecc`` starts at ``-1``.
        Returns 1 when the ``upper_bound`` cut fired.
        """
        n = pred.shape[0]
        d = pred.shape[1]
        w = state.shape[1]
        k = ecc.shape[0]
        num_done = 0
        for i in range(w):
            c = state[0, i]
            for v in range(1, n):
                c &= state[v, i]
            c &= full[i]
            done[i] = c
            while c:
                b = 0
                while (c >> np.uint64(b)) & np.uint64(1) == 0:
                    b += 1
                ecc[i * 64 + b] = 0
                num_done += 1
                c &= c - np.uint64(1)
        cur = state
        nxt = scratch
        level = 0
        while num_done < k:
            if upper_bound >= 0 and level >= upper_bound:
                return 1
            level += 1
            if d == 0:
                break
            changed = False
            for v in range(n):
                p0 = pred[v, 0]
                for i in range(w):
                    nxt[v, i] = cur[p0, i]
                for j in range(1, d):
                    pj = pred[v, j]
                    for i in range(w):
                        nxt[v, i] |= cur[pj, i]
                for i in range(w):
                    nxt[v, i] |= cur[v, i]
                if not changed:
                    for i in range(w):
                        if nxt[v, i] != cur[v, i]:
                            changed = True
                            break
            if not changed:
                break  # converged: the rest can never cover the digraph
            tmp = cur
            cur = nxt
            nxt = tmp
            for i in range(w):
                c = cur[0, i]
                for v in range(1, n):
                    c &= cur[v, i]
                newly = c & full[i] & ~done[i]
                done[i] |= c & full[i]
                while newly:
                    b = 0
                    while (newly >> np.uint64(b)) & np.uint64(1) == 0:
                        b += 1
                    ecc[i * 64 + b] = level
                    num_done += 1
                    newly &= newly - np.uint64(1)
        return 0

    # ------------------------------------------------------------ screen
    def bfs_screen(succ, upper_bound, work):
        """Forward and reverse queue BFS from vertex 0 in one call.

        Replicates stages 1-2 of ``repro.otis.search.h_diameter`` (the
        numpy ``bfs_distances_regular`` / ``reverse_bfs_distances_regular``
        pair), in their order.  ``work`` is an int64 workspace of at least
        ``n * (d + 3) + 1`` entries, laid out ``dist[n] | queue[n] |
        indptr[n + 1] | tails[n * d]``; the reverse adjacency is built into
        ``indptr``/``tails`` by a counting sort.  Returns -1 when some
        vertex is unreachable (forward or reverse), 1 when a distance
        exceeds ``upper_bound``, 0 when the digraph passed.
        """
        n = succ.shape[0]
        d = succ.shape[1]
        dist = work[0:n]
        queue = work[n : 2 * n]
        indptr = work[2 * n : 3 * n + 1]
        tails = work[3 * n + 1 : 3 * n + 1 + n * d]
        for v in range(n):
            dist[v] = -1
        dist[0] = 0
        queue[0] = 0
        head = 0
        tail = 1
        while head < tail:
            u = queue[head]
            head += 1
            du = dist[u] + 1
            for j in range(d):
                v = succ[u, j]
                if dist[v] < 0:
                    dist[v] = du
                    queue[tail] = v
                    tail += 1
        if tail < n:
            return -1
        if dist[queue[n - 1]] > upper_bound:
            return 1
        for v in range(n + 1):
            indptr[v] = 0
        for u in range(n):
            for j in range(d):
                indptr[succ[u, j] + 1] += 1
        for v in range(n):
            indptr[v + 1] += indptr[v]
        for v in range(n):
            queue[v] = indptr[v]  # the queue doubles as the fill cursor
        for u in range(n):
            for j in range(d):
                v = succ[u, j]
                tails[queue[v]] = u
                queue[v] += 1
        for v in range(n):
            dist[v] = -1
        dist[0] = 0
        queue[0] = 0
        head = 0
        tail = 1
        while head < tail:
            v = queue[head]
            head += 1
            dv = dist[v] + 1
            for k in range(indptr[v], indptr[v + 1]):
                u = tails[k]
                if dist[u] < 0:
                    dist[u] = dv
                    queue[tail] = u
                    tail += 1
        if tail < n:
            return -1
        if dist[queue[n - 1]] > upper_bound:
            return 1
        return 0

    # ----------------------------------------------------------- routing
    def shift_next_hops(
        cur, tgt, count, base, D, to_code, from_code, sorted_codes, out
    ):
        """Closed-form next hops of ``count`` ``(current, target)`` vertex pairs.

        Replicates ``ClosedFormRouter.next_hops`` — the vertex -> word-code
        relabelling, ``repro.routing.paths.shift_route_next_hops`` and the
        decode back — one pair at a time.  ``to_code`` / ``from_code`` are
        the relabelling arrays (empty = identity); ``sorted_codes`` != 0
        decodes by binary search over the sorted ``to_code`` (the
        ``np.searchsorted`` insertion point).  Power-of-two bases shift and
        mask, others divide.  Returns -1, or the index of the first pair
        whose vertex or code falls outside a relabelling array (``out`` is
        then only filled up to that pair).
        """
        shift = 0
        while (1 << shift) < base:
            shift += 1
        pow2 = (1 << shift) == base
        pw = np.empty(D, dtype=np.int64)  # pw[j] = base**j
        pw[0] = 1
        for j in range(1, D):
            pw[j] = pw[j - 1] * base
        n_to = to_code.shape[0]
        n_from = from_code.shape[0]
        for i in range(count):
            u = cur[i]
            v = tgt[i]
            if n_to > 0:
                if u < 0 or u >= n_to or v < 0 or v >= n_to:
                    return i
                u = to_code[u]
                v = to_code[v]
            if u == v:
                code = u
            elif pow2:
                # the longest suffix(u) / prefix(v) overlap, longest first
                overlap = 0
                for j in range(D - 1, 0, -1):
                    if (u & (pw[j] - 1)) == (v >> (shift * (D - j))):
                        overlap = j
                        break
                digit = (v >> (shift * (D - 1 - overlap))) & (base - 1)
                code = ((u & (pw[D - 1] - 1)) << shift) | digit
            else:
                overlap = 0
                for j in range(D - 1, 0, -1):
                    if u % pw[j] == v // pw[D - j]:
                        overlap = j
                        break
                digit = (v // pw[D - 1 - overlap]) % base
                code = (u % pw[D - 1]) * base + digit
            if sorted_codes:
                lo = 0
                hi = n_to
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if to_code[mid] < code:
                        lo = mid + 1
                    else:
                        hi = mid
                out[i] = lo
            elif n_from > 0:
                if code < 0 or code >= n_from:
                    return i
                out[i] = from_code[code]
            else:
                out[i] = code
        return -1

    # -------------------------------------------------------- event queue
    def _hash_bits(fbits, ubits, t):
        """Mixed bits of ``t`` (``-0.0`` canonicalised to ``+0.0``).

        Shift/xor mixing only — multiplies would overflow-warn on
        interpreted numpy scalars; collisions merely cost probes.
        """
        if t == 0.0:
            t = 0.0  # +0.0 and -0.0 must share a bucket, like dict keys
        fbits[0] = t
        b = ubits[0]
        b ^= b >> np.uint64(33)
        b ^= b << np.uint64(25)
        b ^= b >> np.uint64(13)
        b ^= b << np.uint64(41)
        b ^= b >> np.uint64(29)
        return b

    def _hash_locate(fbits, ubits, hash_time, hash_state, t):
        """Find ``t``'s bucket: ``(bid, index)``, or ``(-1, insert index)``."""
        mask = np.uint64(hash_state.shape[0] - 1)
        idx = _hash_bits(fbits, ubits, t) & mask
        first_free = -1
        while True:
            s = hash_state[idx]
            if s == -1:
                if first_free < 0:
                    first_free = np.int64(idx)
                return -1, first_free
            if s == -2:
                if first_free < 0:
                    first_free = np.int64(idx)
            elif hash_time[idx] == t:
                return s, np.int64(idx)
            idx = (idx + np.uint64(1)) & mask

    def _queue_push(
        heap_time,
        heap_bid,
        bucket_head,
        bucket_tail,
        next_slot,
        free_bids,
        hash_time,
        hash_state,
        qstate,
        fbits,
        ubits,
        t,
        slot,
    ):
        """Enqueue ``slot`` at time ``t`` (append to its FIFO bucket)."""
        next_slot[slot] = -1
        bid, ins = _hash_locate(fbits, ubits, hash_time, hash_state, t)
        if bid >= 0:
            next_slot[bucket_tail[bid]] = slot
            bucket_tail[bid] = slot
            return
        qstate[1] -= 1
        bid = free_bids[qstate[1]]
        bucket_head[bid] = slot
        bucket_tail[bid] = slot
        if hash_state[ins] == -1:
            qstate[2] += 1  # consuming a never-used table slot
        hash_time[ins] = t
        hash_state[ins] = bid
        i = qstate[0]
        qstate[0] = i + 1
        while i > 0:
            p = (i - 1) >> 1
            if t < heap_time[p]:
                heap_time[i] = heap_time[p]
                heap_bid[i] = heap_bid[p]
                i = p
            else:
                break
        heap_time[i] = t
        heap_bid[i] = bid
        H = hash_state.shape[0]
        if 2 * qstate[2] > H:
            # rebuild from the live heap entries, dropping all tombstones
            for x in range(H):
                hash_state[x] = -1
            mask = np.uint64(H - 1)
            for e in range(qstate[0]):
                te = heap_time[e]
                idx = _hash_bits(fbits, ubits, te) & mask
                while hash_state[idx] != -1:
                    idx = (idx + np.uint64(1)) & mask
                hash_time[idx] = te
                hash_state[idx] = heap_bid[e]
            qstate[2] = qstate[0]

    def queue_schedule(
        heap_time,
        heap_bid,
        bucket_head,
        bucket_tail,
        next_slot,
        free_bids,
        hash_time,
        hash_state,
        qstate,
        fbits,
        ubits,
        slots,
        times,
    ):
        """Enqueue one event per ``(slot, time)`` pair, in array order.

        Array order is insertion order, exactly as
        ``BatchEventQueue.schedule`` orders simultaneous pushes.
        """
        for c in range(slots.shape[0]):
            _queue_push(
                heap_time,
                heap_bid,
                bucket_head,
                bucket_tail,
                next_slot,
                free_bids,
                hash_time,
                hash_state,
                qstate,
                fbits,
                ubits,
                times[c],
                slots[c],
            )

    def _queue_pop(
        heap_time,
        heap_bid,
        bucket_head,
        bucket_tail,
        next_slot,
        free_bids,
        hash_time,
        hash_state,
        qstate,
        fbits,
        ubits,
        limit,
        slots_out,
    ):
        """Drain the minimum-time bucket (up to ``limit`` events).

        Writes the popped slots (in insertion order = sequence order) to
        ``slots_out`` and returns their count.  A ``limit`` hit leaves the
        bucket's remaining events queued at the same time, exactly like
        ``BatchEventQueue.pop_batch(limit=...)``.
        """
        t = heap_time[0]
        bid = heap_bid[0]
        count = 0
        cur = bucket_head[bid]
        while cur >= 0 and count < limit:
            slots_out[count] = cur
            count += 1
            cur = next_slot[cur]
        if cur >= 0:
            bucket_head[bid] = cur  # limit hit: leftovers stay queued
        else:
            # bucket drained: retire it and pop the time off the heap
            free_bids[qstate[1]] = bid
            qstate[1] += 1
            _, idx = _hash_locate(fbits, ubits, hash_time, hash_state, t)
            hash_state[idx] = -2  # tombstone
            size = qstate[0] - 1
            qstate[0] = size
            mt = heap_time[size]
            mb = heap_bid[size]
            i = 0
            while True:
                c = 2 * i + 1
                if c >= size:
                    break
                if c + 1 < size and heap_time[c + 1] < heap_time[c]:
                    c = c + 1
                if heap_time[c] < mt:
                    heap_time[i] = heap_time[c]
                    heap_bid[i] = heap_bid[c]
                    i = c
                else:
                    break
            if size > 0:
                heap_time[i] = mt
                heap_bid[i] = mb
        return count

    def pop_round(
        heap_time,
        heap_bid,
        bucket_head,
        bucket_tail,
        next_slot,
        free_bids,
        hash_time,
        hash_state,
        qstate,
        fbits,
        ubits,
        limit,
        loc,
        dst,
        slots_out,
        tails_out,
        dests_out,
        meta,
    ):
        """:func:`_queue_pop`, then gather the forwarding subset.

        Writes the forwarding subset's current node / destination to
        ``tails_out`` / ``dests_out`` (read-only pass: no simulation state
        is mutated yet, so the router sees exactly what the reference
        loop's per-event calls see).  ``meta[0]`` = popped count,
        ``meta[1]`` = forwarding count.
        """
        count = _queue_pop(
            heap_time,
            heap_bid,
            bucket_head,
            bucket_tail,
            next_slot,
            free_bids,
            hash_time,
            hash_state,
            qstate,
            fbits,
            ubits,
            limit,
            slots_out,
        )
        nfwd = 0
        for k in range(count):
            cur = slots_out[k]
            node = loc[cur]
            if node != dst[cur]:
                tails_out[nfwd] = node
                dests_out[nfwd] = dst[cur]
                nfwd += 1
        meta[0] = count
        meta[1] = nfwd

    def finish_round(
        t,
        T,
        L,
        count,
        slots,
        nxt,
        loc,
        dst,
        hops,
        arrival,
        prev_link,
        rep,
        last_time,
        busy_until,
        queue_len,
        max_queue,
        tx_count,
        group_keys,
        group_ptr,
        flat_links,
        vertex_groups,
        n,
        m,
        heap_time,
        heap_bid,
        bucket_head,
        bucket_tail,
        next_slot,
        free_bids,
        hash_time,
        hash_state,
        qstate,
        fbits,
        ubits,
        out_links,
        out_starts,
        out_movers,
        meta,
    ):
        """Resolve one popped batch with the literal reference semantics.

        Events are processed one at a time in sequence order — FIFO-slot
        release, arrival, earliest-free parallel-link greedy (strict ``<``
        over ascending link ids = the reference ``min`` by ``(raw free
        time, link id)``), sequential ``max(t, busy) + T`` accumulation —
        so every float is produced by the same op sequence as
        ``NetworkSimulator``.  ``nxt`` holds the router's next hops for the
        forwarding subset, aligned with the order ``pop_round`` emitted
        them.  Writes the per-transmission trace triple to ``out_*`` and
        the moved-message count to ``meta[0]``.  Returns 0, or 1 when a
        hop is not an arc of the topology: the round stops at that event
        and ``meta[2]`` / ``meta[3]`` hold its node and hop.
        """
        j = 0
        nm = 0
        for k2 in range(count):
            i = slots[k2]
            r = rep[i]
            last_time[r] = t
            il = prev_link[i]
            if il >= 0:
                hops[i] += 1
                queue_len[il] -= 1
            node = loc[i]
            if node == dst[i]:
                arrival[i] = t
                continue
            nx = nxt[j]
            j += 1
            if nx < 0:
                continue  # unreachable: drop (counted as undelivered)
            # the vertex's groups are contiguous in the sorted key array, and
            # there are at most out-degree of them: a linear probe of that
            # tiny range beats a binary search over all groups
            key = node * n + nx
            g = -1
            for q2 in range(vertex_groups[node], vertex_groups[node + 1]):
                if group_keys[q2] == key:
                    g = q2
                    break
            if g < 0:
                meta[0] = nm
                meta[2] = node
                meta[3] = nx
                return 1  # the router named a hop that is not an arc
            base = r * m
            p0 = group_ptr[g]
            p1 = group_ptr[g + 1]
            best = base + flat_links[p0]
            bb = busy_until[best]
            for p in range(p0 + 1, p1):
                cand = base + flat_links[p]
                cb = busy_until[cand]
                if cb < bb:
                    best = cand
                    bb = cb
            start = t if t > bb else bb
            finish = start + T
            busy_until[best] = finish
            depth = queue_len[best] + 1
            queue_len[best] = depth
            if depth > max_queue[r]:
                max_queue[r] = depth
            tx_count[r] += 1
            prev_link[i] = best
            loc[i] = nx
            _queue_push(
                heap_time,
                heap_bid,
                bucket_head,
                bucket_tail,
                next_slot,
                free_bids,
                hash_time,
                hash_state,
                qstate,
                fbits,
                ubits,
                finish + L,
                i,
            )
            out_links[nm] = best
            out_starts[nm] = start
            out_movers[nm] = i
            nm += 1
        meta[0] = nm
        return 0

    def run_rounds(
        T,
        L,
        has_until,
        until,
        max_events,
        loc,
        dst,
        hops,
        arrival,
        prev_link,
        rep,
        last_time,
        busy_until,
        queue_len,
        max_queue,
        tx_count,
        group_keys,
        group_ptr,
        flat_links,
        vertex_groups,
        n,
        m,
        heap_time,
        heap_bid,
        bucket_head,
        bucket_tail,
        next_slot,
        free_bids,
        hash_time,
        hash_state,
        qstate,
        fbits,
        ubits,
        slots_buf,
        tails_buf,
        dests_buf,
        nxt_buf,
        out_links,
        out_starts,
        out_movers,
        meta,
        base,
        D,
        to_code,
        from_code,
        sorted_codes,
    ):
        """The whole round loop with closed-form routing: pop -> route -> finish.

        The per-round driver loop of ``repro.simulation.network.
        _run_rounds_kernel`` with :func:`shift_next_hops` standing in for
        the router call, so no round leaves the kernel.  ``has_until`` = 0
        disables the ``until`` cut; ``max_events`` caps the popped events.
        Returns 0; 1 when a hop is not an arc (``meta[2]`` / ``meta[3]`` =
        node, hop, as in :func:`finish_round`); 2 when a routed pair falls
        outside the relabelling arrays (``meta[2]`` / ``meta[3]`` = node,
        destination).
        """
        processed = 0
        while qstate[0] > 0:
            t = heap_time[0]
            if has_until and t > until:
                break
            limit = max_events - processed
            if limit <= 0:
                break
            pop_round(
                heap_time,
                heap_bid,
                bucket_head,
                bucket_tail,
                next_slot,
                free_bids,
                hash_time,
                hash_state,
                qstate,
                fbits,
                ubits,
                limit,
                loc,
                dst,
                slots_buf,
                tails_buf,
                dests_buf,
                meta,
            )
            count = meta[0]
            processed += count
            bad = shift_next_hops(
                tails_buf,
                dests_buf,
                meta[1],
                base,
                D,
                to_code,
                from_code,
                sorted_codes,
                nxt_buf,
            )
            if bad >= 0:
                meta[2] = tails_buf[bad]
                meta[3] = dests_buf[bad]
                return 2
            status = finish_round(
                t,
                T,
                L,
                count,
                slots_buf,
                nxt_buf,
                loc,
                dst,
                hops,
                arrival,
                prev_link,
                rep,
                last_time,
                busy_until,
                queue_len,
                max_queue,
                tx_count,
                group_keys,
                group_ptr,
                flat_links,
                vertex_groups,
                n,
                m,
                heap_time,
                heap_bid,
                bucket_head,
                bucket_tail,
                next_slot,
                free_bids,
                hash_time,
                hash_state,
                qstate,
                fbits,
                ubits,
                out_links,
                out_starts,
                out_movers,
                meta,
            )
            if status != 0:
                return status
        return 0

    def _group_live(group_ptr, flat_links, link_down, g):
        """Is some link of link group ``g`` up?"""
        for p in range(group_ptr[g], group_ptr[g + 1]):
            if not link_down[flat_links[p]]:
                return True
        return False

    def run_scenario(
        T,
        L,
        has_until,
        until,
        max_events,
        loc,
        dst,
        hops,
        arrival,
        prev_link,
        rep,
        last_time,
        busy_until,
        queue_len,
        max_queue,
        tx_count,
        group_keys,
        group_ptr,
        flat_links,
        vertex_groups,
        n,
        m,
        heap_time,
        heap_bid,
        bucket_head,
        bucket_tail,
        next_slot,
        free_bids,
        hash_time,
        hash_state,
        qstate,
        fbits,
        ubits,
        slots_buf,
        meta,
        base,
        D,
        to_code,
        from_code,
        sorted_codes,
        table,
        num_messages,
        fault_kind,
        fault_target,
        link_down,
        node_down,
        distance,
        ttl,
        capacity,
        retry,
        retry_delay,
        max_retries,
        retries,
        drop_code,
        counters,
    ):
        """A whole degrading-scenario pass: faults, buffers, TTL, reroute.

        The event loop of ``repro.simulation.network.BatchedNetworkSimulator.
        _run_many_scenario``, one event at a time in sequence order with the
        float ops of :func:`finish_round`.  Slots ``>= num_messages`` are
        fault events (``fault_kind`` 0 link down, 1 link up, 2 node down, 3
        node up on ``fault_target``); they set ``last_time`` of every
        replica.  Primary next hops come from the flat dense ``table``
        (``table[u * n + v]``) or, when it is empty, from
        :func:`shift_next_hops`.  An empty ``distance`` table means reroute
        ``"none"``; otherwise a severed primary deflects to the live
        neighbour minimising ``(distance[nb * n + target], nb)``.  ``ttl`` /
        ``capacity`` < 0 disable the hop TTL / the buffer bound; ``retry``
        != 0 re-offers a message finding no free buffer after
        ``retry_delay``, at most ``max_retries`` times.  ``drop_code`` is 1
        fault, 2 hops, 3 buffer; ``counters`` holds five int64 per replica:
        retransmits, the three drop counts by code, rerouted hops.
        Returns 0; 1 when a primary hop is not an arc (``meta[2]`` /
        ``meta[3]`` = node, hop); 2 when a routed pair falls outside the
        relabelling arrays (``meta[2]`` / ``meta[3]`` = node, destination).
        """
        R = last_time.shape[0]
        pair = np.empty(3, dtype=np.int64)  # shift routing: node, target, hop
        processed = 0
        while qstate[0] > 0:
            t = heap_time[0]
            if has_until and t > until:
                break
            limit = max_events - processed
            if limit <= 0:
                break
            count = _queue_pop(
                heap_time,
                heap_bid,
                bucket_head,
                bucket_tail,
                next_slot,
                free_bids,
                hash_time,
                hash_state,
                qstate,
                fbits,
                ubits,
                limit,
                slots_buf,
            )
            processed += count
            for k in range(count):
                i = slots_buf[k]
                if i >= num_messages:
                    f = i - num_messages
                    kind = fault_kind[f]
                    if kind < 2:
                        link_down[fault_target[f]] = 1 - kind
                    else:
                        node_down[fault_target[f]] = 3 - kind
                    for r in range(R):
                        last_time[r] = t  # the fault timeline is global
                    continue
                r = rep[i]
                last_time[r] = t
                il = prev_link[i]
                if il >= 0:
                    hops[i] += 1
                    queue_len[il] -= 1
                    prev_link[i] = -1
                node = loc[i]
                target = dst[i]
                if node_down[node]:
                    drop_code[i] = 1
                    counters[5 * r + 1] += 1
                    continue
                if node == target:
                    arrival[i] = t
                    continue
                if ttl >= 0 and hops[i] >= ttl:
                    drop_code[i] = 2
                    counters[5 * r + 2] += 1
                    continue
                if table.shape[0] > 0:
                    primary = table[node * n + target]
                else:
                    pair[0] = node
                    pair[1] = target
                    bad = shift_next_hops(
                        pair[0:1],
                        pair[1:2],
                        1,
                        base,
                        D,
                        to_code,
                        from_code,
                        sorted_codes,
                        pair[2:3],
                    )
                    if bad >= 0:
                        meta[2] = node
                        meta[3] = target
                        return 2
                    primary = pair[2]
                if primary < 0:
                    continue  # unreachable in the healthy topology
                key = node * n + primary
                g = -1
                for q2 in range(vertex_groups[node], vertex_groups[node + 1]):
                    if group_keys[q2] == key:
                        g = q2
                        break
                if g < 0:
                    meta[2] = node
                    meta[3] = primary
                    return 1  # the router named a hop that is not an arc
                rerouted = 0
                if node_down[primary] or not _group_live(
                    group_ptr, flat_links, link_down, g
                ):
                    # greedy deflection: the usable neighbour (ascending, so
                    # strict < keeps the lowest id) closest to the target
                    best_g = -1
                    best_distance = -1
                    if distance.shape[0] > 0:
                        for q2 in range(vertex_groups[node], vertex_groups[node + 1]):
                            nb = group_keys[q2] - node * n
                            if nb == primary or node_down[nb]:
                                continue
                            if not _group_live(group_ptr, flat_links, link_down, q2):
                                continue
                            dd = distance[nb * n + target]
                            if dd < 0:
                                continue
                            if best_g < 0 or dd < best_distance:
                                best_g = q2
                                best_distance = dd
                    if best_g < 0:
                        drop_code[i] = 1
                        counters[5 * r + 1] += 1
                        continue
                    g = best_g
                    rerouted = 1
                # the earliest-free live link with buffer room, lowest id on ties
                rbase = r * m
                best = -1
                bb = 0.0
                for p in range(group_ptr[g], group_ptr[g + 1]):
                    lid = flat_links[p]
                    if link_down[lid]:
                        continue
                    cand = rbase + lid
                    if capacity >= 0 and queue_len[cand] >= capacity:
                        continue
                    cb = busy_until[cand]
                    if best < 0 or cb < bb:
                        best = cand
                        bb = cb
                if best < 0:
                    if retry and retries[i] < max_retries:
                        retries[i] += 1
                        counters[5 * r] += 1
                        _queue_push(
                            heap_time,
                            heap_bid,
                            bucket_head,
                            bucket_tail,
                            next_slot,
                            free_bids,
                            hash_time,
                            hash_state,
                            qstate,
                            fbits,
                            ubits,
                            t + retry_delay,
                            i,
                        )
                    else:
                        drop_code[i] = 3
                        counters[5 * r + 3] += 1
                    continue
                start = t if t > bb else bb
                finish = start + T
                busy_until[best] = finish
                depth = queue_len[best] + 1
                queue_len[best] = depth
                if depth > max_queue[r]:
                    max_queue[r] = depth
                tx_count[r] += 1
                if rerouted:
                    counters[5 * r + 4] += 1
                prev_link[i] = best
                loc[i] = group_keys[g] - node * n
                _queue_push(
                    heap_time,
                    heap_bid,
                    bucket_head,
                    bucket_tail,
                    next_slot,
                    free_bids,
                    hash_time,
                    hash_state,
                    qstate,
                    fbits,
                    ubits,
                    finish + L,
                    i,
                )
        return 0

    class RoundDriver:
        """Pre-bound per-run driver: the arrays are captured once.

        ``queue``/``msg``/``links``/``topo``/``bufs`` are the array tuples
        documented in the module docstring and
        ``repro.simulation.network._run_rounds_kernel``; binding them here
        keeps the per-round python→kernel call down to a few scalars.
        """

        __slots__ = ("queue", "msg", "links", "topo", "bufs", "T", "L")

        def __init__(self, queue, msg, links, topo, bufs, T, L):
            self.queue = queue
            self.msg = msg
            self.links = links
            self.topo = topo
            self.bufs = bufs
            self.T = T
            self.L = L

        def schedule(self, slots, times):
            queue_schedule(*self.queue, slots, times)

        def pop(self, limit):
            loc, dst = self.msg[0], self.msg[1]
            slots_buf, tails_buf, dests_buf, meta = (
                self.bufs[0],
                self.bufs[1],
                self.bufs[2],
                self.bufs[6],
            )
            pop_round(
                *self.queue,
                limit,
                loc,
                dst,
                slots_buf,
                tails_buf,
                dests_buf,
                meta,
            )

        def finish(self, t, count, nxt):
            loc, dst, hops, arrival, prev_link, rep = self.msg
            busy_until, queue_len, max_queue, tx_count, last_time = self.links
            group_keys, group_ptr, flat_links, vertex_groups, n, m = self.topo
            slots_buf, _, _, out_links, out_starts, out_movers, meta = self.bufs
            return finish_round(
                t,
                self.T,
                self.L,
                count,
                slots_buf,
                nxt,
                loc,
                dst,
                hops,
                arrival,
                prev_link,
                rep,
                last_time,
                busy_until,
                queue_len,
                max_queue,
                tx_count,
                group_keys,
                group_ptr,
                flat_links,
                vertex_groups,
                n,
                m,
                *self.queue,
                out_links,
                out_starts,
                out_movers,
                meta,
            )

        def run(self, until, max_events, route):
            """Every remaining round in one :func:`run_rounds` call.

            ``until`` / ``max_events`` may be None; ``route`` is the
            router's ``shift_spec()``.  Returns the kernel status.
            """
            loc, dst, hops, arrival, prev_link, rep = self.msg
            busy_until, queue_len, max_queue, tx_count, last_time = self.links
            group_keys, group_ptr, flat_links, vertex_groups, n, m = self.topo
            (slots_buf, tails_buf, dests_buf,
             out_links, out_starts, out_movers, meta) = self.bufs
            base, D, to_code, from_code, sorted_codes = route
            return run_rounds(
                self.T,
                self.L,
                until is not None,
                0.0 if until is None else until,
                (1 << 62) if max_events is None else max_events,
                loc,
                dst,
                hops,
                arrival,
                prev_link,
                rep,
                last_time,
                busy_until,
                queue_len,
                max_queue,
                tx_count,
                group_keys,
                group_ptr,
                flat_links,
                vertex_groups,
                n,
                m,
                *self.queue,
                slots_buf,
                tails_buf,
                dests_buf,
                np.empty_like(slots_buf),  # next hops, one per forwarder
                out_links,
                out_starts,
                out_movers,
                meta,
                base,
                D,
                to_code,
                from_code,
                sorted_codes,
            )

        def run_scenario(self, until, max_events, route, table, scenario):
            """A whole degrading-scenario pass in one :func:`run_scenario` call.

            ``route`` is a ``shift_spec()`` (unused when the flat dense
            ``table`` is not empty); ``scenario`` is the tuple ``(
            num_messages, fault_kind, fault_target, link_down, node_down,
            distance, ttl, capacity, retry, retry_delay, max_retries,
            retries, drop_code, counters)``.  Returns the kernel status.
            """
            loc, dst, hops, arrival, prev_link, rep = self.msg
            busy_until, queue_len, max_queue, tx_count, last_time = self.links
            group_keys, group_ptr, flat_links, vertex_groups, n, m = self.topo
            slots_buf, meta = self.bufs[0], self.bufs[6]
            base, D, to_code, from_code, sorted_codes = route
            return run_scenario(
                self.T,
                self.L,
                until is not None,
                0.0 if until is None else until,
                (1 << 62) if max_events is None else max_events,
                loc,
                dst,
                hops,
                arrival,
                prev_link,
                rep,
                last_time,
                busy_until,
                queue_len,
                max_queue,
                tx_count,
                group_keys,
                group_ptr,
                flat_links,
                vertex_groups,
                n,
                m,
                *self.queue,
                slots_buf,
                meta,
                base,
                D,
                to_code,
                from_code,
                sorted_codes,
                table,
                *scenario,
            )

    def make_round_driver(queue, msg, links, topo, bufs, T, L):
        return RoundDriver(queue, msg, links, topo, bufs, T, L)

    return SimpleNamespace(
        ecc_sweep=ecc_sweep,
        subset_rows_sweep=subset_rows_sweep,
        subset_ecc_sweep=subset_ecc_sweep,
        bfs_screen=bfs_screen,
        shift_next_hops=shift_next_hops,
        make_round_driver=make_round_driver,
        # exposed for the differential tests (not used by the engines)
        queue_schedule=queue_schedule,
        pop_round=pop_round,
        finish_round=finish_round,
        run_rounds=run_rounds,
    )


#: The interpreted reference build (slow; for differential tests only).
PY_KERNELS = build_kernels()
