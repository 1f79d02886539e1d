"""Typed-array calendar event core (struct-of-arrays scheduler storage).

This module holds the storage half of the default ``scheduler="array"``
event queue, a self-resizing calendar queue (the drain loop is
``Environment._run_array``; sizing rules and the determinism argument
are in docs/performance.md, "Event scheduler"). Every queued entry lives
in flat typed arrays:

* per-slot fields are parallel arrays — ``et`` (``float64`` deadline),
  ``ep``/``es``/``ev`` (``int64`` priority / first-member seq / virtual
  bucket number) and ``nxt`` (``int64`` intrusive next-slot link);
* a bucket is an intrusive singly linked list of slot indices rooted at
  ``bhead[i]`` (``-1`` empty), ascending by ``(time, priority, seq)``
  when clean and lazily re-sorted via the ``bdirty`` byte per bucket;
* payloads stay in a parallel ``chains`` table: one persistent Python
  list per slot holding every event coalesced at that exact
  ``(time, priority)`` in seq (append) order — the chain is the
  ``(time, priority, seq)`` total order materialised, and the slot's
  ``es`` (its first member's seq) is its sort tiebreaker;
* slots are recycled through a free-list stack, so a steady-state run
  allocates no per-entry tuples or lists at all.

The two maintenance operations are vector kernels:

* a dirty bucket re-sort gathers the chain's slot indices and
  ``np.lexsort``\\ s them by ``(time, priority, seq)`` (falling back to a
  plain tuple sort below ``_LEXSORT_MIN`` where interpreter overhead
  wins), then relinks the list;
* a geometry rebuild recomputes every live slot's virtual bucket number,
  ``np.lexsort``\\ s by ``(bucket, time, priority, seq)`` and scatters the
  ``nxt``/``bhead`` links in one pass — and because the within-bucket
  order is already ascending, rebuilt buckets come out *clean*.

Correctness contract: the dispatch order produced through this core is
bit-exact with the heap scheduler (the executable spec) — asserted by
the scheduler-equivalence and hypothesis differential tests. Geometry
(bucket count, width) never affects order, only cost.

The scalar hot paths (push, pop, chain walk) deliberately use
``array.array`` element access rather than numpy scalar indexing: a
Python-level ``arr[i]`` on ``array.array`` returns an unboxed int/float
several times cheaper than a numpy scalar. Numpy views are created
transiently inside the vector kernels only — ``array.array`` refuses to
resize while a buffer export is live, so no view may outlive its kernel
(slot-capacity growth extends the arrays in place, keeping every cached
binding in the run loop valid).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from .engine import Environment, Event

__all__ = ["ArrayCalendar"]

#: Virtual bucket number for times too large for ``int(t / width)``
#: (``inf`` schedules); compares after every finite bucket. The float
#: twin is the branchless overflow guard of the insert paths. The engine
#: imports these (and ``_NAN``, ``_SORTED_INSERT_MAX``) for its inlined
#: inserts, so there is one definition of each.
_FAR_FUTURE = 1 << 62
_FAR_FUTURE_F = float(_FAR_FUTURE)

#: Initial calendar geometry. 64 buckets of 1 simulated second hold the
#: steady monitoring/steal-timer drizzle without a rebuild; both numbers
#: self-tune (see :meth:`ArrayCalendar.rebuild`).
_INITIAL_BUCKETS = 64
_INITIAL_WIDTH = 1.0

#: Initial slot capacity; doubles in place whenever the free list runs dry.
_INITIAL_SLOTS = 256

#: Below this chain length a dirty-bucket re-sort uses a plain Python
#: tuple sort; from here up, gathering into numpy and lexsorting wins.
_LEXSORT_MIN = 16

#: NaN never compares equal, so an invalidated insert cache auto-misses
#: without a separate "is it valid" branch.
_NAN = float("nan")

#: Link-walk cap for the sorted insert in :meth:`ArrayCalendar.push_new`.
#: Keeping buckets *clean* (sorted) at insert time is what lets the
#: drain skip re-sorts: a dirty-bucket sort over gathered slots costs
#: ~6x a plain tuple sort, so append-then-sort loses here. Past this
#: many link hops the insert falls back to a front-push + dirty mark,
#: bounding the worst case (degenerate buckets are the rebuild
#: trigger's job, not the insert's).
_SORTED_INSERT_MAX = 16


class ArrayCalendar:
    """Struct-of-arrays calendar-queue storage for one :class:`Environment`.

    The environment owns the clock, the seq counter, the tombstone set
    and the timeout pool; this object owns the pending-entry storage and
    the calendar geometry. The drain loop lives in
    ``Environment._run_array`` beside ``_run_heap_reference`` so the
    dispatch semantics of both schedulers stay in one reviewable place.
    """

    __slots__ = (
        "env",
        "cap",
        "et",
        "ep",
        "es",
        "ev",
        "nxt",
        "chains",
        "free",
        "bhead",
        "btail",
        "bdirty",
        "mask",
        "width",
        "inv_width",
        "qsize",
        "grow_at",
        "need_rebuild",
        "last_rebuild_seq",
        "ins_t",
        "ins_p",
        "ins_chain",
        "u0",
        "cur_v",
        "now_v",
        "rebuild_count",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        cap = _INITIAL_SLOTS
        self.cap = cap
        self.et = array("d", bytes(8 * cap))
        self.ep = array("q", bytes(8 * cap))
        self.es = array("q", bytes(8 * cap))
        self.ev = array("q", bytes(8 * cap))
        self.nxt = array("q", bytes(8 * cap))
        self.chains: list[list] = [[] for _ in range(cap)]
        #: free-slot stack; popped from the end, so lowest indices first.
        self.free = list(range(cap - 1, -1, -1))
        self.bhead = array("q", [-1]) * _INITIAL_BUCKETS
        #: last chain slot per bucket. Only meaningful while the bucket
        #: is clean and non-empty: head pops keep it valid, the
        #: empty-bucket insert resets it, and ``sort_bucket``/``rebuild``
        #: recompute it (a dirty bucket's tail is simply unused).
        self.btail = array("q", [-1]) * _INITIAL_BUCKETS
        self.bdirty = bytearray(_INITIAL_BUCKETS)
        self.mask = _INITIAL_BUCKETS - 1
        self.width = _INITIAL_WIDTH
        self.inv_width = 1.0 / _INITIAL_WIDTH
        self.qsize = 0
        self.grow_at = 4 * _INITIAL_BUCKETS
        self.need_rebuild = False
        self.last_rebuild_seq = 0
        #: coalescing insert cache: the most recently created entry's
        #: key as scalars plus its chain list, so a hit is two float/int
        #: compares and a list append touching no typed array. ``ins_t``
        #: is NaN whenever the cache is invalid (NaN == anything is
        #: False). Invalidated when the cached entry itself is popped —
        #: detected by chain-list identity, so the cache survives pops
        #: of *other* entries and keeps coalescing. It never returns to
        #: an older entry, so any later entry with an equal (time,
        #: priority) holds strictly larger seqs and a chain's append
        #: order is always seq order.
        self.ins_t = _NAN
        self.ins_p = -1
        self.ins_chain: list = []
        #: urgent-insert generation counter (watched by the chain drain).
        self.u0 = 0
        self.rebuild_count = 0
        v = self.v_of(env.now)
        #: cursor: no queued entry has a virtual bucket number below this.
        self.cur_v = v
        #: int(now / width), maintained on every clock change.
        self.now_v = v

    # -- geometry ----------------------------------------------------------
    def v_of(self, t: float) -> int:
        """Virtual bucket number of time ``t`` under the current width."""
        tv = t * self.inv_width
        return int(tv) if tv < _FAR_FUTURE_F else _FAR_FUTURE

    def entries(self) -> int:
        """Number of chained entries (occupied slots) in the buckets."""
        return self.cap - len(self.free)

    def _grow(self) -> None:
        """Double the slot capacity in place.

        ``array.extend``/``frombytes`` keep the array *objects* stable,
        so bindings cached by the run loop stay valid across growth.
        """
        cap = self.cap
        zeros = bytes(8 * cap)
        self.et.frombytes(zeros)
        self.ep.frombytes(zeros)
        self.es.frombytes(zeros)
        self.ev.frombytes(zeros)
        self.nxt.frombytes(zeros)
        self.chains.extend([[] for _ in range(cap)])
        self.free.extend(range(2 * cap - 1, cap - 1, -1))
        self.cap = 2 * cap

    # -- inserts -----------------------------------------------------------
    # The engine's insert sites (``Timeout.__init__``, ``timeout()``,
    # ``sleep()``, ``_schedule``) inline the coalesce-cache hit — one
    # slot check plus a list append — and call (or inline) the ``*_new``
    # slow paths only on a miss. ``push``/``push_at_now`` keep the check
    # for any caller that has not done it.

    def push(self, t: float, prio: int, seq: int, event: "Event") -> None:
        """Insert ``event`` at absolute time ``t`` (the generic path)."""
        if self.ins_t == t and self.ins_p == prio:
            self.ins_chain.append(event)
            self.qsize += 1
            return
        self.push_new(t, prio, seq, event)

    def push_new(self, t: float, prio: int, seq: int, event: "Event") -> None:
        """Insert past a coalesce miss: open a new slot linked at its
        sorted position when the bucket is clean (bounded walk), or
        pushed onto the chain front with a dirty mark otherwise."""
        free = self.free
        if not free:
            self._grow()
        s = free.pop()
        tv = t * self.inv_width
        v = int(tv) if tv < _FAR_FUTURE_F else _FAR_FUTURE
        i = v & self.mask
        et = self.et
        ep = self.ep
        es = self.es
        bhead = self.bhead
        nxt = self.nxt
        et[s] = t
        ep[s] = prio
        es[s] = seq
        self.ev[s] = v
        chain = self.chains[s]
        chain.append(event)
        self.ins_t = t
        self.ins_p = prio
        self.ins_chain = chain
        h = bhead[i]
        if h < 0:
            nxt[s] = -1
            bhead[i] = s
            self.btail[i] = s
        elif self.bdirty[i]:
            nxt[s] = h
            bhead[i] = s
        else:
            # Keep the bucket clean: place at the sorted position so the
            # drain never has to re-sort it. A dirty-bucket sort here is
            # ~6x dearer than ``list.sort`` on ready tuples (gather +
            # decorate + relink), so sorting at insert wins. Timers are
            # mostly created in deadline order, so first probe the tail
            # — an O(1) append — and only walk from the head otherwise,
            # capped at _SORTED_INSERT_MAX hops, past which fall back to
            # a front-push + dirty mark (long chains are the degenerate
            # rebuild trigger's problem, not the insert's).
            btail = self.btail
            tl = btail[i]
            ct = et[tl]
            if ct < t or (
                ct == t
                and (ep[tl] < prio or (ep[tl] == prio and es[tl] < seq))
            ):
                nxt[tl] = s
                nxt[s] = -1
                btail[i] = s
            else:
                prev = -1
                cur = h
                hops = _SORTED_INSERT_MAX
                placed = False
                while cur >= 0:
                    ct = et[cur]
                    if ct < t or (
                        ct == t
                        and (
                            ep[cur] < prio
                            or (ep[cur] == prio and es[cur] < seq)
                        )
                    ):
                        hops -= 1
                        if hops == 0:
                            nxt[s] = h
                            bhead[i] = s
                            self.bdirty[i] = 1
                            placed = True
                            break
                        prev = cur
                        cur = nxt[cur]
                    else:
                        break
                if not placed:
                    nxt[s] = cur
                    if prev < 0:
                        bhead[i] = s
                    else:
                        nxt[prev] = s
        if v < self.cur_v:
            self.cur_v = v
        qsize = self.qsize + 1
        self.qsize = qsize
        env = self.env
        if qsize > env._max_queue_len:
            env._max_queue_len = qsize
            # Grow on *occupied slots*, not events: a long coalesced
            # chain is one entry in one bucket and needs no more
            # geometry (geometry only affects cost, never order).
            if qsize > self.grow_at and self.cap - len(free) > self.grow_at:
                self.need_rebuild = True

    def push_at_now(self, t: float, prio: int, seq: int, event: "Event") -> None:
        """``delay == 0`` insert at the current instant (``_schedule``)."""
        if self.ins_t == t and self.ins_p == prio:
            self.ins_chain.append(event)
            self.qsize += 1
            return
        self.push_at_now_new(t, prio, seq, event)

    def push_at_now_new(
        self, t: float, prio: int, seq: int, event: "Event"
    ) -> None:
        """Current-instant insert past a coalesce miss.

        These inserts usually land in the bucket the run loop is
        *draining*, so on a clean bucket the slot is linked at its
        sorted position directly (O(same-instant peers)) instead of
        dirty-marking, which would force the drain to break and re-sort
        per entry.
        """
        et = self.et
        ep = self.ep
        v = self.now_v
        i = v & self.mask
        if prio == 0:  # URGENT
            # The run loop's chain drain watches this counter: an urgent
            # insert at the current instant must preempt the NORMAL
            # chain being drained.
            self.u0 += 1
        free = self.free
        if not free:
            self._grow()
        s = free.pop()
        es = self.es
        et[s] = t
        ep[s] = prio
        es[s] = seq
        self.ev[s] = v
        chain = self.chains[s]
        chain.append(event)
        self.ins_t = t
        self.ins_p = prio
        self.ins_chain = chain
        bhead = self.bhead
        nxt = self.nxt
        h = bhead[i]
        if h < 0:
            nxt[s] = -1
            bhead[i] = s
            self.btail[i] = s
        elif self.bdirty[i]:
            nxt[s] = h
            bhead[i] = s
        else:
            # Sorted insert: the new entry has the largest seq of its
            # instant, so when the bucket holds nothing later-timed it
            # belongs at the tail (O(1) probe — this is what keeps a
            # long same-instant chain from costing O(n) per insert);
            # otherwise walk from the head past every entry ordered
            # before (t, prio, seq).
            btail = self.btail
            tl = btail[i]
            ct = et[tl]
            if ct < t or (
                ct == t
                and (ep[tl] < prio or (ep[tl] == prio and es[tl] < seq))
            ):
                nxt[tl] = s
                nxt[s] = -1
                btail[i] = s
            else:
                prev = -1
                cur = h
                while cur >= 0:
                    ct = et[cur]
                    if ct < t or (
                        ct == t
                        and (
                            ep[cur] < prio
                            or (ep[cur] == prio and es[cur] < seq)
                        )
                    ):
                        prev = cur
                        cur = nxt[cur]
                    else:
                        break
                nxt[s] = cur
                if prev < 0:
                    bhead[i] = s
                else:
                    nxt[prev] = s
        if v < self.cur_v:
            self.cur_v = v
        qsize = self.qsize + 1
        self.qsize = qsize
        env = self.env
        if qsize > env._max_queue_len:
            env._max_queue_len = qsize
            # Entries-based grow gate (see push_new).
            if qsize > self.grow_at and self.cap - len(free) > self.grow_at:
                self.need_rebuild = True

    # -- maintenance -------------------------------------------------------
    def sort_bucket(self, i: int) -> int:
        """Re-sort bucket ``i`` ascending by ``(time, priority, seq)``.

        Returns the chain length (the caller's degenerate-bucket probe).
        Long chains gather their slot indices and ``lexsort`` them in
        numpy; short ones use a plain keyed sort.
        """
        nxt = self.nxt
        s = self.bhead[i]
        slots = []
        append = slots.append
        while s >= 0:
            append(s)
            s = nxt[s]
        n = len(slots)
        if n > 1:
            et = self.et
            ep = self.ep
            es = self.es
            if n < _LEXSORT_MIN:
                # Decorate-sort-undecorate: native tuple comparisons,
                # no per-element key lambda (seq is unique per entry,
                # so the trailing slot index is never compared).
                recs = [(et[k], ep[k], es[k], k) for k in slots]
                recs.sort()
                h = -1
                for rec in reversed(recs):
                    k = rec[3]
                    nxt[k] = h
                    h = k
                self.btail[i] = recs[-1][3]
            else:
                idx = np.array(slots, dtype=np.int64)
                tnp = np.frombuffer(et, dtype=np.float64)
                pnp = np.frombuffer(ep, dtype=np.int64)
                snp = np.frombuffer(es, dtype=np.int64)
                order = np.lexsort((snp[idx], pnp[idx], tnp[idx]))
                ordered = idx[order].tolist()
                h = -1
                for s in reversed(ordered):
                    nxt[s] = h
                    h = s
                self.btail[i] = ordered[-1]
            self.bhead[i] = h
        elif n == 1:
            self.btail[i] = slots[0]
        self.bdirty[i] = 0
        return n

    def find_head(self) -> int:
        """Slot of the globally minimal live entry, or -1 if only
        tombstones remain.

        Sorts dirty buckets and discards tombstoned events surfacing at
        bucket-head chains along the way (recycling pooled ones and
        freeing emptied slots), so afterwards the returned slot heads
        its bucket's chain and its chain is live.
        """
        env = self.env
        tombs = env._tombs
        tpool = env._tpool
        et = self.et
        ep = self.ep
        es = self.es
        nxt = self.nxt
        chains = self.chains
        bhead = self.bhead
        bdirty = self.bdirty
        free = self.free
        best = -1
        bt = 0.0
        bp = bs = 0
        for i in range(self.mask + 1):
            h = bhead[i]
            if h < 0:
                continue
            if bdirty[i]:
                self.sort_bucket(i)
                h = bhead[i]
            while h >= 0:
                chain = chains[h]
                if tombs:
                    k = 0
                    while k < len(chain):
                        evt = chain[k]
                        if evt in tombs:
                            del chain[k]
                            tombs.discard(evt)
                            self.qsize -= 1
                            env._cancelled_skipped += 1
                            evt._cb1 = None
                            evt._cbs = None
                            evt._processed = True
                            if evt._pooled:
                                tpool.append(evt)
                        else:
                            k += 1
                    if not chain:
                        bhead[i] = nxt[h]
                        free.append(h)
                        if self.ins_chain is chain:
                            self.ins_t = _NAN
                        h = bhead[i]
                        continue
                ht = et[h]
                if best < 0 or ht < bt or (
                    ht == bt and (ep[h] < bp or (ep[h] == bp and es[h] < bs))
                ):
                    best = h
                    bt = ht
                    bp = ep[h]
                    bs = es[h]
                break
        return best

    def rebuild(self) -> None:
        """Re-tune the calendar geometry and re-bucket every live slot.

        Bucket count tracks the live entry count with load factor in
        ~[1/8, 4]; width is estimated from the spread of queued times as
        ``3 * span / (n - 1)`` (~3 mean gaps per bucket, the classic
        calendar-queue rule). Fully vectorized: one boolean mask finds
        the live slots, one ``lexsort`` by
        ``(bucket, time, priority, seq)`` orders them, and the
        ``nxt``/``bhead`` links are scattered in bulk. Because the
        within-bucket order is already ascending, every rebuilt bucket
        comes out *clean*.
        """
        env = self.env
        self.need_rebuild = False
        self.last_rebuild_seq = env._seq
        self.rebuild_count += 1
        cap = self.cap
        free = self.free
        n = cap - len(free)
        nbuckets = _INITIAL_BUCKETS
        while nbuckets < 2 * n and nbuckets < (1 << 16):
            nbuckets <<= 1
        mask = nbuckets - 1
        self.mask = mask
        self.grow_at = 4 * nbuckets
        if n == 0:
            self.bhead = array("q", [-1]) * nbuckets
            self.btail = array("q", [-1]) * nbuckets
            self.bdirty = bytearray(nbuckets)
            self.cur_v = self.now_v = self.v_of(env.now)
            return
        livemask = np.ones(cap, dtype=bool)
        if free:
            livemask[np.array(free, dtype=np.int64)] = False
        idx = np.flatnonzero(livemask)
        tnp = np.frombuffer(self.et, dtype=np.float64)
        pnp = np.frombuffer(self.ep, dtype=np.int64)
        snp = np.frombuffer(self.es, dtype=np.int64)
        vnp = np.frombuffer(self.ev, dtype=np.int64)
        nnp = np.frombuffer(self.nxt, dtype=np.int64)
        t = tnp[idx]
        if n >= 2:
            span = float(t.max()) - float(t.min())
            if span > 0.0:
                width = 3.0 * span / (n - 1)
                self.width = min(max(width, 1e-9), 1e15)
                self.inv_width = 1.0 / self.width
        # Same clamp as the scalar insert path: int() truncation toward
        # zero for finite products, _FAR_FUTURE for overflow — monotone
        # in t, so order is unaffected.
        tv = t * self.inv_width
        v64 = np.where(tv < _FAR_FUTURE_F, tv, _FAR_FUTURE_F).astype(np.int64)
        vnp[idx] = v64
        bidx = v64 & mask
        order = np.lexsort((snp[idx], pnp[idx], t, bidx))
        sidx = idx[order]
        sb = bidx[order]
        link = np.empty(n, dtype=np.int64)
        link[:-1] = sidx[1:]
        link[-1] = -1
        brk = np.flatnonzero(sb[:-1] != sb[1:])
        link[brk] = -1
        nnp[sidx] = link
        bh = np.full(nbuckets, -1, dtype=np.int64)
        starts = np.empty(brk.size + 1, dtype=np.int64)
        starts[0] = 0
        starts[1:] = brk + 1
        bh[sb[starts]] = sidx[starts]
        new_bhead = array("q")
        new_bhead.frombytes(bh.tobytes())
        self.bhead = new_bhead
        # Per-bucket tails: each run's last sorted slot (the positions
        # just before the breaks, plus the final one).
        bt = np.full(nbuckets, -1, dtype=np.int64)
        ends = np.empty(brk.size + 1, dtype=np.int64)
        ends[:-1] = brk
        ends[-1] = n - 1
        bt[sb[ends]] = sidx[ends]
        new_btail = array("q")
        new_btail.frombytes(bt.tobytes())
        self.btail = new_btail
        self.bdirty = bytearray(nbuckets)
        self.cur_v = int(v64.min())
        self.now_v = self.v_of(env.now)
