"""Batched cohort-advance engine: vectorized route/mark/TTL per round.

The exact engine executes one discrete event per packet per hop stage;
Python dispatch dominates at scale. This engine advances the *whole live
cohort* one hop per round with numpy column operations. Rows live in a
rank-indexed store (slot r of every column belongs to the row of
activation rank r), and per-row work is spent only on the *fresh* rows —
those activated this round or advanced last round; rows waiting behind a
full channel sit in a (channel, rank) queue:

1. **activate** — injections whose time fell below the round frontier join
   the fresh set (the scheme's ``inject_array`` words, TTL, VCT injection
   overhead);
2. **retire** — fresh rows at their destination deliver (bulk statistics,
   columnar :class:`~repro.network.markstream.DeliveryRing` feed); fresh
   rows over the watchdog hop ceiling or out of TTL drop with counted
   reasons. Waiting rows cannot newly retire: nothing about them changed;
3. **route** — next-hop candidates for fresh rows: closed-form minimal
   steps for minimal routers on mesh/torus/hypercube, else the router's
   own ``routed_candidates`` probed once per distinct (node, destination)
   pair and replayed as padded candidate arrays;
4. **select** — vectorized selection-policy twins; congestion and random
   tie-breaks draw from one dedicated per-cohort RNG stream
   (``"batched-cohort"``), over fresh rows in rank order, so runs are
   deterministic per seed;
5. **admit** — credit-based channel admission: fresh rows merge into the
   (channel, rank) queue and at most ``buffer_capacity`` rows enter each
   directed channel per round, lowest rank first; the rest wait a round
   and feed the congestion signal;
6. **advance** — admitted rows, in rank order, decrement TTL, take the
   scheme's ``on_hop_array`` transform, and step to the next node; they
   are the next round's fresh rows.

Marking lives entirely in the scheme, in the columnar half of
:class:`~repro.marking.base.MarkingScheme` (DESIGN.md §12): the engine
keeps words at zero when no scheme is configured, and a scheme without a
columnar transform refuses through the base ``on_hop_array`` the first
time a round marks a row.

Determinism contract (DESIGN.md §12): same seed, same config => identical
results, independent of host or run count. Equivalence contract: identical
suspect sets and delivered counts to the exact engine wherever the
per-packet schedule cannot influence outcomes (deterministic routing +
deterministic marking, and DDPM under *any* routing — its telescoping
offsets make the delivered word a pure function of source and destination);
statistically equivalent elsewhere (probabilistic marking, adaptive
tie-breaks, latency timing).

Per-row Python work is banned here, and in the marking modules the round
reaches, by lint rule H3 (``no-per-packet-python-in-batched-path``); the
loops below are per-round, per-unique-key, or per-run and carry audited
suppressions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.network.flowcontrol import VirtualCutThrough
from repro.network.ip import IPHeader
from repro.routing.adaptive import FullyAdaptiveRouter, MinimalAdaptiveRouter
from repro.routing.base import RouteState, Router
from repro.routing.selection import (FirstCandidatePolicy,
                                     LeastCongestedPolicy, RandomPolicy)
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.colqueue import BatchedFabric

__all__ = ["CohortEngine"]


# ----------------------------------------------------------------------
# Route planning
# ----------------------------------------------------------------------
class _RoutePlanner:
    """Padded candidate arrays for the fresh rows' (node, destination) pairs.

    Pure-minimal routers on coordinate topologies (minimal-adaptive, and
    fault-free fully-adaptive, which prefers minimal steps and never needs
    its misroute fallback because every minimal step exists) are answered
    in closed form from the distance vector, per row, with no table.
    Other stateless routers answer ``routed_candidates`` from a pure
    (node, destination) key, probed once per distinct pair into a memo.
    Everything else (Valiant detours, odd-even's turn history, misrouting
    around faults) depends on per-packet route state the cohorts do not
    carry — refused with a pointer back to the exact engine.
    """

    def __init__(self, router: Router, topology: Topology):
        self.topology = topology
        self.n = topology.num_nodes
        live = len(topology.to_edge_list())
        failed = len(topology.to_edge_list(include_failed=True)) - live
        self._closed_form = (
            topology.kind in ("mesh", "torus", "hypercube")
            and (isinstance(router, MinimalAdaptiveRouter)
                 or (isinstance(router, FullyAdaptiveRouter)
                     and router.prefer_minimal and failed == 0))
        )
        if router.is_stateless:
            self._probe = router.routed_candidates
        elif isinstance(router, FullyAdaptiveRouter) \
                and router.prefer_minimal and failed == 0:
            self._probe = router.minimal_candidates
        else:
            raise ConfigurationError(
                f"router {router.name!r} is not supported by the batched "
                "engine"
                + (" on a fabric with failed links (misrouting needs "
                   "per-packet state); minimal-adaptive handles static "
                   "faults" if failed else
                   " (per-packet route state has no columnar twin)")
                + "; use engine='exact'"
            )
        width = max(topology.degree(), 1)
        self.width = width
        if self._closed_form:
            self._build_step_tables(failed)
        else:
            # Probe memo: dense (node, destination) -> memo-row map, filled
            # one distinct pair at a time by the router itself.
            self._state = RouteState(0)
            self._count = 0
            self._row_of = np.full(self.n * self.n, -1, dtype=np.int32)
            self._cand = np.full((256, width), -1, dtype=np.int64)
            self._deg = np.zeros(256, dtype=np.int64)

    def _build_step_tables(self, failed: int) -> None:
        """Precompute per-axis coordinates, step targets and step signs.

        ``_step[node * 2 * ndims + 2 * axis + d]`` is the neighbor one hop
        along ``axis`` in direction d (0 = minus, 1 = plus), -1 when the
        topology has no such link. Per axis, ``_axes`` holds the nodes'
        coordinates, a table mapping a coordinate difference (offset by
        ``k - 1``) to the sign of its minimal step, and that offset.
        Everything the closed form needs afterwards is fancy indexing.
        """
        topology = self.topology
        dims = [int(k) for k in topology.dims]
        ndims = len(dims)
        coords = np.array(
            [topology.coord(i) for i in topology.nodes()], dtype=np.int64)
        strides = np.ones(ndims, dtype=np.int64)
        for axis in range(ndims - 2, -1, -1):  # per-axis, once at build
            strides[axis] = strides[axis + 1] * dims[axis + 1]
        nodes = np.arange(self.n, dtype=np.int64)
        step = np.full((self.n, ndims, 2), -1, dtype=np.int64)
        axes = []
        torus = topology.kind == "torus"
        wrap = topology.kind != "mesh"  # torus and hypercube wrap
        for axis, k in enumerate(dims):  # per-axis, once at build
            c = np.ascontiguousarray(coords[:, axis])
            diff = np.arange(1 - k, k, dtype=np.int64)
            if torus:
                # Fold to the minimal signed residue, ties positive —
                # matching ``torus_distance_vector``.
                diff %= k
                diff -= (diff > k // 2) * k
            # Mesh difference; hypercube coords are bits, difference in
            # {-1, 0, 1} with both directions equivalent.
            axes.append((c, np.sign(diff), k - 1))
            if k == 1 or (not wrap and k < 2):
                continue
            for d, delta in ((0, -1), (1, 1)):  # two directions
                if wrap:
                    c2 = (c + delta) % k
                    step[:, axis, d] = nodes + (c2 - c) * strides[axis]
                else:
                    c2 = c + delta
                    ok = (c2 >= 0) & (c2 < k)
                    step[ok, axis, d] = nodes[ok] + delta * strides[axis]
        self._axes = axes
        self._step = step.reshape(-1)
        self._edge_up = None
        if failed:
            up = np.ones(self.n * self.n, dtype=bool)
            live_set = set()
            for a, b in topology.to_edge_list():  # per-edge, once at build
                live_set.add((a, b))
                live_set.add((b, a))
            for a, b in topology.to_edge_list(include_failed=True):  # per-edge, once at build
                if (a, b) not in live_set:
                    up[a * self.n + b] = False
                    up[b * self.n + a] = False
            self._edge_up = up

    def _minimal(self, cur: np.ndarray,
                 dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Closed-form minimal candidates, one padded row per input row.

        Mirrors :meth:`Router.minimal_candidates` exactly: per axis in
        ascending order, the single profitable live step (see
        ``_build_step_tables`` for the torus fold); hypercube axes with a
        differing bit toggle that bit.
        """
        m = cur.size
        width = self.width
        cand = np.full(m * width, -1, dtype=np.int64)
        # Flat write cursor per row: the row's next free candidate slot.
        cursor = np.arange(0, m * width, width, dtype=np.int64)
        first = cursor.copy()
        base = cur * (2 * len(self._axes))
        for axis, (coord, sign, offset) in enumerate(self._axes):  # per-axis, a handful  # repro-lint: disable=H3
            comp = sign[coord[dst] - coord[cur] + offset]
            nxt = self._step[base + (2 * axis) + (comp > 0)]
            valid = (comp != 0) & (nxt >= 0)
            if self._edge_up is not None:
                valid &= self._edge_up[cur * self.n + np.maximum(nxt, 0)]
            idx = np.flatnonzero(valid)
            cand[cursor[idx]] = nxt[idx]
            cursor[idx] += 1
        return cand.reshape(m, width), cursor - first

    def _insert(self, key: int) -> None:
        current, destination = divmod(key, self.n)
        state = self._state
        state.destination = destination
        state.last_node = None
        state.misroutes = 0
        state.distance_to_go = None
        candidates = self._probe(self.topology, current, state)
        row = self._count
        if row == self._deg.size:
            self._cand = np.concatenate(
                [self._cand, np.full_like(self._cand, -1)])
            self._deg = np.concatenate([self._deg, np.zeros_like(self._deg)])
        self._deg[row] = len(candidates)
        self._cand[row, :len(candidates)] = candidates
        self._row_of[key] = row
        self._count = row + 1

    def lookup(self, pos: np.ndarray,
               dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row (candidate matrix, degree) for the given positions."""
        if self._closed_form:
            return self._minimal(pos, dst)
        keys = pos * self.n + dst
        picked = self._row_of[keys]
        missing = picked < 0
        if missing.any():
            for key in np.unique(keys[missing]).tolist():  # per-unseen-pair probe  # repro-lint: disable=H3
                self._insert(int(key))
            picked = self._row_of[keys]
        return self._cand[picked], self._deg[picked]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
#: per-row columns of the rank-indexed store: slot ``rank`` of each column
#: belongs to the captured row of that activation rank.
_ROW_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("pos", np.int64), ("dst", np.int64), ("src_ip", np.int64),
    ("dst_ip", np.int64), ("words", np.int64), ("ttls", np.int64),
    ("hops", np.int64), ("time", np.float64), ("t0", np.float64),
    ("hold", np.float64), ("ids", np.int64), ("nxt", np.int64))

#: queue keys pack ``chan << 32 | rank``: ranks stay below 2**32.
_RANK_BITS = 32
_RANK_MASK = (1 << _RANK_BITS) - 1


class CohortEngine:
    """Advance a :class:`~repro.network.colqueue.BatchedFabric`'s captured
    injections to completion, one cohort-hop round per iteration.

    Row state lives in a rank-indexed store: the row of activation rank r
    (its index in the time-sorted capture) owns slot r of every column,
    allocated once for the whole capture, so no round compacts columns.
    Live rows are either *fresh* (activated this round or advanced last
    round; ascending rank order) or *waiting* in the channel queue, a
    sorted array of ``chan << 32 | rank`` keys with their accumulated
    times. A round touches fresh rows for retirement, routing and
    selection; waiting rows only pay the queue's contiguous array steps.
    """

    def __init__(self, fabric: "BatchedFabric"):
        self.fabric = fabric
        self.sim = fabric.sim
        topology = fabric.topology
        self.n = topology.num_nodes
        cfg = fabric.config
        self.planner = _RoutePlanner(fabric.router, topology)
        self.marking = fabric.marking
        self.rng = self.sim.rng.stream("batched-cohort")
        self.quota = cfg.buffer_capacity
        self.default_ttl = cfg.default_ttl
        # Statistics target: the fabric itself for the global engine. Shard
        # workers swap in a local accumulator so per-shard deltas can be
        # merged once by the driving process (identically in serial and
        # multi-process execution).
        self._stats = fabric

        selection = fabric.selection
        if isinstance(selection, LeastCongestedPolicy):
            self.mode = "congestion"
        elif isinstance(selection, RandomPolicy):
            self.mode = "random"
        elif isinstance(selection, FirstCandidatePolicy):
            self.mode = "first"
        else:
            raise ConfigurationError(
                f"selection policy {type(selection).__name__} has no "
                "vectorized twin; use engine='exact'"
            )

        bandwidth = cfg.link_bandwidth
        self._vct = isinstance(fabric.service, VirtualCutThrough)
        header_hold = IPHeader.HEADER_BYTES / bandwidth
        self._bandwidth = bandwidth
        # One cohort hop: switch pipeline + serialization hold + wire time.
        self.round_delta = cfg.routing_delay + header_hold + cfg.link_latency

        # Rank-indexed row store (sized by _reserve) and the live-row sets.
        # ``nxt`` is a waiting row's chosen next hop: a row blocked by
        # admission keeps its channel across rounds — like a queued packet
        # in the exact engine — so only fresh rows pay routing and
        # selection.
        for name, dtype in _ROW_COLUMNS:  # per-column, once at build
            setattr(self, name, np.empty(0, dtype=dtype))
        self._fresh = np.empty(0, dtype=np.int64)
        self._q_key = np.empty(0, dtype=np.int64)
        self._q_time = np.empty(0, dtype=np.float64)
        self.moved = 0

        # Physical channel ids: chan = node * width + port, where port is
        # the neighbor's index in topology.neighbors(node). Candidate-table
        # columns are destination-relative and would conflate channels.
        self.width = self.planner.width
        self._port = np.full(self.n * self.n, -1, dtype=np.int8)
        for node in topology.nodes():  # per-(node, port), once at build
            for port, neighbor in enumerate(topology.neighbors(node)):
                self._port[node * self.n + neighbor] = port
        # Stable argsort on int16 keys selects numpy's radix sort (~7x the
        # int64 merge path); channel ids fit whenever n*width < 2^15, which
        # covers the 64x64 torus exactly.
        self._chan_sort_dtype = (np.int16 if self.n * self.width < (1 << 15)
                                 else np.int64)

        # Per-round congestion signal: rows waiting after admission, per
        # channel (least-congested selection only).
        self._backlog = np.zeros(self.n * self.width, dtype=np.float64)

        # Segment accumulators, flushed at each advance() boundary (once per
        # run for the classic drain-to-completion call).
        self._delivered_counts = np.zeros(self.n, dtype=np.int64)
        self._hop_counts = np.zeros(64, dtype=np.int64)
        self._sink_nodes = frozenset(
            ring.node for ring in fabric._delivery_sinks)
        self._sink_rows: List[Tuple[np.ndarray, ...]] = []
        self._max_time = self.sim.now
        self._progressed = False
        self.rounds = 0

        # Persistent-run state: the engine survives across advance() calls so
        # run_until can cut a run into segments with live rows carried over.
        self._pending: Optional[dict] = None
        self._pending_ranks = np.empty(0, dtype=np.int64)
        self._next = 0
        self._flushed_next = 0
        self._started = False
        self.frontier = float(self.sim.now)

    # ------------------------------------------------------------------
    @property
    def live(self) -> int:
        """Rows in flight: fresh plus waiting in the channel queue."""
        return int(self._fresh.size + self._q_key.size)

    def _reserve(self, size: int) -> None:
        """Grow the row store to ``size`` slots, keeping filled slots."""
        have = self.pos.size
        if size <= have:
            return
        for name, dtype in _ROW_COLUMNS:  # per-column, once per capture  # repro-lint: disable=H3
            grown = np.empty(size, dtype=dtype)
            grown[:have] = getattr(self, name)
            setattr(self, name, grown)

    def run(self) -> None:
        """Drain all captured injections; raises on stalls via the watchdog."""
        self.advance(None)

    def advance(self, until: Optional[float]) -> None:
        """Advance cohorts through every round whose frontier is <= ``until``
        (``None`` = to completion), then flush a clean segment boundary.

        The cut is clean because under virtual cut-through every live row's
        lag behind the frontier is fixed at activation and stays in
        ``[0, round_delta)``: deliveries flushed before the cut all carry
        times <= the last frontier run, deliveries after it strictly greater,
        so concatenating per-segment flushes reproduces the single-run stream
        bit for bit (the DeliveryRing/MarkBatch prefix-composability
        contract). Store-and-forward holds vary per row, the lag drifts, and
        the argument breaks — refused below.
        """
        if until is not None and not self._vct:
            raise ConfigurationError(
                "run_until needs the virtual-cut-through service model (the "
                "partial-horizon cut relies on its fixed per-row lag); "
                "store-and-forward runs require engine='exact'"
            )
        sim = self.sim
        watchdog = sim.watchdog
        if watchdog is not None:
            watchdog.start()
        profiler = sim.profile
        self._refresh_pending()
        self._sink_nodes = frozenset(
            ring.node for ring in self.fabric._delivery_sinks)
        pending_times = self._pending["times"]
        total = pending_times.size
        if not self._started and total:
            self.frontier = float(pending_times[0])
            self._started = True
        while self._next < total or self.live:  # per-round loop  # repro-lint: disable=H3
            if until is not None:
                eff = self.frontier
                if not self.live and self._next < total:
                    eff = max(eff, float(pending_times[self._next]))
                if eff > until:
                    break
            if watchdog is not None:
                watchdog.check_stall(sim)
            self._progressed = False
            if profiler is not None:
                profiler.record_batch_advance(self.live, self._round)
            else:
                self._round()
            sim.events_executed += 1
            self.rounds += 1
            if not self._progressed:
                raise SimulationError(
                    f"batched engine stalled at round {self.rounds} with "
                    f"{self.live} live rows (internal invariant broken)"
                )
        self._flush(until)

    def _refresh_pending(self) -> None:
        """(Re-)snapshot the injection log as time-sorted pending columns.

        Injections captured between advance() segments are folded in as long
        as they do not rewrite the already-consumed prefix (traffic scheduled
        at or before times the engine has advanced past has no sound replay).
        Folded-in rows all rank after the consumed prefix, so live rows keep
        their store slots.
        """
        log = self.fabric.log
        if self._pending is not None \
                and len(log) == self._pending["times"].size:
            return
        pending = log.columns()
        if self._pending is not None and self._next:
            old_ids = self._pending["ids"][:self._next]
            if pending["ids"].size < self._next \
                    or not np.array_equal(pending["ids"][:self._next],
                                          old_ids):
                raise ConfigurationError(
                    "injections were captured at or before times the batched "
                    "engine already advanced past; schedule follow-up "
                    "traffic beyond the current frontier or use "
                    "engine='exact'"
                )
        self._pending = pending
        self._pending_ranks = np.arange(pending["times"].size,
                                        dtype=np.int64)
        self._reserve(pending["times"].size)

    # ------------------------------------------------------------------
    def _round(self) -> int:
        """One round at the current frontier; returns the rows it moved."""
        pending_times = self._pending["times"]
        if not self.live and self._next < pending_times.size:
            # Idle gap: jump the frontier straight to the next injection.
            self.frontier = max(self.frontier,
                                float(pending_times[self._next]))
        self._step()
        self.frontier += self.round_delta
        return self.moved

    def _step(self) -> None:
        """One cohort round at the current frontier: activate, retire,
        route, admit, advance. Shared verbatim with the sharded workers,
        which control the frontier externally.

        Waiting rows cannot newly retire — their position, TTL and hop
        count have not changed since they were checked as fresh rows — so
        only the fresh rows are retired and routed.
        """
        self.moved = 0
        end = int(np.searchsorted(self._pending["times"], self.frontier,
                                  side="right"))
        if end > self._next:
            self._activate(self._next, end)
            self._next = end
            self._progressed = True
        if self._fresh.size:
            self._retire()
        chan = self._route() if self._fresh.size \
            else np.empty(0, dtype=np.int64)
        if self._fresh.size or self._q_key.size:
            self._admit_and_advance(chan)

    def _activate(self, lo: int, hi: int) -> None:
        pending = self._pending
        m = hi - lo
        ranks = self._pending_ranks[lo:hi]
        times = pending["times"][lo:hi]
        sizes = pending["sizes"][lo:hi]
        if self._vct:
            # VCT charges the payload serialization once at injection.
            times = times + np.maximum(
                sizes - IPHeader.HEADER_BYTES, 0) / self._bandwidth
            self.hold[ranks] = IPHeader.HEADER_BYTES / self._bandwidth
        else:
            self.hold[ranks] = sizes / self._bandwidth
        self.pos[ranks] = pending["nodes"][lo:hi]
        self.dst[ranks] = pending["dests"][lo:hi]
        self.src_ip[ranks] = pending["sources"][lo:hi]
        self.dst_ip[ranks] = pending["dst_ips"][lo:hi]
        marking = self.marking
        self.words[ranks] = 0 if marking is None else marking.inject_array(m)
        self.ttls[ranks] = self.default_ttl
        self.hops[ranks] = 0
        self.time[ranks] = times
        self.t0[ranks] = times
        self.ids[ranks] = pending["ids"][lo:hi]
        # Activation ranks exceed every live rank: fresh stays ascending.
        self._fresh = np.concatenate([self._fresh, ranks])
        self._stats.n_injected += m

    def _retire(self) -> None:
        # Delivery first, then hop-ceiling, then TTL — the exact switch's
        # dispatch order (the masks are disjoint by construction, so one
        # combined filter pass preserves the per-reason accounting).
        fresh = self._fresh
        done = self.pos[fresh] == self.dst[fresh]
        gone = done
        retired = False
        if done.any():
            self._deliver(fresh[done])
            retired = True
        ceiling = self.fabric.hop_ceiling
        if ceiling is not None:
            hops = self.hops[fresh]
            over = ~gone & (hops >= ceiling)
            if over.any():
                k = int(np.count_nonzero(over))
                self._drop(k, "livelock")
                watchdog = self.sim.watchdog
                if watchdog is not None:
                    # Bulk twin of note_livelock: count all k, fire once
                    # past tolerance.
                    watchdog.livelocked_packets += k - 1
                    watchdog.note_livelock(self.sim, int(hops[over].max()))
                gone = gone | over
                retired = True
        dead = ~gone & (self.ttls[fresh] <= 1)
        if dead.any():
            self._drop(int(np.count_nonzero(dead)), "ttl_expired")
            gone = gone | dead
            retired = True
        if retired:
            self._fresh = fresh[~gone]
            self._progressed = True

    def _deliver(self, ranks: np.ndarray) -> None:
        nodes = self.pos[ranks]
        times = self.time[ranks]
        k = ranks.size
        self._stats.n_delivered += k
        np.add.at(self._delivered_counts, nodes, 1)
        self._stats.latency.add_array(times - self.t0[ranks])
        hops = self.hops[ranks]
        top = int(hops.max()) + 1 if k else 1
        if top > self._hop_counts.size:
            grown = np.zeros(max(top, 2 * self._hop_counts.size),
                             dtype=np.int64)
            grown[:self._hop_counts.size] = self._hop_counts
            self._hop_counts = grown
        np.add.at(self._hop_counts, hops, 1)
        self._max_time = max(self._max_time, float(times.max()))
        if self._sink_nodes:
            sunk = np.isin(nodes, np.fromiter(self._sink_nodes, dtype=np.int64,
                                              count=len(self._sink_nodes)))
            if sunk.any():
                rows = ranks[sunk]
                # The trailing (rank, round) pair is merge metadata: the
                # single-process flush ignores it, the sharded driver lexsorts
                # on (time, round, rank) to reproduce this engine's
                # accumulation order across shards.
                self._sink_rows.append(
                    (nodes[sunk], times[sunk], self.src_ip[rows],
                     self.dst_ip[rows], self.words[rows], self.ttls[rows],
                     hops[sunk], self.ids[rows], rows,
                     np.full(rows.size, self.rounds, dtype=np.int64)))

    def _drop(self, count: int, reason: str) -> None:
        stats = self._stats
        stats.n_dropped += count
        stats._drop_reasons[reason] = \
            stats._drop_reasons.get(reason, 0) + count

    # ------------------------------------------------------------------
    def _route(self) -> np.ndarray:
        """Route and select every fresh row; returns their channels.

        Rows with no candidate drop as unroutable. Selection draws run over
        the fresh rows in rank order.
        """
        fresh = self._fresh
        pos = self.pos[fresh]
        candidates, degrees = self.planner.lookup(pos, self.dst[fresh])
        blocked = degrees == 0
        if blocked.any():
            self._drop(int(np.count_nonzero(blocked)), "unroutable")
            self._progressed = True
            keep = ~blocked
            fresh = self._fresh = fresh[keep]
            if not fresh.size:
                return np.empty(0, dtype=np.int64)
            pos = pos[keep]
            candidates = candidates[keep]
            degrees = degrees[keep]
        cols = self._choose(pos, candidates, degrees)
        nxt = candidates[np.arange(fresh.size), cols]
        self.nxt[fresh] = nxt
        return pos * self.width + self._port[pos * self.n + nxt]

    def _admit_and_advance(self, chan: np.ndarray) -> None:
        """Credit-based admission over the (channel, rank) queue, then one
        hop for every admitted row.

        At most ``buffer_capacity`` rows enter each directed channel per
        round, lowest rank first (so waiting rows outrank newcomers); the
        rest wait a round and become the congestion signal.
        """
        fresh = self._fresh
        if fresh.size:
            # Fresh rows are rank-ordered, so a stable sort on the channel
            # alone yields (channel, rank) order.
            order = np.argsort(chan.astype(self._chan_sort_dtype),
                               kind="stable")
            ranks = fresh[order]
            keys = (chan[order] << _RANK_BITS) | ranks
            times = self.time[ranks]
            if self._q_key.size:
                key, time = self._merge_queue(keys, times)
            else:
                key, time = keys, times
        else:
            key, time = self._q_key, self._q_time
        # Within a sorted channel run, the row ``quota`` places back shares
        # the channel exactly when this row is past the channel's quota.
        channel = key >> _RANK_BITS
        quota = self.quota
        admitted = np.ones(key.size, dtype=bool)
        admitted[quota:] = channel[quota:] != channel[:-quota]
        if admitted.all():
            self._q_key = np.empty(0, dtype=np.int64)
            self._q_time = np.empty(0, dtype=np.float64)
            moved, moved_time = key, time
        else:
            waiting = ~admitted
            self._q_key = key[waiting]
            self._q_time = time[waiting]
            self._q_time += self.round_delta
            moved, moved_time = key[admitted], time[admitted]
        if self.mode == "congestion":
            if self._q_key.size:
                self._backlog = np.bincount(
                    self._q_key >> _RANK_BITS,
                    minlength=self._backlog.size).astype(np.float64)
            else:
                self._backlog.fill(0.0)
        self._advance(moved & _RANK_MASK, moved_time)

    def _merge_queue(self, keys: np.ndarray,
                     times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Merge sorted fresh keys (and their times) into the sorted queue."""
        queue = self._q_key
        total = queue.size + keys.size
        slots = np.searchsorted(queue, keys) \
            + np.arange(keys.size, dtype=np.int64)
        old = np.ones(total, dtype=bool)
        old[slots] = False
        key = np.empty(total, dtype=np.int64)
        key[slots] = keys
        key[old] = queue
        time = np.empty(total, dtype=np.float64)
        time[slots] = times
        time[old] = self._q_time
        return key, time

    def _advance(self, ranks: np.ndarray, times: np.ndarray) -> None:
        """Move the admitted rows one hop; they are next round's fresh rows.

        Marking draws run over the admitted rows in rank order.
        """
        order = np.argsort(ranks)
        ranks = ranks[order]
        self._fresh = ranks
        if not ranks.size:
            return
        nxt = self.nxt[ranks]
        pos = self.pos[ranks]
        ttls = self.ttls[ranks] - 1
        self.ttls[ranks] = ttls
        if self.marking is not None:
            self.words[ranks] = self.marking.on_hop_array(
                self.words[ranks], pos, nxt, ttls, self.rng)
        self.hops[ranks] += 1
        cfg = self.fabric.config
        self.time[ranks] = times[order] + (
            cfg.routing_delay + self.hold[ranks] + cfg.link_latency)
        self.pos[ranks] = nxt
        self.moved = int(ranks.size)
        self._progressed = True

    def _choose(self, sub_pos: np.ndarray, candidates: np.ndarray,
                degrees: np.ndarray) -> np.ndarray:
        """Column index of the chosen candidate, per fresh row."""
        m = degrees.size
        if self.mode == "first" or candidates.shape[1] == 1:
            return np.zeros(m, dtype=np.int64)
        if self.mode == "random":
            return (self.rng.random(m) * degrees).astype(np.int64)
        # Least-congested: last round's waiting-row backlog per candidate
        # channel, tie-broken by a sub-1.0 jitter draw (the vectorized twin
        # of LeastCongestedPolicy's seeded random tie-break).
        width = candidates.shape[1]
        ports = self._port[sub_pos[:, None] * self.n + candidates]
        score = self._backlog[sub_pos[:, None] * self.width + ports] \
            + self.rng.random((m, width))
        score[candidates < 0] = np.inf
        return np.argmin(score, axis=1)

    # ------------------------------------------------------------------
    def _flush(self, until: Optional[float]) -> None:
        """Write segment accumulators back to the fabric and reset them.

        Called once per advance() call; the classic drain-to-completion run
        hits it exactly once. Per-ring rows are stable-sorted by time inside
        the segment; segments never interleave in time (the clean-cut
        invariant), so repeated flushes concatenate into the same stream a
        single full run produces.
        """
        fabric = self.fabric
        sim = self.sim
        nics = fabric.nics
        if self._next > self._flushed_next:
            nodes = self._pending["nodes"][self._flushed_next:self._next]
            injected = np.bincount(nodes, minlength=self.n)
            for node in np.flatnonzero(injected).tolist():  # per-node, once per segment  # repro-lint: disable=H3
                nics[node].n_injected += int(injected[node])
            self._flushed_next = self._next
        if self._delivered_counts.any():
            for node in np.flatnonzero(self._delivered_counts).tolist():  # per-node, once per segment  # repro-lint: disable=H3
                nics[node].n_delivered += int(self._delivered_counts[node])
            self._delivered_counts[:] = 0
        if self._hop_counts.any():
            for value in np.flatnonzero(self._hop_counts).tolist():  # per-value, once per segment  # repro-lint: disable=H3
                fabric.hop_histogram.add(int(value),
                                         int(self._hop_counts[value]))
            self._hop_counts[:] = 0
        if self._sink_rows:
            columns = [np.concatenate(parts)
                       for parts in zip(*self._sink_rows)]
            nodes, times = columns[0], columns[1]
            for ring in fabric._delivery_sinks:  # per-sink, once per segment  # repro-lint: disable=H3
                rows = np.flatnonzero(nodes == ring.node)
                rows = rows[np.argsort(times[rows], kind="stable")]
                ring.extend(times[rows], columns[2][rows], columns[3][rows],
                            columns[4][rows], columns[5][rows],
                            columns[6][rows], columns[7][rows])
            self._sink_rows = []
        if until is None:
            sim.now = max(sim.now, self._max_time, self.frontier)
        else:
            sim.now = max(sim.now, until)
