"""Columnar injection capture for the batched cohort-advance engine.

The exact engine moves one Python packet object per discrete event; at
64x64-torus scale that is millions of events and the dominant cost. The
batched mode replaces the per-packet event stream with struct-of-arrays
cohorts (mirroring :class:`~repro.network.markstream.MarkBatch`:
src/dst/MF-word/TTL/hop/time columns) advanced a whole round at a time by
:class:`repro.engine.batched.CohortEngine`.

This module holds the network-side half:

* :class:`InjectionLog` — the columnar capture buffer every traffic
  generator writes into. ``Fabric.inject_rows`` is the single funnel all
  in-tree generators use, so overriding it captures floods, background
  noise, and static attack campaigns without touching them.
* :class:`BatchedFabric` — a :class:`~repro.network.fabric.Fabric` whose
  ``inject_rows`` banks whole columns instead of building and scheduling
  packets and whose ``run`` hands the captured log to the cohort engine.
  Per-packet observation APIs raise
  :class:`~repro.errors.ConfigurationError` (there are no packet objects
  to observe); the columnar ``attach_delivery_sink`` surface is the
  sanctioned replacement.
* :class:`ShardedFabric` — the same capture surface, but ``run`` hands the
  log to :class:`repro.engine.sharded.ShardedEngine`, which partitions the
  topology into ``shards`` pieces and advances one cohort engine per shard
  under conservative time-window synchronization (multi-process when the
  ``fork`` start method exists, serially otherwise).

Equivalence contract: the exact per-packet mode remains the golden-pinned
reference. DESIGN.md §12 spells out when the batched mode is bit-equal
(deterministic routing + deterministic marking) and when it is only
statistically equivalent (probabilistic marking draws, adaptive tie-breaks,
congestion timing).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.network.fabric import Fabric
from repro.network.ip import IPHeader
from repro.network.nic import DeliveredPacket
from repro.network.packet import Packet, PacketKind, allocate_packet_ids

__all__ = ["InjectionLog", "BatchedFabric", "ShardedFabric"]

_PER_PACKET_MSG = (
    "per-packet {api} is not available on the batched engine: cohorts carry "
    "no packet objects. Attach a columnar delivery sink "
    "(attach_delivery_sink) or run with engine='exact'"
)


#: (name, dtype) of the log's seven columns, in :meth:`InjectionLog.extend`
#: argument order.
_LOG_COLUMNS = (("times", np.float64), ("nodes", np.int64),
                ("sources", np.int64), ("dests", np.int64),
                ("dst_ips", np.int64), ("sizes", np.int64),
                ("ids", np.int64))


class InjectionLog:
    """Struct-of-arrays capture of every injection requested before a run.

    One representation: a list of chunks, each seven parallel numpy columns
    banked by :meth:`extend` — one chunk per ``inject_rows`` call (a whole
    flow or background sweep) or per single ``inject``. :meth:`columns`
    merges them once, sorted by injection time.
    """

    __slots__ = ("_chunks", "_rows")

    def __init__(self) -> None:
        self._chunks: List[dict] = []
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    def extend(self, times: np.ndarray, nodes: np.ndarray,
               src_ips: np.ndarray, dest_nodes: np.ndarray,
               dst_ips: np.ndarray, sizes: np.ndarray,
               ids: np.ndarray) -> None:
        """Record a chunk of future injections as seven parallel columns.

        ``src_ips``/``dst_ips`` are the (possibly spoofed) header addresses
        the delivery stream reports; ``nodes``/``dest_nodes`` are the fabric
        indexes the cohort engine routes between. Arrays are banked as-is
        (no copies) and merged at :meth:`columns` time.
        """
        arrays = {name: np.asarray(column, dtype=dtype)
                  for (name, dtype), column in zip(
                      _LOG_COLUMNS, (times, nodes, src_ips, dest_nodes,
                                     dst_ips, sizes, ids))}
        lengths = {column.size for column in arrays.values()}
        if len(lengths) != 1:
            raise ConfigurationError(
                f"injection columns disagree on length: {sorted(lengths)}")
        self._chunks.append(arrays)
        self._rows += arrays["times"].size

    def columns(self) -> dict:
        """Materialize the capture as time-sorted numpy columns.

        Chunks merge in capture order and the sort is stable, so
        simultaneous injections keep capture order — the same tie-break the
        event queue's sequence numbers give the exact engine.
        """
        merged = {
            name: np.concatenate([np.empty(0, dtype=dtype)]
                                 + [chunk[name] for chunk in self._chunks])
            for name, dtype in _LOG_COLUMNS
        }
        order = np.argsort(merged["times"], kind="stable")
        return {name: column[order] for name, column in merged.items()}


class BatchedFabric(Fabric):
    """A fabric whose run loop advances packet cohorts instead of events.

    Construction, topology wiring, statistics surfaces, and the columnar
    delivery sinks are inherited unchanged from :class:`Fabric`; what
    changes is the packet lifecycle: ``inject_rows`` captures columns into
    an :class:`InjectionLog` and ``run`` drives
    :class:`repro.engine.batched.CohortEngine` over them.
    """

    #: engine discriminator mirrored into ExperimentConfig.engine
    engine_name = "batched"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = InjectionLog()
        # Lazily built, then persistent: run_until cuts one capture into
        # segments, with live cohort rows carried across calls.
        self._engine = None

    def _cohort_engine(self):
        if self._engine is None:
            from repro.engine.batched import CohortEngine

            self._engine = CohortEngine(self)
        return self._engine

    # ------------------------------------------------------------------
    # Capture path
    # ------------------------------------------------------------------
    def inject_rows(self, delays: Sequence[float], nodes: Sequence[int],
                    src_ips: Optional[Sequence[int]],
                    dst_nodes: Sequence[int], *,
                    kind: PacketKind = PacketKind.DATA, flow_id: int = 0,
                    payload_bytes: int = 64) -> np.ndarray:
        """Capture the rows as one log chunk; returns their packet ids.

        Same rows, same checks and the same ids as
        :meth:`Fabric.inject_rows` would give the packets it builds — one
        contiguous block from the global counter — but no ``Packet``,
        header or route state is built. ``kind`` and ``flow_id`` are
        workload bookkeeping carried only by packet objects; cohort rows
        have no column for them.
        """
        node_col, src_col, dst_col = self._check_rows(
            delays, nodes, src_ips, dst_nodes, payload_bytes)
        count = node_col.size
        ids = np.arange(count, dtype=np.int64) + allocate_packet_ids(count)
        self.log.extend(
            self.sim.now + np.asarray(delays, dtype=np.float64), node_col,
            src_col, dst_col, self.addresses.ips_of(dst_col),
            np.full(count, IPHeader.HEADER_BYTES + payload_bytes,
                    dtype=np.int64),
            ids)
        return ids

    def inject(self, packet: Packet, at_node: Optional[int] = None,
               delay: float = 0.0) -> None:
        """Capture a prebuilt ``packet`` as a one-row chunk (no event).

        The row keeps the packet's own id and header addresses.
        """
        node = at_node if at_node is not None else packet.true_source
        if not self.topology.contains(node):
            raise ConfigurationError(f"injection node {node} outside topology")
        header = packet.header
        self.log.extend([self.sim.now + delay], [node], [header.src],
                        [packet.destination_node], [header.dst],
                        [packet.size_bytes], [packet.packet_id])

    # ------------------------------------------------------------------
    # Per-packet observation APIs are structurally unavailable
    # ------------------------------------------------------------------
    def add_delivery_handler(self, node: int,
                             handler: Callable[[DeliveredPacket], None]) -> None:
        raise ConfigurationError(_PER_PACKET_MSG.format(api="delivery handlers"))

    def add_drop_handler(self, handler: Callable[[Packet, int, str], None]) -> None:
        raise ConfigurationError(_PER_PACKET_MSG.format(api="drop handlers"))

    def add_transit_observer(self, node: int,
                             observer: Callable[[Packet, int, float], None]) -> None:
        raise ConfigurationError(_PER_PACKET_MSG.format(api="transit observers"))

    # ------------------------------------------------------------------
    # Runtime control
    # ------------------------------------------------------------------
    def _check_supported(self) -> None:
        """Reject hooks and pending events the round loop would never honor.

        The batched loop executes no discrete events, so anything armed
        through ``sim.schedule_call`` — fault campaigns, dynamic attack
        specs (worm propagation, reflection replies) — would be silently
        dead. Refusing loudly keeps the equivalence contract honest.
        """
        if len(self.sim.queue):
            raise ConfigurationError(
                f"{len(self.sim.queue)} discrete event(s) are scheduled, but "
                "the batched engine executes no events. Fault campaigns and "
                "dynamic attack scenarios require engine='exact'; static "
                "link failures can be applied via fail_link() before the run"
            )
        if self.injection_filter is not None or self.fault_hook is not None \
                or self._inject_gate is not None:
            raise ConfigurationError(
                "per-packet fabric hooks (injection_filter / fault_hook / "
                "inject gate) are not supported by the batched engine; "
                "use engine='exact'"
            )

    def run(self) -> float:
        """Advance all captured cohorts to completion; flush sinks at the end."""
        self._check_supported()
        self._cohort_engine().advance(None)
        if self._delivery_sinks:
            self.flush_delivery_sinks()
        return self.sim.now

    def run_until(self, time: float) -> float:
        """Advance cohorts through the rounds at or below ``time`` and stop.

        A partial-horizon cut: rounds whose frontier lies at or below the
        horizon run in full, live rows stay resident in the engine, and the
        next run/run_until call resumes the identical round schedule — so a
        segmented run reproduces the single-run results bit for bit (see
        ``CohortEngine.advance``). Back-to-back calls observe a continuous
        timeline, matching the exact engine's ``Simulator.run_until``.
        """
        self._check_supported()
        self._cohort_engine().advance(float(time))
        if self._delivery_sinks:
            self.flush_delivery_sinks()
        return self.sim.now


class ShardedFabric(BatchedFabric):
    """A batched-capture fabric run by the sharded multi-process engine.

    Identical capture surface and statistics to :class:`BatchedFabric`; the
    run loop partitions the topology into ``shards`` pieces and advances one
    cohort engine per shard under conservative time-window sync
    (:class:`repro.engine.sharded.ShardedEngine`), merging results so they
    are identical to the single-process batched engine.

    ``shard_mode`` selects the worker transport: ``"process"`` (fork-spawned
    workers), ``"serial"`` (in-process, for debugging and single-core CI),
    or ``None``/``"auto"`` (process when fork is available). The
    ``REPRO_SHARDED_MODE`` environment variable overrides an unset mode.
    """

    engine_name = "sharded"

    #: default shard count when the config/CLI leaves it unset
    DEFAULT_SHARDS = 2

    def __init__(self, *args, shards: Optional[int] = None,
                 shard_mode: Optional[str] = None, **kwargs):
        super().__init__(*args, **kwargs)
        if shards is None:
            shards = self.DEFAULT_SHARDS
        if isinstance(shards, bool) or not isinstance(shards, (int, np.integer)):
            raise ConfigurationError(f"shards must be an int, got {shards!r}")
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = int(shards)
        self.shard_mode = shard_mode

    def run(self) -> float:
        """Partition, advance every shard to completion, merge, flush sinks."""
        self._check_supported()
        from repro.engine.sharded import ShardedEngine

        ShardedEngine(self).run()
        if self._delivery_sinks:
            self.flush_delivery_sinks()
        return self.sim.now

    def run_until(self, time: float) -> float:
        raise ConfigurationError(
            "run_until is not supported by the sharded engine: shard workers "
            "run the captured traffic to completion in one synchronized "
            "pass. Partial-horizon runs require engine='batched' "
            "(single-process, supports run_until) or engine='exact'"
        )
