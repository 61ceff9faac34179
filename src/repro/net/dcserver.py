"""The DC server: one data component living in its own OS process.

:func:`serve` is the child-process entry point.  It opens (and replays)
the DC's journal volume, builds an ordinary
:class:`~repro.dc.data_component.DataComponent` on top, and serves it
through the shared :class:`~repro.net.server.Server` loop (connections,
framing, ordering, negotiation, stats envelope, shutdown).  What is the
DC's own:

- §4.2.1 data/control messages (``PerformOperation``, ``BatchedPerform``,
  EOSL/LWM/checkpoint/restart traffic) are the dispatch *default*: they
  go to ``dc.handle`` exactly as the in-process transport would;
- the small control plane of :mod:`repro.net.rpc` (register, catalog,
  DC-log checkpoint) is the handler table;
- the **causality gate** is bridged: when a DC system transaction needs
  the TC log forced (Section 4.2.2), the server sends a
  ``SERVER_REQUEST`` ``ForceLogRequest`` on the connection that
  registered that TC and *pumps the event loop* until the matching
  ``CLIENT_REPLY`` arrives — request frames that land meanwhile (on any
  connection) backlog in arrival order, while reads, writes and accepts
  on every other connection keep flowing.

With ``listen_path`` set, the server additionally binds a Unix-domain or
TCP listener — this is how TC *server* processes (docs/architecture.md
§16) share one DC process as a pool.  One DC, many TCs, one event loop —
Section 6's multi-TC sharing made out-of-process.

If the parent SIGKILLs the server, the journal's flushed frames survive
in the OS page cache and the next :func:`serve` on the same path replays
them — the real-death analogue of the in-memory store's crash separation.
"""

from __future__ import annotations

import itertools
import os
from typing import Optional

from repro.common.api import ControlAck
from repro.common.config import DcConfig
from repro.common.errors import CrashedError
from repro.dc.data_component import DataComponent
from repro.net import rpc, wire
from repro.net.eventloop import Peer
from repro.net.journal import JournalStorage
from repro.net.rpc import (
    CheckpointDcLog,
    CheckpointDcLogReply,
    CreateTable,
    ForceLogReply,
    ForceLogRequest,
    Hello,
    RegisterTc,
    RsspHint,
    TableList,
    TableListReply,
)
from repro.net.server import Server


class _DcServer(Server):
    role = "dcserver"

    def __init__(
        self,
        conn,
        name: str,
        config: Optional[DcConfig],
        journal_path: str,
        listen_path: str = "",
    ):
        self._storage = JournalStorage(journal_path)
        self._dc = DataComponent(
            name, config=config, metrics=self._storage.metrics, storage=self._storage
        )
        if self._storage.replayed:
            # A previous incarnation wrote this volume: rebuild structures
            # from the stable catalog before accepting any traffic.  The
            # TC-side redo prompt is driven by the client after reconnect.
            self._dc.recover(notify_tcs=False)
        #: Which peer registered each TC (the force-log bridge target).
        self._tc_peers: dict[int, Peer] = {}
        #: seq -> reply box for force bridges pumping inside the loop.
        self._force_boxes: dict[int, list] = {}
        self._sreq_seq = itertools.count(1)
        super().__init__(
            conn,
            listen_path,
            self._dc.metrics,
            recovered=self._storage.replayed,
            handlers={
                RegisterTc: self._register_tc,
                CreateTable: self._create_table,
                TableList: self._table_list,
                CheckpointDcLog: self._checkpoint_dc_log,
            },
            default=self._dc.handle,
        )

    # -- the causality-gate bridge -----------------------------------------

    def _force_bridge(self, tc_id: int):
        def force(lsn, images):
            # Looked up at call time: a re-registered TC (respawned
            # process, new connection) re-aims the bridge automatically.
            peer = self._tc_peers.get(tc_id)
            if peer is None or peer.closed:
                raise CrashedError(f"TC {tc_id} force-log channel")
            seq = next(self._sreq_seq)
            box: list = []
            self._force_boxes[seq] = box
            try:
                try:
                    self._send(
                        peer,
                        rpc.SERVER_REQUEST,
                        seq,
                        ForceLogRequest(tc_id=tc_id, lsn=lsn, images=images),
                    )
                except (BrokenPipeError, OSError):
                    raise CrashedError(f"TC {tc_id} force-log channel")
                # The event-loop-scheduled wait: every other connection
                # keeps being served (their requests backlog in arrival
                # order); a dead TC surfaces as EOF -> peer.closed.
                self._loop.pump_until(lambda: bool(box) or peer.closed)
                if not box:
                    raise CrashedError(f"TC {tc_id} force-log channel")
                payload = box[0]
                if isinstance(payload, ForceLogReply):
                    return payload.eosl
                return lsn
            finally:
                self._force_boxes.pop(seq, None)

        return force

    def _on_client_reply(self, seq: int, message: object) -> None:
        box = self._force_boxes.get(seq)
        if box is not None:  # None = stale reply from a dropped bridge
            box.append(message)

    def _push_hint(self, dc_name: str, lsn: int) -> None:
        # Spontaneous-stability hints go to every connection that holds a
        # registration (the parent, if none do) — each client fans the
        # hint out to its own registrations.
        targets = set(self._tc_peers.values()) or {self._parent_peer}
        for peer in targets:
            if peer.closed:
                continue
            try:
                self._send(
                    peer, rpc.PUSH, 0, RsspHint(tc_id=0, dc_name=dc_name, lsn=lsn)
                )
            except (BrokenPipeError, OSError):
                self._loop.close_peer(peer)

    def _peer_gone(self, peer: Peer) -> None:
        for tc_id, owner in list(self._tc_peers.items()):
            if owner is peer:
                del self._tc_peers[tc_id]

    # -- the control plane --------------------------------------------------

    def _catalog(self) -> tuple:
        tables = []
        for name in self._dc.table_names():
            handle = self._dc.table(name)
            tables.append(
                (name, handle.descriptor.kind, handle.descriptor.versioned)
            )
        return tuple(tables)

    def _hello(self) -> Hello:
        return Hello(
            tc_id=0,
            dc_name=self._dc.name,
            pid=os.getpid(),
            recovered=self._recovered,
            tables=self._catalog(),
            fast_codec=wire.fast_vocabulary(),
            listen_addr=self.listen_addr,
        )

    def _stats(self) -> dict:
        return {
            "dc": self._dc.stats(),
            "journal_bytes": self._storage.journal_bytes(),
        }

    def _register_tc(self, peer: Peer, message: RegisterTc) -> ControlAck:
        self._tc_peers[message.tc_id] = peer
        self._dc.register_tc(
            message.tc_id,
            force_log=self._force_bridge(message.tc_id),
            on_rssp_hint=self._push_hint,
        )
        return ControlAck(tc_id=message.tc_id)

    def _create_table(self, peer: Peer, message: CreateTable) -> ControlAck:
        self._dc.create_table(
            message.name,
            kind=message.kind,
            versioned=message.versioned,
            bucket_count=message.bucket_count,
        )
        return ControlAck(tc_id=message.tc_id)

    def _table_list(self, peer: Peer, message: TableList) -> TableListReply:
        return TableListReply(tc_id=message.tc_id, tables=self._catalog())

    def _checkpoint_dc_log(
        self, peer: Peer, message: CheckpointDcLog
    ) -> CheckpointDcLogReply:
        advanced = self._dc.checkpoint_dc_log()
        if advanced and self._storage.compaction_due():
            # Everything below the new truncation point is reflected
            # in flushed pages, so the journal's history frames are
            # dead weight: rewrite it as live state once it has doubled
            # since the last rewrite.  Rewrites then cost O(change), and
            # a kill -9'd DC replays at most twice its live state.
            try:
                self._storage.compact()
            except OSError:
                # The rewrite is optional: the truncation already
                # happened, the old journal holds everything, and the
                # next checkpoint tries again.
                self._dc.metrics.incr("journal.compaction_failures")
        return CheckpointDcLogReply(tc_id=message.tc_id, advanced=advanced)

    def _close(self) -> None:
        self._storage.close()


def serve(conn, *args) -> None:
    """Child-process entry point (target of ``multiprocessing.Process``);
    the arguments are :class:`_DcServer`'s."""
    _DcServer(conn, *args).run()
