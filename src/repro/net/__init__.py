"""Transports between TCs and DCs: simulated in-process and real pipes.

- :mod:`repro.net.channel` — the in-process simulated network (loss,
  duplication, reordering, latency) plus the transport-selection factory.
- :mod:`repro.net.wire` — the self-describing codec for every message.
- :mod:`repro.net.rpc` — control-plane messages and frame envelopes.
- :mod:`repro.net.journal` — file-backed stable storage for DC servers.
- :mod:`repro.net.server` — the event-loop request server under both
  server processes; :mod:`repro.net.dcserver` / :mod:`repro.net.tcserver`
  are its two handler tables and entry points.
- :mod:`repro.net.process` — client proxy, transport and channel for the
  process deployment mode (docs/architecture.md §10).
"""

from repro.net.channel import MessageChannel, build_channel

__all__ = ["MessageChannel", "build_channel"]
