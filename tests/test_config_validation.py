"""Typed config validation: bad knob values fail at construction.

Config objects are the experiment surface — a typo'd transport or sharing
mode must raise a :class:`~repro.common.errors.ConfigError` the moment
the dataclass is built, not surface minutes later as a hang or a
mysterious attribute error inside a server process.
"""

import dataclasses

import pytest

from repro.common.config import (
    SHARING_MODES,
    TRANSPORTS,
    ChannelConfig,
    DcConfig,
    KernelConfig,
    TcConfig,
)
from repro.common.errors import ConfigError, ReproError


class TestChannelConfig:
    def test_known_transports_accepted(self):
        for transport in TRANSPORTS:
            assert ChannelConfig(transport=transport).transport == transport

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigError) as err:
            ChannelConfig(transport="tcp")
        assert "ChannelConfig.transport" in str(err.value)
        assert "'tcp'" in str(err.value)
        # the error names the accepted vocabulary
        for transport in TRANSPORTS:
            assert repr(transport) in str(err.value)

    def test_removed_shm_lane_is_rejected(self):
        with pytest.raises(ConfigError) as err:
            ChannelConfig(transport="shm")
        assert err.value.allowed == ("inproc", "process")
        with pytest.raises(TypeError):
            ChannelConfig(shm_ring_bytes=1 << 20)

    def test_removed_codec_switch_is_rejected(self):
        """Codec choice is negotiated per connection from the Hello; a
        tagged-only peer is one that never sends ``NegotiateCodec``."""
        with pytest.raises(TypeError):
            ChannelConfig(fast_codec=False)
        with pytest.raises(TypeError):
            ChannelConfig(reorder_window=2)  # nothing queues to reorder
        assert len(dataclasses.fields(ChannelConfig)) == 7

    def test_config_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            ChannelConfig(transport="carrier-pigeon")


class TestTcConfig:
    def test_known_sharing_modes_accepted(self):
        for mode in SHARING_MODES:
            assert TcConfig(sharing_mode=mode).sharing_mode == mode

    def test_unknown_sharing_mode_rejected(self):
        with pytest.raises(ConfigError) as err:
            TcConfig(sharing_mode="serializable")
        assert "TcConfig.sharing_mode" in str(err.value)

    def test_error_carries_structured_fields(self):
        with pytest.raises(ConfigError) as err:
            TcConfig(sharing_mode="nope")
        assert err.value.field == "TcConfig.sharing_mode"
        assert err.value.value == "nope"
        assert err.value.allowed == SHARING_MODES


    def test_fields_nothing_reads_are_gone(self):
        for removed in (
            "range_partitions",
            "resend_timeout",
            # One write path: batching is batch_max_ops, the cache is
            # undo_cache_size, and the backoff numbers are RetryPolicy's.
            "batch_ops",
            "undo_cache",
            "pipeline_flush",
            "resend_backoff_ms",
            "resend_backoff_max_ms",
            # One redo path, one deadlock policy, truncation always on.
            "parallel_redo",
            "deadlock_detection",
            "truncate_log",
            # Gap locks are always on: no non-serializable scan mode.
            "phantom_protection",
            # Module constants beside their one reader.
            "fetch_ahead_batch",
            "max_resend_attempts",
            "group_commit_deadline_ms",
            "lock_stripes",
        ):
            with pytest.raises(TypeError):
                TcConfig(**{removed: 1})
        assert len(dataclasses.fields(TcConfig)) == 12

    @pytest.mark.parametrize(
        "field, bad",
        [("batch_max_ops", 0), ("undo_cache_size", -1), ("group_commit_size", 0)],
    )
    def test_bad_counts_are_typed_errors(self, field, bad):
        with pytest.raises(ConfigError) as err:
            TcConfig(**{field: bad})
        assert err.value.field == f"TcConfig.{field}"
        assert err.value.value == bad
        assert TcConfig(undo_cache_size=0).undo_cache_size == 0  # no cache: legal

    def test_bad_counts_fail_before_any_child_is_spawned(self, monkeypatch):
        """With ``tc_processes=1`` a bad count used to surface as
        ``CrashedError: TC tc1 (restart failed)`` after a child traceback;
        it is refused where the config is written, and nothing starts."""
        import repro.net.process as process

        spawned = []
        monkeypatch.setattr(
            process.ServerProcess,
            "__init__",
            lambda self, *args, **kwargs: spawned.append(args),
        )
        from repro import UnbundledKernel

        with pytest.raises(ConfigError):
            UnbundledKernel(
                KernelConfig(
                    tc=TcConfig(batch_max_ops=0, undo_cache_size=0, group_commit_size=0),
                    channel=ChannelConfig(transport="process"),
                    tc_processes=1,
                )
            )
        assert spawned == []


class TestKernelConfig:
    def test_defaults_valid(self):
        config = KernelConfig()
        assert config.tc_processes == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            KernelConfig(tc_processes=-1)

    def test_fields_nothing_reads_are_gone(self):
        """The router's partition count never reached the router, and the
        DC never had the reply cache its size configured."""
        with pytest.raises(TypeError):
            KernelConfig(router_partitions=4)
        with pytest.raises(TypeError):
            DcConfig(reply_cache_size=4096)
        assert len(dataclasses.fields(KernelConfig)) == 5
        assert len(dataclasses.fields(DcConfig)) == 7

    def test_tc_processes_need_process_transport(self):
        with pytest.raises(ConfigError) as err:
            KernelConfig(tc_processes=1)  # default transport is inproc
        assert "tc_processes" in str(err.value)

    def test_tc_processes_with_process_transport_accepted(self):
        config = KernelConfig(
            channel=ChannelConfig(transport="process"), tc_processes=1
        )
        assert config.tc_processes == 1
