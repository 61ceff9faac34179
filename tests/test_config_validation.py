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
    START_METHODS,
    TRANSPORTS,
    ChannelConfig,
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
        assert len(dataclasses.fields(ChannelConfig)) == 9

    def test_known_start_methods_accepted(self):
        for method in START_METHODS:
            config = ChannelConfig(process_start_method=method)
            assert config.process_start_method == method

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ConfigError):
            ChannelConfig(process_start_method="thread")

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
        for removed in ("range_partitions", "resend_timeout"):
            with pytest.raises(TypeError):
                TcConfig(**{removed: 1})
        assert len(dataclasses.fields(TcConfig)) == 25


class TestKernelConfig:
    def test_defaults_valid(self):
        config = KernelConfig()
        assert config.tc_processes == 0
        assert config.router_partitions == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            KernelConfig(tc_processes=-1)
        with pytest.raises(ConfigError):
            KernelConfig(router_partitions=-2)

    def test_tc_processes_need_process_transport(self):
        with pytest.raises(ConfigError) as err:
            KernelConfig(tc_processes=1)  # default transport is inproc
        assert "tc_processes" in str(err.value)

    def test_tc_processes_with_process_transport_accepted(self):
        config = KernelConfig(
            channel=ChannelConfig(transport="process"), tc_processes=1
        )
        assert config.tc_processes == 1
