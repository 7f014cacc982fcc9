"""Codec round trips, golden vectors and decoder robustness."""

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trr import wire_protocol as wp
from trr.errors import (
    BadChecksum,
    BadMagic,
    DelayOutOfRange,
    MessageTooLong,
    PayloadTooLarge,
    SizeMismatch,
    Truncated,
    UnknownCommand,
    WireError,
)

DATA_DIR = Path(__file__).parent / "data"


def vector(name: str) -> bytes:
    return bytes.fromhex((DATA_DIR / f"{name}.hex").read_text().strip())


class TestGoldenVectors:
    def test_trr_data(self):
        raw = vector("trr_data")
        d = wp.decode_trr_data(raw)
        assert d.version == 1
        assert d.time == 1609459200
        assert d.release_delay == 3
        assert d.tx == bytes.fromhex("deadbeef")
        assert wp.encode_trr_data(d) == raw
        assert len(raw) == 15 + 4

    def test_trr_routing_forward(self):
        raw = vector("trr_routing_forward")
        r = wp.decode_trr_routing(raw)
        assert r.version == 1
        assert r.ack_key == bytes(range(32))
        assert r.dst_ip == wp.parse_ipv4("10.0.0.2")
        assert r.port == 8333
        assert r.payload == bytes.fromhex("112233")
        assert not r.is_release
        assert wp.encode_trr_routing(r) == raw

    def test_trr_routing_release(self):
        raw = vector("trr_routing_release")
        r = wp.decode_trr_routing(raw)
        assert r.dst_ip == 0 and r.port == 0
        assert r.is_release
        inner = wp.decode_trr_data(r.payload)
        assert inner.tx == bytes.fromhex("deadbeef")
        assert wp.encode_trr_routing(r) == raw

    def test_trr_ack_success(self):
        raw = vector("trr_ack_success")
        assert len(raw) == 45
        assert raw[-30:] == bytes(30)
        a = wp.decode_trr_ack(raw)
        assert (a.version, a.time) == (1, 1609459200)
        assert a.rpt_ip == wp.parse_ipv4("10.0.0.1")
        assert a.err_ip == 0 and a.errno == 0 and a.errmsg == b""
        assert wp.encode_trr_ack(a) == raw

    def test_trr_ack_error(self):
        raw = vector("trr_ack_error")
        a = wp.decode_trr_ack(raw)
        assert a.errno == 2
        assert a.rpt_ip == wp.parse_ipv4("10.0.0.3")
        assert a.err_ip == wp.parse_ipv4("10.0.0.7")
        assert a.errmsg == b"NextHopUnreachable"
        assert wp.encode_trr_ack(a) == raw

    @pytest.mark.parametrize("name,command,payload", [
        ("frame_vertrr", "vertrr", b""),
        ("frame_trr", "trr", bytes.fromhex("010203")),
        ("frame_track", "track", None),  # payload is the success ack
    ])
    def test_frames(self, name, command, payload):
        if payload is None:
            payload = vector("trr_ack_success")
        raw = vector(name)
        got_command, got_payload = wp.parse_frame(raw)
        assert got_command == command
        assert got_payload == payload
        assert wp.frame_message(command, payload) == raw
        # independent checksum oracle
        digest = hashlib.sha256(hashlib.sha256(payload).digest()).digest()
        assert raw[20:24] == digest[:4]
        assert raw[:4] == b"TRR1"


class TestTrrData:
    def test_encoded_length(self):
        d = wp.TrrData(version=1, time=0, release_delay=1, tx=bytes(200))
        assert len(wp.encode_trr_data(d)) == 215  # 1 + 4 + 8 + 2 + 200

    @given(st.integers(0, 255), st.integers(0, 2**32 - 1), st.integers(1, 5),
           st.binary(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, version, time, delay, tx):
        d = wp.TrrData(version, time, delay, tx)
        assert wp.decode_trr_data(wp.encode_trr_data(d)) == d

    @pytest.mark.parametrize("delay", [0, 6, 2**40, 2.5])
    def test_delay_out_of_range(self, delay):
        d = wp.TrrData(1, 0, delay, b"")
        with pytest.raises(DelayOutOfRange):
            wp.encode_trr_data(d)

    def test_decode_delay_out_of_range(self):
        raw = bytearray(wp.encode_trr_data(wp.TrrData(1, 0, 5, b"")))
        raw[5] = 6
        with pytest.raises(DelayOutOfRange):
            wp.decode_trr_data(bytes(raw))

    def test_oversized_tx(self):
        with pytest.raises(SizeMismatch):
            wp.encode_trr_data(wp.TrrData(1, 0, 1, bytes(10241)))

    @pytest.mark.parametrize("size", [10241, 0xFFFF])
    def test_decode_oversized_tx_size(self, size):
        raw = bytearray(wp.encode_trr_data(wp.TrrData(1, 0, 1, bytes(10240))))
        raw[13:15] = size.to_bytes(2, "little")  # the tx_size field
        with pytest.raises(SizeMismatch, match=f"tx_size {size} exceeds"):
            wp.decode_trr_data(bytes(raw) + bytes(size - 10240))

    def test_truncated_and_trailing(self):
        raw = wp.encode_trr_data(wp.TrrData(1, 0, 1, b"abcd"))
        with pytest.raises(Truncated):
            wp.decode_trr_data(raw[:10])
        with pytest.raises(Truncated):
            wp.decode_trr_data(raw[:-1])
        with pytest.raises(SizeMismatch):
            wp.decode_trr_data(raw + b"\x00")


class TestTrrRouting:
    @given(st.integers(0, 255), st.binary(min_size=32, max_size=32),
           st.integers(0, 2**32 - 1), st.integers(0, 65535),
           st.binary(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, version, pubkey, dst_ip, port, payload):
        r = wp.TrrRouting(version, pubkey, dst_ip, port, payload)
        assert wp.decode_trr_routing(wp.encode_trr_routing(r)) == r

    def test_releasing_flag(self):
        r = wp.TrrRouting(1, bytes(32), 0, 0, b"")
        decoded = wp.decode_trr_routing(wp.encode_trr_routing(r))
        assert decoded.is_release

    @pytest.mark.parametrize("length", [31, 33])
    def test_return_pubkey_length(self, length):
        # the paper's return-key field, which carries the hop's ack key
        r = wp.TrrRouting(1, bytes(length), 0, 0, b"")
        with pytest.raises(ValueError, match="ack_key must be 32 bytes"):
            wp.encode_trr_routing(r)

    def test_payload_too_large(self):
        r = wp.TrrRouting(1, bytes(32), 0, 0, bytes(65536))
        with pytest.raises(PayloadTooLarge):
            wp.encode_trr_routing(r)

    def test_header_only_with_declared_payload(self):
        raw = wp.encode_trr_routing(wp.TrrRouting(1, bytes(32), 5, 5, b"xyz"))
        with pytest.raises(Truncated):
            wp.decode_trr_routing(raw[:41])
        with pytest.raises(Truncated):
            wp.decode_trr_routing(raw[:20])


class TestTrrAck:
    @given(st.integers(0, 255), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
           st.integers(0, 65535))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_constant_size(self, version, time, rpt, err, errno):
        a = wp.TrrAck(version, time, rpt, err, errno, b"some text")
        raw = wp.encode_trr_ack(a)
        assert len(raw) == 45
        assert wp.decode_trr_ack(raw) == a

    def test_errmsg_too_long(self):
        with pytest.raises(MessageTooLong):
            wp.encode_trr_ack(wp.TrrAck(1, 0, 0, 0, 0, bytes(31)))

    def test_max_errmsg_roundtrips(self):
        a = wp.TrrAck(1, 0, 0, 0, 0, b"x" * 30)
        assert wp.decode_trr_ack(wp.encode_trr_ack(a)).errmsg == b"x" * 30

    def test_truncated(self):
        raw = wp.encode_trr_ack(wp.TrrAck(1, 0, 0, 0, 0, b""))
        with pytest.raises(Truncated):
            wp.decode_trr_ack(raw[:44])
        with pytest.raises(SizeMismatch):
            wp.decode_trr_ack(raw + b"\x00")


# every integer field an encoder writes from its record, with its width;
# release_delay has its own 1..5 rule (DelayOutOfRange) and is left out
FIELD_WIDTHS = [
    (wp.encode_trr_data, wp.TrrData(1, 0, 3, b"tx"), "version", 8),
    (wp.encode_trr_data, wp.TrrData(1, 0, 3, b"tx"), "time", 32),
    (wp.encode_trr_routing, wp.TrrRouting(1, bytes(32), 5, 5, b""),
     "version", 8),
    (wp.encode_trr_routing, wp.TrrRouting(1, bytes(32), 5, 5, b""),
     "dst_ip", 32),
    (wp.encode_trr_routing, wp.TrrRouting(1, bytes(32), 5, 5, b""),
     "port", 16),
] + [(wp.encode_trr_ack, wp.TrrAck(1, 0, 0, 0, 0, b""), name, bits)
     for name, bits in (("version", 8), ("time", 32), ("rpt_ip", 32),
                        ("err_ip", 32), ("errno", 16))]


class TestFieldWidths:
    @pytest.mark.parametrize(
        "encode,record,name,bits", FIELD_WIDTHS,
        ids=[f"{type(r).__name__}.{n}" for _, r, n, _ in FIELD_WIDTHS])
    def test_out_of_range_raises_value_error(self, encode, record, name, bits):
        encode(dataclasses.replace(record, **{name: (1 << bits) - 1}))
        for bad in (1 << bits, -1):
            with pytest.raises(ValueError):
                encode(dataclasses.replace(record, **{name: bad}))

    @pytest.mark.parametrize("encode,record", [
        (wp.encode_trr_data, wp.TrrData(1, 0, 3, b"tx")),
        (wp.encode_trr_ack, wp.TrrAck(1, 0, 0, 0, 0, b"")),
    ], ids=["TrrData", "TrrAck"])
    def test_float_time_raises_value_error(self, encode, record):
        with pytest.raises(ValueError):
            encode(dataclasses.replace(record, time=1.5))


class TestFraming:
    @given(st.sampled_from(wp.COMMANDS), st.binary(max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, command, payload):
        assert wp.parse_frame(wp.frame_message(command, payload)) == (command, payload)

    def test_bit_flip_detected(self):
        raw = bytearray(wp.frame_message("trr", b"payload!"))
        raw[-3] ^= 0x40
        with pytest.raises(BadChecksum):
            wp.parse_frame(bytes(raw))

    def test_version_command_rejected(self):
        # TRR connections speak only the simplified command set
        with pytest.raises(UnknownCommand):
            wp.frame_message("version", b"")
        forged = b"TRR1" + b"version".ljust(12, b"\x00") + bytes(4) + \
            hashlib.sha256(hashlib.sha256(b"").digest()).digest()[:4]
        with pytest.raises(UnknownCommand):
            wp.parse_frame(forged)

    def test_bad_magic(self):
        raw = bytearray(wp.frame_message("trr", b""))
        raw[0] = 0x00
        with pytest.raises(BadMagic):
            wp.parse_frame(bytes(raw))

    def test_nonzero_command_padding_rejected(self):
        raw = bytearray(wp.frame_message("trr", b""))
        raw[4 + 11] = 0x21  # pad byte inside the command field
        with pytest.raises(UnknownCommand):
            wp.parse_frame(bytes(raw))

    def test_truncations(self):
        raw = wp.frame_message("track", b"abcdef")
        with pytest.raises(Truncated):
            wp.parse_frame(raw[:10])
        with pytest.raises(Truncated):
            wp.parse_frame(raw[:-1])
        with pytest.raises(SizeMismatch):
            wp.parse_frame(raw + b"\x00")

    def test_declared_length_helper(self):
        raw = wp.frame_message("trr", bytes(17))
        assert wp.parse_frame_header(raw[:24]) == ("trr", 17, raw[20:24])
        oversized = bytearray(raw[:24])
        oversized[16:20] = (wp.MAX_FRAME_PAYLOAD + 1).to_bytes(4, "little")
        with pytest.raises(PayloadTooLarge):
            wp.parse_frame_header(bytes(oversized))
        with pytest.raises(BadMagic):
            wp.parse_frame_header(b"XRR1" + raw[4:24])


class TestIpv4Helpers:
    @pytest.mark.parametrize("text,value", [
        ("0.0.0.0", 0),
        ("10.0.0.2", 0x0A000002),
        ("255.255.255.255", 0xFFFFFFFF),
        ("192.168.0.1", 0xC0A80001),
    ])
    def test_parse_format(self, text, value):
        assert wp.parse_ipv4(text) == value
        assert wp.format_ipv4(value) == text

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            wp.parse_ipv4(bad)

    @pytest.mark.parametrize("bad", [
        "010.0.0.1",  # the OS reads a leading zero as octal: 8.0.0.1
        "00.0.0.0", "1.2.3.0004", "1.2.3.+4", "1.2.3.-0", " 1.2.3.4",
        "1.2.3.4 ", "1_0.0.0.1", "\u0661.\u0662.\u0663.\u0664",
    ])
    def test_parse_rejects_loose_octets(self, bad):
        with pytest.raises(ValueError):
            wp.parse_ipv4(bad)

    @pytest.mark.parametrize("text,value", [
        ("1", 1), ("80", 80), ("8333", 8333), ("65535", 65535)])
    def test_parse_port(self, text, value):
        assert wp.parse_port(text) == value

    @pytest.mark.parametrize("bad", ["0", "65536", "70000", "08333", "+80",
                                     " 80", "8_0", "-1", "", "100000",
                                     "\u0668\u0660"])
    def test_parse_port_rejects(self, bad):
        with pytest.raises(ValueError):
            wp.parse_port(bad)


def test_fuzz_decoders_smoke():
    """Random buffers produce typed errors, never crashes (the full
    million-buffer run lives in the acceptance suite)."""
    rng = random.Random(99)
    decoders = (wp.decode_trr_data, wp.decode_trr_routing,
                wp.decode_trr_ack, wp.parse_frame)
    for i in range(20_000):
        buf = rng.randbytes(rng.randrange(0, 80))
        try:
            decoders[i % 4](buf)
        except WireError:
            pass
