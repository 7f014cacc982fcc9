"""Bit-exact codecs for the TRR wire structures and message framing.

All multi-byte integers are little-endian.  Three structures travel
inside encrypted payloads (trr_data, trr_routing, trr_ack); frames
carry them between peers with a 24-byte header:

    [ 4] magic     b"TRR1"
    [12] command   zero-padded ASCII, one of vertrr / trr / track
    [ 4] length    of payload, uint32
    [ 4] checksum  first 4 bytes of double-SHA256(payload)
    [..] payload
"""

import hashlib
import struct
from dataclasses import dataclass

from .errors import (
    BadChecksum,
    BadMagic,
    DelayOutOfRange,
    MessageTooLong,
    PayloadTooLarge,
    SizeMismatch,
    Truncated,
    UnknownCommand,
)

MAGIC = b"TRR1"
COMMANDS = ("vertrr", "trr", "track")
FRAME_HEADER_LEN = 24
MAX_FRAME_PAYLOAD = 1 << 20  # largest payload a frame header may declare

MAX_TX_SIZE = 10240
MIN_RELEASE_DELAY = 1
MAX_RELEASE_DELAY = 5

TRR_DATA_HEADER_LEN = 15
TRR_ROUTING_HEADER_LEN = 41
TRR_ACK_LEN = 45
RETURN_PUBKEY_LEN = 32
ERRMSG_LEN = 30

_DATA_HDR = struct.Struct("<BIQH")
_ROUTING_HDR = struct.Struct("<B32sIHH")
_ACK = struct.Struct("<BIIIH30s")
_FRAME_HDR = struct.Struct("<4s12sI4s")
_COMMAND_FIELDS = {c.encode("ascii").ljust(12, b"\x00"): c for c in COMMANDS}


def dsha256(payload: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(payload).digest()).digest()


def parse_ipv4(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad IPv4 address: {text!r}")
    octets = [int(p) for p in parts]
    if any(not 0 <= o <= 255 for o in octets):
        raise ValueError(f"IPv4 octet out of range: {text!r}")
    return octets[0] << 24 | octets[1] << 16 | octets[2] << 8 | octets[3]


def format_ipv4(ip: int) -> str:
    return f"{ip >> 24 & 255}.{ip >> 16 & 255}.{ip >> 8 & 255}.{ip & 255}"


def _check_u(value: int, bits: int, name: str) -> None:
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{name} does not fit in {bits} bits: {value}")


# -- trr_data ------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TrrData:
    """Transaction plus release delay, seen in clear only by the
    releasing node."""

    version: int
    time: int
    release_delay: int  # block count, 1..5
    tx: bytes


def encode_trr_data(d: TrrData) -> bytes:
    _check_u(d.version, 8, "version")
    _check_u(d.time, 32, "time")
    if not MIN_RELEASE_DELAY <= d.release_delay <= MAX_RELEASE_DELAY:
        raise DelayOutOfRange(f"release_delay {d.release_delay} not in "
                              f"{MIN_RELEASE_DELAY}..{MAX_RELEASE_DELAY}")
    if len(d.tx) > MAX_TX_SIZE:
        raise SizeMismatch(f"tx of {len(d.tx)} bytes exceeds {MAX_TX_SIZE}")
    return _DATA_HDR.pack(d.version, d.time, d.release_delay, len(d.tx)) + d.tx


def decode_trr_data(raw: bytes) -> TrrData:
    if len(raw) < TRR_DATA_HEADER_LEN:
        raise Truncated(f"trr_data header needs {TRR_DATA_HEADER_LEN} bytes")
    version, time, delay, tx_size = _DATA_HDR.unpack_from(raw)
    if not MIN_RELEASE_DELAY <= delay <= MAX_RELEASE_DELAY:
        raise DelayOutOfRange(f"release_delay {delay} not in "
                              f"{MIN_RELEASE_DELAY}..{MAX_RELEASE_DELAY}")
    if tx_size > MAX_TX_SIZE:
        raise SizeMismatch(f"tx_size {tx_size} exceeds {MAX_TX_SIZE}")
    if len(raw) < TRR_DATA_HEADER_LEN + tx_size:
        raise Truncated("trr_data transaction bytes missing")
    if len(raw) > TRR_DATA_HEADER_LEN + tx_size:
        raise SizeMismatch("trailing bytes after trr_data")
    return TrrData(version, time, delay, raw[TRR_DATA_HEADER_LEN:])


# -- trr_routing ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TrrRouting:
    """Per-hop routing header: where to send the remaining payload.

    dst_ip == 0 marks the releasing hop (no next node).  return_pubkey
    is the x-coordinate of the client's even-parity return key.
    """

    version: int
    return_pubkey: bytes
    dst_ip: int
    port: int
    payload: bytes

    @property
    def is_release(self) -> bool:
        return self.dst_ip == 0


def encode_trr_routing(r: TrrRouting) -> bytes:
    _check_u(r.version, 8, "version")
    _check_u(r.dst_ip, 32, "dst_ip")
    _check_u(r.port, 16, "port")
    if len(r.return_pubkey) != RETURN_PUBKEY_LEN:
        raise ValueError(f"return_pubkey must be {RETURN_PUBKEY_LEN} bytes")
    if len(r.payload) > 0xFFFF:
        raise PayloadTooLarge(f"payload of {len(r.payload)} bytes exceeds "
                              "the 2-byte size field")
    return _ROUTING_HDR.pack(r.version, r.return_pubkey, r.dst_ip, r.port,
                             len(r.payload)) + r.payload


def decode_trr_routing(raw: bytes) -> TrrRouting:
    if len(raw) < TRR_ROUTING_HEADER_LEN:
        raise Truncated(f"trr_routing header needs {TRR_ROUTING_HEADER_LEN} bytes")
    version, pubkey, dst_ip, port, payload_size = _ROUTING_HDR.unpack_from(raw)
    if len(raw) < TRR_ROUTING_HEADER_LEN + payload_size:
        raise Truncated("trr_routing payload bytes missing")
    if len(raw) > TRR_ROUTING_HEADER_LEN + payload_size:
        raise SizeMismatch("trailing bytes after trr_routing")
    return TrrRouting(version, pubkey, dst_ip, port,
                      raw[TRR_ROUTING_HEADER_LEN:])


# -- trr_ack -------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TrrAck:
    """Result record returned to the client; always 45 encoded bytes."""

    version: int
    time: int
    rpt_ip: int  # node reporting
    err_ip: int  # node that failed (0 on success)
    errno: int   # 0 is success
    errmsg: bytes = b""


def encode_trr_ack(a: TrrAck) -> bytes:
    _check_u(a.version, 8, "version")
    _check_u(a.time, 32, "time")
    _check_u(a.rpt_ip, 32, "rpt_ip")
    _check_u(a.err_ip, 32, "err_ip")
    _check_u(a.errno, 16, "errno")
    if len(a.errmsg) > ERRMSG_LEN:
        raise MessageTooLong(f"errmsg of {len(a.errmsg)} bytes exceeds {ERRMSG_LEN}")
    return _ACK.pack(a.version, a.time, a.rpt_ip, a.err_ip, a.errno, a.errmsg)


def decode_trr_ack(raw: bytes) -> TrrAck:
    if len(raw) < TRR_ACK_LEN:
        raise Truncated(f"trr_ack needs exactly {TRR_ACK_LEN} bytes")
    if len(raw) > TRR_ACK_LEN:
        raise SizeMismatch("trailing bytes after trr_ack")
    version, time, rpt_ip, err_ip, errno, errmsg = _ACK.unpack(raw)
    return TrrAck(version, time, rpt_ip, err_ip, errno, errmsg.rstrip(b"\x00"))


# -- framing -------------------------------------------------------------

def frame_message(command: str, payload: bytes) -> bytes:
    if command not in COMMANDS:
        raise UnknownCommand(f"command {command!r} not in {COMMANDS}")
    return _FRAME_HDR.pack(MAGIC, command.encode("ascii"), len(payload),
                           dsha256(payload)[:4]) + payload


def parse_frame_header(raw: bytes) -> tuple[str, int, bytes]:
    """Command, payload length and checksum of a frame, read from its
    header alone, so a stream reader can reject it before the payload."""
    if len(raw) < FRAME_HEADER_LEN:
        raise Truncated(f"frame header needs {FRAME_HEADER_LEN} bytes")
    magic, cmd_field, length, checksum = _FRAME_HDR.unpack_from(raw)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if cmd_field not in _COMMAND_FIELDS:
        raise UnknownCommand(f"unknown command field {cmd_field!r}")
    if length > MAX_FRAME_PAYLOAD:
        raise PayloadTooLarge(f"frame of {length} bytes exceeds read cap")
    return _COMMAND_FIELDS[cmd_field], length, checksum


def parse_frame(raw: bytes) -> tuple[str, bytes]:
    command, length, checksum = parse_frame_header(raw)
    if len(raw) < FRAME_HEADER_LEN + length:
        raise Truncated("frame payload bytes missing")
    if len(raw) > FRAME_HEADER_LEN + length:
        raise SizeMismatch("trailing bytes after frame")
    payload = raw[FRAME_HEADER_LEN:]
    if dsha256(payload)[:4] != checksum:
        raise BadChecksum("frame checksum mismatch")
    return command, payload
