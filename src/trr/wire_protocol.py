"""Bit-exact codecs for the TRR wire structures and message framing.

All multi-byte integers are little-endian.  Three structures travel
inside encrypted payloads (trr_data, trr_routing, trr_ack); frames
carry them between peers with a 24-byte header:

    [ 4] magic     b"TRR1"
    [12] command   zero-padded ASCII, one of vertrr / trr / track
    [ 4] length    of payload, uint32
    [ 4] checksum  first 4 bytes of double-SHA256(payload)
    [..] payload

Encoders leave integer field widths to struct, raising its error as
ValueError, and check themselves only the limits struct cannot see.
Every decoder applies one size rule, through _header and _body: the
fixed header must be present (Truncated), and the size it declares must
equal the rest of the buffer (Truncated if short, SizeMismatch if long).
"""

import hashlib
import ipaddress
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
MAX_FRAME_PAYLOAD = 1 << 20  # largest payload a frame header may declare

MAX_TX_SIZE = 10240
MIN_RELEASE_DELAY = 1
MAX_RELEASE_DELAY = 5

ACK_KEY_LEN = 32
ERRMSG_LEN = 30

_DATA_HDR = struct.Struct("<BIQH")
_ROUTING_HDR = struct.Struct(f"<B{ACK_KEY_LEN}sIHH")
_ACK = struct.Struct(f"<BIIIH{ERRMSG_LEN}s")
_FRAME_HDR = struct.Struct("<4s12sI4s")
FRAME_HEADER_LEN = _FRAME_HDR.size
TRR_ACK_LEN = _ACK.size
_COMMAND_FIELDS = {c.encode("ascii").ljust(12, b"\x00"): c for c in COMMANDS}


def dsha256(payload: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(payload).digest()).digest()


def _parse_decimal(text: str) -> int:
    """ASCII digits with no leading zero, as a port field is written;
    int() alone would also take signs, blanks, underscores and other
    scripts' digits."""
    if not (text.isascii() and text.isdigit()) or str(int(text)) != text:
        raise ValueError(f"not a plain decimal field: {text!r}")
    return int(text)


def parse_ipv4(text: str) -> int:
    """Dotted-quad text to its integer; ipaddress refuses a leading
    zero (the OS would read it as octal), signs, blanks and other
    scripts' digits."""
    return int(ipaddress.IPv4Address(text))


def parse_port(text: str) -> int:
    port = _parse_decimal(text)
    if not 1 <= port <= 65535:
        raise ValueError(f"port out of range 1..65535: {text!r}")
    return port


def format_ipv4(ip: int) -> str:
    return f"{ip >> 24 & 255}.{ip >> 16 & 255}.{ip >> 8 & 255}.{ip & 255}"


def check_release_delay(delay: int) -> None:
    if (not isinstance(delay, int)
            or not MIN_RELEASE_DELAY <= delay <= MAX_RELEASE_DELAY):
        raise DelayOutOfRange(f"release_delay {delay!r} is not an integer "
                              f"in {MIN_RELEASE_DELAY}..{MAX_RELEASE_DELAY}")


def _pack(fmt: struct.Struct, *fields) -> bytes:
    """fmt.pack(*fields), with struct's range and type check of each
    field raised as ValueError."""
    try:
        return fmt.pack(*fields)
    except struct.error as exc:
        raise ValueError(f"field does not fit {fmt.format!r}: {exc}") from exc


def _header(raw: bytes, fmt: struct.Struct, name: str) -> tuple:
    """fmt's fields from the start of raw; Truncated if raw is shorter."""
    if len(raw) < fmt.size:
        raise Truncated(f"{name} header needs {fmt.size} bytes")
    return fmt.unpack_from(raw)


def _body(raw: bytes, fmt: struct.Struct, size: int, name: str) -> bytes:
    """raw after fmt's header, exactly size bytes or Truncated/SizeMismatch."""
    if len(raw) < fmt.size + size:
        raise Truncated(f"{name} bytes missing")
    if len(raw) > fmt.size + size:
        raise SizeMismatch(f"trailing bytes after {name}")
    return raw[fmt.size:]


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
    check_release_delay(d.release_delay)
    if len(d.tx) > MAX_TX_SIZE:
        raise SizeMismatch(f"tx of {len(d.tx)} bytes exceeds {MAX_TX_SIZE}")
    return _pack(_DATA_HDR, d.version, d.time, d.release_delay,
                 len(d.tx)) + d.tx


def decode_trr_data(raw: bytes) -> TrrData:
    version, time, delay, size = _header(raw, _DATA_HDR, "trr_data")
    check_release_delay(delay)
    if size > MAX_TX_SIZE:
        raise SizeMismatch(f"tx_size {size} exceeds {MAX_TX_SIZE}")
    return TrrData(version, time, delay, _body(raw, _DATA_HDR, size, "trr_data"))


# -- trr_routing ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TrrRouting:
    """Per-hop routing header: where to send the remaining payload.

    dst_ip == 0 marks the releasing hop (no next node).  ack_key, the
    field the paper calls the return public key, is this hop's key for
    sealing or wrapping the ack (see onion_routing).
    """

    version: int
    ack_key: bytes
    dst_ip: int
    port: int
    payload: bytes

    @property
    def is_release(self) -> bool:
        return self.dst_ip == 0


def encode_trr_routing(r: TrrRouting) -> bytes:
    if len(r.ack_key) != ACK_KEY_LEN:
        raise ValueError(f"ack_key must be {ACK_KEY_LEN} bytes")
    if len(r.payload) > 0xFFFF:
        raise PayloadTooLarge(f"payload of {len(r.payload)} bytes exceeds "
                              "the 2-byte size field")
    return _pack(_ROUTING_HDR, r.version, r.ack_key, r.dst_ip, r.port,
                 len(r.payload)) + r.payload


def decode_trr_routing(raw: bytes) -> TrrRouting:
    *fields, size = _header(raw, _ROUTING_HDR, "trr_routing")
    return TrrRouting(*fields, _body(raw, _ROUTING_HDR, size, "trr_routing"))


# -- trr_ack -------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TrrAck:
    """Result record returned to the client; always 45 encoded bytes.
    time is the reporting node's block height, not a clock reading."""

    version: int
    time: int
    rpt_ip: int  # node reporting
    err_ip: int  # node that failed (0 on success)
    errno: int   # 0 is success
    errmsg: bytes = b""


def encode_trr_ack(a: TrrAck) -> bytes:
    if len(a.errmsg) > ERRMSG_LEN:
        raise MessageTooLong(f"errmsg of {len(a.errmsg)} bytes exceeds {ERRMSG_LEN}")
    return _pack(_ACK, a.version, a.time, a.rpt_ip, a.err_ip, a.errno,
                 a.errmsg)


def decode_trr_ack(raw: bytes) -> TrrAck:
    *fields, errmsg = _header(raw, _ACK, "trr_ack")
    _body(raw, _ACK, 0, "trr_ack")
    return TrrAck(*fields, errmsg.rstrip(b"\x00"))


# -- framing -------------------------------------------------------------

def frame_message(command: str, payload: bytes) -> bytes:
    if command not in COMMANDS:
        raise UnknownCommand(f"command {command!r} not in {COMMANDS}")
    return _FRAME_HDR.pack(MAGIC, command.encode("ascii"), len(payload),
                           dsha256(payload)[:4]) + payload


def parse_frame_header(raw: bytes) -> tuple[str, int, bytes]:
    """Command, payload length and checksum of a frame, read from its
    header alone, so a stream reader can reject it before the payload."""
    magic, cmd_field, length, checksum = _header(raw, _FRAME_HDR, "frame")
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if cmd_field not in _COMMAND_FIELDS:
        raise UnknownCommand(f"unknown command field {cmd_field!r}")
    if length > MAX_FRAME_PAYLOAD:
        raise PayloadTooLarge(f"frame of {length} bytes exceeds read cap")
    return _COMMAND_FIELDS[cmd_field], length, checksum


def parse_frame(raw: bytes) -> tuple[str, bytes]:
    command, length, checksum = parse_frame_header(raw)
    payload = _body(raw, _FRAME_HDR, length, "frame")
    if dsha256(payload)[:4] != checksum:
        raise BadChecksum("frame checksum mismatch")
    return command, payload
