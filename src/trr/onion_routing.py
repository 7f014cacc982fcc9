"""Client-side route selection, onion construction and per-hop peeling,
and the sealed acks that travel back.

A route is the tuple of its hops' NodeDescriptors, the last one the
releasing node.  An onion for the route (A, B, C) nests encryptions
from the inside out:

    to C:  routing(key_C, dst=0)  | trr_data(tx, delay)
    to B:  routing(key_B, dst=C)  | cipher_for_C
    to A:  routing(key_A, dst=B)  | cipher_for_B

Each hop's peel_layer yields the decoded TrrRouting, whose payload it
forwards verbatim, or at dst_ip == 0 also the decoded TrrData it
releases.

Acks.  Each routing header carries that hop's ack key, 32 random bytes
the client draws per hop, so no two layers share a key.  The hop that
reports (the releasing hop, or a forwarding hop whose forward failed)
seals its ack: the 45-byte trr_ack XOR a pad, then a 16-byte tag,
SEALED_ACK_LEN bytes in all.  Every hop between it and the client XORs
the reply with its own pad, as Tor's backward cells add one layer a
hop, so each link carries different ack bytes.  The client strips the
pads in route order; the first hop whose tag verifies is the reporter,
and only that hop (and the client) holds its key, so no hop can write
an ack in another hop's name.  Pads and MAC keys come from one KDF
step, _ack_kdf.

Deviations from the paper.  Its routing header carries the client's
return public key and the releasing hop encrypts the ack to it; here
the same 32-byte field carries the hop's ack key and the ack is a
sealed blob, not an ElGamal stream, so the wire layout of every
structure is unchanged.  Its trr_data time field is the client's
clock, which would tell the releasing hop when the request entered the
network; build_onion writes whatever now it is given, and client_send
gives it the round's dispatch block height, which every node already
knows.

Known limits, until the layer cipher stops masking every block with
one point (ROADMAP item 2): a hop that knows one plaintext chunk of a
later layer, as the hop before the releasing hop knows the tx once it
is broadcast, reads that layer's ack key.  A replayed layer reuses its
pad (ROADMAP item 9).
"""

import hashlib
from dataclasses import dataclass
from hmac import compare_digest

from . import ec_crypto
from .errors import (
    InsufficientNodes,
    InvalidConfig,
    LengthMismatch,
    MalformedCipher,
    MalformedRouting,
    WireError,
)
from .wire_protocol import (
    ACK_KEY_LEN,
    TRR_ACK_LEN,
    TrrAck,
    TrrData,
    TrrRouting,
    decode_trr_ack,
    decode_trr_data,
    decode_trr_routing,
    encode_trr_ack,
    encode_trr_data,
    encode_trr_routing,
)

MIN_HOPS = 1
MAX_HOPS = 10


def check_route_shape(num_routes: int, hops: int) -> None:
    """The one rule for the routes of a send or a simulation: InvalidConfig
    unless num_routes is an integer >= 1 and hops one in MIN_HOPS..MAX_HOPS."""
    if not (isinstance(num_routes, int) and isinstance(hops, int)
            and num_routes >= 1 and MIN_HOPS <= hops <= MAX_HOPS):
        raise InvalidConfig(f"num_routes {num_routes!r} and hops {hops!r}: "
                            f"integers required, num_routes >= 1 and hops "
                            f"in {MIN_HOPS}..{MAX_HOPS}")


@dataclass(frozen=True, slots=True)
class NodeDescriptor:
    """Directory entry for one relay node."""

    node_id: object
    ip: int
    port: int
    pubkey: ec_crypto.CurvePoint


def select_routes(directory, num_routes: int, hops_per_route: int,
                  rng) -> list[tuple[NodeDescriptor, ...]]:
    """Sample num_routes routes of hops_per_route distinct nodes each.

    Hops are drawn uniformly without replacement and in random order
    within a route; routes are drawn independently and may overlap.
    """
    if len(directory) < hops_per_route:
        raise InsufficientNodes(
            f"directory holds {len(directory)} nodes, need {hops_per_route}")
    return [tuple(rng.sample(directory, hops_per_route))
            for _ in range(num_routes)]


def build_onion(tx: bytes, route: tuple, release_delay: int,
                ack_keys, now: int, rng) -> bytes:
    """Layer-encrypt tx from the releasing hop (next address 0:0)
    outward; the onion is the serialized outermost cipher stream.  Hop
    i's header carries ack_keys[i], one ACK_KEY_LEN-byte key per hop."""
    if not route:
        raise ValueError("route has no hops")
    packet = encode_trr_data(TrrData(1, now, release_delay, tx))
    next_ip, next_port = 0, 0  # the releasing hop has no next node
    for hop, key in zip(reversed(route), reversed(ack_keys), strict=True):
        layer = TrrRouting(1, key, next_ip, next_port, packet)
        packet = _encrypt_layer(encode_trr_routing(layer), hop.pubkey, rng)
        next_ip, next_port = hop.ip, hop.port
    return packet


def _encrypt_layer(plaintext: bytes, pubkey: ec_crypto.CurvePoint, rng) -> bytes:
    return ec_crypto.serialize_cipher(
        ec_crypto.elgamal_encrypt(plaintext, pubkey, rng))


def peel_layer(packet: bytes,
               node_private: int) -> tuple[TrrRouting, TrrData | None]:
    """Strip one layer; returns its TrrRouting and, at the releasing
    hop (dst_ip 0), the TrrData in its payload, else None.

    MalformedCipher means the bytes are not even a valid cipher stream;
    MalformedRouting means a structurally valid stream that did not
    decrypt into a routing header (wrong key or corrupted layer), or a
    release whose payload is no trr_data.
    """
    stream = ec_crypto.deserialize_cipher(packet)
    try:
        plain = ec_crypto.elgamal_decrypt(stream, node_private)
        routing = decode_trr_routing(plain)
    except (LengthMismatch, WireError) as exc:
        raise MalformedRouting(f"layer did not peel: {exc}") from exc
    if not routing.is_release:
        return routing, None
    try:
        return routing, decode_trr_data(routing.payload)
    except WireError as exc:
        raise MalformedRouting(f"release payload did not decode: {exc}") from exc


ACK_TAG_LEN = 16
SEALED_ACK_LEN = TRR_ACK_LEN + ACK_TAG_LEN


def _ack_kdf(key: bytes) -> tuple[bytes, bytes]:
    """The SEALED_ACK_LEN-byte pad and the MAC key of one hop's ack key,
    each a SHA-256 of the key under its own domain-separation prefix."""
    pad = (hashlib.sha256(b"trr ack pad 0" + key).digest()
           + hashlib.sha256(b"trr ack pad 1" + key).digest())
    return pad[:SEALED_ACK_LEN], hashlib.sha256(b"trr ack mac" + key).digest()


def _xor(data: bytes, pad: bytes) -> bytes:
    n = len(data)
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(pad[:n], "little")).to_bytes(n, "little")


def _tag(mac_key: bytes, body: bytes) -> bytes:
    """sha256(mac_key || body), cut to ACK_TAG_LEN bytes.  Every body is
    TRR_ACK_LEN bytes long, so no length extension yields another valid
    tag."""
    return hashlib.sha256(mac_key + body).digest()[:ACK_TAG_LEN]


def encrypt_ack(ack: TrrAck, key: bytes) -> bytes:
    """Seal ack under the reporting hop's ack key: the encoded ack XOR
    the key's pad, then the tag of those bytes; SEALED_ACK_LEN bytes."""
    pad, mac_key = _ack_kdf(key)
    body = _xor(encode_trr_ack(ack), pad)
    return body + _tag(mac_key, body)


def wrap_ack(blob: bytes, key: bytes) -> bytes:
    """A forwarding hop's layer over a downstream SEALED_ACK_LEN-byte
    reply: the reply XOR the hop's pad."""
    return _xor(blob, _ack_kdf(key)[0])


def decrypt_ack(blob: bytes, ack_keys) -> tuple[int, TrrAck]:
    """The index of the hop whose key sealed blob, and its ack: for hop
    0, 1, ..., open the ack if that hop's tag verifies, else strip that
    hop's pad.  MalformedCipher if no tag verifies."""
    if len(blob) != SEALED_ACK_LEN:
        raise MalformedCipher(f"ack of {len(blob)} bytes, not {SEALED_ACK_LEN}")
    for hop, key in enumerate(ack_keys):
        pad, mac_key = _ack_kdf(key)
        body = blob[:TRR_ACK_LEN]
        if compare_digest(_tag(mac_key, body), blob[TRR_ACK_LEN:]):
            return hop, decode_trr_ack(_xor(body, pad))
        blob = _xor(blob, pad)
    raise MalformedCipher("no hop's key verifies the ack")
