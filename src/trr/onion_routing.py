"""Client-side route selection, onion construction and per-hop peeling.

A route is the tuple of its hops' NodeDescriptors, the last one the
releasing node.  An onion for the route (A, B, C) nests encryptions
from the inside out:

    to C:  routing(dst=0)      | trr_data(tx, delay)
    to B:  routing(dst=C)      | cipher_for_C
    to A:  routing(dst=B)      | cipher_for_B

Each hop decrypts one layer, reads its routing header and either
forwards the remaining bytes verbatim or, at dst_ip == 0, decodes the
transaction for delayed release.  Every routing header carries the
client's return public key so any hop can encrypt a result back.

Deviation from the paper: its trr_data time field is the client's
clock, which would tell the releasing hop when the request entered the
network.  build_onion writes whatever now it is given, and client_send
gives it the round's dispatch block height, which every node already
knows; the wire format is unchanged.
"""

from dataclasses import dataclass

from . import ec_crypto
from .errors import (
    InsufficientNodes,
    LengthMismatch,
    MalformedCipher,
    MalformedRouting,
    WireError,
)
from .wire_protocol import (
    RETURN_PUBKEY_LEN,
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
    if not MIN_HOPS <= hops_per_route <= MAX_HOPS:
        raise ValueError(f"hops_per_route must be in {MIN_HOPS}..{MAX_HOPS}")
    if num_routes < 1:
        raise ValueError("num_routes must be at least 1")
    if len(directory) < hops_per_route:
        raise InsufficientNodes(
            f"directory holds {len(directory)} nodes, need {hops_per_route}")
    return [tuple(rng.sample(directory, hops_per_route))
            for _ in range(num_routes)]


@dataclass(frozen=True, slots=True)
class Forward:
    """Peel outcome at an intermediate hop."""

    next_ip: int
    next_port: int
    remaining: bytes
    return_pubkey: bytes


@dataclass(frozen=True, slots=True)
class Release:
    """Peel outcome at the releasing hop."""

    trr_data: TrrData
    return_pubkey: bytes


def build_onion(tx: bytes, route: tuple, release_delay: int,
                return_keypair: ec_crypto.KeyPair, now: int, rng) -> bytes:
    """Layer-encrypt tx for the given route, innermost layer first; the
    onion is the serialized outermost cipher stream."""
    if not route:
        raise ValueError("route has no hops")
    if return_keypair.public.y % 2 != 0:
        raise ValueError("return keypair must have an even-parity public key")
    return_x = return_keypair.public.x.to_bytes(RETURN_PUBKEY_LEN, "big")

    inner = TrrRouting(
        version=1, return_pubkey=return_x, dst_ip=0, port=0,
        payload=encode_trr_data(TrrData(1, now, release_delay, tx)))
    packet = _encrypt_layer(encode_trr_routing(inner), route[-1].pubkey, rng)
    for hop, successor in zip(route[-2::-1], route[:0:-1]):
        layer = TrrRouting(version=1, return_pubkey=return_x,
                           dst_ip=successor.ip, port=successor.port,
                           payload=packet)
        packet = _encrypt_layer(encode_trr_routing(layer), hop.pubkey, rng)
    return packet


def _encrypt_layer(plaintext: bytes, pubkey: ec_crypto.CurvePoint, rng) -> bytes:
    return ec_crypto.serialize_cipher(
        ec_crypto.elgamal_encrypt(plaintext, pubkey, rng))


def peel_layer(packet: bytes, node_private: int):
    """Strip one layer; returns Forward or Release.

    MalformedCipher means the bytes are not even a valid cipher stream;
    MalformedRouting means a structurally valid stream that did not
    decrypt into a routing header (wrong key or corrupted layer).
    """
    stream = ec_crypto.deserialize_cipher(packet)
    try:
        plain = ec_crypto.elgamal_decrypt(stream, node_private)
        routing = decode_trr_routing(plain)
    except (LengthMismatch, WireError) as exc:
        raise MalformedRouting(f"layer did not peel: {exc}") from exc
    if not routing.is_release:
        return Forward(routing.dst_ip, routing.port, routing.payload,
                       routing.return_pubkey)
    try:
        trr_data = decode_trr_data(routing.payload)
    except WireError as exc:
        raise MalformedRouting(f"release payload did not decode: {exc}") from exc
    return Release(trr_data, routing.return_pubkey)


def return_key_point(return_pubkey: bytes) -> ec_crypto.CurvePoint:
    """Reconstruct the client's return key from its 32-byte x-coordinate
    (parity is fixed even by construction)."""
    if len(return_pubkey) != RETURN_PUBKEY_LEN:
        raise MalformedRouting(
            f"return_pubkey must be {RETURN_PUBKEY_LEN} bytes")
    return ec_crypto.point_from_bytes(b"\x02" + return_pubkey)


def encrypt_ack(ack: TrrAck, return_pubkey: ec_crypto.CurvePoint, rng) -> bytes:
    """Single-layer encryption of an ack; intermediate hops relay the
    result verbatim."""
    return _encrypt_layer(encode_trr_ack(ack), return_pubkey, rng)


def decrypt_ack(blob: bytes, return_private: int) -> TrrAck:
    try:
        stream = ec_crypto.deserialize_cipher(blob)
        return decode_trr_ack(ec_crypto.elgamal_decrypt(stream, return_private))
    except (LengthMismatch, WireError) as exc:
        raise MalformedCipher(f"ack did not decrypt: {exc}") from exc
