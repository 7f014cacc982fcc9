"""Client-side route selection, onion construction and per-hop peeling.

A route is the tuple of its hops' NodeDescriptors, the last one the
releasing node.  An onion for the route (A, B, C) nests encryptions
from the inside out:

    to C:  routing(dst=0)      | trr_data(tx, delay)
    to B:  routing(dst=C)      | cipher_for_C
    to A:  routing(dst=B)      | cipher_for_B

Each hop's peel_layer yields the decoded TrrRouting, whose payload it
forwards verbatim, or at dst_ip == 0 also the decoded TrrData it
releases.  Every routing header of an onion carries its route's return
public key as a bare 32-byte x-coordinate, an encoding this module alone
knows: any hop can encrypt a result back to the even-y point with that
x, and decrypt_ack fits the keypair to it.  client_send draws a fresh
return key for each route, so no two routes share one.

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
    InvalidConfig,
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
                return_keypair: ec_crypto.KeyPair, now: int, rng) -> bytes:
    """Layer-encrypt tx from the releasing hop (next address 0:0)
    outward; the onion is the serialized outermost cipher stream.  Each
    header carries return_keypair's x; any keypair serves (decrypt_ack)."""
    if not route:
        raise ValueError("route has no hops")
    return_x = return_keypair.public.x.to_bytes(RETURN_PUBKEY_LEN, "big")

    packet = encode_trr_data(TrrData(1, now, release_delay, tx))
    next_ip, next_port = 0, 0  # the releasing hop has no next node
    for hop in reversed(route):
        layer = TrrRouting(1, return_x, next_ip, next_port, packet)
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


def encrypt_ack(ack: TrrAck, return_pubkey: bytes, rng) -> bytes:
    """Single-layer encryption of an ack to the even-y point whose x is
    return_pubkey, a routing header's 32 bytes (MalformedCipher if no
    point has it); intermediate hops relay the result verbatim."""
    point = ec_crypto.point_from_bytes(b"\x02" + return_pubkey)
    return _encrypt_layer(encode_trr_ack(ack), point, rng)


def decrypt_ack(blob: bytes, return_keypair: ec_crypto.KeyPair) -> TrrAck:
    """The ack encrypt_ack made for return_keypair's x, whose even-y
    point is -P when P's y is odd; MalformedCipher if none decrypts."""
    private = return_keypair.private
    if return_keypair.public.y % 2:  # the ack was encrypted to -P
        private = ec_crypto.CURVE_ORDER - private
    try:
        stream = ec_crypto.deserialize_cipher(blob)
        return decode_trr_ack(ec_crypto.elgamal_decrypt(stream, private))
    except (LengthMismatch, WireError) as exc:
        raise MalformedCipher(f"ack did not decrypt: {exc}") from exc
