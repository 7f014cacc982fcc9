"""Route selection statistics and onion build/peel round trips."""

import hashlib
import itertools
import random
import struct

import pytest

from trr import ec_crypto as ec
from trr.errors import InsufficientNodes, MalformedCipher, MalformedRouting
from trr.onion_routing import (
    NodeDescriptor,
    build_onion,
    decrypt_ack,
    encrypt_ack,
    peel_layer,
    select_routes,
)
from trr.wire_protocol import (
    TRR_ACK_LEN,
    TRR_ROUTING_HEADER_LEN,
    TrrAck,
    TrrRouting,
    decode_trr_ack,
    encode_trr_routing,
    parse_ipv4,
)


@pytest.fixture(scope="module")
def keypool():
    rng = random.Random(7)
    return [ec.keygen(rng) for _ in range(10)]


@pytest.fixture(scope="module")
def directory(keypool):
    return [NodeDescriptor(node_id=i, ip=parse_ipv4(f"10.0.0.{i + 1}"),
                           port=8333, pubkey=kp.public)
            for i, kp in enumerate(keypool)]


def x32(keypair) -> bytes:
    """A return key as a routing header carries it."""
    return keypair.public.x.to_bytes(32, "big")


def build_and_peel(tx, hops, keypool, directory, rng, delay=1):
    route = tuple(directory[:hops])
    ret = ec.keygen(rng)
    packet = build_onion(tx, route, delay, ret, now=0, rng=rng)
    for i in range(hops - 1):
        routing, data = peel_layer(packet, keypool[i].private)
        assert data is None
        assert routing.dst_ip == directory[i + 1].ip
        assert routing.port == directory[i + 1].port
        packet = routing.payload
    routing, final = peel_layer(packet, keypool[hops - 1].private)
    assert routing.is_release and final is not None
    return final, ret


class TestSelectRoutes:
    def test_uniform_over_permutations(self, directory):
        # 3 nodes, 3 hops: the 6 orderings should be equally likely
        rng = random.Random(11)
        small = directory[:3]
        counts = {perm: 0 for perm in itertools.permutations(range(3))}
        draws = 10_000
        for _ in range(draws):
            (route,) = select_routes(small, 1, 3, rng)
            counts[tuple(h.node_id for h in route)] += 1
        expected = draws / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 20.52  # chi-square 0.001 critical value, df=5

    def test_insufficient_nodes(self, directory):
        with pytest.raises(InsufficientNodes):
            select_routes(directory[:3], 1, 4, random.Random(0))

    def test_hops_distinct_within_route(self, directory):
        rng = random.Random(5)
        for _ in range(100):
            routes = select_routes(directory, 3, 5, rng)
            for route in routes:
                ids = [h.node_id for h in route]
                assert len(set(ids)) == len(ids)

    def test_independent_routes_collision_rate(self, directory):
        # with 3 nodes and 3 hops each route is one of 6 permutations,
        # so two independent routes collide with probability 1/6
        rng = random.Random(17)
        small = directory[:3]
        pairs = same = 0
        for _ in range(10_000):
            routes = select_routes(small, 3, 3, rng)
            ids = [tuple(h.node_id for h in r) for r in routes]
            for a, b in itertools.combinations(ids, 2):
                pairs += 1
                same += a == b
        assert abs(same / pairs - 1 / 6) < 0.01


class TestOnion:
    def test_single_hop_release(self, keypool, directory):
        rng = random.Random(23)
        final, _ = build_and_peel(b"small tx", 1, keypool, directory, rng, delay=2)
        assert final.tx == b"small tx"
        assert final.release_delay == 2

    def test_three_hop_chain(self, keypool, directory):
        # client -> A -> B -> C: A forwards to B, B to C, C releases
        rng = random.Random(29)
        tx = rng.randbytes(300)
        final, _ = build_and_peel(tx, 3, keypool, directory, rng)
        assert final.tx == tx

    def test_roundtrip_many_routes(self, keypool, directory):
        rng = random.Random(31)
        for _ in range(40):
            hops = rng.randint(1, 10)
            tx = rng.randbytes(rng.randint(1, 400))
            final, _ = build_and_peel(tx, hops, keypool, directory, rng)
            assert final.tx == tx

    @pytest.mark.slow
    def test_roundtrip_thousand_pairs(self, keypool, directory):
        # peel composition is exact for a thousand random (tx, route) pairs
        rng = random.Random(101)
        for _ in range(1000):
            hops = rng.randint(1, 10)
            tx = rng.randbytes(rng.randint(1, 120))
            final, _ = build_and_peel(tx, hops, keypool, directory, rng)
            assert final.tx == tx

    def test_wrong_key_raises_malformed_routing(self, keypool, directory):
        rng = random.Random(37)
        route = tuple(directory[:3])
        packet = build_onion(b"tx", route, 1, ec.keygen(rng), 0, rng)
        with pytest.raises(MalformedRouting):
            peel_layer(packet, keypool[5].private)

    def test_layer_isolation(self, keypool, directory):
        # hop i's key opens only layer i
        rng = random.Random(41)
        route = tuple(directory[:4])
        packet = build_onion(b"tx bytes", route, 1, ec.keygen(rng), 0, rng)
        for wrong in (1, 2, 3):
            with pytest.raises(MalformedRouting):
                peel_layer(packet, keypool[wrong].private)

    def test_release_with_bad_data_raises_malformed_routing(self, keypool):
        rng = random.Random(39)
        ret = ec.keygen(rng)
        header = TrrRouting(  # a release whose payload is no trr_data
            version=1, return_pubkey=x32(ret),
            dst_ip=0, port=0, payload=b"\x01\x02")
        packet = ec.serialize_cipher(ec.elgamal_encrypt(
            encode_trr_routing(header), keypool[0].public, rng))
        with pytest.raises(MalformedRouting, match="release payload"):
            peel_layer(packet, keypool[0].private)

    def test_garbage_packet_malformed_cipher(self):
        with pytest.raises(MalformedCipher):
            peel_layer(b"\x01\x02\x03", 12345)

    def test_forwarded_bytes_rerandomized(self, keypool, directory):
        # no >= 8-byte substring survives a hop: each layer is fresh
        # ciphertext, so a relay's output is unlinkable to its input
        rng = random.Random(43)
        route = tuple(directory[:3])
        packet = build_onion(rng.randbytes(200), route, 1,
                             ec.keygen(rng), 0, rng)
        routing, _ = peel_layer(packet, keypool[0].private)
        received_grams = {packet[i:i + 8] for i in range(len(packet) - 7)}
        forwarded = routing.payload
        shared = [forwarded[i:i + 8] for i in range(len(forwarded) - 7)
                  if forwarded[i:i + 8] in received_grams]
        assert not shared

    def test_onion_size_function_of_lengths_only(self, keypool, directory):
        rng = random.Random(47)
        ret = ec.keygen(rng)
        route_a = tuple(directory[:5])
        route_b = tuple(directory[5:10])
        a = build_onion(b"\x00" * 256, route_a, 1, ret, 0, rng)
        b = build_onion(rng.randbytes(256), route_b, 5, ret, 999, rng)
        assert len(a) == len(b)

    def test_delay_travels_inside(self, keypool, directory):
        rng = random.Random(53)
        for delay in (1, 5):
            final, _ = build_and_peel(b"x", 2, keypool, directory, rng, delay=delay)
            assert final.release_delay == delay

    def test_return_pubkey_present_at_every_hop(self, keypool, directory):
        rng = random.Random(59)
        route = tuple(directory[:3])
        ret = ec.keygen(rng)
        expected = x32(ret)
        packet = build_onion(b"tx", route, 1, ret, 0, rng)
        for i in range(3):
            routing, _ = peel_layer(packet, keypool[i].private)
            assert routing.return_pubkey == expected
            packet = routing.payload

    def test_odd_return_key_acked(self, keypool, directory):
        # a hop encrypts to the even-y point with the header's x, which
        # is -P for an odd-y P; decrypt_ack still opens the ack
        rng = random.Random(1)
        ret = ec.keygen(rng)
        assert ret.public.y % 2 == 1  # seed 1 draws an odd key first
        packet = build_onion(b"tx", tuple(directory[:2]), 1, ret, 0, rng)
        routing, _ = peel_layer(packet, keypool[0].private)
        routing, _ = peel_layer(routing.payload, keypool[1].private)
        ack = TrrAck(1, 0, directory[1].ip, 0, 0, b"")  # errno 0: success
        blob = encrypt_ack(ack, routing.return_pubkey, rng)
        assert decrypt_ack(blob, ret) == ack

    def test_seeded_onion_bytes_are_pinned(self):
        # pins scalar multiplication, chunk embedding and serialization
        # together: a faster curve path must give the same bytes, and a
        # change of cipher construction updates this digest on purpose
        rng = random.Random(0x601DE7)
        route = tuple(NodeDescriptor(node_id=i, ip=0x0A000001 + i, port=8333,
                                     pubkey=ec.keygen(rng).public)
                      for i in range(3))
        ret = ec.keygen(rng)
        packet = build_onion(rng.randbytes(250), route, 3, ret, 1000, rng)
        assert len(packet) == 631
        assert hashlib.sha256(packet).hexdigest() == (
            "ce067ce6b7527b53dc3e34614e48978ad6c4159c7cf47a37e97a57ac27793fa1")


class TestAckPath:
    def test_roundtrip(self):
        rng = random.Random(67)
        ret = ec.keygen(rng)
        ack = TrrAck(1, 12345, parse_ipv4("10.0.0.9"), 0, 0, b"")
        blob = encrypt_ack(ack, x32(ret), rng)
        assert decrypt_ack(blob, ret) == ack

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="every block of one cipher is masked by the same "
                       "point rP, and a success ack's second chunk is all "
                       "zeros, so the mask and then rpt_ip fall out without "
                       "the return key (ROADMAP item 2)")
    def test_success_ack_unreadable_without_return_key(self):
        rng = random.Random(73)
        ret = ec.keygen(rng)
        ack = TrrAck(1, 12345, parse_ipv4("10.0.0.9"), 0, 0, b"")
        blocks = ec.deserialize_cipher(encrypt_ack(ack, x32(ret), rng)).blocks
        assert len(blocks) == 2
        mask = ec.point_add(blocks[1], ec.point_neg(ec.embed_chunk(b"\0" * 31)))
        first = ec.chunk_from_point(ec.point_add(blocks[0], ec.point_neg(mask)))
        # first chunk: 4-byte length prefix, then the ack's first 27 bytes
        guess = decode_trr_ack((first + bytes(31))[4:4 + TRR_ACK_LEN])
        assert guess.rpt_ip != ack.rpt_ip

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="every block of one layer is masked by the same "
                       "point rP, and a first hop knows the next layer's first "
                       "chunk, so it unmasks the next routing header without "
                       "that hop's key (ROADMAP item 2)")
    def test_next_layer_unreadable_by_first_hop(self, keypool, directory):
        rng = random.Random(89)
        ret = ec.keygen(rng)
        packet = build_onion(b"tx bytes", tuple(directory[:3]), 1, ret,
                             now=0, rng=rng)
        routing, _ = peel_layer(packet, keypool[0].private)  # its own layer only
        blocks = ec.deserialize_cipher(routing.payload).blocks
        key = routing.return_pubkey
        # the next layer opens with its 4-byte length, version 1 and the
        # return key; the block count leaves 31 candidate lengths
        read = []
        for length in range(31 * len(blocks) - 34, 31 * len(blocks) - 3):
            first = length.to_bytes(4, "little") + b"\x01" + key[:26]
            mask = ec.point_add(blocks[0], ec.point_neg(ec.embed_chunk(first)))
            second = ec.chunk_from_point(
                ec.point_add(blocks[1], ec.point_neg(mask)))
            if second[:6] == key[26:]:  # the rest of the return key
                dst_ip, port, size = struct.unpack_from("<IHH", second, 6)
                read.append((dst_ip, port,
                             TRR_ROUTING_HEADER_LEN + size == length))
        assert (directory[2].ip, directory[2].port, True) not in read

    def test_success_ack_ciphertext_constant_length(self):
        # 45-byte acks: 4-byte prefix + 45 = 49 -> 2 chunks -> 70 + 33
        rng = random.Random(73)
        ret = ec.keygen(rng)
        sizes = set()
        for t in range(10):
            ack = TrrAck(1, t, t, 0, 0, b"")
            sizes.add(len(encrypt_ack(ack, x32(ret), rng)))
        assert sizes == {33 + 4 + 2 * 33}

    def test_wrong_key_never_crashes(self):
        rng = random.Random(79)
        ret, other = ec.keygen(rng), ec.keygen(rng)
        blob = encrypt_ack(TrrAck(1, 0, 0, 0, 0, b"ok"), x32(ret), rng)
        with pytest.raises(MalformedCipher):
            decrypt_ack(blob, other)

    def test_truncated_blob(self):
        rng = random.Random(83)
        ret = ec.keygen(rng)
        blob = encrypt_ack(TrrAck(1, 0, 0, 0, 0, b""), x32(ret), rng)
        with pytest.raises(MalformedCipher):
            decrypt_ack(blob[:50], ret)
