"""Route selection statistics and onion build/peel round trips."""

import hashlib
import itertools
import random

import pytest

from trr import ec_crypto as ec
from trr.errors import InsufficientNodes, MalformedCipher, MalformedRouting
from trr.onion_routing import (
    SEALED_ACK_LEN,
    NodeDescriptor,
    build_onion,
    decrypt_ack,
    encrypt_ack,
    peel_layer,
    select_routes,
    wrap_ack,
)
from trr.wire_protocol import (
    TrrAck,
    TrrRouting,
    encode_trr_routing,
    parse_ipv4,
)

from test_ec_crypto import neg, point_add


@pytest.fixture(scope="module")
def keypool():
    rng = random.Random(7)
    return [ec.keygen(rng) for _ in range(10)]


@pytest.fixture(scope="module")
def directory(keypool):
    return [NodeDescriptor(node_id=i, ip=parse_ipv4(f"10.0.0.{i + 1}"),
                           port=8333, pubkey=kp.public)
            for i, kp in enumerate(keypool)]


def ack_keys(rng, hops: int) -> list[bytes]:
    """One ack key per hop, drawn as client_send draws them."""
    return [rng.randbytes(32) for _ in range(hops)]


def build_and_peel(tx, hops, keypool, directory, rng, delay=1):
    route = tuple(directory[:hops])
    keys = ack_keys(rng, hops)
    packet = build_onion(tx, route, delay, keys, now=0, rng=rng)
    for i in range(hops - 1):
        routing, data = peel_layer(packet, keypool[i].private)
        assert data is None
        assert routing.dst_ip == directory[i + 1].ip
        assert routing.port == directory[i + 1].port
        packet = routing.payload
    routing, final = peel_layer(packet, keypool[hops - 1].private)
    assert routing.is_release and final is not None
    return final, keys


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
        packet = build_onion(b"tx", route, 1, ack_keys(rng, 3), 0, rng)
        with pytest.raises(MalformedRouting):
            peel_layer(packet, keypool[5].private)

    def test_layer_isolation(self, keypool, directory):
        # hop i's key opens only layer i
        rng = random.Random(41)
        route = tuple(directory[:4])
        packet = build_onion(b"tx bytes", route, 1, ack_keys(rng, 4), 0, rng)
        for wrong in (1, 2, 3):
            with pytest.raises(MalformedRouting):
                peel_layer(packet, keypool[wrong].private)

    def test_release_with_bad_data_raises_malformed_routing(self, keypool):
        rng = random.Random(39)
        header = TrrRouting(  # a release whose payload is no trr_data
            version=1, ack_key=rng.randbytes(32),
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
                             ack_keys(rng, 3), 0, rng)
        routing, _ = peel_layer(packet, keypool[0].private)
        received_grams = {packet[i:i + 8] for i in range(len(packet) - 7)}
        forwarded = routing.payload
        shared = [forwarded[i:i + 8] for i in range(len(forwarded) - 7)
                  if forwarded[i:i + 8] in received_grams]
        assert not shared

    def test_onion_size_function_of_lengths_only(self, keypool, directory):
        rng = random.Random(47)
        route_a = tuple(directory[:5])
        route_b = tuple(directory[5:10])
        a = build_onion(b"\x00" * 256, route_a, 1, ack_keys(rng, 5), 0, rng)
        b = build_onion(rng.randbytes(256), route_b, 5, [bytes(32)] * 5, 999,
                        rng)
        assert len(a) == len(b)

    def test_delay_travels_inside(self, keypool, directory):
        rng = random.Random(53)
        for delay in (1, 5):
            final, _ = build_and_peel(b"x", 2, keypool, directory, rng, delay=delay)
            assert final.release_delay == delay

    def test_ack_key_present_at_every_hop(self, keypool, directory):
        # the paper's return-key field carries each hop's own ack key
        rng = random.Random(59)
        route = tuple(directory[:3])
        keys = ack_keys(rng, 3)
        packet = build_onion(b"tx", route, 1, keys, 0, rng)
        for i in range(3):
            routing, _ = peel_layer(packet, keypool[i].private)
            assert routing.ack_key == keys[i]
            packet = routing.payload

    def test_one_ack_key_per_hop(self, directory):
        rng = random.Random(61)
        for keys in ([bytes(32)] * 2, [bytes(32)] * 4):
            with pytest.raises(ValueError):
                build_onion(b"tx", tuple(directory[:3]), 1, keys, 0, rng)
        # no hop: the "onion" would be the plaintext trr_data
        with pytest.raises(ValueError, match="no hops"):
            build_onion(b"tx", (), 1, [], 0, rng)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="each layer adds its own blocks, so a hop reads "
                       "its distance to the release from the length of the "
                       "packet it receives (Defect C); a fixed-length header "
                       "as in Sphinx (Danezis & Goldberg, IEEE S&P 2009) "
                       "hides it (ROADMAP items 3 and 15)")
    def test_every_hop_sees_the_same_length(self, keypool, directory):
        rng = random.Random(103)
        packet = build_onion(rng.randbytes(250), tuple(directory[:3]), 1,
                             ack_keys(rng, 3), now=0, rng=rng)
        lengths = []
        for kp in keypool[:3]:
            lengths.append(len(packet))
            routing, _ = peel_layer(packet, kp.private)
            packet = routing.payload
        assert len(set(lengths)) == 1, f"hops saw {lengths} bytes"

    def test_seeded_onion_bytes_are_pinned(self):
        # pins scalar multiplication, chunk embedding and serialization
        # together: a faster curve path must give the same bytes, and a
        # change of cipher construction updates this digest on purpose.
        # Every hop's ack key is the x of the keypair that once served as
        # the route's return key, so the digest predates per-hop keys.
        rng = random.Random(0x601DE7)
        route = tuple(NodeDescriptor(node_id=i, ip=0x0A000001 + i, port=8333,
                                     pubkey=ec.keygen(rng).public)
                      for i in range(3))
        old_return_x = ec.keygen(rng).public.x.to_bytes(32, "big")
        packet = build_onion(rng.randbytes(250), route, 3, [old_return_x] * 3,
                             1000, rng)
        assert len(packet) == 631
        assert hashlib.sha256(packet).hexdigest() == (
            "ce067ce6b7527b53dc3e34614e48978ad6c4159c7cf47a37e97a57ac27793fa1")


def sealed_by(ack, keys, reporter: int) -> bytes:
    """The ack as the client receives it when hop reporter seals it and
    every hop before it wraps the reply in its pad."""
    blob = encrypt_ack(ack, keys[reporter])
    for key in reversed(keys[:reporter]):
        blob = wrap_ack(blob, key)
    return blob


class TestAckPath:
    def test_roundtrip(self):
        rng = random.Random(67)
        keys = ack_keys(rng, 3)
        ack = TrrAck(1, 12345, parse_ipv4("10.0.0.9"), 0, 0, b"")
        for reporter in range(3):
            assert decrypt_ack(sealed_by(ack, keys, reporter), keys) == \
                (reporter, ack)

    def test_success_ack_unreadable_without_ack_keys(self):
        # the ElGamal ack masked every block with one point, so its
        # all-zero errmsg handed over the mask for rpt_ip too; a sealed
        # ack's pad never repeats, so the zeros unmask nothing else, and
        # only the route's own keys open it
        rng = random.Random(73)
        ack = TrrAck(1, 12345, parse_ipv4("10.0.0.9"), 0, 0, b"")
        rpt_ip = ack.rpt_ip.to_bytes(4, "little")
        for _ in range(100):
            keys = ack_keys(rng, 3)
            blob = sealed_by(ack, keys, 2)
            zeros_pad = blob[15:45]  # errmsg bytes XOR their pad
            guesses = {bytes(a ^ b for a, b in zip(blob[5:9], zeros_pad[i:]))
                       for i in range(len(zeros_pad) - 3)}
            assert rpt_ip not in guesses
            with pytest.raises(MalformedCipher):
                decrypt_ack(blob, keys[:2] + ack_keys(rng, 1))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="every block of one layer is masked by the same "
                       "point rP, and once the tx is broadcast the hop before "
                       "the releasing hop knows a chunk of the release layer, "
                       "so it unmasks that layer's header and reads its ack "
                       "key without that hop's key (ROADMAP item 2)")
    def test_next_layer_unreadable_by_first_hop(self, keypool, directory):
        rng = random.Random(89)
        tx = rng.randbytes(200)
        keys = ack_keys(rng, 2)
        packet = build_onion(tx, tuple(directory[:2]), 1, keys, now=0, rng=rng)
        routing, _ = peel_layer(packet, keypool[0].private)  # its own layer only
        blocks = ec.deserialize_cipher(routing.payload).blocks
        # the release layer's stream: a 4-byte length, the 41-byte routing
        # header and the 15-byte trr_data header, so its third chunk holds
        # tx[2:33] alone
        mask = point_add(blocks[2], neg(ec.embed_chunk(tx[2:33])))
        first, second = (ec.chunk_from_point(point_add(b, neg(mask)))
                         for b in blocks[:2])
        assert first[5:] + second[:6] != keys[1]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="an ElGamal layer carries no integrity check, so "
                       "a hop can replace a block of the layer it forwards "
                       "with any curve point and the next hop still peels "
                       "it: the tagging attack of Danezis & Goldberg "
                       "(\"Sphinx\", IEEE S&P 2009) (ROADMAP item 2)")
    def test_tampered_layer_refused_by_next_hop(self, keypool, directory):
        rng = random.Random(97)
        tx = rng.randbytes(200)
        keys = ack_keys(rng, 2)
        packet = build_onion(tx, tuple(directory[:2]), 1, keys, now=0, rng=rng)
        routing, _ = peel_layer(packet, keypool[0].private)
        stream = ec.deserialize_cipher(routing.payload)
        # hop 1 swaps the last block, which holds the tail of the tx
        other = ec.scalar_mul(rng.randrange(1, ec.CURVE_ORDER), ec.G)
        tampered = ec.serialize_cipher(
            ec.CipherStream(stream.c2, stream.blocks[:-1] + (other,)))
        refused = False
        try:
            peel_layer(tampered, keypool[1].private)
        except (MalformedCipher, MalformedRouting):
            refused = True
        assert refused, "hop 2 peeled a layer that hop 1 changed"

    def test_success_ack_ciphertext_constant_length(self):
        # a 45-byte ack and a 16-byte tag, whoever reports
        rng = random.Random(73)
        keys = ack_keys(rng, 3)
        sizes = set()
        for t in range(10):
            ack = TrrAck(1, t, t, 0, 0, b"")
            sizes.add(len(sealed_by(ack, keys, t % 3)))
        assert sizes == {SEALED_ACK_LEN} == {61}

    def test_wrong_key_never_crashes(self):
        rng = random.Random(79)
        key, other = ack_keys(rng, 2)
        blob = encrypt_ack(TrrAck(1, 0, 0, 0, 0, b"ok"), key)
        with pytest.raises(MalformedCipher):
            decrypt_ack(blob, [other])
        with pytest.raises(MalformedCipher):
            decrypt_ack(blob, [])

    def test_truncated_blob(self):
        rng = random.Random(83)
        key = rng.randbytes(32)
        blob = encrypt_ack(TrrAck(1, 0, 0, 0, 0, b""), key)
        for cut in (blob[:50], blob[:-1], blob + b"\0"):
            with pytest.raises(MalformedCipher):
                decrypt_ack(cut, [key])
