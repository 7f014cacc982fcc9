"""Node request handling, release pool semantics and the client loop."""

import contextlib
import dataclasses
import gc
import random
import socket
import threading
import time
import tracemalloc

import pytest

from trr import ec_crypto as ec
from trr import node_runtime as nr
from trr.errors import (
    BadMagic,
    DelayOutOfRange,
    GiveUp,
    InvalidConfig,
    MalformedCipher,
    NotTrr,
    PeerClosed,
    SizeMismatch,
    TrrTimeout,
)
from trr.onion_routing import (
    SEALED_ACK_LEN,
    NodeDescriptor,
    build_onion,
    decrypt_ack,
    encrypt_ack,
    peel_layer,
)
from trr.simulator import (
    BLOCK_INTERVAL_TICKS,
    NODE_IP_BASE,
    SimConfig,
    SimNode,
    SimWorld,
)
from trr.wire_protocol import (
    MAX_FRAME_PAYLOAD,
    TrrAck,
    frame_message,
    parse_ipv4,
)

CLIENT_ADDR = (parse_ipv4("192.168.0.1"), 9)
LOOPBACK = parse_ipv4("127.0.0.1")


@pytest.fixture
def world():
    return SimWorld(SimConfig(n_nodes=12, seed=101))


def make_onion(world, route_ids, tx, delay=1, seed=5, extra_hops=()):
    rng = random.Random(seed)
    hops = tuple(world.directory[i] for i in route_ids) + tuple(extra_hops)
    keys = [rng.randbytes(32) for _ in hops]
    return build_onion(tx, hops, delay, keys, now=0, rng=rng), keys


def open_ack(raw, keys):
    """The ack in raw, whichever hop of keys sealed it."""
    return decrypt_ack(raw, keys)[1]


class FakeConn:
    """Scripted inbound connection for serve_connection tests; like
    FrameSocket, it offers no way to read the peer's address."""

    def __init__(self, frames):
        self.inbox = list(frames)
        self.sent = []
        self.closed = False

    def recv_frame(self):
        if not self.inbox:
            raise TrrTimeout("idle past timeout")
        return self.inbox.pop(0)

    def send_frame(self, command, payload):
        self.sent.append((command, payload))

    def close(self):
        self.closed = True


class TestServeConnection:
    def test_handshake_then_request(self, world):
        onion, keys = make_onion(world, [0], b"tx bytes")
        conn = FakeConn([("vertrr", b""), ("trr", onion)])
        nr.serve_connection(world.nodes[0], conn)
        assert conn.closed
        assert [c for c, _ in conn.sent] == ["vertrr", "track"]
        ack = open_ack(conn.sent[1][1], keys)
        assert ack.errno == nr.ERR_OK

    def test_serves_connection_without_peer_address(self, world):
        assert not hasattr(FakeConn, "peer_addr")
        assert not hasattr(nr.FrameSocket, "peer_addr")
        onion, keys = make_onion(world, [0, 1], b"tx bytes")
        conn = FakeConn([("vertrr", b""), ("trr", onion)])
        nr.serve_connection(world.nodes[0], conn)
        ack = open_ack(conn.sent[1][1], keys)
        assert (ack.errno, ack.rpt_ip) == (nr.ERR_OK, world.directory[1].ip)

    def test_ack_time_is_node_block_height(self, world):
        node = world.nodes[0]
        node.on_new_block(7)
        onion, keys = make_onion(world, [0], b"tx bytes")
        conn = FakeConn([("vertrr", b""), ("trr", onion)])
        nr.serve_connection(node, conn)
        assert open_ack(conn.sent[1][1], keys).time == 7

    def test_first_frame_not_vertrr_refused(self, world):
        onion, _ = make_onion(world, [0], b"tx")
        conn = FakeConn([("trr", onion)])
        nr.serve_connection(world.nodes[0], conn)
        assert conn.sent == []  # refused: no reply at all
        assert conn.closed

    def test_idle_after_handshake_closes(self, world):
        conn = FakeConn([("vertrr", b"")])
        nr.serve_connection(world.nodes[0], conn)
        assert conn.sent == [("vertrr", b"")]
        assert conn.closed

    def test_unpeelable_packet_closes_without_ack(self, world):
        onion, _ = make_onion(world, [1], b"tx")  # encrypted to node 1
        conn = FakeConn([("vertrr", b""), ("trr", onion)])
        nr.serve_connection(world.nodes[0], conn)
        assert [c for c, _ in conn.sent] == ["vertrr"]
        assert world.nodes[0].events == {"peel_failed": 1}

    @pytest.mark.parametrize("via", ["peel_layer", "transport"])
    def test_zero_block_layer_refused(self, world, via):
        first = world.directory[0]
        minus_k_g = ec.CurvePoint(first.pubkey.x, ec.CURVE_P - first.pubkey.y)
        one_block = ec.point_to_bytes(ec.G) + (1).to_bytes(4, "little")
        packets = [
            # a well-formed 37-byte stream (c2 and a block count), no block
            ("no blocks", ec.point_to_bytes(ec.G) + (0).to_bytes(4, "little")),
            # c2 = G and one block equal to the node's public key kG or to
            # -kG, the mask decryption adds: no chord adds the block to the
            # mask, and any sender can build both from the directory alone
            ("the mask or its negative",
             one_block + ec.point_to_bytes(first.pubkey)),
            ("the mask or its negative",
             one_block + ec.point_to_bytes(minus_k_g)),
        ]
        for reason, packet in packets:
            if via == "peel_layer":
                with pytest.raises(MalformedCipher, match=reason):
                    peel_layer(packet, world.nodes[0].keypair.private)
            else:
                with pytest.raises(PeerClosed):
                    world.transport.request(first.ip, first.port, packet)
        if via == "transport":
            assert world.nodes[0].events == {"peel_failed": 3}


class TestHandleRequest:
    def test_release_enqueues_and_acks(self, world):
        node = world.nodes[3]
        onion, keys = make_onion(world, [3], b"the tx", delay=4)
        before = len(node.pool)
        ack = open_ack(node.serve_request(onion, CLIENT_ADDR), keys)
        assert ack.errno == nr.ERR_OK
        assert ack.rpt_ip == node.descriptor.ip
        assert len(node.pool) == before + 1
        entry = node.pool[nr.txid(b"the tx")]
        assert entry.tx == b"the tx"
        assert entry.release_height == node.height + 4

    def test_forward_wraps_downstream_ack(self, world):
        onion, keys = make_onion(world, [0, 1], b"tx")
        releasing = world.nodes[1]
        replies = []
        serve = releasing.serve_request

        def recording(packet, src_addr=None):
            replies.append(serve(packet, src_addr))
            return replies[-1]

        releasing.serve_request = recording
        raw_ack = world.nodes[0].serve_request(onion, CLIENT_ADDR)
        hop, ack = decrypt_ack(raw_ack, keys)
        assert (hop, ack.errno) == (1, nr.ERR_OK)
        assert ack.rpt_ip == releasing.descriptor.ip  # releasing node speaks
        assert len(raw_ack) == len(replies[0]) and raw_ack != replies[0]
        assert releasing.pool

    def test_reply_of_wrong_length_blames_next_hop(self, world):
        # 103 bytes was an ElGamal ack; a sealed one is SEALED_ACK_LEN
        onion, keys = make_onion(world, [0, 1], b"tx")
        world.nodes[1].serve_request = lambda packet, src_addr=None: bytes(103)
        hop, ack = decrypt_ack(world.nodes[0].serve_request(onion, CLIENT_ADDR),
                               keys)
        assert (hop, ack.errno, ack.errmsg) == (0, nr.ERR_NOT_TRR, b"NotTrr")
        assert (ack.rpt_ip, ack.err_ip) == (world.directory[0].ip,
                                            world.directory[1].ip)

    def test_off_curve_ack_key_acked(self, world):
        # x = 0 is the first x with no secp256k1 point; an ack key is any
        # 32 bytes, so the node must still enqueue and seal its ack
        key = bytes(32)
        with pytest.raises(MalformedCipher, match="not on curve"):
            ec.point_from_bytes(b"\x02" + key)
        node = world.nodes[7]
        onion = build_onion(b"off-curve tx", (world.directory[7],), 1, [key],
                            0, random.Random(7))
        ack = open_ack(node.serve_request(onion, CLIENT_ADDR), [key])
        assert (ack.errno, ack.rpt_ip) == (nr.ERR_OK, world.directory[7].ip)
        assert node.events == {"received": 1, "enqueued": 1, "acked": 1}
        assert len(node.pool) == 1

    def test_unreachable_next_hop_error_ack(self, world):
        dead = NodeDescriptor(node_id="dead", ip=parse_ipv4("10.9.9.9"),
                              port=8333, pubkey=ec.keygen(random.Random(1)).public)
        onion, keys = make_onion(world, [2], b"tx", extra_hops=(dead,))
        ack = open_ack(world.nodes[2].serve_request(onion, CLIENT_ADDR),
                          keys)
        assert ack.errno == nr.ERR_UNREACHABLE
        assert ack.err_ip == dead.ip
        assert ack.rpt_ip == world.nodes[2].descriptor.ip

    def test_pool_capacity_boundary(self, world):
        assert nr.POOL_CAPACITY == 1000
        node = world.nodes[4]
        fillers = [i.to_bytes(2, "big") for i in range(nr.POOL_CAPACITY)]
        node.pool = {nr.txid(tx): nr.PendingRelease(tx, nr.txid(tx), 99)
                     for tx in fillers}  # the 1001st distinct tx must bounce
        onion, keys = make_onion(world, [4], b"tx")
        ack = open_ack(node.serve_request(onion, CLIENT_ADDR), keys)
        assert ack.errno == nr.ERR_POOL_FULL
        assert len(node.pool) == nr.POOL_CAPACITY
        # a tx already pending is no new entry, so a full pool still takes it
        onion, keys = make_onion(world, [4], fillers[7], delay=2)
        ack = open_ack(node.serve_request(onion, CLIENT_ADDR), keys)
        assert ack.errno == nr.ERR_OK
        assert len(node.pool) == nr.POOL_CAPACITY
        assert node.pool[nr.txid(fillers[7])].release_height == node.height + 2

    def test_second_enqueue_keeps_one_entry(self, world):
        node = world.nodes[11]
        for delay, kept in [(4, 4), (2, 2), (5, 2)]:  # the earlier height wins
            onion, keys = make_onion(world, [11], b"one tx", delay=delay)
            ack = open_ack(node.serve_request(onion, CLIENT_ADDR),
                              keys)
            assert ack.errno == nr.ERR_OK
            assert [p.release_height for p in node.pool.values()] == [kept]
        assert node.events["enqueued"] == 1
        assert node.events["already_pending"] == 2

    def test_replayed_first_hop_packet_fills_no_pool(self, world, monkeypatch):
        monkeypatch.setattr(nr, "POOL_CAPACITY", 3)
        onion, keys = make_onion(world, [0, 1, 2], b"replayed tx")
        first = world.directory[0]
        acks = [open_ack(world.transport.request(first.ip, first.port,
                                                    onion, CLIENT_ADDR),
                            keys)
                for _ in range(5)]  # one capture, replayed
        assert [ack.errno for ack in acks] == [nr.ERR_OK] * 5
        releasing = world.nodes[2]
        assert list(releasing.pool) == [nr.txid(b"replayed tx")]
        assert releasing.events["already_pending"] == 4

    def test_ack_time_is_block_height_in_process(self, world):
        for _ in range(4):
            world.clock.advance_block()
        onion, keys = make_onion(world, [3, 5], b"timed tx")
        first = world.directory[3]
        ack = open_ack(world.transport.request(first.ip, first.port, onion),
                          keys)
        assert ack.rpt_ip == world.directory[5].ip
        assert ack.time == world.nodes[5].height == 4
        assert world.clock.tick > 400  # the tick is no ack's time

    def test_invalid_tx_rejected(self, world):
        node = world.nodes[5]
        node.view.verify = lambda tx: False
        onion, keys = make_onion(world, [5], b"tx")
        ack = open_ack(node.serve_request(onion, CLIENT_ADDR), keys)
        assert ack.errno == nr.ERR_INVALID_TX
        assert not node.pool


class TestOnNewBlock:
    @pytest.mark.parametrize("delay", [1, 2, 3, 4, 5])
    def test_broadcast_at_exact_height(self, world, delay):
        node = world.nodes[6]
        onion, _ = make_onion(world, [6], bytes([delay]) * 10, delay=delay)
        node.serve_request(onion, CLIENT_ADDR)
        start = node.height
        for h in range(start + 1, start + delay):
            assert node.on_new_block(h) == []
            assert node.pool
        released = node.on_new_block(start + delay)
        assert released == [bytes([delay]) * 10]
        assert not node.pool

    def test_delay_five_after_four_blocks_still_pending(self, world):
        node = world.nodes[7]
        onion, _ = make_onion(world, [7], b"patient tx", delay=5)
        node.serve_request(onion, CLIENT_ADDR)
        for h in range(1, 5):
            node.on_new_block(node.height + 1)
        assert node.pool

    def test_duplicate_release_broadcasts_once(self, world):
        tx = b"duplicated tx"
        n_a, n_b = world.nodes[8], world.nodes[9]
        onion_a, _ = make_onion(world, [8], tx, delay=1)
        onion_b, _ = make_onion(world, [9], tx, delay=2)
        n_a.serve_request(onion_a, CLIENT_ADDR)
        n_b.serve_request(onion_b, CLIENT_ADDR)
        assert n_a.on_new_block(1) == [tx]
        assert n_b.on_new_block(1) == []
        assert n_b.on_new_block(2) == []  # duplicate dropped silently
        announcements = [e for e in world.broadcast.log if e[2] == nr.txid(tx)]
        assert len(announcements) == 1
        assert n_b.events["release_skipped_duplicate"] == 1

    def test_release_that_no_longer_verifies_is_skipped(self, world):
        node = world.nodes[10]
        onion, _ = make_onion(world, [10], b"stale tx", delay=1)
        node.serve_request(onion, CLIENT_ADDR)
        node.view.verify = lambda tx: False  # e.g. its inputs got spent
        assert node.on_new_block(node.height + 1) == []
        assert world.broadcast.log == []
        assert node.pool == {}
        assert node.events["release_skipped_invalid"] == 1

    def test_height_must_increase(self, world):
        node = world.nodes[0]
        node.on_new_block(5)
        with pytest.raises(ValueError):
            node.on_new_block(5)
        with pytest.raises(ValueError):
            node.on_new_block(4)


class MemoryView:
    """Broadcast view that remembers nothing: every tx is new and valid."""

    def __init__(self):
        self.broadcasts = 0

    def seen_in_blockchain_or_mempool(self, txid):
        return False

    def broadcast(self, tx):
        self.broadcasts += 1

    def verify(self, tx):
        return True


class TestNodeMemory:
    def test_serving_releases_holds_no_per_request_memory(self):
        rng = random.Random(17)
        keypair = ec.keygen(rng)
        me = NodeDescriptor(node_id="n0", ip=LOOPBACK, port=8333,
                            pubkey=keypair.public)
        onions = [build_onion(rng.randbytes(200), (me,), 1,
                              [rng.randbytes(32)], now=0, rng=rng)
                  for _ in range(200)]
        view = MemoryView()
        node = nr.TrrNode(keypair, me, None, view, random.Random(3))

        def serve(first, last):
            for i in range(first, last + 1):
                node.serve_request(onions[i - 1], CLIENT_ADDR)
                node.on_new_block(i)

        serve(1, 50)
        gc.collect()
        # only blocks allocated from here on are traced, so what is
        # still held at request 200 is at least the growth since 50
        tracemalloc.start()
        try:
            serve(51, 200)
            gc.collect()
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grown < 4096
        assert view.broadcasts == 200 and not node.pool
        assert node.events["released"] == 200


class TestSendPolicy:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            nr.SendPolicy(hops=0)
        with pytest.raises(ValueError):
            nr.SendPolicy(hops=11)
        with pytest.raises(ValueError):
            nr.SendPolicy(num_routes=0)

    @pytest.mark.parametrize("delays",
                             [(1, 9), (), (0,), (-1,), (300,), (1, 2.5)])
    def test_bad_delays(self, delays):
        # (1, 9) and (1, 2.5) once sent the first route and then raised
        # at the second
        with pytest.raises(DelayOutOfRange):
            nr.SendPolicy(num_routes=2, hops=2, delays=delays)

    @pytest.mark.parametrize("retry_rounds", [0, -1])
    def test_bad_retry_rounds(self, retry_rounds):
        # zero rounds once gave up without sending anything
        with pytest.raises(ValueError):
            nr.SendPolicy(retry_rounds=retry_rounds)

    @pytest.mark.parametrize("field", ["num_routes", "hops", "retry_rounds"])
    def test_non_integer_refused(self, field):
        # 2.5 once built, and a send then raised a bare TypeError
        with pytest.raises(InvalidConfig) as info:
            nr.SendPolicy(**{field: 2.5})
        assert isinstance(info.value, ValueError)

    def test_replace_checks_and_fields_are_frozen(self):
        policy = nr.SendPolicy()
        with pytest.raises(DelayOutOfRange):
            dataclasses.replace(policy, delays=(1, 9))
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.delays = (9,)


class TestClientSend:
    def test_all_honest_first_round(self, world):
        report = world.send(b"fresh tx", nr.SendPolicy(num_routes=3, hops=3))
        assert report.success
        assert report.total_rounds == 1
        assert any(a.ok for a in report.rounds[0].attempts)

    def test_oversized_tx_rejected_before_io(self, world):
        calls = []
        orig = world.transport.request

        def recording(ip, port, packet, src_addr=None):
            calls.append(ip)
            return orig(ip, port, packet, src_addr=src_addr)

        world.transport.request = recording
        with pytest.raises(SizeMismatch):
            world.send(bytes(10241), nr.SendPolicy())
        assert calls == []

    def test_empty_tx_rejected_before_routes(self, world):
        class NoTransport:
            def request(self, *args, **kwargs):
                raise AssertionError("an empty tx reached the transport")

        rng = random.Random(4)
        state = rng.getstate()
        with pytest.raises(SizeMismatch):
            nr.client_send(b"", list(world.directory), nr.SendPolicy(), rng,
                           transport=NoTransport(),
                           view=world.nodes[0].view, clock=world.clock)
        assert rng.getstate() == state  # no route was drawn

    @staticmethod
    def recorded_send(world, policy):
        """Send through world with its transport recorded: one (ip,
        packet, reply) per link, innermost link first."""
        links = []
        orig = world.transport.request

        def recording(ip, port, packet, src_addr=None):
            reply = orig(ip, port, packet, src_addr=src_addr)
            links.append((ip, packet, reply))
            return reply

        world.transport.request = recording
        report = world.send(b"keyed tx", policy)
        assert report.total_rounds == 1
        return links

    def test_each_layer_has_its_own_ack_key(self, world):
        # no key joins two layers of one route, or two routes (item 3,
        # Defect A)
        policy = nr.SendPolicy(num_routes=3, hops=3)
        links = self.recorded_send(world, policy)
        keys = [peel_layer(packet, world.nodes[ip - NODE_IP_BASE]
                           .keypair.private)[0].ack_key
                for ip, packet, _ in links]
        assert len(keys) == len(set(keys)) == 9

    def test_ack_bytes_differ_on_every_link(self, world):
        # each hop adds its own pad, so no two links of a route carry the
        # same ack bytes (item 3, Defect B)
        links = self.recorded_send(world, nr.SendPolicy(num_routes=1, hops=3))
        replies = [reply for _, _, reply in links]
        assert [len(reply) for reply in replies] == [SEALED_ACK_LEN] * 3
        assert len(set(replies)) == 3

    @staticmethod
    def forged_send(world, monkeypatch, rpt_hop, err_hop):
        """Send once over the route of nodes 4, 8 and 2, whose first hop
        drops the packet and seals, under its own key, an ERR_TIMEOUT ack
        naming hop rpt_hop as reporter and hop err_hop as the one to
        blame (both 0-based); returns the attempt."""
        route = tuple(world.directory[i] for i in (4, 8, 2))
        monkeypatch.setattr(nr, "select_routes",
                            lambda directory, n, hops, rng: [route] * n)

        class Forger(SimNode):
            def _handle_forward(self, routing):
                ack = TrrAck(1, self.height, rpt_ip=route[rpt_hop].ip,
                             err_ip=route[err_hop].ip, errno=nr.ERR_TIMEOUT,
                             errmsg=b"TrrTimeout")
                return encrypt_ack(ack, routing.ack_key)

        honest = world.nodes[4]
        world._nodes[4] = Forger(
            honest.keypair, honest.descriptor, world.transport, honest.view,
            None, behavior=honest.behavior, world=world)
        with pytest.raises(GiveUp) as exc_info:
            world.send(b"forged tx", nr.SendPolicy(num_routes=1, hops=3,
                                                   retry_rounds=1))
        (attempt,) = exc_info.value.report.rounds[0].attempts
        return attempt

    def test_forged_reporter_refused(self, world, monkeypatch):
        # an ack in hop 3's name that blames hop 2; only the first hop's
        # own key verifies it
        attempt = self.forged_send(world, monkeypatch, rpt_hop=2, err_hop=1)
        assert attempt.ack is None
        assert attempt.error.startswith("forged ack: hop 1 sealed")
        assert not world.nodes[8].events  # hop 2 received nothing

    def test_blame_of_a_non_neighbour_refused(self, world, monkeypatch):
        # an ack in the first hop's own name that blames hop 3, which it
        # is not next to (item 11: reporter and accused are adjacent)
        attempt = self.forged_send(world, monkeypatch, rpt_hop=0, err_hop=2)
        assert attempt.ack is None
        assert attempt.error.startswith("forged ack: hop 1 blamed")
        assert not world.nodes[2].events  # hop 3 received nothing

    def test_blame_of_the_successor_kept(self, world, monkeypatch):
        # the same ack blaming hop 2 is what a hop whose forward timed out
        # sends, and the client keeps it
        attempt = self.forged_send(world, monkeypatch, rpt_hop=0, err_hop=1)
        assert attempt.error is None
        assert attempt.ack.err_ip == world.directory[8].ip

    def test_send_makes_27_scalar_multiplications(self, monkeypatch):
        # a 3 x 3 send: 2 per layer built and 1 per layer peeled; acks
        # make none
        world = SimWorld(SimConfig(n_nodes=12, seed=101))
        for node in world.nodes:
            assert node.behavior == "honest"
        calls = []
        scalar_mul = ec.scalar_mul
        monkeypatch.setattr(ec, "scalar_mul",
                            lambda k, pt: calls.append(k) or scalar_mul(k, pt))
        report = world.send(b"counted tx", nr.SendPolicy(num_routes=3, hops=3))
        assert report.total_rounds == 1
        assert all(a.ok for a in report.rounds[0].attempts)
        assert len(calls) == 27

    def test_retry_round_on_transient_failure(self, world):
        orig = world.transport.request
        failures = [3]  # fail the whole first round (3 routes)

        def flaky(ip, port, packet, src_addr=None):
            if failures[0] > 0:
                failures[0] -= 1
                raise PeerClosed("injected failure")
            return orig(ip, port, packet, src_addr=src_addr)

        world.transport.request = flaky
        report = world.send(b"retry tx", nr.SendPolicy(num_routes=3, hops=2))
        assert report.success
        assert report.total_rounds == 2
        assert all(a.error for a in report.rounds[0].attempts)

    def test_give_up_when_network_hostile(self):
        hostile = SimWorld(SimConfig(n_nodes=8, dishonest_rate=1.0, seed=77))
        with pytest.raises(GiveUp) as exc_info:
            hostile.send(b"doomed", nr.SendPolicy(num_routes=2, hops=2,
                                                  retry_rounds=3))
        report = exc_info.value.report
        assert not report.success
        assert report.total_rounds == 3

    def test_releasing_hop_reads_dispatch_height_not_clock(self, world,
                                                           monkeypatch):
        released = []
        monkeypatch.setattr(SimNode, "_observe_request",
                            lambda node, src_addr, routing, data:
                            released.append(data) if data is not None else None)
        for _ in range(3):
            world.clock.advance_block()
        report = world.send(b"timed tx", nr.SendPolicy(num_routes=2, hops=2))
        dispatch = report.rounds[0].dispatch_height
        assert dispatch == 3 and world.clock.tick > 300
        assert [d.time for d in released] == [dispatch, dispatch]

    def test_release_never_before_first_block(self, world):
        world.send(b"slow tx", nr.SendPolicy(num_routes=3, hops=2,
                                             delays=(1, 3, 5)))
        assert world.broadcast.log
        assert all(tick >= BLOCK_INTERVAL_TICKS
                   for tick, _, _ in world.broadcast.log)

    def test_no_amplification_and_no_plaintext_exposure(self, world,
                                                        monkeypatch):
        tx = b"\xabsecret transaction payload\xcd" * 4
        packets, sources = [], []
        orig = world.transport.request

        def recording(ip, port, packet, src_addr=None):
            packets.append((ip, port, bytes(packet)))
            return orig(ip, port, packet, src_addr=src_addr)

        world.transport.request = recording
        # the source a node is handed when it receives the request
        monkeypatch.setattr(SimNode, "_observe_request",
                            lambda node, src_addr, routing, data:
                            sources.append(src_addr))
        policy = nr.SendPolicy(num_routes=2, hops=3, delays=(1, 1))
        report = world.send(tx, policy)
        assert report.success
        # exactly hops messages per route, none carrying the plaintext
        assert len(packets) == policy.num_routes * policy.hops
        assert all(tx not in pkt for _, _, pkt in packets)
        # packets arrive route by route and hop by hop: only a first hop
        # hears the client, the releasing hop hears the middle hop
        for r, attempt in enumerate(report.rounds[0].attempts):
            hops = [(world.directory[i].ip, world.directory[i].port)
                    for i in attempt.hop_ids]
            route = slice(r * policy.hops, (r + 1) * policy.hops)
            assert [(ip, port) for ip, port, _ in packets[route]] == hops
            assert sources[route] == [world.client_addr] + hops[:-1]


class TestFrameSocket:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        left, right = nr.FrameSocket(a, 2.0), nr.FrameSocket(b, 2.0)
        left.send_frame("vertrr", b"")
        assert right.recv_frame() == ("vertrr", b"")
        right.send_frame("track", b"\x01\x02")
        assert left.recv_frame() == ("track", b"\x01\x02")
        left.close(), right.close()

    def test_timeout(self):
        a, b = socket.socketpair()
        left = nr.FrameSocket(a, 0.1)
        with pytest.raises(TrrTimeout):
            left.recv_frame()
        left.close(), b.close()

    def test_peer_closed(self):
        a, b = socket.socketpair()
        left = nr.FrameSocket(a, 1.0)
        b.close()
        with pytest.raises(PeerClosed):
            left.recv_frame()
        left.close()

    def test_send_to_closed_peer(self):
        # the OSError of a send to a closed peer reaches callers as PeerClosed
        a, b = socket.socketpair()
        left = nr.FrameSocket(a, 1.0)
        b.close()
        with pytest.raises(PeerClosed, match="send failed"):
            left.send_frame("trr", b"payload")
        left.close()

    @pytest.mark.parametrize("replies, error", [
        (["track"], NotTrr),  # no vertrr handshake
        (["vertrr", "vertrr"], PeerClosed),  # no track after the request
    ])
    def test_wrong_reply_command_refused(self, replies, error):
        a, b = socket.socketpair()
        client, peer = nr.FrameSocket(a, 2.0), nr.FrameSocket(b, 2.0)
        for command in replies:  # queued ahead in the socket buffer
            peer.send_frame(command, b"")
        with pytest.raises(error):
            nr.request_over_connection(client, b"packet")
        client.close(), peer.close()

    def test_second_frame_not_trr_closes_without_reply(self, world):
        node = world.nodes[0]
        a, b = socket.socketpair()
        client = nr.FrameSocket(a, 2.0)
        client.send_frame("vertrr", b"")
        client.send_frame("track", b"not a request")
        nr.serve_connection(node, nr.FrameSocket(b, 2.0))
        assert client.recv_frame() == ("vertrr", b"")
        with pytest.raises(PeerClosed):
            client.recv_frame()
        assert not node.pool and not node.events
        client.close()

    def test_bad_header_rejected_before_payload(self):
        # a 24-byte header with bad magic that declares a full 1 MiB payload
        a, b = socket.socketpair()
        left = nr.FrameSocket(a, 2.0)
        header = bytearray(frame_message("trr", b""))
        header[:4] = b"XRR1"
        header[16:20] = MAX_FRAME_PAYLOAD.to_bytes(4, "little")
        b.sendall(header)
        start = time.monotonic()
        with pytest.raises(NotTrr) as exc_info:
            left.recv_frame()
        assert time.monotonic() - start < 1.0
        assert isinstance(exc_info.value.__cause__, BadMagic)
        left.close(), b.close()

    def test_request_over_tcp_server(self, world):
        node = world.nodes[0]
        with node_server(node) as (port, server):
            onion, keys = make_onion(world, [0], b"tcp tx")
            raw = nr.TcpTransport(timeout=2.0).request(LOOPBACK, port, onion)
            ack = open_ack(raw, keys)
            assert ack.errno == nr.ERR_OK
            assert [p.tx for p in node.pool.values()] == [b"tcp tx"]
            assert server.is_alive()  # this server answered, not another one

    def test_on_listening_runs_once_bound(self, world):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        stop, reached = threading.Event(), []

        def on_listening():  # the port takes a connection by now
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            reached.append(port)
            stop.set()

        server = threading.Thread(
            target=nr.run_node_server, args=(world.nodes[0], "127.0.0.1", port),
            kwargs={"stop_event": stop, "on_listening": on_listening},
            daemon=True)
        server.start()
        server.join(timeout=5)
        assert not server.is_alive()
        assert reached == [port]

    def test_malformed_reply_blames_next_hop(self):
        """A next hop that answers with a corrupted frame is reported in
        the relay's own ack, not blamed on the relay by a dropped
        connection."""
        rng = random.Random(23)
        next_ip = parse_ipv4("127.0.0.2")
        with socket.create_server(("127.0.0.2", 0)) as listener:
            replier = threading.Thread(target=reply_with_bad_checksum,
                                       args=(listener,), daemon=True)
            replier.start()
            kp = ec.keygen(rng)
            me = NodeDescriptor(0, LOOPBACK, 0, kp.public)
            successor = NodeDescriptor(1, next_ip, listener.getsockname()[1],
                                       ec.keygen(rng).public)
            node = nr.TrrNode(kp, me, nr.TcpTransport(timeout=2.0), None, rng)
            keys = [rng.randbytes(32) for _ in range(2)]
            onion = build_onion(b"tx", (me, successor), 1, keys, 0, rng)
            with node_server(node) as (port, _):
                raw = nr.TcpTransport(timeout=2.0).request(LOOPBACK, port, onion)
            replier.join(timeout=3)
        assert not replier.is_alive()
        ack = open_ack(raw, keys)
        assert ack.errno == nr.ERR_NOT_TRR
        assert (ack.rpt_ip, ack.err_ip) == (LOOPBACK, next_ip)
        assert ack.errmsg == b"NotTrr"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="every hop waits out the same timeout, so the "
                       "client's deadline expires first and a late ack would "
                       "blame the honest hop before the silent one; per-hop "
                       "deadline budgets (ROADMAP item 4, fix 1) mend it")
    def test_silent_hop_blamed_in_client_ack(self):
        """Two relays and a third hop that accepts and never answers,
        every timeout 1 s: the client's ack must name the silent hop."""
        rng = random.Random(29)
        keypairs = [ec.keygen(rng) for _ in range(3)]
        silent_ip = parse_ipv4("127.0.0.3")
        with contextlib.ExitStack() as stack:
            route = []
            for i, host in enumerate(("127.0.0.1", "127.0.0.2")):
                me = NodeDescriptor(i, parse_ipv4(host), 0, keypairs[i].public)
                node = nr.TrrNode(keypairs[i], me, nr.TcpTransport(1.0), None,
                                  rng)
                port, _ = stack.enter_context(
                    node_server(node, host=host, timeout=1.0))
                route.append(dataclasses.replace(me, port=port))
            silent = stack.enter_context(socket.create_server(("127.0.0.3", 0)))
            route.append(NodeDescriptor(2, silent_ip, silent.getsockname()[1],
                                        keypairs[2].public))
            keys = [rng.randbytes(32) for _ in route]
            onion = build_onion(b"tx", tuple(route), 1, keys, 0, rng)
            try:
                raw = nr.TcpTransport(1.0).request(route[0].ip, route[0].port,
                                                   onion)
                ack = open_ack(raw, keys)
            except TrrTimeout:
                ack = None  # no ack reached the client
        assert ack is not None, "the client got no ack"
        assert (ack.errno, ack.err_ip) == (nr.ERR_TIMEOUT, silent_ip)


@contextlib.contextmanager
def node_server(node, host="127.0.0.1", timeout=2.0):
    """Serve node with run_node_server on a free port of host; yields
    the port and the server thread once it accepts connections."""
    with socket.socket() as probe:
        probe.bind((host, 0))
        port = probe.getsockname()[1]
    stop = threading.Event()
    server = threading.Thread(
        target=nr.run_node_server, args=(node, host, port),
        kwargs={"timeout": timeout, "stop_event": stop}, daemon=True)
    server.start()
    try:
        for _ in range(50):
            try:
                socket.create_connection((host, port), timeout=1).close()
                break
            except OSError:
                time.sleep(0.05)
        yield port, server
    finally:
        stop.set()
        server.join(timeout=3)


def reply_with_bad_checksum(listener) -> None:
    """Play a next hop that completes the handshake, reads the request
    and answers with a track frame whose checksum is wrong."""
    sock, _ = listener.accept()
    conn = nr.FrameSocket(sock, 2.0)
    try:
        assert conn.recv_frame()[0] == "vertrr"
        conn.send_frame("vertrr", b"")
        assert conn.recv_frame()[0] == "trr"
        reply = bytearray(frame_message("track", bytes(103)))
        reply[20] ^= 0xFF  # first checksum byte
        sock.sendall(reply)
    finally:
        conn.close()
