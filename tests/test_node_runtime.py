"""Node request handling, release pool semantics and the client loop."""

import contextlib
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
    GiveUp,
    NotTrr,
    PeerClosed,
    SizeMismatch,
    TrrTimeout,
)
from trr.onion_routing import NodeDescriptor, Release, build_onion, decrypt_ack
from trr.simulator import BLOCK_INTERVAL_TICKS, SimConfig, SimNode, SimWorld
from trr.wire_protocol import MAX_FRAME_PAYLOAD, frame_message, parse_ipv4

CLIENT_ADDR = (parse_ipv4("192.168.0.1"), 9)
LOOPBACK = parse_ipv4("127.0.0.1")


@pytest.fixture
def world():
    return SimWorld(SimConfig(n_nodes=12, seed=101))


def make_onion(world, route_ids, tx, delay=1, seed=5, extra_hops=()):
    rng = random.Random(seed)
    hops = tuple(world.directory[i] for i in route_ids) + tuple(extra_hops)
    ret = ec.keygen_even(rng)
    return build_onion(tx, hops, delay, ret, now=0, rng=rng), ret


class FakeConn:
    """Scripted inbound connection for serve_connection tests."""

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

    def peer_addr(self):
        return CLIENT_ADDR

    def close(self):
        self.closed = True


class TestServeConnection:
    def test_handshake_then_request(self, world):
        onion, ret = make_onion(world, [0], b"tx bytes")
        conn = FakeConn([("vertrr", b""), ("trr", onion)])
        nr.serve_connection(world.nodes[0], conn)
        assert conn.closed
        assert [c for c, _ in conn.sent] == ["vertrr", "track"]
        ack = decrypt_ack(conn.sent[1][1], ret.private)
        assert ack.errno == nr.ERR_OK

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


class TestHandleRequest:
    def test_release_enqueues_and_acks(self, world):
        node = world.nodes[3]
        onion, ret = make_onion(world, [3], b"the tx", delay=4)
        before = len(node.pool)
        ack = decrypt_ack(node.serve_request(onion, CLIENT_ADDR), ret.private)
        assert ack.errno == nr.ERR_OK
        assert ack.rpt_ip == node.descriptor.ip
        assert len(node.pool) == before + 1
        entry = node.pool[nr.txid(b"the tx")]
        assert entry.tx == b"the tx"
        assert entry.release_height == node.height + 4

    def test_forward_relays_ack_verbatim(self, world):
        onion, ret = make_onion(world, [0, 1], b"tx")
        raw_ack = world.nodes[0].serve_request(onion, CLIENT_ADDR)
        ack = decrypt_ack(raw_ack, ret.private)
        assert ack.errno == nr.ERR_OK
        assert ack.rpt_ip == world.nodes[1].descriptor.ip  # releasing node speaks
        assert world.nodes[1].pool

    def test_unreachable_next_hop_error_ack(self, world):
        dead = NodeDescriptor(node_id="dead", ip=parse_ipv4("10.9.9.9"),
                              port=8333, pubkey=ec.keygen(random.Random(1)).public)
        onion, ret = make_onion(world, [2], b"tx", extra_hops=(dead,))
        ack = decrypt_ack(world.nodes[2].serve_request(onion, CLIENT_ADDR),
                          ret.private)
        assert ack.errno == nr.ERR_UNREACHABLE
        assert ack.err_ip == dead.ip
        assert ack.rpt_ip == world.nodes[2].descriptor.ip

    def test_pool_capacity_boundary(self, world):
        assert nr.POOL_CAPACITY == 1000
        node = world.nodes[4]
        fillers = [i.to_bytes(2, "big") for i in range(nr.POOL_CAPACITY)]
        node.pool = {nr.txid(tx): nr.PendingRelease(tx, nr.txid(tx), 99)
                     for tx in fillers}  # the 1001st distinct tx must bounce
        onion, ret = make_onion(world, [4], b"tx")
        ack = decrypt_ack(node.serve_request(onion, CLIENT_ADDR), ret.private)
        assert ack.errno == nr.ERR_POOL_FULL
        assert len(node.pool) == nr.POOL_CAPACITY
        # a tx already pending is no new entry, so a full pool still takes it
        onion, ret = make_onion(world, [4], fillers[7], delay=2)
        ack = decrypt_ack(node.serve_request(onion, CLIENT_ADDR), ret.private)
        assert ack.errno == nr.ERR_OK
        assert len(node.pool) == nr.POOL_CAPACITY
        assert node.pool[nr.txid(fillers[7])].release_height == node.height + 2

    def test_second_enqueue_keeps_one_entry(self, world):
        node = world.nodes[11]
        for delay, kept in [(4, 4), (2, 2), (5, 2)]:  # the earlier height wins
            onion, ret = make_onion(world, [11], b"one tx", delay=delay)
            ack = decrypt_ack(node.serve_request(onion, CLIENT_ADDR),
                              ret.private)
            assert ack.errno == nr.ERR_OK
            assert [p.release_height for p in node.pool.values()] == [kept]
        assert node.events["enqueued"] == 1
        assert node.events["already_pending"] == 2

    def test_replayed_first_hop_packet_fills_no_pool(self, world, monkeypatch):
        monkeypatch.setattr(nr, "POOL_CAPACITY", 3)
        onion, ret = make_onion(world, [0, 1, 2], b"replayed tx")
        first = world.directory[0]
        acks = [decrypt_ack(world.transport.request(first.ip, first.port,
                                                    onion, CLIENT_ADDR),
                            ret.private)
                for _ in range(5)]  # one capture, replayed
        assert [ack.errno for ack in acks] == [nr.ERR_OK] * 5
        releasing = world.nodes[2]
        assert list(releasing.pool) == [nr.txid(b"replayed tx")]
        assert releasing.events["already_pending"] == 4

    def test_invalid_tx_rejected(self, world):
        node = world.nodes[5]
        node.view.verify = lambda tx: False
        onion, ret = make_onion(world, [5], b"tx")
        ack = decrypt_ack(node.serve_request(onion, CLIENT_ADDR), ret.private)
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
                              ec.keygen_even(rng), now=0, rng=rng)
                  for _ in range(200)]
        view = MemoryView()
        node = nr.TrrNode(keypair, me, None, view, random.Random(3),
                          now=lambda: 0)

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
                            lambda node, src_addr, peeled:
                            released.append(peeled.trr_data)
                            if isinstance(peeled, Release) else None)
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

    def test_no_amplification_and_no_plaintext_exposure(self, world):
        tx = b"\xabsecret transaction payload\xcd" * 4
        packets = []
        orig = world.transport.request

        def recording(ip, port, packet, src_addr=None):
            packets.append((ip, port, bytes(packet), src_addr))
            return orig(ip, port, packet, src_addr=src_addr)

        world.transport.request = recording
        policy = nr.SendPolicy(num_routes=2, hops=3, delays=(1, 1))
        report = world.send(tx, policy)
        assert report.success
        # exactly hops messages per route, none carrying the plaintext
        assert len(packets) == policy.num_routes * policy.hops
        assert all(tx not in pkt for _, _, pkt, _ in packets)
        # packets arrive route by route and hop by hop: only a first hop
        # hears the client, the releasing hop hears the middle hop
        for r, attempt in enumerate(report.rounds[0].attempts):
            hops = [(world.directory[i].ip, world.directory[i].port)
                    for i in attempt.hop_ids]
            route_packets = packets[r * policy.hops:(r + 1) * policy.hops]
            assert [(ip, port) for ip, port, _, _ in route_packets] == hops
            assert [src for *_, src in route_packets] == \
                [world.client_addr] + hops[:-1]


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
            onion, ret = make_onion(world, [0], b"tcp tx")
            raw = nr.TcpTransport(timeout=2.0).request(LOOPBACK, port, onion)
            ack = decrypt_ack(raw, ret.private)
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
            ret = ec.keygen_even(rng)
            onion = build_onion(b"tx", (me, successor), 1, ret, 0, rng)
            with node_server(node) as (port, _):
                raw = nr.TcpTransport(timeout=2.0).request(LOOPBACK, port, onion)
            replier.join(timeout=3)
        assert not replier.is_alive()
        ack = decrypt_ack(raw, ret.private)
        assert ack.errno == nr.ERR_NOT_TRR
        assert (ack.rpt_ip, ack.err_ip) == (LOOPBACK, next_ip)
        assert ack.errmsg == b"NotTrr"


@contextlib.contextmanager
def node_server(node):
    """Serve node with run_node_server on a free loopback port; yields
    the port and the server thread once it accepts connections."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    stop = threading.Event()
    server = threading.Thread(
        target=nr.run_node_server, args=(node, "127.0.0.1", port),
        kwargs={"timeout": 2.0, "stop_event": stop}, daemon=True)
    server.start()
    try:
        for _ in range(50):
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1).close()
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
