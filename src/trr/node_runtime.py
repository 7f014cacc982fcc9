"""TRR node and client state machines.

A node serves one request per short-lived connection: handshake with a
``vertrr`` frame, receive one ``trr`` frame, then either relay the
payload to the next hop (returning the downstream ``track`` under one
more layer of its own ack key) or enqueue the transaction for delayed
release and ack immediately.
Connections shut down node by node as each exchange completes.

The client dispatches one onion per route, collects acks, waits out the
largest release delay on the block clock and checks the broadcast view;
unseen transactions trigger a fresh round of routes.

Transport, broadcast view and block clock are injected adapters, so the
same logic runs over real TCP sockets and the in-process simulator.  An
ack's time is the node's block height, and a TCP node never reads its
predecessor's address.

A node keeps no record of the requests it served: TrrNode.events counts
each event kind and holds no address and no txid.  The full record of
an event (forwarded next hop, released txid, ...) exists only as a JSON
line on the "trr.node" logger at DEBUG level.
"""

import json
import logging
import socket
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Protocol

from .ec_crypto import KeyPair
from .errors import (
    DelayOutOfRange,
    GiveUp,
    InvalidConfig,
    MalformedCipher,
    NextHopUnreachable,
    NotTrr,
    PeerClosed,
    SizeMismatch,
    TrrError,
    TrrTimeout,
    WireError,
)
from .onion_routing import (
    SEALED_ACK_LEN,
    NodeDescriptor,
    build_onion,
    check_route_shape,
    decrypt_ack,
    encrypt_ack,
    peel_layer,
    select_routes,
    wrap_ack,
)
from .wire_protocol import (
    ACK_KEY_LEN,
    FRAME_HEADER_LEN,
    MAX_TX_SIZE,
    TrrAck,
    TrrData,
    TrrRouting,
    check_release_delay,
    dsha256,
    format_ipv4,
    frame_message,
    parse_frame,
    parse_frame_header,
)

logger = logging.getLogger("trr.node")

ERR_OK = 0
ERR_TIMEOUT = 1
ERR_UNREACHABLE = 2
ERR_PEER_CLOSED = 3
ERR_NOT_TRR = 4
ERR_POOL_FULL = 5
ERR_INVALID_TX = 6

_ERRNO_FOR = {
    TrrTimeout: ERR_TIMEOUT,
    NextHopUnreachable: ERR_UNREACHABLE,
    PeerClosed: ERR_PEER_CLOSED,
    NotTrr: ERR_NOT_TRR,
}

POOL_CAPACITY = 1000
DEFAULT_TIMEOUT = 30.0
POLL_INTERVAL_S = 0.2  # how often a node or a client re-reads a block clock


def txid(tx: bytes) -> bytes:
    """32-byte double-SHA256 transaction id."""
    return dsha256(tx)


class BroadcastView(Protocol):
    """Adapter standing in for the surrounding broadcast network."""

    def seen_in_blockchain_or_mempool(self, txid: bytes) -> bool: ...

    def broadcast(self, tx: bytes) -> None: ...

    def verify(self, tx: bytes) -> bool: ...


class Transport(Protocol):
    """One full request exchange with a peer: connect, handshake, send
    the packet, return the raw (sealed) ack bytes, close."""

    def request(self, ip: int, port: int, packet: bytes,
                src_addr=None) -> bytes: ...


class BlockClock(Protocol):
    def height(self) -> int: ...

    def wait_for(self, height: int) -> None: ...


@dataclass
class PendingRelease:
    """Entry in a releasing node's TRR mempool."""

    tx: bytes
    txid: bytes
    release_height: int


class TrrNode:
    """One relay node: peels layers, forwards or releases.  A node draws
    nothing at random, since acks are sealed under keys the onion
    carries; the optional fifth argument, a generator, is accepted for
    callers that still pass one, and ignored."""

    def __init__(self, keypair: KeyPair, descriptor: NodeDescriptor,
                 transport: Transport, view: BroadcastView, _rng=None):
        self.keypair = keypair
        self.descriptor = descriptor
        self.transport = transport
        self.view = view
        self.height = 0
        self.pool: dict[bytes, PendingRelease] = {}  # keyed by txid
        self.events: Counter[str] = Counter()  # occurrences per event kind
        self._lock = threading.Lock()

    def _log(self, event: str, **fields) -> None:
        self.events[event] += 1
        if logger.isEnabledFor(logging.DEBUG):
            record = {"event": event, "node": self.descriptor.node_id, **fields}
            logger.debug(json.dumps(record, default=repr))

    def _observe_request(self, src_addr, routing, data) -> None:
        """Hook for instrumented (attacker-run) nodes; honest no-op."""

    def serve_request(self, packet: bytes, src_addr=None) -> bytes:
        """Handle one decrypted-and-dispatched request; returns the
        sealed ack bytes to send back.  _observe_request is handed
        src_addr (the simulator alone passes one) and what peel_layer
        decoded: the TrrRouting, and the TrrData at the releasing hop.

        Raises MalformedCipher when the layer cannot be peeled; with no
        routing header there is no ack key, so the connection is simply
        closed and the previous hop reports.
        """
        try:
            routing, data = peel_layer(packet, self.keypair.private)
        except MalformedCipher:
            self._log("peel_failed")
            raise
        self._observe_request(src_addr, routing, data)
        self._log("received", size=len(packet),
                  kind="forward" if data is None else "release")
        if data is None:
            return self._handle_forward(routing)
        return self._handle_release(routing.ack_key, data)

    def _handle_forward(self, routing: TrrRouting) -> bytes:
        """Forward the payload and wrap the downstream ack in this hop's
        pad; a failed forward, or a reply that is no sealed ack, gets
        this hop's own error ack naming the next hop."""
        me = self.descriptor
        try:
            reply = self.transport.request(
                routing.dst_ip, routing.port, routing.payload,
                src_addr=(me.ip, me.port))
            if len(reply) != SEALED_ACK_LEN:
                raise NotTrr(f"reply of {len(reply)} bytes is no sealed ack")
        except tuple(_ERRNO_FOR) as exc:
            errno = _ERRNO_FOR[type(exc)]
            self._log("forward_failed", next_ip=format_ipv4(routing.dst_ip),
                      errno=errno)
            return self._own_ack(routing.ack_key, errno=errno,
                                 err_ip=routing.dst_ip,
                                 errmsg=type(exc).__name__.encode())
        self._log("forwarded", next_ip=format_ipv4(routing.dst_ip),
                  next_port=routing.port)
        return wrap_ack(reply, routing.ack_key)

    def _handle_release(self, ack_key: bytes, data: TrrData) -> bytes:
        me = self.descriptor
        if not self.view.verify(data.tx):
            self._log("verify_failed")
            return self._own_ack(ack_key, errno=ERR_INVALID_TX,
                                 err_ip=me.ip, errmsg=b"verify failed")
        tid = txid(data.tx)
        with self._lock:
            release_height = self.height + data.release_delay
            entry = self.pool.get(tid)
            if entry is not None:  # a replay or a second route: no new entry
                event = "already_pending"
                release_height = entry.release_height = min(
                    entry.release_height, release_height)
            elif len(self.pool) < POOL_CAPACITY:
                event = "enqueued"
                self.pool[tid] = PendingRelease(data.tx, tid, release_height)
            else:
                event = "pool_full"
        if event == "pool_full":
            self._log(event)
            return self._own_ack(ack_key, errno=ERR_POOL_FULL,
                                 err_ip=me.ip, errmsg=b"pool full")
        self._log(event, release_height=release_height,
                  delay=data.release_delay)
        return self._own_ack(ack_key, errno=ERR_OK, err_ip=0)

    def _own_ack(self, ack_key: bytes, *, errno: int, err_ip: int,
                 errmsg: bytes = b"") -> bytes:
        ack = TrrAck(version=1, time=self.height, rpt_ip=self.descriptor.ip,
                     err_ip=err_ip, errno=errno, errmsg=errmsg)
        self._log("acked", errno=errno)
        return encrypt_ack(ack, ack_key)

    def on_new_block(self, height: int) -> list[bytes]:
        """Advance the block clock; broadcast every due transaction that
        is still unseen, returning the list actually released."""
        with self._lock:
            if height <= self.height:
                raise ValueError(
                    f"block height must increase: {height} <= {self.height}")
            self.height = height
            due = [p for p in self.pool.values() if p.release_height <= height]
            self.pool = {tid: p for tid, p in self.pool.items()
                         if p.release_height > height}
        released = []
        for entry in due:
            if self.view.seen_in_blockchain_or_mempool(entry.txid):
                self._log("release_skipped_duplicate",
                          txid=entry.txid.hex()[:16])
                continue
            if not self.view.verify(entry.tx):
                self._log("release_skipped_invalid", txid=entry.txid.hex()[:16])
                continue
            self.view.broadcast(entry.tx)
            self._log("released", txid=entry.txid.hex()[:16], height=height)
            released.append(entry.tx)
        return released


# -- frame connections ----------------------------------------------------

def serve_connection(node: TrrNode, conn) -> None:
    """Drive one inbound connection: vertrr handshake, one trr request,
    one track reply.  Anything else closes the connection."""
    try:
        command, _ = conn.recv_frame()
        if command != "vertrr":
            raise NotTrr(f"first command {command!r} is not vertrr")
        conn.send_frame("vertrr", b"")
        command, payload = conn.recv_frame()
        if command != "trr":
            return
        ack = node.serve_request(payload)
        conn.send_frame("track", ack)
    except TrrError:
        return  # refused, timed out, or unpeelable: close without a reply
    finally:
        conn.close()


def request_over_connection(conn, packet: bytes) -> bytes:
    """Client side of one exchange; returns the raw ack bytes."""
    conn.send_frame("vertrr", b"")
    command, _ = conn.recv_frame()
    if command != "vertrr":
        raise NotTrr(f"peer answered {command!r} instead of vertrr")
    conn.send_frame("trr", packet)
    command, payload = conn.recv_frame()
    if command != "track":
        raise PeerClosed(f"expected track, got {command!r}")
    return payload


class FrameSocket:
    """Frame-oriented wrapper over a connected TCP socket."""

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_TIMEOUT):
        self._sock = sock
        self._sock.settimeout(timeout)

    def send_frame(self, command: str, payload: bytes) -> None:
        try:
            self._sock.sendall(frame_message(command, payload))
        except OSError as exc:
            raise PeerClosed(f"send failed: {exc}") from exc

    def recv_frame(self) -> tuple[str, bytes]:
        """Next frame from the peer; NotTrr when it is malformed."""
        header = self._recv_exact(FRAME_HEADER_LEN)
        try:
            length = parse_frame_header(header)[1]
            return parse_frame(header + self._recv_exact(length))
        except WireError as exc:
            raise NotTrr(f"malformed frame: {exc}") from exc

    def _recv_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except socket.timeout as exc:
                raise TrrTimeout("peer did not answer in time") from exc
            except OSError as exc:
                raise PeerClosed(f"recv failed: {exc}") from exc
            if not chunk:
                raise PeerClosed("connection closed mid-frame")
            buf += chunk
        return bytes(buf)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class TcpTransport:
    """Short-lived TCP connection per request."""

    def __init__(self, timeout: float = DEFAULT_TIMEOUT):
        self.timeout = timeout

    def request(self, ip: int, port: int, packet: bytes, src_addr=None) -> bytes:
        try:
            sock = socket.create_connection((format_ipv4(ip), port),
                                            timeout=self.timeout)
        except OSError as exc:
            raise NextHopUnreachable(
                f"{format_ipv4(ip)}:{port}: {exc}") from exc
        conn = FrameSocket(sock, self.timeout)
        try:
            return request_over_connection(conn, packet)
        finally:
            conn.close()


def run_node_server(node: TrrNode, host: str, port: int, *,
                    timeout: float = DEFAULT_TIMEOUT,
                    stop_event: threading.Event,
                    on_listening=None, clock=None) -> None:
    """Accept loop for a TCP node; one thread per connection.
    on_listening, if given, is called once the socket is bound.  With a
    block clock, the loop reads it between accepts, at least every
    POLL_INTERVAL_S, and passes each new height to node.on_new_block;
    without one, the caller drives on_new_block.  An error that ends the
    loop, such as a port already in use, is raised from this call."""
    with socket.create_server((host, port)) as server:
        server.settimeout(POLL_INTERVAL_S)
        if on_listening is not None:
            on_listening()
        while not stop_event.is_set():
            if clock is not None and (height := clock.height()) > node.height:
                node.on_new_block(height)
            try:
                sock, _ = server.accept()
            except socket.timeout:
                continue
            conn = FrameSocket(sock, timeout)
            threading.Thread(target=serve_connection, args=(node, conn),
                             daemon=True).start()


# -- client ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SendPolicy:
    """Routes, hops, release delays and retry rounds of a send, checked
    when built, so no send starts that a later route could not encode:
    InvalidConfig (a ValueError) or DelayOutOfRange."""

    num_routes: int = 3
    hops: int = 3
    delays: tuple[int, ...] = (1, 3, 5)  # cycled across a round's routes
    retry_rounds: int = 3

    def __post_init__(self) -> None:
        check_route_shape(self.num_routes, self.hops)
        if not isinstance(self.retry_rounds, int) or self.retry_rounds < 1:
            raise InvalidConfig(f"retry_rounds {self.retry_rounds!r}: an "
                                f"integer >= 1 required")
        if not self.delays:
            raise DelayOutOfRange("no release delay given")
        for delay in self.delays:
            check_release_delay(delay)


@dataclass
class RouteAttempt:
    hop_ids: tuple
    delay: int
    ack: TrrAck | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.ack is not None and self.ack.errno == ERR_OK


@dataclass
class SendRound:
    dispatch_height: int
    attempts: list[RouteAttempt] = field(default_factory=list)


@dataclass
class SendReport:
    txid: bytes
    success: bool
    rounds: list[SendRound] = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)


def client_send(tx: bytes, directory: list[NodeDescriptor],
                policy: SendPolicy, rng, *, transport: Transport,
                view: BroadcastView, clock: BlockClock) -> SendReport:
    """Dispatch tx over policy.num_routes fresh routes, wait out the
    release delay, and retry with new routes until the transaction is
    observed in the broadcast view.  An attempt keeps an ack only when
    its rpt_ip is the address of the hop whose key sealed it and its
    err_ip is 0, that hop or the hop after it; any other is recorded as
    the attempt's error.

    Raises SizeMismatch before any route is drawn when tx is empty or
    longer than MAX_TX_SIZE, and GiveUp (carrying the report) after
    policy.retry_rounds unsuccessful rounds.
    """
    if not 0 < len(tx) <= MAX_TX_SIZE:  # no node would verify it
        raise SizeMismatch(f"tx of {len(tx)} bytes, not 1..{MAX_TX_SIZE}")
    tid = txid(tx)
    rounds: list[SendRound] = []
    for _ in range(policy.retry_rounds):
        routes = select_routes(directory, policy.num_routes, policy.hops, rng)
        sent_round = SendRound(dispatch_height=clock.height())
        for i, route in enumerate(routes):
            delay = policy.delays[i % len(policy.delays)]
            attempt = RouteAttempt(
                hop_ids=tuple(h.node_id for h in route), delay=delay)
            # one key per hop, so no two layers share one
            ack_keys = [rng.randbytes(ACK_KEY_LEN) for _ in route]
            onion = build_onion(tx, route, delay, ack_keys,
                                sent_round.dispatch_height, rng)
            first = route[0]
            try:
                raw_ack = transport.request(first.ip, first.port, onion)
                hop, ack = decrypt_ack(raw_ack, ack_keys)
            except TrrError as exc:
                attempt.error = f"{type(exc).__name__}: {exc}"
            else:
                # a hop may blame only itself or its successor
                blamable = {0, *(h.ip for h in route[hop:hop + 2])}
                if ack.rpt_ip != route[hop].ip:
                    attempt.error = (f"forged ack: hop {hop + 1} sealed an "
                                     f"ack from {format_ipv4(ack.rpt_ip)}")
                elif ack.err_ip not in blamable:
                    attempt.error = (f"forged ack: hop {hop + 1} blamed "
                                     f"{format_ipv4(ack.err_ip)}, not its "
                                     f"successor")
                else:
                    attempt.ack = ack
            sent_round.attempts.append(attempt)
        rounds.append(sent_round)
        clock.wait_for(sent_round.dispatch_height
                       + max(a.delay for a in sent_round.attempts))
        if view.seen_in_blockchain_or_mempool(tid):
            return SendReport(txid=tid, success=True, rounds=rounds)
    raise GiveUp(f"transaction not observed after {policy.retry_rounds} rounds",
                 report=SendReport(txid=tid, success=False, rounds=rounds))
