"""Deterministic in-process network simulation and rate estimators.

Two layers of fidelity:

* estimate_srtr / estimate_srd run the probabilistic route model only
  (no cryptography) so a hundred thousand trials finish in seconds.
  Node behaviors are drawn lazily per touched node, which is
  distributionally identical to flipping a coin for all n_nodes up
  front.  SRD success is decided by literally stitching attacker
  observations back together, not by evaluating the closed-form
  predicate, so the two can be validated against each other.

* SimWorld builds real nodes with real keypairs wired through an
  in-process transport, a tick-based block clock, a Sybil observer
  logging every broadcast, an attack ledger filled by observer (fake)
  nodes, and one trace of every node event stamped with its tick, in
  the order the events happened.  SimWorld.send returns the client's
  SendReport, and everything else a send leaves is read from the world
  itself: trace, broadcast.log and attack_ledger.  The world keeps one node
  table and builds a node (behavior, keypair, SimNode and the
  descriptor it is listed under) only when it is first touched, drawing
  it from that node's own generator, so node i depends on the seed and
  i alone and set-up makes no per-node draw; build cost follows the
  nodes a run actually uses, and blocks reach only the nodes already
  built.

Both layers recover routes with the same walk, stitch_chains: the
estimator feeds it node-id records, AttackLedger.reconstruct its
entries, the address records its observer nodes wrote.

Everything is seeded: identical SimConfig values produce bit-identical
outcomes.  An estimate_srtr trial reads its own 64-bit words of
SHAKE-128 over b"srtr", the seed and the trial index: a counter-based
stream with no seeding step, so trials are independent and trial t
draws the same whatever the number of trials.  estimate_srd re-seeds
one generator per trial, and SimWorld seeds its client generator and
one per built node, from trial_seed, a splittable counter.
"""

import bisect
import hashlib
import random
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import NamedTuple

from . import ec_crypto, node_runtime
from .errors import (
    InvalidConfig,
    MalformedCipher,
    NextHopUnreachable,
    PeerClosed,
    TrrTimeout,
)
from .node_runtime import SendPolicy, TrrNode, client_send
from .onion_routing import MAX_HOPS, NodeDescriptor, check_route_shape
from .wire_protocol import MAX_TX_SIZE

HONEST = "honest"
FAKE_TRR = "fake_trr"
DISHONEST_MODES = ("deny_connection", "drop_data", "no_release", "wrong_pubkey")

BLOCK_INTERVAL_TICKS = 100
NODE_IP_BASE = 0x0A000001  # node i listens at 10.0.0.1 + i
NODE_PORT = 8333
MAX_CHAINS_PER_RELEASE = 65  # bounds AttackLedger.reconstruct on pooled ledgers


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One parameter point; it checks itself when built (InvalidConfig):
    check_route_shape, integer n_nodes, trials and seed, and the rates."""

    n_nodes: int = 6000
    dishonest_rate: float = 0.0
    fake_rate: float = 0.0
    num_routes: int = 3
    hops: int = 3
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        check_route_shape(self.num_routes, self.hops)
        ints = (self.n_nodes, self.trials, self.seed)
        if not all(isinstance(v, int) for v in ints) or self.trials < 1:
            raise InvalidConfig("n_nodes, trials, seed: integers; trials >= 1")
        if self.n_nodes < self.hops:
            raise InvalidConfig("n_nodes must cover at least one route")
        if not (0 <= self.dishonest_rate <= 1 and 0 <= self.fake_rate <= 1):
            raise InvalidConfig("rates must lie in [0, 1]")
        if self.dishonest_rate + self.fake_rate > 1:
            raise InvalidConfig("dishonest_rate + fake_rate must not exceed 1")


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def trial_seed(master: int, index: int) -> int:
    """Independent 64-bit stream seed: estimate_srd seeds trial t's
    generator with index t, SimWorld its client generator with index 0
    and node i's build generator with index 2 + i (index 1 is unused)."""
    return _splitmix64(_splitmix64(master & 0xFFFFFFFFFFFFFFFF) + index)


# -- statistical estimators -------------------------------------------------

def _trial_words(cfg: SimConfig):
    """Yield, for each trial t of estimate_srtr, 2 * hops * num_routes
    little-endian 64-bit words of SHAKE-128 over b"srtr" || seed || t.
    The stream is counter based: trial t's words depend on (seed, t) alone.
    Route i reads its hop words at [2hi, 2hi + h) and its flag words after
    them."""
    count = 2 * cfg.hops * cfg.num_routes
    unpack = struct.Struct(f"<{count}Q").unpack
    prefix = b"srtr" + (cfg.seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    for t in range(cfg.trials):
        yield unpack(hashlib.shake_128(prefix + t.to_bytes(8, "little"))
                     .digest(8 * count))


def _sample(words, base: int, n: int, h: int) -> Iterator[int]:
    """Ordered sample of h distinct nodes of range(n) from words[base:base+h]
    by a virtual Fisher-Yates shuffle: hop j takes position j + w % (n - j)
    of a permutation whose moved entries live in a dict, so a draw costs
    O(h) whatever n is.  Its bias is at most n / 2**64.  Hops are yielded
    one by one, so a caller that stops early pays for no later hop."""
    swap: dict[int, int] = {}
    for j in range(h):
        k = j + words[base + j] % (n - j)
        yield swap.get(k, k)
        swap[k] = swap.get(j, j)


def estimate_srtr(cfg: SimConfig) -> float:
    """Fraction of trials in which at least one of the round's routes
    consists entirely of protocol-following hops (a single round, no
    retries).  Fake observer nodes follow the protocol, so only the
    dishonest fraction breaks a route.  A route is sampled only up to
    its first dishonest hop."""
    n, h = cfg.n_nodes, cfg.hops
    cut = int(cfg.dishonest_rate * 2.0**64)
    bases = range(0, 2 * h * cfg.num_routes, 2 * h)
    successes = 0
    for words in _trial_words(cfg):
        dishonest: dict[int, bool] = {}
        for base in bases:
            for j, node in enumerate(_sample(words, base, n, h)):
                flag = dishonest.get(node)
                if flag is None:
                    flag = dishonest[node] = words[base + h + j] < cut
                if flag:
                    break
            else:
                successes += 1
                break
    return successes / cfg.trials


def estimate_srd(cfg: SimConfig) -> float:
    """Fraction of trials in which stitching the observer ledger
    recovers at least one full route (correct hops, transaction content
    and client address).  Trial t re-seeds one generator with
    trial_seed(seed, t), whose master half is computed once."""
    f = cfg.fake_rate
    population = range(cfg.n_nodes)
    client_addr = cfg.n_nodes  # outside the node id space
    master_half = _splitmix64(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    rng = random.Random()
    successes = 0
    for t in range(cfg.trials):
        rng.seed(_splitmix64(master_half + t))  # trial_seed(cfg.seed, t)
        fake: dict[int, bool] = {}
        routes = []
        released = False  # an observer holds some route's releasing hop
        for _ in range(cfg.num_routes):
            route = rng.sample(population, cfg.hops)
            for node in route:
                flag = fake.get(node)
                if flag is None:
                    flag = fake[node] = rng.random() < f
            released = released or flag  # flag is the releasing hop's
            routes.append(route)
        if not released:
            continue  # nothing to stitch
        records = [(route[i - 1] if i else client_addr, node,
                    route[i + 1] if i + 1 < len(route) else None)
                   for route in routes for i, node in enumerate(route)
                   if fake[node]]
        if any(chain in routes
               for _, chains in stitch_chains(records, client_addr)
               for chain in chains):
            successes += 1
    return successes / cfg.trials


def stitch_chains(records, client_addr):
    """Attacker reconstruction by chain-stitching observer records.

    records start with (previous address, own address, next address),
    the next address None at the releasing hop.  For every releasing
    record, yields its index and a lazy iterator over the address chains
    (first hop to releasing hop) that walk back from it to client_addr.
    A link either matches an observer record directly or bridges one
    unobserved hop whose address the two neighbouring observers both
    recorded; two consecutive unobserved hops leave no matching records
    and the walk dies.  Records pooled across routes or requests can
    interlink, so chains that are no real route come out too; no chain
    is longer than MAX_HOPS.
    """
    by_self: dict = {}
    by_next: dict = {}
    for rec in records:
        by_self.setdefault(rec[1], []).append(rec)
        if rec[2] is not None:
            by_next.setdefault(rec[2], []).append(rec)

    def walk(rec, chain):
        if len(chain) > MAX_HOPS:  # no legal route is longer
            return
        prev_addr = rec[0]
        if prev_addr == client_addr:
            yield chain
            return
        for cand in by_self.get(prev_addr, ()):
            if cand[2] == rec[1]:
                yield from walk(cand, [prev_addr] + chain)
        for cand in by_next.get(prev_addr, ()):  # bridge one unobserved hop
            yield from walk(cand, [cand[1], prev_addr] + chain)

    for i, rec in enumerate(records):
        if rec[2] is None:
            yield i, walk(rec, [rec[1]])


# -- full in-process world ---------------------------------------------------

class SimClock:
    """Tick counter with a block height derived every
    BLOCK_INTERVAL_TICKS ticks; advancing a block notifies every built
    node in node-id order.  A node built later starts at the current
    height, which is all an unbuilt node's empty pool would have done."""

    def __init__(self, world):
        self._world = world
        self.tick = 0
        self._height = 0

    def height(self) -> int:
        return self._height

    def advance_block(self) -> None:
        self.tick = (self.tick // BLOCK_INTERVAL_TICKS + 1) * BLOCK_INTERVAL_TICKS
        self._height += 1
        for node in self._world.built:
            node.on_new_block(self._height)

    def wait_for(self, height: int) -> None:
        while self._height < height:
            self.advance_block()


class SimBroadcast:
    """Shared broadcast network stub plus the Sybil observer log."""

    def __init__(self, world):
        self._world = world
        self.seen: set[bytes] = set()
        self.log: list[tuple[int, object, bytes]] = []  # (tick, origin, txid)

    def observe(self, origin, tx: bytes) -> None:
        tid = node_runtime.txid(tx)
        self.log.append((self._world.clock.tick, origin, tid))
        self.seen.add(tid)


class NodeView:
    """Per-node handle onto the shared broadcast stub, so the observer
    knows which node announced each transaction."""

    def __init__(self, broadcast: SimBroadcast, node_id):
        self._broadcast = broadcast
        self._node_id = node_id

    def seen_in_blockchain_or_mempool(self, txid: bytes) -> bool:
        return txid in self._broadcast.seen

    def broadcast(self, tx: bytes) -> None:
        self._broadcast.observe(self._node_id, tx)

    def verify(self, tx: bytes) -> bool:
        return 0 < len(tx) <= MAX_TX_SIZE


def sybil_first_spreader(log, txid: bytes):
    """Origin that announced txid earliest, None if nobody did; within a
    tick the log's append order decides, so node ids and "client" are
    never compared."""
    hits = [(tick, origin) for tick, origin, tid in log if tid == txid]
    return min(hits, key=lambda hit: hit[0])[1] if hits else None


class SimNode(TrrNode):
    """TrrNode of one SimWorld, plus a behavior label and the descriptor
    the directory lists it under (listed).  It starts at the world
    clock's height; an observer node appends one stitch_chains record
    per request to the world's attack_ledger from what _observe_request
    is handed (src_addr, the TrrRouting, the releasing hop's TrrData),
    and every node appends each event, stamped with the world clock's
    tick, to the world's trace."""

    def __init__(self, *args, behavior, world):
        super().__init__(*args)
        self.behavior = behavior
        self.world = world
        self.height = world.clock.height()

    def serve_request(self, packet: bytes, src_addr=None) -> bytes:
        if self.behavior == "deny_connection":
            raise NextHopUnreachable(f"node {self.descriptor.node_id} refused")
        if self.behavior == "drop_data":
            raise TrrTimeout(f"node {self.descriptor.node_id} went silent")
        return super().serve_request(packet, src_addr)

    def _log(self, event: str, **fields) -> None:
        super()._log(event, **fields)
        self.world.trace.append({"tick": self.world.clock.tick, "event": event,
                                 "node": self.descriptor.node_id, **fields})

    def _observe_request(self, src_addr, routing, data) -> None:
        if self.behavior != FAKE_TRR:
            return
        own = (self.descriptor.ip, self.descriptor.port)
        if data is None:
            record = Observation(src_addr, own, (routing.dst_ip, routing.port))
        else:
            record = Observation(src_addr, own, None, node_runtime.txid(data.tx))
        self.world.attack_ledger.entries.append(record)

    def _handle_release(self, ack_key, data) -> bytes:
        if self.behavior == "no_release":
            # accept and ack but never enqueue: the withheld release is
            # exactly what makes this node dishonest
            self._log("withheld_release")
            return self._own_ack(ack_key,
                                 errno=node_runtime.ERR_OK, err_ip=0)
        return super()._handle_release(ack_key, data)


class Observation(NamedTuple):
    """One request seen by an observer node, as the stitch_chains record
    (previous, own, next address) plus the txid at the releasing hop."""

    prev_addr: tuple
    own_addr: tuple
    next_addr: tuple | None  # None at the releasing hop
    txid: bytes | None = None


@dataclass
class AttackLedger:
    """Everything the observer nodes saw: entries are stitch_chains
    records, pooled across requests in arrival order."""

    entries: list[Observation] = field(default_factory=list)

    def reconstruct(self, client_addr):
        """Stitch full chains from releasing observations back to the
        client address with stitch_chains; returns (address chain, txid)
        pairs, at most MAX_CHAINS_PER_RELEASE chains per releasing
        observation.  Chains that mix requests simply fail the caller's
        comparison with real routes.
        """
        recovered = []
        seen = set()
        for i, chains in stitch_chains(self.entries, client_addr):
            txid = self.entries[i].txid
            for chain in islice(chains, MAX_CHAINS_PER_RELEASE):
                key = (tuple(chain), txid)
                if key not in seen:
                    seen.add(key)
                    recovered.append((chain, txid))
        return recovered


class InProcessTransport:
    """Synchronous delivery: a request is served by directly invoking
    the target node, one tick of latency per edge.  A request that names
    no source (the client's) comes from world.client_addr."""

    def __init__(self, world):
        self._world = world

    def request(self, ip: int, port: int, packet: bytes, src_addr=None) -> bytes:
        self._world.clock.tick += 1
        node_id = ip - NODE_IP_BASE
        node = (self._world.nodes[node_id] if port == NODE_PORT
                and 0 <= node_id < self._world.cfg.n_nodes else None)
        if node is None:
            raise NextHopUnreachable(f"no TRR listener at {ip}:{port}")
        try:
            return node.serve_request(packet,
                                      src_addr=src_addr or self._world.client_addr)
        except MalformedCipher as exc:
            raise PeerClosed(
                f"node {node.descriptor.node_id} closed: {exc}") from exc


class _PerNode(Sequence):
    """A view of a SimWorld's node table, n_nodes long, whose entry i is
    pick(node i); indexing an entry builds its node first."""

    def __init__(self, world, pick):
        self._table = world._nodes  # None until the node is built
        self._build = world._build
        self._pick = pick

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, i: int):
        node = self._table[i]
        if node is None:
            node = self._build(range(len(self._table))[i])
        return self._pick(node)


class SimWorld:
    """Fully wired network of SimNodes for end-to-end runs.  One node
    table holds every SimNode, which carries its directory entry as
    listed; nodes and directory are views of it over all n_nodes.  A
    node is built when either view is first indexed at it, and built
    holds those nodes in node-id order."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.rng = random.Random(trial_seed(cfg.seed, 0) ^ 0xE2E)
        self.clock = SimClock(self)
        self.broadcast = SimBroadcast(self)
        self.transport = InProcessTransport(self)
        self.attack_ledger = AttackLedger()
        self.trace: list[dict] = []  # every node event, in time order
        self.client_addr = (0xC0A80001, 9)
        self._nodes: list[SimNode | None] = [None] * cfg.n_nodes
        self.nodes = _PerNode(self, lambda node: node)
        self.directory = _PerNode(self, lambda node: node.listed)
        self.built: list[SimNode] = []

    def _behavior(self, rng) -> str:
        u = rng.random()
        if u < self.cfg.dishonest_rate:
            return DISHONEST_MODES[rng.randrange(len(DISHONEST_MODES))]
        if u < self.cfg.dishonest_rate + self.cfg.fake_rate:
            return FAKE_TRR
        return HONEST

    def _build(self, node_id: int) -> SimNode:
        # node i draws from stream 2 + i alone, so it is the same node
        # whatever the build order, n_nodes or the client's draws
        rng = random.Random(trial_seed(self.cfg.seed, 2 + node_id))
        behavior = self._behavior(rng)
        keypair = ec_crypto.keygen(rng)
        descriptor = NodeDescriptor(node_id=node_id, ip=NODE_IP_BASE + node_id,
                                    port=NODE_PORT, pubkey=keypair.public)
        node = SimNode(keypair, descriptor, self.transport,
                       NodeView(self.broadcast, node_id), behavior=behavior,
                       world=self)
        node.listed = descriptor
        if behavior == "wrong_pubkey":  # the directory lies
            node.listed = replace(descriptor,
                                  pubkey=ec_crypto.keygen(rng).public)
        self._nodes[node_id] = node
        bisect.insort(self.built, node, key=lambda n: n.descriptor.node_id)
        return node

    def send(self, tx: bytes, policy: SendPolicy, rng=None):
        """client_send over this world's transport/view/clock."""
        return client_send(
            tx, self.directory, policy, rng or self.rng,
            transport=self.transport,
            view=NodeView(self.broadcast, "client"), clock=self.clock)

    def direct_send(self, tx: bytes) -> None:
        """Baseline non-TRR broadcast straight from the client; the
        Sybil observer attributes it to the client immediately."""
        self.broadcast.observe("client", tx)
