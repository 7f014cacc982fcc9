"""Blame is sound: an exhaustive table of small routes, in process.

Every assignment of the simulator's behaviours to the hops of one route
is sent once through a SimWorld, and the attempt is checked against a
reference.  Blame narrows to an adjacent pair: an error ack names its
reporter and the hop it accuses, the hop after the reporter, and the
accused is the first hop that failed the route.  When that is the first
hop the client gets no ack and records the error itself.  Success is
judged by the broadcast view, never by an ack, since a releasing hop
can always ack OK and withhold the transaction.

A forging hop is the one adversary the behaviours lack: it drops what
it is sent and seals an ack under its own key in whatever names it
likes.  The client keeps only an ack in the sealing hop's own name
that blames that hop or its successor.
"""

import itertools
import random
from dataclasses import replace

import pytest

from trr import ec_crypto as ec
from trr import node_runtime as nr
from trr.errors import GiveUp
from trr.onion_routing import encrypt_ack
from trr.simulator import (
    DISHONEST_MODES,
    FAKE_TRR,
    HONEST,
    SimConfig,
    SimWorld,
)
from trr.wire_protocol import TrrAck

BEHAVIOURS = (HONEST, FAKE_TRR, *DISHONEST_MODES)

# what the hop before a failing hop reports, and what the client
# records when the failing hop is the first
FAILURE = {
    "deny_connection": (nr.ERR_UNREACHABLE, "NextHopUnreachable"),
    "drop_data": (nr.ERR_TIMEOUT, "TrrTimeout"),
    "wrong_pubkey": (nr.ERR_PEER_CLOSED, "PeerClosed"),
}


class InOrder(random.Random):
    """A generator whose sample is the population's first k members in
    order, so the route of a send over an h-node world is node 0, 1,
    ..., h - 1; every other draw is seeded."""

    def sample(self, population, k):
        return [population[i] for i in range(k)]


def world_with(behaviours) -> SimWorld:
    """An h-node world whose node i behaves as behaviours[i]; a
    wrong_pubkey node is listed under another key."""
    world = SimWorld(SimConfig(n_nodes=len(behaviours),
                               hops=len(behaviours)))
    lying = random.Random(1234)
    for node, behaviour in zip(world.nodes, behaviours):
        node.behavior = behaviour
        if behaviour == "wrong_pubkey":
            node.listed = replace(node.listed,
                                  pubkey=ec.keygen(lying).public)
    return world


def send_once(world: SimWorld, tx: bytes):
    """The single attempt of a one-route, one-round send over the world
    in node order, and whether the send succeeded."""
    policy = nr.SendPolicy(num_routes=1, hops=world.cfg.hops, delays=(1,),
                           retry_rounds=1)
    try:
        report = world.send(tx, policy, rng=InOrder(7))
    except GiveUp as exc:
        report = exc.report
    (attempt,) = report.rounds[0].attempts
    return attempt, report.success


def expected(behaviours, ips):
    """Reference outcome of one route: the ack's (rpt_ip, err_ip,
    errno), or None; the error name the client records without an ack,
    or None; and how many times the tx is broadcast."""
    last = len(behaviours) - 1
    for j, behaviour in enumerate(behaviours):
        if behaviour in FAILURE:
            errno, error = FAILURE[behaviour]
            if j == 0:
                return None, error, 0
            return (ips[j - 1], ips[j], errno), None, 0
    released = behaviours[last] != "no_release"
    return (ips[last], 0, nr.ERR_OK), None, int(released)


def outcome(attempt, world, tx):
    ack = attempt.ack
    triple = None if ack is None else (ack.rpt_ip, ack.err_ip, ack.errno)
    error = None if attempt.error is None else attempt.error.split(":")[0]
    tid = nr.txid(tx)
    broadcasts = sum(t == tid for _, _, t in world.broadcast.log)
    return triple, error, broadcasts


@pytest.mark.parametrize(
    "hops", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_every_assignment_blames_the_first_failing_hop(hops):
    tx = b"blame table tx"
    wrong = []
    for behaviours in itertools.product(BEHAVIOURS, repeat=hops):
        world = world_with(behaviours)
        ips = [d.ip for d in world.directory]
        attempt, success = send_once(world, tx)
        got = outcome(attempt, world, tx)
        want = expected(behaviours, ips)
        if got != want or success != (want[2] == 1):
            wrong.append((behaviours, got, want, success))
    assert not wrong


def make_forger(node, rpt_ip: int, err_ip: int) -> None:
    """Make node drop what it is sent and seal, under its own ack key,
    an ERR_TIMEOUT ack naming rpt_ip as reporter and err_ip as the hop
    to blame."""
    def forge(ack_key: bytes) -> bytes:
        ack = TrrAck(1, node.height, rpt_ip=rpt_ip, err_ip=err_ip,
                     errno=nr.ERR_TIMEOUT, errmsg=b"TrrTimeout")
        return encrypt_ack(ack, ack_key)

    node._handle_forward = lambda routing: forge(routing.ack_key)
    node._handle_release = lambda ack_key, data: forge(ack_key)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_forger_kept_only_in_its_own_name_blaming_itself_or_successor(
        position):
    tx = b"forged tx"
    wrong = []
    for rpt, err in itertools.product(range(3), repeat=2):
        world = world_with((HONEST,) * 3)
        ips = [d.ip for d in world.directory]
        make_forger(world.nodes[position], ips[rpt], ips[err])
        attempt, success = send_once(world, tx)
        got = outcome(attempt, world, tx)
        if rpt == position and err in (position, position + 1):
            want = ((ips[rpt], ips[err], nr.ERR_TIMEOUT), None, 0)
        else:
            want = (None, "forged ack", 0)
        if got != want or success:
            wrong.append(((rpt, err), got, want))
    assert not wrong
