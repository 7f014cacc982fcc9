"""The trr names and call shapes the benchmark harness in trrbench/ drives.

The harness imports these names, wraps the module-level functions where
their callers look them up, and calls the rest with the arguments bound
below.  Removing or reshaping one of them breaks a benchmark run; this
test makes it break the fast suite first.  It imports nothing from
trrbench/.
"""

import inspect
import random
import socket
import threading
import time

import pytest

from trr import cli, ec_crypto, errors, node_runtime, onion_routing, simulator
from trr import wire_protocol

from test_node_runtime import node_server

USED = {
    ec_crypto: ("scalar_mul", "elgamal_encrypt", "elgamal_decrypt",
                "serialize_cipher", "deserialize_cipher", "keygen"),
    # node_runtime's own bindings of the onion and framing functions are
    # the ones a wrapper must replace
    node_runtime: ("build_onion", "peel_layer", "encrypt_ack", "decrypt_ack",
                   "frame_message", "parse_frame", "txid", "serve_connection",
                   "SendPolicy", "TcpTransport", "TrrNode", "client_send",
                   "run_node_server"),
    wire_protocol: ("frame_message", "parse_frame", "parse_ipv4"),
    onion_routing: ("NodeDescriptor",),
    simulator: ("SimConfig", "SimWorld", "estimate_srtr", "estimate_srd"),
    cli: ("FileBlockClock", "FileBroadcastView"),
    errors: ("GiveUp", "TrrError"),
}


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in USED.items() for name in names],
    ids=lambda v: v if isinstance(v, str) else v.__name__.split(".")[-1])
def test_name_exists(module, name):
    assert callable(getattr(module, name))


def _binds(fn, *args, **kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_call_shapes_bind():
    nr = node_runtime
    _binds(nr.TrrNode, "keypair", "descriptor", "transport", "view", "rng")
    _binds(nr.run_node_server, "node", "host", 1, timeout=1.0,
           stop_event="event")
    _binds(nr.client_send, b"tx", [], "policy", "rng", transport="t",
           view="v", clock="c")
    _binds(nr.TcpTransport, 20.0)
    _binds(nr.TcpTransport(1.0).request, 1, 2, b"packet", src_addr=None)
    _binds(nr.SendPolicy, num_routes=3, hops=3, delays=(1, 3, 5),
           retry_rounds=3)
    _binds(onion_routing.NodeDescriptor, node_id="n0", ip=1, port=2,
           pubkey="pubkey")
    _binds(ec_crypto.keygen, "rng")
    _binds(wire_protocol.parse_ipv4, "127.0.0.1")
    _binds(cli.FileBroadcastView, "log")
    _binds(cli.FileBlockClock, "height")
    _binds(simulator.SimConfig, n_nodes=6000, dishonest_rate=0.1,
           fake_rate=0.2, seed=1)
    _binds(simulator.SimConfig, fake_rate=0.1, hops=2, num_routes=1,
           trials=1000, seed=1)
    _binds(simulator.estimate_srtr, "cfg")
    _binds(simulator.estimate_srd, "cfg")


def test_world_members_bind():
    world = simulator.SimWorld(simulator.SimConfig(n_nodes=4, hops=2))
    node = world.nodes[0]
    _binds(world.send, b"tx", "policy", rng="rng")
    _binds(world.transport.request, 1, 2, b"packet", src_addr=None)
    _binds(world.clock.advance_block)
    _binds(world.attack_ledger.reconstruct, world.client_addr)
    _binds(node.serve_request, b"packet", src_addr=None)
    _binds(node.on_new_block, 1)
    assert (node.pool, node.events) == ({}, {})
    assert node.transport is world.transport
    for name in ("broadcast", "seen_in_blockchain_or_mempool"):
        assert callable(getattr(node.view, name))
    assert world.broadcast.log == [] and world.attack_ledger.entries == []


def test_connection_threads_keep_their_default_name():
    # the harness waits for the per-connection threads of run_node_server
    # by the name Python gives Thread(target=serve_connection); a worker
    # pool would leave it nothing to wait for
    rng = random.Random(1)
    keypair = ec_crypto.keygen(rng)
    me = onion_routing.NodeDescriptor("n0", wire_protocol.parse_ipv4(
        "127.0.0.1"), 1, keypair.public)
    node = node_runtime.TrrNode(keypair, me, None, None, rng)
    with node_server(node, timeout=5.0) as (port, _), \
            socket.create_connection(("127.0.0.1", port), timeout=1):
        deadline = time.monotonic() + 2
        while not any(t.name.endswith("(serve_connection)")
                      for t in threading.enumerate()):
            assert time.monotonic() < deadline, [
                t.name for t in threading.enumerate()]
            time.sleep(0.01)
