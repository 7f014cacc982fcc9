"""Tracing hooks on the layers of ``trr`` and the per-layer metrics they
yield.

Module-level functions are wrapped where their callers look them up:
``ec_crypto`` calls its own globals, ``onion_routing`` calls
``ec_crypto.<name>``, and ``node_runtime`` imported the onion and framing
functions into its own namespace.  Injected adapters (transports, broadcast
views, block clocks) and node methods are wrapped per instance.
"""

import statistics
import threading

from trr import ec_crypto, node_runtime, simulator, wire_protocol
from trr.cli import FileBroadcastView

# (name, unit) of every per-layer metric, in report order.  "/send" figures
# are totals over the run divided by the sends it completed.
PER_LAYER = [
    ("ec_crypto.scalar_mul.calls", "count/send"),
    ("ec_crypto.scalar_mul.ms", "ms/send"),
    ("ec_crypto.cipher_blocks", "count/send"),
    ("ec_crypto.elgamal_encrypt.ms", "ms/send"),
    ("ec_crypto.elgamal_decrypt.ms", "ms/send"),
    ("ec_crypto.serialize_cipher.ms", "ms/send"),
    ("ec_crypto.deserialize_cipher.ms", "ms/send"),
    ("onion_routing.build_onion.ms", "ms/send"),
    ("onion_routing.peel_layer.ms", "ms/send"),
    ("onion_routing.encrypt_ack.ms", "ms/send"),
    ("onion_routing.decrypt_ack.ms", "ms/send"),
    ("onion_routing.onion_bytes", "B/send"),
    ("onion_routing.onion_growth", "ratio"),
    ("wire_protocol.frames", "count/send"),
    ("wire_protocol.frame_bytes", "B/send"),
    ("wire_protocol.frame_message.ms", "ms/send"),
    ("wire_protocol.parse_frame.ms", "ms/send"),
    ("node_runtime.transport.ms", "ms/send"),
    ("node_runtime.serve_request.ms", "ms/send"),
    ("node_runtime.on_new_block.calls", "count/send"),
    ("node_runtime.on_new_block.ms", "ms/send"),
    ("node_runtime.pool_depth.max", "count"),
    ("node_runtime.retry_rounds", "count/send"),
    ("node_runtime.events", "count/send"),
    ("node_runtime.threads.max", "count"),
    ("cli.seen_check.calls", "count/send"),
    ("cli.seen_check.ms", "ms/send"),
    ("cli.seen_check.lines", "count/call"),
    ("simulator.world_build.s", "s"),
    ("simulator.advance_block.ms", "ms/block"),
    ("simulator.reconstruct.ms", "ms/call"),
    ("simulator.ledger_entries", "count/send"),
    ("simulator.recovered_routes", "count/send"),
    ("simulator.estimate_srtr.us_per_trial", "us/trial"),
    ("simulator.estimate_srd.us_per_trial", "us/trial"),
]

# Spans whose inclusive time is reported, by metric name.
_INCLUSIVE = {
    "ec_crypto.scalar_mul.ms": "ec_crypto.scalar_mul",
    "ec_crypto.elgamal_encrypt.ms": "ec_crypto.elgamal_encrypt",
    "ec_crypto.elgamal_decrypt.ms": "ec_crypto.elgamal_decrypt",
    "ec_crypto.serialize_cipher.ms": "ec_crypto.serialize_cipher",
    "ec_crypto.deserialize_cipher.ms": "ec_crypto.deserialize_cipher",
    "onion_routing.build_onion.ms": "onion_routing.build_onion",
    "onion_routing.peel_layer.ms": "onion_routing.peel_layer",
    "onion_routing.encrypt_ack.ms": "onion_routing.encrypt_ack",
    "onion_routing.decrypt_ack.ms": "onion_routing.decrypt_ack",
    "wire_protocol.frame_message.ms": "wire_protocol.frame_message",
    "wire_protocol.parse_frame.ms": "wire_protocol.parse_frame",
    "cli.seen_check.ms": "cli.seen_check",
}
# Spans whose self time is reported: the transport's own work excludes
# the remote serve_request it waits for, and serve_request excludes the
# peel, the forward and the ack it calls.
_SELF = {
    "node_runtime.transport.ms": "node_runtime.transport",
    "node_runtime.serve_request.ms": "node_runtime.serve_request",
}


def _count_result(tracer, name, size=None):
    def on_result(args, result):
        tracer.count(name)
        if size is not None:
            tracer.count(name + ".bytes", size(result))
    return on_result


def instrument_modules(tracer) -> None:
    """Wrap the module-level functions of ec_crypto, onion_routing and
    wire_protocol at the names their callers use."""
    ec = ec_crypto
    ec.scalar_mul = tracer.wrap("ec_crypto.scalar_mul", ec.scalar_mul,
                                _count_result(tracer, "ec_crypto.scalar_mul"))
    ec.elgamal_encrypt = tracer.wrap(
        "ec_crypto.elgamal_encrypt", ec.elgamal_encrypt,
        lambda args, result: tracer.count("ec_crypto.cipher_blocks",
                                          len(result.blocks)))
    for name in ("elgamal_decrypt", "serialize_cipher", "deserialize_cipher"):
        setattr(ec, name, tracer.wrap("ec_crypto." + name, getattr(ec, name)))
    nr = node_runtime

    def onion_size(args, onion):
        tracer.count("onion_routing.onions")
        tracer.count("onion_routing.onion_bytes", len(onion))
        tracer.add("onion_routing.onion_growth", len(onion) / len(args[0]))

    nr.build_onion = tracer.wrap("onion_routing.build_onion", nr.build_onion,
                                 onion_size)
    for name in ("peel_layer", "encrypt_ack", "decrypt_ack"):
        setattr(nr, name, tracer.wrap("onion_routing." + name, getattr(nr, name)))
    nr.frame_message = tracer.wrap(
        "wire_protocol.frame_message", wire_protocol.frame_message,
        _count_result(tracer, "wire_protocol.frames", len))
    nr.parse_frame = tracer.wrap("wire_protocol.parse_frame",
                                 wire_protocol.parse_frame)


def instrument_transport(tracer, transport) -> None:
    """Span each request; the node that serves it adopts the span as its
    parent, across threads when the request crossed a socket."""
    request = transport.request

    def handing_off(ip, port, packet, src_addr=None):
        tracer.high_water("node_runtime.threads.max", threading.active_count())
        tracer.hand_off(packet)
        return request(ip, port, packet, src_addr=src_addr)

    transport.request = tracer.wrap("node_runtime.transport", handing_off)


def instrument_view(tracer, view) -> None:
    """Count FileBroadcastView checks and the log lines each one scans:
    the scan stops at the matching line or reads the whole log."""
    broadcast = view.broadcast

    def noting_order(tx):
        broadcast(tx)
        tracer.ordinal(node_runtime.txid(tx))

    def lines_scanned(args, seen):
        tracer.count("cli.seen_check.calls")
        tracer.count("cli.seen_check.lines", tracer.ordinal(args[0]) + 1
                     if seen else len(tracer.ordinals))

    view.broadcast = noting_order
    view.seen_in_blockchain_or_mempool = tracer.wrap(
        "cli.seen_check", view.seen_in_blockchain_or_mempool, lines_scanned)


def instrument_nodes(tracer, nodes) -> None:
    """Wrap each node's request handler, block handler and its adapters."""
    for node in nodes:
        serve = tracer.wrap("node_runtime.serve_request", node.serve_request)

        def adopting(packet, src_addr=None, _serve=serve):
            tracer.adopt(packet)
            return _serve(packet, src_addr=src_addr)

        node.serve_request = adopting
        node.on_new_block = tracer.wrap_counted(
            "node_runtime.on_new_block", node.on_new_block,
            lambda args, _node=node: tracer.high_water(
                "node_runtime.pool_depth.max", len(_node.pool)))
        if isinstance(node.transport, node_runtime.TcpTransport):
            instrument_transport(tracer, node.transport)
        if isinstance(node.view, FileBroadcastView):
            instrument_view(tracer, node.view)


def instrument_world(tracer, world) -> None:
    instrument_nodes(tracer, world.nodes)
    instrument_transport(tracer, world.transport)
    world.clock.advance_block = tracer.wrap(
        "simulator.advance_block", world.clock.advance_block,
        _count_result(tracer, "simulator.advance_block"))


def instrument_estimators(tracer) -> None:
    for name in ("estimate_srtr", "estimate_srd"):
        setattr(simulator, name, tracer.wrap_counted(
            "simulator." + name, getattr(simulator, name)))


def per_layer_metrics(tracer, run) -> dict[str, float]:
    """Every per-layer metric of PER_LAYER; a layer the workload does not
    touch reads 0."""
    ok = [op for op in run.ops if op.ok and op.rounds]  # completed sends
    sends = len(ok)
    per_send = (lambda x: x / sends) if sends else (lambda x: 0.0)
    c = tracer.counts
    m = {}
    for metric, span in _INCLUSIVE.items():
        m[metric] = per_send(tracer.total_s(span) * 1e3)
    for metric, span in _SELF.items():
        m[metric] = per_send(tracer.self_s(span) * 1e3)
    m["ec_crypto.scalar_mul.calls"] = per_send(c["ec_crypto.scalar_mul"])
    m["ec_crypto.cipher_blocks"] = per_send(c["ec_crypto.cipher_blocks"])
    m["onion_routing.onion_bytes"] = per_send(c["onion_routing.onion_bytes"])
    m["onion_routing.onion_growth"] = (
        tracer.totals["onion_routing.onion_growth"] / c["onion_routing.onions"]
        if c["onion_routing.onions"] else 0.0)
    m["wire_protocol.frames"] = per_send(c["wire_protocol.frames"])
    m["wire_protocol.frame_bytes"] = per_send(c["wire_protocol.frames.bytes"])
    m["node_runtime.on_new_block.calls"] = per_send(c["node_runtime.on_new_block"])
    m["node_runtime.on_new_block.ms"] = per_send(
        tracer.totals["node_runtime.on_new_block"] * 1e3)
    m["node_runtime.pool_depth.max"] = tracer.maxima.get(
        "node_runtime.pool_depth.max", 0)
    m["node_runtime.retry_rounds"] = per_send(sum(op.rounds - 1 for op in ok))
    m["node_runtime.events"] = per_send(run.extra.get("events", 0))
    m["node_runtime.threads.max"] = tracer.maxima.get("node_runtime.threads.max", 0)
    m["cli.seen_check.calls"] = per_send(c["cli.seen_check.calls"])
    m["cli.seen_check.lines"] = (c["cli.seen_check.lines"]
                                 / c["cli.seen_check.calls"]
                                 if c["cli.seen_check.calls"] else 0.0)
    m["simulator.world_build.s"] = statistics.median(
        run.extra.get("world_build_s", [0.0]))
    blocks = c["simulator.advance_block"]
    m["simulator.advance_block.ms"] = (
        tracer.total_s("simulator.advance_block") * 1e3 / blocks if blocks else 0.0)
    m["simulator.reconstruct.ms"] = (
        statistics.fmean(run.extra["reconstruct_s"]) * 1e3
        if run.extra.get("reconstruct_s") else 0.0)
    m["simulator.ledger_entries"] = per_send(run.extra.get("ledger_entries", 0))
    m["simulator.recovered_routes"] = per_send(run.extra.get("recovered_routes", 0))
    trials = run.extra.get("trials", 0)
    for name in ("estimate_srtr", "estimate_srd"):
        key = "simulator." + name
        m[key + ".us_per_trial"] = (tracer.totals[key] * 1e6 / (trials / 2)
                                    if trials else 0.0)
    return {name: m[name] for name, _ in PER_LAYER}
