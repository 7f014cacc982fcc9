"""Operator entry point.

Subcommands:

  keygen    write a fresh keypair to disk
  simulate  closed-form vs Monte Carlo release/deanonymization rates
  bench     multi-layer encryption growth and timing table
  node      run a relay node on a TCP socket
  send      push a transaction through local TRR nodes

``node`` and ``send`` replace the surrounding blockchain with two plain
files: an append-only broadcast log (one "txid_hex tx_hex" line per
released transaction) and a block-height file holding a single integer
that an operator, cron job or test advances by hand.
"""

import argparse
import logging
import math
import os
import random
import sys
import threading
import time

from . import analytics, ec_crypto, node_runtime, onion_routing, simulator
from .errors import (DelayOutOfRange, GiveUp, InvalidConfig, SizeMismatch,
                     TrrError)
from .wire_protocol import MAX_TX_SIZE, format_ipv4, parse_ipv4, parse_port

logger = logging.getLogger("trr.cli")


# -- file-backed adapters (blockchain stand-ins) ---------------------------

class FileBroadcastView:
    """Append-only log file standing in for the broadcast network.

    Seen txids are kept in a set; each check reads only the complete
    lines appended since the last read, by this view or any other.
    """

    def __init__(self, path: str):
        self.path = path
        self._seen: set[bytes] = set()  # txid hex, as logged
        self._offset = 0  # bytes of the log already read
        self._lock = threading.Lock()

    def broadcast(self, tx: bytes) -> None:
        tid = node_runtime.txid(tx)
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(f"{tid.hex()} {tx.hex()}\n")

    def seen_in_blockchain_or_mempool(self, txid: bytes) -> bool:
        want = txid.hex().encode("ascii")
        with self._lock:
            if want not in self._seen:
                self._read_new_lines()
            return want in self._seen

    def _read_new_lines(self) -> None:
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        with fh:
            fh.seek(self._offset)
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # a half-written last line waits
                self._seen.add(line.split(b" ", 1)[0])
                self._offset += len(line)

    def verify(self, tx: bytes) -> bool:
        return 0 < len(tx) <= MAX_TX_SIZE


class FileBlockClock:
    """Block height read from a single-integer file; waiting polls."""

    def __init__(self, path: str, timeout: float = 60.0):
        self.path = path
        self.timeout = timeout

    def height(self) -> int:
        try:
            with open(self.path, encoding="ascii") as fh:
                return int(fh.read().strip() or "0")
        except FileNotFoundError:
            return 0

    def wait_for(self, height: int) -> None:
        deadline = time.monotonic() + self.timeout
        while self.height() < height:
            if time.monotonic() > deadline:
                return  # callers re-check the broadcast view anyway
            time.sleep(node_runtime.POLL_INTERVAL_S)


# -- directory files --------------------------------------------------------

def load_directory(path: str) -> list[onion_routing.NodeDescriptor]:
    """One node per line: node_id,ip,port,pubkey_hex (compressed).  A
    node listed twice (same node id, ip:port or public key) is a bad
    record, since route selection samples lines, not nodes."""
    directory = []
    seen = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:  # a non-ASCII byte is a bad record too
                line = raw.decode("ascii").strip()
                if not line or line.startswith("#"):
                    continue
                node_id, ip, port, pubkey_hex = line.split(",")
                d = onion_routing.NodeDescriptor(
                    node_id=node_id, ip=parse_ipv4(ip), port=parse_port(port),
                    pubkey=ec_crypto.point_from_bytes(bytes.fromhex(pubkey_hex)))
                keys = {("node id", d.node_id), ("address", (d.ip, d.port)),
                        ("public key", d.pubkey)}
                if repeated := keys & seen:
                    raise ValueError("repeats an earlier record's " + ", ".join(
                        sorted(name for name, _ in repeated)))
                seen |= keys
                directory.append(d)
            except (ValueError, TrrError) as exc:
                raise ValueError(f"{path}:{lineno}: bad directory record "
                                 f"({exc})") from exc
    return directory


def _load_keypair(prefix: str) -> ec_crypto.KeyPair:
    with open(prefix + ".key", "rb") as fh:
        private = ec_crypto.private_from_bytes(fh.read())
    return ec_crypto.KeyPair(private, ec_crypto.scalar_mul(private, ec_crypto.G))


# -- subcommands -------------------------------------------------------------

def cmd_keygen(args) -> int:
    rng = random.SystemRandom()
    kp = ec_crypto.keygen(rng)
    pub = ec_crypto.point_to_bytes(kp.public)
    fd = os.open(args.out + ".key", os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                 0o600)
    os.fchmod(fd, 0o600)  # open's mode applies only to a new file
    with open(fd, "wb") as fh:
        fh.write(ec_crypto.private_to_bytes(kp.private))
    with open(args.out + ".pub", "wb") as fh:
        fh.write(pub)
    print(f"private: {args.out}.key")
    print(f"public:  {pub.hex()}")
    return 0


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not at least 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"{text} is not positive and finite")
    return value


def _positive_int_list(text: str) -> list[int]:
    return [_positive_int(part) for part in text.split(",")]


def _ip_port(text: str) -> tuple[int, int]:
    host, _, port = text.partition(":")
    try:
        return parse_ipv4(host), parse_port(port)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not ip:port ({exc})") from exc


def cmd_simulate(args) -> int:
    # each SimConfig checks itself before any trial runs
    grid = [simulator.SimConfig(n_nodes=args.nodes,
                                dishonest_rate=args.dishonest,
                                fake_rate=args.fake, num_routes=r, hops=h,
                                trials=args.trials, seed=args.seed)
            for h in args.hops for r in args.routes]
    csv_text = analytics.sweep(grid)
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    print(csv_text, end="")
    header, *rows = csv_text.strip().split("\n")
    cols = header.split(",")
    for row in rows:
        vals = dict(zip(cols, row.split(",")))
        print(f"# h={vals['h']} r={vals['r']}: "
              f"srtr mc-cf delta {float(vals['srtr_mc']) - float(vals['srtr_cf']):+.5f}, "
              f"srd mc-cf delta {float(vals['srd_mc']) - float(vals['srd_cf']):+.5f}",
              file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    rng = random.Random()
    keypairs = [ec_crypto.keygen(rng) for _ in range(args.layers)]
    rows = []
    for size in args.sizes:
        plain = rng.randbytes(size)
        t0 = time.perf_counter()
        blob = plain
        for kp in keypairs:
            blob = ec_crypto.serialize_cipher(
                ec_crypto.elgamal_encrypt(blob, kp.public, rng))
        t_enc = time.perf_counter() - t0
        cipher_len = len(blob)
        t0 = time.perf_counter()
        for kp in reversed(keypairs):
            blob = ec_crypto.elgamal_decrypt(
                ec_crypto.deserialize_cipher(blob), kp.private)
        t_dec = time.perf_counter() - t0
        if blob != plain:
            print(f"FATAL: round-trip failed at size {size}", file=sys.stderr)
            return 1
        rows.append((size, cipher_len, cipher_len / size, t_enc, t_dec))
    csv_lines = ["size,cipher_len,growth_ratio,encrypt_s,decrypt_s"]
    csv_lines += [f"{s},{c},{g:.6g},{te:.6g},{td:.6g}" for s, c, g, te, td in rows]
    csv_text = "\n".join(csv_lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    print(f"{'size':>8} {'cipher':>8} {'ratio':>8} {'enc s':>8} {'dec s':>8}")
    for s, c, g, te, td in rows:
        print(f"{s:>8} {c:>8} {g:>8.3f} {te:>8.3f} {td:>8.3f}")
    return 0


def cmd_node(args) -> int:
    ip, port = args.listen
    host = format_ipv4(ip)
    keypair = _load_keypair(args.key)
    view = FileBroadcastView(args.broadcast)
    descriptor = onion_routing.NodeDescriptor(
        node_id=args.node_id, ip=ip, port=port, pubkey=keypair.public)
    node = node_runtime.TrrNode(
        keypair, descriptor, node_runtime.TcpTransport(args.timeout), view)
    clock = FileBlockClock(args.block_file)
    node.height = clock.height()
    pubkey_hex = ec_crypto.point_to_bytes(keypair.public).hex()
    try:
        node_runtime.run_node_server(
            node, host, port, timeout=args.timeout,
            stop_event=threading.Event(), clock=clock,
            on_listening=lambda: print(f"node {args.node_id} listening on "
                                       f"{host}:{port}, pubkey {pubkey_hex}"))
    except KeyboardInterrupt:
        pass  # Ctrl-C is how an operator stops a node
    return 0


def cmd_send(args) -> int:
    # SendPolicy checks itself before any file is read
    policy = node_runtime.SendPolicy(
        num_routes=args.routes, hops=args.hops, delays=tuple(args.delay),
        retry_rounds=args.retries)
    with open(args.tx, "rb") as fh:
        tx = fh.read()
    directory = load_directory(args.directory)
    view = FileBroadcastView(args.broadcast)
    clock = FileBlockClock(args.block_file, timeout=args.wait_timeout)
    try:
        report = node_runtime.client_send(
            tx, directory, policy, random.SystemRandom(),
            transport=node_runtime.TcpTransport(args.timeout),
            view=view, clock=clock)
    except GiveUp as exc:
        _print_report(exc.report)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_report(report)
    return 0


def _print_report(report: node_runtime.SendReport) -> None:
    print(f"txid {report.txid.hex()}  success={report.success}  "
          f"rounds={report.total_rounds}")
    for i, rnd in enumerate(report.rounds, 1):
        for attempt in rnd.attempts:
            if attempt.ack is not None:
                detail = (f"ack errno={attempt.ack.errno} "
                          f"rpt={format_ipv4(attempt.ack.rpt_ip)} "
                          f"err={format_ipv4(attempt.ack.err_ip)} "
                          f"{attempt.ack.errmsg.decode('ascii', 'replace')}")
            else:
                detail = f"no ack ({attempt.error})"
            print(f"  round {i} delay {attempt.delay} via "
                  f"{'>'.join(str(h) for h in attempt.hop_ids)}: {detail}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trr", description="transaction remote release toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a keypair")
    p.add_argument("--out", required=True, help="path prefix for .key/.pub")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("simulate", help="closed form vs Monte Carlo rates")
    p.add_argument("--nodes", type=int, default=6000)
    p.add_argument("--dishonest", type=float, default=0.0)
    p.add_argument("--fake", type=float, default=0.0)
    p.add_argument("--routes", type=_int_list, default="3",
                   help="comma list, e.g. 1,2,3")
    p.add_argument("--hops", type=_int_list, default="3",
                   help="comma list, e.g. 2,3,4,5")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="also write the CSV table here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="layered encryption growth and timing")
    p.add_argument("--sizes", type=_positive_int_list,
                   default="8,32,64,128,256,1024,4096,10240")
    p.add_argument("--layers", type=_positive_int, default=5)
    p.add_argument("--csv", help="also write the CSV table here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("node", help="run a relay node")
    p.add_argument("--key", required=True, help="key path prefix (no .key)")
    p.add_argument("--listen", type=_ip_port, required=True, help="ip:port")
    p.add_argument("--node-id", default="node")
    p.add_argument("--broadcast", required=True, help="broadcast log file")
    p.add_argument("--block-file", required=True, help="block height file")
    p.add_argument("--timeout", type=_positive_float,
                   default=node_runtime.DEFAULT_TIMEOUT)
    p.set_defaults(func=cmd_node)

    p = sub.add_parser("send", help="send a transaction through TRR")
    p.add_argument("--tx", required=True, help="file with raw tx bytes")
    p.add_argument("--directory", required=True)
    p.add_argument("--routes", type=int, default=2)
    p.add_argument("--hops", type=int, default=3)
    p.add_argument("--delay", type=_int_list, default="1,3,5",
                   help="comma list cycled across routes")
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--broadcast", required=True, help="broadcast log file")
    p.add_argument("--block-file", required=True, help="block height file")
    p.add_argument("--timeout", type=_positive_float,
                   default=node_runtime.DEFAULT_TIMEOUT)
    p.add_argument("--wait-timeout", type=_positive_float, default=60.0,
                   help="max seconds to wait for the block file per round")
    p.set_defaults(func=cmd_send)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("TRR_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, DelayOutOfRange, SizeMismatch) as exc:
        # refused by SimConfig, SendPolicy or client_send's size check
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (TrrError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
