"""The benchmark's four workloads.

Each workload builds its inputs from the run's seed, sets up several
times (the median is ``setup_s``), runs whole rounds of the same
operations until the run length has passed, and checks every output
against checks.py.  It returns a Run: one latency per operation, the
problems found, and what the traced run needs to derive per-layer
metrics.

The machine this benchmark was built on is shared, and its speed drifts
by a third and more over seconds to minutes.  So a run is cut into
phases of about PHASE_S seconds, and between phases, while the process
is otherwise idle, it times a fixed kernel of the same kinds of work
(256-bit modular squarings and seeded sampling into dicts) that does
not touch ``trr``.  Each phase's and each set-up's times are
later scaled to the speed at which that kernel takes REFERENCE_KERNEL_S,
using the kernel timings on either side of it.
"""

import gc
import hashlib
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import checks
from trr import simulator
from trr.cli import FileBlockClock, FileBroadcastView
from trr.ec_crypto import keygen
from trr.errors import GiveUp, TrrError
from trr.node_runtime import (SendPolicy, TcpTransport, TrrNode, client_send,
                              run_node_server)
from trr.onion_routing import NodeDescriptor
from trr.wire_protocol import parse_ipv4

SETUP_REPEATS = 5
WORLD_SETUP_REPEATS = 3  # one 6000-node world takes several seconds

RELAY_NODES = 8
RELAY_TIMEOUT_S = 20.0
LOOPBACK = "127.0.0.1"
# Transaction sizes, taken in turn by each client, so runs of any seed
# measure the same mix and equal lengths recur for the onion-size check.
SMALL_SIZES = (224, 250, 276)
BULK_SIZES = (8192, 9216, 10240)
SMALL_POLICY = SendPolicy(num_routes=3, hops=3, delays=(1, 3, 5), retry_rounds=3)
BULK_POLICY = SendPolicy(num_routes=2, hops=5, delays=(1, 3, 5), retry_rounds=3)
SMALL_CLIENTS = 2

WORLD_NODES = 6000
WORLD_FAKE_RATE = 0.2
WORLD_DISHONEST_RATE = 0.1
# A round of 3 routes fails when every route meets a dishonest hop, about
# 1 in 80 at these rates; four rounds make a GiveUp rarer than 1 in 10^7
# sends, so no seed's run loses a send to bad luck.
WORLD_POLICY = SendPolicy(num_routes=3, hops=3, delays=(1, 3, 5), retry_rounds=4)

GRID_RATES = (0.1, 0.2, 0.3)
GRID_HOPS = (2, 3, 4, 5)
GRID_ROUTES = (1, 2, 3)
GRID_TRIALS = 1000  # per estimator call
# Pooled estimates must lie within this many standard errors of the
# closed form: at 5 SE, 72 checks fail together with probability ~4e-5.
GRID_SE_MULTIPLE = 5.0


def derive_seed(*parts) -> int:
    """64-bit seed for one input stream of a run."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Op:
    """One timed operation."""

    start: float
    end: float
    ok: bool
    tx_len: int = 0
    rounds: int = 0
    onion_sizes: tuple = ()
    phase: int = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


PHASE_S = 2.0
GATE_TIMEOUT_S = 150.0  # longest a relay phase may take
CALIBRATION_MODULUS = 2 ** 255 - 19
CALIBRATION_SQUARINGS = 3000
CALIBRATION_DRAWS = 60
CALIBRATION_REPEATS = 25
REFERENCE_KERNEL_S = 0.003


def _kernel() -> None:
    """256-bit modular squarings, the work of curve arithmetic, then seeded
    sampling into dicts, the work of the estimators."""
    x = 3
    for _ in range(CALIBRATION_SQUARINGS):
        x = x * x % CALIBRATION_MODULUS
    population = range(6000)
    for i in range(CALIBRATION_DRAWS):
        rng = random.Random(i)
        seen = {}
        for node in rng.sample(population, 9):
            seen.setdefault(node, rng.random())


def calibrate() -> float:
    """Median time of the calibration kernel, in seconds."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Run:
    setup_s: list[float] = field(default_factory=list)
    setup_speed: list[float] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)  # per phase
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)  # per-layer figures measured here
    _kernel_s: float = field(default_factory=calibrate)  # latest calibration

    def _speed_since_last(self) -> float:
        """Reference kernel time over the mean of the kernel timings before
        and after the stretch that just ended."""
        before, self._kernel_s = self._kernel_s, calibrate()
        return REFERENCE_KERNEL_S / ((before + self._kernel_s) / 2)

    def setup(self, build):
        """Time one set-up; returns what build() returned."""
        start = time.perf_counter()
        built = build()
        self.setup_s.append(time.perf_counter() - start)
        self.setup_speed.append(self._speed_since_last())
        return built

    def phases(self, seconds: float, one_phase) -> None:
        """Call one_phase(phase index), which runs whole rounds for about
        PHASE_S seconds, until seconds have passed."""
        deadline = time.perf_counter() + seconds
        while True:
            one_phase(len(self.speed))
            self.speed.append(self._speed_since_last())
            if time.perf_counter() >= deadline:
                return


def _timed_rounds(seconds: float, one_round) -> None:
    """Call one_round until seconds have passed; a round is one send, or
    one pass over the Monte Carlo grid, and is never cut."""
    deadline = time.perf_counter() + seconds
    while True:
        one_round()
        if time.perf_counter() >= deadline:
            return


# -- relays over loopback TCP ---------------------------------------------------

def _free_port() -> int:
    with socket.socket() as s:
        s.bind((LOOPBACK, 0))
        return s.getsockname()[1]


def _wait_listening(port: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            socket.create_connection((LOOPBACK, port), timeout=1.0).close()
            return
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.001)


class BlockSource:
    """Block producer owned by the benchmark.

    The height lives in a file that clients read through FileBlockClock,
    as ``trr send`` does.  A client that waits mines the missing blocks at
    once and calls on_new_block on every node, so block time is zero.
    Blocks are mined only while no client sits between reading the height
    and waiting, so a node never enqueues a release at a later height than
    its client dispatched at.  A client that waits holds back new
    dispatches until it has mined, so no client starves another.
    """

    def __init__(self, height_path: str, log_path: str, nodes):
        self._file = FileBlockClock(height_path)
        self._height_path = height_path
        self._log_path = log_path
        self.nodes = nodes
        self._cond = threading.Condition()
        self._dispatching: set[int] = set()
        self._waiting = 0
        self.log_marks: list[tuple[int, int]] = []  # (height, log size after)
        self._write(0)

    def _write(self, height: int) -> None:
        with open(self._height_path, "w", encoding="ascii") as fh:
            fh.write(f"{height}\n")

    def height(self) -> int:
        with self._cond:
            self._cond.wait_for(lambda: not self._waiting)
            self._dispatching.add(threading.get_ident())
            return self._file.height()

    def done(self) -> None:
        """The calling client dispatches nothing until it reads the height."""
        with self._cond:
            self._dispatching.discard(threading.get_ident())
            self._cond.notify_all()

    def wait_for(self, height: int) -> None:
        with self._cond:
            self._dispatching.discard(threading.get_ident())
            self._waiting += 1
            self._cond.wait_for(lambda: not self._dispatching)
            current = self._file.height()
            while current < height:
                current += 1
                self._write(current)
                for node in self.nodes:
                    node.on_new_block(current)
                size = os.path.getsize(self._log_path) \
                    if os.path.exists(self._log_path) else 0
                self.log_marks.append((current, size))
            self._waiting -= 1
            self._cond.notify_all()

    def release_heights(self, text: str) -> list[int]:
        """Height at which each line of the broadcast log was appended."""
        heights, offset, marks = [], 0, iter(self.log_marks)
        height, size = next(marks, (None, 0))
        for line in text.splitlines(keepends=True):
            while height is not None and offset >= size:
                height, size = next(marks, (None, 0))
            heights.append(height)
            offset += len(line)
        return heights


class Network:
    """RELAY_NODES TrrNodes behind run_node_server on loopback TCP, sharing
    one broadcast log, wired as ``trr node`` wires them."""

    def __init__(self, rng: random.Random, workdir: str):
        os.makedirs(workdir)
        self.log_path = os.path.join(workdir, "broadcast.log")
        self.height_path = os.path.join(workdir, "height")
        self.stop = threading.Event()
        self.nodes, self.threads, self.directory = [], [], []
        ip = parse_ipv4(LOOPBACK)
        for i in range(RELAY_NODES):
            keypair = keygen(rng)
            port = _free_port()
            descriptor = NodeDescriptor(node_id=f"n{i}", ip=ip, port=port,
                                        pubkey=keypair.public)
            node = TrrNode(keypair, descriptor, TcpTransport(RELAY_TIMEOUT_S),
                           FileBroadcastView(self.log_path),
                           random.Random(rng.getrandbits(64)))
            thread = threading.Thread(
                target=run_node_server, args=(node, LOOPBACK, port),
                kwargs={"timeout": RELAY_TIMEOUT_S, "stop_event": self.stop},
                daemon=True)
            thread.start()
            self.nodes.append(node)
            self.threads.append(thread)
            self.directory.append(descriptor)
        for d in self.directory:
            _wait_listening(d.port)
        self.blocks = BlockSource(self.height_path, self.log_path, self.nodes)

    def close(self) -> None:
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=5)


def _join_connection_threads(timeout: float = 10.0) -> None:
    """Wait for the per-connection threads run_node_server started."""
    deadline = time.monotonic() + timeout
    for thread in threading.enumerate():
        if thread.name.endswith("(serve_connection)"):
            thread.join(max(0.0, deadline - time.monotonic()))


class FirstHopRecorder:
    """Client transport that notes the size of every onion it sends."""

    def __init__(self, inner):
        self.inner = inner
        self.sizes: list[int] = []

    def request(self, ip, port, packet, src_addr=None):
        self.sizes.append(len(packet))
        return self.inner.request(ip, port, packet, src_addr=src_addr)


def _relay(seed: int, seconds: float, workdir: str, sizes, policy, clients,
           tracer, layers) -> Run:
    run = Run()
    nets = [run.setup(lambda i=i: Network(
        random.Random(derive_seed(seed, "network")),
        os.path.join(workdir, f"net{i}"))) for i in range(SETUP_REPEATS)]
    for net in nets[:-1]:
        net.stop.set()
    for net in nets[:-1]:
        net.close()
    net = nets[-1]
    if tracer is not None:
        layers.instrument_modules(tracer)
        layers.instrument_nodes(tracer, net.nodes)
    sends = []  # (tx, report)
    lock = threading.Lock()
    # Clients and the main thread meet at the gate at the start and at the
    # end of every phase; phase[0] is None when the run is over.
    gate = threading.Barrier(clients + 1, timeout=GATE_TIMEOUT_S)
    phase = [None]

    def client(index: int) -> None:
        rng = random.Random(derive_seed(seed, "client", index))
        transport = TcpTransport(RELAY_TIMEOUT_S)
        view = FileBroadcastView(net.log_path)
        if tracer is not None:
            layers.instrument_transport(tracer, transport)
            layers.instrument_view(tracer, view)
        recorder = FirstHopRecorder(transport)
        sent = [0]

        def one_send():
            tx = rng.randbytes(sizes[sent[0] % len(sizes)])
            recorder.sizes.clear()
            if tracer is not None:
                tracer.begin_send((index, sent[0]))
            sent[0] += 1
            start = time.perf_counter()
            try:
                report = client_send(tx, net.directory, policy, rng,
                                     transport=recorder, view=view,
                                     clock=net.blocks)
            except GiveUp as exc:
                report = exc.report
            except TrrError as exc:
                report = None
                run.problems.append(f"send raised {exc!r}")
            finally:
                net.blocks.done()
            end = time.perf_counter()
            ok = report is not None and _relay_send_ok(report)
            with lock:
                run.ops.append(Op(start, end, ok, len(tx),
                                  report.total_rounds if report else 0,
                                  tuple(recorder.sizes), phase[0]))
                if report is not None:
                    sends.append((tx, report))

        try:
            while True:
                gate.wait()
                if phase[0] is None:
                    return
                _timed_rounds(PHASE_S, one_send)
                gate.wait()
        except threading.BrokenBarrierError:
            return
        except Exception:  # the run must end and report, not hang
            run.problems.append(f"client {index} crashed:\n"
                                f"{traceback.format_exc()}")
            gate.abort()

    def one_phase(index: int) -> None:
        phase[0] = index
        gate.wait()  # clients start the phase
        gate.wait()  # clients finished their last round

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    try:
        run.phases(seconds, one_phase)
        phase[0] = None
        gate.wait()
    except threading.BrokenBarrierError:
        run.problems.append("a client stopped before the run ended")
    for thread in threads:
        thread.join()
    net.close()
    _join_connection_threads()

    with open(net.log_path, encoding="ascii") as fh:
        text = fh.read()
    run.problems += checks.check_broadcast_log(
        checks.parse_broadcast_log(text), net.blocks.release_heights(text),
        [(tx, rep.rounds[0].dispatch_height, min(policy.delays))
         for tx, rep in sends])
    run.problems += _check_onion_sizes(run.ops)
    run.extra["events"] = sum(len(n.events) for n in net.nodes)
    return run


def _relay_send_ok(report) -> bool:
    """Released in the first round, with every route acked errno 0."""
    return (report.success and report.total_rounds == 1
            and all(a.ack is not None and a.ack.errno == 0
                    for a in report.rounds[0].attempts))


def _check_onion_sizes(ops) -> list[str]:
    """Transactions of equal length give onions of equal size."""
    by_len: dict[int, set] = {}
    for op in ops:
        by_len.setdefault(op.tx_len, set()).update(op.onion_sizes)
    return [f"{tx_len} B transactions gave onions of sizes {sorted(s)}"
            for tx_len, s in by_len.items() if len(s) != 1]


def relay_small(seed, seconds, workdir, tracer=None, layers=None) -> Run:
    return _relay(seed, seconds, workdir, SMALL_SIZES, SMALL_POLICY,
                  SMALL_CLIENTS, tracer, layers)


def relay_bulk(seed, seconds, workdir, tracer=None, layers=None) -> Run:
    return _relay(seed, seconds, workdir, BULK_SIZES, BULK_POLICY, 1,
                  tracer, layers)


# -- the simulated world --------------------------------------------------------

def sim_world(seed, seconds, workdir, tracer=None, layers=None) -> Run:
    """Build the world WORLD_SETUP_REPEATS times and send on each build for
    an equal share of the run, so the sends span the whole run and not
    only its last part."""
    cfg = simulator.SimConfig(n_nodes=WORLD_NODES,
                              dishonest_rate=WORLD_DISHONEST_RATE,
                              fake_rate=WORLD_FAKE_RATE,
                              seed=derive_seed(seed, "world") >> 1)
    run = Run()
    run.extra.update(world_build_s=run.setup_s, events=0, reconstruct_s=[],
                     ledger_entries=0, recovered_routes=0)
    rng = random.Random(derive_seed(seed, "client"))
    if tracer is not None:
        layers.instrument_modules(tracer)
    for _ in range(WORLD_SETUP_REPEATS):
        gc.collect()  # the previous world holds reference cycles
        if tracer is not None:
            tracer.paused = True
        world = run.setup(lambda: simulator.SimWorld(cfg))
        if tracer is not None:
            layers.instrument_world(tracer, world)
            tracer.paused = False
        _send_on_world(world, rng, seconds / WORLD_SETUP_REPEATS, run, tracer)
        world = None
    return run


def _send_on_world(world, rng, seconds, run, tracer) -> None:
    sends = []  # (txid, report)

    def one_send(phase):
        tx = rng.randbytes(SMALL_SIZES[len(run.ops) % len(SMALL_SIZES)])
        if tracer is not None:
            tracer.begin_send(len(run.ops))
        start = time.perf_counter()
        try:
            report = world.send(tx, WORLD_POLICY, rng=rng)
        except GiveUp as exc:
            report = exc.report
        end = time.perf_counter()
        tid = checks.txid(tx)
        ok = report.success and _first_spreader_ok(world, tid, report)
        run.ops.append(Op(start, end, ok, len(tx), report.total_rounds,
                          phase=phase))
        sends.append((tid, report))

    run.phases(seconds, lambda phase: _timed_rounds(
        PHASE_S, lambda: one_send(phase)))

    start = time.perf_counter()
    recovered = world.attack_ledger.reconstruct(world.client_addr)
    run.extra["reconstruct_s"].append(time.perf_counter() - start)
    routes = []
    for tid, report in sends:
        for rnd in report.rounds:
            for attempt in rnd.attempts:
                hops = [world.nodes[i] for i in attempt.hop_ids]
                routes.append(([(n.descriptor.ip, n.descriptor.port) for n in hops],
                               tid, [n.behavior for n in hops]))
    run.problems += checks.check_reconstruction(recovered, routes)
    released = Counter(tid for _, _, tid in world.broadcast.log)
    for tid, _ in sends:
        if released[tid] != 1:
            run.problems.append(f"tx {tid.hex()[:16]} broadcast "
                                f"{released[tid]} times")
    real = {(tuple(chain), tid) for chain, tid, _ in routes}
    run.extra["events"] += sum(len(n.events) for n in world.nodes)
    run.extra["ledger_entries"] += len(world.attack_ledger.entries)
    run.extra["recovered_routes"] += sum(
        (tuple(chain), tid) in real for chain, tid in recovered)


def _first_spreader_ok(world, tid: bytes, report) -> bool:
    """The Sybil observer's first announcer is a releasing hop of this
    send, never the client."""
    hits = [(tick, origin) for tick, origin, t in world.broadcast.log if t == tid]
    if not hits:
        return False
    first = min(hits, key=lambda h: (h[0], str(h[1])))[1]
    releasing = {a.hop_ids[-1] for rnd in report.rounds for a in rnd.attempts}
    return first != "client" and first in releasing


# -- Monte Carlo grid -----------------------------------------------------------

GRID = [(rate, hops, routes) for rate in GRID_RATES for hops in GRID_HOPS
        for routes in GRID_ROUTES]


def _import_estimators(src: str) -> None:
    """Start a fresh interpreter that imports the estimators, which is all
    this workload sets up.  Waiting without a timeout keeps the wait a
    blocking one: a timeout makes subprocess poll in 50 ms steps."""
    subprocess.run([sys.executable, "-c", "import trr.simulator, trr.analytics"],
                   env=dict(os.environ, PYTHONPATH=src), check=True)


def mc_grid(seed, seconds, workdir, tracer=None, layers=None) -> Run:
    src = os.path.dirname(os.path.dirname(os.path.abspath(simulator.__file__)))
    run = Run()
    for _ in range(SETUP_REPEATS):
        run.setup(lambda: _import_estimators(src))
    if tracer is not None:
        layers.instrument_modules(tracer)
        layers.instrument_estimators(tracer)
    estimates: dict[tuple, list[float]] = {}
    rounds = [0]

    def one_round(phase):
        for cell, (rate, hops, routes) in enumerate(GRID):
            cell_seed = derive_seed(seed, rounds[0], cell) >> 1
            for name, cfg in (
                    ("srtr", simulator.SimConfig(dishonest_rate=rate, hops=hops,
                                                 num_routes=routes,
                                                 trials=GRID_TRIALS,
                                                 seed=cell_seed)),
                    ("srd", simulator.SimConfig(fake_rate=rate, hops=hops,
                                                num_routes=routes,
                                                trials=GRID_TRIALS,
                                                seed=cell_seed))):
                estimate = getattr(simulator, "estimate_" + name)
                start = time.perf_counter()
                value = estimate(cfg)
                end = time.perf_counter()
                run.ops.append(Op(start, end, 0 <= value <= 1, phase=phase))
                estimates.setdefault((name, rate, hops, routes), []).append(value)
        rounds[0] += 1

    run.phases(seconds, lambda phase: _timed_rounds(
        PHASE_S, lambda: one_round(phase)))

    for (name, rate, hops, routes), values in estimates.items():
        reference = (checks.srtr_reference if name == "srtr"
                     else checks.srd_reference)(rate, hops, routes)
        for problem in checks.check_estimate(
                statistics.fmean(values), reference, GRID_TRIALS * len(values),
                GRID_SE_MULTIPLE):
            run.problems.append(f"{name} rate={rate} h={hops} r={routes}: "
                                f"{problem}")
    run.extra["trials"] = GRID_TRIALS * len(run.ops)
    return run


WORKLOADS = {
    "relay_small": relay_small,
    "relay_bulk": relay_bulk,
    "sim_world": sim_world,
    "mc_grid": mc_grid,
}


def cleanup(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
