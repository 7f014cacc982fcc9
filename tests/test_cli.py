"""Command-line surface, file adapters and a live multi-node exchange."""

import os
import random
import socket
import stat
import sys
import threading
import time

import pytest

from trr import ec_crypto as ec
from trr import node_runtime as nr
from trr.cli import (
    FileBlockClock,
    FileBroadcastView,
    _print_report,
    load_directory,
    main,
)
from trr.onion_routing import NodeDescriptor
from trr.wire_protocol import format_ipv4, parse_ipv4


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def save_directory(path: str, directory: list[NodeDescriptor]) -> None:
    """Write directory in the format load_directory reads."""
    with open(path, "w", encoding="ascii") as fh:
        for d in directory:
            fh.write(f"{d.node_id},{format_ipv4(d.ip)},{d.port},"
                     f"{ec.point_to_bytes(d.pubkey).hex()}\n")


def seed_send(monkeypatch, seed: int) -> None:
    """trr send draws every route, ack key and layer nonce from
    random.SystemRandom; a seeded stand-in fixes the routes."""
    monkeypatch.setattr("trr.cli.random.SystemRandom",
                        lambda: random.Random(seed))


class TestKeygen:
    def test_writes_parseable_keys(self, tmp_path, capsys):
        prefix = tmp_path / "node1"
        assert main(["keygen", "--out", str(prefix)]) == 0
        private = ec.private_from_bytes((tmp_path / "node1.key").read_bytes())
        public = ec.point_from_bytes((tmp_path / "node1.pub").read_bytes())
        assert ec.scalar_mul(private, ec.G) == public
        printed = f"public:  {ec.point_to_bytes(public).hex()}\n"
        assert printed in capsys.readouterr().out

    def test_private_key_is_owner_only(self, tmp_path):
        old = tmp_path / "old.key"
        old.write_bytes(b"an older key")
        old.chmod(0o644)
        for prefix in ("new", "old"):
            assert main(["keygen", "--out", str(tmp_path / prefix)]) == 0
            mode = os.stat(tmp_path / f"{prefix}.key").st_mode
            assert stat.S_IMODE(mode) == 0o600, prefix
        assert len(old.read_bytes()) != len(b"an older key")

    def test_two_runs_distinct(self, tmp_path):
        main(["keygen", "--out", str(tmp_path / "a")])
        main(["keygen", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a.key").read_bytes() != (tmp_path / "b.key").read_bytes()


class TestDirectoryFiles:
    def test_roundtrip(self, tmp_path):
        rng = random.Random(1)
        directory = [NodeDescriptor(node_id=f"n{i}", ip=parse_ipv4(f"10.0.0.{i+1}"),
                                    port=8000 + i, pubkey=ec.keygen(rng).public)
                     for i in range(4)]
        path = tmp_path / "nodes.csv"
        save_directory(str(path), directory)
        loaded = load_directory(str(path))
        assert loaded == directory

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("n0,10.0.0.1,8000,zznothex\n")
        with pytest.raises(ValueError, match="nodes.csv:1"):
            load_directory(str(path))

    @pytest.mark.parametrize("port", ["0", "65536", "70000", "08000", "+8000",
                                      " 8000", "8_000", "-1"])
    def test_bad_port_rejected(self, tmp_path, port):
        pubkey = ec.keygen(random.Random(3)).public
        path = tmp_path / "nodes.csv"
        path.write_text(f"n0,10.0.0.1,{port},"
                        f"{ec.point_to_bytes(pubkey).hex()}\n")
        with pytest.raises(ValueError, match="nodes.csv:1"):
            load_directory(str(path))

    @pytest.mark.parametrize("key_hex", [
        "aa" * 32,  # an x without its parity prefix
        "02" + "ff" * 32,  # an x at or above the field prime
    ])
    def test_bad_pubkey_reports_line(self, tmp_path, key_hex):
        path = tmp_path / "nodes.csv"
        path.write_text(f"# header\nn0,10.0.0.1,8000,{key_hex}\n")
        with pytest.raises(ValueError, match="nodes.csv:2: bad directory"):
            load_directory(str(path))

    def test_non_ascii_byte_reports_line(self, tmp_path):
        # an Arabic-Indic 8 in the port field, on the file's second line
        pubkey = ec.keygen(random.Random(4)).public
        path = tmp_path / "nodes.csv"
        path.write_text(f"# header\nn0,10.0.0.1,800\u0668,"
                        f"{ec.point_to_bytes(pubkey).hex()}\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match="nodes.csv:2: bad directory record") as info:
            load_directory(str(path))
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("second, repeated", [
        ("n0,10.0.0.2,8000,{k1}", "node id"),
        ("n1,10.0.0.1,8000,{k1}", "address"),
        ("n1,10.0.0.2,8000,{k0}", "public key"),
    ])
    def test_node_listed_twice_rejected(self, tmp_path, second, repeated):
        rng = random.Random(5)
        k0, k1 = (ec.point_to_bytes(ec.keygen(rng).public).hex()
                  for _ in range(2))
        path = tmp_path / "nodes.csv"
        path.write_text(f"n0,10.0.0.1,8000,{k0}\n# listed again:\n"
                        + second.format(k0=k0, k1=k1) + "\n")
        with pytest.raises(ValueError, match="nodes.csv:3: bad directory "
                           f"record .*{repeated}"):
            load_directory(str(path))

    def test_comments_and_blanks_skipped(self, tmp_path):
        rng = random.Random(2)
        d = NodeDescriptor("x", parse_ipv4("10.0.0.1"), 1, ec.keygen(rng).public)
        path = tmp_path / "nodes.csv"
        path.write_text("# header\n\n" + f"x,10.0.0.1,1,"
                        f"{ec.point_to_bytes(d.pubkey).hex()}\n")
        assert load_directory(str(path)) == [d]


class TestFileAdapters:
    def test_broadcast_view(self, tmp_path):
        view = FileBroadcastView(str(tmp_path / "log"))
        assert not view.seen_in_blockchain_or_mempool(nr.txid(b"tx1"))
        view.broadcast(b"tx1")
        assert view.seen_in_blockchain_or_mempool(nr.txid(b"tx1"))
        assert not view.seen_in_blockchain_or_mempool(nr.txid(b"tx2"))
        assert view.verify(b"tx1")
        assert not view.verify(b"")

    def test_broadcast_view_waits_for_a_complete_line(self, tmp_path):
        path = tmp_path / "log"
        view = FileBroadcastView(str(path))
        line = f"{nr.txid(b'tx1').hex()} {b'tx1'.hex()}\n"
        path.write_text(line[:20])  # the writer is mid-line
        assert not view.seen_in_blockchain_or_mempool(nr.txid(b"tx1"))
        with open(path, "a", encoding="ascii") as fh:
            fh.write(line[20:])
        assert view.seen_in_blockchain_or_mempool(nr.txid(b"tx1"))

    def test_broadcast_view_reads_other_writers(self, tmp_path):
        path = str(tmp_path / "log")
        reader, writer = FileBroadcastView(path), FileBroadcastView(path)
        writer.broadcast(b"tx1")
        assert reader.seen_in_blockchain_or_mempool(nr.txid(b"tx1"))
        assert not reader.seen_in_blockchain_or_mempool(nr.txid(b"tx2"))
        writer.broadcast(b"tx2")
        assert reader.seen_in_blockchain_or_mempool(nr.txid(b"tx2"))
        assert reader.seen_in_blockchain_or_mempool(nr.txid(b"tx1"))

    def test_broadcast_view_shared_by_threads(self, tmp_path):
        # one view read by many threads while others append to its log:
        # a read racing another must neither skip nor split a line
        path = str(tmp_path / "log")
        shared = FileBroadcastView(path)
        txs = [bytes([i]) * 40 for i in range(1, 241)]
        missed = []

        def writer(chunk):
            view = FileBroadcastView(path)
            for tx in chunk:
                view.broadcast(tx)
                if not shared.seen_in_blockchain_or_mempool(nr.txid(tx)):
                    missed.append(tx)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(txs[i::8],))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert missed == []
        assert not shared.seen_in_blockchain_or_mempool(nr.txid(b"never"))
        assert shared._offset == os.path.getsize(path)

    def test_broadcast_view_missing_file(self, tmp_path):
        path = tmp_path / "absent" / "log"
        view = FileBroadcastView(str(path))
        assert not view.seen_in_blockchain_or_mempool(nr.txid(b"tx1"))
        path.parent.mkdir()
        FileBroadcastView(str(path)).broadcast(b"tx1")
        assert view.seen_in_blockchain_or_mempool(nr.txid(b"tx1"))

    def test_block_clock(self, tmp_path):
        path = tmp_path / "height"
        clock = FileBlockClock(str(path), timeout=1.0)
        assert clock.height() == 0
        path.write_text("7\n")
        assert clock.height() == 7
        clock.wait_for(7)  # returns immediately

    def test_block_clock_wait_gives_up_quietly(self, tmp_path, monkeypatch):
        monkeypatch.setattr(nr, "POLL_INTERVAL_S", 0.01)
        clock = FileBlockClock(str(tmp_path / "h"), timeout=0.05)
        start = time.monotonic()
        clock.wait_for(3)
        assert time.monotonic() - start < 1.0


class TestBench:
    def test_small_bench(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "8,64", "--layers", "2",
                     "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "size,cipher_len,growth_ratio,encrypt_s,decrypt_s"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [8, 64]
        assert float(rows[0][2]) > float(rows[1][2])  # ratio decreasing
        out = capsys.readouterr().out
        assert "ratio" in out

    def test_failed_round_trip_is_fatal(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ec, "elgamal_decrypt",
                            lambda cipher, private: b"not the plaintext")
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "8", "--layers", "1",
                     "--csv", str(csv_path)]) == 1
        assert "FATAL: round-trip failed at size 8" in capsys.readouterr().err
        assert not csv_path.exists()


class TestArgumentChecks:
    @pytest.mark.parametrize("argv", [
        ["bench", "--sizes", "0", "--layers", "1"],
        ["bench", "--sizes", "8,-1"],
        ["bench", "--layers", "0"],
        ["node", "--timeout", "-1"],
        ["node", "--timeout", "0"],
        ["node", "--timeout", "nan"],
        ["node", "--listen", "127.0.0.1"],
        ["node", "--listen", "127.0.0.1:0"],
        ["node", "--listen", "127.0.0.1:99999"],
        ["node", "--listen", "localhost:9001"],
        ["send", "--timeout", "inf"],
        ["send", "--wait-timeout", "0"],
    ], ids=" ".join)
    def test_rejected_before_any_work(self, tmp_path, monkeypatch, capsys,
                                      argv):
        monkeypatch.chdir(tmp_path)
        files = {"node": ["--key", "relay", "--listen", "127.0.0.1:9001",
                          "--broadcast", "bc", "--block-file", "height"],
                 "send": ["--tx", "tx.bin", "--directory", "nodes.csv",
                          "--broadcast", "bc", "--block-file", "height"],
                 "bench": []}[argv[0]]
        with pytest.raises(SystemExit) as exc:
            main(argv + files)
        assert exc.value.code == 2
        flag = next(a for a in argv if a.startswith("--"))
        assert f"error: argument {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--delay", "0"],
        ["--delay", "1,9"],
        ["--routes", "0"],
        ["--hops", "11"],
        ["--retries", "0"],
    ], ids=" ".join)
    def test_bad_policy_refused_before_any_file(self, tmp_path, monkeypatch,
                                                capsys, argv):
        # the named files do not exist: reading either would exit 1
        monkeypatch.chdir(tmp_path)
        code = main(["send", *argv, "--tx", "tx.bin", "--directory",
                     "nodes.csv", "--broadcast", "bc", "--block-file",
                     "height"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_zero_trials_invalid(self, capsys):
        assert main(["simulate", "--trials", "0"]) == 2
        assert "InvalidConfig" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--hops", "11"],
        ["--dishonest", "1.5"],
        ["--routes", "0"],
        ["--nodes", "2", "--hops", "3"],
    ], ids=" ".join)
    def test_refused_grid_point_exits_2(self, tmp_path, capsys, argv):
        csv_path = tmp_path / "rates.csv"
        assert main(["simulate", *argv, "--csv", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidConfig: ")
        assert err.count("\n") == 1
        assert not csv_path.exists()

    def test_small_run_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "rates.csv"
        code = main(["simulate", "--nodes", "500", "--dishonest", "0.1",
                     "--routes", "2,3", "--hops", "2", "--trials", "2000",
                     "--seed", "9", "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 3  # header + 2 grid points
        assert lines[0].endswith("srd_se")
        err = capsys.readouterr().err
        assert "mc-cf delta" in err

    def test_deterministic_given_seed(self, tmp_path, capsys):
        args = ["simulate", "--nodes", "300", "--fake", "0.2", "--routes", "2",
                "--hops", "3", "--trials", "1500", "--seed", "12"]
        main(args + ["--csv", str(tmp_path / "a.csv")])
        main(args + ["--csv", str(tmp_path / "b.csv")])
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


class TestBenchDeterminism:
    def test_sizes_and_growth_stable_across_runs(self, tmp_path, capsys):
        for name in ("x.csv", "y.csv"):
            main(["bench", "--sizes", "8,32", "--layers", "2",
                  "--csv", str(tmp_path / name)])
        capsys.readouterr()
        strip_timing = [row.split(",")[:3] for row in
                        (tmp_path / "x.csv").read_text().strip().split("\n")]
        strip_timing_y = [row.split(",")[:3] for row in
                          (tmp_path / "y.csv").read_text().strip().split("\n")]
        assert strip_timing == strip_timing_y


class TestNode:
    def test_serves_loaded_key_at_listen_address(self, tmp_path, monkeypatch,
                                                 capsys):
        prefix = tmp_path / "relay"
        assert main(["keygen", "--out", str(prefix)]) == 0
        public = ec.point_from_bytes((tmp_path / "relay.pub").read_bytes())
        (tmp_path / "block").write_text("7\n")
        served = []
        monkeypatch.setattr(nr, "run_node_server", lambda node, host, port, *,
                            on_listening, clock, **kwargs:
                            served.append((node, host, port, clock))
                            or on_listening())
        assert main(["node", "--key", str(prefix), "--listen", "127.0.0.1:9001",
                     "--node-id", "relay", "--broadcast", str(tmp_path / "bc"),
                     "--block-file", str(tmp_path / "block")]) == 0
        ((node, host, port, clock),) = served
        assert (host, port) == ("127.0.0.1", 9001)
        assert node.keypair.public == public
        assert node.descriptor == NodeDescriptor(
            node_id="relay", ip=parse_ipv4("127.0.0.1"), port=9001,
            pubkey=public)
        assert node.height == 7
        assert clock.height() == 7  # the node follows the block file
        assert ec.point_to_bytes(public).hex() in capsys.readouterr().out

    @pytest.mark.parametrize("listen", ["127.0.0.1:70000", "127.0.0.1:0",
                                        "127.0.0.1:+80", "127.0.0.1:080",
                                        "010.0.0.1:8000"])
    def test_bad_listen_address_rejected(self, tmp_path, monkeypatch, capsys,
                                         listen):
        prefix = tmp_path / "relay"
        assert main(["keygen", "--out", str(prefix)]) == 0
        served = []
        monkeypatch.setattr(nr, "run_node_server", lambda *args, **kwargs:
                            served.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["node", "--key", str(prefix), "--listen", listen,
                  "--broadcast", str(tmp_path / "bc"),
                  "--block-file", str(tmp_path / "block")])
        assert exc.value.code == 2
        assert served == []
        assert "error: argument --listen" in capsys.readouterr().err

    def test_exits_1_when_it_cannot_listen(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setattr(nr, "POLL_INTERVAL_S", 0.05)
        prefix = tmp_path / "relay"
        assert main(["keygen", "--out", str(prefix)]) == 0
        codes = []
        with socket.create_server(("127.0.0.1", 0)) as held:
            port = held.getsockname()[1]
            runner = threading.Thread(target=lambda: codes.append(main([
                "node", "--key", str(prefix), "--listen", f"127.0.0.1:{port}",
                "--broadcast", str(tmp_path / "bc"),
                "--block-file", str(tmp_path / "block")])), daemon=True)
            runner.start()
            runner.join(timeout=10)
        assert not runner.is_alive(), "trr node still runs without a listener"
        assert codes == [1]
        out, err = capsys.readouterr()
        assert "Address already in use" in err
        assert "listening" not in out


@pytest.fixture
def cluster(tmp_path, monkeypatch):
    """Four live TCP nodes sharing a broadcast log and block file."""
    monkeypatch.setattr(nr, "POLL_INTERVAL_S", 0.05)
    rng = random.Random(0xBEEF)
    block_file = tmp_path / "height"
    block_file.write_text("0\n")
    broadcast = tmp_path / "broadcast.log"
    stop = threading.Event()
    directory = []
    threads = []
    for i in range(4):
        port = free_port()
        keypair = ec.keygen(rng)
        descriptor = NodeDescriptor(node_id=f"n{i}", ip=parse_ipv4("127.0.0.1"),
                                    port=port, pubkey=keypair.public)
        node = nr.TrrNode(keypair, descriptor, nr.TcpTransport(timeout=3.0),
                          FileBroadcastView(str(broadcast)),
                          random.Random(5000 + i))
        clock = FileBlockClock(str(block_file))
        thread = threading.Thread(
            target=nr.run_node_server, args=(node, "127.0.0.1", port),
            kwargs={"timeout": 3.0, "stop_event": stop, "clock": clock},
            daemon=True)
        thread.start()
        threads.append(thread)
        directory.append(descriptor)
    dir_path = tmp_path / "nodes.csv"
    save_directory(str(dir_path), directory)
    # wait until every node accepts connections
    deadline = time.monotonic() + 5
    for d in directory:
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", d.port), 0.2).close()
                break
            except OSError:
                time.sleep(0.05)
    yield {"dir": dir_path, "block": block_file, "broadcast": broadcast,
           "directory": directory, "stop": stop}
    stop.set()
    for t in threads:
        t.join(timeout=2)


class TestSendIntegration:
    def test_three_hop_send_releases_after_delay(self, cluster, tmp_path,
                                                 monkeypatch, capsys):
        seed_send(monkeypatch, 21)
        tx_path = tmp_path / "tx.bin"
        tx = random.Random(1).randbytes(200)
        tx_path.write_bytes(tx)

        ticker_stop = threading.Event()

        def tick_blocks():
            height = 0
            while height < 20 and not ticker_stop.is_set():
                time.sleep(0.25)
                height += 1
                cluster["block"].write_text(f"{height}\n")

        ticker = threading.Thread(target=tick_blocks, daemon=True)
        ticker.start()
        try:
            code = main(["send", "--tx", str(tx_path),
                         "--directory", str(cluster["dir"]),
                         "--routes", "1", "--hops", "3", "--delay", "1",
                         "--retries", "2", "--broadcast", str(cluster["broadcast"]),
                         "--block-file", str(cluster["block"]),
                         "--timeout", "3", "--wait-timeout", "10"])
        finally:
            ticker_stop.set()
            ticker.join(timeout=2)
        out = capsys.readouterr().out
        assert code == 0, out
        assert "success=True" in out
        log_text = cluster["broadcast"].read_text()
        assert nr.txid(tx).hex() in log_text

    def test_oversized_tx_rejected_before_network(self, cluster, tmp_path, capsys):
        tx_path = tmp_path / "big.bin"
        tx_path.write_bytes(bytes(10241))
        code = main(["send", "--tx", str(tx_path),
                     "--directory", str(cluster["dir"]),
                     "--routes", "1", "--hops", "2", "--delay", "1",
                     "--broadcast", str(cluster["broadcast"]),
                     "--block-file", str(cluster["block"])])
        assert code == 2
        assert "SizeMismatch" in capsys.readouterr().err

    def test_empty_tx_rejected_before_network(self, cluster, tmp_path, capsys):
        tx_path = tmp_path / "empty.bin"
        tx_path.write_bytes(b"")
        code = main(["send", "--tx", str(tx_path),
                     "--directory", str(cluster["dir"]),
                     "--routes", "1", "--hops", "2", "--delay", "1",
                     "--retries", "1", "--broadcast", str(cluster["broadcast"]),
                     "--block-file", str(cluster["block"]),
                     "--wait-timeout", "0.5"])
        assert code == 2
        assert "SizeMismatch" in capsys.readouterr().err

    def test_dead_hop_surfaces_ack_error(self, cluster, tmp_path, monkeypatch,
                                         capsys):
        # a directory of one live node and one dead one, two hops: the
        # relayed ack must carry the unreachable hop's address
        rng = random.Random(77)
        dead = NodeDescriptor(node_id="dead", ip=parse_ipv4("127.0.0.1"),
                              port=free_port(), pubkey=ec.keygen(rng).public)
        pair_path = tmp_path / "pair.csv"
        save_directory(str(pair_path), [cluster["directory"][0], dead])
        tx_path = tmp_path / "tx2.bin"
        tx_path.write_bytes(b"\x01" * 64)
        seed = None
        for candidate in range(50):  # find a seed routing live -> dead
            probe = random.Random(candidate)
            sample = probe.sample([0, 1], 2)
            if sample == [0, 1]:
                seed = candidate
                break
        assert seed is not None
        seed_send(monkeypatch, seed)
        code = main(["send", "--tx", str(tx_path),
                     "--directory", str(pair_path),
                     "--routes", "1", "--hops", "2", "--delay", "1",
                     "--retries", "1", "--broadcast", str(cluster["broadcast"]),
                     "--block-file", str(cluster["block"]),
                     "--timeout", "2", "--wait-timeout", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert f"errno={nr.ERR_UNREACHABLE}" in captured.out
        assert "err=127.0.0.1" in captured.out

    @pytest.mark.parametrize("error", ["PeerClosed: gone", "TrrTimeout: late"])
    def test_report_names_attempt_without_ack(self, capsys, error):
        attempt = nr.RouteAttempt(hop_ids=("n0", "n1"), delay=2, error=error)
        report = nr.SendReport(txid=bytes(32), success=False, rounds=[
            nr.SendRound(dispatch_height=0, attempts=[attempt])])
        _print_report(report)
        assert (f"  round 1 delay 2 via n0>n1: no ack ({error})\n"
                in capsys.readouterr().out)

    def test_send_takes_no_seed(self, capsys):
        # a guessable seed would fix every ack key and layer nonce
        with pytest.raises(SystemExit) as exc:
            main(["send", "--tx", "tx.bin", "--directory", "nodes.csv",
                  "--broadcast", "log", "--block-file", "height",
                  "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
