"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with -s to watch them live).

Criterion 1 carries two reference values (96.36 at r=2,h=2 and 83.22 at
r=2,h=5) that differ from the exact closed form by 0.029 and 0.010
percentage points, so the stated 0.01 pp tolerance cannot hold; those
two assertions are kept faithfully and marked as expected failures
rather than loosened.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from trr import ec_crypto as ec
from trr import node_runtime as nr
from trr import wire_protocol as wp
from trr.analytics import chain_coverage_prob, mixing_stats, srd_closed_form, srtr_closed_form
from trr.errors import InvalidConfig, TrrError
from trr.node_runtime import SendPolicy
from trr.onion_routing import MAX_HOPS, build_onion
from trr.simulator import SimConfig, SimWorld, estimate_srd, estimate_srtr, sybil_first_spreader

from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"


def check(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}{': ' + detail if detail else ''}")
    assert ok, f"{criterion}: {detail}"


def pct(x: float) -> float:
    return 100.0 * x


# -- criterion 1: SRTR closed form ------------------------------------------

REPRODUCIBLE_RELEASE_RATES = [
    # (d, r, h, reference %, tolerance in percentage points)
    (0.1, 2, 3, 92.65, 0.01),
    (0.1, 2, 4, 88.17, 0.01),
    (0.1, 3, 2, 99.31, 0.01),
    (0.1, 3, 3, 98.01, 0.01),
    (0.1, 3, 4, 95.93, 0.01),
    (0.1, 3, 5, 93.13, 0.01),
    (0.3, 3, 4, 56.1, 0.05),
    (0.3, 3, 5, 42.4, 0.05),
]


def test_criterion_1_srtr_closed_form():
    deltas = []
    for d, r, h, reference, tol in REPRODUCIBLE_RELEASE_RATES:
        value = pct(srtr_closed_form(SimConfig(dishonest_rate=d, hops=h,
                                               num_routes=r)))
        deltas.append(abs(value - reference))
        assert abs(value - reference) <= tol, (d, r, h, value, reference)
    check("criterion 1 (SRTR closed form, reproducible points)", True,
          f"max delta {max(deltas):.4f} pp over {len(deltas)} reference values")


@pytest.mark.xfail(strict=True, reason="reference values 96.36 (r=2,h=2) and "
                   "83.22 (r=2,h=5) sit 0.029/0.010 pp away from the exact "
                   "formula values 96.39/83.23; the 0.01 pp tolerance cannot "
                   "be met by exact arithmetic")
@pytest.mark.parametrize("d,r,h,reference", [
    (0.1, 2, 2, 96.36),
    (0.1, 2, 5, 83.22),
])
def test_criterion_1_unreproducible_reference_points(d, r, h, reference):
    value = pct(srtr_closed_form(SimConfig(dishonest_rate=d, hops=h,
                                           num_routes=r)))
    print(f"[acceptance] criterion 1 (reference {reference} at r={r},h={h}): "
          f"FAIL expected, formula gives {value:.4f}")
    assert abs(value - reference) <= 0.01


# -- criterion 2: SRD closed form --------------------------------------------

def deanonymization_route_prob_brute(f: Fraction, h: int) -> Fraction:
    """Enumerate every observer pattern; both ends observed and no two
    consecutive unobserved hops means the route reconstructs."""
    if h == 1:
        return f
    total = Fraction(0)
    interior = h - 2
    for bits in itertools.product([True, False], repeat=interior):
        flags = (True,) + bits + (True,)
        if all(flags[i] or flags[i + 1] for i in range(len(flags) - 1)):
            k = sum(bits)
            total += f ** (k + 2) * (1 - f) ** (interior - k)
    return total


def test_criterion_2_srd_closed_form():
    low = [srd_closed_form(SimConfig(fake_rate=0.1, hops=h)) for h in (2, 3, 4, 5)]
    assert abs(low[0] - 0.0297) <= 0.0005 and low[0] <= 0.030
    assert abs(low[1] - 0.0297) <= 0.0005 and low[1] <= 0.030
    assert low[2] <= 0.006 and low[3] <= 0.006
    for h in (2, 3):
        value = pct(srd_closed_form(SimConfig(fake_rate=0.3, hops=h)))
        assert abs(value - 24.6) <= 0.05, (h, value)
    # substitute property for the non-reproducible h=4,5 figures:
    # exact rational agreement with enumeration everywhere.  Routes longer
    # than MAX_HOPS are no valid SimConfig, so there the per-route formula
    # behind srd_closed_form is checked, and the closed form must refuse
    checked = 0
    for h in range(1, 13):
        for i in range(1, 20):
            f = Fraction(i, 20)  # 0.05 .. 0.95
            if h <= MAX_HOPS:
                got = srd_closed_form(SimConfig(fake_rate=f, hops=h,
                                                num_routes=1))
            else:
                with pytest.raises(InvalidConfig):
                    srd_closed_form(SimConfig(fake_rate=f, hops=h,
                                              num_routes=1))
                got = f * f * chain_coverage_prob(f, h - 2)
            want = deanonymization_route_prob_brute(f, h)
            assert got == want, (f, h, got, want)
            checked += 1
    check("criterion 2 (SRD closed form + brute-force agreement)", True,
          f"exact rational match at {checked} (f, h) points, h <= 12")


# -- criterion 3: Monte Carlo vs closed forms --------------------------------

@pytest.mark.slow
def test_criterion_3_monte_carlo_grid():
    trials = 100_000
    t0 = time.perf_counter()
    worst = 0.0
    cells = 0
    grid = itertools.product((0.1, 0.2, 0.3), (2, 3, 4, 5), (1, 2, 3))
    for idx, (rate, h, r) in enumerate(grid):
        # one independent seed per cell
        cfg = SimConfig(dishonest_rate=rate, num_routes=r, hops=h,
                        trials=trials, seed=2 * idx)
        mc, cf = estimate_srtr(cfg), srtr_closed_form(cfg)
        se = (cf * (1 - cf) / trials) ** 0.5
        assert abs(mc - cf) <= 3 * se, ("srtr", rate, h, r, mc, cf)
        worst = max(worst, abs(mc - cf) / se)
        cfg = SimConfig(fake_rate=rate, num_routes=r, hops=h, trials=trials,
                        seed=2 * idx + 1)
        mc, cf = estimate_srd(cfg), srd_closed_form(cfg)
        se = (cf * (1 - cf) / trials) ** 0.5
        assert abs(mc - cf) <= 3 * se, ("srd", rate, h, r, mc, cf)
        worst = max(worst, abs(mc - cf) / se)
        cells += 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"grid took {elapsed:.0f}s, budget is 5 minutes"
    check("criterion 3 (Monte Carlo within 3 standard errors)", True,
          f"{cells} cells, worst deviation {worst:.2f} SE, {elapsed:.0f}s")


# -- criterion 4: crypto round trip ------------------------------------------

TABLE_SIZES = (8, 32, 64, 128, 256, 1024, 4096, 10240)


@pytest.mark.slow
def test_criterion_4_five_layer_roundtrip():
    rng = random.Random(0xACCE)
    t0 = time.perf_counter()
    for size in TABLE_SIZES:
        for _ in range(200):
            keypairs = [ec.keygen(rng) for _ in range(5)]
            plain = rng.randbytes(size)
            blob = plain
            for kp in keypairs:
                blob = ec.serialize_cipher(
                    ec.elgamal_encrypt(blob, kp.public, rng))
            for kp in reversed(keypairs):
                blob = ec.elgamal_decrypt(
                    ec.deserialize_cipher(blob), kp.private)
            assert blob == plain, f"round trip broke at size {size}"
    check("criterion 4 (5-layer round trip, 200 trials x 8 sizes)", True,
          f"{time.perf_counter() - t0:.0f}s")


# -- criterion 5: cipher growth ----------------------------------------------

def nested_cipher_len(size: int, layers: int, rng) -> int:
    blob = rng.randbytes(size)
    kp = ec.keygen(rng)
    for _ in range(layers):
        blob = ec.serialize_cipher(ec.elgamal_encrypt(blob, kp.public, rng))
    return len(blob)


def test_criterion_5_cipher_growth():
    rng = random.Random(0x60)
    ratios = [nested_cipher_len(size, 5, rng) / size for size in TABLE_SIZES]
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
    assert ratios[-1] <= 1.5, f"10240-byte ratio {ratios[-1]:.3f}"
    world = SimWorld(SimConfig(n_nodes=5, seed=3))
    onion = build_onion(rng.randbytes(256), tuple(world.directory),
                        1, ec.keygen_even(rng), 0, rng)
    assert len(onion) <= 1200, f"256-byte tx, 5-hop onion is {len(onion)} bytes"
    check("criterion 5 (growth ratio decreasing, bounds)", True,
          f"ratios {' > '.join(f'{r:.2f}' for r in ratios)}; "
          f"onion {len(onion)} bytes")


# -- criterion 6: performance sanity -----------------------------------------

def test_criterion_6_performance():
    rng = random.Random(0x9E)
    keypairs = [ec.keygen(rng) for _ in range(5)]
    plain = rng.randbytes(10240)
    t0 = time.perf_counter()
    blob = plain
    for kp in keypairs:
        blob = ec.serialize_cipher(ec.elgamal_encrypt(blob, kp.public, rng))
    for kp in reversed(keypairs):
        blob = ec.elgamal_decrypt(ec.deserialize_cipher(blob), kp.private)
    elapsed = time.perf_counter() - t0
    assert blob == plain
    assert elapsed <= 30.0, f"{elapsed:.2f}s for 5-layer 10240 bytes"
    check("criterion 6 (10240-byte 5-layer within 30s)", True,
          f"{elapsed:.2f}s")


# -- criterion 7: Sybil anonymity --------------------------------------------

@pytest.mark.slow
def test_criterion_7_sybil_anonymity():
    t0 = time.perf_counter()
    world = SimWorld(SimConfig(n_nodes=40, seed=0x5B))
    policy = SendPolicy(num_routes=2, hops=3, delays=(1, 2))
    for i in range(1000):
        tx = i.to_bytes(4, "little") * 20
        report = world.send(tx, policy)
        assert report.success
        spreader = sybil_first_spreader(world.broadcast.log, nr.txid(tx))
        releasing = {a.hop_ids[-1] for rnd in report.rounds
                     for a in rnd.attempts}
        assert spreader != "client", f"send {i} leaked the client"
        assert spreader in releasing, f"send {i}: {spreader} not releasing"
    baseline = SimWorld(SimConfig(n_nodes=10, seed=0x5C))
    for i in range(1000):
        tx = b"direct" + i.to_bytes(4, "little")
        baseline.direct_send(tx)
        assert sybil_first_spreader(baseline.broadcast.log,
                                    nr.txid(tx)) == "client"
    check("criterion 7 (Sybil observer sees releasing node, never client)",
          True, f"1000 TRR + 1000 direct sends, {time.perf_counter() - t0:.0f}s")


# -- criterion 8: release-delay semantics -------------------------------------

def test_criterion_8_release_delay():
    world = SimWorld(SimConfig(n_nodes=12, seed=0x8))
    rng = random.Random(0x88)
    for k in range(1, 6):
        node = world.nodes[k]
        ret = ec.keygen_even(rng)
        tx = bytes([k]) * 16
        onion = build_onion(tx, (world.directory[k],), k, ret, 0, rng)
        node.serve_request(onion, (1, 1))
        start = node.height
        for h in range(start + 1, start + k):
            assert node.on_new_block(h) == [], f"early release at delay {k}"
        assert node.on_new_block(start + k) == [tx], f"late release at delay {k}"
    # duplicate release across two routes broadcasts exactly once
    tx = b"\xee" * 20
    a, b = world.nodes[6], world.nodes[7]
    ret = ec.keygen_even(rng)
    a.serve_request(build_onion(tx, (world.directory[6],), 1, ret, 0, rng), (1, 1))
    b.serve_request(build_onion(tx, (world.directory[7],), 2, ret, 0, rng), (1, 1))
    a.on_new_block(a.height + 1)
    b.on_new_block(b.height + 1)
    b.on_new_block(b.height + 1)
    assert len([e for e in world.broadcast.log if e[2] == nr.txid(tx)]) == 1
    assert (mixing_stats(1, 945), mixing_stats(2, 945), mixing_stats(5, 945)) \
        == (945, 1890, 4725)
    check("criterion 8 (release at enqueue+k, duplicates once, mixing stats)",
          True)


# -- criterion 9: wire vectors and fuzzing ------------------------------------

GOLDEN_EXPECTATIONS = [
    ("trr_data", lambda raw: wp.decode_trr_data(raw).tx == bytes.fromhex("deadbeef")),
    ("trr_routing_forward",
     lambda raw: wp.decode_trr_routing(raw).dst_ip == wp.parse_ipv4("10.0.0.2")),
    ("trr_routing_release", lambda raw: wp.decode_trr_routing(raw).is_release),
    ("trr_ack_success",
     lambda raw: len(raw) == 45 and wp.decode_trr_ack(raw).errno == 0),
    ("trr_ack_error", lambda raw: wp.decode_trr_ack(raw).errno == 2),
    ("frame_vertrr", lambda raw: wp.parse_frame(raw)[0] == "vertrr"),
    ("frame_trr", lambda raw: wp.parse_frame(raw) == ("trr", bytes.fromhex("010203"))),
    ("frame_track", lambda raw: wp.parse_frame(raw)[0] == "track"),
]


def test_criterion_9_golden_vectors_and_fuzzing():
    for name, predicate in GOLDEN_EXPECTATIONS:
        raw = bytes.fromhex((DATA_DIR / f"{name}.hex").read_text().strip())
        assert predicate(raw), f"golden vector {name} mismatch"

    rng = random.Random(0xF022)
    decoders = (wp.decode_trr_data, wp.decode_trr_routing, wp.decode_trr_ack,
                wp.parse_frame, ec.deserialize_cipher)
    valid = [bytes.fromhex((DATA_DIR / f"{n}.hex").read_text().strip())
             for n, _ in GOLDEN_EXPECTATIONS]
    t0 = time.perf_counter()
    survived = 0
    for i in range(1_000_000):
        style = i % 10
        if style < 7:
            buf = rng.randbytes(rng.randrange(0, 100))
        elif style < 9:  # mutate a valid encoding
            base = bytearray(valid[i % len(valid)])
            for _ in range(rng.randrange(1, 4)):
                base[rng.randrange(len(base))] = rng.randrange(256)
            buf = bytes(base)
        else:
            buf = rng.randbytes(rng.randrange(100, 600))
        try:
            decoders[i % len(decoders)](buf)
            survived += 1
        except TrrError:
            pass  # typed errors are the contract; anything else crashes the test
    check("criterion 9 (golden vectors + 1M-buffer fuzz)", True,
          f"{survived} buffers decoded cleanly, rest raised typed errors, "
          f"{time.perf_counter() - t0:.0f}s")
