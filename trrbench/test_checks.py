"""Each reference check accepts a correct output and rejects a wrong one.

    python3 -m pytest trrbench -q
"""

import hashlib
import itertools
import random

import checks


def _send(tx: bytes, height: int = 0, delay: int = 1):
    return (tx, height, delay)


def _log(*txs) -> list[tuple[str, str]]:
    return [(hashlib.sha256(hashlib.sha256(tx).digest()).hexdigest(), tx.hex())
            for tx in txs]


class TestBroadcastLog:
    txs = [b"\x01" * 250, b"\x02" * 224]

    def test_accepts_each_release_once_in_time(self):
        assert checks.check_broadcast_log(
            _log(*self.txs), [1, 3], [_send(self.txs[0], 0), _send(self.txs[1], 2)]) == []

    def test_txid_is_double_sha256(self):
        assert checks.txid(b"") == bytes.fromhex(
            "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456")

    def test_rejects_tampered_txid(self):
        entries = _log(*self.txs)
        entries[1] = (entries[0][0], entries[1][1])
        assert checks.check_broadcast_log(
            entries, [1, 1], [_send(tx) for tx in self.txs])

    def test_rejects_tampered_transaction(self):
        entries = _log(*self.txs)
        entries[0] = (entries[0][0], "ff" + entries[0][1][2:])
        assert checks.check_broadcast_log(
            entries, [1, 1], [_send(tx) for tx in self.txs])

    def test_rejects_missing_release(self):
        assert checks.check_broadcast_log(
            _log(self.txs[0]), [1], [_send(tx) for tx in self.txs])

    def test_rejects_duplicate_release(self):
        assert checks.check_broadcast_log(
            _log(self.txs[0], self.txs[0]), [1, 2], [_send(self.txs[0])])

    def test_rejects_early_release(self):
        assert checks.check_broadcast_log(
            _log(self.txs[0]), [2], [_send(self.txs[0], height=2, delay=1)])

    def test_rejects_unsent_transaction(self):
        assert checks.check_broadcast_log(_log(*self.txs), [1, 1],
                                          [_send(self.txs[0])])

    def test_parses_log_lines(self):
        text = "".join(f"{t} {x}\n" for t, x in _log(*self.txs))
        assert checks.parse_broadcast_log(text) == _log(*self.txs)


class TestClosedForms:
    def test_srtr_formula(self):
        assert checks.srtr_reference(0.1, 3, 2) == 1 - (1 - 0.9 ** 3) ** 2
        assert checks.srtr_reference(0.0, 5, 1) == 1.0

    def test_reconstructible_patterns(self):
        assert checks.reconstructible([True])
        assert checks.reconstructible([True, False, True])
        assert not checks.reconstructible([True, False, False, True])
        assert not checks.reconstructible([False, True, True])
        assert not checks.reconstructible([True, True, False])

    def test_srd_enumeration_matches_recurrence(self):
        # both ends observed, interior free of two consecutive gaps
        for f, h, r in itertools.product((0.1, 0.3), (2, 3, 4, 5), (1, 3)):
            prev2, prev1 = 1.0, 1.0
            for _ in range(2, h - 1):
                prev2, prev1 = prev1, f * prev1 + (1 - f) * f * prev2
            want = 1 - (1 - f * f * prev1) ** r
            assert abs(checks.srd_reference(f, h, r) - want) < 1e-12

    def test_estimate_inside_bound(self):
        rng = random.Random(3)
        p, n = 0.3, 20000
        estimate = sum(rng.random() < p for _ in range(n)) / n
        assert checks.check_estimate(estimate, p, n, 5.0) == []

    def test_estimate_outside_bound(self):
        se = (0.3 * 0.7 / 20000) ** 0.5
        assert checks.check_estimate(0.3 + 5.5 * se, 0.3, 20000, 5.0)
        assert checks.check_estimate(0.3 - 5.5 * se, 0.3, 20000, 5.0)

    def test_estimate_at_certain_rate(self):
        assert checks.check_estimate(1.0, 1.0, 1000, 5.0) == []
        assert checks.check_estimate(0.99, 1.0, 1000, 5.0)


class TestReconstruction:
    # addresses are plain ints here; the world uses (ip, port) pairs
    tid_a, tid_b = b"a" * 32, b"b" * 32
    routes = [
        ([1, 2, 3], tid_a, ["fake_trr", "honest", "fake_trr"]),
        ([4, 5, 6], tid_a, ["fake_trr", "honest", "honest"]),
        ([7, 8, 9], tid_b, ["fake_trr", "drop_data", "fake_trr"]),
        ([10, 11, 12], tid_b, ["fake_trr", "fake_trr", "fake_trr"]),
    ]

    def test_expected_are_reachable_and_reconstructible(self):
        assert checks.expected_recoveries(self.routes) == {
            ((1, 2, 3), self.tid_a), ((10, 11, 12), self.tid_b)}

    def test_accepts_exact_recovery(self):
        recovered = [([1, 2, 3], self.tid_a), ([10, 11, 12], self.tid_b)]
        assert checks.check_reconstruction(recovered, self.routes) == []

    def test_accepts_stitched_chain_along_real_links(self):
        routes = self.routes + [([1, 5, 12], self.tid_b,
                                 ["fake_trr", "honest", "honest"])]
        recovered = [([1, 2, 3], self.tid_a), ([10, 11, 12], self.tid_b),
                     ([1, 5, 6], self.tid_a)]
        assert checks.check_reconstruction(recovered, routes) == []

    def test_rejects_chain_that_is_no_real_route(self):
        recovered = [([1, 2, 3], self.tid_a), ([10, 11, 12], self.tid_b),
                     ([1, 11, 3], self.tid_a)]
        assert checks.check_reconstruction(recovered, self.routes)

    def test_rejects_real_chain_under_wrong_txid(self):
        recovered = [([1, 2, 3], self.tid_a), ([10, 11, 12], self.tid_b),
                     ([10, 11, 12], self.tid_a)]
        assert checks.check_reconstruction(recovered, self.routes)

    def test_rejects_missing_recovery(self):
        assert checks.check_reconstruction([([1, 2, 3], self.tid_a)],
                                           self.routes)

    def test_rejects_recovery_the_pattern_forbids(self):
        recovered = [([1, 2, 3], self.tid_a), ([10, 11, 12], self.tid_b),
                     ([4, 5, 6], self.tid_a)]
        assert checks.check_reconstruction(recovered, self.routes)

    def test_rejects_route_whose_onion_stopped_early(self):
        recovered = [([1, 2, 3], self.tid_a), ([10, 11, 12], self.tid_b),
                     ([7, 8, 9], self.tid_b)]
        assert checks.check_reconstruction(recovered, self.routes)
