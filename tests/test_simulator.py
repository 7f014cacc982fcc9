"""Estimator correctness, attack-ledger stitching and end-to-end sends."""

import contextlib
import gc
import itertools
import json
import logging
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trr import ec_crypto as ec
from trr import node_runtime as nr
from trr import simulator
from trr.analytics import srd_closed_form, srtr_closed_form
from trr.errors import GiveUp, InvalidConfig
from trr.node_runtime import SendPolicy
from trr.onion_routing import MAX_HOPS, NodeDescriptor, build_onion, decrypt_ack
from trr.simulator import (
    DISHONEST_MODES,
    FAKE_TRR,
    HONEST,
    SimConfig,
    SimNode,
    SimWorld,
    _sample,
    _trial_words,
    estimate_srd,
    estimate_srtr,
    stitch_chains,
    sybil_first_spreader,
    trial_seed,
)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"trials": 0},
        {"dishonest_rate": 0.7, "fake_rate": 0.4},
        {"dishonest_rate": -0.1},
        {"hops": 0},
        {"hops": 11},
        {"num_routes": 0},
        {"n_nodes": 2, "hops": 3},
        # non-integers once built: n_nodes=6e3 shifted estimate_srtr and
        # made estimate_srd raise TypeError
        {"n_nodes": 6e3},
        {"hops": 2.5},
        {"num_routes": 1.5},
        {"trials": 2.5},
        {"seed": 1.5},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfig):
            SimConfig(**kwargs)

    def test_replace_checks(self):
        with pytest.raises(InvalidConfig):
            replace(SimConfig(), trials=0)

    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000


class TestEstimators:
    def test_determinism(self):
        cfg = SimConfig(dishonest_rate=0.2, num_routes=2, hops=3,
                        trials=20_000, seed=5)
        assert estimate_srtr(cfg) == estimate_srtr(cfg)
        cfg = SimConfig(fake_rate=0.2, num_routes=2, hops=3,
                        trials=20_000, seed=5)
        assert estimate_srd(cfg) == estimate_srd(cfg)

    def test_srtr_no_dishonest_is_one(self):
        cfg = SimConfig(dishonest_rate=0.0, num_routes=1, hops=5,
                        trials=2_000, seed=1)
        assert estimate_srtr(cfg) == 1.0

    def test_srd_all_fake_is_one(self):
        cfg = SimConfig(fake_rate=1.0, num_routes=1, hops=4,
                        trials=2_000, seed=1)
        assert estimate_srd(cfg) == 1.0

    def test_srtr_all_dishonest_is_zero(self):
        cfg = SimConfig(dishonest_rate=1.0, num_routes=3, hops=2,
                        trials=2_000, seed=1)
        assert estimate_srtr(cfg) == 0.0

    def test_srd_no_fake_is_zero(self):
        cfg = SimConfig(fake_rate=0.0, num_routes=3, hops=1,
                        trials=2_000, seed=1)
        assert estimate_srd(cfg) == 0.0

    def test_srtr_two_route_reference_point(self):
        cfg = SimConfig(dishonest_rate=0.1, num_routes=2, hops=2,
                        trials=100_000, seed=7)
        assert abs(estimate_srtr(cfg) - 0.9636) < 0.005

    def test_srtr_matches_closed_form(self):
        for d, h, r in [(0.2, 3, 2), (0.3, 5, 3)]:
            cfg = SimConfig(dishonest_rate=d, num_routes=r, hops=h,
                            trials=40_000, seed=3)
            cf = srtr_closed_form(cfg)
            se = (cf * (1 - cf) / cfg.trials) ** 0.5
            assert abs(estimate_srtr(cfg) - cf) < 4 * se

    def test_srd_matches_closed_form(self):
        for f, h, r in [(0.1, 2, 3), (0.3, 4, 3)]:
            cfg = SimConfig(fake_rate=f, num_routes=r, hops=h,
                            trials=40_000, seed=3)
            cf = srd_closed_form(cfg)
            se = (cf * (1 - cf) / cfg.trials) ** 0.5
            assert abs(estimate_srd(cfg) - cf) < 4 * se


class TestTrialStream:
    """The estimators' counter-based words and the sampler reading them."""

    def test_words_do_not_depend_on_trials(self):
        cfg = SimConfig(num_routes=2, hops=3, trials=5, seed=9)
        five = list(_trial_words(cfg))
        assert list(_trial_words(replace(cfg, trials=3))) == five[:3]
        assert all(len(words) == 2 * 3 * 2 for words in five)

    def test_words_differ_across_trials_and_seeds(self):
        cfg = SimConfig(num_routes=1, hops=1, trials=1_000, seed=9)
        words = set(_trial_words(cfg))
        assert len(words) == 1_000
        assert not words & set(_trial_words(replace(cfg, seed=10)))

    def test_estimators_draw_apart(self):
        """analytics.sweep hands one config to both estimators.  On one hop
        at d = f = 0.5, a trial's SRTR and SRD outcomes are complements
        whenever the two read the same uniform for the hop's flag, as they
        did on a shared stream; drawn apart, they are complements about
        half the time."""
        cfg = SimConfig(dishonest_rate=0.5, fake_rate=0.5, num_routes=1,
                        hops=1, trials=1)
        complements = sum(estimate_srtr(one) + estimate_srd(one) == 1.0
                          for one in (replace(cfg, seed=s) for s in range(200)))
        assert complements < 150

    @pytest.mark.parametrize("rate, hops, routes, srtr, srd", [
        (0.1, 2, 1, 1614, 18),
        (0.2, 4, 2, 1295, 59),
        (0.3, 5, 3, 858, 196),
    ])
    def test_streams_are_pinned(self, rate, hops, routes, srtr, srd):
        # success counts over 2000 trials at seed 7: a change that moves
        # any draw of either estimator moves these
        shape = {"hops": hops, "num_routes": routes, "trials": 2000, "seed": 7}
        assert estimate_srtr(SimConfig(dishonest_rate=rate, **shape)) == srtr / 2000
        assert estimate_srd(SimConfig(fake_rate=rate, **shape)) == srd / 2000

    @pytest.mark.parametrize("offset, srtr", [(0, 1.0), (-1, 0.0)])
    def test_flag_is_a_word_below_the_cut(self, monkeypatch, offset, srtr):
        cut = int(0.5 * 2.0**64)

        def constant(cfg):
            for _ in range(cfg.trials):
                yield (cut + offset,) * (2 * cfg.hops * cfg.num_routes)

        monkeypatch.setattr(simulator, "_trial_words", constant)
        assert estimate_srtr(SimConfig(dishonest_rate=0.5, trials=3)) == srtr

    @settings(max_examples=300, deadline=None)
    @given(h=st.integers(1, 10), data=st.data())
    def test_sample_draws_distinct_nodes(self, h, data):
        n = data.draw(st.integers(h, 2**40))
        words = data.draw(st.lists(st.integers(0, 2**64 - 1),
                                   min_size=h, max_size=h))
        route = list(_sample(words, 0, n, h))
        assert len(set(route)) == h
        assert all(0 <= node < n for node in route)

    def test_sample_uniform_over_ordered_pairs(self):
        cfg = SimConfig(n_nodes=5, num_routes=1, hops=2, trials=20_000, seed=11)
        counts = Counter(tuple(_sample(words, 0, 5, 2))
                         for words in _trial_words(cfg))
        assert len(counts) == 20 and all(a != b for a, b in counts)
        expected = cfg.trials / 20
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 43.82  # chi-square, 19 degrees of freedom, p = 0.001


def observer_records(routes, observed, client):
    """(previous, own, next or None) for every observed hop of routes."""
    records = []
    for route in routes:
        hops = [client] + list(route) + [None]
        records += [tuple(hops[i:i + 3]) for i in range(len(route))
                    if observed[route[i]]]
    return records


def stitched(records, client):
    return [chain for _, chains in stitch_chains(records, client)
            for chain in chains]


def route_pattern_reconstructible(flags) -> bool:
    """Closed-form oracle on a route's observer pattern: both ends
    observed and no two consecutive unobserved hops."""
    flags = list(flags)
    if not flags[0] or not flags[-1]:
        return False
    return all(flags[i] or flags[i + 1] for i in range(len(flags) - 1))


class TestStitching:
    def test_stitch_equals_predicate_exhaustively(self):
        # every observer pattern for route lengths 1..8
        client = 999
        for h in range(1, 9):
            route = list(range(h))
            for bits in itertools.product([False, True], repeat=h):
                records = observer_records([route], dict(zip(route, bits)),
                                           client)
                assert (route in stitched(records, client)) == \
                    route_pattern_reconstructible(bits), (h, bits)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_interlinked_routes_match_predicate(self, data):
        # routes share nodes of a small population and pool their records
        # in one ledger; each node is an observer on every route or none
        client = -1
        population = data.draw(st.integers(2, MAX_HOPS))
        observed = data.draw(st.lists(st.booleans(), min_size=population,
                                      max_size=population))
        routes = data.draw(st.lists(
            st.lists(st.integers(0, population - 1), min_size=1,
                     max_size=min(population, MAX_HOPS), unique=True),
            min_size=1, max_size=4))
        chains = stitched(observer_records(routes, observed, client), client)
        assert all(len(chain) <= MAX_HOPS for chain in chains)
        for route in routes:
            assert (route in chains) == route_pattern_reconstructible(
                observed[node] for node in route), route

    def test_direct_link_needs_recorded_next_address(self):
        # observer 1 forwarded [5, 1, 2] to 2 and was the first hop of
        # [1, 4]; its record of the second request must not complete the
        # first, whose unobserved first hop 5 hides the client
        client = -1
        records = observer_records([[5, 1, 2], [1, 4]],
                                   {1: True, 2: True, 4: False, 5: False},
                                   client)
        assert stitched(records, client) == []

    def test_predicate_examples(self):
        assert route_pattern_reconstructible([True])
        assert route_pattern_reconstructible([True, True])
        assert route_pattern_reconstructible([True, False, True])
        assert not route_pattern_reconstructible([False, True])
        assert not route_pattern_reconstructible([True, False])
        assert not route_pattern_reconstructible([True, False, False, True])


def send_once(cfg, tx):
    """A fresh world of cfg after one send of tx over cfg's routes and
    hops, and the send's report; a client that gives up reports too."""
    world = SimWorld(cfg)
    try:
        report = world.send(tx, SendPolicy(num_routes=cfg.num_routes,
                                           hops=cfg.hops))
    except GiveUp as exc:
        report = exc.report
    return world, report


def route_ids(report):
    return [a.hop_ids for rnd in report.rounds for a in rnd.attempts]


def release_ticks(world, tx):
    return [tick for tick, _, tid in world.broadcast.log
            if tid == nr.txid(tx)]


class TestWorldDeterminism:
    def test_same_seed_same_trace(self):
        cfg = SimConfig(n_nodes=25, fake_rate=0.2, seed=9, num_routes=2, hops=3)
        tx = b"determinism probe"
        (a, report_a), (b, report_b) = send_once(cfg, tx), send_once(cfg, tx)
        assert report_a == report_b
        assert a.trace == b.trace
        # the first spreader is read from the log, and the recovered
        # routes from the ledger entries
        assert a.broadcast.log == b.broadcast.log
        assert a.attack_ledger.entries == b.attack_ledger.entries

    def test_trace_follows_the_request_in_time(self):
        tx = b"traced tx"
        world, report = send_once(SimConfig(n_nodes=20, seed=4, num_routes=1,
                                            hops=3), tx)
        (hops,) = route_ids(report)
        first, middle, last = hops
        assert [(e["node"], e["event"]) for e in world.trace] == [
            (first, "received"), (middle, "received"), (last, "received"),
            (last, "enqueued"), (last, "acked"),
            (middle, "forwarded"), (first, "forwarded"), (last, "released")]
        ticks = [e["tick"] for e in world.trace]
        assert ticks == sorted(ticks)
        assert world.trace[-1]["tick"] in release_ticks(world, tx)

    def test_different_seed_different_routes(self):
        base = dict(n_nodes=25, num_routes=3, hops=3)
        _, a = send_once(SimConfig(seed=1, **base), b"tx")
        _, b = send_once(SimConfig(seed=2, **base), b"tx")
        assert route_ids(a) != route_ids(b)


class TestWorldFootprint:
    def test_build_cost_per_node(self):
        # one built node fills the one-time curve caches before counting
        SimWorld(SimConfig(n_nodes=3, seed=1)).nodes[0]
        gc.collect()
        tracemalloc.start()
        try:
            SimWorld(SimConfig(n_nodes=100_000, fake_rate=0.2,
                               dishonest_rate=0.1, seed=11))
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traced / 100_000 < 12  # one list slot and nothing drawn

    def test_nodes_draw_nothing_and_share_their_descriptors(self):
        world = SimWorld(SimConfig(n_nodes=40, dishonest_rate=0.5, seed=12))
        # a node handed a generator serves a forward over the world's
        # transport and a release without drawing from it or keeping it
        rng = random.Random(5)
        state = rng.getstate()
        keypair = ec.keygen(random.Random(6))
        me = NodeDescriptor("plain", 0x0A0000FF, simulator.NODE_PORT,
                            keypair.public)
        node = nr.TrrNode(keypair, me, world.transport,
                          simulator.NodeView(world.broadcast, "plain"), rng)
        honest = next(n.listed for n in world.nodes if n.behavior == HONEST)
        onion_rng = random.Random(7)
        for route, tx in (((me, honest), b"forwarded"), ((me,), b"released")):
            keys = [onion_rng.randbytes(32) for _ in route]
            onion = build_onion(tx, route, 1, keys, 0, onion_rng)
            hop, ack = decrypt_ack(node.serve_request(onion), keys)
            assert (hop, ack.errno) == (len(route) - 1, nr.ERR_OK)
        assert node.on_new_block(1) == [b"released"]
        assert node.events["forwarded"] == 1
        assert rng.getstate() == state
        assert not hasattr(node, "rng")
        liars = [node.behavior == "wrong_pubkey" for node in world.nodes]
        assert any(liars)
        for node, listed, lies in zip(world.nodes, world.directory, liars):
            if lies:
                assert listed.pubkey != node.keypair.public
                assert listed.ip == node.descriptor.ip
            else:
                assert listed is node.descriptor


def node_reference(cfg, i):
    """(behavior, keypair, listed pubkey) of node i, drawn as a build
    draws them from the node's own generator: the behavior, keygen, and
    for a wrong_pubkey node a second keygen for its listing."""
    rng = random.Random(trial_seed(cfg.seed, 2 + i))
    u = rng.random()
    if u < cfg.dishonest_rate:
        behavior = DISHONEST_MODES[rng.randrange(len(DISHONEST_MODES))]
    elif u < cfg.dishonest_rate + cfg.fake_rate:
        behavior = FAKE_TRR
    else:
        behavior = HONEST
    keypair = ec.keygen(rng)
    listed = (ec.keygen(rng).public if behavior == "wrong_pubkey"
              else keypair.public)
    return behavior, keypair, listed


class TestLazyWorld:
    def test_nodes_match_their_own_streams(self):
        cfg = SimConfig(n_nodes=40, dishonest_rate=0.5, fake_rate=0.2, seed=14)
        world = SimWorld(cfg)
        expected = [node_reference(cfg, i) for i in range(cfg.n_nodes)]
        assert {b for b, _, _ in expected} == {HONEST, FAKE_TRR, *DISHONEST_MODES}
        order = list(range(cfg.n_nodes))
        random.Random(3).shuffle(order)  # the build order must not matter
        for i in order:
            behavior, keypair, listed = expected[i]
            node = world.nodes[i]
            assert node.behavior == behavior
            assert node.keypair == keypair
            assert node.descriptor == NodeDescriptor(
                node_id=i, ip=0x0A000001 + i, port=8333, pubkey=keypair.public)
            assert world.directory[i].pubkey == listed
        assert len(world.nodes) == len(world.directory) == cfg.n_nodes
        assert [n.descriptor.node_id for n in world.built] == list(range(40))

    def test_node_depends_on_seed_and_id_alone(self):
        cfg = SimConfig(n_nodes=40, dishonest_rate=0.5, fake_rate=0.2, seed=19)
        small, large = SimWorld(cfg), SimWorld(replace(cfg, n_nodes=400))
        with contextlib.suppress(GiveUp):  # the client draws and builds first
            large.send(b"client draws first", SendPolicy(num_routes=2, hops=3))
        for i in (39, 0, 17, 5):
            a, b = small.nodes[i], large.nodes[i]
            assert (a.behavior, a.keypair, a.descriptor) == \
                (b.behavior, b.keypair, b.descriptor)
            assert small.directory[i] == large.directory[i]

    def test_build_reads_neither_world_stream(self):
        world = SimWorld(SimConfig(n_nodes=60, dishonest_rate=0.5,
                                   fake_rate=0.2, seed=20))
        client = world.rng.getstate()
        for i in range(0, 60, 7):
            world.nodes[i]
            world.directory[i + 1]
        assert world.rng.getstate() == client

    def test_build_makes_no_scalar_multiplication(self, monkeypatch):
        calls = []
        scalar_mul = ec.scalar_mul
        monkeypatch.setattr(ec, "scalar_mul",
                            lambda k, pt: calls.append(k) or scalar_mul(k, pt))
        world = SimWorld(SimConfig(n_nodes=6000, dishonest_rate=0.1,
                                   fake_rate=0.2, seed=15))
        assert calls == [] and world.built == []
        world.nodes[17]
        assert len(calls) == 1  # touching a node derives its key

    def test_send_builds_only_route_nodes(self):
        cfg = SimConfig(n_nodes=200, dishonest_rate=0.7, seed=16)
        world, report = send_once(cfg, b"lazy tx")
        hops = {i for ids in route_ids(report) for i in ids}
        assert report.total_rounds > 1  # a retry round touched more nodes
        assert {n.descriptor.node_id for n in world.built} == hops
        assert len(world.built) <= (cfg.num_routes * cfg.hops
                                    * report.total_rounds)

    def test_blocks_reach_built_nodes_in_id_order(self, monkeypatch):
        notified = []
        monkeypatch.setattr(SimNode, "on_new_block", lambda node, height:
                            notified.append((node.descriptor.node_id, height)))
        world = SimWorld(SimConfig(n_nodes=50, seed=17))
        for i in (30, 4, 17):
            world.directory[i]
        world.clock.advance_block()
        world.nodes[9]
        world.clock.advance_block()
        assert notified == [(4, 1), (17, 1), (30, 1),
                            (4, 2), (9, 2), (17, 2), (30, 2)]
        assert len(world.built) == 4

    def test_node_built_late_releases_on_time(self):
        world = SimWorld(SimConfig(n_nodes=50, seed=18))
        for _ in range(3):
            world.clock.advance_block()
        assert world.built == []
        node = world.nodes[21]
        assert node.height == 3
        rng = random.Random(18)
        tx = b"late node tx"
        node.serve_request(build_onion(tx, (world.directory[21],), 2,
                                       [rng.randbytes(32)], 0, rng), (1, 1))
        assert [p.release_height for p in node.pool.values()] == [5]
        world.clock.advance_block()
        assert not world.broadcast.log
        world.clock.advance_block()
        assert world.broadcast.log == [(500, 21, nr.txid(tx))]


class TestEndToEnd:
    def test_honest_world_releases_and_hides_client(self):
        cfg = SimConfig(n_nodes=30, seed=13, num_routes=3, hops=3)
        tx = b"visible tx " * 4
        world, report = send_once(cfg, tx)
        assert report.success
        assert report.total_rounds == 1
        assert release_ticks(world, tx)  # released after a block boundary
        releasing = {ids[-1] for ids in route_ids(report)}
        spreader = sybil_first_spreader(world.broadcast.log, nr.txid(tx))
        assert spreader in releasing
        assert spreader != "client"

    def test_send_with_an_all_ones_chunk(self):
        # from tx offset 2 the 31 0xFF bytes fill one chunk of the
        # releasing layer's plaintext
        world = SimWorld(SimConfig(n_nodes=8, seed=22))
        tx = bytes(2) + b"\xff" * 31 + b"\x01"
        report = world.send(tx, SendPolicy(num_routes=1, hops=2))
        assert report.success
        assert [tid for _, _, tid in world.broadcast.log] == [nr.txid(tx)]

    def test_duplicate_suppressed_across_routes(self):
        cfg = SimConfig(n_nodes=30, seed=21, num_routes=3, hops=2)
        world, _ = send_once(cfg, b"dup tx")
        assert len(release_ticks(world, b"dup tx")) == 1

    def test_all_dishonest_gives_up(self):
        cfg = SimConfig(n_nodes=10, dishonest_rate=1.0, seed=3,
                        num_routes=2, hops=2)
        world, report = send_once(cfg, b"doomed tx")
        assert not report.success
        assert report.total_rounds == 3
        assert sybil_first_spreader(world.broadcast.log,
                                    nr.txid(b"doomed tx")) is None


class TestDishonestModes:
    def build_world_with(self, mode):
        # hops == directory size forces every route through the bad node
        world = SimWorld(SimConfig(n_nodes=3, seed=40))
        victim = world.nodes[1]
        victim.behavior = mode
        if mode == "no_release":
            # only a releasing hop can withhold, and any node may release
            for node in world.nodes:
                node.behavior = mode
        if mode == "wrong_pubkey":
            lying = random.Random(1234)
            victim.listed = replace(victim.listed,
                                    pubkey=ec.keygen(lying).public)
        return world

    @pytest.mark.parametrize("mode", ["deny_connection", "drop_data",
                                      "no_release", "wrong_pubkey"])
    def test_each_mode_fails_the_route(self, mode):
        world = self.build_world_with(mode)
        with pytest.raises(GiveUp) as exc_info:
            world.send(b"blocked tx", SendPolicy(num_routes=1, hops=3,
                                                 retry_rounds=2))
        assert not exc_info.value.report.success
        assert not world.broadcast.log

    def test_wrong_pubkey_visible_as_malformed_routing(self):
        world = self.build_world_with("wrong_pubkey")
        with pytest.raises(GiveUp):
            world.send(b"tx", SendPolicy(num_routes=1, hops=3, retry_rounds=1))
        assert world.nodes[1].events["peel_failed"] >= 1

    def test_ok_ack_in_a_failed_round_names_a_withholder(self):
        # a releasing hop acks OK only once the tx is pending, and an honest
        # one then broadcasts it; so in a round that failed, every route
        # acked OK ends at a hop that withheld (ROADMAP item 16)
        withholders = []
        for seed in (1, 2, 3):
            world = SimWorld(SimConfig(n_nodes=60, dishonest_rate=0.5,
                                       fake_rate=0.2, seed=seed))
            for i in range(15):
                try:
                    report = world.send(bytes([i + 1]) * 40, SendPolicy(
                        num_routes=2, hops=3, retry_rounds=4))
                    failed = report.rounds[:-1]
                except GiveUp as exc:
                    failed = exc.report.rounds
                withholders += [world.nodes[a.hop_ids[-1]].behavior
                                for rnd in failed for a in rnd.attempts
                                if a.ok]
        assert len(withholders) >= 5  # not vacuous
        assert set(withholders) == {"no_release"}


class TestFakeNodesAttack:
    def test_ledger_only_filled_by_fake_nodes(self):
        world = SimWorld(SimConfig(n_nodes=30, fake_rate=0.4, seed=31))
        for i in range(5):
            world.send(bytes([i]) * 20, SendPolicy(num_routes=2, hops=3))
        fake_addrs = {(n.descriptor.ip, n.descriptor.port) for n in world.nodes
                      if n.behavior == FAKE_TRR}
        assert world.attack_ledger.entries
        assert {e.own_addr for e in world.attack_ledger.entries} <= fake_addrs

    def test_reconstruction_matches_predicate(self):
        world = SimWorld(SimConfig(n_nodes=30, fake_rate=0.5, seed=33))
        flags = {n.descriptor.node_id: n.behavior == FAKE_TRR
                 for n in world.nodes}
        hits = misses = 0
        for i in range(40):
            tx = bytes([i + 1]) * 25
            report = world.send(tx, SendPolicy(num_routes=2, hops=3,
                                               delays=(1, 1)))
            tid = nr.txid(tx)
            expected = any(
                route_pattern_reconstructible([flags[h] for h in attempt.hop_ids])
                for attempt in report.rounds[0].attempts)
            recovered = world.attack_ledger.reconstruct(world.client_addr)
            assert all(len(c) <= MAX_HOPS for c, _ in recovered), f"send {i}"
            chains = [c for c, t in recovered if t == tid]
            actual_routes = {tuple((world.directory[h].ip, 8333)
                                   for h in attempt.hop_ids)
                             for attempt in report.rounds[0].attempts}
            correct = [c for c in chains if tuple(c) in actual_routes]
            assert bool(correct) == expected, f"send {i}"
            hits += expected
            misses += not expected
        assert hits and misses  # both branches exercised

    def test_failed_reconstruction_never_links_client_to_txid(self):
        world = SimWorld(SimConfig(n_nodes=30, fake_rate=0.3, seed=35))
        for i in range(30):
            world.send(bytes([i + 1]) * 30, SendPolicy(num_routes=2, hops=3,
                                                       delays=(1, 1)))
        # a single entry holding both the client address and content
        # would break anonymity without any stitching at all
        first_hops = [e for e in world.attack_ledger.entries
                      if e.prev_addr == world.client_addr]
        assert first_hops
        assert all(e.txid is None for e in first_hops)


class TestSybilObserver:
    def test_direct_send_identifies_sender(self):
        world = SimWorld(SimConfig(n_nodes=10, seed=50))
        world.direct_send(b"naked tx")
        assert sybil_first_spreader(world.broadcast.log,
                                    nr.txid(b"naked tx")) == "client"

    def test_trr_send_identifies_releasing_node_only(self):
        world = SimWorld(SimConfig(n_nodes=20, seed=51))
        for i in range(20):
            tx = bytes([i + 1]) * 15
            report = world.send(tx, SendPolicy(num_routes=2, hops=3,
                                               delays=(1, 2)))
            spreader = sybil_first_spreader(world.broadcast.log, nr.txid(tx))
            releasing = {a.hop_ids[-1] for a in report.rounds[0].attempts}
            assert spreader != "client"
            assert spreader in releasing

    def test_unknown_txid(self):
        world = SimWorld(SimConfig(n_nodes=10, seed=52))
        assert sybil_first_spreader(world.broadcast.log, b"\x00" * 32) is None

    def test_tie_broken_by_log_order(self):
        log = [(100, 7, b"t"), (100, 3, b"t"), (90, 9, b"other"),
               (100, "client", b"t")]
        assert sybil_first_spreader(log, b"t") == 7
        assert sybil_first_spreader(log[2:] + log[:2], b"t") == "client"

    def test_release_and_client_in_one_tick(self):
        # the client's naked broadcast lands in the tick of the release
        world = SimWorld(SimConfig(n_nodes=20, seed=4))
        tx = b"same tick tx"
        report = world.send(tx, SendPolicy(num_routes=1, hops=2))
        world.direct_send(tx)
        (t1, first, _), (t2, second, _) = world.broadcast.log
        assert t1 == t2 and second == "client"
        assert sybil_first_spreader(world.broadcast.log, nr.txid(tx)) \
            == first == report.rounds[0].attempts[0].hop_ids[-1]


class TestNodeEventPrivacy:
    EVENT_KINDS = {"peel_failed", "received", "forwarded", "forward_failed",
                   "verify_failed", "pool_full", "enqueued", "acked",
                   "already_pending", "release_skipped_duplicate",
                   "release_skipped_invalid", "released", "withheld_release"}

    def sends(self):
        world = SimWorld(SimConfig(n_nodes=30, dishonest_rate=0.2,
                                   fake_rate=0.2, seed=8))
        for i in range(4):
            try:
                world.send(bytes([i + 1]) * 40,
                           SendPolicy(num_routes=2, hops=3, retry_rounds=2))
            except GiveUp:
                pass
        return world

    def test_default_level_logs_nothing_and_nodes_keep_counts(self, caplog):
        caplog.set_level(logging.WARNING, logger="trr.node")
        world = self.sends()
        assert world.trace
        assert not [r for r in caplog.records if r.name == "trr.node"]
        honest = [n for n in world.built if n.behavior == HONEST]
        assert honest
        for node in honest:
            assert isinstance(node.events, Counter)
            assert all(isinstance(name, str) and isinstance(count, int)
                       for name, count in node.events.items())
            assert set(node.events) <= self.EVENT_KINDS
        assert sum(sum(n.events.values()) for n in world.built) \
            == len(world.trace)

    def test_debug_level_logs_one_json_line_per_event(self, caplog):
        caplog.set_level(logging.DEBUG, logger="trr.node")
        world = self.sends()
        logged = [json.loads(r.getMessage()) for r in caplog.records
                  if r.name == "trr.node"]
        assert logged == [{k: v for k, v in e.items() if k != "tick"}
                          for e in world.trace]
        forwarded = next(e for e in logged if e["event"] == "forwarded")
        assert set(forwarded) == {"event", "node", "next_ip", "next_port"}


class TestPoolInvariant:
    def test_pool_never_exceeds_capacity(self, monkeypatch):
        monkeypatch.setattr(nr, "POOL_CAPACITY", 2)
        world = SimWorld(SimConfig(n_nodes=12, seed=60))
        node, rng = world.nodes[5], random.Random(60)
        errnos = []
        for i in range(6):  # distinct txs, each served straight to node 5
            keys = [rng.randbytes(32)]
            onion = build_onion(bytes([i + 1]) * 8, (world.directory[5],), 5,
                                keys, 0, rng)
            _, ack = decrypt_ack(node.serve_request(onion, (1, 1)), keys)
            errnos.append(ack.errno)
            assert len(node.pool) <= 2
        assert errnos == [nr.ERR_OK] * 2 + [nr.ERR_POOL_FULL] * 4
        assert node.events["pool_full"] == 4
        world.clock.wait_for(5)  # the two pending txs release
        assert not node.pool and len(world.broadcast.log) == 2
