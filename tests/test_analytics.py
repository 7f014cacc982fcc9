"""Closed forms against brute-force enumeration, plus sweep CSV output."""

import itertools
from fractions import Fraction

import pytest

from trr.analytics import (
    chain_coverage_prob,
    mixing_stats,
    srd_closed_form,
    srtr_closed_form,
    standard_error,
    sweep,
)
from trr.errors import DelayOutOfRange, InvalidConfig
from trr.onion_routing import MAX_HOPS
from trr.simulator import SimConfig


def srd_route_prob_brute(f: Fraction, h: int) -> Fraction:
    """Independent oracle: enumerate every observer pattern of a route
    and sum the probability of the reconstructible ones."""
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


class TestSrtr:
    def test_reference_values(self):
        assert abs(srtr_closed_form(SimConfig(dishonest_rate=0.1, hops=3))
                   - 0.9801) < 1e-4
        assert abs(srtr_closed_form(SimConfig(dishonest_rate=0.3, hops=4))
                   - 0.561) < 5e-4

    def test_single_hop_single_route(self):
        for d in (0.0, 0.25, 0.9):
            cfg = SimConfig(dishonest_rate=d, hops=1, num_routes=1)
            assert srtr_closed_form(cfg) == pytest.approx(1 - d)

    def test_monotonicities(self):
        grid_d = [0.05 * i for i in range(1, 19)]
        for h, r in [(3, 2), (5, 3)]:
            values = [srtr_closed_form(SimConfig(dishonest_rate=d, hops=h,
                                                 num_routes=r))
                      for d in grid_d]
            assert all(a > b for a, b in zip(values, values[1:]))
        for d, r in [(0.2, 2)]:
            values = [srtr_closed_form(SimConfig(dishonest_rate=d, hops=h,
                                                 num_routes=r))
                      for h in range(1, 11)]
            assert all(a > b for a, b in zip(values, values[1:]))
        for d, h in [(0.2, 4)]:
            values = [srtr_closed_form(SimConfig(dishonest_rate=d, hops=h,
                                                 num_routes=r))
                      for r in range(1, 6)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_bounds(self):
        for d in (0.0, 0.3, 1.0):
            for h in (1, 5, 10):
                for r in (1, 3):
                    v = srtr_closed_form(SimConfig(dishonest_rate=d, hops=h,
                                                   num_routes=r))
                    assert 0.0 <= v <= 1.0


class TestSrd:
    def test_reference_values(self):
        assert srd_closed_form(SimConfig(fake_rate=0.1, hops=2)) \
            == pytest.approx(0.0297, abs=1e-4)
        assert srd_closed_form(SimConfig(fake_rate=0.3, hops=3)) \
            == pytest.approx(0.2464, abs=1e-4)
        assert srd_closed_form(SimConfig(fake_rate=0.3, hops=5)) \
            == pytest.approx(0.0948, abs=1e-4)

    def test_exact_match_with_brute_force(self):
        for h in range(1, 9):
            for i in range(1, 10):
                f = Fraction(i, 10)
                got = srd_closed_form(SimConfig(fake_rate=f, hops=h, num_routes=1))
                assert got == srd_route_prob_brute(f, h), (f, h)

    def test_coverage_prob_bounds_and_monotone(self):
        for f in (0.1, 0.4, 0.8):
            values = [chain_coverage_prob(f, m) for m in range(0, 13)]
            assert all(f ** m <= v <= 1 for m, v in enumerate(values))
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_closed_forms_reject_what_the_protocol_rejects(self):
        # SimConfig.validate is the one check: hops above MAX_HOPS, rates
        # summing past 1 and an empty population all raise
        for cfg in (SimConfig(hops=MAX_HOPS + 1),
                    SimConfig(dishonest_rate=0.6, fake_rate=0.6),
                    SimConfig(n_nodes=2, hops=3)):
            with pytest.raises(InvalidConfig):
                srd_closed_form(cfg)
            with pytest.raises(InvalidConfig):
                srtr_closed_form(cfg)
        assert srd_closed_form(SimConfig(fake_rate=0.5, hops=MAX_HOPS)) > 0

    def test_bounds(self):
        for f in (0.0, 0.5, 1.0):
            for h in (1, 4, 10):
                v = srd_closed_form(SimConfig(fake_rate=f, hops=h))
                assert 0.0 <= v <= 1.0


class TestMixingStats:
    @pytest.mark.parametrize("delay,expected", [(1, 945), (2, 1890), (5, 4725)])
    def test_block_statistics(self, delay, expected):
        assert mixing_stats(delay, 945) == expected

    @pytest.mark.parametrize("delay", [0, 6, -1])
    def test_delay_out_of_range(self, delay):
        with pytest.raises(DelayOutOfRange):
            mixing_stats(delay, 945)


HEADER = "d,f,h,r,srtr_cf,srd_cf,srtr_mc,srtr_se,srd_mc,srd_se"


class TestSweep:
    def test_release_rate_grid_30_rows(self):
        grid = [SimConfig(dishonest_rate=0.1, hops=h, num_routes=r)
                for h in range(1, 11) for r in (1, 2, 3)]
        lines = sweep(grid).strip().split("\n")
        assert lines[0] == HEADER
        assert len(lines) == 31

    def test_observer_rate_grid_12_rows(self):
        grid = [SimConfig(fake_rate=f, hops=h, num_routes=3)
                for f in (0.1, 0.2, 0.3) for h in (2, 3, 4, 5)]
        lines = sweep(grid).strip().split("\n")
        assert len(lines) == 13

    def test_empty_grid_header_only(self):
        assert sweep([]) == HEADER + "\n"

    def test_monte_carlo_columns(self):
        grid = [SimConfig(n_nodes=500, dishonest_rate=0.2, num_routes=2,
                          hops=2, trials=5_000, seed=4)]
        header, row = sweep(grid).strip().split("\n")
        assert header == HEADER
        values = dict(zip(header.split(","), row.split(",")))
        assert abs(float(values["srtr_mc"]) - float(values["srtr_cf"])) < 0.03
        assert float(values["srd_mc"]) == 0.0  # no observers configured

    def test_values_parse_losslessly(self):
        cfg = SimConfig(dishonest_rate=1 / 3, fake_rate=0.123456789, hops=4,
                        num_routes=2)
        header, row = sweep([cfg]).strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        # 6 significant digits
        assert values["d"] == "0.333333"
        assert values["f"] == "0.123457"
        cf = srtr_closed_form(cfg)
        assert float(values["srtr_cf"]) == pytest.approx(cf, rel=1e-5)

    def test_invalid_grid_point(self):
        with pytest.raises(InvalidConfig):
            sweep([SimConfig(dishonest_rate=0.8, fake_rate=0.8, hops=2,
                             num_routes=1)])


def test_standard_error():
    assert standard_error(0.5, 10_000) == pytest.approx(0.005)
    assert standard_error(0.0, 100) == 0.0
    with pytest.raises(InvalidConfig):
        standard_error(0.5, 0)
