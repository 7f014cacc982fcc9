"""Closed-form success-rate calculators and parameter sweeps.

SRTR (success rate of transaction releasing): probability that at least
one of r independently drawn routes of h hops contains no dishonest
node, with each hop dishonest independently with probability d:

    SRTR = 1 - (1 - (1-d)^h)^r

SRD (success rate of deanonymization): probability that an attacker
running a fraction f of protocol-correct observer nodes reconstructs at
least one full route.  A single route reconstructs when its first and
last hops are observer nodes and no two consecutive interior hops are
non-observers, so the releasing-to-client chain can be stitched across
single-hop gaps.

Both formulas use the infinite-population approximation (per-hop
independence); with thousands of nodes the finite-pool correction is
below two-decimal reporting precision.

The arithmetic is generic: passing fractions.Fraction parameters yields
exact rational results.
"""

import io
from dataclasses import dataclass

from .errors import DelayOutOfRange, InvalidConfig
from .wire_protocol import MAX_RELEASE_DELAY, MIN_RELEASE_DELAY

CSV_COLUMNS = ("d", "f", "h", "r", "srtr_cf", "srd_cf")
CSV_MC_COLUMNS = ("srtr_mc", "srtr_se", "srd_mc", "srd_se")


@dataclass(frozen=True, slots=True)
class RouteParams:
    """One grid point: dishonest rate d, observer (fake-node) rate f,
    hops per route h, routes per send r."""

    d: float = 0.0
    f: float = 0.0
    h: int = 3
    r: int = 3

    def validate(self) -> None:
        if not (0 <= self.d <= 1 and 0 <= self.f <= 1):
            raise InvalidConfig("rates must lie in [0, 1]")
        if self.d + self.f > 1:
            raise InvalidConfig("d + f must not exceed 1")
        if self.h < 1 or self.r < 1:
            raise InvalidConfig("h and r must be at least 1")


def srtr_closed_form(p: RouteParams):
    """Probability that at least one route releases."""
    p.validate()
    route_ok = (1 - p.d) ** p.h
    return 1 - (1 - route_ok) ** p.r


def chain_coverage_prob(f, m: int):
    """Probability that m independent hops (observer with probability f)
    contain no two consecutive non-observers.

    Recurrence on the first hop: either it is an observer, or it is not
    and the next one must be.
    """
    if m < 0:
        raise ValueError("hop count must be non-negative")
    a_prev2, a_prev1 = 1, 1  # m = 0, 1
    for _ in range(2, m + 1):
        a_prev2, a_prev1 = a_prev1, f * a_prev1 + (1 - f) * f * a_prev2
    return a_prev1 if m >= 1 else a_prev2


def srd_closed_form(p: RouteParams):
    """Probability that at least one route reconstructs end to end."""
    p.validate()
    if p.h == 1:
        route_q = p.f  # single hop is both starting and releasing node
    else:
        route_q = p.f * p.f * chain_coverage_prob(p.f, p.h - 2)
    return 1 - (1 - route_q) ** p.r


def mixing_stats(delay_blocks: int, tx_per_block: int) -> int:
    """Expected number of unrelated transactions mixed in while a
    release waits out its delay."""
    if not MIN_RELEASE_DELAY <= delay_blocks <= MAX_RELEASE_DELAY:
        raise DelayOutOfRange(f"delay {delay_blocks} not in "
                              f"{MIN_RELEASE_DELAY}..{MAX_RELEASE_DELAY}")
    return delay_blocks * tx_per_block


def _fmt(value) -> str:
    return f"{float(value):.6g}"


def sweep(grid, trials: int = 0, seed: int = 0, n_nodes: int = 6000) -> str:
    """CSV table of closed-form (and, with trials > 0, Monte Carlo)
    rates for every grid point, in grid order."""
    columns = CSV_COLUMNS + (CSV_MC_COLUMNS if trials > 0 else ())
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for params in grid:
        params.validate()
        row = [_fmt(params.d), _fmt(params.f), str(params.h), str(params.r),
               _fmt(srtr_closed_form(params)), _fmt(srd_closed_form(params))]
        if trials > 0:
            from .simulator import SimConfig, estimate_srd, estimate_srtr
            cfg = SimConfig(n_nodes=n_nodes, dishonest_rate=params.d,
                            fake_rate=params.f, num_routes=params.r,
                            hops=params.h, trials=trials, seed=seed)
            srtr_mc = estimate_srtr(cfg)
            srd_mc = estimate_srd(cfg)
            row += [_fmt(srtr_mc), _fmt(standard_error(srtr_mc, trials)),
                    _fmt(srd_mc), _fmt(standard_error(srd_mc, trials))]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def standard_error(rate: float, trials: int) -> float:
    """Binomial standard error of a Monte Carlo rate estimate."""
    if trials < 1:
        raise InvalidConfig("trials must be at least 1")
    return (rate * (1 - rate) / trials) ** 0.5
