"""Reference checks the benchmark applies to the program's outputs.

Nothing here imports ``trr``: each check is written again from the
protocol's definitions (double-SHA256 txids, the SRTR and SRD formulas,
the route-stitching rule), so a fault in the program cannot hide behind
the same fault in its own check.  Every check returns a list of problem
strings; an empty list means the output passed.
"""

import hashlib
import itertools
import math

# Node behaviours as the simulator names them.  A hop forwards when it is
# neither unreachable, silent, nor advertising a key it cannot use.
FAKE_TRR = "fake_trr"
NOT_FORWARDING = ("deny_connection", "drop_data", "wrong_pubkey")


def txid(tx: bytes) -> bytes:
    """Bitcoin-style transaction id: SHA-256 applied twice."""
    return hashlib.sha256(hashlib.sha256(tx).digest()).digest()


# -- broadcast log -------------------------------------------------------------

def parse_broadcast_log(text: str) -> list[tuple[str, str]]:
    """Lines of a FileBroadcastView log as (txid hex, tx hex) pairs."""
    out = []
    for line in text.splitlines():
        tid_hex, _, tx_hex = line.partition(" ")
        out.append((tid_hex, tx_hex))
    return out


def check_broadcast_log(entries, release_heights, sends) -> list[str]:
    """Check a broadcast log against the sends that produced it.

    entries: (txid hex, tx hex) per log line, in file order.
    release_heights: the block height at which each line was appended.
    sends: (tx, dispatch_height, smallest route delay) per send.

    Each transaction must appear exactly once, under its own txid, and not
    before its dispatch height plus the smallest delay of its routes.  A
    line that belongs to no send is a problem too.
    """
    problems = []
    if len(release_heights) != len(entries):
        problems.append(f"{len(entries)} log lines but "
                        f"{len(release_heights)} release heights")
    lines_by_tx: dict[str, list[int]] = {}
    for i, (tid_hex, tx_hex) in enumerate(entries):
        lines_by_tx.setdefault(tx_hex, []).append(i)
        try:
            tx = bytes.fromhex(tx_hex)
        except ValueError:
            problems.append(f"line {i}: transaction is not hex")
            continue
        if txid(tx).hex() != tid_hex:
            problems.append(f"line {i}: txid {tid_hex[:16]} does not match "
                            "the double-SHA256 of its transaction")
    sent = set()
    for tx, dispatch_height, min_delay in sends:
        sent.add(tx.hex())
        lines = lines_by_tx.get(tx.hex(), [])
        if len(lines) != 1:
            problems.append(f"tx {txid(tx).hex()[:16]} appears "
                            f"{len(lines)} times")
            continue
        if lines[0] < len(release_heights):
            height = release_heights[lines[0]]
            if height < dispatch_height + min_delay:
                problems.append(
                    f"tx {txid(tx).hex()[:16]} released at height {height}, "
                    f"before {dispatch_height} + {min_delay}")
    for tx_hex, lines in lines_by_tx.items():
        if tx_hex not in sent:
            problems.append(f"line {lines[0]}: transaction was never sent")
    return problems


# -- closed forms --------------------------------------------------------------

def srtr_reference(d: float, hops: int, routes: int) -> float:
    """SRTR = 1 - (1 - (1-d)^h)^r."""
    return 1 - (1 - (1 - d) ** hops) ** routes


def reconstructible(observed) -> bool:
    """A route can be stitched back to its client when both its ends are
    observed and no two consecutive hops are unobserved."""
    observed = list(observed)
    if not observed or not observed[0] or not observed[-1]:
        return False
    return not any(not a and not b for a, b in zip(observed, observed[1:]))


def srd_reference(f: float, hops: int, routes: int) -> float:
    """SRD by enumerating all 2^h observer patterns of one route."""
    route_q = 0.0
    for pattern in itertools.product((False, True), repeat=hops):
        if reconstructible(pattern):
            k = sum(pattern)
            route_q += f ** k * (1 - f) ** (hops - k)
    return 1 - (1 - route_q) ** routes


def check_estimate(estimate: float, reference: float, trials: int,
                   k: float) -> list[str]:
    """The estimate lies within k binomial standard errors of the
    reference; the standard error is taken at the reference, floored at
    one trial so a rate of exactly 0 or 1 still has a window."""
    se = max(math.sqrt(reference * (1 - reference) / trials), 1 / trials)
    if abs(estimate - reference) > k * se:
        return [f"estimate {estimate:.5f} is {abs(estimate - reference) / se:.1f}"
                f" standard errors from {reference:.5f} ({trials} trials)"]
    return []


# -- attack ledger -------------------------------------------------------------

def onion_reaches_last_hop(behaviours) -> bool:
    """The onion arrives at the releasing hop when every hop before it
    forwards."""
    return not any(b in NOT_FORWARDING for b in behaviours[:-1])


def expected_recoveries(routes) -> set:
    """Routes an observer-node attacker can stitch back to the client.

    routes: (address chain, txid, behaviour per hop) for every route a
    client dispatched.  A route is recovered when its onion reached the
    releasing hop and its observer pattern is reconstructible.
    """
    return {(tuple(chain), tid) for chain, tid, behaviours in routes
            if onion_reaches_last_hop(behaviours)
            and reconstructible(b == FAKE_TRR for b in behaviours)}


def check_reconstruction(recovered, routes) -> list[str]:
    """Check the attacker's recovered (address chain, txid) pairs.

    The recovered chains that are real routes must be exactly the
    expected recoveries.  Stitching pooled observations can also join
    pieces of different requests into a chain that is no real route; the
    attacker cannot tell those apart, so they are allowed, but only if
    they start at a first hop, end at a releasing hop of their txid and
    follow links some client route really took.
    """
    real = {(tuple(chain), tid) for chain, tid, _ in routes}
    links = {pair for chain, _, _ in routes for pair in zip(chain, chain[1:])}
    first_hops = {chain[0] for chain, _, _ in routes}
    releasing = {(chain[-1], tid) for chain, tid, _ in routes}
    problems = []
    got = set()
    for chain, tid in recovered:
        chain = tuple(chain)
        if (chain, tid) in real:
            got.add((chain, tid))
        elif (not chain or chain[0] not in first_hops
              or (chain[-1], tid) not in releasing
              or any(pair not in links for pair in zip(chain, chain[1:]))):
            problems.append(f"recovered chain {chain} of tx {tid.hex()[:16]} "
                            "follows no observed path")
    want = expected_recoveries(routes)
    for chain, tid in sorted(want - got):
        problems.append(f"route {chain} of tx {tid.hex()[:16]} not recovered")
    for chain, tid in sorted(got - want):
        problems.append(f"route {chain} of tx {tid.hex()[:16]} recovered "
                        "although its pattern is not reconstructible")
    return problems
