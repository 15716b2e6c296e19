"""One simulated market round from the phantom operator's point of view.

Generates a service-market round (eight capacity pods, forty agents),
settles it honestly under threshold payments, scans every rationalizable
phantom-bid placement, then executes and certifies the most damaging one
through `apply_deviation` and prints the per-agent alibi certificates, each
described by its shape, showing why no bidder can prove foul play.
"""

import argparse

from credmarket import (
    DeviationStrategy,
    Mechanism,
    ScenarioConfig,
    apply_deviation,
    best_ghost,
    generate_round,
    ghost_candidates,
    settle_threshold,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--round", type=int, default=2, dest="round_index")
    args = parser.parse_args()

    config = ScenarioConfig()
    profile = generate_round(config, args.seed, args.round_index)
    alloc_h, pay_h = settle_threshold(profile)
    rev_h = sum(pay_h.values())
    welfare_h = sum(profile.bids[a] * alloc_h[a] for a in range(profile.n))
    print(f"round (seed={args.seed}, index={args.round_index})")
    print(f"honest settlement: revenue {rev_h:.2f}, welfare {welfare_h:.2f}")

    cands = ghost_candidates(profile, alloc_h, pay_h)
    if not cands:
        print("no profitable phantom exists this round; try another seed")
        return
    print(f"\n{len(cands)} profitable phantom placements found; top three by damage:")
    for c in sorted(cands, key=lambda c: -c.damage)[:3]:
        print(
            f"  pod {c.pod}: fake rival of agent {c.source:2d} at level {c.level:.3f}"
            f"  -> operator +{c.surplus:.3f}, welfare -{c.damage:.3f}"
        )

    pick = best_ghost(profile, alloc_h, pay_h)
    bids = profile.bids.tolist()
    result = apply_deviation(
        DeviationStrategy("ghost_bid", source=pick.source, level=pick.level),
        bids, Mechanism(payment_rule="vcg"), profile.oracle,
    )
    alloc_d, pay_d = result.deviated.allocation, result.deviated.payments
    rev_d = sum(pay_d.values())
    print(f"\nexecuting the worst one: revenue {rev_h:.2f} -> {rev_d:.2f}")

    moved = [a for a in range(profile.n) if abs(alloc_d[a] - alloc_h[a]) > 1e-9
             or abs(pay_d[a] - pay_h[a]) > 1e-9]
    print(f"{len(moved)} agents saw their outcome move: {moved}")
    print(f"all {profile.n} agents certified unable to detect: "
          f"{all(result.undetectable.values())}")
    for a in moved[:3]:
        print(f"  agent {a}: outcome reproduced by {story(result.certificates[a], bids)}")


def story(cert, bids):
    """What a certificate world is, read off its shape."""
    if cert.entrant is not None:
        return (
            f"a newcomer bidding {cert.entrant['level']:.3f} for agent "
            f"{cert.entrant['source']}'s slot"
        )
    if cert.profile == bids:
        return "the honest field itself"
    rivals = {c for k, c in enumerate(cert.profile) if k != cert.agent}
    if len(rivals) == 1:
        return f"every rival honestly bidding {rivals.pop():.3f}"
    (k,) = [k for k, (b, c) in enumerate(zip(bids, cert.profile)) if b != c]
    return f"agent {k} honestly raising its bid to {cert.profile[k]:.3f}"


if __name__ == "__main__":
    main()
