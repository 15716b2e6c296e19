"""Broadcasting the auction makes the phantom visible.

Runs an ascending clinching auction over a committed capacity function,
publishing every demand report and one hash-chained round per clock step
with its rank values and clinches.
Any observer can replay the log: honest transcripts verify clean, while
classic manipulations (inflated clinches, phantom clinches, forged rank
values, and a withheld sybil) each leave a specific violation.
"""

from credmarket import (
    ClinchTranscript,
    SubstituteCloneOracle,
    TableOracle,
    clinching_auction,
    make_commitment,
    tamper_forge_rank,
    tamper_ghost_clinch,
    tamper_inflate_clinch,
    verify_transcript,
)

oracle = TableOracle(
    3,
    {
        (): 0.0, (0,): 2.0, (1,): 2.0, (2,): 1.0,
        (0, 1): 3.0, (0, 2): 3.0, (1, 2): 3.0, (0, 1, 2): 4.0,
    },
)
values = [9.0, 6.0, 4.0]


def audit(label, transcript, committed=None):
    verdict = verify_transcript(transcript, transcript.commitment_root, oracle=committed)
    flags = sorted({v["kind"] for v in verdict.violations})
    status = "clean" if verdict.consistent else f"FLAGGED {flags}"
    print(f"  {label:28s} {status}")
    return verdict


def main():
    root = make_commitment(oracle)
    print(f"commitment root {root[:16]}...")

    transcript = ClinchTranscript(commitment_root=root)
    outcome = clinching_auction(oracle, values, transcript=transcript)
    print(f"clinching outcome: alloc={outcome.allocation} pay={outcome.payments}")
    print(f"transcript carries {len(transcript.events)} broadcast events\n")

    print("replaying transcripts against the commitment:")
    audit("honest log", transcript, committed=oracle)
    audit("inflated clinch qty", tamper_inflate_clinch(transcript), committed=oracle)
    audit("phantom clinch line", tamper_ghost_clinch(transcript, agent=2), committed=oracle)
    audit("forged rank value", tamper_forge_rank(transcript), committed=oracle)

    # a sybil world: operator secretly adds a clone rival of agent 1, then
    # broadcasts a log with the clone's lines withheld and each round
    # relabeled to the real agents, its tag chain recomputed
    plus = SubstituteCloneOracle(oracle, 1)
    shadow = ClinchTranscript(commitment_root=root)
    clinching_auction(plus, values + [5.5], transcript=shadow)
    laundered = ClinchTranscript(commitment_root=root)
    for ev in shadow.events:
        if ev["event"] == "demand":
            if ev["agent"] != 3:
                laundered.demand(ev["agent"], ev["demand"])
            continue
        active, rank, drops = ev["active"], ev["rank"], ev["drops"]
        if 3 in active:
            # the clone's own drop is the real agents' executed rank
            k = active.index(3)
            rank = drops[k]
            active, drops = active[:k] + active[k + 1 :], drops[:k] + drops[k + 1 :]
        clinches = [c for c in ev["clinches"] if c[0] != 3]
        laundered.round(ev["price"], active, rank, drops, clinches)
    audit("laundered sybil log", laundered, committed=oracle)
    print("\nthe sybil's announced rank values disagree with the committed",
          "capacity function on the relabeled subsets, so replay flags them.")


if __name__ == "__main__":
    main()
