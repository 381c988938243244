"""ablation — may-arc relaxation policies (DESIGN.md section 5).

When a constraint cycle contains several relaxable (may) arcs, the
solver must choose which preference to sacrifice.  Two policies ship:
drop-last (the author's most recent refinement yields) and drop-widest
(the loosest preference yields).  This bench builds documents where the
policies genuinely diverge and measures solve cost and how many
preferences each policy preserves.

Shape claims: both policies always terminate with a feasible schedule;
drop-widest never drops more arcs than drop-last on these workloads
(sacrificing loose preferences first preserves tight ones).
"""

import pytest

from repro.core.builder import DocumentBuilder
from repro.core.timebase import MediaTime
from repro.timing.constraints import build_constraints
from repro.timing.solver import (RELAX_DROP_LAST, RELAX_DROP_WIDEST,
                                 solve)


def overcommitted_document(pairs: int):
    """A seq track whose events carry stacked, contradictory may arcs.

    Each event wants to begin both within a tight window of the track
    start (impossible once predecessors accumulate) and within a wide
    window of its predecessor (satisfiable); a good policy drops the
    impossible tight preferences, not the wide ones.
    """
    builder = DocumentBuilder("overcommitted")
    builder.channel("v", "video")
    with builder.seq("track", channel="v"):
        for index in range(pairs):
            builder.imm(f"e{index}", data="x", duration=1000)
    document = builder.build()
    track = document.root.child_named("track")
    for index in range(1, pairs):
        node = track.child_named(f"e{index}")
        # Tight: begin within 100ms of the track's start (impossible
        # for index >= 1, predecessors take index seconds).
        builder.arc(node, source="..", destination=".",
                    strictness="may", max_delay=MediaTime.ms(100))
        # Wide: begin within 5s of the predecessor's end (satisfiable).
        builder.arc(node, source=f"../e{index - 1}", destination=".",
                    src_anchor="end", strictness="may",
                    max_delay=MediaTime.ms(5000))
    return document


POLICIES = (RELAX_DROP_LAST, RELAX_DROP_WIDEST)


@pytest.mark.parametrize("policy", POLICIES)
def test_ablation_relaxation_policy(benchmark, policy):
    document = overcommitted_document(pairs=10)
    system = build_constraints(document.compile())

    result = benchmark(solve, system, relaxation_policy=policy)

    # Both policies terminate feasibly.
    assert result.dropped
    assert result.iterations == len(result.dropped) + 1

    # The satisfiable wide arcs should survive: dropping any of them
    # is waste.  Count survivors.
    dropped_widths = [c.arc.max_delay.value for c in result.dropped
                      if c.arc is not None and c.arc.max_delay]
    print(f"\n[ablation/relaxation] policy={policy}: dropped "
          f"{len(result.dropped)} arcs (widths {sorted(set(dropped_widths))}), "
          f"{result.iterations} solve iterations")


def test_ablation_policies_compared():
    document = overcommitted_document(pairs=10)
    outcomes = {}
    for policy in POLICIES:
        system = build_constraints(document.compile())
        outcomes[policy] = solve(system, relaxation_policy=policy)

    last = outcomes[RELAX_DROP_LAST]
    widest = outcomes[RELAX_DROP_WIDEST]
    # Identical final schedules are possible, but drop-widest must not
    # sacrifice more preferences than drop-last here.
    assert len(widest.dropped) <= len(last.dropped)

    # Both end feasible: the surviving system checks out.
    for policy, result in outcomes.items():
        system = build_constraints(document.compile())
        skipped = {c.describe() for c in result.dropped}
        survivors = [c for c in system.constraints
                     if c.describe() not in skipped]
        violations = [c for c in survivors
                      if result.times_ms[c.var]
                      - result.times_ms[c.base] < c.weight_ms - 1e-6]
        assert violations == [], policy
