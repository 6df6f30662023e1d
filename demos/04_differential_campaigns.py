"""
Differential testing campaigns
==============================

Independent solvers for the same problem should never disagree. The
campaign driver makes that an executable statement: an exhaustive sweep
over every small graph shape, and randomized batches that cross-check any
subset of engines, with every conflict recorded replayably.
"""

from dataclasses import replace

from exactmatch import (
    GenSpec,
    exhaustive_sweep,
    graph_classes_with_pm,
    randomized_campaign,
    report_to_json,
)

# The exhaustive side enumerates isomorphism classes that can matter: for
# n = 4 there are six graph shapes containing a perfect matching.
for edges in graph_classes_with_pm(4):
    print(f"{len(edges)} edges: {edges}")

# Sweep them (and the n = 2 shape) against every coloring and every k,
# comparing the brute-force solver with the gadget reduction.
report = exhaustive_sweep(4)
print(f"sweep n<=4: {report.instances_run} instances, "
      f"{len(report.disagreements)} disagreement(s)")

# The randomized side draws seeded instances from a template. Adding the
# algebraic engine brings a randomized voice into the comparison: with a
# single trial it sometimes misses a yes (a statistical event, tracked
# separately from hard disagreements, which would mean a real bug).
template = GenSpec(n=6, extra_edges=5, seed=11, bipartite=True)
report = randomized_campaign(
    400, template, engines=("brute-em", "via-tkpm", "algebraic"), trials=1)
print(f"random campaign: {report.instances_run} instances, "
      f"{len(report.disagreements)} hard, "
      f"{len(report.statistical_events)} statistical")
for engine, detected, yes_total in report.detection:
    print(f"{engine}: detected {detected} of {yes_total} yes instances")

# Every event embeds the instance text, so a conflict replays on its own.
if report.statistical_events:
    event = report.statistical_events[0]
    print(f"example event: {event.engine_a}={event.verdict_a} "
          f"{event.engine_b}={event.verdict_b}")
    print(event.instance_text, end="")

# Reports serialize stably for diffing across runs; the engine timings are
# left out here, since they differ from run to run.
print(report_to_json(replace(report, engine_seconds=()))[:200], "...")
