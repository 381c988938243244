"""§5.3.3 — the three synchronization conflict classes, injected and
detected.

The paper names three conflicts: (1) unreasonable author constraints,
(2) device limits, (3) navigation past arc sources.  Each bench injects
one class into a document and measures the detection path, asserting
the conflict is found, classified correctly, and carries actionable
diagnostics — the paper's role for CMIF: "signalling problems, allowing
other mechanisms to provide solutions".
"""

from repro.core.builder import DocumentBuilder
from repro.core.errors import SchedulingConflict
from repro.core.timebase import MediaTime
from repro.timing.conflicts import (detect_device_conflicts,
                                    diagnose_authoring,
                                    invalid_arcs_after_seek)
from repro.timing.constraints import build_constraints
from repro.timing.solver import solve


def _authoring_conflicted_document():
    """Captions must be readable (14s) but the slot allows 8s."""
    builder = DocumentBuilder("conflicted")
    builder.channel("caption", "text")
    builder.channel("video", "video")
    with builder.par("scene"):
        builder.imm("clip", channel="video", medium="video", data="x",
                    duration=8000)
        caption = builder.imm("text", channel="caption", data="y",
                              duration=14_000)
    document = builder.build()
    # The caption must both start with the clip and end no later than
    # the clip's end — impossible given its 14s reading time.
    builder.arc(caption, source="../clip", destination=".",
                max_delay=MediaTime.ms(0))
    builder.arc(caption, source="../clip", destination=".",
                src_anchor="end", dst_anchor="end",
                max_delay=MediaTime.ms(0))
    return document


def test_conflict_class1_authoring(benchmark):
    document = _authoring_conflicted_document()
    system = build_constraints(document.compile())

    def detect():
        try:
            solve(system)
        except SchedulingConflict as error:
            return diagnose_authoring(error)
        raise AssertionError("conflict not detected")

    reports = benchmark(detect)
    assert reports
    assert all(report.conflict_class == "authoring" for report in reports)
    # The diagnosis names the cycle members so an authoring tool can
    # point at the offending constraints.
    assert any("text" in report.subject for report in reports)

    print(f"\n[conflicts/1] authoring conflict diagnosed with "
          f"{len(reports)} cycle members:")
    for report in reports[:4]:
        print(f"  {str(report)[:94]}")


def test_conflict_class2_device(benchmark, fragment_corpus):
    compiled = fragment_corpus.document.compile()
    # A device whose caption channel takes 400ms to start — wider than
    # every tolerance in the story.
    latencies = {"caption": 400.0, "video": 0.0, "audio": 0.0,
                 "graphic": 0.0, "label": 0.0}

    reports = benchmark(detect_device_conflicts, compiled, latencies)

    assert reports
    assert all(report.conflict_class == "device" for report in reports)
    errors = [r for r in reports if r.severity == "error"]
    assert errors, "must arcs into the caption channel must be flagged"

    print(f"\n[conflicts/2] {len(reports)} device conflicts on a "
          f"400ms-caption device ({len(errors)} errors):")
    for report in reports[:3]:
        print(f"  {str(report)[:94]}")


def test_conflict_class3_navigation(benchmark, fragment_schedule):
    # Seek into the gap between the 'location' caption's end (12s) and
    # painting-two's start (13s): the offset arc's source never runs.
    seek_to = 12_500.0

    reports = benchmark(invalid_arcs_after_seek, fragment_schedule,
                        seek_to)

    assert reports
    assert all(report.conflict_class == "navigation"
               for report in reports)

    # Seeking before the source leaves all arcs valid.
    assert invalid_arcs_after_seek(fragment_schedule, 1000.0) == []

    print(f"\n[conflicts/3] seeking to {seek_to / 1000.0:g}s "
          f"invalidates {len(reports)} arc(s):")
    for report in reports:
        print(f"  {str(report)[:94]}")
