#!/usr/bin/env python3
"""Hyper-navigation: conditional arcs as a chapter menu (paper §3.2).

The paper leaves hyper access as future work, sketching "conditional
synchronization arcs that point to events on separate channels".  This
example builds a documentary with a menu scene carrying three
conditional arcs, then simulates a reader session: browse the menu,
follow a link, rewind, follow another — and shows the class-3 conflict
analysis firing when a jump skips over an arc's source.  Run it with::

    python examples/hypermedia_menu.py
"""

from repro.core import DocumentBuilder, MediaTime
from repro.core.syncarc import ConditionalArc
from repro.pipeline.navprogram import compile_navigation
from repro.pipeline.viewer import render_timeline
from repro.timing import schedule_document


def build_documentary():
    builder = DocumentBuilder("documentary")
    builder.channel("video", "video")
    builder.channel("caption", "text")
    with builder.seq("film"):
        builder.imm("titles", channel="video", medium="video",
                    data="<titles>", duration=MediaTime.seconds(4))
        menu = builder.imm("menu", channel="video", medium="video",
                           data="<chapter menu>",
                           duration=MediaTime.seconds(6))
        with builder.par("ch-making"):
            builder.imm("making-video", channel="video", medium="video",
                        data="<making of>",
                        duration=MediaTime.seconds(20))
            builder.imm("making-cap", channel="caption",
                        data="Chapter 1: how the paintings were made.")
        with builder.par("ch-theft"):
            theft = builder.imm("theft-video", channel="video",
                                medium="video", data="<the theft>",
                                duration=MediaTime.seconds(25))
            builder.imm("theft-cap", channel="caption",
                        data="Chapter 2: the night of the theft.")
        with builder.par("ch-recovery"):
            recovery = builder.imm("recovery-video", channel="video",
                                   medium="video", data="<recovery>",
                                   duration=MediaTime.seconds(15))
            cap = builder.imm("recovery-cap", channel="caption",
                              data="Chapter 3: ten years later.")
    document = builder.build()
    # A relative arc inside the linear structure: the recovery caption
    # may not appear until the theft chapter's video has ended.
    builder.arc(cap, source="../../ch-theft/theft-video",
                destination=".", src_anchor="end", max_delay=None)
    # The menu's conditional arcs: pure runtime links, no effect on the
    # static schedule.
    for condition, target in (("watch-making", "../ch-making"),
                              ("watch-theft", "../ch-theft"),
                              ("watch-recovery", "../ch-recovery")):
        menu.add_arc(ConditionalArc(".", target, condition=condition))
    return document


def main() -> None:
    document = build_documentary()
    schedule = schedule_document(document.compile())

    print("the static (linear) schedule — conditional arcs add nothing:")
    print(render_timeline(schedule, slot_ms=5000.0, column_width=16))
    print()

    session = compile_navigation(schedule).session()
    print(f"at t=0 the menu is not on screen; links: "
          f"{session.conditions_available()}")
    session.advance_to(5000.0)
    print(f"at t=5s the menu is showing; links: "
          f"{session.conditions_available()}")
    print()

    jump = session.follow("watch-theft")
    print(f"reader picks 'watch-theft': jumped from "
          f"{jump.from_ms / 1000.0:g}s to {jump.to_ms / 1000.0:g}s")
    print(f"  on screen now: {session.on_screen()}")
    if jump.invalidated:
        for report in jump.invalidated:
            print(f"  ~ {report}")
    print()

    session.rewind()
    session.advance_to(5000.0)
    jump = session.follow("watch-recovery")
    print(f"reader rewinds and picks 'watch-recovery': jumped to "
          f"{jump.to_ms / 1000.0:g}s")
    print(f"  on screen now: {session.on_screen()}")
    print(f"  invalidated arcs (the theft chapter never played, so the "
          f"caption's hold arc is void):")
    for report in jump.invalidated:
        print(f"  ~ {report}")
    print()
    print(f"session history: "
          f"{[jump.condition for jump in session.history]}")


if __name__ == "__main__":
    main()
