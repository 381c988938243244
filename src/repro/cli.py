"""Command-line interface for the CMIF toolset.

The paper expects documents to be "created and viewed using appropriate
user interface tools"; this CLI is the scriptable version of those
tools, one subcommand per pipeline capability:

* ``validate`` — run the consistency rules over a document file;
* ``show`` — render the tree / embedded / summary views (figure 5);
* ``schedule`` — solve and print the timeline (figure 3);
* ``arcs`` — print the figure-9 arc table;
* ``play`` — simulate playback on a named environment profile and
  report arc audits;
* ``negotiate`` — the can-this-system-play-this-document check
  (``--json`` for the machine-readable verdict);
* ``pack`` / ``unpack`` — transport packaging;
* ``query`` — attribute search over a package's descriptor store,
  optionally printing the planner's chosen index plan (``--explain``);
* ``news`` — emit the built-in Evening News corpus as CMIF text;
* ``ingest`` — stream a directory of CMIF documents through the cold
  pipeline (parse → compile → graph solve → playback program), warming
  the serving caches and reporting per-stage throughput;
* ``serve`` — admit a corpus against environment profiles through the
  multi-tenant session engine (negotiate → adapt → batch replay) and
  report per-environment verdict counts and throughput.

Usage::

    python -m repro.cli news -o news.cmif
    python -m repro.cli validate news.cmif
    python -m repro.cli schedule news.cmif
    python -m repro.cli play news.cmif --environment personal-system
    python -m repro.cli ingest corpus/ --generate 24
    python -m repro.cli serve catalog/ --generate 12 --sessions 4 --replays 8
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.channels import Medium
from repro.core.document import CmifDocument
from repro.core.errors import CmifError
from repro.core.validate import ERROR, validate_document
from repro.format.parser import parse_document
from repro.format.writer import write_document
from repro.pipeline.program import BatchPlayer
from repro.pipeline.viewer import (render_arc_table, render_authoring_view,
                                   render_embedded, render_summary,
                                   render_sweep, render_tree)
from repro.timing import ScheduleCache, schedule_document
from repro.transport.environments import (PERSONAL_SYSTEM, PROFILES,
                                          SILENT_TERMINAL,
                                          SystemEnvironment, WORKSTATION)
from repro.transport.negotiate import negotiate

ENVIRONMENTS: dict[str, SystemEnvironment] = {
    environment.name: environment
    for environment in (WORKSTATION, PERSONAL_SYSTEM, SILENT_TERMINAL)
}


def load_document(path: str) -> CmifDocument:
    """Read a CMIF file: either the text form or a transport package.

    Packages carry data descriptors, so a document loaded from one is
    schedulable; the bare text form is transportable but needs a store
    (or explicit durations) before it can be scheduled — exactly the
    paper's split.
    """
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        from repro.transport.package import unpack
        return unpack(text).document
    return parse_document(text)


def cmd_validate(args: argparse.Namespace) -> int:
    document = load_document(args.document)
    issues = validate_document(document)
    for issue in issues:
        print(issue)
    errors = [issue for issue in issues if issue.severity == ERROR]
    if errors:
        print(f"INVALID: {len(errors)} error(s), "
              f"{len(issues) - len(errors)} warning(s)")
        return 1
    print(f"VALID: 0 errors, {len(issues)} warning(s)")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    document = load_document(args.document)
    if args.form == "tree":
        print(render_tree(document))
    elif args.form == "embedded":
        print(render_embedded(document))
    else:
        print(render_summary(document))
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    document = load_document(args.document)
    print(render_authoring_view(document, slot_ms=args.slot_ms))
    return 0


def cmd_arcs(args: argparse.Namespace) -> int:
    document = load_document(args.document)
    schedule = schedule_document(document.compile())
    print(render_arc_table(schedule, explicit_only=not args.all))
    return 0


def _parse_float_list(raw: str, flag: str) -> list[float]:
    """A comma-separated float list (``--rates``/``--seeks``)."""
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise CmifError(f"{flag} expects comma-separated numbers, "
                        f"got {raw!r}") from None
    if not values:
        raise CmifError(f"{flag} expects at least one number, "
                        f"got {raw!r}")
    return values


def cmd_play(args: argparse.Namespace) -> int:
    if args.replays < 1:
        print("error: --replays must be at least 1", file=sys.stderr)
        return 2
    document = load_document(args.document)
    environment = ENVIRONMENTS[args.environment]
    # One solve, one compiled program: every replay, seek and sweep cell
    # reuses the cached schedule and the lowered playback program.
    cache = ScheduleCache()
    batch = BatchPlayer.for_document(document, environment,
                                     seed=args.seed,
                                     prefetch_lead_ms=args.prefetch,
                                     cache=cache)
    if args.sweep:
        rates = (_parse_float_list(args.rates, "--rates")
                 if args.rates else [args.rate])
        seeks = (_parse_float_list(args.seeks, "--seeks")
                 if args.seeks else [args.seek])
        cells = batch.sweep(PROFILES, rates,
                            [seek * 1000.0 for seek in seeks],
                            replays=args.replays)
        print(render_sweep(cells))
        return 1 if any(cell.must_violations for cell in cells) else 0
    failed = False
    # One run_one per iteration streams summaries and keeps O(1)
    # reports live, replay counts being unbounded.
    for replay in range(args.replays):
        report = batch.run_one(rate=args.rate,
                               seek_to_ms=args.seek * 1000.0,
                               replay=replay)
        if args.replays > 1:
            print(f"replay {replay} (jitter seed {args.seed + replay}):")
        print(report.summary())
        if args.verbose:
            for audit in report.audits:
                print(f"  {audit}")
        failed = failed or bool(report.must_violation_count)
    if args.replays > 1:
        print(cache.describe())
    return 1 if failed else 0


def cmd_negotiate(args: argparse.Namespace) -> int:
    document = load_document(args.document)
    environment = ENVIRONMENTS[args.environment]
    result = negotiate(document, environment)
    if args.json:
        print(result.to_json())
    else:
        print(result.summary())
    return 0 if result.ok else 1


def _parse_environments(raw: str) -> list[SystemEnvironment]:
    """The ``serve --environments`` grammar: ``all`` or a name CSV."""
    if raw == "all":
        return list(PROFILES)
    environments = []
    for name in raw.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in ENVIRONMENTS:
            raise CmifError(f"unknown environment {name!r}; expected one "
                            f"of {sorted(ENVIRONMENTS)} or 'all'")
        environments.append(ENVIRONMENTS[name])
    if not environments:
        raise CmifError("--environments selected no environment profiles")
    return environments


def _load_edit_script(path: str) -> list:
    """Read a JSON edit script: a list of edit-spec objects.

    The spec format is :meth:`repro.pipeline.patch.LiveEditor.apply`'s
    — ``op`` plus per-op fields, optionally ``at_step`` (scheduler step
    to fire at) and ``document`` (corpus index, ``serve`` only).
    """
    import json
    script = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(script, list) \
            or not all(isinstance(spec, dict) for spec in script):
        raise CmifError(f"edit script {path} must be a JSON list of "
                        f"edit objects")
    return script


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.corpus import generate_serving_corpus
    from repro.serving import SessionEngine
    directory = Path(args.directory)
    if directory.exists() and not directory.is_dir():
        print(f"error: {directory} exists and is not a directory",
              file=sys.stderr)
        return 2
    if args.generate:
        written = generate_serving_corpus(directory,
                                          documents=args.generate,
                                          events=args.events,
                                          seed=args.seed,
                                          links=args.links)
        print(f"generated {len(written)} package(s) in {directory}")
    if not directory.is_dir():
        print(f"error: {directory} is not a directory (use --generate N "
              f"to create a synthetic serving corpus)", file=sys.stderr)
        return 2
    paths = sorted(directory.glob(args.pattern))
    if not paths:
        print(f"error: no {args.pattern} files in {directory}",
              file=sys.stderr)
        return 2
    documents = [load_document(str(path)) for path in paths]
    environments = _parse_environments(args.environments)
    if args.sites:
        return _serve_placement(args, documents, environments)
    edit_script = (_load_edit_script(args.edit_script)
                   if args.edit_script else None)
    engine = SessionEngine(seed=args.seed, faults=args.faults)
    report = engine.serve(documents, environments,
                          sessions_per_pair=args.sessions,
                          replays=args.replays,
                          interactive_per_pair=args.interactive,
                          follows=args.follows,
                          workers=args.workers,
                          edit_script=edit_script)
    print(report.describe())
    print(f"  workers={args.workers}")
    if args.interactive and engine.last_queue is not None:
        print(f"  {engine.last_queue.stats().describe()}")
    return 0 if report.admitted else 1


def _serve_placement(args: argparse.Namespace, documents,
                     environments) -> int:
    """The ``serve --sites N`` path: federated placement serving.

    Authors the corpus across a simulated site topology, streams a
    zipf-skewed session workload through the engine with per-session
    origin affinity, and (optionally) replans placement between
    batches.  Placement never changes what sessions play — only where
    their bytes come from — so the per-session rows are identical
    under every ``--placement`` policy.
    """
    from repro.corpus.workload import (WorkloadSpec, build_workload,
                                       serve_workload)
    from repro.serving import SessionEngine
    spec = WorkloadSpec(sites=args.sites, topology=args.topology,
                        documents=len(documents), events=args.events,
                        sessions=args.placement_sessions,
                        zipf_s=args.zipf, locality=args.locality,
                        seed=args.seed)
    workload = build_workload(spec, documents=documents,
                              faults=args.faults)
    engine = SessionEngine(seed=args.seed, federation=workload.federation)
    reports = serve_workload(workload, environments,
                             policy=args.placement,
                             rebalance_every=args.rebalance_every,
                             replays=args.replays, engine=engine)
    counters = workload.federation.traffic.counters()
    admitted = sum("UNPLAYABLE" not in line
                   for report in reports
                   for line in report.sessions_served)
    total = sum(len(report.sessions_served) for report in reports)
    print(f"placement: policy={args.placement} "
          f"topology={args.topology} sites={args.sites} "
          f"sessions={total} admitted={admitted}")
    print(f"  remote={counters['requests']} "
          f"local={counters['local_requests']} "
          f"bytes={counters['total_bytes']} "
          f"simulated_ms={counters['simulated_ms']:.1f} "
          f"moves={counters['placement_moves']}")
    if args.placement_report:
        print(workload.federation.placement_report().describe())
    return 0 if admitted else 1


def cmd_edit(args: argparse.Namespace) -> int:
    """Replay a live-edit script against one document's warm pyramid.

    Admits the document against the selected environment profiles
    (warming schedule, program, adaptation and navigation caches — the
    state a hot serving fleet would hold), then applies each scripted
    edit through the delta-lowering path and prints its per-level
    patch/recompile outcome.
    """
    from repro.pipeline.adaptation import adapted_navigation_for
    from repro.serving import SessionEngine
    document = load_document(args.document)
    script = _load_edit_script(args.script)
    environments = _parse_environments(args.environments)
    engine = SessionEngine(seed=args.seed)
    sessions = [engine.admit(document, environment)
                for environment in environments]
    for session in sessions:
        if session.admitted:
            adapted_navigation_for(session.schedule, session.environment,
                                   program_cache=engine.program_cache)
    applied = 0
    for spec in script:
        try:
            record = engine.apply_edit(document, spec, sessions=sessions)
        except CmifError as error:
            print(f"edit {spec.get('op')}: conflict: {error}")
            continue
        applied += 1
        print(record.explain())
    print(engine.editor_for(document).stats.describe())
    return 0 if applied == len(script) else 1


def cmd_pack(args: argparse.Namespace) -> int:
    from repro.transport.package import pack
    document = load_document(args.document)
    package = pack(document, embed_data=False, strict=False)
    Path(args.output).write_text(package, encoding="utf-8")
    print(f"packed {args.document} -> {args.output} "
          f"({len(package)} bytes)")
    return 0


def cmd_unpack(args: argparse.Namespace) -> int:
    from repro.transport.package import unpack
    package = Path(args.package).read_text(encoding="utf-8")
    result = unpack(package)
    text = write_document(result.document)
    Path(args.output).write_text(text, encoding="utf-8")
    print(f"unpacked {args.package} -> {args.output} "
          f"({result.embedded_blocks} embedded blocks, "
          f"{result.verified_checksums} checksums verified)")
    return 0


def _parse_attr_criterion(raw: str) -> tuple[str, object]:
    """Parse one ``name=value`` criterion (value coerced to a number
    when it looks like one)."""
    name, separator, text = raw.partition("=")
    if not separator or not name:
        raise CmifError(f"--attr expects name=value, got {raw!r}")
    value: object = text
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            pass
    return name, value


def build_query(args: argparse.Namespace):
    """The query AST the ``query`` subcommand's flags describe."""
    from repro.store import (always, attr_eq, attr_range,
                             duration_between, keyword, medium_is)
    parts = []
    for word in args.keyword or ():
        parts.append(keyword(word))
    if args.medium:
        parts.append(medium_is(args.medium))
    for raw in args.attr or ():
        name, value = _parse_attr_criterion(raw)
        parts.append(attr_eq(name, value))
    for raw in args.range or ():
        name, value = _parse_attr_criterion(raw)
        bounds = str(value).split(":")
        if len(bounds) != 2:
            raise CmifError(f"--range expects name=min:max, got {raw!r}")
        try:
            minimum = float(bounds[0]) if bounds[0] else None
            maximum = float(bounds[1]) if bounds[1] else None
        except ValueError:
            raise CmifError(f"--range expects numeric bounds, "
                            f"got {raw!r}") from None
        parts.append(attr_range(name, minimum, maximum))
    if args.min_duration is not None or args.max_duration is not None:
        parts.append(duration_between(args.min_duration,
                                      args.max_duration))
    if not parts:
        return always()
    query = parts[0]
    for part in parts[1:]:
        query = query & part
    return query


def cmd_query(args: argparse.Namespace) -> int:
    text = Path(args.package).read_text(encoding="utf-8")
    if not text.lstrip().startswith("{"):
        print("error: query needs a transport package — descriptors "
              "travel in packages, not in the bare text form "
              "(make one with `pack` or `news --package`)",
              file=sys.stderr)
        return 2
    from repro.store import execute_plan
    from repro.transport.package import unpack
    store = unpack(text).store
    query = build_query(args)
    plan = store.explain(query)
    if args.explain:
        print(plan.describe())
    store.stats.reset()
    results = execute_plan(store, plan)
    for descriptor in results:
        keywords = descriptor.get("keywords", ())
        noted = (f"  keywords={','.join(map(str, keywords))}"
                 if keywords else "")
        print(f"{descriptor.descriptor_id}  "
              f"[{descriptor.medium.value}]{noted}")
    print(f"{len(results)} match(es) out of {len(store)} descriptors; "
          f"{store.stats.attribute_reads} attribute read(s), "
          f"{store.stats.payload_reads} payload read(s)")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.corpus.ingest import (corpus_paths, generate_corpus,
                                     ingest_corpus)
    directory = Path(args.directory)
    if directory.exists() and not directory.is_dir():
        print(f"error: {directory} exists and is not a directory",
              file=sys.stderr)
        return 2
    if args.generate:
        written = generate_corpus(directory, documents=args.generate,
                                  events=args.events, seed=args.seed)
        print(f"generated {len(written)} document(s) in {directory}")
    if not directory.is_dir():
        print(f"error: {directory} is not a directory (use --generate N "
              f"to create a synthetic corpus)", file=sys.stderr)
        return 2
    paths = corpus_paths(directory, args.pattern)
    if not paths:
        print(f"error: no {args.pattern} files in {directory}",
              file=sys.stderr)
        return 2
    report = ingest_corpus(paths, engine=args.engine,
                           relaxation_policy=args.policy,
                           compile_programs=not args.no_programs,
                           workers=args.workers, faults=args.faults)
    print(report.describe())
    print(f"  workers={args.workers}")
    return 1 if report.failures else 0


def cmd_news(args: argparse.Namespace) -> int:
    from repro.corpus import make_news_document
    corpus = make_news_document(stories=args.stories, seed=args.seed)
    if args.package:
        from repro.transport.package import pack
        text = pack(corpus.document, corpus.store,
                    embed_data=args.embed_data)
    else:
        text = write_document(corpus.document)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output} ({len(text)} bytes, "
              f"{corpus.story_count} stories)")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full CLI argument grammar."""
    parser = argparse.ArgumentParser(
        prog="cmif", description="CMIF document tools (USENIX 1991 "
        "reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate",
                                   help="check consistency rules")
    validate.add_argument("document")
    validate.set_defaults(handler=cmd_validate)

    show = commands.add_parser("show", help="render document views")
    show.add_argument("document")
    show.add_argument("--form", choices=("tree", "embedded", "summary"),
                      default="tree")
    show.set_defaults(handler=cmd_show)

    schedule = commands.add_parser("schedule",
                                   help="solve and print the timeline")
    schedule.add_argument("document")
    schedule.add_argument("--slot-ms", type=float, default=2000.0)
    schedule.set_defaults(handler=cmd_schedule)

    arcs = commands.add_parser("arcs", help="print the fig-9 arc table")
    arcs.add_argument("document")
    arcs.add_argument("--all", action="store_true",
                      help="include implied default constraints")
    arcs.set_defaults(handler=cmd_arcs)

    play = commands.add_parser("play", help="simulate playback")
    play.add_argument("document")
    play.add_argument("--environment", choices=sorted(ENVIRONMENTS),
                      default="workstation")
    play.add_argument("--rate", type=float, default=1.0)
    play.add_argument("--seek", type=float, default=0.0,
                      help="fast-forward to this many seconds")
    play.add_argument("--prefetch", type=float, default=0.0,
                      help="prefetch lead in ms")
    play.add_argument("--seed", type=int, default=0,
                      help="deterministic jitter seed: the same seed "
                           "replays the identical run; replay i draws "
                           "from seed+i (default 0)")
    play.add_argument("--replays", type=int, default=1,
                      help="play the run N times (seeds seed..seed+N-1), "
                           "reusing one cached schedule and compiled "
                           "playback program")
    play.add_argument("--sweep", action="store_true",
                      help="batch-replay across every environment "
                           "profile x --rates x --seeks and print the "
                           "grid (uses --replays runs per cell)")
    play.add_argument("--rates", metavar="CSV",
                      help="with --sweep: comma-separated presentation "
                           "rates (default: the single --rate)")
    play.add_argument("--seeks", metavar="CSV",
                      help="with --sweep: comma-separated seek points in "
                           "seconds (default: the single --seek)")
    play.add_argument("--verbose", action="store_true")
    play.set_defaults(handler=cmd_play)

    negotiate_cmd = commands.add_parser(
        "negotiate", help="can this environment play this document?")
    negotiate_cmd.add_argument("document")
    negotiate_cmd.add_argument("--environment",
                               choices=sorted(ENVIRONMENTS),
                               default="workstation")
    negotiate_cmd.add_argument("--json", action="store_true",
                               help="emit the machine-readable verdict "
                                    "and findings (for session engines "
                                    "and scripts)")
    negotiate_cmd.set_defaults(handler=cmd_negotiate)

    serve = commands.add_parser(
        "serve", help="run the multi-tenant session engine over a "
                      "corpus directory")
    serve.add_argument("directory")
    serve.add_argument("--pattern", default="*.cmif*",
                       help="glob for corpus files (default *.cmif*, "
                            "matching text documents and packages)")
    serve.add_argument("--environments", default="all", metavar="CSV",
                       help="environment profiles to admit against: "
                            "'all' (default) or a comma-separated list "
                            "of profile names")
    serve.add_argument("--sessions", type=int, default=1,
                       help="tenant sessions per document x environment "
                            "pair (default 1)")
    serve.add_argument("--replays", type=int, default=1,
                       help="replay rounds round-robined across all "
                            "admitted sessions (default 1)")
    serve.add_argument("--interactive", type=int, default=0, metavar="N",
                       help="interactive readers per document x "
                            "environment pair, each with a scripted "
                            "choice trace, interleaved on the run "
                            "queue (default 0)")
    serve.add_argument("--follows", type=int, default=2,
                       help="link follows per interactive reader's "
                            "scripted trace (default 2)")
    serve.add_argument("--generate", type=int, metavar="N",
                       help="first write N synthetic serving packages "
                            "into the directory")
    serve.add_argument("--events", type=int, default=24,
                       help="events per generated document "
                            "(with --generate)")
    serve.add_argument("--links", type=int, default=0,
                       help="conditional hyper-links per generated "
                            "document (with --generate)")
    serve.add_argument("--seed", type=int, default=1991,
                       help="generator and jitter seed")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="shard the drive across N processes "
                            "(default 1; counters identical to serial)")
    serve.add_argument("--faults", metavar="PLAN", default=None,
                       help="fault-injection plan: 'standard', a "
                            "key=value CSV spec (e.g. "
                            "'seed=7,flap=site-1,blocks=0.05'), inline "
                            "JSON, or a .json file (default: the "
                            "REPRO_FAULTS environment variable, else "
                            "no faults)")
    serve.add_argument("--edit-script", metavar="FILE",
                       help="JSON list of live edits applied while "
                            "sessions run (each: op fields plus "
                            "optional at_step / document index); "
                            "forces a serial drive")
    serve.add_argument("--sites", type=int, default=0, metavar="N",
                       help="author the corpus across N federated "
                            "storage sites and serve a zipf-skewed "
                            "session workload with origin affinity "
                            "(default 0: no federation)")
    serve.add_argument("--topology", choices=("star", "chain", "mesh"),
                       default="star",
                       help="site link topology (with --sites)")
    serve.add_argument("--placement",
                       choices=("static", "replicate-hot",
                                "migrate-owner", "hybrid"),
                       default="static",
                       help="placement policy replanned every "
                            "--rebalance-every sessions (with --sites); "
                            "session reports are identical under every "
                            "policy — only the traffic bill changes")
    serve.add_argument("--placement-sessions", type=int, default=200,
                       metavar="N",
                       help="sessions in the placement workload's "
                            "request stream (with --sites, default 200)")
    serve.add_argument("--zipf", type=float, default=1.2, metavar="S",
                       help="zipf exponent for document popularity "
                            "(with --sites, default 1.2)")
    serve.add_argument("--locality", type=float, default=0.75,
                       metavar="P",
                       help="probability a session originates at its "
                            "document's favourite site (with --sites, "
                            "default 0.75)")
    serve.add_argument("--rebalance-every", type=int, default=50,
                       metavar="N",
                       help="placement epoch: replan after every N "
                            "sessions (with --sites, default 50)")
    serve.add_argument("--placement-report", action="store_true",
                       help="print per-site byte footprints and the "
                            "replica histogram after serving "
                            "(with --sites)")
    serve.set_defaults(handler=cmd_serve)

    edit_cmd = commands.add_parser(
        "edit", help="replay a live-edit script against one document's "
                     "warm serving caches and report patch precision")
    edit_cmd.add_argument("document")
    edit_cmd.add_argument("--script", required=True, metavar="FILE",
                          help="JSON list of edit objects (see "
                               "serve --edit-script)")
    edit_cmd.add_argument("--environments", default="all", metavar="CSV",
                          help="profiles whose compiled programs to "
                               "warm and patch: 'all' (default) or a "
                               "comma-separated list of names")
    edit_cmd.add_argument("--seed", type=int, default=1991,
                          help="engine jitter seed")
    edit_cmd.set_defaults(handler=cmd_edit)

    pack_cmd = commands.add_parser("pack", help="package for transport")
    pack_cmd.add_argument("document")
    pack_cmd.add_argument("-o", "--output", required=True)
    pack_cmd.set_defaults(handler=cmd_pack)

    unpack_cmd = commands.add_parser("unpack", help="open a package")
    unpack_cmd.add_argument("package")
    unpack_cmd.add_argument("-o", "--output", required=True)
    unpack_cmd.set_defaults(handler=cmd_unpack)

    query = commands.add_parser(
        "query", help="attribute search over a package's descriptors")
    query.add_argument("package")
    query.add_argument("--keyword", action="append",
                       help="require this search keyword (repeatable, "
                            "ANDed)")
    query.add_argument("--medium",
                       choices=tuple(m.value for m in Medium))
    query.add_argument("--attr", action="append", metavar="NAME=VALUE",
                       help="require attribute equality (repeatable)")
    query.add_argument("--range", action="append", metavar="NAME=MIN:MAX",
                       help="require a numeric attribute range; leave a "
                            "bound empty for open-ended (repeatable)")
    query.add_argument("--min-duration", type=float, metavar="MS")
    query.add_argument("--max-duration", type=float, metavar="MS")
    query.add_argument("--explain", action="store_true",
                       help="print the planner's chosen index plan")
    query.set_defaults(handler=cmd_query)

    ingest = commands.add_parser(
        "ingest", help="bulk-ingest a directory of CMIF documents")
    ingest.add_argument("directory")
    ingest.add_argument("--pattern", default="*.cmif",
                        help="glob for corpus files (default *.cmif)")
    ingest.add_argument("--engine", choices=("graph", "reference"),
                        default="graph",
                        help="cold-path solver: compiled graph (default) "
                             "or the object-form reference")
    ingest.add_argument("--policy", choices=("drop-last", "drop-widest"),
                        default="drop-last",
                        help="may-arc relaxation policy for the solve "
                             "stage")
    ingest.add_argument("--no-programs", action="store_true",
                        help="stop after scheduling (skip playback-"
                             "program compilation)")
    ingest.add_argument("--generate", type=int, metavar="N",
                        help="first write N synthetic corpus documents "
                             "into the directory")
    ingest.add_argument("--events", type=int, default=120,
                        help="events per generated document "
                             "(with --generate)")
    ingest.add_argument("--seed", type=int, default=1991,
                        help="generator seed (with --generate)")
    ingest.add_argument("--workers", type=int, default=1, metavar="N",
                        help="shard the corpus across N processes "
                             "(default 1; report identical to serial)")
    ingest.add_argument("--faults", metavar="PLAN", default=None,
                        help="fault-injection plan: 'standard', a "
                             "key=value CSV spec, inline JSON, or a "
                             ".json file (default: the REPRO_FAULTS "
                             "environment variable, else no faults)")
    ingest.set_defaults(handler=cmd_ingest)

    news = commands.add_parser("news",
                               help="emit the Evening News corpus")
    news.add_argument("--stories", type=int, default=2)
    news.add_argument("--seed", type=int, default=1991)
    news.add_argument("--package", action="store_true",
                      help="emit a transport package (with descriptors) "
                           "instead of bare text")
    news.add_argument("--embed-data", action="store_true",
                      help="with --package: embed payload blocks too")
    news.add_argument("-o", "--output")
    news.set_defaults(handler=cmd_news)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CmifError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
