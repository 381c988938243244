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
from functools import partial
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
from repro.store.placement import PLACEMENT_POLICIES
from repro.timing import RELAXATION_POLICIES, ScheduleCache, \
    schedule_document
from repro.transport.environments import PROFILES, SystemEnvironment
from repro.transport.negotiate import negotiate

ENVIRONMENTS: dict[str, SystemEnvironment] = {
    environment.name: environment for environment in PROFILES}


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
    to fire at) and ``document`` (corpus index, ``serve`` only).  Every
    spec is checked before any edit applies.
    """
    import json
    from repro.pipeline.patch import check_edit_spec
    try:
        script = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CmifError(f"edit script {path} is not JSON: {exc}") from None
    if not isinstance(script, list):
        raise CmifError(f"edit script {path} must be a JSON list of "
                        f"edit objects")
    for number, spec in enumerate(script, 1):
        try:
            check_edit_spec(spec)
        except CmifError as exc:
            raise CmifError(f"edit script {path}, edit {number}: {exc}") \
                from None
    return script


def _corpus_files(args: argparse.Namespace, generate, noun: str,
                  corpus: str) -> list[Path] | None:
    """The ``serve``/``ingest`` corpus: the ``--pattern`` files in the
    directory, after ``--generate`` wrote synthetic ones through
    ``generate``.  None, with the error printed, when there are none."""
    from repro.corpus.ingest import corpus_paths
    directory = Path(args.directory)
    if directory.exists() and not directory.is_dir():
        print(f"error: {directory} exists and is not a directory",
              file=sys.stderr)
        return None
    if args.generate:
        files = generate(directory, documents=args.generate,
                         events=args.events, seed=args.seed)
        print(f"generated {len(files)} {noun} in {directory}")
    if not directory.is_dir():
        print(f"error: {directory} is not a directory (use --generate N "
              f"to create a synthetic {corpus})", file=sys.stderr)
        return None
    paths = corpus_paths(directory, args.pattern)
    if not paths:
        print(f"error: no {args.pattern} files in {directory}",
              file=sys.stderr)
        return None
    return paths


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.corpus import generate_serving_corpus
    from repro.serving import SessionEngine
    paths = _corpus_files(
        args, partial(generate_serving_corpus, links=args.links),
        "package(s)", "serving corpus")
    if paths is None:
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
    from repro.corpus.ingest import generate_corpus, ingest_corpus
    paths = _corpus_files(args, generate_corpus, "document(s)", "corpus")
    if paths is None:
        return 2
    report = ingest_corpus(paths, relaxation_policy=args.policy,
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


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call: its flags and keyword options."""
    return flags, options


def _override(shared: tuple[tuple[str, ...], dict], **options):
    """A shared flag with one subcommand's own default or help."""
    flags, common = shared
    return flags, {**common, **options}


# Flags several subcommands share, each written once; a subcommand
# overrides a default or help text only where its own differ.
_DOCUMENT = _arg("document")
_SEED = _arg("--seed", type=int, default=1991)
_OUTPUT = _arg("-o", "--output", required=True)
_ENVIRONMENT = _arg("--environment", choices=sorted(ENVIRONMENTS),
                    default="workstation")
_ENVIRONMENTS = _arg("--environments", default="all", metavar="CSV",
                     help="environment profiles to admit against: "
                          "'all' (default) or a comma-separated list "
                          "of profile names")
_PATTERN = _arg("--pattern", default="*.cmif",
                help="glob for corpus files (default *.cmif)")
_GENERATE = _arg("--generate", type=int, metavar="N",
                 help="first write N synthetic corpus documents "
                      "into the directory")
_EVENTS = _arg("--events", type=int, default=120,
               help="events per generated document (with --generate)")
_WORKERS = _arg("--workers", type=int, default=1, metavar="N",
                help="shard the drive across N processes "
                     "(default 1; counters identical to serial)")
_FAULTS = _arg("--faults", metavar="PLAN",
               help="fault-injection plan: 'standard', a key=value CSV "
                    "spec (e.g. 'seed=7,flap=site-1,blocks=0.05'), "
                    "inline JSON, or a .json file (default: the "
                    "REPRO_FAULTS environment variable, else no faults)")

#: Each subcommand's handler, help and flags, in ``--help`` order.
COMMANDS = {
    "validate": (cmd_validate, "check consistency rules", (_DOCUMENT,)),
    "show": (cmd_show, "render document views", (
        _DOCUMENT,
        _arg("--form", choices=("tree", "embedded", "summary"),
             default="tree"),
    )),
    "schedule": (cmd_schedule, "solve and print the timeline", (
        _DOCUMENT,
        _arg("--slot-ms", type=float, default=2000.0),
    )),
    "arcs": (cmd_arcs, "print the fig-9 arc table", (
        _DOCUMENT,
        _arg("--all", action="store_true",
             help="include implied default constraints"),
    )),
    "play": (cmd_play, "simulate playback", (
        _DOCUMENT,
        _ENVIRONMENT,
        _arg("--rate", type=float, default=1.0),
        _arg("--seek", type=float, default=0.0,
             help="fast-forward to this many seconds"),
        _arg("--prefetch", type=float, default=0.0,
             help="prefetch lead in ms"),
        _override(_SEED, default=0,
                  help="deterministic jitter seed: the same seed replays "
                       "the identical run; replay i draws from seed+i "
                       "(default 0)"),
        _arg("--replays", type=int, default=1,
             help="play the run N times (seeds seed..seed+N-1), reusing "
                  "one cached schedule and compiled playback program"),
        _arg("--sweep", action="store_true",
             help="batch-replay across every environment profile x "
                  "--rates x --seeks and print the grid (uses --replays "
                  "runs per cell)"),
        _arg("--rates", metavar="CSV",
             help="with --sweep: comma-separated presentation rates "
                  "(default: the single --rate)"),
        _arg("--seeks", metavar="CSV",
             help="with --sweep: comma-separated seek points in seconds "
                  "(default: the single --seek)"),
        _arg("--verbose", action="store_true"),
    )),
    "negotiate": (cmd_negotiate, "can this environment play this document?", (
        _DOCUMENT,
        _ENVIRONMENT,
        _arg("--json", action="store_true",
             help="emit the machine-readable verdict and findings (for "
                  "session engines and scripts)"),
    )),
    "serve": (cmd_serve, "run the multi-tenant session engine over a "
                         "corpus directory", (
        _arg("directory"),
        _override(_PATTERN, default="*.cmif*",
                  help="glob for corpus files (default *.cmif*, matching "
                       "text documents and packages)"),
        _ENVIRONMENTS,
        _arg("--sessions", type=int, default=1,
             help="tenant sessions per document x environment pair "
                  "(default 1)"),
        _arg("--replays", type=int, default=1,
             help="replay rounds round-robined across all admitted "
                  "sessions (default 1)"),
        _arg("--interactive", type=int, default=0, metavar="N",
             help="interactive readers per document x environment pair, "
                  "each with a scripted choice trace, interleaved on the "
                  "run queue (default 0)"),
        _arg("--follows", type=int, default=2,
             help="link follows per interactive reader's scripted trace "
                  "(default 2)"),
        _override(_GENERATE, help="first write N synthetic serving "
                                  "packages into the directory"),
        _override(_EVENTS, default=24),
        _arg("--links", type=int, default=0,
             help="conditional hyper-links per generated document (with "
                  "--generate)"),
        _override(_SEED, help="generator and jitter seed"),
        _WORKERS,
        _FAULTS,
        _arg("--edit-script", metavar="FILE",
             help="JSON list of live edits applied while sessions run "
                  "(each: op fields plus optional at_step / document "
                  "index); forces a serial drive"),
        _arg("--sites", type=int, default=0, metavar="N",
             help="author the corpus across N federated storage sites "
                  "and serve a zipf-skewed session workload with origin "
                  "affinity (default 0: no federation)"),
        _arg("--topology", choices=("star", "chain", "mesh"),
             default="star", help="site link topology (with --sites)"),
        _arg("--placement", choices=PLACEMENT_POLICIES, default="static",
             help="placement policy replanned every --rebalance-every "
                  "sessions (with --sites); session reports are "
                  "identical under every policy — only the traffic bill "
                  "changes"),
        _arg("--placement-sessions", type=int, default=200, metavar="N",
             help="sessions in the placement workload's request stream "
                  "(with --sites, default 200)"),
        _arg("--zipf", type=float, default=1.2, metavar="S",
             help="zipf exponent for document popularity (with --sites, "
                  "default 1.2)"),
        _arg("--locality", type=float, default=0.75, metavar="P",
             help="probability a session originates at its document's "
                  "favourite site (with --sites, default 0.75)"),
        _arg("--rebalance-every", type=int, default=50, metavar="N",
             help="placement epoch: replan after every N sessions (with "
                  "--sites, default 50)"),
        _arg("--placement-report", action="store_true",
             help="print per-site byte footprints and the replica "
                  "histogram after serving (with --sites)"),
    )),
    "edit": (cmd_edit, "replay a live-edit script against one document's "
                       "warm serving caches and report patch precision", (
        _DOCUMENT,
        _arg("--script", required=True, metavar="FILE",
             help="JSON list of edit objects (see serve --edit-script)"),
        _override(_ENVIRONMENTS,
                  help="profiles whose compiled programs to warm and "
                       "patch: 'all' (default) or a comma-separated list "
                       "of names"),
        _override(_SEED, help="engine jitter seed"),
    )),
    "pack": (cmd_pack, "package for transport", (_DOCUMENT, _OUTPUT)),
    "unpack": (cmd_unpack, "open a package", (_arg("package"), _OUTPUT)),
    "query": (cmd_query, "attribute search over a package's descriptors", (
        _arg("package"),
        _arg("--keyword", action="append",
             help="require this search keyword (repeatable, ANDed)"),
        _arg("--medium", choices=tuple(m.value for m in Medium)),
        _arg("--attr", action="append", metavar="NAME=VALUE",
             help="require attribute equality (repeatable)"),
        _arg("--range", action="append", metavar="NAME=MIN:MAX",
             help="require a numeric attribute range; leave a bound "
                  "empty for open-ended (repeatable)"),
        _arg("--min-duration", type=float, metavar="MS"),
        _arg("--max-duration", type=float, metavar="MS"),
        _arg("--explain", action="store_true",
             help="print the planner's chosen index plan"),
    )),
    "ingest": (cmd_ingest, "bulk-ingest a directory of CMIF documents", (
        _arg("directory"),
        _PATTERN,
        _arg("--policy", choices=RELAXATION_POLICIES, default="drop-last",
             help="may-arc relaxation policy for the solve stage"),
        _arg("--no-programs", action="store_true",
             help="stop after scheduling (skip playback-program "
                  "compilation)"),
        _GENERATE,
        _EVENTS,
        _override(_SEED, help="generator seed (with --generate)"),
        _override(_WORKERS, help="shard the corpus across N processes "
                                 "(default 1; report identical to serial)"),
        _override(_FAULTS,
                  help="fault-injection plan: 'standard', a key=value "
                       "CSV spec, inline JSON, or a .json file (default: "
                       "the REPRO_FAULTS environment variable, else no "
                       "faults)"),
    )),
    "news": (cmd_news, "emit the Evening News corpus", (
        _arg("--stories", type=int, default=2),
        _SEED,
        _arg("--package", action="store_true",
             help="emit a transport package (with descriptors) instead "
                  "of bare text"),
        _arg("--embed-data", action="store_true",
             help="with --package: embed payload blocks too"),
        _override(_OUTPUT, required=False),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The full CLI argument grammar, built from :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="cmif", description="CMIF document tools (USENIX 1991 "
        "reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        for flags, options in arguments:
            command.add_argument(*flags, **options)
        command.set_defaults(handler=handler)
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
