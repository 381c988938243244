"""§6 (research directions) — distributed document storage.

The paper: "While it may occasionally be necessary to move massive
amounts of information from one computer to another ... we also feel
that the use of both distributed databases and distributed operating
systems support is vital."  The federated store simulates that setting;
this bench compares the two strategies for using a document whose media
live on remote sites:

* **descriptor strategy** — resolve descriptors remotely (cached),
  schedule and negotiate locally, fetch payloads only at presentation
  time for what is actually played;
* **copy-everything strategy** — replicate every payload before doing
  anything (the "move massive amounts" baseline).

Shape claims (EXPERIMENTS.md): the descriptor strategy moves orders of
magnitude fewer bytes to reach a schedulable document, and its
simulated network time is correspondingly smaller; the crossover in
favour of copying only appears when every byte is eventually played
many times over.
"""

from repro.core.builder import DocumentBuilder
from repro.pipeline.capture import CaptureSession
from repro.store import DataStore, FederatedStore, NetworkModel, Site
from repro.store.distributed import DESCRIPTOR_WIRE_BYTES
from repro.timing import schedule_document

from results import record_result

#: The byte asymmetry the descriptor strategy must show over copying.
MIN_BYTE_RATIO = 100.0


def build_remote_corpus():
    """A document whose media all live on a remote archive site."""
    archive_store = DataStore("archive")
    session = CaptureSession(store=archive_store, seed=6)
    builder = DocumentBuilder("remote-doc")
    builder.channel("video", "video")
    builder.channel("audio", "audio")
    with builder.par("scene"):
        with builder.seq("video-track", channel="video"):
            for index in range(4):
                captured = session.capture_video(
                    f"clip/{index}", 4000.0, width=64, height=48)
                builder.ext(f"v{index}", file=captured.file_id)
        with builder.seq("audio-track", channel="audio"):
            captured = session.capture_audio("voice/0", 16_000.0)
            builder.ext("voice", file=captured.file_id)
    document = builder.build(validate=False)
    archive = Site("archive", archive_store,
                   NetworkModel(latency_ms=20.0,
                                bandwidth_bytes_per_ms=1250.0))
    viewer_site = Site("viewer", DataStore("viewer"))
    federation = FederatedStore(viewer_site, [archive])
    document.attach_resolver(federation.resolver())
    return document, federation, archive_store


def _descriptor_strategy(document, federation):
    """Schedule remotely-described media without moving payloads."""
    federation.traffic.reset()
    schedule = schedule_document(document.compile())
    return schedule, federation.traffic


def test_descriptor_strategy_traffic(benchmark):
    # Cold: a fresh federation, measured outside the timed rounds (every
    # later round finds the descriptors cached).
    document, federation, _archive = build_remote_corpus()
    schedule, traffic = _descriptor_strategy(document, federation)
    cold = traffic.snapshot()

    assert schedule.total_duration_ms == 16_000.0
    assert cold.payload_bytes == 0
    # Descriptor cache: each of the 5 media moved exactly once.
    assert cold.descriptor_bytes == 5 * DESCRIPTOR_WIRE_BYTES

    schedule, warm = benchmark(_descriptor_strategy, document, federation)

    # Warm: the cached descriptors serve every later schedule.
    assert schedule.total_duration_ms == 16_000.0
    assert warm.total_bytes == 0 and warm.requests == 0

    print(f"\n[distributed] descriptor strategy: cold "
          f"{cold.descriptor_bytes} bytes, {cold.requests} requests, "
          f"{cold.simulated_ms:.1f}ms simulated network time; warm "
          f"{warm.total_bytes} bytes -> schedulable document")
    record_result("distributed_descriptor_strategy", {
        "descriptor_bytes": cold.descriptor_bytes,
        "payload_bytes": cold.payload_bytes,
        "requests": cold.requests,
        "simulated_ms": round(cold.simulated_ms, 3),
        "warm_total_bytes": warm.total_bytes,
        "warm_requests": warm.requests,
        "warm_simulated_ms": round(warm.simulated_ms, 3),
    })


def test_copy_everything_strategy_traffic(benchmark):
    document, federation, archive_store = build_remote_corpus()

    def copy_everything():
        federation.traffic.reset()
        for descriptor in list(archive_store.descriptors()):
            federation.block_for(descriptor.descriptor_id)
        return federation.traffic

    traffic = benchmark(copy_everything)

    assert traffic.payload_bytes > 1_000_000  # megabytes of media

    # The asymmetry the paper predicts.
    schedule_document(document.compile())
    document2, federation2, _ = build_remote_corpus()
    _schedule, descriptor_traffic = _descriptor_strategy(document2,
                                                         federation2)
    ratio = traffic.payload_bytes / max(1,
                                        descriptor_traffic.total_bytes)
    assert ratio > MIN_BYTE_RATIO

    print(f"\n[distributed] copy-everything: "
          f"{traffic.payload_bytes / 1e6:.1f}MB, "
          f"{traffic.simulated_ms:.0f}ms simulated network time; "
          f"descriptor strategy moved {ratio:.0f}x fewer bytes")
    record_result("distributed_copy_everything", {
        "payload_bytes": traffic.payload_bytes,
        "simulated_ms": round(traffic.simulated_ms, 3),
        "descriptor_strategy_bytes": descriptor_traffic.total_bytes,
        "byte_ratio": round(ratio, 2),
        "min_byte_ratio": MIN_BYTE_RATIO,
    })
