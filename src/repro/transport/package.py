"""Transportable document packaging (paper sections 5.1 and 6).

Two transport modes, straight from the paper:

* **Structure-only** — "The tree is a human-readable document that can be
  passed from one location to another with or without the underlying
  data."  :func:`pack` with ``embed_data=False`` ships the document text
  and descriptor attributes only; the receiver resolves blocks through
  its own (distributed) store.
* **Self-contained** — immediate nodes are "useful ... for transporting
  (large amounts of) data across environments that have no common
  storage server."  ``embed_data=True`` additionally carries payloads,
  base64-encoded and checksummed; :func:`externals_to_immediates` goes
  further and rewrites external nodes into immediate nodes for text
  media so even the document itself needs no store.

The container is a single JSON object (versioned, checksummed) — the
1991 equivalent would have been a tar of the text form; JSON keeps the
package single-file and testable.

Version history: v1 hex-encoded payload blocks; v2 (current) encodes
them base64, shrinking self-contained packages by roughly a quarter.
:func:`pack` emits v2 only.  :func:`unpack` opens both versions, because
a package is input from outside, and always verifies every embedded
block's checksum.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.channels import Medium
from repro.core.descriptors import DataBlock, DataDescriptor
from repro.core.document import CmifDocument
from repro.core.errors import TransportError
from repro.core.nodes import ImmNode
from repro.core.paths import node_path
from repro.faults import (FaultPlan, RetryPolicy, RobustnessStats,
                          corrupt_block, resolve_faults)
from repro.format.json_io import value_from_obj, value_to_obj
from repro.kernel._np import require_numpy
from repro.format.parser import parse_document
from repro.format.writer import write_document
from repro.store.datastore import DataStore

PACKAGE_VERSION = 2

#: Versions :func:`unpack` still opens (v1 shipped hex payloads).
SUPPORTED_PACKAGE_VERSIONS = (1, 2)


@dataclass
class UnpackResult:
    """A received package: the document plus its descriptors' store."""

    document: CmifDocument
    embedded_blocks: int
    verified_checksums: int
    #: Fault/recovery ledger of this unpack (corrupt deliveries caught
    #: by checksum, re-request retries).  Empty when no fault plan ran.
    robustness: RobustnessStats = field(default_factory=RobustnessStats)
    #: The received (descriptor, block or None) pairs, in package order.
    received: tuple = field(default=(), repr=False)

    @cached_property
    def store(self) -> DataStore:
        """The received descriptors' store, built on first read."""
        return _unpacked_store(self.received)


def _unpacked_store(pairs) -> DataStore:
    store = DataStore(name="unpacked")
    for descriptor, block in pairs:
        store.register(descriptor, block)
    return store


def pack(document: CmifDocument, store: DataStore | None = None, *,
         embed_data: bool = False, strict: bool = True) -> str:
    """Serialize a document (and optionally its data) into a package.

    Descriptors referenced by the document's ``file`` attributes are
    always included (they are the "relatively small clusters of data" the
    paper wants to travel); payload blocks are included only with
    ``embed_data`` and only when the store holds them.  With ``strict``
    (the default) an unresolvable ``file`` reference fails the packing;
    ``strict=False`` ships the structure anyway — the paper allows a
    tree to travel "with or without the underlying data".
    """
    text = write_document(document)
    descriptors: dict[str, dict] = {}
    blocks: dict[str, dict] = {}
    for file_id, descriptor in _referenced_descriptors(document, store,
                                                       strict):
        descriptors[file_id] = _descriptor_to_obj(descriptor)
        if embed_data and store is not None \
                and descriptor.block_id is not None \
                and store.has_block(descriptor.block_id):
            block = store.block_for(descriptor.descriptor_id)
            blocks[block.block_id] = _block_to_obj(block)
    payload = {
        "cmif-package": {
            "version": PACKAGE_VERSION,
            "document": text,
            "descriptors": descriptors,
            "blocks": blocks,
        }
    }
    return json.dumps(payload, indent=1)


def _referenced_descriptors(document: CmifDocument,
                            store: DataStore | None,
                            strict: bool = True):
    """Yield (file_id, descriptor) for every resolvable file reference."""
    seen: set[str] = set()
    for node, file_id in document.file_references():
        if file_id in seen:
            continue
        seen.add(file_id)
        descriptor = document.resolve_descriptor(file_id)
        if descriptor is None and store is not None \
                and file_id in store:
            descriptor = store.descriptor(file_id)
        if descriptor is None:
            if strict:
                raise TransportError(
                    f"cannot package {node_path(node)}: file {file_id!r} "
                    f"has no descriptor in the document or the store")
            continue
        yield file_id, descriptor


def _descriptor_to_obj(descriptor: DataDescriptor) -> dict:
    return {
        "descriptor_id": descriptor.descriptor_id,
        "medium": descriptor.medium.value,
        "block_id": descriptor.block_id,
        "attributes": {name: value_to_obj(value)
                       for name, value in descriptor.attributes.items()},
    }


def _identifier(obj: dict, key: str, *, optional: bool = False
                ) -> str | None:
    """A descriptor or block id from the package: a string (or absent,
    where ``optional``), since the store indexes and sorts by it."""
    value = obj.get(key) if optional else obj[key]
    if not (isinstance(value, str) or (optional and value is None)):
        raise TransportError(f"malformed package: {key} must be a string, "
                             f"got {type(value).__name__}")
    return value


def _descriptor_from_obj(obj: dict) -> DataDescriptor:
    return DataDescriptor(
        descriptor_id=_identifier(obj, "descriptor_id"),
        medium=Medium.from_name(obj["medium"]),
        block_id=_identifier(obj, "block_id", optional=True),
        attributes={name: value_from_obj(value)
                    for name, value in (obj.get("attributes") or {}).items()},
    )


def _decode_payload(text: str, version: int) -> bytes:
    """The version's transfer text -> raw payload bytes."""
    try:
        if version == 1:
            return bytes.fromhex(text)
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise TransportError(
            f"corrupt block payload in a v{version} package: "
            f"{exc}") from None


def _block_to_obj(block: DataBlock) -> dict:
    data = block.materialize()
    if isinstance(data, str):
        raw = data.encode("utf-8")
        encoding = "utf-8"
    elif isinstance(data, (bytes, bytearray)):
        raw = bytes(data)
        encoding = "bytes"
    else:
        # Array payloads (audio/video/image) travel as raw bytes plus a
        # shape note; numpy is reconstructed on unpack.
        np = require_numpy("array payload packaging")
        array = np.asarray(data)
        raw = array.tobytes()
        encoding = f"ndarray:{array.dtype}:" + ",".join(
            str(dim) for dim in array.shape)
    return {
        "block_id": block.block_id,
        "medium": block.medium.value,
        "encoding": encoding,
        "data": base64.b64encode(raw).decode("ascii"),
        "checksum": block.checksum(),
    }


def _block_from_obj(obj: dict,
                    version: int = PACKAGE_VERSION) -> DataBlock:
    encoding = obj["encoding"]
    raw = _decode_payload(obj["data"], version)
    if encoding == "utf-8":
        payload: object = raw.decode("utf-8")
    elif encoding == "bytes":
        payload = raw
    elif encoding.startswith("ndarray:"):
        np = require_numpy("array payload unpacking")
        _, dtype, shape_text = encoding.split(":", 2)
        shape = tuple(int(dim) for dim in shape_text.split(","))
        payload = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    else:
        raise TransportError(f"unknown block encoding {encoding!r}")
    return DataBlock(block_id=_identifier(obj, "block_id"),
                     medium=Medium.from_name(obj["medium"]),
                     payload=payload)


def unpack(package_text: str, *,
           faults: "FaultPlan | str | None" = None,
           retry: RetryPolicy | None = None) -> UnpackResult:
    """Open a package: parse the document, verify sums, defer the store.

    ``faults`` (a :class:`~repro.faults.FaultPlan`, a spec string, or
    the ``REPRO_FAULTS`` environment default) simulates deliveries that
    corrupt embedded block payloads in flight; checksum verification is
    what catches them, and each caught corruption re-requests the
    package (a fresh copy of the decoded blocks) up to the ``retry``
    policy's attempt budget.  A mismatch with *no* injected corruption
    is the package itself being damaged — deterministic, so it fails
    immediately, exactly as without a plan.  A package whose JSON does
    not have the package's shape fails with :class:`TransportError`.
    """
    faults = resolve_faults(faults)
    if retry is None:
        retry = RetryPolicy()
    robustness = RobustnessStats()
    try:
        payload = json.loads(package_text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # json recurses once per array/object level, as does decoding a
        # nested attribute value below.
        raise TransportError(f"corrupt package: {exc}") from None
    body = payload.get("cmif-package") if isinstance(payload, dict) \
        else None
    if not isinstance(body, dict):
        raise TransportError("not a CMIF package (missing 'cmif-package')")
    version = body.get("version")
    if version not in SUPPORTED_PACKAGE_VERSIONS:
        raise TransportError(
            f"unsupported package version {version!r}")
    try:
        document = parse_document(body["document"])
        block_objs = body.get("blocks") or {}
        received = {block_id: _block_from_obj(obj, version)
                    for block_id, obj in block_objs.items()}
        descriptors = {file_id: _descriptor_from_obj(obj) for file_id, obj
                       in (body.get("descriptors") or {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError,
            RecursionError) as exc:
        raise TransportError(f"malformed package: {exc!r}") from None
    attempt = 0
    while True:
        blocks = dict(received)
        injected = 0
        if faults is not None and faults.package_corrupt_rate > 0:
            for block_id in blocks:
                if faults.fires(faults.package_corrupt_rate,
                                "package-corrupt", block_id, attempt):
                    robustness.record_fault("package-corrupt")
                    blocks[block_id] = corrupt_block(blocks[block_id])
                    injected += 1
        verified = 0
        mismatched: str | None = None
        for block_id, obj in block_objs.items():
            if blocks[block_id].checksum() != obj.get("checksum"):
                mismatched = block_id
                break
            verified += 1
        if mismatched is None:
            # Only a fault that undid damage the package carried can
            # pass the sums; book it so the ledger still balances.
            robustness.unrecovered += injected
            break
        robustness.checksum_rejects += 1
        attempt += 1
        if injected == 0 or retry.gives_up(attempt, 0.0):
            robustness.unrecovered += injected
            raise TransportError(
                f"checksum mismatch for block {mismatched!r}: the "
                f"package was corrupted in transport")
        # A fresh delivery masks every corruption of this attempt.
        robustness.retries += 1
        robustness.recovered += injected
    pairs = tuple((descriptor, blocks.get(descriptor.block_id)
                   if descriptor.block_id else None)
                  for descriptor in descriptors.values())
    ids: set[str] = set()
    for descriptor, block in pairs:
        if descriptor.descriptor_id in ids or (
                block is not None and block.block_id != descriptor.block_id):
            _unpacked_store(pairs)      # the store's own StoreError
        ids.add(descriptor.descriptor_id)
    for file_id, descriptor in descriptors.items():
        document.register_descriptor(file_id, descriptor)
    return UnpackResult(document=document, embedded_blocks=len(blocks),
                        verified_checksums=verified,
                        robustness=robustness, received=pairs)


def externals_to_immediates(document: CmifDocument,
                            store: DataStore) -> int:
    """Rewrite text external nodes into immediate nodes, in place.

    This is the paper's no-common-storage-server transport: small text
    payloads move into the document itself.  Non-text media stay
    external (embedding pixels in a human-readable document defeats its
    purpose); they travel via ``pack(embed_data=True)`` instead.
    Returns the number of nodes rewritten.
    """
    rewritten = 0
    for node, file_id in list(document.file_references()):
        descriptor = document.resolve_descriptor(file_id)
        if descriptor is None and file_id in store:
            descriptor = store.descriptor(file_id)
        if descriptor is None or descriptor.medium is not Medium.TEXT:
            continue
        if descriptor.block_id is None \
                or not store.has_block(descriptor.block_id):
            continue
        block = store.block_for(descriptor.descriptor_id)
        parent = node.parent
        if parent is None:
            continue
        replacement = ImmNode(None, None, str(block.materialize()))
        for name, value in node.attributes.items():
            if name == "file":
                continue
            replacement.attributes.set(
                name, list(value) if isinstance(value, list) else value)
        index = parent.index_of(node)
        parent.detach(node)
        parent.insert(index, replacement)
        rewritten += 1
    return rewritten
