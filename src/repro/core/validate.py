"""Document consistency validation (paper sections 5.2 and 5.3.3).

The paper defines several "global consistency rules" over attributes and
structure: per-node name uniqueness, root-only dictionary attributes,
node-type restrictions for attributes, channel and style reference
validity, resolvable synchronization arc endpoints, and non-empty arc
windows.  This validator collects every violation as a
:class:`ValidationIssue` rather than stopping at the first, matching the
pipeline philosophy that the document structure's job is *signalling*
problems while "other mechanisms provide solutions".

Severity levels:

* ``error`` — the document cannot be scheduled or transported correctly;
* ``warning`` — legal but suspicious (an unreferenced channel, an event
  whose medium differs from its channel's medium).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.attributes import spec_for
from repro.core.channels import Medium
from repro.core.document import CmifDocument
from repro.core.errors import (ChannelError, CmifError, PathError,
                               StructureError, StyleError, SyncArcError)
from repro.core.nodes import ImmNode, Node, NodeKind
from repro.core.paths import node_path, resolve_path
from repro.core.tree import (common_ancestor, iter_preorder,
                             validate_sibling_names)

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found by the validator."""

    severity: str
    code: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code} at {self.path}: {self.message}"


class DocumentValidator:
    """Runs every consistency rule over a document."""

    def __init__(self, document: CmifDocument) -> None:
        self.document = document

    def run(self) -> list[ValidationIssue]:
        """Collect all issues over the whole document."""
        issues: list[ValidationIssue] = []
        issues.extend(self._check_sibling_names())
        issues.extend(self._check_styles())
        issues.extend(self._check_nodes())
        issues.extend(self._check_channel_usage())
        return issues

    # -- rule groups -----------------------------------------------------

    def _check_sibling_names(self) -> Iterator[ValidationIssue]:
        for message in validate_sibling_names(self.document.root):
            yield ValidationIssue(ERROR, "duplicate-sibling-name", "/",
                                  message)

    def _check_styles(self) -> Iterator[ValidationIssue]:
        try:
            self.document.styles.validate()
        except StyleError as exc:
            yield ValidationIssue(ERROR, "style-cycle", "/", str(exc))

    def _check_nodes(self) -> Iterator[ValidationIssue]:
        for node in iter_preorder(self.document.root):
            path = node_path(node)
            yield from self._check_attribute_placement(node, path)
            yield from self._check_style_references(node, path)
            yield from self._check_channel_reference(node, path)
            yield from self._check_leaf(node, path)
            yield from self._check_arcs(node, path)

    def _check_attribute_placement(self, node: Node,
                                   path: str) -> Iterator[ValidationIssue]:
        """Root-only and node-kind placement rules from the registry."""
        for name in node.attributes.names():
            spec = spec_for(name)
            if spec is None:
                continue
            if spec.root_only and node.parent is not None:
                yield ValidationIssue(
                    ERROR, "root-only-attribute", path,
                    f"attribute {name!r} should currently only "
                    f"occur on the root node")
            if (node.kind.value not in spec.node_kinds
                    and not spec.inherited and not spec.root_only):
                yield ValidationIssue(
                    ERROR, "attribute-node-kind", path,
                    f"attribute {name!r} is not allowed on "
                    f"{node.kind.value} nodes (allowed: "
                    f"{sorted(spec.node_kinds)})")

    def _check_style_references(self, node: Node,
                                path: str) -> Iterator[ValidationIssue]:
        names = node.attributes.get("style")
        if not names:
            return
        for name in names:
            if name not in self.document.styles:
                yield ValidationIssue(
                    ERROR, "undefined-style", path,
                    f"style {name!r} is not defined in the root node's "
                    f"style dictionary")

    def _check_channel_reference(self, node: Node,
                                 path: str) -> Iterator[ValidationIssue]:
        name = node.attributes.get("channel")
        if name is None:
            return
        if name not in self.document.channels:
            yield ValidationIssue(
                ERROR, "undefined-channel", path,
                f"channel {name!r} is not declared in the root node's "
                f"channel dictionary")

    def _check_leaf(self, node: Node, path: str) -> Iterator[ValidationIssue]:
        if not node.is_leaf:
            return
        styles = self.document.styles_or_none()
        channel_name = node.effective("channel", styles=styles)
        if channel_name is None:
            yield ValidationIssue(
                ERROR, "missing-channel", path,
                "leaf node has no channel attribute, own or inherited")
        if node.kind is NodeKind.EXT:
            file_id = node.effective("file", styles=styles)
            if file_id is None:
                yield ValidationIssue(
                    ERROR, "missing-file", path,
                    "external node has no file attribute, own or inherited")
            elif self.document.resolve_descriptor(file_id) is None:
                yield ValidationIssue(
                    WARNING, "unresolved-descriptor", path,
                    f"file {file_id!r} has no registered data descriptor; "
                    f"the document is transportable but not schedulable "
                    f"without a duration attribute")
        if isinstance(node, ImmNode) and node.data in ("", None, b""):
            yield ValidationIssue(
                WARNING, "empty-immediate", path,
                "immediate node carries no data")
        if (channel_name is not None
                and channel_name in self.document.channels):
            channel = self.document.channels.lookup(channel_name)
            declared = node.effective("medium", styles=styles)
            if declared is not None:
                try:
                    medium = Medium.from_name(declared)
                except ChannelError:
                    yield ValidationIssue(
                        ERROR, "unknown-medium", path,
                        f"medium {declared!r} is not recognized")
                    return
                if medium is not channel.medium:
                    yield ValidationIssue(
                        WARNING, "medium-mismatch", path,
                        f"node medium {medium.value!r} differs from channel "
                        f"{channel.name!r} medium {channel.medium.value!r}")

    def _check_arcs(self, node: Node, path: str) -> Iterator[ValidationIssue]:
        for arc in node.arcs:
            try:
                source = resolve_path(node, arc.source)
                destination = resolve_path(node, arc.destination)
            except PathError as exc:
                yield ValidationIssue(ERROR, "arc-endpoint", path, str(exc))
                continue
            if source is destination and arc.src_anchor is arc.dst_anchor:
                yield ValidationIssue(
                    WARNING, "arc-self-loop", path,
                    f"arc {arc.describe()} connects a node anchor to "
                    f"itself")
            try:
                common_ancestor(source, destination)
            except StructureError as exc:
                yield ValidationIssue(ERROR, "arc-disconnected", path,
                                      str(exc))
            try:
                arc.window_ms(self.document.timebase)
            except SyncArcError as exc:
                yield ValidationIssue(ERROR, "arc-empty-window", path,
                                      str(exc))

    def _check_channel_usage(self) -> Iterator[ValidationIssue]:
        """Warn about declared channels no event is directed to."""
        used: set[str] = set()
        styles = self.document.styles_or_none()
        for leaf in self.document.leaves():
            name = leaf.effective("channel", styles=styles)
            if name is not None:
                used.add(name)
        for name in self.document.channels.names():
            if name not in used:
                yield ValidationIssue(
                    WARNING, "unused-channel", "/",
                    f"channel {name!r} is declared but no event is "
                    f"directed to it")


def validate_document(document: CmifDocument,
                      strict: bool = False) -> list[ValidationIssue]:
    """Validate ``document``; with ``strict`` raise on the first error.

    Returns the full issue list either way so callers can also inspect
    warnings.
    """
    issues = DocumentValidator(document).run()
    if strict:
        errors = [issue for issue in issues if issue.severity == ERROR]
        if errors:
            summary = "; ".join(str(issue) for issue in errors[:5])
            more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
            raise CmifError(f"document is invalid: {summary}{more}")
    return issues
