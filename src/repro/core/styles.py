"""Styles and the style dictionary (paper figure 7).

A *style* is "a shorthand for placing a set of attributes on a node".
The root node's ``style-dictionary`` attribute defines styles; a node's
``style`` attribute names one or more of them.  Two rules from the paper
are enforced here:

* "Style definitions may refer to other style definitions as long as no
  style refers to itself, directly or indirectly" — cycle detection in
  :meth:`StyleDictionary.validate`.
* "At runtime, each style name is looked up in the style directory of the
  root node" — undefined references raise :class:`StyleError`.

Expansion semantics: a style maps to a set of attributes; a style may
itself carry a ``style`` entry naming parent styles, whose attributes are
included first so the referring style's own attributes win.  When a node
names several styles, later names win over earlier names, and the node's
own explicit attributes always win over any style (styles are defaults,
never overrides).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.errors import StyleError

#: The three colours of :meth:`StyleDictionary.validate`'s search.
_WHITE, _GREY, _BLACK = 0, 1, 2


class StyleDictionary:
    """The root node's style dictionary: style name -> attribute group."""

    def __init__(self, styles: dict[str, dict[str, Any]] | None = None) -> None:
        self._styles: dict[str, dict[str, Any]] = {}
        for name, body in (styles or {}).items():
            self.define(name, body)

    def define(self, name: str, body: dict[str, Any]) -> None:
        """Define (or redefine) the style ``name``.

        ``body`` maps attribute names to values; the reserved key
        ``style`` names parent styles to inherit from.
        """
        if not isinstance(body, dict):
            raise StyleError(f"style {name!r} body must be a dict, "
                             f"got {body!r}")
        self._styles[name] = dict(body)

    def __contains__(self, name: str) -> bool:
        return name in self._styles

    def __len__(self) -> int:
        return len(self._styles)

    def __iter__(self) -> Iterator[str]:
        return iter(self._styles)

    def names(self) -> list[str]:
        """Style names in definition order."""
        return list(self._styles)

    def body(self, name: str) -> dict[str, Any]:
        """The raw (unexpanded) body of style ``name``."""
        if name not in self._styles:
            raise StyleError(f"style {name!r} is not defined in the root "
                             f"node's style dictionary "
                             f"(defined: {sorted(self._styles)})")
        return dict(self._styles[name])

    def _parents(self, name: str) -> list[str]:
        parents = self._styles[name].get("style", ())
        if isinstance(parents, str):
            parents = (parents,)
        return list(parents)

    def validate(self) -> None:
        """Check all style references resolve and no cycles exist.

        Uses a three-colour depth-first search; a back edge is a cycle,
        which the paper forbids ("no style refers to itself, directly or
        indirectly").
        """
        colour = {name: _WHITE for name in self._styles}
        for name in self._styles:
            if colour[name] == _WHITE:
                self._visit(name, [], colour)

    def _visit(self, name: str, trail: list[str],
               colour: dict[str, int]) -> None:
        """One step of :meth:`validate`'s search.  A method, not a
        nested function: one calling itself by name would be a
        reference cycle."""
        if name not in self._styles:
            raise StyleError(
                f"style {trail[-1]!r} refers to undefined style "
                f"{name!r}" if trail else
                f"undefined style {name!r}")
        if colour[name] == _GREY:
            cycle = trail[trail.index(name):] + [name]
            raise StyleError(
                "style definitions form a cycle: " + " -> ".join(cycle))
        if colour[name] == _BLACK:
            return
        colour[name] = _GREY
        for parent in self._parents(name):
            self._visit(parent, trail + [name], colour)
        colour[name] = _BLACK

    def expand(self, name: str, _active: frozenset[str] = frozenset()
               ) -> dict[str, Any]:
        """Return the fully-expanded attribute set of style ``name``.

        Parent styles are expanded first so the style's own attributes
        override inherited ones.  Cycles raise :class:`StyleError` even if
        :meth:`validate` was never called.
        """
        if name in _active:
            raise StyleError(f"style {name!r} refers to itself, directly "
                             f"or indirectly")
        body = self.body(name)
        expanded: dict[str, Any] = {}
        for parent in self._parents(name):
            expanded.update(self.expand(parent, _active | {name}))
        for key, value in body.items():
            if key != "style":
                expanded[key] = value
        return expanded

    def expand_all(self, names: list[str] | tuple[str, ...]
                   ) -> dict[str, Any]:
        """Expand several styles; later names win over earlier names."""
        expanded: dict[str, Any] = {}
        for name in names:
            expanded.update(self.expand(name))
        return expanded

    @classmethod
    def from_group(cls, group: dict[str, Any]) -> "StyleDictionary":
        """Build the dictionary from a ``style-dictionary`` group value."""
        dictionary = cls()
        for name, body in group.items():
            if not isinstance(body, dict):
                raise StyleError(
                    f"style {name!r} definition must be a group, "
                    f"got {body!r}")
            dictionary.define(name, body)
        return dictionary

    def to_group(self) -> dict[str, Any]:
        """The ``style-dictionary`` group value form."""
        return {name: dict(body) for name, body in self._styles.items()}
