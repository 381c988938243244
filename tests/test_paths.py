"""Unit tests for relative node paths (repro.core.paths)."""

import pytest

from repro.core.errors import PathError
from repro.core.nodes import ImmNode, ParNode, SeqNode
from repro.core.paths import node_path, relative_path, resolve_path


@pytest.fixture()
def tree():
    """root -> (story1 -> (video, audio), story2 -> (video, <unnamed>))."""
    root = SeqNode("news")
    story1 = root.add(ParNode("story1"))
    story2 = root.add(ParNode("story2"))
    video1 = story1.add(ImmNode("video"))
    audio1 = story1.add(ImmNode("audio"))
    video2 = story2.add(ImmNode("video"))
    unnamed = story2.add(ImmNode())
    return root, story1, story2, video1, audio1, video2, unnamed


class TestResolve:
    def test_empty_and_dot_name_current(self, tree):
        _root, story1, *_ = tree
        assert resolve_path(story1, "") is story1
        assert resolve_path(story1, ".") is story1

    def test_child_by_name(self, tree):
        _root, story1, _s2, video1, *_ = tree
        assert resolve_path(story1, "video") is video1

    def test_parent_step(self, tree):
        root, story1, *_ = tree
        assert resolve_path(story1, "..") is root

    def test_sibling_path(self, tree):
        _root, story1, _s2, video1, audio1, *_ = tree
        assert resolve_path(video1, "../audio") is audio1

    def test_cross_story_path(self, tree):
        _root, story1, _s2, video1, _a1, video2, _u = tree
        assert resolve_path(video1, "../../story2/video") is video2

    def test_root_relative(self, tree):
        root, _s1, _s2, video1, *_ = tree
        assert resolve_path(video1, "/") is root
        assert resolve_path(video1, "/story1/video") is video1

    def test_indexed_component(self, tree):
        _root, _s1, story2, *_rest = tree
        unnamed = tree[6]
        assert resolve_path(story2, "#1") is unnamed

    def test_unknown_child_raises(self, tree):
        _root, story1, *_ = tree
        with pytest.raises(PathError, match="no child named"):
            resolve_path(story1, "graphics")

    def test_step_above_root_raises(self, tree):
        root, *_ = tree
        with pytest.raises(PathError, match="above the root"):
            resolve_path(root, "..")

    def test_leaf_has_no_children(self, tree):
        video1 = tree[3]
        with pytest.raises(PathError, match="leaf"):
            resolve_path(video1, "child")

    def test_bad_index_raises(self, tree):
        _root, story1, *_ = tree
        with pytest.raises(PathError, match="out of range"):
            resolve_path(story1, "#9")
        with pytest.raises(PathError, match="malformed"):
            resolve_path(story1, "#x")

    def test_non_string_rejected(self, tree):
        with pytest.raises(PathError):
            resolve_path(tree[0], 42)  # type: ignore[arg-type]


class TestNodePath:
    def test_root_path(self, tree):
        assert node_path(tree[0]) == "/"

    def test_named_chain(self, tree):
        assert node_path(tree[3]) == "/story1/video"

    def test_unnamed_uses_index(self, tree):
        assert node_path(tree[6]) == "/story2/#1"

    def test_path_resolves_back(self, tree):
        root = tree[0]
        for node in tree[1:]:
            assert resolve_path(root, node_path(node)) is node


class TestRelativePath:
    def test_self_is_dot(self, tree):
        assert relative_path(tree[3], tree[3]) == "."

    def test_sibling(self, tree):
        _root, _s1, _s2, video1, audio1, *_ = tree
        path = relative_path(video1, audio1)
        assert resolve_path(video1, path) is audio1
        assert path == "../audio"

    def test_cross_tree_round_trip(self, tree):
        nodes = tree[1:]
        for origin in nodes:
            for target in nodes:
                path = relative_path(origin, target)
                assert resolve_path(origin, path) is target

    def test_disjoint_trees_raise(self, tree):
        from repro.core.nodes import SeqNode
        stranger = SeqNode("elsewhere")
        with pytest.raises(PathError):
            relative_path(tree[0], stranger)
