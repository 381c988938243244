"""Unit tests for attribute value types (repro.core.values)."""

import pytest

from repro.core.errors import ValueError_
from repro.core.timebase import MediaTime, Unit
from repro.core.values import (Rect, ValueKind, validate_flag,
                               validate_group, validate_id,
                               validate_media_time, validate_name,
                               validate_number, validate_pointers,
                               validate_rect, validate_string,
                               validate_value)


class TestIdValues:
    def test_plain_id_accepted(self):
        assert validate_id("story-3") == "story-3"

    def test_embedded_space_rejected(self):
        with pytest.raises(ValueError_):
            validate_id("story 3")

    def test_empty_rejected(self):
        with pytest.raises(ValueError_):
            validate_id("")

    def test_non_string_rejected(self):
        with pytest.raises(ValueError_):
            validate_id(42)


class TestNames:
    def test_names_allow_dots_dashes_underscores(self):
        for name in ("a", "story-3", "part.2", "clip_1", "3rd"):
            assert validate_name(name) == name

    def test_names_reject_path_characters(self):
        for name in ("a/b", "..", "", "#1", "a b"):
            with pytest.raises(ValueError_):
                validate_name(name)


class TestNumbers:
    def test_int_and_float_accepted(self):
        assert validate_number(3) == 3
        assert validate_number(2.5) == 2.5

    def test_bool_rejected(self):
        with pytest.raises(ValueError_):
            validate_number(True)

    def test_nan_rejected(self):
        with pytest.raises(ValueError_):
            validate_number(float("nan"))


class TestStrings:
    def test_spaces_allowed(self):
        assert validate_string("Gestolen van Gogh's") == \
            "Gestolen van Gogh's"

    def test_non_string_rejected(self):
        with pytest.raises(ValueError_):
            validate_string(3)


class TestPointers:
    def test_single_name_becomes_tuple(self):
        assert validate_pointers("caption-style") == ("caption-style",)

    def test_list_of_names(self):
        assert validate_pointers(["a", "b"]) == ("a", "b")

    def test_empty_rejected(self):
        with pytest.raises(ValueError_):
            validate_pointers([])

    def test_bad_member_rejected(self):
        with pytest.raises(ValueError_):
            validate_pointers(["ok", "not ok"])


class TestMediaTimeValues:
    def test_passthrough(self):
        time = MediaTime.seconds(4)
        assert validate_media_time(time) is time

    def test_bare_number_means_ms(self):
        time = validate_media_time(250)
        assert time.value == 250.0
        assert time.unit is Unit.MILLISECONDS

    def test_bool_rejected(self):
        with pytest.raises(ValueError_):
            validate_media_time(True)


class TestRect:
    def test_from_sequence(self):
        rect = validate_rect((1, 2, 3, 4))
        assert (rect.x, rect.y, rect.width, rect.height) == (1, 2, 3, 4)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError_):
            Rect(0, 0, 0, 5)

    def test_negative_origin_rejected(self):
        with pytest.raises(ValueError_):
            Rect(-1, 0, 5, 5)

    def test_area(self):
        assert Rect(0, 0, 4, 5).area == 20

    def test_contains(self):
        outer = Rect(0, 0, 100, 100)
        assert outer.contains(Rect(10, 10, 20, 20))
        assert not outer.contains(Rect(90, 90, 20, 20))

    def test_scaled(self):
        scaled = Rect(2, 2, 10, 10).scaled(0.5)
        assert scaled == Rect(1, 1, 5, 5)

    def test_scaled_never_collapses(self):
        assert Rect(0, 0, 1, 1).scaled(0.1).width == 1

    def test_scale_by_zero_rejected(self):
        with pytest.raises(ValueError_):
            Rect(0, 0, 5, 5).scaled(0)


class TestGroupsAndFlags:
    def test_group_keys_validated(self):
        assert validate_group({"medium": "audio"}) == {"medium": "audio"}
        with pytest.raises(ValueError_):
            validate_group({"bad key": 1})

    def test_group_must_be_dict(self):
        with pytest.raises(ValueError_):
            validate_group([("a", 1)])

    def test_flag(self):
        assert validate_flag(True) is True
        with pytest.raises(ValueError_):
            validate_flag(1)


class TestDispatch:
    def test_validate_value_routes_by_kind(self):
        assert validate_value(ValueKind.NUMBER, 7) == 7
        assert validate_value(ValueKind.ANY, object)
        rect = validate_value(ValueKind.RECT, (0, 0, 1, 1))
        assert isinstance(rect, Rect)
