"""Box algebra: analytic overlap cases plus metric and invariance properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sasmot.geometry import (
    Box2D,
    boxes_to_corners,
    corners_of,
    iou,
    iou_matrix,
    max_iou_vs_others,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=50.0, allow_nan=False)


def boxes():
    return st.builds(Box2D, cx=finite, cy=finite, w=positive, h=positive)


# Multiples of 2**-10 inside the ranges above. For these values every
# corner, width, area and sum in ``iou`` is exact, so a translation changes
# no bit of the result.
DYADIC = 2.0**-10


def dyadic(lo, hi):
    return st.integers(math.ceil(lo / DYADIC), math.floor(hi / DYADIC)).map(lambda k: k * DYADIC)


dyadic_shift = dyadic(-100.0, 100.0)
dyadic_boxes = st.builds(
    Box2D, cx=dyadic_shift, cy=dyadic_shift, w=dyadic(1e-3, 50.0), h=dyadic(1e-3, 50.0)
)


def test_identical_boxes_have_iou_one():
    b = Box2D(0.5, 0.5, 0.2, 0.4)
    assert iou(b, b) == 1.0


def test_half_shifted_unit_squares_iou_one_third():
    a = Box2D(0.0, 0.0, 1.0, 1.0)
    b = Box2D(0.5, 0.0, 1.0, 1.0)
    # Intersection 0.5, union 1.5.
    assert math.isclose(iou(a, b), 1.0 / 3.0, rel_tol=0, abs_tol=1e-12)


def test_disjoint_boxes_have_iou_zero():
    assert iou(Box2D(0.0, 0.0, 1.0, 1.0), Box2D(3.0, 0.0, 1.0, 1.0)) == 0.0


def test_touching_boxes_have_iou_zero():
    assert iou(Box2D(0.0, 0.0, 1.0, 1.0), Box2D(1.0, 0.0, 1.0, 1.0)) == 0.0


def test_nested_box_iou_is_area_ratio():
    outer = Box2D(0.0, 0.0, 4.0, 4.0)
    inner = Box2D(0.0, 0.0, 2.0, 2.0)
    assert math.isclose(iou(outer, inner), 4.0 / 16.0, abs_tol=1e-12)


def test_nested_seven_sixteenths_case():
    # Areas 16 and 7 with the smaller box inside the larger; every corner
    # is a dyadic rational, so the ratio 7/16 is exact in floating point.
    outer = Box2D(0.0, 0.0, 4.0, 4.0)
    inner = Box2D(0.0, 0.0, 3.5, 2.0)
    assert iou(outer, inner) == 7.0 / 16.0


@given(boxes(), boxes())
def test_iou_symmetric(a, b):
    assert iou(a, b) == iou(b, a)


@given(boxes(), boxes())
def test_iou_bounded(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0


@given(dyadic_boxes, dyadic_boxes, dyadic_shift, dyadic_shift)
def test_iou_translation_invariant(a, b, dx, dy):
    va = iou(a, b)
    vb = iou(
        Box2D(a.cx + dx, a.cy + dy, a.w, a.h),
        Box2D(b.cx + dx, b.cy + dy, b.w, b.h),
    )
    assert va == vb


@given(boxes())
def test_self_iou_is_one(b):
    assert iou(b, b) == 1.0


@given(st.lists(boxes(), min_size=1, max_size=6), st.lists(boxes(), min_size=1, max_size=6))
def test_iou_matrix_matches_scalar(lhs, rhs):
    mat = iou_matrix(boxes_to_corners(lhs), boxes_to_corners(rhs))
    assert mat.shape == (len(lhs), len(rhs))
    for i, a in enumerate(lhs):
        for j, b in enumerate(rhs):
            assert mat[i, j] == iou(a, b)


@st.composite
def related_boxes(draw):
    """A dyadic box with touching, nested, identical and 1e-6-wide relatives."""
    b = draw(dyadic_boxes)
    f = draw(st.floats(min_value=0.01, max_value=1.0))
    return [
        b,
        b,
        Box2D(b.cx + b.w, b.cy, b.w, b.h),  # shares the right edge exactly
        Box2D(b.cx + b.w, b.cy + b.h, b.w, b.h),  # shares one corner point
        Box2D(b.cx, b.cy, b.w * f, b.h * f),
        Box2D(b.cx - b.w / 4, b.cy, b.w / 2, b.h / 2),
        Box2D(b.cx, b.cy, 1e-6, b.h),
        Box2D(b.cx + b.w / 2, b.cy, 1e-6, 1e-6),
    ]


@given(related_boxes(), st.lists(boxes(), max_size=3))
def test_iou_matrix_of_touching_nested_identical_and_thin_boxes(group, others):
    # iou_matrix clamps only from above; this holds it to [0, 1] with no -0.0.
    group = group + others
    corners = boxes_to_corners(group)
    mat = iou_matrix(corners, corners)
    assert ((mat >= 0.0) & (mat <= 1.0)).all()
    assert not np.signbit(mat).any()
    assert mat[0, 1] == 1.0 and mat[0, 2] == mat[0, 3] == 0.0
    for i, a in enumerate(group):
        for j, b in enumerate(group):
            assert mat[i, j] == iou(a, b)


def test_iou_matrix_empty_sides():
    empty = boxes_to_corners([])
    one = boxes_to_corners([Box2D(0, 0, 1, 1)])
    assert iou_matrix(empty, one).shape == (0, 1)
    assert iou_matrix(one, empty).shape == (1, 0)


def test_max_iou_vs_others_singleton_is_zero():
    one = boxes_to_corners([Box2D(0, 0, 1, 1)])
    best, others = max_iou_vs_others(iou_matrix(one, one))
    assert best.tolist() == [0.0] and others.tolist() == [[0.0]]
    best, others = max_iou_vs_others(np.zeros((0, 0)))
    assert best.shape == (0,) and others.shape == (0, 0)


def test_max_iou_vs_others_picks_largest_overlap():
    group = [
        Box2D(0.0, 0.0, 1.0, 1.0),
        Box2D(0.5, 0.0, 1.0, 1.0),  # iou 1/3 with first
        Box2D(0.9, 0.0, 1.0, 1.0),  # iou 1/19 with first
        Box2D(5.0, 5.0, 1.0, 1.0),  # disjoint
    ]
    corners = boxes_to_corners(group)
    ious = iou_matrix(corners, corners)
    best, others = max_iou_vs_others(ious)
    assert math.isclose(best[0], 1.0 / 3.0, abs_tol=1e-12)
    assert math.isclose(best[1], 3.0 / 7.0, abs_tol=1e-12)  # with the third
    assert best.tolist() == [ious[0, 1], ious[1, 2], ious[2, 1], 0.0]
    assert others is ious
    assert np.diag(ious).tolist() == [0.0] * 4  # zeroed in place


@given(st.lists(boxes(), max_size=8))
def test_max_iou_vs_others_matches_scalar_scan(group):
    corners = boxes_to_corners(group)
    best, _ = max_iou_vs_others(iou_matrix(corners, corners))
    for i, a in enumerate(group):
        others = [iou(a, b) for j, b in enumerate(group) if j != i]
        assert best[i] == max(others, default=0.0)


def test_box_validation():
    nan, inf = math.nan, math.inf
    # A non-finite field is named first, the first such field in order.
    for fields, message in [
        ((0.0, 0.0, 0.0, 1.0), "non-positive box size w=0.0, h=1.0"),
        ((0.0, 0.0, 1.0, -2.0), "non-positive box size w=1.0, h=-2.0"),
        ((nan, 0.0, 1.0, 1.0), "non-finite box field cx=nan"),
        ((0.0, -inf, 1.0, 1.0), "non-finite box field cy=-inf"),
        ((0.0, 0.0, inf, 1.0), "non-finite box field w=inf"),
        ((0.0, 0.0, -1.0, nan), "non-finite box field h=nan"),
        ((inf, 0.0, 1.0, nan), "non-finite box field cx=inf"),
        # A size below the spacing of doubles at the centre: left == right
        # (or top == bottom), and the box's IoU with itself came out 0.0.
        ((-1e300, 1e300, 5e-324, 1e300), "box corners collapse: cx=-1e+300, cy=1e+300, w=5e-324, h=1e+300"),
        ((1e6, 0.5, 1e-12, 0.1), "box corners collapse: cx=1000000.0, cy=0.5, w=1e-12, h=0.1"),
        ((0.5, 1e6, 0.1, 1e-12), "box corners collapse: cx=0.5, cy=1000000.0, w=0.1, h=1e-12"),
        # A finite center and size whose corner overflows: the IoU came out NaN.
        ((1.7e308, 0.5, 1e308, 1.0), "box corner overflows: cx=1.7e+308, cy=0.5, w=1e+308, h=1.0"),
        ((0.5, -1.7e308, 1.0, 1e308), "box corner overflows: cx=0.5, cy=-1.7e+308, w=1.0, h=1e+308"),
        # A finite area whose double, the IoU union of the box with itself,
        # overflows: that IoU came out 0.0 with an overflow warning.
        ((0.5, 0.5, 1e154, 1.5e154), "box area overflows: w=1e+154, h=1.5e+154"),
        ((0.0, 0.0, 1e154, 1e154), "box area overflows: w=1e+154, h=1e+154"),
        # Corners apart, but an area that underflows to 0: the IoU of the box
        # with itself raised ZeroDivisionError here and read 0.0 in iou_matrix.
        ((0.0, 0.0, 1e-200, 1e-200), "box area underflows: w=1e-200, h=1e-200"),
        ((0.0, 0.0, 1e-323, 1e-323), "box area underflows: w=1e-323, h=1e-323"),
    ]:
        with pytest.raises(ValueError) as exc:
            Box2D(*fields)
        assert str(exc.value) == message
    # The narrowest box at the origin keeps its corners apart and, with a
    # height of 1, its area above 0.
    assert Box2D(0.0, 0.0, 1e-323, 1.0).corners() == (-5e-324, -0.5, 5e-324, 0.5)


def test_box_whose_area_overflows_is_rejected():
    # These two boxes once reached Tracker.step, where their IoU came out
    # NaN and the memory's overlap check failed without naming a frame.
    for cx in (0.5, 0.6):
        with pytest.raises(ValueError) as exc:
            Box2D(cx, 0.5, 1e200, 1e200)
        assert str(exc.value) == "box area overflows: w=1e+200, h=1e+200"
    with pytest.raises(ValueError, match="non-positive box size"):
        Box2D(0.0, 0.0, 1e200, -1e200)
    assert Box2D(0.0, 0.0, 1e154, 8.9e153).w == 1e154


@pytest.mark.parametrize("box", [
    Box2D(0.5, 0.5, 1e154, 8.9e153),  # doubled area 1.78e308
    Box2D(1.2e308, 0.5, 1e308, 0.5),  # right edge 1.7e308
], ids=["union", "corner"])
def test_box_just_inside_the_bounds_has_iou_one_with_itself(box):
    corners = boxes_to_corners([box])
    with np.errstate(all="raise"):
        assert iou_matrix(corners, corners)[0, 0] == 1.0
    assert iou(box, box) == 1.0


def test_corners_roundtrip():
    b = Box2D(0.5, 0.25, 0.2, 0.1)
    left, top, right, bottom = b.corners()
    assert math.isclose(right - left, b.w)
    assert math.isclose(bottom - top, b.h)
    assert math.isclose((left + right) / 2, b.cx)
    assert np.allclose(boxes_to_corners([b])[0], [left, top, right, bottom])


@given(st.lists(st.tuples(finite, finite, positive, positive), min_size=0, max_size=8))
@example([(0.0, 0.0, 1e-323, 1.0), (1e6, 0.5, 1e-9, 0.1), (-1e300, 0.5, 1e290, 0.25), (1e-300, 2.0, 3e-300, 0.7)])
def test_corners_of_has_the_bits_of_box_corners(fields):
    boxes = [Box2D(*f) for f in fields]
    centers = np.array([[b.cx for b in boxes], [b.cy for b in boxes]]).reshape(2, -1)
    extents = np.array([[b.w for b in boxes], [b.h for b in boxes]]).reshape(2, -1)
    got = corners_of(centers, extents)
    assert got.shape == (len(boxes), 4) and got.flags.c_contiguous
    assert got.tobytes() == boxes_to_corners(boxes).tobytes()
