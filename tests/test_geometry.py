"""Finite linear spaces: planes, near-pencils, puncturing."""

import itertools

import pytest

from setrep import (
    InvalidCoverError,
    LinearSpace,
    NoPlaneExists,
    NoSuchPlaneConstruction,
    complete_graph,
    fls_to_cover,
    is_projective_plane,
    n_pp,
    near_pencil,
    plane_order,
    projective_plane,
    puncture,
    validate_cover,
    validate_linear_space,
)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_projective_plane_axioms(q):
    ls = projective_plane(q)
    n = q * q + q + 1
    assert ls.points == n
    assert len(ls.lines) == n
    assert all(len(line) == q + 1 for line in ls.lines)
    # any two lines meet in exactly one point
    for a, b in itertools.combinations(ls.lines, 2):
        assert len(set(a) & set(b)) == 1
    # any two points lie on exactly one common line
    on = {p: {i for i, line in enumerate(ls.lines) if p in line} for p in range(n)}
    for p, r in itertools.combinations(range(n), 2):
        assert len(on[p] & on[r]) == 1
    assert is_projective_plane(ls)
    assert plane_order(ls) == q
    validate_linear_space(ls)


def test_no_plane_of_order_six():
    with pytest.raises(NoPlaneExists):
        projective_plane(6)


def test_no_plane_of_order_ten():
    with pytest.raises(NoPlaneExists):
        projective_plane(10)


def test_unsupported_order_raises_construction_error():
    with pytest.raises(NoSuchPlaneConstruction):
        projective_plane(12)


def test_near_pencil_shape():
    ls = near_pencil(7)
    sizes = sorted(len(line) for line in ls.lines)
    assert sizes == [2, 2, 2, 2, 2, 2, 6]
    assert not is_projective_plane(ls)
    validate_linear_space(ls)


@pytest.mark.parametrize("points,lines,message", [
    (0, (), "at least one point"),
    (3, ((0, 0, 1), (1, 2), (0, 2)), "repeats a point"),
    (3, ((0, 3), (0, 1), (1, 2)), "out of range"),
    (3, ((0, 1, 2),), "has 3 points; allowed range is 2..2"),
    (3, ((0, 1), (1, 0), (1, 2), (0, 2)), "lie on two lines"),
    (3, ((0, 1), (1, 2)), "points 0 and 2 lie on no line"),
], ids=["no-points", "repeat", "range", "long-line", "two-lines", "no-line"])
def test_validate_linear_space_refusals(points, lines, message):
    ls = LinearSpace(points=points, lines=lines)
    with pytest.raises(ValueError, match=message):
        validate_linear_space(ls)
    assert not is_projective_plane(ls)


def test_parallel_lines_make_no_plane():
    """K4's six edges as lines form a linear space, but the lines 0-1 and
    2-3 do not meet."""
    ls = LinearSpace(points=4,
                     lines=tuple(itertools.combinations(range(4), 2)))
    validate_linear_space(ls)
    assert not is_projective_plane(ls)


def test_plane_order_refuses_non_planes():
    for ls in (near_pencil(7), puncture(projective_plane(2), 1)):
        with pytest.raises(ValueError, match="not a projective plane"):
            plane_order(ls)


def test_near_pencil_and_puncture_refusals():
    with pytest.raises(ValueError, match="at least 3 points"):
        near_pencil(2)
    fano = projective_plane(2)
    for h in (-1, 7):
        with pytest.raises(ValueError, match=f"cannot remove {h} of 7"):
            puncture(fano, h)


def test_puncture_drops_last_points():
    fano = projective_plane(2)
    once = puncture(fano, 1)
    assert once.points == 6
    # deleting one point removes it from its three lines; no line shrinks
    # below two points, so all seven survive
    assert len(once.lines) == 7
    assert sorted(len(line) for line in once.lines) == [2, 2, 2, 3, 3, 3, 3]
    validate_linear_space(once)
    twice = puncture(fano, 2)
    assert twice.points == 5
    validate_linear_space(twice)


def test_fls_to_cover_is_a_valid_partition_cover():
    k7 = complete_graph(7)
    cov = fls_to_cover(projective_plane(2), k7)
    validate_cover(cov)
    # 7 lines, each pair of vertices together in exactly one
    assert len(cov.cliques) == 7
    seen = {}
    for i, q in enumerate(cov.cliques):
        for a, b in itertools.combinations(sorted(q), 2):
            assert (a, b) not in seen
            seen[(a, b)] = i
    assert len(seen) == 21


def test_fls_to_cover_requires_matching_graph():
    with pytest.raises(InvalidCoverError):
        fls_to_cover(projective_plane(2), complete_graph(5))


@pytest.mark.parametrize(
    "n,expected",
    [
        (7, 1),
        (13, 1),
        (21, 1),
        (31, 1),
        (57, 1),
        (73, 1),
        (91, 4),  # four planes of order nine
        (111, 0),  # no plane of order ten
        (6, 0),
        (8, 0),  # not of the form r^2+r+1
        (43, 0),  # r = 6
    ],
)
def test_plane_counts(n, expected):
    assert n_pp(n) == expected


def test_plane_count_unknown_is_none():
    # the number of planes of order 11 and 12 is open
    assert n_pp(133) is None
    assert n_pp(157) is None
