import time
import tracemalloc

import pytest
from conftest import box_points
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_spectra import (
    ContractError,
    RangeError,
    ResourceLimitError,
    contains,
    enumerate_shell,
    lattice,
    maximize,
    shell_to_json,
    verify_lemma,
)
from torus_spectra.lattice import negate, sign_canonical, squared_norm


def test_shell_2_25_matches_known_points():
    shell = enumerate_shell(2, 25)
    expected = {(5, 0), (-5, 0), (0, 5), (0, -5),
                (3, 4), (3, -4), (-3, 4), (-3, -4),
                (4, 3), (4, -3), (-4, 3), (-4, -3)}
    assert set(shell.points) == expected
    assert len(shell) == 12


def test_shell_lambda_zero_is_origin_only():
    shell = enumerate_shell(4, 0)
    assert shell.points == ((0, 0, 0, 0),)


def test_shell_3_3_is_sign_cube():
    shell = enumerate_shell(3, 3)
    assert len(shell) == 8
    assert all(set(map(abs, p)) == {1} for p in shell.points)


def test_shell_2_3_is_empty():
    assert len(enumerate_shell(2, 3)) == 0


@pytest.mark.parametrize("dim,lam", [(2, 100), (3, 41), (4, 12), (5, 14)])
def test_enumeration_agrees_with_box_scan(dim, lam):
    shell = enumerate_shell(dim, lam)
    assert list(shell.points) == box_points(dim, lam)


@given(dim=st.integers(2, 4), lam=st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_enumeration_box_oracle_property(dim, lam):
    shell = enumerate_shell(dim, lam)
    assert list(shell.points) == box_points(dim, lam)
    # exactness and canonical order
    assert all(squared_norm(p) == lam for p in shell.points)
    assert list(shell.points) == sorted(shell.points)
    # negation closure
    assert {negate(p) for p in shell.points} == set(shell.points)


@pytest.mark.parametrize("k", [1, 2, 7, 25])
def test_axis_points_exist_on_square_radii(k):
    assert len(enumerate_shell(2, k * k)) >= 4


def test_range_errors():
    with pytest.raises(RangeError):
        enumerate_shell(1, 5)
    with pytest.raises(RangeError):
        enumerate_shell(17, 5)
    with pytest.raises(RangeError):
        enumerate_shell(2, -1)
    with pytest.raises(RangeError):
        enumerate_shell(2, 2**40 + 1)


def test_point_cap_refuses_as_soon_as_it_is_passed(monkeypatch):
    monkeypatch.setattr(lattice, "MAX_POINTS", 12)
    assert len(enumerate_shell(2, 25)) == 12  # at the cap
    monkeypatch.setattr(lattice, "MAX_POINTS", 11)
    with pytest.raises(ResourceLimitError, match=r"shell\(2, 25\) has more than 11 points"):
        enumerate_shell(2, 25)
    # shell(16,16) has 509,145,568 points: only an early stop returns at all, and
    # the refusal frees the points it had found
    monkeypatch.setattr(lattice, "MAX_POINTS", 30000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="more than 30000 points"):
            enumerate_shell(16, 16)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # what stays is at most the interpreter's free list of 2,000 tuples per length
    assert peak > 5 * 10**6 and current < peak // 4


@pytest.mark.parametrize("refuse", [
    lambda shell: lattice.require_whole(shell, "retry"),
    lambda shell: verify_lemma(shell, mode="sampled", count=10),
    lambda shell: maximize(shell, 4.0),
], ids=["require_whole", "verify_lemma", "maximize"])
def test_subset_refusal_stops_past_the_given_points(refuse):
    # 32 points of shell(16,16), which holds 509,145,568: the check that refuses
    # them stops at the 33rd point it finds, far below MAX_POINTS
    points = tuple(sorted(p for i in range(16) for p in ((0,) * i + (s,) + (0,) * (15 - i)
                                                         for s in (-4, 4))))
    subset = lattice.SphereShell(dim=16, lam=16, points=points, index=frozenset(points))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ContractError, match=r"the 32 given points differ from the more "
                                                r"than 32 points of shell\(16, 16\)"):
            refuse(subset)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 10**6


def test_contains_and_dimension_mismatch():
    shell = enumerate_shell(2, 25)
    assert contains(shell, (5, 0))
    assert not contains(shell, (4, 4))
    assert contains(enumerate_shell(3, 3), (1, -1, 1))
    with pytest.raises(ContractError):
        contains(shell, (1, 2, 3))


def test_in_operator_agrees_with_contains():
    shell = enumerate_shell(2, 25)
    box = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    assert {p for p in box if p in shell} == {p for p in box if contains(shell, p)} == set(shell.points)


def test_contains_matches_linear_scan():
    shell = enumerate_shell(3, 41)
    for p in shell.points:
        assert contains(shell, p)
    assert not contains(shell, (0, 0, 0))


def test_shell_json_schema():
    shell = enumerate_shell(2, 25)
    obj = shell_to_json(shell)
    assert obj["dim"] == 2 and obj["lambda"] == 25 and obj["count"] == 12
    assert obj["points"] == [list(p) for p in shell.points]


def test_sign_canonical():
    assert sign_canonical((0, -2, 1)) == (0, 2, -1)
    assert sign_canonical((3, -1)) == (3, -1)
    assert sign_canonical((0, 0)) == (0, 0)
