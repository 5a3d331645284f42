"""Tests for the §3.3 sequence-level sorting driver."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiway_merge import default_sort2
from repro.core.sorting import multiway_merge_sort, required_order
from repro.schedule import reject_nan


class TestRequiredOrder:
    def test_exact_powers(self):
        assert required_order(8, 2) == 3
        assert required_order(81, 3) == 4
        assert required_order(2, 2) == 1

    def test_rejects_non_powers(self):
        with pytest.raises(ValueError):
            required_order(10, 3)
        with pytest.raises(ValueError):
            required_order(0, 2)


class TestSortDriver:
    @pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 4), (4, 3), (5, 2)])
    def test_sorts_random(self, n, r):
        rng = random.Random(n * 10 + r)
        keys = [rng.randrange(100) for _ in range(n**r)]
        assert multiway_merge_sort(keys, n) == sorted(keys)

    def test_rejects_r1(self):
        with pytest.raises(ValueError):
            multiway_merge_sort([3, 1], 2)

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            multiway_merge_sort(list(range(10)), 3)

    def test_on_round_observer(self):
        """After round k, sequences have length N^k and each is sorted."""
        rng = random.Random(0)
        keys = [rng.randrange(50) for _ in range(81)]
        seen: list[tuple[int, int, bool]] = []

        def observe(k, sequences):
            all_sorted = all(s == sorted(s) for s in sequences)
            seen.append((k, len(sequences), all_sorted))

        multiway_merge_sort(keys, 3, on_round=observe)
        assert seen == [(2, 9, True), (3, 3, True), (4, 1, True)]

    def test_custom_sort2_is_used(self):
        calls = []

        def probe_sort2(block):
            calls.append(len(block))
            return default_sort2(block)

        rng = random.Random(1)
        keys = [rng.randrange(30) for _ in range(27)]
        assert multiway_merge_sort(keys, 3, sort2=probe_sort2) == sorted(keys)
        assert all(size == 9 for size in calls)  # only ever sorts N^2 keys
        assert len(calls) >= 3

    @given(st.lists(st.integers(-50, 50), min_size=16, max_size=16))
    @settings(max_examples=40)
    def test_property_binary_radix(self, keys):
        assert multiway_merge_sort(keys, 2) == sorted(keys)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=27, max_size=27))
    @settings(max_examples=25)
    def test_property_floats(self, keys):
        assert multiway_merge_sort(keys, 3) == sorted(keys)

    @pytest.mark.parametrize("seed", range(5))
    def test_rejects_nan(self, seed):
        # every comparison against NaN is false, so the other keys came back
        # unsorted; the oracle now refuses like the other entry points
        keys = list(np.random.default_rng(seed).random(27))
        keys[3] = float("nan")
        with pytest.raises(ValueError) as raised:
            multiway_merge_sort(keys, 3)
        with pytest.raises(ValueError) as expected:
            reject_nan(np.array(keys))
        assert str(raised.value) == str(expected.value)
        keys[3] = np.float32("nan")
        with pytest.raises(ValueError, match="NaN"):
            multiway_merge_sort(keys, 3)

    def test_accepts_infinities(self):
        keys = [float("inf"), float("-inf")] + list(range(25))
        assert multiway_merge_sort(keys, 3) == sorted(keys)

    def test_all_equal_keys(self):
        assert multiway_merge_sort([7] * 64, 4) == [7] * 64

    def test_reverse_sorted(self):
        keys = list(range(32, 0, -1))
        assert multiway_merge_sort(keys, 2) == sorted(keys)
