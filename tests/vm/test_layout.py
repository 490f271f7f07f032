"""Tests for page-size constants and granule arithmetic."""

import numpy as np
import pytest

from repro.vm.layout import (
    CHUNKS_2M_PER_1G,
    GRANULES_PER_1G,
    GRANULES_PER_2M,
    ORDER_1G,
    ORDER_2M,
    ORDER_4K,
    PAGE_1G,
    PAGE_2M,
    PAGE_4K,
    PageSize,
)


class TestConstants:
    def test_granules_per_page(self):
        assert GRANULES_PER_2M == 512
        assert GRANULES_PER_1G == 512 * 512
        assert CHUNKS_2M_PER_1G == 512

    def test_orders(self):
        assert 2**ORDER_4K * PAGE_4K == PAGE_4K
        assert 2**ORDER_2M * PAGE_4K == PAGE_2M
        assert 2**ORDER_1G * PAGE_4K == PAGE_1G


class TestPageSize:
    def test_granules(self):
        assert PageSize.SIZE_4K.granules == 1
        assert PageSize.SIZE_2M.granules == 512
        assert PageSize.SIZE_1G.granules == 262144

    def test_order(self):
        assert PageSize.SIZE_4K.order == 0
        assert PageSize.SIZE_2M.order == 9
        assert PageSize.SIZE_1G.order == 18
