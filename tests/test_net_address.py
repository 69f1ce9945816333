"""Tests for repro.inet.address."""

import pytest
from hypothesis import given, strategies as st

from repro.inet.address import BlockAllocator, IPv4Address, IPv4Prefix, parse_ipv4


class TestParsing:
    def test_parse_dotted_quad(self):
        assert parse_ipv4("1.2.3.4") == 0x01020304

    def test_parse_extremes(self):
        assert parse_ipv4("0.0.0.0") == 0
        assert parse_ipv4("255.255.255.255") == 0xFFFFFFFF

    @pytest.mark.parametrize(
        "text",
        ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "", "1..2.3", "-1.0.0.0"],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_ipv4(text)

    def test_str_round_trip(self):
        address = IPv4Address.parse("203.0.113.77")
        assert str(address) == "203.0.113.77"

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_parse_format_round_trip(self, value):
        assert parse_ipv4(str(IPv4Address(value))) == value


class TestIPv4Address:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IPv4Address(2**32)

    def test_ordering_is_numeric(self):
        assert IPv4Address.parse("1.0.0.2") < IPv4Address.parse("2.0.0.1")

    def test_slash24(self):
        address = IPv4Address.parse("198.51.100.37")
        assert str(address.slash24()) == "198.51.100.0/24"

    def test_prefix_of_arbitrary_length(self):
        address = IPv4Address.parse("10.11.12.13")
        assert str(address.prefix(16)) == "10.11.0.0/16"

    def test_hashable_and_equal(self):
        a = IPv4Address.parse("10.0.0.1")
        b = IPv4Address.parse("10.0.0.1")
        assert a == b
        assert len({a, b}) == 1


class TestIPv4Prefix:
    def test_parse(self):
        prefix = IPv4Prefix.parse("192.0.2.0/24")
        assert prefix.length == 24
        assert prefix.size == 256

    def test_parse_requires_length(self):
        with pytest.raises(ValueError):
            IPv4Prefix.parse("192.0.2.0")

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            IPv4Prefix(parse_ipv4("10.0.0.1"), 24)

    def test_contains(self):
        prefix = IPv4Prefix.parse("10.1.0.0/16")
        assert prefix.contains(IPv4Address.parse("10.1.200.5"))
        assert not prefix.contains(IPv4Address.parse("10.2.0.5"))

    def test_nth(self):
        prefix = IPv4Prefix.parse("10.0.0.0/30")
        assert str(prefix.nth(3)) == "10.0.0.3"
        with pytest.raises(IndexError):
            prefix.nth(4)

    def test_addresses_iterates_whole_block(self):
        prefix = IPv4Prefix.parse("10.0.0.0/30")
        assert len(list(prefix.addresses())) == 4

    def test_subprefixes(self):
        prefix = IPv4Prefix.parse("10.0.0.0/22")
        subs = list(prefix.subprefixes(24))
        assert len(subs) == 4
        assert str(subs[1]) == "10.0.1.0/24"

    def test_subprefixes_shorter_rejected(self):
        with pytest.raises(ValueError):
            list(IPv4Prefix.parse("10.0.0.0/24").subprefixes(16))

    @given(st.integers(min_value=0, max_value=32))
    def test_mask_has_length_leading_ones(self, length):
        mask = IPv4Prefix.mask_for(length)
        assert bin(mask).count("1") == length
        if length:
            assert mask >> (32 - length) == (1 << length) - 1


class TestBlockAllocator:
    def test_sequential_disjoint_allocation(self):
        allocator = BlockAllocator(IPv4Prefix.parse("10.0.0.0/16"))
        a = allocator.allocate(24)
        b = allocator.allocate(24)
        assert a != b
        assert not a.contains(IPv4Address(b.network))

    def test_alignment(self):
        allocator = BlockAllocator(IPv4Prefix.parse("10.0.0.0/16"))
        allocator.allocate(25)
        block = allocator.allocate(24)
        # The /24 must be naturally aligned, skipping the half-used one.
        assert block.network % 256 == 0

    def test_exhaustion(self):
        allocator = BlockAllocator(IPv4Prefix.parse("10.0.0.0/24"))
        allocator.allocate(25)
        allocator.allocate(25)
        with pytest.raises(RuntimeError):
            allocator.allocate(25)

    def test_cannot_allocate_bigger_than_parent(self):
        allocator = BlockAllocator(IPv4Prefix.parse("10.0.0.0/24"))
        with pytest.raises(ValueError):
            allocator.allocate(16)

    def test_remaining_decreases(self):
        allocator = BlockAllocator(IPv4Prefix.parse("10.0.0.0/23"))
        before = allocator.remaining
        allocator.allocate(24)
        assert allocator.remaining == before - 256

    @given(st.lists(st.integers(min_value=24, max_value=30), max_size=12))
    def test_all_allocations_disjoint(self, lengths):
        allocator = BlockAllocator(IPv4Prefix.parse("10.0.0.0/16"))
        blocks = []
        for length in lengths:
            try:
                blocks.append(allocator.allocate(length))
            except RuntimeError:
                break
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                assert a.network + a.size <= b.network or b.network + b.size <= a.network
