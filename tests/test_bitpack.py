"""Unit and property tests for repro.bitpack."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack import pack_bits, packed_nbytes, unpack_bits

ALL_WIDTHS = range(1, 33)


def _ref_pack(values, width):
    """Bit-matrix reference: explode to an ``(n, B)`` LSB-first bit matrix
    and fold it into bytes with ``packbits``."""
    vals = np.asarray(values, dtype=np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((vals[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def _ref_unpack(data, count, width):
    raw = np.frombuffer(data, dtype=np.uint8)[: packed_nbytes(count, width)]
    bits = np.unpackbits(raw, bitorder="little")[: count * width]
    bits = bits.reshape(count, width).astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64).astype(
        np.uint32)


def _period(width):
    """Values per period of the word layout, ``64 / gcd(64, B)``."""
    return 64 // math.gcd(64, width)


class TestPackedNbytes:
    def test_exact_multiples(self):
        assert packed_nbytes(8, 8) == 8
        assert packed_nbytes(8, 1) == 1
        assert packed_nbytes(16, 4) == 8

    def test_rounding_up(self):
        assert packed_nbytes(3, 3) == 2  # 9 bits -> 2 bytes
        assert packed_nbytes(1, 1) == 1
        assert packed_nbytes(5, 7) == 5  # 35 bits -> 5 bytes

    def test_zero_count(self):
        assert packed_nbytes(0, 8) == 0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            packed_nbytes(10, 0)
        with pytest.raises(ValueError):
            packed_nbytes(10, 33)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            packed_nbytes(-1, 8)


class TestPackBits:
    def test_known_layout_width8(self):
        # width 8 is plain bytes.
        vals = np.array([0, 1, 255, 128], dtype=np.uint32)
        assert pack_bits(vals, 8) == bytes([0, 1, 255, 128])

    def test_known_layout_width1(self):
        # LSB-first within each byte.
        vals = np.array([1, 0, 1, 1, 0, 0, 0, 1], dtype=np.uint8)
        assert pack_bits(vals, 1) == bytes([0b10001101])

    def test_known_layout_width4(self):
        vals = np.array([0xA, 0xB], dtype=np.uint32)
        # 0xA in low nibble, 0xB in high nibble.
        assert pack_bits(vals, 4) == bytes([0xBA])

    def test_empty(self):
        assert pack_bits(np.array([], dtype=np.uint32), 8) == b""

    def test_value_out_of_range(self):
        with pytest.raises(ValueError, match="exceed"):
            pack_bits(np.array([256], dtype=np.uint32), 8)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            pack_bits(np.array([1.0]), 8)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros((2, 2), dtype=np.uint32), 8)

    def test_length(self):
        vals = np.arange(100, dtype=np.uint32) % 8
        assert len(pack_bits(vals, 3)) == packed_nbytes(100, 3)


class TestUnpackBits:
    def test_roundtrip_simple(self):
        vals = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.uint32)
        packed = pack_bits(vals, 4)
        out = unpack_bits(packed, len(vals), 4)
        np.testing.assert_array_equal(out, vals)

    def test_short_buffer_raises(self):
        with pytest.raises(ValueError, match="need"):
            unpack_bits(b"\x00", 10, 8)

    def test_extra_bytes_ignored(self):
        vals = np.array([7, 7], dtype=np.uint32)
        packed = pack_bits(vals, 3) + b"\xff\xff"
        np.testing.assert_array_equal(unpack_bits(packed, 2, 3), vals)

    def test_zero_count(self):
        assert unpack_bits(b"", 0, 5).size == 0

    def test_negative_count(self):
        with pytest.raises(ValueError):
            unpack_bits(b"\x00", -1, 8)

    def test_wide_values(self):
        vals = np.array([2**31 - 1, 0, 12345678], dtype=np.uint64)
        packed = pack_bits(vals, 32)
        np.testing.assert_array_equal(unpack_bits(packed, 3, 32), vals)

    def test_numpy_integer_width(self):
        vals = np.arange(100, dtype=np.uint32) % 512
        packed = pack_bits(vals, np.uint8(9))
        assert packed == pack_bits(vals, 9)
        np.testing.assert_array_equal(unpack_bits(packed, 100, np.uint8(9)),
                                      vals)

    @pytest.mark.parametrize("kind", ["bytes", "bytearray", "memoryview",
                                      "ndarray"])
    def test_any_buffer(self, kind):
        vals = np.arange(100, dtype=np.uint32) % 512
        packed = b"\x07" + pack_bits(vals, 9)
        buf = {"bytes": lambda b: b, "bytearray": bytearray,
               "memoryview": memoryview,
               "ndarray": lambda b: np.frombuffer(b, dtype=np.uint8)}[kind]
        out = unpack_bits(buf(packed)[1:], 100, 9)
        assert out.dtype == np.uint32
        np.testing.assert_array_equal(out, vals)


@pytest.mark.parametrize("width", ALL_WIDTHS)
class TestEveryWidth:
    def test_short_buffer_raises(self, width):
        n = 2 * _period(width) + 1
        packed = pack_bits(np.ones(n, dtype=np.uint32), width)
        with pytest.raises(ValueError, match="need"):
            unpack_bits(packed[:-1], n, width)

    def test_trailing_bytes_ignored(self, width):
        n = _period(width) + 3
        vals = np.arange(n, dtype=np.uint64) % (1 << width)
        out = unpack_bits(pack_bits(vals, width) + b"\xff" * 9, n, width)
        assert out.dtype == np.uint32
        np.testing.assert_array_equal(out, vals)

    def test_matches_reference_at_lane_edges(self, width):
        lanes = _period(width)
        rng = np.random.default_rng(width)
        for n in (1, lanes - 1, lanes, lanes + 1, 3 * lanes, 4097):
            for vals in (np.zeros(n, dtype=np.uint64),
                         np.full(n, (1 << width) - 1, dtype=np.uint64),
                         rng.integers(0, 1 << width, n, dtype=np.uint64)):
                packed = pack_bits(vals, width)
                assert packed == _ref_pack(vals, width)
                out = unpack_bits(packed, n, width)
                assert out.dtype == np.uint32
                assert np.array_equal(out, _ref_unpack(packed, n, width))


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=32),
    data=st.data(),
)
def test_property_roundtrip(width, data):
    """pack -> unpack is the identity for any width and values in range."""
    n = data.draw(st.integers(min_value=0, max_value=200))
    vals = data.draw(
        st.lists(st.integers(min_value=0, max_value=2**width - 1),
                 min_size=n, max_size=n)
    )
    arr = np.array(vals, dtype=np.uint32)
    out = unpack_bits(pack_bits(arr, width), n, width)
    np.testing.assert_array_equal(out, arr)


@settings(max_examples=30, deadline=None)
@given(width=st.integers(min_value=1, max_value=16),
       n=st.integers(min_value=1, max_value=500))
def test_property_size_is_minimal(width, n):
    """The packed stream never exceeds ceil(n*width/8) bytes."""
    arr = np.full(n, (1 << width) - 1, dtype=np.uint32)
    assert len(pack_bits(arr, width)) == (n * width + 7) // 8


@settings(max_examples=150, deadline=None)
@given(width=st.integers(min_value=1, max_value=32), data=st.data())
def test_property_matches_bit_matrix_reference(width, data):
    """The word-lane kernels produce the bit-matrix stream byte for byte."""
    lanes = _period(width)
    n = data.draw(st.one_of(
        st.sampled_from([0, 1, lanes - 1, lanes, lanes + 1]),
        st.integers(min_value=1, max_value=5).map(lambda k: k * lanes),
        st.integers(min_value=0, max_value=700),
    ))
    fill = data.draw(st.sampled_from(["zeros", "ones", "random"]))
    top = (1 << width) - 1
    if fill == "zeros":
        vals = np.zeros(n, dtype=np.uint64)
    elif fill == "ones":
        vals = np.full(n, top, dtype=np.uint64)
    else:
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        vals = np.random.default_rng(seed).integers(0, top, n,
                                                    dtype=np.uint64,
                                                    endpoint=True)
    packed = pack_bits(vals, width)
    assert packed == _ref_pack(vals, width)
    out = unpack_bits(packed, n, width)
    ref = _ref_unpack(packed, n, width)
    assert out.dtype == ref.dtype == np.uint32
    assert np.array_equal(out, ref)
