"""Tests for the OTIS(p, q) architecture model (Section 4.1, Figure 6)."""

import pytest

from repro.otis.architecture import OTISArchitecture


class TestWiring:
    def test_defining_rule(self):
        otis = OTISArchitecture(3, 6)
        assert otis.receiver_of(0, 0) == (5, 2)
        assert otis.receiver_of(2, 5) == (0, 0)
        assert otis.receiver_of(1, 3) == (2, 1)

    def test_inverse_wiring(self):
        otis = OTISArchitecture(4, 8)
        for i in range(4):
            for j in range(8):
                a, b = otis.receiver_of(i, j)
                assert otis.transmitter_of(a, b) == (i, j)

    def test_connection_array_is_permutation(self):
        for p, q in [(3, 6), (4, 8), (2, 256), (5, 7), (1, 9)]:
            otis = OTISArchitecture(p, q)
            wiring = otis.connection_array()
            assert sorted(wiring.tolist()) == list(range(p * q))

    def test_connection_array_matches_scalar_rule(self):
        otis = OTISArchitecture(3, 5)
        wiring = otis.connection_array()
        for i in range(3):
            for j in range(5):
                a, b = otis.receiver_of(i, j)
                assert wiring[otis.transmitter_index(i, j)] == otis.receiver_index(a, b)

    def test_transpose_property(self):
        assert OTISArchitecture(3, 6).is_transpose()
        assert OTISArchitecture(4, 4).is_transpose()
        assert OTISArchitecture(1, 7).is_transpose()

    def test_range_validation(self):
        otis = OTISArchitecture(3, 6)
        with pytest.raises(ValueError):
            otis.receiver_of(3, 0)
        with pytest.raises(ValueError):
            otis.receiver_of(0, 6)
        with pytest.raises(ValueError):
            otis.transmitter_of(6, 0)
        with pytest.raises(ValueError):
            OTISArchitecture(0, 5)


class TestGeometry:
    def test_counts_figure_6(self):
        # OTIS(3, 6): 18 transmitters, 18 receivers, 9 lenses.
        otis = OTISArchitecture(3, 6)
        assert otis.num_transmitters == 18
        assert otis.num_receivers == 18
        assert otis.num_lenses == 9
        assert otis.transmitter_lens_count == 3
        assert otis.receiver_lens_count == 6

    def test_index_roundtrips(self):
        otis = OTISArchitecture(4, 7)
        for t in range(otis.num_transmitters):
            i, j = otis.transmitter_coords(t)
            assert otis.transmitter_index(i, j) == t
        for r in range(otis.num_receivers):
            a, b = otis.receiver_coords(r)
            assert otis.receiver_index(a, b) == r
        with pytest.raises(ValueError):
            otis.transmitter_coords(28)

    def test_optical_paths(self):
        otis = OTISArchitecture(3, 6)
        path = otis.optical_path(1, 2)
        assert path.transmitter == (1, 2)
        assert path.receiver == (3, 1)
        assert path.transmitter_lens == 1
        assert path.receiver_lens == 3
        all_paths = otis.all_optical_paths()
        assert len(all_paths) == 18
        # every transmitter-side lens carries exactly q beams
        from collections import Counter

        counts = Counter(p.transmitter_lens for p in all_paths)
        assert all(count == 6 for count in counts.values())
        counts_rx = Counter(p.receiver_lens for p in all_paths)
        assert all(count == 3 for count in counts_rx.values())

    def test_repr(self):
        assert "OTISArchitecture(p=3, q=6)" in repr(OTISArchitecture(3, 6))
