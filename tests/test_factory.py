import hashlib

import numpy as np
import pytest
from conftest import point_of, spectrum_of
from hypothesis import given, settings
from hypothesis import strategies as st

from matstrata.factory import (
    DEFAULT_MIN_GAP,
    JORDAN_SPECTRUM_GAP,
    SPECTRUM_KINDS,
    _uniforms,
    _value_slots,
    base_points,
    derive_seed,
    spectra,
)
from matstrata.profiles import (
    JordanStructure,
    MultiplicityProfile,
    SingularProfile,
    jordan_structures,
    multiplicity_profiles,
    singular_profiles,
)

JITTER = 2.5
MASK = (1 << 64) - 1


def splitmix(x):
    """SplitMix64's output for state ``x`` (Steele, Lea and Flood 2014), in
    Python integers: the increment, then the two xor-shift-multiply rounds
    and a last xor-shift."""
    z = (x + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_key(*components):
    """``derive_seed`` in Python integers: each component xored into the
    state, from 0, then mixed."""
    state = 0
    for component in components:
        state = splitmix(state ^ component)
    return state


def keyed_draw(key, count):
    """One profile's uniforms (2, count) in Python arithmetic: uniform j of
    row r is the top 53 bits of the key of (key, r, j), times 2**-53."""
    return np.array(
        [[(reference_key(key, r, j) >> 11) * 2.0**-53 for j in range(count)] for r in range(2)]
    ).reshape(2, count)


def reference_spectrum(count, kind, seed, min_gap=DEFAULT_MIN_GAP):
    """The per-profile spectrum construction that the chunk's replaced: one
    profile's keyed draw, then the sort and the kind's arithmetic on that
    profile alone."""
    draw = keyed_draw(seed, count)
    jitter, stair = np.sort(draw[0]), np.arange(count)
    if kind == "unimodular":
        step = min(2 * np.arcsin(min_gap / 2), 2 * np.pi / max(count, 1))
        return np.exp(1j * (jitter * (2 * np.pi - count * step) + step * stair))
    line = jitter * JITTER + min_gap * stair
    if kind == "positive-decreasing":
        return (min_gap + line)[::-1]
    line -= (JITTER + min_gap * (count - 1)) / 2
    if kind == "real":
        return line
    return line + 1j * (draw[1] - 0.5) * JITTER


def reference_matrices(data, values):
    """The per-profile construction that the chunk's replaced: value i
    repeated down the diagonal, and a Jordan structure's superdiagonal
    ones, for one profile's (count,) values."""
    jordan = isinstance(data, JordanStructure)
    parts = data.multiplicities if jordan else data.parts
    diag = np.repeat(values, parts, axis=-1)
    out = np.zeros((*values.shape[:-1], data.n, getattr(data, "m", data.n)), dtype=values.dtype)
    slots = np.arange(diag.shape[-1])
    out[..., slots, slots] = diag
    if jordan:
        sizes = [k for part in data.blocks for k in part]
        block = np.repeat(np.arange(len(sizes)), sizes)
        out[..., np.arange(data.n - 1), np.arange(1, data.n)] = block[:-1] == block[1:]
    return out


class TestChunkBasePoints:
    """A chunk's spectra and base points, built as whole-chunk arrays,
    against the per-profile construction they replaced."""

    @pytest.mark.parametrize("per_chunk", (1, 3, 5))
    @pytest.mark.parametrize("kind", SPECTRUM_KINDS)
    def test_chunk_equals_per_profile_construction(self, kind, per_chunk):
        # every profile with n <= 8 (singular n, m <= 8, for the real
        # kinds), in chunks of ``per_chunk`` consecutive profiles of one
        # shape, bit for bit and of the same dtype
        sweeps = [list(multiplicity_profiles(n)) for n in range(1, 9)]
        sweeps += [list(jordan_structures(n)) for n in range(1, 9)]
        if kind in ("real", "positive-decreasing"):
            sweeps += [list(singular_profiles(n, m)) for n in range(1, 9) for m in range(1, 9)]
        sweeps = [run[i : i + per_chunk] for run in sweeps for i in range(0, len(run), per_chunk)]
        for profiles in sweeps:
            jordan = isinstance(profiles[0], JordanStructure)
            gap = JORDAN_SPECTRUM_GAP if jordan else DEFAULT_MIN_GAP
            counts = [
                data.num_eigenvalues if jordan else len(data.parts) for data in profiles
            ]
            seeds = [derive_seed(41, per_chunk, idx) for idx in range(len(profiles))]
            values = spectra(kind, counts, seeds, gap)
            chunk = base_points(profiles, values, _value_slots(profiles))
            for data, stack, row, count, seed in zip(profiles, chunk, values, counts, seeds):
                expected = reference_spectrum(count, kind, seed, gap)
                assert row[:count].tobytes() == expected.tobytes(), data
                matrices = reference_matrices(data, expected)
                assert stack.dtype == matrices.dtype, data
                assert stack.tobytes() == matrices.tobytes(), data


class TestBlockDiagonalLambda:
    def test_21(self):
        lam = point_of(MultiplicityProfile.of(2, 1), (0.0, 1.0))
        np.testing.assert_array_equal(lam, np.diag([0.0, 0.0, 1.0]))

    def test_simple(self):
        lam = point_of(MultiplicityProfile.of(1, 1, 1), (1.0, 2.0, 3.0))
        np.testing.assert_array_equal(lam, np.diag([1.0, 2.0, 3.0]))

    def test_scalar(self):
        lam = point_of(MultiplicityProfile.of(3), (5.0,))
        np.testing.assert_array_equal(lam, 5.0 * np.eye(3))

    def test_count_mismatch(self):
        # one value for two, or a row of one-value columns, is no spectrum
        profile = MultiplicityProfile.of(2, 1)
        for values in (np.ones((1, 1)), np.ones((1, 3, 1))):
            with pytest.raises(ValueError, match="values"):
                base_points([profile], values, _value_slots([profile]))


class TestMakeJordan:
    def test_nilpotent_21(self):
        # real values give a real Jordan matrix: the values' dtype is kept
        js = JordanStructure.of((2, 1))
        out = point_of(js, (0.0,))
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, expected)

    def test_all_blocks_size_one_is_diagonal(self):
        js = JordanStructure.of((1, 1), (1,))
        values = (2.0, -1.0)
        out = point_of(js, values)
        profile = MultiplicityProfile.of(2, 1)
        np.testing.assert_array_equal(out, point_of(profile, values))

    def test_single_block(self):
        # complex values give a complex Jordan matrix
        lam = 1.5 - 0.5j
        out = point_of(JordanStructure.of((4,)), (lam,))
        assert out.dtype == np.complex128
        np.testing.assert_array_equal(np.diag(out), np.full(4, lam))
        np.testing.assert_array_equal(np.diag(out, 1), np.ones(3))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_characteristic_polynomial(self, n):
        # eigenvalues of the (triangular) Jordan matrix cluster to the
        # sampled values with the right multiplicities
        from matstrata.profiles import jordan_structures

        for idx, js in enumerate(jordan_structures(n)):
            values = spectrum_of(js.num_eigenvalues, "complex", derive_seed(n, idx))
            out = point_of(js, values)
            eigs = np.linalg.eigvals(out)
            for lam, mult in zip(values, js.multiplicities):
                assert np.sum(np.abs(eigs - lam) < 1e-6) == mult

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_block_construction(self, n):
        from matstrata.profiles import jordan_structures

        for idx, js in enumerate(jordan_structures(n)):
            values = spectrum_of(js.num_eigenvalues, "complex", derive_seed(11, n, idx))
            expected = np.zeros((n, n), dtype=complex)
            pos = 0
            for lam, sizes in zip(values, js.blocks):
                for size in sizes:
                    block = lam * np.eye(size, dtype=complex)
                    block += np.diag(np.ones(size - 1), 1)
                    expected[pos : pos + size, pos : pos + size] = block
                    pos += size
            out = point_of(js, values)
            assert out.dtype == expected.dtype and np.all(out == expected), js


class TestMakeSigma:
    def test_tall(self):
        sp = SingularProfile(3, 2, (2,))
        out = point_of(sp, (1.0,))
        np.testing.assert_array_equal(out, np.array([[1.0, 0], [0, 1.0], [0, 0]]))

    def test_rank_zero(self):
        sp = SingularProfile(2, 3, ())
        out = point_of(sp, ())
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_square_simple(self):
        sp = SingularProfile(2, 2, (1, 1))
        out = point_of(sp, (2.0, 1.0))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.diag([2.0, 1.0]))


class TestSampleSpectrum:
    def test_singleton(self):
        assert spectrum_of(1, "real", 0).shape == (1,)

    def test_positive_decreasing(self):
        vals = spectrum_of(3, "positive-decreasing", 5)
        assert all(vals[i] > vals[i + 1] for i in range(2))
        assert all(v > 0 for v in vals)

    def test_unimodular_gap(self):
        vals = spectrum_of(2, "unimodular", 7)
        assert abs(vals[0] - vals[1]) >= 0.1
        assert all(abs(abs(v) - 1) < 1e-12 for v in vals)

    def test_determinism(self):
        a = spectrum_of(4, "complex", 42)
        b = spectrum_of(4, "complex", 42)
        assert np.array_equal(a, b)

    def test_min_gap_respected(self):
        vals = spectrum_of(6, "complex", 3, min_gap=0.25)
        for i in range(6):
            for j in range(i + 1, 6):
                assert abs(vals[i] - vals[j]) >= 0.25

    @pytest.mark.parametrize("kind", SPECTRUM_KINDS)
    def test_dtype_per_kind(self, kind):
        # count 0 gives an empty row of the kind's dtype: rank 0 needs no
        # special case
        dtype = np.float64 if kind in ("real", "positive-decreasing") else np.complex128
        for count in (0, 1, 4):
            values = spectrum_of(count, kind, count)
            assert values.dtype == dtype and values.shape == (count,), count

    @pytest.mark.parametrize("profiles", (1, 3))
    @pytest.mark.parametrize("gap", (0.1, 0.5))
    @pytest.mark.parametrize("kind", SPECTRUM_KINDS)
    def test_constructed_separation(self, kind, gap, profiles):
        """Every pair of a row is at least ``gap`` apart in float64, the
        test rejection sampling applied, for every count up to 64 and every
        seed tried, in chunks of one and of three profiles.  Unimodular rows
        only fit ``2 pi / step`` values with that chord; past that capacity
        they need only be distinct."""
        capacity = int(2 * np.pi / (2 * np.arcsin(gap / 2)))
        for count in range(65):
            separation = 0.0 if kind == "unimodular" and count > capacity else gap
            upper = np.triu_indices(count, 1)
            for seed in range(20):
                seeds = [seed + 1000 * p for p in range(profiles)]
                rows = spectra(kind, [count] * profiles, seeds, gap)
                assert rows.shape == (profiles, count), (count, seed)
                for row in rows:
                    pairs = np.abs(row[:, None] - row[None, :])[upper]
                    if separation:
                        assert np.all(pairs >= separation), (count, seed)
                    else:
                        assert np.all(pairs > 0), (count, seed)
                    if kind == "positive-decreasing":
                        assert np.all(np.diff(row) < 0) and np.all(row >= gap), (count, seed)
                    elif kind == "unimodular":
                        assert np.all(np.abs(np.abs(row) - 1) < 1e-12), (count, seed)

    @pytest.mark.parametrize("kind", SPECTRUM_KINDS)
    def test_rows_do_not_depend_on_the_stack_size(self, kind):
        # one draw per profile: a profile's row is the same in a chunk of
        # one as beside wider and narrower rows, only padding after it
        for count in range(65):
            for seed in range(20):
                counts, seeds = [count + 3, count, max(count - 2, 0)], [seed + 7, seed, seed + 9]
                chunk = spectra(kind, counts, seeds)
                alone = spectrum_of(count, kind, seed)
                assert np.array_equal(chunk[1, :count], alone), (count, seed)

    def test_sampled_spectra_pinned(self):
        """The values themselves, which the report digests cannot see: at
        the verify path's gap ratios every pinned digest holds however the
        draws are taken."""
        digest = hashlib.sha256()
        for kind, gap in (
            ("complex", 0.1),
            ("real", 0.1),
            ("unimodular", 0.1),
            ("positive-decreasing", 0.1),
            ("complex", 0.5),
        ):
            for count in range(1, 9):
                for seed in range(20):
                    values = spectrum_of(count, kind, seed, gap)
                    digest.update(np.asarray(values, dtype=complex).tobytes())
        assert digest.hexdigest() == (
            "9b7f4855c4874541a28f59da9cf0ded37f0c3de48e00f97bb5d711f1de7eccf1"
        )


def gaussian(rng, order, complex_entries):
    sample = rng.standard_normal((order, order))
    if complex_entries:
        sample = (sample + 1j * rng.standard_normal((order, order))) / np.sqrt(2)
    return sample


def orthonormal(rng, order, complex_entries):
    """Orthogonal (or unitary) factor of the QR decomposition of a seeded
    Gaussian sample."""
    return np.linalg.qr(gaussian(rng, order, complex_entries))[0]


class TestAssembledMatrices:
    """Conjugating a factory matrix must preserve its spectral data."""

    def test_similarity_preserves_eigenvalues(self):
        profile = MultiplicityProfile.of(3, 2, 1)
        values = spectrum_of(3, "complex", 21)
        lam = point_of(profile, values)
        t = gaussian(np.random.default_rng(22), 6, True)
        assert np.linalg.cond(t) <= 1e6
        a = t @ lam @ np.linalg.inv(t)
        eigs = np.linalg.eigvals(a)
        for value, mult in zip(values, profile.parts):
            close = np.abs(eigs - value) < 1e-8 * max(1.0, abs(value))
            assert np.sum(close) == mult

    def test_svd_preserves_singular_values(self):
        sp = SingularProfile(5, 4, (2, 1))
        values = spectrum_of(2, "positive-decreasing", 31)
        sigma = point_of(sp, values)
        rng = np.random.default_rng(32)
        u, v = orthonormal(rng, 5, False), orthonormal(rng, 4, False)
        a = u @ sigma @ v.T
        svals = np.linalg.svd(a, compute_uv=False)
        for value, mult in zip(values, sp.parts):
            assert np.sum(np.abs(svals - value) < 1e-8 * value) == mult
        assert np.sum(svals < 1e-8 * svals[0]) == min(5, 4) - sp.rank

    def test_unitary_conjugation_preserves_eigenvalues(self):
        profile = MultiplicityProfile.of(2, 2)
        values = spectrum_of(2, "unimodular", 41)
        lam = point_of(profile, values)
        u = orthonormal(np.random.default_rng(42), 4, True)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
        a = u @ lam @ u.conj().T
        eigs = np.linalg.eigvals(a)
        for value, mult in zip(values, profile.parts):
            assert np.sum(np.abs(eigs - value) < 1e-8) == mult


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_splitmix_known_answers(self):
        # SplitMix64 seeded with 0 gives e220a8397b1dcdaf, then 6e789e6aa1b965f4:
        # the mixes of 0 and of one increment
        assert derive_seed(0) == splitmix(0) == 0xE220A8397B1DCDAF
        assert splitmix(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4

    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
        st.lists(st.integers(0, 2**64 - 1), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_array_component_equals_scalar_calls(self, head, last):
        keys = derive_seed(*head, np.array(last, dtype=np.uint64))
        assert keys.dtype == np.uint64 and keys.shape == (len(last),)
        scalar = [derive_seed(*head, k) for k in last]
        assert keys.tolist() == scalar == [reference_key(*head, k) for k in last]
        assert all(isinstance(k, int) for k in scalar)

    def test_run_indices_as_one_array(self):
        # the sweep's call: one derive_seed per run, over its indices
        seed, scope, start = 2**64 - 1, 4, 17
        keys = derive_seed(seed, scope, np.arange(start, start + 9))
        assert keys.tolist() == [derive_seed(seed, scope, start + k) for k in range(9)]

    @pytest.mark.parametrize("bad", (-1, 2**64, 2**70))
    def test_components_outside_the_key_range(self, bad):
        for components in ((bad,), (0, bad), (bad, np.arange(3))):
            with pytest.raises(ValueError, match="2\\*\\*64"):
                derive_seed(*components)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            derive_seed(0, np.array([0, -1]))
        for kind in SPECTRUM_KINDS:
            with pytest.raises(ValueError, match="2\\*\\*64"):
                spectra(kind, [1, 2], [0, bad])
            with pytest.raises(ValueError, match="2\\*\\*64"):
                spectrum_of(2, kind, bad)
        assert derive_seed(2**64 - 1) == reference_key(2**64 - 1)


class TestKeyedDraw:
    """The chunk's uniforms, one keyed draw for the whole chunk."""

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=6), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_draws_in_the_unit_interval(self, keys, width):
        # every uniform is a multiple of 2**-53 in [0, 1), each profile's
        # the SplitMix64 draw of its own key, bit for bit
        draw = _uniforms(keys, width)
        assert draw.shape == (len(keys), 2, width) and draw.dtype == np.float64
        assert np.all((0 <= draw) & (draw < 1))
        assert np.all(draw * 2.0**53 == np.floor(draw * 2.0**53))
        for row, key in zip(draw, keys):
            assert row.tobytes() == keyed_draw(key, width).tobytes(), key

    @given(st.integers(0, 2**64 - 1), st.integers(0, 40), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_a_row_is_the_same_in_any_chunk(self, key, count, width):
        # beside ``width`` other profiles of every count up to 40, before
        # and after it, a profile's row is its row alone, bit for bit
        others = [(key + 1 + k) % 2**64 for k in range(width)]
        for kind in SPECTRUM_KINDS:
            alone = spectrum_of(count, kind, key)
            keys = [*others, key, *others]
            counts = [(7 * k) % 41 for k in range(width)]
            chunk = spectra(kind, [*counts, count, *counts], keys)
            assert chunk[width, :count].tobytes() == alone.tobytes(), kind
