import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmlab import moments, regions
from swarmlab.core import row_blocks
from swarmlab.regions import RegionGrid

from regions_reference import ref_render_regions_svg, ref_write_regions_csv


class TestDeterministicRegion:
    def test_reference_inside(self):
        assert regions.in_deterministic_region(0.4, 1.5, 1.5)

    def test_omega_boundary_strict(self):
        assert not regions.in_deterministic_region(1.0, 1.0, 1.0)

    def test_phi_sum_boundary_strict(self):
        assert not regions.in_deterministic_region(0.0, 2.0, 2.0)


class TestLyapunovRegion:
    def test_reference_outside(self):
        assert not regions.in_lyapunov_region(0.4, 1.5, 1.5)

    def test_zero_omega_excluded(self):
        assert not regions.in_lyapunov_region(0.0, 0.1, 0.1)

    def test_small_parameters_inside(self):
        assert regions.in_lyapunov_region(0.1, 0.1, 0.1)


class TestMeanSquareRegion:
    def test_one_definition_in_moments(self):
        assert regions.in_mean_square_region is moments.in_mean_square_region

    def test_reference_inside(self):
        assert regions.in_mean_square_region(0.4, 1.5, 1.5)

    def test_large_inertia_outside(self):
        assert not regions.in_mean_square_region(0.99, 2.0, 2.0)

    def test_degenerate_zero_coefficients_outside(self):
        assert not regions.in_mean_square_region(0.5, 0.0, 0.0)

    def test_negative_omega_outside(self):
        assert not regions.in_mean_square_region(-0.1, 1.0, 1.0)


class TestNoisyFhtRegion:
    def test_reference_inside(self):
        assert regions.in_noisy_fht_region(0.4, 1.5, 1.5)

    def test_f_one_below_third_outside(self):
        # f(1) = 0.302667 < 1/3 here
        assert moments.f_one(0.4, 0.2, 0.2) < 1.0 / 3.0
        assert not regions.in_noisy_fht_region(0.4, 0.2, 0.2)

    def test_tiny_coefficients_decided_by_f_one(self):
        f1 = moments.f_one(0.4, 0.01, 0.01)
        assert regions.in_noisy_fht_region(0.4, 0.01, 0.01) == (f1 > 1.0 / 3.0)
        assert not regions.in_noisy_fht_region(0.4, 0.01, 0.01)


class TestPbestConvergenceRegion:
    def test_reference_inside(self):
        # f(1) = 0.645 > 2.25 * 1.4 / 6 = 0.525
        assert regions.in_pbest_convergence_region(0.4, 1.5, 1.5)

    def test_large_coefficients_outside(self):
        assert not regions.in_pbest_convergence_region(0.4, 2.5, 2.5)

    def test_moderate_point_decided_by_inequality(self):
        f1 = moments.f_one(0.0, 0.5, 0.5)
        bound = 0.25 * 1.0 / 6.0
        assert regions.in_pbest_convergence_region(0.0, 0.5, 0.5) == (f1 > bound)
        assert regions.in_pbest_convergence_region(0.0, 0.5, 0.5)


class TestScan:
    def test_single_point_matches_predicates(self):
        grid = regions.scan_regions((0.399, 0.401), (1.499, 1.501), resolution=2)
        w, p = float(grid.omega[0]), float(grid.phi[0])
        assert grid.deterministic[0, 0] == regions.in_deterministic_region(w, p, p)
        assert grid.lyapunov[0, 0] == regions.in_lyapunov_region(w, p, p)
        assert grid.mean_square[0, 0] == regions.in_mean_square_region(w, p, p)
        assert grid.noisy_fht[0, 0] == regions.in_noisy_fht_region(w, p, p)
        assert grid.pbest_convergence[0, 0] == regions.in_pbest_convergence_region(w, p, p)
        assert grid.f1[0, 0] == pytest.approx(moments.f_one(w, p, p))

    def test_half_cell_offset_avoids_boundaries(self):
        grid = regions.scan_regions(resolution=10)
        assert grid.omega[0] > 0.0 and grid.omega[-1] < 1.0
        assert grid.phi[0] > 0.0 and grid.phi[-1] < 4.0

    def test_nesting_on_grid(self):
        grid = regions.scan_regions(resolution=120)
        assert not np.any(grid.lyapunov & ~grid.mean_square)
        assert not np.any(grid.mean_square & ~grid.deterministic)
        assert not np.any(grid.noisy_fht & ~grid.mean_square)

    def test_mean_square_shrinks_at_high_inertia(self):
        grid = regions.scan_regions(resolution=200)
        ms_count_low = grid.mean_square[20].sum()
        ms_count_high = grid.mean_square[-1].sum()
        assert ms_count_high < ms_count_low
        assert grid.mean_square[-1, :1].sum() == grid.mean_square[-1].sum() or \
            grid.mean_square[-1].sum() <= 3  # survives only near phi -> 0

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            regions.scan_regions(resolution=1)
        with pytest.raises(ValueError):
            regions.scan_regions(omega_range=(1.0, 0.0))

    @pytest.mark.parametrize("omega_range, phi_range, resolution", [
        ((0.0, np.inf), (0.0, 4.0), 3),
        ((-np.inf, 1.0), (0.0, 4.0), 3),
        ((0.0, 1.0), (-1e308, 1e308), 3),          # finite bounds, infinite width
        ((0.0, 5e-324), (0.0, 4.0), 2),            # first centre rounds onto 0
        ((0.0, 1.0), (1.0, 1.0 + 2.0**-52), 3),    # centres collide
        ((0.0, 1.0), (0.0, np.nan), 3),
    ])
    def test_degenerate_window_rejected(self, omega_range, phi_range, resolution):
        with pytest.raises(ValueError):
            regions.scan_regions(omega_range, phi_range, resolution)

    def test_narrow_window_accepted(self):
        grid = regions.scan_regions((0.0, 1e-320), (1.0, 1.0 + 2.0**-40), 400)
        for axis, (lo, hi) in ((grid.omega, (0.0, 1e-320)), (grid.phi, (1.0, 1.0 + 2.0**-40))):
            assert lo < axis[0] and axis[-1] < hi
            assert np.all(np.diff(axis) > 0)


class TestArtifacts:
    def test_csv_schema_and_values(self, tmp_path):
        grid = regions.scan_regions(resolution=3)
        path = tmp_path / "regions.csv"
        regions.write_regions_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("omega,phi,f1,deterministic,lyapunov,mean_square,"
                            "noisy_fht,pbest_convergence")
        assert len(lines) == 1 + 9
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(grid.omega[0])
        assert set(first[3:]) <= {"0", "1"}

    def test_svg_renders_valid_xml(self, tmp_path):
        grid = regions.scan_regions(resolution=40)
        path = tmp_path / "regions.svg"
        regions.render_regions_svg(grid, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert len(list(root.iter())) > 10

    def test_boundary_between_ms_and_radius_within_one_cell(self):
        # the mean-square boundary of the scan coincides with the spectral
        # radius crossing within one grid cell
        grid = regions.scan_regions(resolution=80)
        OM, PH = np.meshgrid(grid.omega, grid.phi, indexing="ij")
        rho = moments.second_moment_radius_grid(OM, PH, PH)
        stable = rho < 1
        # restrict to cells with positive phi sum (all, by construction)
        disagree = grid.mean_square != stable
        assert disagree.mean() < 1e-3


_WINDOWS = {
    "default": ((0.0, 1.0), (0.0, 4.0)),
    "negative": ((-1.5, -0.2), (-3.0, 2.0)),
    "narrow": ((0.4, 0.402), (1.5, 1.502)),
}


def _hand_built_grid(seed=7, res_omega=40, res_phi=37):
    """A grid whose masks take all 32 flag codes, with empty, full and
    alternating columns, and whose f1 holds the awkward doubles."""
    rng = np.random.default_rng(seed)
    code = rng.integers(0, 32, size=(res_omega, res_phi))
    code[0] = 0                      # every layer's column empty
    code[1] = 31                     # every layer's column full
    # single-cell runs, with (res_phi odd) and without the first and last cells
    code[2] = np.where(np.arange(res_phi) % 2 == 0, 31, 0)
    code[3] = np.where(np.arange(res_phi) % 2 == 1, 31, 0)
    fields = ("deterministic", "lyapunov", "mean_square", "noisy_fht", "pbest_convergence")
    masks = {field: ((code >> k) & 1).astype(bool) for k, field in enumerate(fields)}
    f1 = rng.normal(size=(res_omega, res_phi)) * 10.0 ** rng.integers(-12, 12, size=(res_omega, res_phi))
    special = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, -3.5,
               np.inf, -np.inf, np.nan, 1 / 3, -2.0 / 3]
    f1.flat[:len(special)] = special
    f1[-1, -len(special):] = special
    omega = np.sort(rng.uniform(-2.0, 2.0, res_omega))
    phi = np.sort(rng.uniform(-1.0, 5.0, res_phi))
    return RegionGrid(omega=omega, phi=phi, f1=f1, **masks), code


class TestWritersMatchReference:
    """The vectorised writers against the per-cell reference, byte for byte."""

    @staticmethod
    def _assert_same_bytes(grid, tmp_path):
        regions.write_regions_csv(grid, tmp_path / "new.csv")
        ref_write_regions_csv(grid, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        regions.render_regions_svg(grid, tmp_path / "new.svg")
        ref_render_regions_svg(grid, tmp_path / "ref.svg")
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()

    @pytest.mark.parametrize("window", sorted(_WINDOWS))
    @pytest.mark.parametrize("resolution", [2, 3, 57, 400])
    def test_scanned_grid(self, tmp_path, window, resolution):
        grid = regions.scan_regions(*_WINDOWS[window], resolution)
        self._assert_same_bytes(grid, tmp_path)

    def test_hand_built_grid(self, tmp_path):
        grid, code = _hand_built_grid()
        assert set(np.unique(code)) == set(range(32))
        for mask in (grid.deterministic, grid.pbest_convergence):
            assert mask[:, 0].any() and mask[:, -1].any()       # runs touch both ends
            assert not mask[0].any() and mask[1].all()          # empty and full columns
        f1 = grid.f1.ravel()
        assert np.isnan(f1).any() and np.isposinf(f1).any() and np.isneginf(f1).any()
        assert np.any((f1 == 0) & np.signbit(f1))               # -0.0
        assert np.any((f1 != 0) & (np.abs(f1) < 2.2250738585072014e-308))   # subnormal
        self._assert_same_bytes(grid, tmp_path)


# 333 x 333 = 110 889 cells fill several of the scan's row blocks, the last
# one partial; the second window holds omega = -1 exactly
_BLOCK_WINDOWS = [((0.0, 1.0), (0.0, 4.0)), ((-1.5, 1.5), (-1.0, 5.0))]


class TestScanBlocks:
    @pytest.mark.parametrize("window", _BLOCK_WINDOWS)
    def test_fields_equal_predicates_on_the_whole_meshgrid(self, window):
        grid = regions.scan_regions(*window, 333)
        assert len(row_blocks(333, 333)) > 1
        OM, PH = np.meshgrid(grid.omega, grid.phi, indexing="ij")
        want = {
            "f1": moments.f_one(OM, PH, PH),
            "deterministic": regions.in_deterministic_region(OM, PH, PH),
            "lyapunov": regions.in_lyapunov_region(OM, PH, PH),
            "mean_square": regions.in_mean_square_region(OM, PH, PH),
            "noisy_fht": regions.in_noisy_fht_region(OM, PH, PH),
            "pbest_convergence": regions.in_pbest_convergence_region(OM, PH, PH),
        }
        for field, value in want.items():
            got = getattr(grid, field)
            assert got.dtype == value.dtype and got.shape == value.shape, field
            assert got.tobytes() == value.tobytes(), field

    def test_working_set_of_the_default_scan(self):
        # 11.1 MB when every predicate ran on the whole 400 x 400 meshgrid;
        # a full-grid double temporary is 1.28 MB
        regions.scan_regions(resolution=400)
        tracemalloc.start()
        try:
            regions.scan_regions(resolution=400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestLyapunovAtOmegaMinusOne:
    """The bound 2 (1 - 2|omega| + omega^2) / (1 + omega) is 0/0 at omega = -1;
    tier-1 turns a RuntimeWarning into an error."""

    def test_predicate_is_false_without_a_warning(self):
        assert not regions.in_lyapunov_region(-1.0, 0.5, 0.5)
        assert not regions.in_lyapunov_region(np.array([-1.0, -0.5]), 0.0, 0.0)[0]

    def test_scan_through_omega_minus_one(self):
        grid = regions.scan_regions((-1.5, 1.5), (0.0, 4.0), 333)
        row = np.flatnonzero(grid.omega == -1.0)
        assert row.size == 1
        assert not grid.lyapunov[row].any()
        assert grid.lyapunov.any()


class TestOverflowingWindows:
    """A window `_cell_centres` accepts scans without a numpy warning, and one
    where some cell's f(1) is not finite is rejected."""

    @pytest.mark.parametrize("omega_range, phi_range", [
        ((0.0, 1.0), (0.0, 1e200)),    # phi * phi overflows; f(1) is NaN
        ((0.0, 1e200), (0.0, 4.0)),    # omega**2 overflows; f(1) is -inf
    ], ids=["phi-1e200", "omega-1e200"])
    def test_a_window_whose_f1_overflows_is_rejected(self, omega_range, phi_range):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"f\(1\) overflows"):
                regions.scan_regions(omega_range, phi_range, 3)

    def test_a_finite_f1_with_an_overflowing_lyapunov_bound_is_accepted(self):
        # omega**2 stays finite (1.56e308 at the top cell), but twice the
        # Lyapunov bound's numerator overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = regions.scan_regions((0.0, 1.5e154), (0.0, 1e-10), 3)
        assert np.isfinite(grid.f1).all()
        assert not grid.lyapunov.any()
        assert np.array_equal(grid.f1, moments.f_one(grid.omega[:, None], grid.phi, grid.phi))

    def test_a_window_too_wide_for_its_centres_is_rejected(self):
        # the width 1e308 is finite, but 2.5 times it is not; before, numpy
        # warned and the window was called too narrow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in ((0.0, 1e308), (np.float64(0.0), np.float64(1e308))):
                with pytest.raises(ValueError, match="too wide"):
                    regions.scan_regions((0.0, 1.0), (lo, hi), 3)


_PREDICATES = {
    "deterministic": regions.in_deterministic_region,
    "lyapunov": regions.in_lyapunov_region,
    "mean_square": regions.in_mean_square_region,
    "noisy_fht": regions.in_noisy_fht_region,
    "pbest_convergence": regions.in_pbest_convergence_region,
}
_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestQuietOnEveryFiniteInput:
    """Every public predicate answers any finite input without a numpy
    warning, on Python floats and on arrays alike."""

    @given(st.lists(st.tuples(_finite, _finite, _finite), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    @example([(1e200, 1.0, 1.0)])              # omega**2 raised OverflowError
    @example([(0.5, 1.2e154, 1.2e154)])        # the personal-best bound overflows
    @example([(1e200, 1.0, 1.0), (0.5, 1e308, 1e308), (-1.0, 0.5, 0.5)])
    def test_no_warning_and_false_where_f1_is_not_finite(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = [(moments.f_one(*p), {k: fn(*p) for k, fn in _PREDICATES.items()})
                      for p in points]
            W, P1, P2 = (np.array(axis) for axis in zip(*points))
            flags = {k: fn(W, P1, P2) for k, fn in _PREDICATES.items()}
        with np.errstate(over="ignore", invalid="ignore"):
            f1 = moments.f_one(W, P1, P2)
        # the Lyapunov rule reads no f(1); see the test below
        for k in ("deterministic", "mean_square", "noisy_fht", "pbest_convergence"):
            assert flags[k].shape == W.shape
            assert not np.any(flags[k] & ~np.isfinite(f1)), k
            for f1_point, point_flags in scalar:
                assert np.isfinite(f1_point) or not point_flags[k], k

    def test_lyapunov_rule_holds_where_f1_overflows(self):
        # phi1 + phi2 = 0 is below the bound 1/3 at omega = 0.5, while each
        # square in f(1) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(moments.f_one(0.5, 1e200, -1e200))
            assert regions.in_lyapunov_region(0.5, 1e200, -1e200)
