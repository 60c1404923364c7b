"""Grid/plane querying of a fitted field and the classical NN baseline."""

import numpy as np
import pytest

from nisf.errors import ContractError, DimensionError
from nisf.inference import evaluate_points
from nisf.model import FieldModel, ModelConfig
from nisf.phantom import generate_subject
from nisf.sampling import (GridSpec, PlaneSpec, nearest_frame, nearest_neighbor_resample,
                           nn_lookup, sample_grid, sample_plane)
from nisf.training import make_batch
from nisf.volume import VolumeSample, normalize_index
from oracles import brute_force_nn

TINY = ModelConfig(num_res_layers=2, hidden_width=16, latent_dim=8)


def _model(seed=0):
    return FieldModel.init(TINY, seed=seed)


def _h(seed=1):
    return np.random.default_rng(seed).normal(scale=0.1, size=TINY.latent_dim)


# -- grid specs -----------------------------------------------------------------


def test_grid_spec_contracts():
    with pytest.raises(ContractError):
        GridSpec(counts=(2, 2, 2), ranges=((0, 1),) * 3)
    with pytest.raises(ContractError):
        GridSpec(counts=(0, 2, 2, 2), ranges=((0, 1),) * 4)
    with pytest.raises(ContractError):
        GridSpec(counts=(2, 2, 2, 2), ranges=((0.8, 0.2), (0, 1), (0, 1), (0, 1)))


def test_matching_volume_reproduces_voxel_lattice():
    _, vol = generate_subject(3, grid_shape=(5, 4, 3, 2))
    spec = GridSpec.matching_volume(vol)
    coords = spec.coords()
    assert coords.shape == (5, 4, 3, 2, 4)
    batch = make_batch(vol, 1)
    assert np.array_equal(coords[:, :, :, 1, :].reshape(-1, 4), batch.coords)


def _flat_volume(nz=1, nt=5):
    rng = np.random.default_rng(40)
    intensity = rng.uniform(size=(4, 4, nz, nt))
    labels = rng.integers(0, 4, size=(4, 4, nz, nt)).astype(np.uint8)
    return VolumeSample("flat", intensity, labels, (2.0, 2.0, 10.0))


def test_matching_volume_single_frame_and_degenerate_axes():
    vol = _flat_volume()
    spec = GridSpec.matching_volume(vol, t_index=2)
    coords = spec.coords()
    assert coords.shape == (4, 4, 1, 1, 4)
    assert np.all(coords[..., 2] == 0.5)           # z extent 1 -> center
    assert np.all(coords[..., 3] == normalize_index(2, 5))


def test_sample_grid_shapes_and_extrapolation_flags():
    spec = GridSpec(counts=(3, 3, 2, 1), ranges=((-0.2, 1.0), (0.0, 1.0),
                                                 (0.0, 1.0), (0.5, 0.5)))
    out = sample_grid(_model(), _h(), spec)
    assert out.intensity.shape == (3, 3, 2, 1)
    assert out.probs.shape == (3, 3, 2, 1, TINY.num_classes)
    assert out.intensity.min() >= 0.0 and out.intensity.max() <= 1.0


def test_grid_refinement_reproduces_coarse_samples_bitwise():
    """The field is resolution-free: refined grids contain the coarse
    lattice points and return identical values there."""
    model, h = _model(), _h()
    coarse_spec = GridSpec(counts=(4, 3, 2, 1),
                           ranges=((0, 1), (0, 1), (0, 1), (0.25, 0.25)))
    r = 3
    fine_spec = GridSpec(counts=(r * 3 + 1, r * 2 + 1, r * 1 + 1, 1),
                         ranges=coarse_spec.ranges)
    coarse = sample_grid(model, h, coarse_spec)
    fine = sample_grid(model, h, fine_spec)
    assert np.array_equal(fine.intensity[::r, ::r, ::r], coarse.intensity)
    assert np.array_equal(fine.labels[::r, ::r, ::r], coarse.labels)


# -- plane specs -----------------------------------------------------------------


def _plane(**kw):
    base = dict(origin_norm=(0.5, 0.5, 0.5), dir1_mm=(1.0, 0.0, 0.0),
                dir2_mm=(0.0, 1.0, 0.0), extent_mm=(10.0, 4.0), counts=(3, 2),
                t=0.0, span_mm=(40.0, 40.0, 20.0))
    base.update(kw)
    return PlaneSpec(**base)


def test_plane_spec_contracts():
    with pytest.raises(ContractError, match="unit"):
        _plane(dir1_mm=(2.0, 0.0, 0.0))
    with pytest.raises(ContractError, match="orthogonal"):
        _plane(dir2_mm=(1.0, 0.0, 0.0))
    with pytest.raises(ContractError):
        _plane(extent_mm=(0.0, 4.0))
    with pytest.raises(ContractError):
        _plane(counts=(0, 2))
    with pytest.raises(ContractError):
        _plane(span_mm=(-1.0, 40.0, 20.0))
    for bad in ({"t": float("nan")}, {"span_mm": (40.0, 40.0, float("nan"))}):
        with pytest.raises(ContractError, match="finite"):
            _plane(**bad)


def test_plane_pixel_positions_hand_oracle():
    # center (20,20,10); a in {-5,0,5}, b in {-2,+2}
    mm = _plane().pixel_mm()
    assert mm.shape == (3, 2, 3)
    assert mm[0, 0].tolist() == [15.0, 18.0, 10.0]
    assert mm[1, 0].tolist() == [20.0, 18.0, 10.0]
    assert mm[2, 1].tolist() == [25.0, 22.0, 10.0]


def test_plane_pixel_norm_divides_by_span():
    norm = _plane().pixel_norm()
    assert norm[0, 0].tolist() == [15.0 / 40.0, 18.0 / 40.0, 0.5]
    degenerate = _plane(span_mm=(40.0, 40.0, 0.0)).pixel_norm()
    assert np.all(degenerate[..., 2] == 0.5)


def test_plane_45_degree_tilt_oracle():
    s = 1.0 / np.sqrt(2.0)
    spec = _plane(dir1_mm=(s, 0.0, s), extent_mm=(np.sqrt(2.0) * 8, 4.0))
    mm = spec.pixel_mm()
    # a = +/- sqrt(2)*4 along (s,0,s): offsets (+/-4, 0, +/-4)
    np.testing.assert_allclose(mm[0, 0], [16.0, 18.0, 6.0], atol=1e-12)
    np.testing.assert_allclose(mm[2, 1], [24.0, 22.0, 14.0], atol=1e-12)


def test_axis_aligned_plane_matches_grid_sampling_bitwise():
    """A dyadic axis-aligned plane hits exact grid-lattice coordinates, so
    plane sampling and grid sampling must agree to the bit."""
    model, h = _model(), _h()
    plane = PlaneSpec(origin_norm=(0.5, 0.5, 0.5), dir1_mm=(1.0, 0.0, 0.0),
                      dir2_mm=(0.0, 1.0, 0.0), extent_mm=(40.0, 40.0),
                      counts=(5, 5), t=0.25, span_mm=(40.0, 40.0, 20.0))
    grid = GridSpec(counts=(5, 5, 1, 1),
                    ranges=((0.0, 1.0), (0.0, 1.0), (0.5, 0.5), (0.25, 0.25)))
    p = sample_plane(model, h, plane)
    g = sample_grid(model, h, grid)
    assert np.array_equal(p.coords_norm[..., 0], grid.coords()[:, :, 0, 0, 0])
    assert np.array_equal(p.intensity, g.intensity[:, :, 0, 0])
    assert np.array_equal(p.labels, g.labels[:, :, 0, 0])
    assert not p.out_of_volume.any()


def test_plane_outside_volume_is_flagged_not_rejected():
    spec = _plane(origin_norm=(1.5, 0.5, 0.5))
    out = sample_plane(_model(), _h(), spec)
    assert out.out_of_volume.all()
    assert np.isfinite(out.intensity).all()


def test_sample_plane_matches_point_evaluation():
    model, h = _model(), _h()
    spec = _plane(counts=(4, 3), t=0.75)
    out = sample_plane(model, h, spec)
    flat = np.concatenate([spec.pixel_norm().reshape(-1, 3),
                           np.full((12, 1), 0.75)], axis=1)
    labels, probs, intensity = evaluate_points(model, h, flat)
    assert np.array_equal(out.intensity.reshape(-1), intensity)
    assert np.array_equal(out.labels.reshape(-1), labels)
    assert np.array_equal(out.probs.reshape(-1, TINY.num_classes), probs)


# -- nearest neighbor --------------------------------------------------------------


def test_nn_lookup_matches_brute_force_on_anisotropic_volume():
    _, vol = generate_subject(6, grid_shape=(5, 4, 3, 2), spacing=(2.0, 3.0, 10.0))
    rng = np.random.default_rng(8)
    # queries spread past the hull on every side, plus exact half-way ties
    pts = rng.uniform(-4.0, 30.0, size=(200, 3))
    pts[:10, 0] = 1.0   # halfway between x centers 0 and 2
    pts[10:20, 2] = 5.0  # halfway between z centers 0 and 10
    for t_index in range(2):
        fast = nn_lookup(vol, pts, t_index)
        slow = brute_force_nn(vol, pts, t_index)
        for f, s in zip(fast, slow):
            assert np.array_equal(f, s)


def test_nn_half_way_ties_take_the_lower_index():
    intensity = np.zeros((3, 1, 1, 1))
    intensity[:, 0, 0, 0] = [0.1, 0.5, 0.9]
    labels = np.arange(3, dtype=np.uint8).reshape(3, 1, 1, 1)
    vol = VolumeSample("ties", intensity, labels, (2.0, 2.0, 2.0))
    vals, labs, inside = nn_lookup(vol, np.array([[1.0, 0.0, 0.0],
                                                  [3.0, 0.0, 0.0]]), 0)
    assert inside.all()
    assert vals.tolist() == [0.1, 0.5]   # 1.0 -> center 0, 3.0 -> center 2
    assert labs.tolist() == [0, 1]


def test_nn_hull_boundaries_inclusive():
    _, vol = generate_subject(1, grid_shape=(4, 4, 2, 1), spacing=(2.0, 2.0, 10.0))
    hull = [(4 - 1) * 2.0, (4 - 1) * 2.0, (2 - 1) * 10.0]
    on_edge = np.array([[0.0, 0.0, 0.0], hull, [hull[0], 0.0, hull[2]]])
    _, _, inside = nn_lookup(vol, on_edge, 0)
    assert inside.all()
    _, _, outside = nn_lookup(vol, np.array([[-1e-9, 0.0, 0.0],
                                             [0.0, 0.0, hull[2] + 1e-9]]), 0)
    assert not outside.any()


def test_nn_lookup_contracts():
    _, vol = generate_subject(1, grid_shape=(4, 4, 2, 2))
    with pytest.raises(DimensionError):
        nn_lookup(vol, np.zeros((5, 2)), 0)
    with pytest.raises(ContractError):
        nn_lookup(vol, np.zeros((5, 3)), 2)


def test_nearest_frame_rounding():
    _, vol = generate_subject(1, grid_shape=(4, 4, 2, 5))
    assert nearest_frame(vol, 0.0) == 0
    assert nearest_frame(vol, 1.0) == 4
    assert nearest_frame(vol, 0.5) == 2
    assert nearest_frame(vol, 0.125) == 0   # exact halfway: lower frame
    assert nearest_frame(vol, 0.1251) == 1
    _, single = generate_subject(1, grid_shape=(4, 4, 2, 1))
    assert nearest_frame(single, 0.9) == 0


def test_identity_resample_recovers_the_volume():
    _, vol = generate_subject(9, grid_shape=(6, 5, 3, 4), spacing=(2.0, 2.0, 10.0))
    spec = GridSpec.matching_volume(vol)
    intensity, labels, inside = nearest_neighbor_resample(vol, spec)
    assert inside.all()
    assert np.array_equal(intensity, vol.intensity)
    assert np.array_equal(labels, vol.labels)


def test_resample_rejects_unknown_spec():
    _, vol = generate_subject(1, grid_shape=(4, 4, 2, 2))
    with pytest.raises(ContractError):
        nearest_neighbor_resample(vol, object())


# -- held-out slice observations ----------------------------------------------------


def test_heldout_observations_never_include_the_slice():
    """The fitted latent must see no voxel from the held-out plane; the
    guard inside the protocol raises if construction ever leaks one."""
    from nisf.inference import full_observations
    from nisf.volume import drop_slices
    _, vol = generate_subject(13, grid_shape=(5, 5, 5, 2))
    reduced = drop_slices(vol, [2])
    coords, _ = full_observations(reduced)
    assert not np.any(coords[:, 2] == normalize_index(2, 5))
    assert coords.shape[0] == 5 * 5 * 4 * 2
