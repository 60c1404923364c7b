"""Synthetic subject generator: analytic oracle, determinism, distribution."""

import numpy as np
import pytest

from nisf.errors import ContractError
from nisf.phantom import (BACKGROUND, CLASS_FRACTION_BOUNDS, LV_MYO, LV_POOL,
                          RV_POOL, PhantomSpec, class_fractions, draw_spec,
                          generate_dataset, generate_subject, subject_seeds)
from nisf.volume import CLASS_NAMES, normalize_index

# Hand-checkable geometry: LV at (30,30,20) with endo radii (10,10,12) and a
# 5 mm wall (epi radii (15,15,17)); RV ball of radius 8 centered 18 mm to the
# right, so it overlaps the lateral wall on x in [40,45]. Zero phase, so t=0
# is rest (all scale factors exactly 1) and t=0.5 is peak contraction.
HAND_SPEC = PhantomSpec(
    lv_center=(30.0, 30.0, 20.0),
    lv_endo_radii=(10.0, 10.0, 12.0),
    wall_thickness=5.0,
    rv_center=(48.0, 30.0, 20.0),
    rv_radii=(8.0, 8.0, 8.0),
    contraction_amp=0.2,
    contraction_phase=0.0,
    epi_motion_factor=0.4,
    rv_motion_factor=0.7,
    tissue_means=(0.05, 0.95, 0.10, 0.90),
    noise_sigma=0.01,
    grid_shape=(16, 16, 4, 4),
    spacing=(4.0, 4.0, 10.0),
)


def test_same_seed_bit_identical():
    spec_a, vol_a = generate_subject(3, grid_shape=(12, 12, 4, 3), spacing=(3.0, 3.0, 8.0))
    spec_b, vol_b = generate_subject(3, grid_shape=(12, 12, 4, 3), spacing=(3.0, 3.0, 8.0))
    assert spec_a == spec_b
    assert np.array_equal(vol_a.intensity, vol_b.intensity)
    assert np.array_equal(vol_a.labels, vol_b.labels)


def test_different_seeds_give_different_geometry():
    a = draw_spec(0)
    b = draw_spec(1)
    assert a.lv_center != b.lv_center
    assert a.tissue_means != b.tissue_means


def test_default_and_custom_subject_ids():
    _, vol = generate_subject(9, grid_shape=(8, 8, 2, 2))
    assert vol.subject_id == "phantom-9"
    _, vol = generate_subject(9, grid_shape=(8, 8, 2, 2), subject_id="s0009")
    assert vol.subject_id == "s0009"


@pytest.mark.parametrize("seed", [0, 4, 17])
def test_all_classes_present(seed):
    _, vol = generate_subject(seed)
    present = np.unique(vol.labels)
    assert set(present.tolist()) == {BACKGROUND, LV_POOL, LV_MYO, RV_POOL}


@pytest.mark.parametrize("seed", [2, 11])
def test_stored_labels_match_analytic_oracle_at_voxel_centers(seed):
    """The rendered label array is exactly label_at sampled at voxel centers."""
    spec, vol = generate_subject(seed, grid_shape=(10, 10, 4, 5), spacing=(5.0, 5.0, 9.0))
    gx, gy, gz, gt = spec.grid_shape
    xs = np.arange(gx) * spec.spacing[0]
    ys = np.arange(gy) * spec.spacing[1]
    zs = np.arange(gz) * spec.spacing[2]
    centers = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1)
    for ti in range(gt):
        oracle = spec.label_at(centers, normalize_index(ti, gt))
        assert np.array_equal(oracle, vol.labels[..., ti]), f"frame {ti} disagrees"


def test_label_at_hand_geometry_at_rest():
    # Distances from the LV center along single axes, checked by hand against
    # the unscaled radii: 9 < 10 (pool), 10 < 12 < 15 on y (wall), 16 > 15
    # with the RV far away on y (background).
    points = np.array([
        [30.0, 30.0, 20.0],   # LV center                          -> pool
        [39.0, 30.0, 20.0],   # 9 mm along x, inside endo          -> pool
        [30.0, 42.0, 20.0],   # 12 mm along y, wall ring           -> myocardium
        [30.0, 46.0, 20.0],   # 16 mm along y, outside epi         -> background
        [47.0, 30.0, 20.0],   # 17 mm along x: outside epi, 1 mm from RV center -> RV pool
        [0.0, 0.0, 0.0],      # far corner                          -> background
    ])
    got = HAND_SPEC.label_at(points, 0.0)
    assert got.tolist() == [LV_POOL, LV_POOL, LV_MYO, BACKGROUND, RV_POOL, BACKGROUND]


def test_label_precedence_pool_over_myo_over_rv():
    # x=43: inside the epi ring ((13/15)^2 = 0.75) and inside the RV ball
    # ((5/8)^2 = 0.39); the wall must win over the RV pool.
    # x=39.5: inside endo ((9.5/10)^2 = 0.90) and far inside RV? no - RV q =
    # ((39.5-48)/8)^2 = 1.13, so craft the overlap with a second spec below.
    ring_and_rv = np.array([[43.0, 30.0, 20.0]])
    assert HAND_SPEC.label_at(ring_and_rv, 0.0).tolist() == [LV_MYO]

    # Shift the RV until it swallows the endocardium; the pool still wins.
    overlap = PhantomSpec(**{**HAND_SPEC.to_dict(), "rv_center": (34.0, 30.0, 20.0)})
    endo_and_rv = np.array([[36.0, 30.0, 20.0]])  # endo q=0.36, rv q=0.0625
    assert overlap.label_at(endo_and_rv, 0.0).tolist() == [LV_POOL]


def test_scales_at_rest_and_peak():
    assert HAND_SPEC.scales(0.0) == (1.0, 1.0, 1.0)
    s_endo, s_epi, s_rv = HAND_SPEC.scales(0.5)
    # u=1 at half cycle with zero phase: 1-0.2, 1-0.4*0.2, 1-0.7*0.2.
    assert abs(s_endo - 0.8) < 1e-15
    assert abs(s_epi - 0.92) < 1e-15
    assert abs(s_rv - 0.86) < 1e-15


def test_contraction_moves_the_endocardial_boundary():
    # 9.5 mm along x: inside the endo radius 10 at rest, but at peak
    # contraction the endo radius shrinks to 8 while the epi radius is
    # still 13.8, so the same point lands in the wall.
    point = np.array([[39.5, 30.0, 20.0]])
    assert HAND_SPEC.label_at(point, 0.0).tolist() == [LV_POOL]
    assert HAND_SPEC.label_at(point, 0.5).tolist() == [LV_MYO]


def test_wall_thickens_during_contraction():
    s_endo, s_epi, _ = HAND_SPEC.scales(0.5)
    rest = HAND_SPEC.lv_epi_radii[0] - HAND_SPEC.lv_endo_radii[0]
    peak = HAND_SPEC.lv_epi_radii[0] * s_epi - HAND_SPEC.lv_endo_radii[0] * s_endo
    assert rest == 5.0
    assert abs(peak - 5.8) < 1e-12
    assert peak > rest


@pytest.mark.parametrize("seed", range(6))
def test_endo_stays_inside_epi_over_the_cycle(seed):
    spec = draw_spec(seed)
    for t in np.linspace(0.0, 1.0, 21):
        s_endo, s_epi, _ = spec.scales(t)
        for a in range(3):
            assert spec.lv_endo_radii[a] * s_endo < spec.lv_epi_radii[a] * s_epi


def test_class_fractions_within_documented_bounds_over_100_seeds():
    for seed in range(100):
        spec = draw_spec(seed)
        gx, gy, gz, gt = spec.grid_shape
        xs = np.arange(gx) * spec.spacing[0]
        ys = np.arange(gy) * spec.spacing[1]
        zs = np.arange(gz) * spec.spacing[2]
        centers = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1)
        labels = np.empty((gx, gy, gz, gt), dtype=np.uint8)
        for ti in range(gt):
            labels[..., ti] = spec.label_at(centers, normalize_index(ti, gt))
        for name, frac in class_fractions(labels).items():
            lo, hi = CLASS_FRACTION_BOUNDS[name]
            assert lo <= frac <= hi, f"seed {seed}: {name} fraction {frac:.4f} outside [{lo},{hi}]"


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_intensity_mass_concentrates_near_tissue_means(seed):
    spec, vol = generate_subject(seed)
    means = np.asarray(spec.tissue_means)
    nearest = np.min(np.abs(vol.intensity[..., None] - means), axis=-1)
    assert float(np.mean(nearest <= 0.1)) >= 0.60


def test_intensity_and_labels_in_range():
    _, vol = generate_subject(1)
    assert vol.intensity.min() >= 0.0 and vol.intensity.max() <= 1.0
    assert vol.labels.max() < len(CLASS_NAMES)


def test_clean_intensity_at_maps_means_by_label():
    points = np.array([
        [30.0, 30.0, 20.0],  # pool
        [30.0, 42.0, 20.0],  # wall
        [0.0, 0.0, 0.0],     # background
    ])
    got = HAND_SPEC.clean_intensity_at(points, 0.0)
    assert got.tolist() == [0.95, 0.10, 0.05]


@pytest.mark.parametrize("field_name,bad", [
    ("wall_thickness", 0.0),
    ("contraction_amp", 1.0),
    ("contraction_amp", -0.1),
    ("epi_motion_factor", 1.5),
    ("rv_motion_factor", -0.2),
    ("tissue_means", (0.1, 1.2, 0.3, 0.4)),
    ("grid_shape", (1, 16, 4, 4)),
    ("lv_endo_radii", (10.0, -1.0, 12.0)),
    ("rv_radii", (0.0, 8.0, 8.0)),
])
def test_spec_contract_violations_raise(field_name, bad):
    with pytest.raises(ContractError):
        PhantomSpec(**{**HAND_SPEC.to_dict(), field_name: bad})


def test_spec_dict_round_trip():
    spec = draw_spec(13)
    again = PhantomSpec.from_dict(spec.to_dict())
    assert again == spec


def test_label_at_rejects_malformed_points():
    with pytest.raises(ContractError):
        HAND_SPEC.label_at(np.zeros((5, 2)), 0.0)


def test_subject_seeds_deterministic_and_distinct():
    a = subject_seeds(11, 90)
    b = subject_seeds(11, 90)
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 90
    c = subject_seeds(12, 90)
    assert not np.array_equal(a, c)


def test_generate_dataset_layout():
    """Splits in train/val/test order, ids s0000.., seeds from subject_seeds."""
    rows = list(generate_dataset(11, (2, 1, 2), grid_shape=(6, 6, 2, 2)))
    assert [split for split, _, _ in rows] == ["train", "train", "val", "test", "test"]
    assert [vol.subject_id for _, _, vol in rows] == [f"s{i:04d}" for i in range(5)]
    assert [seed for _, seed, _ in rows] == subject_seeds(11, 5).tolist()
    _, first = generate_subject(rows[0][1], grid_shape=(6, 6, 2, 2))
    assert np.array_equal(first.intensity, rows[0][2].intensity)


def test_class_fractions_cover_all_classes_and_sum_to_one():
    _, vol = generate_subject(5, grid_shape=(10, 10, 3, 2))
    fr = class_fractions(vol.labels)
    assert set(fr) == set(CLASS_NAMES)
    assert abs(sum(fr.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_drawn_anatomy_centers_inside_field_of_view(seed):
    spec = draw_spec(seed)
    extent = [(spec.grid_shape[a] - 1) * spec.spacing[a] for a in range(3)]
    for a in range(3):
        assert 0.0 < spec.lv_center[a] < extent[a]
        assert 0.0 < spec.rv_center[a] < extent[a]
