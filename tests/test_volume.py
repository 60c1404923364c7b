"""Volume container, coordinate transforms, dropped slices, file format."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from nisf.errors import (ContractError, DimensionError, FormatVersionError,
                         PayloadError)
from nisf.phantom import generate_subject
from nisf.serial import write_blob
from nisf.volume import (CLASS_NAMES, NUM_CLASSES, VOLUME_MAGIC, VOLUME_VERSION,
                         VolumeSample, drop_slices, linear_axis, load_dataset_manifest,
                         load_volume, make_batch, manifest_subjects, normalize_index,
                         save_volume, write_dataset_manifest)


def _tiny_volume(mask=None, phantom=None):
    rng = np.random.default_rng(7)
    intensity = rng.random((5, 4, 3, 2))
    labels = rng.integers(0, NUM_CLASSES, size=(5, 4, 3, 2)).astype(np.uint8)
    return VolumeSample(subject_id="tiny", intensity=intensity, labels=labels,
                        spacing=(2.0, 2.0, 10.0), mask=mask, phantom=phantom)


# -- normalized coordinates -------------------------------------------------


def test_normalize_index_endpoints_and_midpoint():
    assert normalize_index(0, 9) == 0.0
    assert normalize_index(8, 9) == 1.0
    assert normalize_index(4, 9) == 0.5
    assert isinstance(normalize_index(3, 9), float)


def test_normalize_index_degenerate_axis_maps_to_center():
    assert normalize_index(0, 1) == 0.5


def test_normalize_index_accepts_arrays():
    out = normalize_index(np.array([0, 2, 4]), 5)
    assert np.array_equal(out, [0.0, 0.5, 1.0])


def test_normalize_index_out_of_range_raises():
    with pytest.raises(ContractError):
        normalize_index(5, 5)
    with pytest.raises(ContractError):
        normalize_index(-1, 5)
    with pytest.raises(ContractError):
        normalize_index(0, 0)


def test_linear_axis_endpoints_exact():
    axis = linear_axis(0.0, 1.0, 7)
    assert axis[0] == 0.0 and axis[-1] == 1.0
    assert len(axis) == 7


def test_linear_axis_single_sample_is_midpoint():
    assert np.array_equal(linear_axis(0.2, 0.8, 1), [0.5])


def test_linear_axis_refinement_contains_coarse_samples_bitwise():
    coarse = linear_axis(0.0, 1.0, 5)
    fine = linear_axis(0.0, 1.0, 4 * 4 + 1)  # refine by 4
    assert np.array_equal(fine[::4], coarse)


def test_linear_axis_rejects_empty():
    with pytest.raises(ContractError):
        linear_axis(0.0, 1.0, 0)


# -- container contracts ------------------------------------------------------


def test_volume_shape_and_frames():
    vol = _tiny_volume()
    assert vol.shape == (5, 4, 3, 2)
    assert vol.num_frames == 2


def test_volume_rejects_bad_shapes():
    good = _tiny_volume()
    with pytest.raises(DimensionError):
        VolumeSample("x", good.intensity[..., 0], good.labels[..., 0], (1, 1, 1))
    with pytest.raises(DimensionError):
        VolumeSample("x", good.intensity, good.labels[:-1], (1, 1, 1))
    with pytest.raises(DimensionError):
        VolumeSample("x", good.intensity, good.labels, (1, 1, 1),
                     mask=np.ones((2, 2, 2, 2), dtype=bool))
    with pytest.raises(ContractError, match="extents must be >= 1"):
        VolumeSample("x", good.intensity[..., :0], good.labels[..., :0], (1, 1, 1))


def test_volume_rejects_bad_values():
    good = _tiny_volume()
    with pytest.raises(ContractError):
        VolumeSample("x", good.intensity, good.labels, (1.0, -2.0, 1.0))
    with pytest.raises(ContractError):
        VolumeSample("x", good.intensity + 1.0, good.labels, (1.0, 1.0, 1.0))
    poisoned = good.intensity.copy()
    poisoned[0, 0, 0, 0] = np.nan
    with pytest.raises(ContractError, match="non-finite"):
        VolumeSample("x", poisoned, good.labels, (1.0, 1.0, 1.0))
    bad_labels = good.labels.copy()
    bad_labels[0, 0, 0, 0] = NUM_CLASSES
    with pytest.raises(ContractError):
        VolumeSample("x", good.intensity, bad_labels, (1.0, 1.0, 1.0))


def test_observed_defaults_to_all_true():
    vol = _tiny_volume()
    assert vol.observed().all()
    mask = np.zeros(vol.shape, dtype=bool)
    mask[0] = True
    assert np.array_equal(_tiny_volume(mask=mask).observed(), mask)


def test_norm_mm_round_trip():
    vol = _tiny_volume()
    norm = np.array([[0.0, 0.5, 1.0], [0.25, 1.0, 0.0]])
    mm = vol.norm_to_mm(norm)
    assert np.array_equal(mm[0], [0.0, 3.0, 20.0])
    assert np.array_equal(mm[1], [2.0, 6.0, 0.0])


# -- coordinate rows ----------------------------------------------------------


def _four_frames(masked):
    rng = np.random.default_rng(11)
    shape = (4, 3, 2, 4)
    mask = None
    if masked:
        mask = rng.random(shape) < 0.7
        mask[..., 1] = False  # frame 1 has no observed voxel
    return VolumeSample(subject_id="rows", intensity=rng.random(shape),
                        labels=rng.integers(0, NUM_CLASSES, size=shape).astype(np.uint8),
                        spacing=(2.0, 2.0, 10.0), mask=mask)


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("frames", [(2, 0, 3), (3, 1, 2, 0), None])
def test_make_batch_frame_set_concatenates_single_frames(masked, frames):
    """Rows come frame by frame in the given order; a frame with no observed
    voxel adds none."""
    vol = _four_frames(masked)
    batch = make_batch(vol, frames)
    order = range(vol.num_frames) if frames is None else frames
    parts = [make_batch(vol, t) for t in order if vol.observed()[..., t].any()]
    assert np.array_equal(batch.coords, np.concatenate([b.coords for b in parts]))
    assert np.array_equal(batch.intensities, np.concatenate([b.intensities for b in parts]))
    assert np.array_equal(batch.labels, np.concatenate([b.labels for b in parts]))
    assert batch.coords.shape[0] == sum(vol.observed()[..., t].sum() for t in order)
    assert batch.intensities.shape == (batch.coords.shape[0], 1)


def test_make_batch_frame_set_contract_violations():
    vol = _four_frames(masked=True)
    with pytest.raises(ContractError, match="no observed voxels"):
        make_batch(vol, [1])
    hidden = VolumeSample(vol.subject_id, vol.intensity, vol.labels, vol.spacing,
                          mask=np.zeros(vol.shape, dtype=bool))
    with pytest.raises(ContractError, match="no observed voxels"):
        make_batch(hidden)
    for frames in ([0, 4], [-1, 2], 4, []):
        with pytest.raises(ContractError):
            make_batch(vol, frames)


# -- degradation --------------------------------------------------------------


def test_drop_slices_hides_exactly_one_slice_worth():
    vol = _tiny_volume()
    out = drop_slices(vol, [1])
    hidden = (~out.observed()).sum()
    assert hidden == vol.shape[0] * vol.shape[1] * vol.shape[3]
    assert not out.observed()[:, :, 1, :].any()
    assert out.observed()[:, :, 0, :].all() and out.observed()[:, :, 2, :].all()


def test_degrade_leaves_ground_truth_untouched():
    vol = _tiny_volume()
    out = drop_slices(vol, [0])
    assert out.intensity is vol.intensity
    assert out.labels is vol.labels
    assert vol.observed().all()  # original mask not mutated


def test_degrade_contract_violations():
    vol = _tiny_volume()
    with pytest.raises(ContractError):
        drop_slices(vol, [])
    with pytest.raises(ContractError):
        drop_slices(vol, [3])
    with pytest.raises(ContractError):
        drop_slices(vol, [-1])


def test_degrading_everything_raises():
    vol = _tiny_volume()
    with pytest.raises(ContractError, match="every observed point"):
        drop_slices(vol, [0, 1, 2])


def test_degradations_compose_and_originals_restore():
    vol = _tiny_volume()
    mask = np.ones(vol.shape, dtype=bool)
    mask[..., 1] = False  # an earlier mask: frame 1 unobserved
    step1 = replace(vol, mask=mask)
    step2 = drop_slices(step1, [0])
    m = step2.observed()
    assert not m[:, :, 0, :].any()
    assert not m[:, :, 1:, 1].any()
    assert m[:, :, 1:, 0].all()
    assert step1.mask[:, :, 0, 0].all()  # the earlier mask is not mutated
    # the untouched arrays restore the original volume exactly
    restored = VolumeSample(vol.subject_id, step2.intensity, step2.labels, vol.spacing)
    assert restored.observed().all()
    assert np.array_equal(restored.intensity, vol.intensity)


# -- file format ---------------------------------------------------------------


def test_save_load_round_trip_all_fields(tmp_path):
    spec, vol = generate_subject(4, grid_shape=(6, 5, 3, 2), spacing=(3.0, 3.0, 7.5))
    masked = drop_slices(vol, [1])
    path = tmp_path / "subject.nvol"
    save_volume(masked, str(path))
    back = load_volume(str(path))
    assert back.subject_id == masked.subject_id
    assert np.array_equal(back.intensity, masked.intensity)
    assert np.array_equal(back.labels, masked.labels)
    assert np.array_equal(back.mask, masked.mask)
    assert back.spacing == masked.spacing
    # the generator description survives the JSON header round trip: it is
    # plain JSON types, so it compares equal to what the header gives back
    from nisf.phantom import PhantomSpec
    assert back.phantom == masked.phantom
    assert PhantomSpec.from_dict(back.phantom) == spec


def test_save_is_byte_deterministic(tmp_path):
    _, vol = generate_subject(4, grid_shape=(5, 5, 2, 2))
    a, b = tmp_path / "a.nvol", tmp_path / "b.nvol"
    save_volume(vol, str(a))
    save_volume(vol, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.nvol"
    path.write_bytes(b"NOT-A-VOLUME 1\n{}\n")
    with pytest.raises(PayloadError):
        load_volume(str(path))


def test_load_rejects_newer_version(tmp_path):
    path = tmp_path / "future.nvol"
    _, vol = generate_subject(1, grid_shape=(4, 4, 2, 2))
    with open(path, "wb") as f:
        write_blob(f, VOLUME_MAGIC, VOLUME_VERSION + 1,
                   {"subject_id": "x", "shape": [4, 4, 2, 2],
                    "spacing": [1, 1, 1], "has_mask": False},
                   {"intensity": vol.intensity, "labels": vol.labels})
    with pytest.raises(FormatVersionError):
        load_volume(str(path))


def test_load_rejects_truncated_file(tmp_path):
    _, vol = generate_subject(1, grid_shape=(4, 4, 2, 2))
    path = tmp_path / "whole.nvol"
    save_volume(vol, str(path))
    clipped = tmp_path / "clipped.nvol"
    clipped.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(PayloadError, match="truncated"):
        load_volume(str(clipped))


def test_load_rejects_sidecar_payload_shape_disagreement(tmp_path):
    _, vol = generate_subject(1, grid_shape=(4, 4, 2, 2))
    path = tmp_path / "lies.nvol"
    with open(path, "wb") as f:
        write_blob(f, VOLUME_MAGIC, VOLUME_VERSION,
                   {"subject_id": "x", "shape": [8, 4, 2, 2],
                    "spacing": [1.0, 1.0, 1.0], "has_mask": False},
                   {"intensity": vol.intensity, "labels": vol.labels})
    with pytest.raises(PayloadError, match="disagree"):
        load_volume(str(path))


def test_load_rejects_declared_but_missing_mask(tmp_path):
    _, vol = generate_subject(1, grid_shape=(4, 4, 2, 2))
    path = tmp_path / "maskless.nvol"
    with open(path, "wb") as f:
        write_blob(f, VOLUME_MAGIC, VOLUME_VERSION,
                   {"subject_id": "x", "shape": [4, 4, 2, 2],
                    "spacing": [1.0, 1.0, 1.0], "has_mask": True},
                   {"intensity": vol.intensity, "labels": vol.labels})
    with pytest.raises(PayloadError, match="mask"):
        load_volume(str(path))


def test_load_rejects_missing_required_array(tmp_path):
    _, vol = generate_subject(1, grid_shape=(4, 4, 2, 2))
    path = tmp_path / "nolabels.nvol"
    with open(path, "wb") as f:
        write_blob(f, VOLUME_MAGIC, VOLUME_VERSION,
                   {"subject_id": "x", "shape": [4, 4, 2, 2],
                    "spacing": [1.0, 1.0, 1.0], "has_mask": False},
                   {"intensity": vol.intensity})
    with pytest.raises(PayloadError, match="labels"):
        load_volume(str(path))


@pytest.mark.parametrize("key", ["shape", "subject_id", "spacing"])
def test_load_rejects_missing_header_key(tmp_path, key):
    _, vol = generate_subject(1, grid_shape=(4, 4, 2, 2))
    header = {"subject_id": "x", "shape": [4, 4, 2, 2], "spacing": [1.0, 1.0, 1.0],
              "has_mask": False}
    del header[key]
    path = tmp_path / "headless.nvol"
    with open(path, "wb") as f:
        write_blob(f, VOLUME_MAGIC, VOLUME_VERSION, header,
                   {"intensity": vol.intensity, "labels": vol.labels})
    with pytest.raises(PayloadError, match=f"volume header missing '{key}'"):
        load_volume(str(path))


# -- dataset manifest ------------------------------------------------------------


def _entries():
    return [{"id": f"s{i:04d}", "path": f"s{i:04d}.nvol",
             "split": "train" if i < 3 else ("val" if i < 4 else "test"),
             "seed": 100 + i} for i in range(6)]


def test_manifest_round_trip_and_split_listing(tmp_path):
    write_dataset_manifest(str(tmp_path), _entries(), seed=11, generator_version=1)
    manifest = load_dataset_manifest(str(tmp_path))
    assert manifest["seed"] == 11
    assert manifest["class_names"] == list(CLASS_NAMES)
    assert manifest["splits"]["train"] == ["s0000", "s0001", "s0002"]
    assert manifest["splits"]["val"] == ["s0003"]
    pairs = manifest_subjects(manifest, str(tmp_path), "test")
    assert [p[0] for p in pairs] == ["s0004", "s0005"]
    assert all(p[1].startswith(str(tmp_path)) for p in pairs)


def test_manifest_split_ids_are_disjoint(tmp_path):
    write_dataset_manifest(str(tmp_path), _entries(), seed=1, generator_version=1)
    manifest = load_dataset_manifest(str(tmp_path))
    splits = manifest["splits"]
    seen = splits["train"] + splits["val"] + splits["test"]
    assert len(seen) == len(set(seen)) == 6


def test_manifest_rejects_duplicate_ids(tmp_path):
    entries = _entries()
    entries[1]["id"] = entries[0]["id"]
    with pytest.raises(ContractError, match="duplicate"):
        write_dataset_manifest(str(tmp_path), entries, seed=1, generator_version=1)


def test_manifest_missing_or_unversioned(tmp_path):
    with pytest.raises(ContractError):
        load_dataset_manifest(str(tmp_path))
    path = os.path.join(str(tmp_path), "dataset.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"format_version": 99}, f)
    with pytest.raises(ContractError, match="format_version"):
        load_dataset_manifest(str(tmp_path))


def test_manifest_subjects_rejects_unknown_split(tmp_path):
    write_dataset_manifest(str(tmp_path), _entries(), seed=1, generator_version=1)
    manifest = load_dataset_manifest(str(tmp_path))
    with pytest.raises(ContractError):
        manifest_subjects(manifest, str(tmp_path), "holdout")
