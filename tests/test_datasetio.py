import json

import numpy as np
import pytest

from ocuseg.config import InputError
from ocuseg.datasetio import read_dataset, read_pgm, write_dataset, write_pgm
from ocuseg.detect import BBox, crop_resize
from ocuseg.synth import generate_dataset


def test_roundtrip_bit_exact(tmp_path):
    samples = generate_dataset(20, seed=9,
                               kinds=["none", "blur", "occlusion", "domain_shift"],
                               sev_range=(0.3, 1.0))
    write_dataset(samples, tmp_path)
    back = read_dataset(tmp_path)
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        assert a.sample_id == b.sample_id
        for x, y in ((a.image, b.image), (a.labels, b.labels)):
            assert x.dtype == y.dtype == np.uint8
            assert np.array_equal(x, y)
        assert a.gt_bbox == b.gt_bbox
        assert a.severity == b.severity
        assert a.domain_id == b.domain_id
        assert a.corruption == b.corruption


def generated_and_read_back(tmp_path):
    """Pairs of a generated sample and the same sample read back from disk,
    with its manifest record."""
    samples = generate_dataset(4, seed=9, kinds=["none", "occlusion"], sev_range=(0.5, 1.0))
    write_dataset(samples, tmp_path)
    records = json.loads((tmp_path / "manifest.json").read_text())
    return list(zip(samples, read_dataset(tmp_path), records))


def test_gt_bbox_is_the_manifest_box(tmp_path):
    for generated, back, rec in generated_and_read_back(tmp_path):
        for s in (generated, back):
            assert type(s.gt_bbox) is BBox
            assert s.gt_bbox == tuple(rec["bbox"])
            assert all(type(v) is int for v in s.gt_bbox)


def test_crop_through_gt_bbox(tmp_path):
    """A sample's own box crops it, generated or read back, as the same
    box built from its fields does."""
    for generated, back, _ in generated_and_read_back(tmp_path):
        for s in (generated, back):
            got = crop_resize(s, s.gt_bbox, 48, 64)
            want = crop_resize(s, BBox(*s.gt_bbox), 48, 64)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_write_is_byte_deterministic(tmp_path):
    samples = generate_dataset(5, seed=2)
    write_dataset(samples, tmp_path / "a")
    write_dataset(samples, tmp_path / "b")
    for rel in ["manifest.json", "img/s000000.pgm", "lbl/s000003.pgm"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_missing_image_file_named(tmp_path):
    samples = generate_dataset(3, seed=2)
    write_dataset(samples, tmp_path)
    (tmp_path / "img" / "s000001.pgm").unlink()
    with pytest.raises(InputError, match="manifest.json: sample 's000001': no file .*"
                                           "img/s000001.pgm"):
        read_dataset(tmp_path)


def test_missing_label_file_named(tmp_path):
    write_dataset(generate_dataset(3, seed=2), tmp_path)
    (tmp_path / "lbl" / "s000002.pgm").unlink()
    with pytest.raises(InputError, match="manifest.json: sample 's000002': no file .*"
                                           "lbl/s000002.pgm"):
        read_dataset(tmp_path)


def test_manifest_lists_no_file_paths(tmp_path):
    write_dataset(generate_dataset(2, seed=2), tmp_path)
    records = json.loads((tmp_path / "manifest.json").read_text())
    assert [sorted(r) for r in records] == [["bbox", "corruption", "domain", "id",
                                             "severity"]] * 2


@pytest.mark.parametrize("kind", ["absolute", "parent"])
def test_files_come_from_the_id_not_stored_paths(tmp_path, kind):
    """An older manifest's ``image``/``label`` keys are ignored, even where
    they point at another set's files."""
    own = generate_dataset(2, seed=2)
    write_dataset(own, tmp_path / "A")
    write_dataset(generate_dataset(2, seed=3), tmp_path / "B")
    other = {"absolute": str(tmp_path / "B"), "parent": "../B"}[kind]
    manifest = tmp_path / "A" / "manifest.json"
    records = json.loads(manifest.read_text())
    for rec in records:
        rec["image"] = f"{other}/img/{rec['id']}.pgm"
        rec["label"] = f"{other}/lbl/{rec['id']}.pgm"
    manifest.write_text(json.dumps(records))
    for a, b in zip(own, read_dataset(tmp_path / "A")):
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.labels, b.labels)


def test_label_value_out_of_range_rejected_on_read(tmp_path):
    samples = generate_dataset(2, seed=2)
    write_dataset(samples, tmp_path)
    bad = samples[0].labels.copy()
    bad[0, 0] = 4
    write_pgm(tmp_path / "lbl" / "s000000.pgm", bad)
    with pytest.raises(InputError, match="s000000.*outside 0..3"):
        read_dataset(tmp_path)


def test_label_value_out_of_range_rejected_on_write(tmp_path):
    samples = generate_dataset(1, seed=2)
    samples[0].labels[0, 0] = 7
    with pytest.raises(InputError, match="s000000"):
        write_dataset(samples, tmp_path)


def test_malformed_manifest(tmp_path):
    samples = generate_dataset(1, seed=2)
    write_dataset(samples, tmp_path)
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError, match="manifest.json: not valid JSON"):
        read_dataset(tmp_path)


def test_manifest_missing_key(tmp_path):
    samples = generate_dataset(1, seed=2)
    write_dataset(samples, tmp_path)
    records = json.loads((tmp_path / "manifest.json").read_text())
    del records[0]["bbox"]
    (tmp_path / "manifest.json").write_text(json.dumps(records))
    with pytest.raises(InputError, match="bbox"):
        read_dataset(tmp_path)


def test_pgm_roundtrip(tmp_path):
    data = (np.arange(35, dtype=np.uint8) % 251).reshape(5, 7)
    write_pgm(tmp_path / "x.pgm", data)
    assert np.array_equal(read_pgm(tmp_path / "x.pgm"), data)


def test_pgm_write_needs_uint8_pixels(tmp_path):
    with pytest.raises(ValueError, match="must be uint8, got int64"):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 3), dtype=np.int64))
    assert not (tmp_path / "x.pgm").exists()


PGM_PIXELS = (np.arange(6, dtype=np.uint8) * 40).reshape(2, 3)


def test_pgm_header_comments_between_every_token(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5#a\n3 # b c\n\t2#d\n#e\n255\n" + PGM_PIXELS.tobytes())
    assert np.array_equal(read_pgm(path), PGM_PIXELS)


@pytest.mark.parametrize("first", [9, 10, 13, 32])
def test_pgm_whitespace_first_pixel_is_data(tmp_path, first):
    data = PGM_PIXELS.copy()
    data[0, 0] = first
    write_pgm(tmp_path / "x.pgm", data)
    assert np.array_equal(read_pgm(tmp_path / "x.pgm"), data)


@pytest.mark.parametrize("raw,problem", [
    (b"", "malformed PGM header in"),
    (b"P5\n96", "malformed PGM header in"),
    (b"P5\n" + b"9" * 5000 + b" 2\n255\n", "malformed PGM header in"),
    (b"P5\n0 0\n255\n", "malformed PGM header in"),
    (b"P5\n3 2\n255\n" + PGM_PIXELS.tobytes()[:3], "truncated pixel data"),
    (b"P2\n3 2\n255\n" + PGM_PIXELS.tobytes(), "expected binary P5 with maxval 255"),
    (b"P5\n3 2\n65535\n" + PGM_PIXELS.tobytes() * 2, "expected binary P5 with maxval 255"),
], ids=["empty", "cut-header", "width-5000-digits", "zero-size", "cut-pixels", "P2", "maxval-65535"])
def test_bad_pgm_rejected_naming_the_file(tmp_path, raw, problem):
    path = tmp_path / "x.pgm"
    path.write_bytes(raw)
    with pytest.raises(InputError, match=problem) as err:
        read_pgm(path)
    assert str(path) in str(err.value)
