import json
import re

import numpy as np
import pytest

from ocuseg.checkpoint import (CheckpointError, load_checkpoint, model_tensor,
                               save_checkpoint)
from ocuseg.config import RunConfig
from ocuseg.rng import Rng


class TestRunConfig:
    def test_json_roundtrip_equality(self):
        cfg = RunConfig(seed=11, crop_h=48, crop_w=48, tau=12.5, widths=[6, 12])
        back = RunConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_content_hash_stable_and_sensitive(self):
        a = RunConfig(seed=1)
        b = RunConfig(seed=1)
        c = RunConfig(seed=2)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_arch_hash_ignores_training_fields(self):
        a = RunConfig(seed=1, seg_lr=1e-3)
        b = RunConfig(seed=9, seg_lr=5e-5)
        assert a.arch_hash() == b.arch_hash()
        c = RunConfig(d=12)
        assert a.arch_hash() != c.arch_hash()

    def test_float_field_int_spelling_hashes_alike(self):
        assert RunConfig(tau=5).content_hash() == RunConfig(tau=5.0).content_hash()
        assert RunConfig(eps_floor=1).arch_hash() == RunConfig(eps_floor=1.0).arch_hash()
        assert RunConfig.from_json('{"eps_floor": 1}') == RunConfig(eps_floor=1.0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="d must be"):
            RunConfig(d=2)
        with pytest.raises(ValueError, match="divisible by 4"):
            RunConfig(crop_h=50)
        with pytest.raises(ValueError, match="unknown config fields"):
            RunConfig.from_json('{"seed": 1, "bogus": 2}')
        # fields that older configs carried and nothing read
        for field, value in (("corruption_mix", {"blur": 1.0}), ("temperature", 1.0),
                             ("pcts", [1.0, 2.0])):
            with pytest.raises(ValueError, match=rf"unknown config fields: \['{field}'\]"):
                RunConfig.from_json(json.dumps({"seed": 1, field: value}))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = RunConfig(seed=5)
        tensors = {
            "a.kernel": Rng(1).normal_array(24).reshape(2, 3, 4),
            "b": np.array([1.5, -2.5]),
        }
        save_checkpoint(tmp_path / "ckpt", cfg, tensors, "seg")
        cfg2, back = load_checkpoint(tmp_path / "ckpt")
        assert cfg2 == cfg
        for k, v in tensors.items():
            assert np.array_equal(back[k], v)

    def test_byte_deterministic(self, tmp_path):
        cfg = RunConfig(seed=5)
        tensors = {"w": Rng(2).normal_array(10)}
        save_checkpoint(tmp_path / "a", cfg, tensors, "seg")
        save_checkpoint(tmp_path / "b", cfg, tensors, "seg")
        assert (tmp_path / "a" / "weights.bin").read_bytes() \
            == (tmp_path / "b" / "weights.bin").read_bytes()
        assert (tmp_path / "a" / "header.json").read_bytes() \
            == (tmp_path / "b" / "header.json").read_bytes()

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(tmp_path / "nope")

    def test_truncated_weights_rejected(self, tmp_path):
        cfg = RunConfig()
        save_checkpoint(tmp_path / "c", cfg, {"w": np.ones(100)}, "seg")
        blob = (tmp_path / "c" / "weights.bin").read_bytes()
        (tmp_path / "c" / "weights.bin").write_bytes(blob[:40])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "c")

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg = RunConfig()
        save_checkpoint(tmp_path / "c", cfg, {"w": np.ones(10), "b": np.ones(2)}, "seg")
        weights = tmp_path / "c" / "weights.bin"
        weights.write_bytes(weights.read_bytes() + b"\0\0\0\0")
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_checkpoint(tmp_path / "c")

    @pytest.mark.parametrize("edit", [lambda h: h["config"].update(d=16),
                                      lambda h: h.update(arch_hash="0123456789abcdef")],
                             ids=["config", "hash"])
    def test_arch_hash_rechecked(self, tmp_path, edit):
        save_checkpoint(tmp_path / "c", RunConfig(), {"w": np.ones(3)}, "seg")
        path = tmp_path / "c" / "header.json"
        header = json.loads(path.read_text())
        edit(header)
        path.write_text(json.dumps(header))
        with pytest.raises(CheckpointError, match="arch_hash .* does not match its config"):
            load_checkpoint(tmp_path / "c")

    def test_invalid_stored_config_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "c", RunConfig(), {"w": np.ones(3)}, "seg")
        path = tmp_path / "c" / "header.json"
        header = json.loads(path.read_text())
        header["config"]["seg_epochs"] = 0
        path.write_text(json.dumps(header))
        with pytest.raises(CheckpointError, match="invalid config: seg_epochs must be >= 1"):
            load_checkpoint(tmp_path / "c")

    def test_kind_stored_and_checked(self, tmp_path):
        save_checkpoint(tmp_path / "c", RunConfig(), {"w": np.ones(3)}, "unc")
        assert json.loads((tmp_path / "c" / "header.json").read_text())["kind"] == "unc"
        for kind in ("unc", None):
            assert np.array_equal(load_checkpoint(tmp_path / "c", kind)[1]["w"], np.ones(3))
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(tmp_path / 'c'))}: checkpoint kind is "
                                 "'unc', expected 'seg'$"):
            load_checkpoint(tmp_path / "c", "seg")
        with pytest.raises(ValueError, match="kind must be one of"):
            save_checkpoint(tmp_path / "d", RunConfig(), {"w": np.ones(3)}, "head")

    def test_kind_required(self, tmp_path):
        save_checkpoint(tmp_path / "c", RunConfig(), {"w": np.ones(3)}, "seg")
        path = tmp_path / "c" / "header.json"
        header = json.loads(path.read_text())
        del header["kind"]
        path.write_text(json.dumps(header))
        for kind in ("seg", None):
            with pytest.raises(CheckpointError,
                               match=r"header.json: header has no 'kind' field \(one of seg, unc\)"):
                load_checkpoint(tmp_path / "c", kind)

    def test_model_tensor_checks_name_and_shape(self):
        values = {"a.kernel": np.ones((2, 3))}
        assert np.array_equal(model_tensor(values, "a.kernel", (2, 3)), np.ones((2, 3)))
        with pytest.raises(CheckpointError, match="no tensor 'h1.kernel'"):
            model_tensor(values, "h1.kernel", (2, 3))
        with pytest.raises(CheckpointError, match=r"shape \[2, 3\], model expects \[3, 2\]"):
            model_tensor(values, "a.kernel", (3, 2))
