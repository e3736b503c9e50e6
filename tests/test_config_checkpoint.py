import json
import re
import sys

import numpy as np
import pytest

from ocuseg.checkpoint import (CheckpointError, load_checkpoint, model_tensor,
                               save_checkpoint)
from ocuseg.config import RunConfig, read_json, read_text
from ocuseg.rng import Rng


class Bad(ValueError):
    pass


class TestReaders:
    @pytest.mark.parametrize("raw,expect,what,message", [
        (b'{"a": "\xff"}', dict, "", "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        (b'{"a": 1', dict, "", "not valid JSON: Expecting ',' delimiter"),
        (b"[" * 100_000, list, "", "not valid JSON: maximum recursion depth exceeded"),
        (b"[1]", dict, "", "not a JSON object, got list"),
        (b"{}", list, "", "not a JSON list, got dict"),
        (b"7", list, "expected a list of records", "expected a list of records, got int"),
    ], ids=["not-utf8", "cut", "nested", "list", "dict", "what"])
    def test_read_json_raises_the_callers_error_naming_the_file(self, tmp_path, raw, expect,
                                                                 what, message):
        path = tmp_path / "f.json"
        path.write_bytes(raw)
        with pytest.raises(Bad, match=f"^{re.escape(f'{path}: {message}')}"):
            read_json(path, Bad, expect, what)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python converts ints of any length")
    def test_read_json_int_past_the_digit_limit(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("[" + "1" * (sys.get_int_max_str_digits() + 1) + "]")
        with pytest.raises(Bad, match=f"^{re.escape(str(path))}: not valid JSON: Exceeds"):
            read_json(path, Bad, list)

    def test_read_text_and_json_return_the_contents(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"\u00e9": [1, 2.5]}\n', encoding="utf-8")
        assert read_text(path, Bad) == '{"\u00e9": [1, 2.5]}\n'
        assert read_json(path, Bad, dict) == {"\u00e9": [1, 2.5]}
        with pytest.raises(FileNotFoundError):
            read_text(tmp_path / "missing.json", Bad)


class TestRunConfig:
    def test_json_roundtrip_equality(self):
        cfg = RunConfig(seed=11, crop_h=48, crop_w=48, unc_epochs=12, widths=[6, 12])
        back = RunConfig.from_dict(json.loads(cfg.to_json()))
        assert back == cfg

    def test_content_hash_stable_and_sensitive(self):
        a = RunConfig(seed=1)
        b = RunConfig(seed=1)
        c = RunConfig(seed=2)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_arch_hash_ignores_training_fields(self):
        a = RunConfig(seed=1, seg_epochs=1)
        b = RunConfig(seed=9, seg_epochs=7)
        assert a.arch_hash() == b.arch_hash()
        c = RunConfig(d=12)
        assert a.arch_hash() != c.arch_hash()

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="d must be"):
            RunConfig(d=2)
        with pytest.raises(ValueError, match="divisible by 4"):
            RunConfig(crop_h=50)
        with pytest.raises(ValueError, match="unknown config fields"):
            RunConfig.from_dict({"seed": 1, "bogus": 2})
        # fields that older configs carried and nothing read
        for field, value in (("corruption_mix", {"blur": 1.0}), ("temperature", 1.0),
                             ("pcts", [1.0, 2.0])):
            with pytest.raises(ValueError, match=rf"unknown config fields: \['{field}'\]"):
                RunConfig.from_dict({"seed": 1, field: value})


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
        with pytest.raises(FileNotFoundError, match="nope/header.json"):
            load_checkpoint(tmp_path / "nope")
        save_checkpoint(tmp_path / "c", RunConfig(), {"w": np.ones(2)}, "seg")
        (tmp_path / "c" / "weights.bin").unlink()
        with pytest.raises(FileNotFoundError, match="c/weights.bin"):
            load_checkpoint(tmp_path / "c")

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
