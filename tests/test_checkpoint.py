"""Checkpoint round-trip tests: bit-exact weights, kind tags, config echo."""

import json
import re

import numpy as np
import pytest

from aopu.checkpoint import load_checkpoint, save_checkpoint
from aopu.errors import InvalidInputError


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    w = rng.standard_normal((7, 2))
    w[0, 0] = -0.0  # signed zero must survive
    w[1, 0] = 5e-324  # smallest subnormal
    w[2, 1] = np.pi * 1e300
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "aopu", w, {"bs": 64, "seq": 48})
    loaded = load_checkpoint(path)
    assert loaded.kind == "aopu"
    assert loaded.w_tilde.shape == (7, 2)
    assert np.array_equal(loaded.w_tilde, w)
    assert (
        loaded.w_tilde.tobytes() == np.ascontiguousarray(w).tobytes()
    )  # bit-for-bit
    assert loaded.config == {"bs": 64, "seq": 48}


def test_extras_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    w = rng.standard_normal((3, 1))
    extras = {
        "adam_m": rng.standard_normal((3, 1)),
        "adam_v": rng.standard_normal((3, 1)) ** 2,
    }
    path = tmp_path / "baseline.ckpt"
    save_checkpoint(path, "rvflnn", w, {"lr": 0.005}, extras=extras)
    loaded = load_checkpoint(path)
    assert loaded.kind == "rvflnn"
    for key, val in extras.items():
        assert np.array_equal(loaded.extras[key], val)


def test_rejects_non_matrix_weights(tmp_path):
    with pytest.raises(InvalidInputError):
        save_checkpoint(tmp_path / "x.ckpt", "aopu", np.ones(3), {})


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(InvalidInputError):
        load_checkpoint(path)


def _rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_rejects_other_format_version(tmp_path):
    path = tmp_path / "future.ckpt"
    save_checkpoint(path, "aopu", np.ones((2, 1)), {})
    _rewrite(path, lambda doc: doc.update(version=99))
    with pytest.raises(InvalidInputError, match=re.escape(str(path))):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [[3, 1], [1, 1], [-2, -1]])
def test_rejects_shape_data_mismatch(tmp_path, shape):
    path = tmp_path / "torn.ckpt"
    save_checkpoint(path, "aopu", np.ones((2, 1)), {})
    _rewrite(path, lambda doc: doc["w_tilde"].update(shape=shape))
    with pytest.raises(InvalidInputError, match=re.escape(str(path))):
        load_checkpoint(path)


def _saved(tmp_path):
    path = tmp_path / "corrupt.ckpt"
    save_checkpoint(path, "aopu", np.ones((2, 1)), {})
    return path


def _assert_rejected(path):
    with pytest.raises(InvalidInputError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_rejects_missing_kind(tmp_path):
    path = _saved(tmp_path)
    _rewrite(path, lambda doc: doc.pop("kind"))
    _assert_rejected(path)


@pytest.mark.parametrize("key", ["config", "extras"])
def test_rejects_non_object_section(tmp_path, key):
    path = _saved(tmp_path)
    _rewrite(path, lambda doc: doc.update({key: []}))
    _assert_rejected(path)


def test_rejects_missing_shape(tmp_path):
    path = _saved(tmp_path)
    _rewrite(path, lambda doc: doc["w_tilde"].pop("shape"))
    _assert_rejected(path)


def test_rejects_bad_base64(tmp_path):
    path = _saved(tmp_path)
    _rewrite(path, lambda doc: doc["w_tilde"].update(data="not*base64"))
    _assert_rejected(path)


@pytest.mark.parametrize("shape", [["2", "a"], [2.5, 1], 7])
def test_rejects_non_integer_shape(tmp_path, shape):
    path = _saved(tmp_path)
    _rewrite(path, lambda doc: doc["w_tilde"].update(shape=shape))
    _assert_rejected(path)


def test_rejects_truncated_json(tmp_path):
    path = _saved(tmp_path)
    path.write_text(path.read_text()[:40])
    _assert_rejected(path)
