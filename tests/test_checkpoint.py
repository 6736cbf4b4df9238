"""Binary checkpoint round trips and corruption handling."""
import functools
import hashlib
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passageqa.checkpoint import (CHECKPOINT_MAGIC, CheckpointFormatError,
                                  load_checkpoint, save_checkpoint)
from passageqa.model import Hyperparams, init_weights, named_arrays, weights_from_named

from fuzzing import draw_damaged


@pytest.fixture()
def saved(tmp_path):
    hp = Hyperparams(hidden=3, attn_dim=2, epochs=4, seed=99)
    weights = init_weights(np.random.default_rng(8), embed_dim=5, hidden=3,
                           attn_dim=2, dtype=np.float32)
    ema = {name: arr + 0.25 for name, arr in named_arrays(weights).items()}
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, hp, weights, ema)
    return path, hp, weights, ema


def test_round_trip_exact(saved):
    path, hp, weights, ema = saved
    hp2, weights2, ema2 = load_checkpoint(path)
    assert hp2 == hp
    named = named_arrays(weights)
    named2 = named_arrays(weights2)
    assert set(named2) == set(named)
    for name in named:
        assert named2[name].dtype == np.float32
        np.testing.assert_array_equal(named2[name], named[name])
        np.testing.assert_array_equal(ema2[name], ema[name])


def test_init_and_checkpoint_bytes_are_golden(tmp_path):
    """Init draw order, stored order and layout pinned by one file digest.

    The digest was taken from the nested-structure weights this table
    replaced (numpy 2.4.6), so older checkpoints keep loading unchanged.
    """
    weights = init_weights(np.random.default_rng(2), 5, 3, 2)
    ema = {name: arr + 0.5 for name, arr in named_arrays(weights).items()}
    path = tmp_path / "golden.ckpt"
    save_checkpoint(str(path), Hyperparams(hidden=3, attn_dim=2), weights, ema)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "8188457c006ea42ae05d4858d9e7620bf16cff11ec8a0b81319e9234c24e6037")


def test_save_is_deterministic(saved, tmp_path):
    path, hp, weights, ema = saved
    again = str(tmp_path / "again.ckpt")
    save_checkpoint(again, hp, weights, ema)
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


def test_float64_weights_stored_as_float32(tmp_path):
    hp = Hyperparams(hidden=2, attn_dim=2)
    weights = init_weights(np.random.default_rng(9), 3, 2, 2, dtype=np.float64)
    ema = {k: v.copy() for k, v in named_arrays(weights).items()}
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, hp, weights, ema)
    _, loaded, _ = load_checkpoint(path)
    for name, arr in named_arrays(loaded).items():
        assert arr.dtype == np.float32
        np.testing.assert_allclose(arr, named_arrays(weights)[name], atol=1e-6)


def test_save_requires_every_ema_shadow(tmp_path):
    hp = Hyperparams(hidden=2, attn_dim=2)
    weights = init_weights(np.random.default_rng(10), 3, 2, 2)
    named = named_arrays(weights)
    missing = {k: v for k, v in named.items() if k != "sim_weight"}
    wrong_shape = dict(named, sim_weight=np.zeros(7, np.float32))
    extra = dict(named, bogus=np.zeros(2, np.float32))
    for ema, name in ((missing, "sim_weight"), (wrong_shape, "sim_weight"),
                      (extra, "bogus")):
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match=name):
            save_checkpoint(str(path), hp, weights, ema)
        assert not path.exists()


def test_load_rejects_bad_magic(saved, tmp_path):
    path = saved[0]
    data = open(path, "rb").read()
    bad = str(tmp_path / "bad.ckpt")
    with open(bad, "wb") as fh:
        fh.write(b"XXXX" + data[4:])
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(bad)


def test_load_rejects_unknown_version(saved, tmp_path):
    path = saved[0]
    data = bytearray(open(path, "rb").read())
    data[4:8] = struct.pack("<I", 9)
    bad = str(tmp_path / "v9.ckpt")
    open(bad, "wb").write(bytes(data))
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(bad)


def test_load_rejects_truncated_file(saved, tmp_path):
    path = saved[0]
    data = open(path, "rb").read()
    for cut in (6, len(data) // 2, len(data) - 3):
        bad = str(tmp_path / f"cut{cut}.ckpt")
        open(bad, "wb").write(data[:cut])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(bad)


def test_save_refuses_non_finite_tensors(saved, tmp_path):
    _, hp, weights, ema = saved
    raw = dict(named_arrays(weights), sim_weight=np.full_like(ema["sim_weight"], np.inf))
    cases = ((weights, dict(ema, rel_weight=np.full_like(ema["rel_weight"], np.nan)),
              "EMA shadow for rel_weight"),
             (weights_from_named(5, 3, 2, raw), ema, "weight sim_weight"))
    for bad_weights, bad_ema, message in cases:
        path = tmp_path / "bad.ckpt"
        with pytest.raises(ValueError, match=message):
            save_checkpoint(str(path), hp, bad_weights, bad_ema)
        assert not path.exists()


def test_load_names_non_finite_tensor(saved, tmp_path):
    path, _, _, _ = saved
    data = bytearray(Path(path).read_bytes())
    name = b"ema/rel_weight"
    at = data.index(name) + len(name) + 1 + 4      # past the rank byte and one dim
    data[at:at + 4] = struct.pack("<f", np.nan)
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError, match="ema/rel_weight"):
        load_checkpoint(str(bad))


def test_load_requires_embed_dim_in_settings(tmp_path):
    # hand-build a file whose settings block lacks embed_dim
    blob = b'{"hidden": 2}'
    path = str(tmp_path / "no_dim.ckpt")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", 0))
    with pytest.raises(CheckpointFormatError, match="embed_dim"):
        load_checkpoint(path)


@functools.cache
def fuzz_checkpoint_bytes() -> bytes:
    weights = init_weights(np.random.default_rng(4), embed_dim=2, hidden=1, attn_dim=1)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(f"{tmp}/fuzz.ckpt", Hyperparams(hidden=1, attn_dim=1), weights,
                        named_arrays(weights))
        return Path(f"{tmp}/fuzz.ckpt").read_bytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_damaged_checkpoint_is_rejected_or_loadable(data):
    """Truncated, bit-flipped or spliced files fail with CheckpointFormatError or
    load into weights and EMA shadows that weights_from_named accepts."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(f"{tmp}/damaged.ckpt").write_bytes(draw_damaged(data, fuzz_checkpoint_bytes()))
        try:
            hp, weights, ema = load_checkpoint(f"{tmp}/damaged.ckpt")
        except CheckpointFormatError:
            return
    weights_from_named(weights.embed_dim, hp.hidden, hp.attn_dim, ema)


HP_VALUES = {"hidden": st.integers(0, 3), "epochs": st.integers(0, 3) | st.floats(0, 3),
             "vote_temperature": st.floats(-1, 1) | st.integers(-1, 1),
             "dropout": st.floats(-0.5, 1.5), "seed": st.integers(-1, 2**40)}


@st.composite
def checkpoint_inputs(draw, broad: bool):
    """(hp, weights, ema); `broad` ones may hold what the format cannot."""
    embed_dim, hidden, attn_dim = (draw(st.integers(1, 3)) for _ in range(3))
    over = draw(st.fixed_dictionaries({}, optional=HP_VALUES)) if broad else {}
    hp = Hyperparams(**dict({"hidden": hidden, "attn_dim": attn_dim}, **over))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    weights = init_weights(np.random.default_rng(draw(st.integers(0, 9))), embed_dim,
                           hidden, attn_dim, dtype=dtype)
    ema = {name: arr * 0.5 for name, arr in named_arrays(weights).items()}
    if broad and dtype == np.float64 and draw(st.booleans()):
        ema["sim_weight"][0] = 1e39         # finite, but not in float32
    return hp, weights, ema


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(lambda broad: st.tuples(st.just(broad),
                                                     checkpoint_inputs(broad))))
def test_saved_checkpoint_loads_back_equal_or_is_refused(case):
    """save_checkpoint writes what load_checkpoint reads back equal (weights as
    float32), or raises ValueError and writes nothing; valid inputs are saved."""
    broad, (hp, weights, ema) = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        try:
            save_checkpoint(str(path), hp, weights, ema)
        except ValueError:
            assert broad and not path.exists()
            return
        hp2, weights2, ema2 = load_checkpoint(str(path))
    assert hp2 == hp
    for name, arr in named_arrays(weights).items():
        assert named_arrays(weights2)[name].tobytes() == arr.astype("<f4").tobytes()
        assert ema2[name].tobytes() == ema[name].astype("<f4").tobytes()


@pytest.mark.parametrize("hp, message", [
    (Hyperparams(hidden=3, attn_dim=2, vote_temperature=-1.0), "vote_temperature must be"),
    (Hyperparams(hidden=3, attn_dim=2, epochs=2.5), "hyperparameter epochs must be int"),
    (Hyperparams(hidden=2, attn_dim=2), "expected shape")])
def test_save_refuses_what_load_refuses(saved, tmp_path, hp, message):
    _, _, weights, ema = saved
    path = tmp_path / "bad.ckpt"
    with pytest.raises(ValueError, match=message):
        save_checkpoint(str(path), hp, weights, ema)
    assert not path.exists()
