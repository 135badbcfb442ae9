"""The primitives every golden digest rests on, each pinned on its own.

A golden digest that moves says only that some output changed.  Each case
here hashes a short fixed draw from one primitive (a ``Generator`` method,
``SeedSequence``, the FFT, the window or the CSV float format), so a numpy
or Python release that changes a stream fails the case named after that
primitive.
"""

import hashlib
import math

import numpy as np
import pytest

from ndtrap.io import _fmt


def _rng():
    return np.random.default_rng(20240601)


def _spawn():
    children = np.random.SeedSequence(20240601).spawn(3)
    return np.concatenate([c.generate_state(4) for c in children])


# float64 values and numpy scalars as the CSV writer formats them
FLOATS = (1.0 / 3.0, 0.1 + 0.2, 5e-324, -0.0, 1e16, 2.5e-7, 123456789.125,
          np.float64(280.14), np.float32(0.1), math.pi * 1e20, math.inf)


def _rfft():
    j = np.arange(257.0)
    return np.fft.rfft(np.cos(0.37 * j) * (1.0 + 0.01 * j))


# name -> (draw, SHA-256 of its little-endian bytes or text), made with numpy
# 2.4.6 and Python 3.11.7
PRIMITIVES = {
    "Generator.uniform": (
        lambda: _rng().uniform(-3.0, 5.0, 64),
        "0e4440312db8534c61fad40a205d9f6e95fa5b3b6ad1e1dc7209df8ed2106430"),
    "Generator.exponential": (
        lambda: _rng().exponential(2.5, 64),
        "a47309c2b4db236658e91b078da831afaac815364f6dbbeb9b14b470c659a2fa"),
    "Generator.gamma[shape 0.5]": (
        lambda: _rng().gamma(0.5, 2.0, 64),
        "db7c1c6a0e5d1e1844ee79c8c72ae33a4733a999059b39b4181ac1438902d801"),
    "Generator.gamma[shape 40]": (
        lambda: _rng().gamma(40.0, 2.0, 64),
        "10bab31b38bb8de461711c1a2a1adce3461f24084c5c5a78d611942bc2c52471"),
    # small and large n * p take different samplers
    "Generator.binomial": (
        lambda: _rng().binomial(np.tile([0, 1, 3, 10, 50, 200, 1000, 5000], 8),
                                0.3).astype(np.int64),
        "735c06a2e785a7555e80435165c8561755f35373fe7c8efbbc994af08b74a07f"),
    "Generator.standard_normal": (
        lambda: _rng().standard_normal(64),
        "f839a23ea8f44b2a06e6101cdfc6f9265d7b6d1cd2abce72399f1cdd11ce3e64"),
    "Generator.random": (
        lambda: _rng().random((32, 3)),
        "9e43fc76d2f3e7c4fdffa0ce65d4554464ed3a4de49b7a6aa318f6e880a1f6ae"),
    "SeedSequence.spawn": (
        _spawn,
        "bce9186728503b7b279ed805ce79763f63683a63789b6bfc6871a3a887326103"),
    "SeedSequence.generate_state": (
        lambda: np.random.SeedSequence(20240601).generate_state(8),
        "a5d48c8883f1ce60d2d72121ab1e0ac2c4d42d9b76dfa5f519b7d60c4bc171d7"),
    "np.fft.rfft": (
        _rfft,
        "9c86d9ff7eb818cbeabf5e6589cbc8f2f3aebbdfa17cf338c33a33bca7cb233d"),
    "np.hanning": (
        lambda: np.hanning(101),
        "b395e8d64d8d51bd63b4387f0fc51d0fb52e4ee61e468e49d59bb477dd239548"),
    "io._fmt float repr": (
        lambda: ",".join(_fmt(v) for v in FLOATS),
        "fe6be9993d0bea67a291e4f71aeaf6c720bb719722a747c7fa50d3b47766c588"),
}


def digest(values):
    if isinstance(values, str):
        return hashlib.sha256(values.encode()).hexdigest()
    a = np.asarray(values)
    return hashlib.sha256(a.astype(a.dtype.newbyteorder("<")).tobytes()).hexdigest()


@pytest.mark.parametrize("name", list(PRIMITIVES))
def test_primitive_stream_pinned(name):
    draw, expected = PRIMITIVES[name]
    assert digest(draw()) == expected, f"the {name} stream moved"


def test_moved_stream_names_its_primitive(monkeypatch):
    monkeypatch.setattr(np, "hanning", np.hamming)
    with pytest.raises(AssertionError, match="the np.hanning stream moved"):
        test_primitive_stream_pinned("np.hanning")
