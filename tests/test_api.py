import argparse
import types

import numpy as np
import pytest

import evholo
from evholo.cli import build_parser

#: The size of the public API; a change to it should be a deliberate one.
PUBLIC_NAMES = 66


def test_all_names_every_public_name_once():
    names = evholo.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(evholo, name) for name in names)
    public = {name for name, value in vars(evholo).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public
    assert len(names) == PUBLIC_NAMES


#: Each subcommand's options as (option strings, default, choices, required);
#: a new or changed knob should be a deliberate one.
CLI_OPTIONS = {
    "gen": [
        (("--f0",), None, None, True),
        (("--duration",), None, None, True),
        (("--rate-base",), 1000.0, None, False),
        (("--rate-peak",), 10000.0, None, False),
        (("--geometry",), "346x260", None, False),
        (("--seed",), 0, None, False),
        (("--out",), None, None, True),
    ],
    "validate": [
        (("--in",), None, None, True),
    ],
    "encode": [
        (("--in",), None, None, True),
        (("--view",), "chsr", ("chsr", "hw", "tw", "th"), False),
        (("--t-bins",), 224, None, False),
        (("--normalize",), "none", ("none", "per_channel_max", "log1p"), False),
        (("--out",), None, None, True),
        (("--pgm-dir",), None, None, False),
        (("--threads",), 1, None, False),
    ],
    "spectrum": [
        (("--in",), None, None, True),
        (("--bin-dt",), 0.01, None, False),
        (("--out-csv",), None, None, True),
    ],
    "gsg-demo": [
        (("--in",), None, None, True),
        (("--params",), None, None, False),
        (("--identity-init",), False, None, False),
        (("--out",), None, None, True),
        (("--check-grads",), False, None, False),
    ],
    "bench": [
        (("--in",), None, None, False),
        (("--synthetic",), None, None, False),
        (("--repeat",), 5, None, False),
        (("--out-json",), None, None, True),
    ],
}


def test_cli_options_match_the_table():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [(tuple(a.option_strings), a.default, a.choices and tuple(a.choices), a.required)
               for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_OPTIONS
    assert sum(map(len, surface.values())) == 27


_X = np.zeros((1, 4, 4))

# a bad value, and the EvholoError (also a ValueError) it must raise
BAD_VALUES = {
    "ragged columns": (lambda: evholo.EventColumns([1, 2], [1], [0, 1], [1, 1]),
                       evholo.ShapeMismatch),
    "stream geometry": (lambda: evholo.EventStream.from_arrays((0, 4), [], [], [], []),
                        evholo.ConfigInvalid),
    "HEVS geometry": (lambda: evholo.write_events_binary(evholo.EventStream.empty((1 << 16, 4))),
                      evholo.SpecInvalid),
    "HEVS coordinate": (lambda: evholo.write_events_binary(
        evholo.EventStream.from_arrays((8, 4), [-1], [0], [0], [1])), evholo.SpecInvalid),
    "HEVS timestamp": (lambda: evholo.write_events_binary(
        evholo.EventStream.from_arrays((8, 4), [1], [0], [-5], [1])), evholo.SpecInvalid),
    "negative rate": (lambda: evholo.RateSeries(0.01, [1, -1]), evholo.SpecInvalid),
    "oracle step": (lambda: evholo.finite_difference_oracle(
        _X, evholo.GsgParams.random(1, 4, 4), _X, 0, h=1e-3), evholo.ConfigInvalid),
    "uint64 beyond int64": (lambda: evholo.EventColumns(
        np.array([2 ** 63 + 5], dtype=np.uint64), [0], [0], [1]), evholo.SpecInvalid),
    "fractional column": (lambda: evholo.EventColumns([1.7], [0], [0], [1]), evholo.SpecInvalid),
    "fractional rate": (lambda: evholo.RateSeries(0.01, [1.5, 2.7]), evholo.SpecInvalid),
    "NaN column": (lambda: evholo.EventStream.from_arrays((8, 4), [0], [0], [np.nan], [1]),
                   evholo.SpecInvalid),
    "Inf rate": (lambda: evholo.RateSeries(0.01, [np.inf]), evholo.SpecInvalid),
    "column at 2**64": (lambda: evholo.EventColumns([2 ** 64], [0], [0], [1]), evholo.SpecInvalid),
    "column below int64": (lambda: evholo.EventColumns([0], [-2 ** 63 - 1], [0], [1]),
                           evholo.SpecInvalid),
    "complex column": (lambda: evholo.EventColumns([0], [0], [1 + 0j], [1]), evholo.SpecInvalid),
    "text column": (lambda: evholo.EventColumns(["1"], [0], [0], [1]), evholo.SpecInvalid),
    "HEVS polarity 300": (lambda: evholo.write_events_binary(
        evholo.EventStream.from_arrays((8, 4), [1], [0], [0], [300])), evholo.SpecInvalid),
    "HEVS polarity 5": (lambda: evholo.write_events_binary(
        evholo.EventStream.from_arrays((8, 4), [1], [0], [0], [5])), evholo.SpecInvalid),
    "HEVS polarity -2": (lambda: evholo.write_events_binary(
        evholo.EventStream.from_arrays((8, 4), [1], [0], [0], [-2])), evholo.SpecInvalid),
    "CSV polarity 5": (lambda: evholo.write_events_csv(
        evholo.EventStream.from_arrays((8, 4), [1], [0], [0], [5])), evholo.SpecInvalid),
    "HARC section count": (lambda: evholo.write_archive(
        dict.fromkeys(map(str, range(1 << 16)), np.zeros(1))), evholo.SpecInvalid),
    "HARC name length": (lambda: evholo.write_archive({"n" * (1 << 16): np.zeros(1)}),
                         evholo.SpecInvalid),
    "complex feature": (lambda: evholo.gsg_forward(_X + 1j, evholo.GsgParams.random(1, 4, 4)),
                        evholo.SpecInvalid),
    "complex rfft2 input": (lambda: evholo.rfft2(np.ones((2, 2)) + 1j), evholo.SpecInvalid),
    "text weights": (lambda: evholo.spectral_filter(_X, np.full((1, 4, 3), "1")),
                     evholo.SpecInvalid),
    "object kernels": (lambda: evholo.depthwise_conv3x3(_X, np.ones((1, 3, 3), dtype=object)),
                       evholo.SpecInvalid),
    "zero-channel params": (lambda: evholo.GsgParams.identity(0, 4, 4), evholo.ShapeMismatch),
    "empty half spectrum": (lambda: evholo.irfft2(np.ones((0, 3), dtype=complex), 4),
                            evholo.ShapeMismatch),
    "overflowing rfft2": (lambda: evholo.rfft2(np.full((2, 2), 1e308)), evholo.NonFinite),
    "ragged nested column": (lambda: evholo.EventStream.from_arrays(
        (4, 4), [[1, 2], [3]], [0], [0], [1]), evholo.ShapeMismatch),
    "ragged feature": (lambda: evholo.gsg_forward(
        [[[1.0, 2.0], [3.0]]], evholo.GsgParams.random(1, 2, 2)), evholo.ShapeMismatch),
    "ragged rate": (lambda: evholo.RateSeries(0.01, [[1], [2, 3]]), evholo.ShapeMismatch),
    "ragged rfft2 input": (lambda: evholo.rfft2([[1.0], [2.0, 3.0]]), evholo.ShapeMismatch),
    "phi sensor width 0": (lambda: evholo.phi([1], 0), evholo.ConfigInvalid),
    "phi fractional sensor width": (lambda: evholo.phi([1], 2.5), evholo.ConfigInvalid),
    "phi text x": (lambda: evholo.phi(["1"], 4), evholo.SpecInvalid),
    "phi bytes x": (lambda: evholo.phi(np.array([b"1"]), 4), evholo.SpecInvalid),
    "phi object x": (lambda: evholo.phi(np.array([1], dtype=object), 4), evholo.SpecInvalid),
    "phi complex x": (lambda: evholo.phi([1 + 0j], 4), evholo.SpecInvalid),
    "phi NaN x": (lambda: evholo.phi([np.nan], 4), evholo.NonFinite),
    "phi Inf x": (lambda: evholo.phi(np.inf, 4), evholo.NonFinite),
    "phi overflowing x": (lambda: evholo.phi([1e308], 1), evholo.NonFinite),
    "HARC bytes name": (lambda: evholo.write_archive({b"a": np.zeros(1)}), evholo.SpecInvalid),
    "HARC int name": (lambda: evholo.write_archive([(3, np.zeros(1))]), evholo.SpecInvalid),
    "HARC surrogate name": (lambda: evholo.write_archive({"\ud800": np.zeros(1)}),
                            evholo.SpecInvalid),
}


@pytest.mark.parametrize("name", BAD_VALUES)
def test_bad_values_raise_evholo_errors(name):
    call, error = BAD_VALUES[name]
    with pytest.raises(error) as raised:
        call()
    assert isinstance(raised.value, evholo.EvholoError)
    assert isinstance(raised.value, ValueError)


def test_events_of_the_wrong_type_stay_a_type_error():
    # a caller's programming error, not malformed input
    with pytest.raises(TypeError) as raised:
        evholo.EventStream((4, 4), [(1, 2, 3, 1)])
    assert not isinstance(raised.value, evholo.EvholoError)
