import argparse
import ast
import types
from pathlib import Path

import numpy as np
import pytest

import evholo
from evholo.cli import build_parser

#: The size of the public API; a change to it should be a deliberate one.
PUBLIC_NAMES = 67


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
_STREAM = evholo.EventStream.from_arrays((4, 3), [0, 3], [0, 2], [0, 5], [1, -1])
_SPEC = dict(f0=1.0, duration_s=1.0, base_rate=0.0, peak_rate=10.0, geometry=(8, 8),
             motion_amplitude=1.0, seed=0)

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
    # scalars: each goes through one integer or one real check
    "fractional workers": (lambda: evholo.encode_chsr(_STREAM, workers=1.5), evholo.ConfigInvalid),
    "fractional repeats": (lambda: evholo.encode_throughput(_STREAM, 1.5), evholo.SpecInvalid),
    "fractional n_events": (lambda: evholo.synthetic_uniform_stream(1.5), evholo.SpecInvalid),
    "text n_events": (lambda: evholo.synthetic_uniform_stream("3"), evholo.SpecInvalid),
    "fractional t_bins": (lambda: _STREAM.time_bins(1.5), evholo.ConfigInvalid),
    "span times t_bins past int64": (lambda: evholo.EventStream.from_arrays(
        (4, 3), [0, 3], [0, 2], [0, 2 ** 62], [1, -1]).time_bins(4), evholo.TooLarge),
    "NumPy bins past the plane guard": (lambda: evholo.encode_chsr(_STREAM, evholo.EncodeConfig(
        t_bins=np.int64(2 ** 40), h_bins=np.int64(2 ** 40))), evholo.TooLarge),
    "geometry of three sides": (lambda: evholo.EventStream.from_arrays(
        (4, 4, 4), [1], [1], [0], [1]), evholo.ConfigInvalid),
    "geometry None": (lambda: evholo.EventStream.from_arrays(None, [1], [1], [0], [1]),
                      evholo.ConfigInvalid),
    "spec geometry of three sides": (lambda: evholo.PeriodicGenSpec(
        **{**_SPEC, "geometry": (8, 8, 8)}), evholo.SpecInvalid),
    "fractional spec seed": (lambda: evholo.PeriodicGenSpec(**{**_SPEC, "seed": 1.5}),
                             evholo.SpecInvalid),
    "spec seed None": (lambda: evholo.PeriodicGenSpec(**{**_SPEC, "seed": None}),
                       evholo.SpecInvalid),
    "text spec f0": (lambda: evholo.PeriodicGenSpec(**{**_SPEC, "f0": "a"}), evholo.SpecInvalid),
    "fractional params channels": (lambda: evholo.GsgParams.identity(1.5, 2, 2),
                                   evholo.ShapeMismatch),
    "zero params cols": (lambda: evholo.GsgParams.identity(1, 2, 0), evholo.ShapeMismatch),
    "negative params seed": (lambda: evholo.GsgParams.random(1, 2, 2, seed=-1),
                             evholo.ConfigInvalid),
    # byte sizes past int64, refused before any allocation
    "params past int64": (lambda: evholo.GsgParams.identity(2**62, 1, 1), evholo.TooLarge),
    "random params past int64": (lambda: evholo.GsgParams.random(2**40, 2**20, 2),
                                 evholo.TooLarge),
    "irfft2 zero cols": (lambda: evholo.irfft2(np.ones((2, 1), dtype=complex), 0),
                         evholo.ShapeMismatch),
    "irfft2 fractional cols": (lambda: evholo.irfft2(np.ones((2, 1), dtype=complex), 1.5),
                               evholo.ShapeMismatch),
    "zero difference step": (lambda: evholo.central_difference(
        lambda v: float(v.sum()), np.zeros(3), 1, 0.0), evholo.ConfigInvalid),
    "Inf rate bin": (lambda: evholo.RateSeries(np.inf, [1, 2, 3, 4]), evholo.BadBin),
    "Inf spectrum df": (lambda: evholo.Spectrum(np.inf, [1.0, 2.0]).frequencies(), evholo.BadBin),
    "text rate bin": (lambda: evholo.event_rate_series(_STREAM, "a"), evholo.BadBin),
    "text spectrum df": (lambda: evholo.Spectrum("a", [1.0]), evholo.BadBin),
    "PGM of a NaN channel": (lambda: evholo.export_channel_image(
        evholo.ChsrTensor(np.array([[[np.nan, 1.0]]]), 0, evholo.EncodeConfig()), 0),
                             evholo.NonFinite),
    "PGM of a range past float64": (lambda: evholo.export_channel_image(
        evholo.ChsrTensor(np.array([[[-1e308, 1e308]]]), 0, evholo.EncodeConfig()), 0),
                                    evholo.NonFinite),
    "ragged tensor": (lambda: evholo.write_tensor([[1.0], [2.0, 3.0]]), evholo.ShapeMismatch),
    # byte readers take a buffer, never text or an int
    **{f"{read.__name__} of {kind}": (lambda read=read, v=v: read(v), evholo.SpecInvalid)
       for read in (evholo.parse_events_csv, evholo.parse_events_binary, evholo.read_tensor,
                    evholo.read_archive)
       for kind, v in (("text", "HEVS"), ("an int", 3))},
}

# an index out of range, and the EvholoError (also an IndexError) it must raise
BAD_INDEXES = {
    "fractional channel": (lambda: evholo.export_channel_image(
        evholo.encode_chsr(_STREAM, evholo.EncodeConfig(t_bins=2)), 1.5),
                           evholo.ChannelOutOfRange),
    "fractional selector": (lambda: evholo.finite_difference_oracle(
        _X, evholo.GsgParams.random(1, 4, 4), _X, 1.5), evholo.SelectorOutOfRange),
    "difference index past theta": (lambda: evholo.central_difference(
        lambda v: float(v.sum()), np.zeros(3), 5, 1e-4), evholo.SelectorOutOfRange),
}


@pytest.mark.parametrize("name", BAD_VALUES)
def test_bad_values_raise_evholo_errors(name):
    call, error = BAD_VALUES[name]
    with pytest.raises(error) as raised:
        call()
    assert isinstance(raised.value, evholo.EvholoError)
    assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize("name", BAD_INDEXES)
def test_bad_indexes_raise_evholo_index_errors(name):
    call, error = BAD_INDEXES[name]
    with pytest.raises(error) as raised:
        call()
    assert isinstance(raised.value, evholo.EvholoError)
    assert isinstance(raised.value, IndexError)


def test_events_of_the_wrong_type_stay_a_type_error():
    # a caller's programming error, not malformed input
    with pytest.raises(TypeError) as raised:
        evholo.EventStream((4, 4), [(1, 2, 3, 1)])
    assert not isinstance(raised.value, evholo.EvholoError)


def test_an_unknown_field_name_stays_a_key_error():
    # the mapping protocol's signal of a caller's programming error
    with pytest.raises(KeyError) as raised:
        evholo.EventStream.empty((4, 4)).events["q"]
    assert not isinstance(raised.value, evholo.EvholoError)


SRC = Path(__file__).resolve().parents[1] / "src" / "evholo"

#: The package's modules; adding or removing one should be a deliberate change.
MODULES = {"__init__", "cli", "encode", "errors", "events", "gsg", "spectral", "tensorio"}

#: The intake checks and their bounds, defined in `errors` alone.
INTAKE_NAMES = {"_INT64_MAX", "_TINY", "_HUGE", "_TWO_63", "_integer", "_positive", "_asarray",
                "_bytes", "_int64_column", "_checked", "_no_overflow"}


def _package_modules():
    """{module: (names it defines at top level, {sibling: names imported from it})}."""
    modules = {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined, siblings = set(), {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("evholo") for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                assert node.module.split(".")[0] != "evholo", path.name
            elif isinstance(node, ast.ImportFrom) and node.module:  # from .sibling import names
                siblings.setdefault(node.module, set()).update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):  # from . import sibling
                siblings.update((a.name, set()) for a in node.names)
        modules[path.stem] = defined, siblings
    return modules


def test_layers_take_private_names_only_from_errors():
    modules = _package_modules()
    assert set(modules) == MODULES
    private = sorted((m, sib, name) for m, (_, siblings) in modules.items()
                     for sib, names in siblings.items() if sib != "errors"
                     for name in names if name.startswith("_"))
    assert private == []
    for m, (defined, _) in modules.items():
        assert defined & INTAKE_NAMES == (INTAKE_NAMES if m == "errors" else set()), m
    assert set(modules["events"][1]) == set(modules["tensorio"][1]) == {"errors"}
    edges = sum(len(siblings) for m, (_, siblings) in modules.items() if m != "__init__")
    assert edges <= 15
    # t as stored (a record view with its shift pending) is the event model's own
    reads = sorted((path.stem, node.lineno) for path in SRC.glob("*.py") if path.stem != "events"
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute) and node.attr == "_t")
    assert reads == []


def test_each_public_name_is_declared_once_in_its_module():
    init = ast.parse((SRC / "__init__.py").read_text())
    order = [node.module for node in init.body if isinstance(node, ast.ImportFrom)]
    assert sorted(order) == sorted(MODULES - {"__init__", "cli"})
    modules, joined = _package_modules(), []
    for m in order:
        (declared,) = [node for node in ast.parse((SRC / f"{m}.py").read_text()).body
                       if "__all__" in {t.id for t in ast.walk(node) if isinstance(t, ast.Name)}]
        assert isinstance(declared, ast.Assign) and isinstance(declared.value, ast.List), m
        names = [ast.literal_eval(e) for e in declared.value.elts]
        assert all(isinstance(n, str) and n.isidentifier() for n in names), m
        assert set(names) <= modules[m][0], m
        assert not [n for n in names if n.startswith("_")], m
        joined += names
    assert evholo.__all__ == joined
    assert len(joined) == len(set(joined))
    # `__init__` re-exports the lists and names no public name itself
    written = {n.id for n in ast.walk(init) if isinstance(n, ast.Name)}
    written |= {n.value for n in ast.walk(init) if isinstance(n, ast.Constant)}
    written |= {a.asname or a.name for a in ast.walk(init) if isinstance(a, ast.alias)}
    assert written & set(joined) == set()
