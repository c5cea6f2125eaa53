import argparse
import types

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
