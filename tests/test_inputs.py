"""The JSON codec behind machine configs and stored profiles, and a seeded
fuzz of both files and of kernel text through the command line."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from conftest import SUM_KERNEL, mutate_dir, mutate_json
from daef.cli import main
from daef.inputs import from_json, to_json
from daef.ir import DirError, parse_program, validate_program
from daef.kernels import builtin_kernels
from daef.machine import MachineConfig
from daef.machsim import MODES
from daef.profiler import profiled_baseline, report_to_json


class CodecError(ValueError):
    pass


@dataclass(frozen=True)
class Inner:
    n: int
    x: Fraction = Fraction(1, 2)


@dataclass(frozen=True)
class Outer:
    name: str
    items: list[Inner]
    ratio: float = field(default=0.0, metadata={"json": "r"})

    def __post_init__(self):
        if self.ratio < 0:
            raise CodecError("ratio must be non-negative")


def decode(data) -> Outer:
    return from_json(Outer, data, "doc", CodecError)


def refusal(data) -> str:
    with pytest.raises(CodecError) as err:
        decode(data)
    return str(err.value)


def test_codec_round_trip_uses_json_keys_and_exact_decimals():
    doc = {"name": "a", "items": [{"n": 3, "x": 0.1}, {"n": -2}], "r": 2}
    got = decode(doc)
    assert got == Outer("a", [Inner(3, Fraction(1, 10)), Inner(-2)], 2.0)
    assert type(got.ratio) is float
    assert to_json(got) == {"name": "a", "items": [{"n": 3, "x": 0.1},
                                                   {"n": -2, "x": 0.5}],
                            "r": 2.0}


def test_codec_refuses_unknown_keys_at_every_level():
    assert refusal({"name": "a", "items": [], "s": 1}) == \
        "doc: unknown keys ['s']"
    assert refusal({"name": "a", "items": [{"n": 1, "y": 0}]}) == \
        "doc: items[0]: unknown keys ['y']"


def test_codec_requires_fields_without_a_default():
    assert refusal({"items": []}) == "doc: missing key 'name'"
    assert refusal({"name": "a", "items": [{"x": 1}]}) == \
        "doc: items[0]: missing key 'n'"
    assert decode({"name": "a", "items": []}).ratio == 0.0


@pytest.mark.parametrize("items, expected", [
    ([{"n": True}], "expected an integer, got bool"),
    ([{"n": 1.0}], "expected an integer, got float"),
    ([{"n": 1, "x": False}], "expected a number, got bool"),
    ([{"n": 1, "x": "1"}], "expected a number, got str"),
    ({"n": 1}, "expected a list, got dict"),
    ([[1]], "expected an object, got list"),
])
def test_codec_checks_each_value_against_its_annotated_type(items, expected):
    assert expected in refusal({"name": "a", "items": items})
    assert "wrong type" in refusal({"name": 7, "items": []})


@pytest.mark.parametrize("value", [10**400, -10**400, float("inf"),
                                   float("nan")])
def test_codec_refuses_numbers_that_do_not_fit_a_float(value):
    assert refusal({"name": "a", "items": [], "r": value}) == \
        "doc: r: expected a finite number that fits a float"
    assert "items[0]: x: expected a finite number" in \
        refusal({"name": "a", "items": [{"n": 1, "x": value}]})
    # Integers have no such bound.
    assert decode({"name": "a", "items": [{"n": 10**400}]}).items[0].n == 10**400


def test_codec_prefixes_range_errors_with_the_object_location():
    assert refusal({"name": "a", "items": [], "r": -1}) == \
        "doc: ratio must be non-negative"


# -- every Fraction of a machine config past the float range -----------------

FRACTION_KEYS = [("f_max_ghz",), ("f_min_ghz",), ("mem_latency_ns",),
                 ("dvfs_switch_ns",), ("jit_ns_per_instr",),
                 ("power", "p_static"), ("power", "c_dyn"), ("power", "alpha"),
                 ("power", "beta"), ("power", "v_min_ratio")]


@pytest.mark.parametrize("keys", FRACTION_KEYS, ids=".".join)
def test_cli_machine_fraction_past_the_float_range_is_exit_2(tmp_path, capsys,
                                                             keys):
    config = MachineConfig().to_json()
    *outer, last = keys
    target = config[outer[0]] if outer else config
    target[last] = 10**400
    path = tmp_path / "m.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--kernel", "stream_sum", "--machine", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"daef: {path}: {': '.join(keys)}: expected a finite"
                   " number that fits a float\n")


# -- seeded fuzz of both JSON inputs -----------------------------------------


def assert_exit_0_or_2(argv: list[str], capsys) -> int:
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 2), (argv, rc, err)
    if rc == 2:
        assert err.startswith("daef: ") and err.count("\n") == 1, err
    return rc


def test_fuzzed_machine_and_profile_files_exit_0_or_2(tmp_path, capsys):
    """Random edits of the default machine config and of a stored profile
    of a small kernel either run or exit 2 with one `daef:` line."""
    kernel = tmp_path / "sum.dir"
    kernel.write_text(SUM_KERNEL)
    path = tmp_path / "in.json"
    machine = MachineConfig().to_json()
    profile = report_to_json(profiled_baseline(parse_program(SUM_KERNEL),
                                               MachineConfig())[1])
    rng = random.Random(2027)
    n = 300  # files of each kind; about 2 s in all
    codes = []
    for _ in range(n):
        path.write_text(json.dumps(mutate_json(rng, machine, rng.randint(1, 3))))
        codes.append(assert_exit_0_or_2(
            ["profile", "--kernel", str(kernel), "--machine", str(path)], capsys))
    for _ in range(n):
        path.write_text(json.dumps(mutate_json(rng, profile, rng.randint(1, 3))))
        codes.append(assert_exit_0_or_2(
            ["run", "--kernel", str(kernel), "--mode", "static_dae",
             "--profile", str(path), "--allow-stale"], capsys))
    # Both outcomes occur for each file.
    assert {0, 2} <= set(codes[:n]) and {0, 2} <= set(codes[n:])


def test_fuzzed_kernel_text_raises_only_dir_errors_and_exits_0_or_2(tmp_path,
                                                                   capsys):
    """Token mutants of the built-in kernels and of SUM_KERNEL: parsing and
    validating raise nothing but DirError, and `daef run` in a random mode
    and slice size either runs or exits 2 with one `daef:` line."""
    texts = [k.text for k in builtin_kernels()] + [SUM_KERNEL]
    path = tmp_path / "k.dir"
    rng = random.Random(29)
    codes = []
    for i in range(2000):  # about 1 s to parse and validate
        text = mutate_dir(rng, rng.choice(texts), rng.randint(1, 3))
        try:
            valid = not validate_program(parse_program(text))
        except DirError:
            valid = False
        # The 1-2% of mutants that validate, and every 100th other one,
        # also run through the command line: about 1 s more.
        if valid or i % 100 == 0:
            path.write_text(text)
            codes.append(assert_exit_0_or_2(
                ["run", "--kernel", str(path), "--mode", rng.choice(MODES),
                 "--slice", str(rng.choice((4, 64, 1024)))], capsys))
    assert {0, 2} <= set(codes)
