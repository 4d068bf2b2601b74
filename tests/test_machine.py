"""Machine config loading, the power model, and the L1 LRU model."""

from __future__ import annotations

from fractions import Fraction

import pytest

from daef.machine import L1Config, LruCache, MachineConfig, MachineError, load_machine


def test_default_config_shape():
    m = MachineConfig()
    assert m.f_max_ghz == Fraction("3.4")
    assert m.f_min_ghz == Fraction("1.6")
    assert m.l1.capacity_bytes == 32768
    assert m.l1.line_bytes == 64
    assert m.l1.ways == 8
    assert m.l1.n_sets == 64
    assert m.l1.hit_cycles == 4
    assert m.mem_latency_ns == 60
    assert m.mshr_count == 10
    assert m.dvfs_switch_ns == 100
    assert m.jit_ns_per_instr == 50


def test_memory_latency_scales_with_frequency():
    m = MachineConfig()
    # 60 ns of wall latency costs more cycles at the faster clock.
    assert m.mem_latency_cycles(m.f_max_ghz) == 204
    assert m.mem_latency_cycles(m.f_min_ghz) == 96
    assert m.mem_latency_cycles(Fraction(2)) == 120


def test_power_model_anchor_points():
    m = MachineConfig()
    assert m.power(m.f_max_ghz, Fraction(1)) == 4
    assert m.power(m.f_max_ghz, Fraction(0)) == Fraction(19, 10)
    # At f_min the voltage ratio bottoms out at 0.8.
    assert m.voltage_ratio(m.f_min_ghz) == Fraction(4, 5)
    assert m.voltage_ratio(m.f_max_ghz) == 1
    expect = 1 + 3 * Fraction(16, 25) * (Fraction("1.6") / Fraction("3.4")) * Fraction(13, 20)
    assert m.power(m.f_min_ghz, Fraction(1, 2)) == expect
    assert expect == 1 + Fraction(4992, 8500)


def test_power_is_monotone_in_frequency_and_ipc():
    m = MachineConfig()
    f_lo = m.power(m.f_min_ghz, Fraction(1, 2))
    f_hi = m.power(m.f_max_ghz, Fraction(1, 2))
    assert f_lo < f_hi
    assert m.power(m.f_max_ghz, Fraction(0)) < m.power(m.f_max_ghz, Fraction(1))


def test_power_rejects_out_of_range():
    m = MachineConfig()
    with pytest.raises(MachineError):
        m.power(Fraction(5), Fraction(1, 2))
    with pytest.raises(MachineError):
        m.power(Fraction(1), Fraction(1, 2))
    with pytest.raises(MachineError):
        m.power(m.f_max_ghz, Fraction(2))
    with pytest.raises(MachineError):
        m.power(m.f_max_ghz, Fraction(-1))


def test_json_round_trip_and_digest_stability():
    m = MachineConfig()
    again = MachineConfig.from_json(m.to_json())
    assert again == m
    assert again.digest() == m.digest()
    other = MachineConfig.from_json({**m.to_json(), "mshr_count": 1})
    assert other.digest() != m.digest()


def test_default_digest_is_pinned():
    # Stored profiles carry this digest; a change to the JSON form of the
    # config would make every one of them stale.
    assert MachineConfig().digest() == \
        "ee81819f558647179c902360303b64a416ee4d704a9b3cc9fdc68176ebd0632e"


@pytest.mark.parametrize("patch, message", [
    ({"bogus": 1}, "unknown keys"),
    ({"l1": {"capacity_bytes": 32768, "line_bytes": 64, "ways": 8,
             "hit_cycles": 4, "extra": 0}}, "unknown keys"),
    ({"power": {"p_static": 1.0, "c_dyn": 3.0, "alpha": 0.3, "beta": 0.7,
                "v_min_ratio": 0.8, "zeta": 1}}, "unknown keys"),
    ({"f_min_ghz": 4.0}, "f_min"),
    ({"f_max_ghz": 0}, "positive"),
    ({"f_min_ghz": 1e-320}, "[0.001, 1000] GHz"),
    ({"f_max_ghz": 1000.001}, "[0.001, 1000] GHz"),
    ({"l1": {"capacity_bytes": 100, "line_bytes": 64}}, "multiple"),
    ({"l1": {"capacity_bytes": 128, "line_bytes": 64, "ways": 8}}, "ways"),
    ({"power": {"alpha": 0.5, "beta": 0.6}}, "alpha + beta"),
    ({"power": {"v_min_ratio": 0.0}}, "v_min_ratio"),
    ({"mshr_count": 0}, "mshr_count"),
    ({"mem_latency_ns": "fast"}, "number"),
    ({"mshr_count": 2.5}, "integer"),
    ({"ipc_max": 0}, "ipc_max"),
    ({"ipc_max": 0.5}, "ipc_max"),
    # 2**34 sets if it were built: only the capacity bound stands between
    # this config and an out-of-memory.
    ({"l1": {"capacity_bytes": 2**40, "line_bytes": 64, "ways": 1}},
     "capacity_bytes must not exceed"),
])
def test_config_rejections(patch, message):
    with pytest.raises(MachineError) as err:
        MachineConfig.from_json({**MachineConfig().to_json(), **patch})
    assert message in str(err.value)


def test_load_machine_from_file(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"f_max_ghz": 2.0, "f_min_ghz": 1.0}')
    m = load_machine(p)
    assert m.f_max_ghz == 2
    assert m.l1 == L1Config()  # defaults fill the rest
    assert load_machine(None) == MachineConfig()
    p.write_text('{"f_max_ghz": ')
    with pytest.raises(MachineError) as err:
        load_machine(p)
    assert "offset" in str(err.value)


# -- LRU cache ---------------------------------------------------------------


def tiny_cache(ways=2, sets=2):
    return LruCache(L1Config(capacity_bytes=64 * ways * sets, line_bytes=64,
                             ways=ways, hit_cycles=1))


def test_lru_eviction_order():
    c = tiny_cache(ways=2, sets=1)
    assert c.install(10) is None
    assert c.install(11) is None
    c.touch(10)               # 11 is now least recent
    assert c.install(12) == 11
    assert c.contains(10) and c.contains(12) and not c.contains(11)


def test_sets_are_independent():
    c = tiny_cache(ways=1, sets=2)
    c.install(4)   # even set
    c.install(5)   # odd set
    assert c.contains(4) and c.contains(5)
    assert c.install(6) == 4   # evicts within the even set only
    assert c.contains(5)


def test_reinstall_resident_line_keeps_size():
    c = tiny_cache(ways=2, sets=1)
    c.install(1)
    c.install(2)
    assert c.install(1) is None  # refresh, not a second copy
    assert c.resident_lines() == {1, 2}
    assert c.install(3) == 2     # 2 was least recent after the refresh


def test_line_mapping():
    c = tiny_cache()
    assert c.line_of(0) == 0
    assert c.line_of(63) == 0
    assert c.line_of(64) == 1
