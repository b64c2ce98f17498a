"""Tests for MachineState, Loc/MemLoc, and TestCase."""

import dataclasses
import random
import struct

import pytest

from repro.fp.ieee754 import bits_to_double, double_to_bits
from repro.x86.locations import Loc, MemLoc, parse_loc
from repro.x86.memory import Memory, Segment
from repro.x86.operands import Mem, Reg32, Reg64, Xmm
from repro.x86.state import MachineState
from repro.x86.testcase import TestCase, decode_from, encode_for, uniform_testcases


class TestMachineState:
    def test_gp32_write_zero_extends(self):
        state = MachineState()
        state.gp[0] = 0xFFFFFFFFFFFFFFFF
        state.write_gp32(Reg32(0), 0x1234)
        assert state.gp[0] == 0x1234

    def test_xmm_lo_write_preserves_high(self):
        state = MachineState()
        state.xmm_hi[2] = 99
        state.write_xmm_lo(Xmm(2), 5)
        assert state.xmm_hi[2] == 99

    def test_effective_address(self):
        state = MachineState()
        state.gp[1] = 0x1000
        state.gp[0] = 4
        assert state.addr(Mem(8, 1, 16, index=0, scale=8)) == 0x1030

    def test_read64_from_imm_masks(self):
        from repro.x86.operands import Imm

        state = MachineState()
        assert state.read64(Imm(-1)) == 0xFFFFFFFFFFFFFFFF

    def test_copy_isolates(self):
        state = MachineState(Memory([Segment("s", 0, bytes(8))]))
        dup = state.copy()
        dup.gp[0] = 7
        dup.mem.store8(0, 42)
        assert state.gp[0] == 0
        assert state.mem.load8(0) == 0


class TestLocations:
    def test_parse_grammar(self):
        assert parse_loc("rax") == Loc("rax", 0, 64, "i64")
        assert parse_loc("eax").width == 32
        assert parse_loc("xmm0") == Loc("xmm0", 0, 64, "f64")
        assert parse_loc("xmm0:hd").lane == 1
        assert parse_loc("xmm3:s2") == Loc("xmm3", 2, 32, "f32")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_loc("xmm0:q9")
        with pytest.raises(ValueError):
            parse_loc("notareg")

    def test_str_roundtrip(self):
        for text in ("rax", "xmm0:d", "xmm0:hd", "xmm1:s0", "xmm1:s3"):
            assert str(parse_loc(text)) in (text, text.replace(":d", ""))

    def test_lane_read_write(self):
        state = MachineState()
        loc = parse_loc("xmm0:s1")
        loc.write(state, 0xABCD)
        assert state.xmm_lo[0] == 0xABCD_00000000
        assert loc.read(state) == 0xABCD

    def test_high_lane_read_write(self):
        state = MachineState()
        loc = parse_loc("xmm0:s3")
        loc.write(state, 0x1111)
        assert state.xmm_hi[0] == 0x1111_00000000
        assert loc.read(state) == 0x1111

    def test_memloc(self):
        state = MachineState(Memory([Segment("buf", 0x100, bytes(16))]))
        loc = MemLoc("buf", 4, "f32")
        loc.write(state, 0x3F800000)
        assert loc.read(state) == 0x3F800000
        assert state.mem.load4(0x104) == 0x3F800000

    def test_memloc_str(self):
        assert str(MemLoc("v1", 8, "f32")) == "[v1+8]:f32"

    def test_parse_interns(self):
        # Equal locations parse to one object, whatever the spelling, so
        # live-in dicts built from parsed locations match by identity.
        assert parse_loc("xmm0") is parse_loc("xmm0:d")
        assert parse_loc("xmm0") is parse_loc(" %xmm0 ")
        assert parse_loc("eax") is parse_loc("eax")
        assert parse_loc("[v1+8]:f32") is parse_loc("[v1+8]:f32")
        assert parse_loc("xmm0") is not parse_loc("xmm0:hd")

    def test_interning_is_bounded(self, monkeypatch):
        # Past the bound a parse still gives an equal location, but
        # remembers nothing more.
        from repro.x86 import locations

        monkeypatch.setattr(locations, "_PARSED_MAX",
                            len(locations._PARSED))
        first = parse_loc("[bounded+8]:f64")
        assert first == MemLoc("bounded", 8, "f64")
        assert parse_loc("[bounded+8]:f64") is not first
        assert "[bounded+8]:f64" not in locations._PARSED

    def test_hash_is_the_dataclass_hash(self):
        for loc in (Loc("xmm3", 1, 32, "f32"), MemLoc("v1", 8, "f32")):
            fields = dataclasses.astuple(loc)
            assert hash(loc) == hash(fields)
            assert hash(loc) == hash(fields)  # the cached value
            assert loc == type(loc)(*fields)

    def test_pickle_drops_the_cached_hash(self):
        # String hashes differ between processes, and locations are sent
        # to parallel-search and job processes: a location pickled under
        # one PYTHONHASHSEED must hash and compare equal after loading
        # under another.
        import os
        import subprocess
        import sys

        code = ("import pickle, sys\n"
                "from repro.x86.locations import parse_loc\n"
                "if sys.argv[1] == 'dump':\n"
                "    locs = [parse_loc(t) for t in sys.argv[2:]]\n"
                "    [hash(loc) for loc in locs]\n"
                "    sys.stdout.buffer.write(pickle.dumps(locs))\n"
                "else:\n"
                "    locs = pickle.loads(sys.stdin.buffer.read())\n"
                "    fresh = [parse_loc(t) for t in sys.argv[2:]]\n"
                "    table = dict.fromkeys(fresh, 1)\n"
                "    assert [hash(a) for a in locs] == "
                "[hash(b) for b in fresh]\n"
                "    assert locs == fresh\n"
                "    assert all(table[loc] for loc in locs)\n"
                "    print('ok')\n")
        texts = ["xmm0", "xmm1:s2", "rax", "eax", "[scratch+8]:f64"]
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")

        def run(seed, mode, data=b""):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.abspath(src))
            return subprocess.run([sys.executable, "-c", code, mode, *texts],
                                  input=data, capture_output=True, env=env,
                                  check=True).stdout

        assert run("2", "load", run("1", "dump")) == b"ok\n"


class TestTestCase:
    def test_from_values_encodes_by_type(self):
        tc = TestCase.from_values({"xmm0": 1.5, "rax": 7})
        assert tc.value_of("xmm0") == double_to_bits(1.5)
        assert tc.value_of("rax") == 7

    def test_build_state_applies_inputs(self):
        tc = TestCase.from_values({"xmm0": 2.0, "rcx": 0x10})
        state = tc.build_state()
        assert bits_to_double(state.xmm_lo[0]) == 2.0
        assert state.gp[1] == 0x10

    def test_build_state_is_fresh_each_time(self):
        tc = TestCase.from_values({"xmm0": 2.0},
                                  [Segment("s", 0, bytes(8))])
        first = tc.build_state()
        first.mem.store8(0, 99)
        second = tc.build_state()
        assert second.mem.load8(0) == 0

    def test_replace(self):
        tc = TestCase.from_values({"xmm0": 1.0})
        modified = tc.replace("xmm0", double_to_bits(3.0))
        assert tc.value_of("xmm0") == double_to_bits(1.0)
        assert modified.value_of("xmm0") == double_to_bits(3.0)

    def test_memloc_inputs(self):
        loc = MemLoc("buf", 0, "f32")
        tc = TestCase.from_values({loc: 1.5},
                                  [Segment("buf", 0x100, bytes(8))])
        state = tc.build_state()
        assert state.mem.load4(0x100) == struct.unpack(
            "<I", struct.pack("<f", 1.5))[0]

    def test_encode_decode_roundtrip(self):
        loc = parse_loc("xmm0")
        assert decode_from(loc, encode_for(loc, 3.25)) == 3.25
        lane = parse_loc("xmm0:s0")
        assert decode_from(lane, encode_for(lane, 0.5)) == 0.5

    def test_uniform_testcases_respect_ranges(self):
        rng = random.Random(0)
        cases = uniform_testcases(rng, 50, {"xmm0": (-2.0, 3.0)})
        assert len(cases) == 50
        for tc in cases:
            value = bits_to_double(tc.value_of("xmm0"))
            assert -2.0 <= value <= 3.0
