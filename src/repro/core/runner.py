"""Shared program-execution plumbing for cost functions and validation.

A :class:`Runner` binds the live-out locations and a backend choice
(any name in :func:`repro.core.backends.known_backends`) and turns
(program, test case) pairs into output bit patterns or a signal, and
grids of inputs into per-lane signals and live-out bit columns
(:meth:`Runner.run_columns`).  Compiled backends (jit, vector) execute
through the prepared object and its ``writes`` promise; interpreted ones
go through the Emulator.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.x86.emulator import Emulator
from repro.x86.locations import Loc, MemLoc, make_reader, parse_loc
from repro.x86.program import Program
from repro.x86.signals import Signal
from repro.x86.testcase import TestCase
from repro.x86.vector import make_column_readers, pack_lanes, pack_states

from repro.core.backends import resolve_backend

Location = Union[Loc, MemLoc]


def resolve_locations(locs: Iterable[Union[str, Location]]) -> Tuple[Location, ...]:
    """Accept location strings or objects; return Loc/MemLoc objects."""
    out: List[Location] = []
    for loc in locs:
        out.append(parse_loc(loc) if isinstance(loc, str) else loc)
    return tuple(out)


class Runner:
    """Executes programs on test cases and reads back live-out values."""

    def __init__(self, live_outs: Iterable[Union[str, Location]],
                 backend: str = "jit"):
        self._backend = resolve_backend(backend)
        self.live_outs = resolve_locations(live_outs)
        self.backend = self._backend.name
        self._compiled = self._backend.compiled
        self._emulator = None if self._compiled else Emulator()
        # Lane-array fast path: live-outs are read straight from the lane
        # arrays (one row operation per location instead of one reader
        # call per test), and the batch executes from cached pristine
        # pack images rather than pooled scalar states.
        self._column_readers = (make_column_readers(self.live_outs)
                                if self._backend.lane_arrays else None)
        self._pack_cache = None
        # Precompiled per-location readers: location resolution happens
        # here, once, instead of on every execution's read-back.
        self._readers = tuple(make_reader(loc) for loc in self.live_outs)
        self._loc_readers = tuple(zip(self.live_outs, self._readers))
        # Most kernels have exactly one live-out; reading it without the
        # tuple(generator) machinery is measurably cheaper per test.
        self._single_reader = (self._readers[0]
                               if len(self._readers) == 1 else None)

    def prepare(self, program: Program):
        """Pre-process a program for repeated execution."""
        return self._backend.prepare(program)

    def run(self, prepared, test: TestCase
            ) -> Tuple[Optional[Dict[Location, int]], Optional[Signal]]:
        """Execute and return ({location: bits}, None) or (None, signal)."""
        if self._compiled:
            state = test.pooled_state(prepared.writes)
            outcome = prepared.run(state)
        else:
            state = test.pooled_state()
            outcome = self._emulator.run(prepared, state)
        if not outcome.ok:
            return None, outcome.signal
        return {loc: read(state) for loc, read in self._loc_readers}, None

    def run_values(self, prepared, test: TestCase
                   ) -> Tuple[Optional[Tuple[int, ...]], Optional[Signal]]:
        """Like :meth:`run` but returns a live-out bits tuple, not a dict.

        This is the hot-path variant: no dict is built, and the test
        case's pooled state is reused in place.
        """
        if self._compiled:
            state = test.pooled_state(prepared.writes)
            outcome = prepared.run(state)
        else:
            state = test.pooled_state()
            outcome = self._emulator.run(prepared, state)
        if not outcome.ok:
            return None, outcome.signal
        read_one = self._single_reader
        if read_one is not None:
            return (read_one(state),), None
        return tuple(read(state) for read in self._readers), None

    def run_batch(self, prepared, tests: Sequence[TestCase]
                  ) -> List[Tuple[Optional[Tuple[int, ...]],
                                  Optional[Signal]]]:
        """Execute on every test and read back live-outs, batched.

        On compiled backends the whole test set executes inside one
        prepared-program call (one generated function for the JIT, one
        vectorized pass for the vector backend); the emulator keeps
        per-test dispatch but shares the pooled-state reuse.  Returns one ``(values, signal)``
        pair per test, where ``values`` is a live-out bits tuple (None
        when the execution signalled).
        """
        if self._column_readers is not None:
            return self._run_batch_columns(prepared, tests)
        writes = prepared.writes if self._compiled else None
        states = []
        seen = set()
        for test in tests:
            # A duplicated test object cannot share its pooled state
            # within one batch — both slots would alias one state and the
            # second execution would start from the first one's output.
            ident = id(test)
            if ident in seen:
                states.append(test.build_state())
            else:
                seen.add(ident)
                states.append(test.pooled_state(writes))
        if self._compiled:
            signals = prepared.run_batch(states)
        else:
            signals = self._emulator.run_batch(prepared, states)
        read_one = self._single_reader
        if read_one is not None:
            return [(None, signal) if signal is not None
                    else ((read_one(state),), None)
                    for state, signal in zip(states, signals)]
        readers = self._readers
        return [(None, signal) if signal is not None
                else (tuple(read(state) for read in readers), None)
                for state, signal in zip(states, signals)]

    def _run_batch_columns(self, prepared, tests: Sequence[TestCase]
                           ) -> List[Tuple[Optional[Tuple[int, ...]],
                                           Optional[Signal]]]:
        """Vector-backend batch: execute in lane arrays, read live-outs
        at array level, never write register state back.

        Programs that cannot store to memory run on the tests' shared
        pristine templates — no pooled-state restore at all, and the
        full-register pack image is cached across batches (the search
        evaluates thousands of proposals against one fixed test set).
        Memory-writing programs mutate per-lane sandbox segments in
        place, so they take each test's pooled state with a
        registers-clean promise; the register files still never leave
        the lane arrays.
        """
        if prepared.writes[3]:
            promise = ((), (), (), True)
            states = []
            seen = set()
            for test in tests:
                ident = id(test)
                if ident in seen:
                    states.append(test.build_state())
                else:
                    seen.add(ident)
                    states.append(test.pooled_state(promise))
            packed = None
        else:
            states, packed = self._packed_templates(tests)
        signals, ctx = prepared.run_batch_columns(states, packed)
        if ctx is None:
            return []
        readers = self._column_readers
        if len(readers) == 1:
            column = readers[0](ctx, states).tolist()
            return [(None, signal) if signal is not None
                    else ((column[j],), None)
                    for j, signal in enumerate(signals)]
        columns = [read(ctx, states).tolist() for read in readers]
        return [(None, signal) if signal is not None
                else (tuple(column[j] for column in columns), None)
                for j, signal in enumerate(signals)]

    def run_columns(self, prepared, base: TestCase,
                    inputs: Dict[Location, np.ndarray]
                    ) -> Tuple[List[Optional[Signal]],
                               Tuple[np.ndarray, ...]]:
        """Execute once per lane of a grid of inputs.

        Lane ``j`` runs ``base`` with each location in ``inputs`` set to
        the ``j``-th bits of its uint64 column; with no inputs there is
        one lane, ``base`` itself.  Returns the per-lane signals (None =
        clean) and one uint64 live-out column per location, in
        ``live_outs`` order; a signalled lane's live-out bits are
        undefined.  Each lane starts from the state the
        ``base.replace(loc, bits)`` chain's test case would build.

        On a lane-array backend all lanes share ``base``'s template: its
        register file is tiled and the input rows written, with no
        scalar state per lane.  Lanes cannot share one template when the
        program writes memory or an input is a memory location; those
        grids, and every grid on the other backends, run one machine
        state per lane.
        """
        n = len(next(iter(inputs.values()))) if inputs else 1
        # Written in the order the replace chain's test case writes its
        # inputs, so overlapping locations resolve the same way.
        values = dict(base.inputs)
        values.update(inputs)
        template = base.template_state()
        if (self._column_readers is not None and not prepared.writes[3]
                and not any(isinstance(loc, MemLoc) for loc in inputs)):
            packed = pack_lanes(template, [
                (loc, bits) for loc, bits in values.items()
                if isinstance(loc, Loc)], n)
            states = [template] * n
            signals, ctx = prepared.run_batch_columns(states, packed)
            return signals, tuple(read(ctx, states)
                                  for read in self._column_readers)
        rows = {loc: column.tolist() for loc, column in inputs.items()}
        states = []
        for j in range(n):
            state = template.copy()
            for loc, bits in values.items():
                loc.write(state, rows[loc][j] if loc in rows else bits)
            states.append(state)
        signals = self.execute_batch_from(prepared, states)
        return signals, tuple(
            np.array([read(state) for state in states], dtype=np.uint64)
            for read in self._readers)

    def _packed_templates(self, tests: Sequence[TestCase]):
        """(template states, owned pack image) for a test sequence.

        The cache maps test-object identity to a column in a growing
        full-register pack built from each test's pristine template;
        a batch's image is then one C-level ``np.take`` gather per
        array, however the cost function slices or reorders its test
        list.  The cache holds strong references to its tests, so the
        ids stay valid as long as their columns do.  Duplicated test
        objects are harmless here — templates are read-only to the
        vector path.
        """
        cache = self._pack_cache
        if cache is None or len(cache["tests"]) > 8192:
            cache = self._pack_cache = {
                "index": {}, "tests": [], "templates": [],
                "gp": None, "xl": None, "xh": None,
            }
        index = cache["index"]
        missing = [test for test in tests if id(test) not in index]
        if missing:
            fresh = [test.template_state() for test in missing]
            gp, xl, xh = pack_states(fresh)
            base = len(cache["tests"])
            for offset, test in enumerate(missing):
                index[id(test)] = base + offset
            cache["tests"].extend(missing)
            cache["templates"].extend(fresh)
            for key, cols in (("gp", gp), ("xl", xl), ("xh", xh)):
                held = cache[key]
                cache[key] = cols if held is None else \
                    np.concatenate((held, cols), axis=1)
        columns = [index[id(test)] for test in tests]
        templates = cache["templates"]
        states = [templates[col] for col in columns]
        packed = tuple(np.take(cache[key], columns, axis=1)
                       for key in ("gp", "xl", "xh"))
        return states, packed

    def values_of(self, state) -> Tuple[int, ...]:
        """Live-out bit patterns of an already-executed state, in
        ``live_outs`` order."""
        read_one = self._single_reader
        if read_one is not None:
            return (read_one(state),)
        return tuple(read(state) for read in self._readers)

    # Both names stay because the end-to-end benchmark's traced runs wrap them.
    def execute_from(self, prepared, state) -> Optional[Signal]:
        """Run a prepared program on a caller-owned state; returns the
        signal (None = clean)."""
        if self._compiled:
            return prepared.run(state).signal
        return self._emulator.run(prepared, state).signal

    def execute_batch_from(self, prepared, states
                           ) -> List[Optional[Signal]]:
        """Batched :meth:`execute_from`: one signal per caller-owned
        state (the validator's block evaluation runs through it)."""
        if self._compiled:
            return prepared.run_batch(states)
        return self._emulator.run_batch(prepared, states)

    def run_program(self, program: Program, test: TestCase):
        """One-shot convenience wrapper around prepare + run."""
        return self.run(self.prepare(program), test)

    def outputs_for(self, program: Program, tests: Sequence[TestCase]
                    ) -> List[Dict[Location, int]]:
        """Outputs on every test; raises if any execution signals."""
        prepared = self.prepare(program)
        results = []
        for test in tests:
            outputs, signal = self.run(prepared, test)
            if signal is not None:
                raise RuntimeError(
                    f"program raised {signal.value} on {test!r}"
                )
            results.append(outputs)
        return results
