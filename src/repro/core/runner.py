"""Shared program-execution plumbing for cost functions and validation.

A :class:`Runner` binds the live-out locations and a backend choice
(any name in :func:`repro.core.backends.known_backends`) and turns
(program, test case) pairs into output bit patterns or a signal, and
grids of inputs into per-lane signals and live-out bit columns
(:meth:`Runner.run_columns`).  Compiled backends (jit, vector) execute
through the prepared object and hand the live-outs back without writing
registers into the machine state; interpreted ones go through the
Emulator, in place.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.x86.emulator import Emulator
from repro.x86.locations import Loc, MemLoc, make_reader, parse_loc
from repro.x86.program import Program
from repro.x86.signals import Signal
from repro.x86.state import MachineState
from repro.x86.testcase import TestCase
from repro.x86.vector import (live_out_registers, make_column_readers,
                              pack_lanes, pack_states)

from repro.core.backends import resolve_backend

Location = Union[Loc, MemLoc]

# What :meth:`Runner.execute_batch_from` can change in a caller-owned
# state, least first (see :meth:`Runner.dirties`).
DIRTIES_NOTHING, DIRTIES_MEMORY, DIRTIES_ALL = 0, 1, 2


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
        self._live_regs = live_out_registers(self.live_outs)
        self._pack_cache = None
        # Precompiled per-location readers: location resolution happens
        # here, once, instead of on every execution's read-back.
        self._readers = tuple(make_reader(loc) for loc in self.live_outs)
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
        state = test.pooled_state(self._promise(prepared))
        values, signal = self._execute(prepared, [state])[0]
        if signal is not None:
            return None, signal
        return dict(zip(self.live_outs, values)), None

    def run_values(self, prepared, test: TestCase
                   ) -> Tuple[Optional[Tuple[int, ...]], Optional[Signal]]:
        """Like :meth:`run` but returns a live-out bits tuple, not a dict;
        the test case's pooled state is reused in place."""
        state = test.pooled_state(self._promise(prepared))
        return self._execute(prepared, [state])[0]

    def run_batch(self, prepared, tests: Sequence[TestCase]
                  ) -> List[Tuple[Optional[Tuple[int, ...]],
                                  Optional[Signal]]]:
        """Execute on every test and read back live-outs, batched.

        On compiled backends the whole test set executes inside one
        prepared-program call (one generated function for the JIT, one
        vectorized pass for the vector backend); the emulator keeps
        per-test dispatch but shares the pooled-state reuse.  Returns
        one ``(values, signal)`` pair per test, where ``values`` is a
        live-out bits tuple (None when the execution signalled).

        On a lane-array backend, programs that cannot store to memory
        run on the tests' shared pristine templates — no pooled-state
        restore at all, and the full-register pack image is cached
        across batches, so repeated ``run_batch`` calls on one Runner
        over the same tests pack them once.  Every other batch runs on
        the tests' pooled states.
        """
        if self._column_readers is not None and not prepared.writes_mem:
            states, packed = self._packed_templates(tests)
            signals, ctx = prepared.run_batch_columns(states, packed,
                                                      self._live_regs)
            return self._column_values(signals, ctx, states)
        return self._execute(prepared, self._pooled_states(prepared, tests))

    def _pooled_states(self, prepared, tests: Sequence[TestCase]
                       ) -> List[MachineState]:
        """Each test's pooled state, reset for a run of ``prepared``."""
        promise = self._promise(prepared)
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
                states.append(test.pooled_state(promise))
        return states

    def _column_values(self, signals, ctx, states
                       ) -> List[Tuple[Optional[Tuple[int, ...]],
                                       Optional[Signal]]]:
        """One ``(values, signal)`` pair per lane of a finished lane
        context, its live-outs read as rows."""
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
        if (self._column_readers is not None and not prepared.writes_mem
                and not any(isinstance(loc, MemLoc) for loc in inputs)):
            packed = pack_lanes(template, [
                (loc, bits) for loc, bits in values.items()
                if isinstance(loc, Loc)], n)
            states = [template] * n
            signals, ctx = prepared.run_batch_columns(states, packed,
                                                      self._live_regs)
            return signals, tuple(read(ctx, states)
                                  for read in self._column_readers)
        rows = {loc: column.tolist() for loc, column in inputs.items()}
        states = []
        for j in range(n):
            state = template.copy()
            for loc, bits in values.items():
                loc.write(state, rows[loc][j] if loc in rows else bits)
            states.append(state)
        results = self._execute(prepared, states)
        # A signalled lane's undefined live-outs read as zeros.
        zeros = (0,) * len(self.live_outs)
        outs = [zeros if out is None else out for out, _ in results]
        return [signal for _, signal in results], tuple(
            np.array([out[k] for out in outs], dtype=np.uint64)
            for k in range(len(self.live_outs)))

    def _packed_templates(self, tests: Sequence[TestCase]):
        """(template states, owned pack image) for a test sequence.

        The cache maps test-object identity to a column in a growing
        full-register pack built from each test's pristine template;
        a batch's image is then one C-level ``np.take`` gather per
        array, however a caller slices or reorders its test list across
        calls.  The cache holds strong references to its tests, so the
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
        signal (None = clean).  Every register the program writes is
        written to ``state``."""
        if self._compiled:
            return prepared.run(state).signal
        return self._emulator.run(prepared, state).signal

    def execute_batch_from(self, prepared, states
                           ) -> List[Tuple[Optional[Tuple[int, ...]],
                                           Optional[Signal]]]:
        """Run a prepared program on caller-owned states and return
        their live-outs: one ``(values, signal)`` pair per state, as
        :meth:`run_batch` returns them.  The validator's block
        evaluation runs through it; :meth:`dirties` says what a run
        changes in the states."""
        return self._execute(prepared, states)

    def _execute(self, prepared, states
                 ) -> List[Tuple[Optional[Tuple[int, ...]],
                                 Optional[Signal]]]:
        """Every live-out read of this Runner: run ``prepared`` on
        ``states`` and return their ``(values, signal)`` pairs.

        The JIT runs its live-out entry point
        (``CompiledProgram.run_live_outs``) and the vector backend its
        lane arrays with the live-outs read as rows, so on both the
        register files and flags stay as they were and only memory
        stores change a state; the emulator runs each state in place
        and reads it back.  The public run methods call this rather
        than each other, so a traced run of one counts once.
        """
        if self._column_readers is not None:
            signals, ctx = prepared.run_batch_columns(states, None,
                                                      self._live_regs)
            return self._column_values(signals, ctx, states)
        if self._compiled:
            return prepared.run_live_outs(states, self.live_outs)
        signals = self._emulator.run_batch(prepared, states)
        values_of = self.values_of
        return [(None, signal) if signal is not None
                else (values_of(state), None)
                for state, signal in zip(states, signals)]

    def dirties(self, prepared) -> int:
        """What a run of ``prepared`` through :meth:`execute_batch_from`
        can change in a state: ``DIRTIES_MEMORY`` for a program that
        stores, on the compiled backends, which keep register files and
        flags out of the states; ``DIRTIES_NOTHING`` for the other
        programs there; ``DIRTIES_ALL`` on the emulator, which runs in
        place."""
        if not self._compiled:
            return DIRTIES_ALL
        return DIRTIES_MEMORY if prepared.writes_mem else DIRTIES_NOTHING

    def _promise(self, prepared) -> Optional[bool]:
        """:meth:`dirties` as a ``TestCase.pooled_state`` promise."""
        return prepared.writes_mem if self._compiled else None

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
