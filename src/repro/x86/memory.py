"""Segmented, sandboxed memory.

A :class:`Memory` is a small set of mapped segments.  Every load or store
is bounds-checked; an access that touches unmapped addresses raises
:class:`~repro.x86.signals.SegFault`, which the evaluators surface as a
SIGSEGV outcome.  This is the "full sandboxing for instructions which
dereference memory" of Section 5.1.

Little-endian byte order throughout, matching x86-64.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.x86.signals import SegFault

_MASK64 = 0xFFFFFFFFFFFFFFFF


class Segment:
    """A contiguous mapped range ``[base, base + len(data))``."""

    def __init__(self, name: str, base: int, data: bytes, writable: bool = True):
        self.name = name
        self.base = base & _MASK64
        self.data = bytearray(data)
        self.writable = writable

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, size: int) -> bool:
        return self.base <= addr and addr + size <= self.end

    def copy(self) -> "Segment":
        return Segment(self.name, self.base, bytes(self.data), self.writable)

    def __repr__(self) -> str:
        mode = "rw" if self.writable else "r-"
        return f"Segment({self.name!r}, 0x{self.base:x}, {self.size} bytes, {mode})"


class Memory:
    """A sandbox of non-overlapping segments with checked access."""

    def __init__(self, segments: Iterable[Segment] = ()):
        self.segments: List[Segment] = []
        for seg in segments:
            self.map(seg)

    def map(self, segment: Segment) -> None:
        """Add a segment; overlapping maps are rejected."""
        for existing in self.segments:
            if segment.base < existing.end and existing.base < segment.end:
                raise ValueError(
                    f"segment {segment.name!r} overlaps {existing.name!r}"
                )
        self.segments.append(segment)

    def segment(self, name: str) -> Segment:
        """Look up a segment by name."""
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(name)

    def _find(self, addr: int, size: int) -> Segment:
        for seg in self.segments:
            if seg.contains(addr, size):
                return seg
        raise SegFault(f"access of {size} bytes at 0x{addr & _MASK64:x}")

    def load(self, addr: int, size: int) -> int:
        """Load ``size`` bytes at ``addr`` as an unsigned little-endian int."""
        addr &= _MASK64
        seg = self._find(addr, size)
        off = addr - seg.base
        return int.from_bytes(seg.data[off : off + size], "little")

    def store(self, addr: int, size: int, value: int) -> None:
        """Store ``size`` low bytes of ``value`` at ``addr``."""
        addr &= _MASK64
        seg = self._find(addr, size)
        if not seg.writable:
            raise SegFault(f"write to read-only segment {seg.name!r} at 0x{addr:x}")
        off = addr - seg.base
        seg.data[off : off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )

    # Fixed-width accessors used by the JIT-generated code (kept as
    # dedicated methods so generated source avoids a size argument).
    def load4(self, addr: int) -> int:
        return self.load(addr, 4)

    def load8(self, addr: int) -> int:
        return self.load(addr, 8)

    def load16(self, addr: int) -> tuple:
        lo = self.load(addr, 8)
        hi = self.load(addr + 8, 8)
        return lo, hi

    def store4(self, addr: int, value: int) -> None:
        self.store(addr, 4, value)

    def store8(self, addr: int, value: int) -> None:
        self.store(addr, 8, value)

    def store16(self, addr: int, lo: int, hi: int) -> None:
        self.store(addr, 8, lo)
        self.store(addr + 8, 8, hi)

    def copy(self) -> "Memory":
        """Deep-copy writable segments; read-only segments are shared."""
        fresh = Memory()
        for seg in self.segments:
            fresh.segments.append(seg.copy() if seg.writable else seg)
        return fresh

    # -- in-place reuse (the batched evaluator's state pool) ------------

    def snapshot_writable(self) -> tuple:
        """Immutable images of the writable segments, for `restore_writable`.

        Read-only segments cannot drift (stores to them fault before
        mutating), so only writable pages are captured.  A memory with
        no segments (every libimf test) returns at once: this runs on
        each whole-state checkpoint capture.
        """
        segments = self.segments
        if not segments:
            return ()
        return tuple([(seg, bytes(seg.data))
                      for seg in segments if seg.writable])

    def restore_writable(self, snapshot: tuple) -> None:
        """Reset writable segments to a `snapshot_writable` image in place.

        Pages the last execution left untouched are detected by a C-speed
        bytes comparison and skipped, so programs with no stores pay one
        compare per page instead of a copy.
        """
        for seg, image in snapshot:
            if seg.data != image:
                seg.data[:] = image

    def __repr__(self) -> str:
        return f"Memory({self.segments!r})"
