"""Fixed-width binary record codecs for on-disk graph data.

Everything the external algorithms spill to disk is a stream of
fixed-width little-endian records, so sequential scans never parse —
they slice.  One record shape covers the whole paper:
``ATTR_EDGE`` — ``(u, v, attr)``: edges of ``Gnew`` carrying the lower
bound φ(e) (bottom-up), the support sup(e) / upper bound ψ(e)
(top-down), or a class label.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, Tuple

from repro.errors import FormatError
from repro.exio.blockfile import BlockReader, BlockWriter


class RecordCodec:
    """A named fixed-width struct format with stream helpers."""

    __slots__ = ("name", "_struct", "arity")

    def __init__(self, name: str, fmt: str) -> None:
        self.name = name
        self._struct = struct.Struct(fmt)
        self.arity = len(self._struct.unpack(b"\x00" * self._struct.size))

    @property
    def size(self) -> int:
        """Record width in bytes."""
        return self._struct.size

    def pack(self, *values: int) -> bytes:
        """Encode one record."""
        return self._struct.pack(*values)

    def unpack(self, data: bytes) -> Tuple[int, ...]:
        """Decode one record."""
        return self._struct.unpack(data)

    def write_stream(self, writer: BlockWriter, records: Iterable[Tuple[int, ...]]) -> int:
        """Encode and append every record; return the count written.

        Records are packed in batches and handed to the writer as a
        single buffer per batch — the per-call overhead matters when a
        scan-heavy algorithm rewrites files every iteration.
        """
        pack = self._struct.pack
        count = 0
        batch: list = []
        for rec in records:
            batch.append(pack(*rec))
            count += 1
            if len(batch) >= 2048:
                writer.write(b"".join(batch))
                batch.clear()
        if batch:
            writer.write(b"".join(batch))
        return count

    def read_stream(self, reader: BlockReader) -> Iterator[Tuple[int, ...]]:
        """Decode records until clean EOF; truncated tails raise.

        Decodes whole blocks at a time with ``struct.iter_unpack``; a
        record spanning a block boundary is carried into the next block.
        """
        size = self._struct.size
        iter_unpack = self._struct.iter_unpack
        carry = b""
        while True:
            chunk = reader.read_block()
            if not chunk:
                if carry:
                    raise EOFError(
                        f"{self.name}: truncated record at EOF "
                        f"({len(carry)} trailing bytes)"
                    )
                return
            if carry:
                chunk = carry + chunk
            usable = len(chunk) - (len(chunk) % size)
            if usable:
                yield from iter_unpack(chunk[:usable])
            carry = chunk[usable:]

    def count_in(self, nbytes: int) -> int:
        """How many records a byte length holds; reject misalignment."""
        if nbytes % self.size:
            raise FormatError(
                f"{self.name}: file length {nbytes} not a multiple of "
                f"record size {self.size}"
            )
        return nbytes // self.size


ATTR_EDGE = RecordCodec("attr_edge", "<qqq")
