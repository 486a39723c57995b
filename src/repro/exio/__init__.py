"""External-memory substrate: the (M, B) I/O model made executable.

Components::

    IOStats           block-granular I/O counters (scan(N) accounting)
    MemoryBudget      the paper's M, in |G| = n + m units
    BlockReader/BlockWriter   sequential block-buffered file access
    RecordCodec       fixed-width record encode/decode (ATTR_EDGE)
    DiskEdgeFile      attributed edge file (the on-disk Gnew)

Each name resolves on first use: the in-memory methods need only
:mod:`repro.exio.iostats`, so they never load the disk-backed modules.
"""

from repro._lazy import lazy_names

__all__ = [
    "IOStats",
    "DEFAULT_BLOCK_SIZE",
    "MemoryBudget",
    "UNBOUNDED",
    "BlockReader",
    "BlockWriter",
    "BufferPool",
    "file_size",
    "remove_if_exists",
    "RecordCodec",
    "ATTR_EDGE",
    "DiskEdgeFile",
    "AttrEdge",
]

#: defining module -> the public names it provides
_SOURCES = {
    "repro.exio.blockfile": (
        "BlockReader", "BlockWriter", "file_size", "remove_if_exists",
    ),
    "repro.exio.bufferpool": ("BufferPool",),
    "repro.exio.edgefile": ("AttrEdge", "DiskEdgeFile"),
    "repro.exio.iostats": ("DEFAULT_BLOCK_SIZE", "IOStats"),
    "repro.exio.memory": ("UNBOUNDED", "MemoryBudget"),
    "repro.exio.records": ("ATTR_EDGE", "RecordCodec"),
}

__getattr__, __dir__ = lazy_names(globals(), _SOURCES)
