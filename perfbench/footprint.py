"""Memory footprint of a workload configuration, checked before anything runs.

Every object the workloads build is dense and exponential in its size
parameter, so the peak memory of a configuration can be bounded from the
sizes alone.  The estimate counts

* the wedge tables of ``superfock._tables``: 3**n entries of four 8-byte
  index/sign arrays (32 B) plus the complex temporaries of one
  ``antisymmetric_product`` over the table (48 B);
* dense Fock operators, 16 * 4**d bytes each;
* dense module operators, 16 * 4**(G + d) bytes each;
* the Python objects of the CLI's JSON encoding.

A configuration whose estimate exceeds ``MEMORY_SHARE`` of the machine's
memory is refused.
"""

from __future__ import annotations

import os

MEMORY_SHARE = 0.25

TABLE_BYTES_PER_ENTRY = 32 + 48
FOCK_OPERATOR_BYTES = 16          # times 4**d
MODULE_OPERATOR_BYTES = 16        # times 4**(G + d)
JSON_BYTES_PER_ENTRY = 200        # one [re, im] list plus its encoded text
VECTOR_BYTES_PER_AMPLITUDE = 16 * 10 + JSON_BYTES_PER_ENTRY

# Dense operators alive at once.  ``compose`` holds six implementers and the
# products of ``cocycle``, ``implement_invertible`` holds d creation
# operators next to its chain, column and result matrices.
FOCK_OPERATORS_EXTRA = 12
# The materialize job holds the lifted implementer, two Weyl matrices, their
# two products and the difference, plus the Kronecker temporaries.
MODULE_OPERATORS_LIVE = 9


class FootprintError(ValueError):
    """A configuration whose estimated footprint exceeds the allowed share."""


def estimate_bytes(workload: str, modes: int, generators: int = 0) -> int:
    """Peak-memory estimate in bytes of one worker of ``workload``."""
    d, g = modes, generators
    if workload == "implement":
        return (
            (d + FOCK_OPERATORS_EXTRA) * FOCK_OPERATOR_BYTES * 4**d
            + JSON_BYTES_PER_ENTRY * 4**d
            + TABLE_BYTES_PER_ENTRY * 3**d
        )
    if workload == "orbit":
        return TABLE_BYTES_PER_ENTRY * 3**d + VECTOR_BYTES_PER_AMPLITUDE * 2**d
    if workload == "module":
        return (
            MODULE_OPERATORS_LIVE * MODULE_OPERATOR_BYTES * 4 ** (g + d)
            + FOCK_OPERATOR_BYTES * 4**d * (FOCK_OPERATORS_EXTRA + d)
            + TABLE_BYTES_PER_ENTRY * 3 ** (g + d)
        )
    raise ValueError(f"unknown workload {workload!r}")


def machine_memory_bytes() -> int:
    """Physical memory, lowered to the cgroup limit when one is set."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for path in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            with open(path, encoding="ascii") as fh:
                text = fh.read().strip()
        except OSError:
            continue
        if text.isdigit():
            total = min(total, int(text))
    return total


def check(workload: str, modes: int, generators: int = 0, memory_bytes: int | None = None) -> int:
    """Return the estimate, or raise ``FootprintError`` if it is too large."""
    if memory_bytes is None:
        memory_bytes = machine_memory_bytes()
    need = estimate_bytes(workload, modes, generators)
    limit = MEMORY_SHARE * memory_bytes
    if need > limit:
        raise FootprintError(
            f"{workload} at d={modes}, G={generators} needs about {need / 2**30:.2f} GiB, "
            f"more than {MEMORY_SHARE:.0%} of {memory_bytes / 2**30:.2f} GiB"
        )
    return need
