"""Deterministic seed derivation for fanned-out tasks.

Bit-identical results at any worker count require that **randomness
attaches to tasks, not workers**: :func:`derive_seed` derives a child
seed from the run seed and the task's position, so a task that needs an
RNG draws the same stream whether it runs in the parent, a thread, or a
subprocess.  (Task *order* is the backends' job: ``map`` returns results
in task order whatever order workers finish in.)
"""

from __future__ import annotations

import hashlib


def derive_seed(base_seed: int, *indices: int) -> int:
    """A stable 63-bit child seed for one chunk of a seeded run.

    Hash-derived (blake2b) rather than ``base_seed + index`` so that
    nearby run seeds do not produce overlapping child streams.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base_seed)).encode("ascii"))
    for index in indices:
        h.update(b"\x00")
        h.update(str(int(index)).encode("ascii"))
    return int.from_bytes(h.digest(), "big") & (2**63 - 1)
