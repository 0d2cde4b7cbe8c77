"""The design digest the serve summary prints (and resume diffs compare)."""

from __future__ import annotations

import hashlib


def design_digest(adapter, design) -> str:
    """A short stable digest of a design's structures (for resume diffs).

    Hashes the sorted structure DDL plus the priced footprint, so two
    runs landing on the same design print the same digest even across
    processes with different hash randomization.
    """
    digest = hashlib.blake2b(digest_size=8)
    for sql in sorted(str(structure.to_sql()) for structure in adapter.structures(design)):
        digest.update(sql.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(repr(adapter.design_price(design)).encode("utf-8"))
    return digest.hexdigest()
