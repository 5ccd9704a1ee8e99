"""Crafted PCG64 streams: generators whose next raw output is chosen, to
drive the rare rejected bounded draws."""

import numpy as np

PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def state_before_output(raw: int, inc: int) -> int:
    """A PCG64 state whose next raw output is `raw` (whose top 6 bits, the
    XSL-RR rotation, are zero, so the output is high ^ low)."""
    high = 0x0123456789ABCDE  # < 2**58
    after = high << 64 | (high ^ raw)
    return (after - inc) * pow(PCG_MULT, -1, 2**128) % 2**128


def pcg64_at(state: int, inc: int) -> np.random.PCG64:
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return bitgen
