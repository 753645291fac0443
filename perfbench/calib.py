"""A fixed reference computation that reads the host's current speed.

The benchmark runs on shared CPUs whose speed drifts by up to 1.5x in phases
(see README.md).  ``measure()`` times a fixed pure-Python computation of the
same kind as the library's inner loops: table lookups in a small field,
tuple-keyed dictionaries, integer arithmetic and function calls.  A pass runs
it between items, so each item has a reading taken just before and just
after it on the same CPU.  Dividing a time by the reading and multiplying by
``REFERENCE_S`` gives the time at reference speed.

Nothing here imports the package under test, so a change to the program
cannot change the reading.
"""

from time import perf_counter

# Time of one reading at reference speed: about the median reading on the
# 2-vCPU Xeon virtual machine the benchmark was written on.
REFERENCE_S = 1.8e-4

_Q = 16
_MOD = 0b10011  # t^4 + t + 1 over GF(2)


def _gf_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & _Q:
            a ^= _MOD
    return out


_MUL = [[_gf_mul(a, b) for b in range(_Q)] for a in range(_Q)]


def _product(f: dict, g: dict) -> dict:
    """Product of two sparse polynomials {(i, j): GF(16) code}."""
    out = {}
    mul = _MUL
    for (i1, j1), a in f.items():
        row = mul[a]
        for (i2, j2), b in g.items():
            key = (i1 + i2, j1 + j2)
            c = out.get(key, 0) ^ row[b]
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


_F = {(i, (3 * i) % 5): 1 + (7 * i) % 15 for i in range(8)}
_G = {((5 * i) % 7, i): 1 + (11 * i) % 15 for i in range(8)}


def _work() -> int:
    h = _product(_F, _G)
    return len(_product(h, _F))


def measure(repeats: int = 2) -> float:
    """Seconds for one run of the reference computation: the lowest of
    `repeats` back-to-back runs, so that one interrupt does not count."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        _work()
        best = min(best, perf_counter() - start)
    return best


for _ in range(8):  # let the interpreter specialise the loops before any reading
    _work()
