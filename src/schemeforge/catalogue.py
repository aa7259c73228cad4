"""The catalogue of bundled schemes: the golden scheme files, their format
and the hash-checked loader.

Each catalogue entry pairs a scheme id (position in the standard small-scheme
tables) with the graph carrying its first relation.  The scheme itself is
its golden file under data/, checked against MANIFEST.sha256 before it is
parsed and verified; that loaded scheme is the one every match compares
with, in the diagram search and in classify's extension cases alike.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import NamedTuple, Optional

from .schemes import Scheme, verify_scheme

DATA_DIR = Path(__file__).parent / "data"
MANIFEST_NAME = "MANIFEST.sha256"

# scheme id ASnn[i] (Hanaki-Miyamoto: the i-th scheme of order nn) -> graph
# name of R_1
CATALOGUE: dict[str, str] = {
    "AS05[1]": "K5",
    "AS06[3]": "K3,3",
    "AS08[2]": "K2,2,2,2",
    "AS09[3]": "K3xK3",
    "AS10[3]": "J(5,2)",
    "AS10[6]": "crown",
    "AS16[30]": "Q4",
    "AS24[43]": "24-cell",
}


# ---------------------------------------------------------------------------
# scheme files


class SchemeFileError(ValueError):
    """Parse error carrying a 1-based (line, column) position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class SchemeFile(NamedTuple):
    """Integer relation matrix with an optional id header.

    Format: '#' starts a comment; an optional ``id <string>`` line; a line
    holding the order n; then n rows of n relation indices."""

    n: int
    grid: tuple
    scheme_id: Optional[str] = None


def _tokenize(text: str):
    """Yield (line_no, column, token) for every token outside comments."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        for m in re.finditer(r"\S+", raw.split("#", 1)[0]):
            yield line_no, m.start() + 1, m.group()


def parse_scheme_file(text: str) -> SchemeFile:
    tokens = list(_tokenize(text))
    if not tokens:
        raise SchemeFileError(1, 1, "empty scheme file")
    pos = 0
    scheme_id = None
    if tokens[0][2] == "id":
        if len(tokens) < 2 or tokens[0][0] != tokens[1][0]:
            ln, col, _ = tokens[0]
            raise SchemeFileError(ln, col, "id header is missing its value")
        scheme_id = tokens[1][2]
        pos = 2
    if pos >= len(tokens):
        ln, col, _ = tokens[-1]
        raise SchemeFileError(ln, col, "missing order line")
    ln, col, tok = tokens[pos]
    try:
        n = int(tok)
    except ValueError:
        raise SchemeFileError(ln, col, f"expected the order n, got {tok!r}") from None
    if n < 1:
        raise SchemeFileError(ln, col, "order must be a positive integer")
    pos += 1
    cells = tokens[pos:]
    if len(cells) < n * n:
        ln, col, _ = tokens[-1]
        raise SchemeFileError(ln, col, f"expected {n}x{n} entries, got {len(cells)}")
    if len(cells) > n * n:
        ln, col, tok = cells[n * n]
        raise SchemeFileError(ln, col, f"unexpected trailing token {tok!r}")
    grid = [[0] * n for _ in range(n)]
    for idx, (ln, col, tok) in enumerate(cells):
        i, j = divmod(idx, n)
        try:
            e = int(tok)
        except ValueError:
            raise SchemeFileError(ln, col, f"expected an integer, got {tok!r}") from None
        if not 0 <= e < n:
            raise SchemeFileError(ln, col, f"relation index {e} out of range 0..{n - 1}")
        grid[i][j] = e
    for i in range(n):
        if grid[i][i] != 0:
            raise SchemeFileError(*cells[i * n + i][:2], f"nonzero diagonal entry {grid[i][i]}")
        for j in range(n):
            if i != j and grid[i][j] == 0:
                raise SchemeFileError(*cells[i * n + j][:2], "off-diagonal zero relation")
            if j < i and grid[i][j] != grid[j][i]:
                raise SchemeFileError(
                    *cells[i * n + j][:2], f"asymmetric entry: [{i}][{j}] != [{j}][{i}]"
                )
    used = {e for row in grid for e in row}
    if used != set(range(max(used) + 1)):
        missing = min(set(range(max(used) + 1)) - used)
        raise SchemeFileError(*cells[0][:2], f"relation indices skip {missing}")
    return SchemeFile(n, tuple(tuple(row) for row in grid), scheme_id)


# ---------------------------------------------------------------------------
# the golden files


def bundled_filename(scheme_id: str) -> str:
    return scheme_id.replace("[", "-").replace("]", "") + ".scheme"


def scheme_order(scheme_id: str) -> int:
    """The order nn of the scheme ASnn[i]; load_bundled checks it against
    the file."""
    return int(scheme_id[2:scheme_id.index("[")])


def _read_manifest() -> dict:
    out = {}
    for raw in (DATA_DIR / MANIFEST_NAME).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        digest, name = line.split()
        out[name] = digest
    return out


# SHA-256 round constants and initial hash value (FIPS 180-4, 4.2.2 and
# 5.3.3): the first 32 fractional bits of the cube roots of the first 64
# primes and of the square roots of the first 8
_SHA256_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
)
_SHA256_H0 = (
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
)


def _sha256_hex(data: bytes) -> str:
    """SHA-256 (FIPS 180-4) of data as 64 lowercase hex digits, on Python ints.

    Rotations leave bits above bit 31, which only the xors and sums that
    follow see; every stored word is reduced mod 2**32."""
    mask = 0xFFFFFFFF
    padded = (data + b"\x80" + bytes(-(len(data) + 9) % 64)
              + (8 * len(data)).to_bytes(8, "big"))
    state = list(_SHA256_H0)
    for start in range(0, len(padded), 64):
        w = [int.from_bytes(padded[i:i + 4], "big") for i in range(start, start + 64, 4)]
        for i in range(16, 64):
            x, y = w[i - 15], w[i - 2]
            s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ x >> 3
            s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ y >> 10
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & mask)
        a, b, c, d, e, f, g, h = state
        for k, wi in zip(_SHA256_K, w):
            s1 = (e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)
            t1 = h + s1 + ((e & f) ^ (~e & g)) + k + wi
            s0 = (a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)
            t2 = s0 + ((a & b) ^ (a & c) ^ (b & c))
            a, b, c, d, e, f, g, h = (t1 + t2) & mask, a, b, c, (d + t1) & mask, e, f, g
        state = [(s + t) & mask for s, t in zip(state, (a, b, c, d, e, f, g, h))]
    return b"".join(s.to_bytes(4, "big") for s in state).hex()


@functools.cache
def load_bundled(scheme_id: str) -> Scheme:
    """Load, hash-check, parse and verify one golden scheme file, at most
    once per process; the Scheme is immutable, so every caller may share it.
    A failed load is not kept, so the next call raises again.

    The sha256 check uses _sha256_hex rather than hashlib: importing hashlib
    maps OpenSSL's libcrypto, which on its own raised the peak RSS of
    classify by about 3.6 MB."""
    name = bundled_filename(scheme_id)
    blob = (DATA_DIR / name).read_bytes()
    digest = _sha256_hex(blob)
    expected = _read_manifest().get(name)
    if digest != expected:
        raise RuntimeError(f"golden file {name} hash mismatch: {digest} != {expected}")
    sf = parse_scheme_file(blob.decode("utf-8"))
    if sf.scheme_id != scheme_id:
        raise RuntimeError(f"golden file {name} declares id {sf.scheme_id!r}")
    if sf.n != scheme_order(scheme_id):
        raise RuntimeError(f"golden file {name} has order {sf.n}, not that of its id")
    result = verify_scheme(sf.grid)
    if not isinstance(result, Scheme):
        raise RuntimeError(f"golden file {name} fails verification: {result}")
    return result
