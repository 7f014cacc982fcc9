"""secp256k1 group arithmetic and EC-ElGamal encryption of byte streams.

A keypair is (k, P) with P = kG.  Encryption of a message embedded as a
point M picks one ephemeral r per call and produces C1 = M + rP per
block together with a single shared C2 = rG; decryption recovers
M = C1 - kC2.  Arbitrary byte strings are handled by length-prefixing
the plaintext, splitting it into 31-byte chunks and embedding each
chunk into the x-coordinate of a point.
"""

from dataclasses import dataclass
from functools import cache

from .errors import EmbeddingFailure, LengthMismatch, MalformedCipher

# secp256k1: y^2 = x^3 + 7 over F_p
CURVE_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
CURVE_B = 7
CURVE_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_SQRT_EXP = (CURVE_P + 1) // 4  # valid because p % 4 == 3


def _is_nonresidue(z: int) -> bool:
    """Whether z has no square root mod p, by the Jacobi symbol (z/p):
    a few times cheaper than the square root z^_SQRT_EXP itself."""
    a, n, sign = z % CURVE_P, CURVE_P, 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            sign = -sign
        if a & n & 3 == 3:
            sign = -sign
        a, n = n % a, a
    return sign == -1


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """Affine point; (None, None) is the point at infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = CurvePoint(None, None)
G = CurvePoint(_GX, _GY)


def is_on_curve(pt: CurvePoint) -> bool:
    if pt.is_infinity:
        return True
    if not (0 <= pt.x < CURVE_P and 0 <= pt.y < CURVE_P):
        return False
    return (pt.y * pt.y - pt.x * pt.x * pt.x - CURVE_B) % CURVE_P == 0


def point_neg(pt: CurvePoint) -> CurvePoint:
    if pt.is_infinity or pt.y == 0:
        return pt
    return CurvePoint(pt.x, CURVE_P - pt.y)


def point_add(a: CurvePoint, b: CurvePoint) -> CurvePoint:
    if a.is_infinity:
        return b
    if b.is_infinity:
        return a
    if a.x == b.x:
        if (a.y + b.y) % CURVE_P == 0:
            return INFINITY
        return point_double(a)
    lam = (b.y - a.y) * pow(b.x - a.x, -1, CURVE_P) % CURVE_P
    x3 = (lam * lam - a.x - b.x) % CURVE_P
    return CurvePoint(x3, (lam * (a.x - x3) - a.y) % CURVE_P)


def point_double(a: CurvePoint) -> CurvePoint:
    if a.is_infinity or a.y == 0:
        return INFINITY
    lam = 3 * a.x * a.x * pow(2 * a.y, -1, CURVE_P) % CURVE_P
    x3 = (lam * lam - 2 * a.x) % CURVE_P
    return CurvePoint(x3, (lam * (a.x - x3) - a.y) % CURVE_P)


# Scalar multiplication runs in Jacobian coordinates to avoid a field
# inversion per group operation; only the final result is normalised.

def _jac_double(x1, y1, z1):
    a = x1 * x1 % CURVE_P
    b = y1 * y1 % CURVE_P
    c = b * b % CURVE_P
    s = x1 + b
    d = 2 * (s * s - a - c) % CURVE_P
    e = 3 * a % CURVE_P
    x3 = (e * e - 2 * d) % CURVE_P
    y3 = (e * (d - x3) - 8 * c) % CURVE_P
    return x3, y3, 2 * y1 * z1 % CURVE_P


def _jac_add_affine(x1, y1, z1, x2, y2):
    # mixed addition, second operand affine (z = 1)
    z1z1 = z1 * z1 % CURVE_P
    u2 = x2 * z1z1 % CURVE_P
    s2 = y2 * z1 * z1z1 % CURVE_P
    if u2 == x1:
        if s2 == y1:
            return _jac_double(x1, y1, z1)
        return 1, 1, 0
    h = (u2 - x1) % CURVE_P
    r = (s2 - y1) % CURVE_P
    hh = h * h % CURVE_P
    hhh = h * hh % CURVE_P
    v = x1 * hh % CURVE_P
    x3 = (r * r - hhh - 2 * v) % CURVE_P
    y3 = (r * (v - x3) - y1 * hhh) % CURVE_P
    return x3, y3, z1 * h % CURVE_P


def _jac_to_affine(x, y, z) -> CurvePoint:
    if z == 0:
        return INFINITY
    zi = pow(z, -1, CURVE_P)
    zi2 = zi * zi % CURVE_P
    return CurvePoint(x * zi2 % CURVE_P, y * zi2 * zi % CURVE_P)


@cache  # built whole on first use, so no thread sees a partial table
def _g_table() -> list[list[tuple[int, int]]]:
    """Row i holds j * 16^i * G in affine coordinates, j = 1..15."""
    rows, base = [], G
    for _ in range(64):
        row = [base]
        for _ in range(15):
            row.append(point_add(row[-1], base))
        rows.append([(p.x, p.y) for p in row[:15]])
        base = row[15]
    return rows


# lambda * (x, y) = (beta * x, y) on secp256k1.  Writing k = k1 + k2 * lambda
# with |k1|, |k2| < 2^128 (GLV) halves the doublings of a variable-base
# multiplication; (_A1, _B1) and (_A2, _B2) span the lattice of (k1, k2)
# with k1 + k2 * lambda = 0 mod n.
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_A1, _B1 = 0x3086D221A7D46BCDE86C90E49284EB15, -0xE4437ED6010E88286F547FA90ABFE4C3
_A2, _B2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8, 0x3086D221A7D46BCDE86C90E49284EB15


def _split_scalar(k: int) -> tuple[int, int]:
    """(k1, k2) with k = k1 + k2 * _LAMBDA mod n, both short and signed."""
    c1 = (_B2 * k + CURVE_ORDER // 2) // CURVE_ORDER
    c2 = (-_B1 * k + CURVE_ORDER // 2) // CURVE_ORDER
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def scalar_mul(k: int, pt: CurvePoint) -> CurvePoint:
    """k * pt with k taken mod the group order."""
    k %= CURVE_ORDER
    if k == 0 or pt.is_infinity:
        return INFINITY
    acc = (1, 1, 0)
    if pt.x == _GX and pt.y == _GY:
        # fixed-base path: one precomputed addition per nonzero hex digit
        for row in _g_table():
            if k & 15:
                q = row[(k & 15) - 1]
                acc = _jac_add_affine(*acc, *q) if acc[2] else (*q, 1)
            k >>= 4
        return _jac_to_affine(*acc)
    k1, k2 = _split_scalar(k)
    p1 = CurvePoint(pt.x, pt.y if k1 >= 0 else CURVE_P - pt.y)
    p2 = CurvePoint(_BETA * pt.x % CURVE_P, pt.y if k2 >= 0 else CURVE_P - pt.y)
    both = point_add(p1, p2)  # finite: x = 0 is not on the curve
    table = (None, (p1.x, p1.y), (p2.x, p2.y), (both.x, both.y))
    k1, k2 = abs(k1), abs(k2)
    for i in range(max(k1.bit_length(), k2.bit_length()) - 1, -1, -1):
        acc = _jac_double(*acc)
        sel = (k1 >> i & 1) | (k2 >> i & 1) << 1
        if sel:
            q = table[sel]
            acc = _jac_add_affine(*acc, *q) if acc[2] else (*q, 1)
    return _jac_to_affine(*acc)


@dataclass(frozen=True, slots=True)
class KeyPair:
    private: int
    public: CurvePoint


def keygen(rng) -> KeyPair:
    """Fresh keypair; rng must provide randrange (random.Random API)."""
    k = rng.randrange(1, CURVE_ORDER)
    return KeyPair(k, scalar_mul(k, G))


def keygen_even(rng) -> KeyPair:
    """Keypair whose public key has an even y-coordinate.

    Return-path public keys travel as a bare 32-byte x-coordinate, so
    the client keeps drawing until the point reconstructs with the
    implied even parity.
    """
    while True:
        kp = keygen(rng)
        if kp.public.y % 2 == 0:
            return kp


# -- message embedding --------------------------------------------------

CHUNK_LEN = 31
POINT_LEN = 33


def embed_chunk(chunk: bytes) -> CurvePoint:
    """Embed up to 31 bytes into a point.

    The x-coordinate is the chunk left-padded to 31 bytes followed by a
    trial counter byte; the smallest counter in 0..255 that lands on the
    curve wins, so decoding is deterministic (drop the low byte).
    """
    if len(chunk) > CHUNK_LEN:
        raise ValueError(f"chunk too long: {len(chunk)} > {CHUNK_LEN}")
    base = int.from_bytes(chunk.rjust(CHUNK_LEN, b"\x00"), "big") << 8
    for counter in range(256):
        x = base | counter
        if x >= CURVE_P:
            continue
        z = (x * x * x + CURVE_B) % CURVE_P
        if not _is_nonresidue(z):
            y = pow(z, _SQRT_EXP, CURVE_P)
            return CurvePoint(x, y if y % 2 == 0 else CURVE_P - y)
    raise EmbeddingFailure("no counter in 0..255 yields a curve point")


def chunk_from_point(pt: CurvePoint) -> bytes:
    """Inverse of embed_chunk; always returns the full 31-byte field."""
    if pt.is_infinity:
        raise MalformedCipher("cannot decode the point at infinity")
    return (pt.x >> 8).to_bytes(CHUNK_LEN, "big")


# -- ElGamal over byte streams ------------------------------------------

_LEN_PREFIX = 4


@dataclass(frozen=True, slots=True)
class CipherStream:
    """One encryption call's output: shared c2 = rG plus one C1 block
    per plaintext chunk.  The plaintext byte count travels inside the
    encrypted payload."""

    c2: CurvePoint
    blocks: tuple[CurvePoint, ...]


def _add_to_each(points, s: CurvePoint) -> list[CurvePoint]:
    """[pt + s for pt in points] for finite points, with one field
    inversion shared by all slopes (Montgomery's trick)."""
    if s.is_infinity:
        return list(points)
    dxs = [(pt.x - s.x) % CURVE_P for pt in points]
    if not all(dxs):  # some pt = +-s: no chord through both
        return [point_add(pt, s) for pt in points]
    prefix = [1]  # prefix[i] = dxs[0] * ... * dxs[i - 1]
    for dx in dxs:
        prefix.append(prefix[-1] * dx % CURVE_P)
    inv = pow(prefix[-1], -1, CURVE_P)  # 1 / prefix[i + 1] at step i
    out = []
    for i in range(len(points) - 1, -1, -1):
        pt = points[i]
        lam = (pt.y - s.y) * inv * prefix[i] % CURVE_P
        inv = inv * dxs[i] % CURVE_P
        x3 = (lam * lam - pt.x - s.x) % CURVE_P
        out.append(CurvePoint(x3, (lam * (pt.x - x3) - pt.y) % CURVE_P))
    return out[::-1]


def elgamal_encrypt(plaintext: bytes, recipient_pub: CurvePoint, rng) -> CipherStream:
    if recipient_pub.is_infinity or not is_on_curve(recipient_pub):
        raise ValueError("recipient public key not a valid curve point")
    data = len(plaintext).to_bytes(_LEN_PREFIX, "little") + plaintext
    r = rng.randrange(1, CURVE_ORDER)
    c2 = scalar_mul(r, G)
    shared = scalar_mul(r, recipient_pub)
    points = [embed_chunk(data[off:off + CHUNK_LEN].ljust(CHUNK_LEN, b"\x00"))
              for off in range(0, len(data), CHUNK_LEN)]
    return CipherStream(c2, tuple(_add_to_each(points, shared)))


def elgamal_decrypt(cipher: CipherStream, private: int) -> bytes:
    if not cipher.blocks:
        raise MalformedCipher("cipher stream has no blocks")
    if cipher.c2.is_infinity or not is_on_curve(cipher.c2):
        raise MalformedCipher("c2 not a valid curve point")
    for block in cipher.blocks:
        if block.is_infinity or not is_on_curve(block):
            raise MalformedCipher("block not a valid curve point")
    neg_shared = point_neg(scalar_mul(private, cipher.c2))
    out = bytearray()
    for point in _add_to_each(cipher.blocks, neg_shared):
        out += chunk_from_point(point)
    length = int.from_bytes(out[:_LEN_PREFIX], "little")
    if length > len(out) - _LEN_PREFIX:
        raise LengthMismatch(
            f"declared length {length} exceeds capacity {len(out) - _LEN_PREFIX}")
    return bytes(out[_LEN_PREFIX:_LEN_PREFIX + length])


# -- serialization ------------------------------------------------------

def point_to_bytes(pt: CurvePoint) -> bytes:
    """Compressed encoding: parity prefix 0x02/0x03 plus 32-byte x."""
    if pt.is_infinity:
        raise MalformedCipher("cannot serialize the point at infinity")
    prefix = b"\x02" if pt.y % 2 == 0 else b"\x03"
    return prefix + pt.x.to_bytes(32, "big")


def point_from_bytes(raw: bytes) -> CurvePoint:
    if len(raw) != POINT_LEN:
        raise MalformedCipher(f"point encoding must be {POINT_LEN} bytes")
    if raw[0] not in (2, 3):
        raise MalformedCipher(f"invalid parity prefix 0x{raw[0]:02x}")
    x = int.from_bytes(raw[1:], "big")
    if x >= CURVE_P:
        raise MalformedCipher("x-coordinate out of field range")
    z = (x * x * x + CURVE_B) % CURVE_P
    y = pow(z, _SQRT_EXP, CURVE_P)
    if y * y % CURVE_P != z:
        raise MalformedCipher("x-coordinate not on curve")
    if (y % 2 == 0) != (raw[0] == 2):
        y = CURVE_P - y
    return CurvePoint(x, y)


def serialize_cipher(cipher: CipherStream) -> bytes:
    out = bytearray(point_to_bytes(cipher.c2))
    out += len(cipher.blocks).to_bytes(4, "little")
    for block in cipher.blocks:
        out += point_to_bytes(block)
    return bytes(out)


def deserialize_cipher(raw: bytes) -> CipherStream:
    if len(raw) < POINT_LEN + 4:
        raise MalformedCipher("cipher stream truncated")
    c2 = point_from_bytes(raw[:POINT_LEN])
    count = int.from_bytes(raw[POINT_LEN:POINT_LEN + 4], "little")
    if len(raw) != POINT_LEN + 4 + count * POINT_LEN:
        raise MalformedCipher(
            f"buffer length {len(raw)} does not match {count} blocks")
    blocks = []
    for i in range(count):
        off = POINT_LEN + 4 + i * POINT_LEN
        blocks.append(point_from_bytes(raw[off:off + POINT_LEN]))
    return CipherStream(c2, tuple(blocks))


def cipher_length(plain_len: int) -> int:
    """Serialized single-layer size for a plaintext of plain_len bytes.

    Depends on the length only, never the content.
    """
    chunks = -(-(plain_len + _LEN_PREFIX) // CHUNK_LEN)
    return POINT_LEN + 4 + chunks * POINT_LEN


# -- key files -----------------------------------------------------------

def private_to_bytes(k: int) -> bytes:
    return k.to_bytes(32, "big")


def private_from_bytes(raw: bytes) -> int:
    if len(raw) != 32:
        raise ValueError("private key file must hold exactly 32 bytes")
    k = int.from_bytes(raw, "big")
    if not 0 < k < CURVE_ORDER:
        raise ValueError("private scalar out of range")
    return k
