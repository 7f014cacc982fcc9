"""secp256k1 group arithmetic and EC-ElGamal encryption of byte streams.

A keypair is (k, P) with P = kG.  Encryption of a message embedded as a
point M picks one ephemeral r per call and produces C1 = M + rP per
block together with a single shared C2 = rG; decryption recovers
M = C1 - kC2.  Arbitrary byte strings are handled by length-prefixing
the plaintext, splitting it into 31-byte chunks and embedding each
chunk into the x-coordinate of a point.

Scalar multiplication is not constant-time.  A multiple of G adds one
point per signed 7-bit digit of the scalar, at most 37, from a 37 x 64
table built on first use.  Any other point's scalar is split into two
GLV halves of about 128 bits, whose width-5 wNAF digits add odd
multiples of the point: about 128 doublings and 43 additions.

Points are added in two ways only: scalar multiples in one Jacobian
loop, _walk, and a cipher's blocks to their mask (rP to encrypt, -kC2
to decrypt) by the chord through each block and the mask, with one
field inversion shared by all blocks, _add_to_each.  A block equal to
the mask or its negative has no such chord and no honest encryption
makes one, so it is refused with MalformedCipher.
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
    if pt.is_infinity:
        return pt
    return CurvePoint(pt.x, CURVE_P - pt.y)


# Scalar multiplication adds affine table points into a Jacobian sum,
# where (X, Y, Z) stands for (X / Z^2, Y / Z^3), so no group operation
# needs a field inversion; sums are normalised at the end, several at once.

def _inverses(values: list[int]) -> list[int]:
    """[1 / v mod p for v in values], for nonzero values, with one field
    inversion shared by all (Montgomery's trick)."""
    prefix = [1]  # prefix[i] = values[0] * ... * values[i - 1]
    for v in values:
        prefix.append(prefix[-1] * v % CURVE_P)
    inv = pow(prefix[-1], -1, CURVE_P)  # 1 / prefix[i + 1] at step i
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % CURVE_P
        inv = inv * values[i] % CURVE_P
    return out


def _to_affine(sums) -> list[tuple[int, int]]:
    """Affine (x, y) of each Jacobian (X, Y, Z) in sums."""
    out = []
    for (x, y, _), zi in zip(sums, _inverses([z for _, _, z in sums])):
        zi2 = zi * zi % CURVE_P
        out.append((x * zi2 % CURVE_P, y * zi2 * zi % CURVE_P))
    return out


def _walk(steps):
    """Yield the running sum, in Jacobian coordinates, after each step.

    A step (n, x, y) doubles the sum n times and then adds the affine
    point (x, y), or nothing when x is None.  The sum starts at infinity
    (Z = 0, which doubling keeps).  The mixed addition has no branch for
    adding a point to itself or to its negative: no caller's walk meets
    either case (see _g_steps and _glv_steps).
    """
    p = CURVE_P
    X = Y = Z = 0
    for n, x2, y2 in steps:
        for _ in range(n):
            # dbl-2009-l for a = 0, with D = 4 X B
            a = X * X % p
            b = Y * Y % p
            d = 4 * X * b % p
            e = 3 * a
            Z = 2 * Y * Z % p
            X = (e * e - 2 * d) % p
            Y = (e * (d - X) - 8 * b * b) % p
        if x2 is None:
            pass
        elif Z:
            zz = Z * Z % p
            h = x2 * zz % p - X
            r = y2 * zz * Z % p - Y
            hh = h * h % p
            hhh = h * hh % p
            v = X * hh % p
            X = (r * r - hhh - 2 * v) % p
            Y = (r * (v - X) - Y * hhh) % p
            Z = Z * h % p
        else:
            X, Y, Z = x2, y2, 1
        yield X, Y, Z


# Multiples of G: each signed 7-bit digit of the scalar picks one affine
# point from its row of a 37 x 64 table.  The table is built whole on first
# use, never at import, so no thread sees a partial one; each row keeps its
# xs and its ys in two tuples, about 0.3 MiB in all.
_G_ROWS = 37  # 7-bit digits of a scalar below n < 2^256


@cache
def _g_table() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Row i holds the xs and the ys of j * 128^i * G, j = 1..64.

    One walk per row gives B, 2B, ..., 64B and then 128B, the next row's
    B, and one shared inversion normalises them.
    """
    rows, x, y = [], _GX, _GY
    double = (1, None, None)
    for _ in range(_G_ROWS):
        walk = [(0, x, y), double] + [(0, x, y)] * 62 + [double]
        *row, (x, y) = _to_affine(list(_walk(walk)))
        rows.append(tuple(zip(*row)))
    return rows


def _g_steps(k: int) -> list[tuple]:
    """Walk steps for k * G, 0 < k < n: one table point per nonzero
    signed 7-bit digit of k, each digit in -63..64.

    The sum before row i's point is below 0.51 * 128^i in size, so it is
    never that point or its negative: for i < 36 as integers, and in the
    top row, whose digit is at most 16, because k < n.
    """
    steps = []
    for xs, ys in _g_table():
        digit = k & 127
        if digit > 64:
            digit -= 128
        k = (k - digit) >> 7
        if digit:
            j = abs(digit) - 1
            y = ys[j] if digit > 0 else CURVE_P - ys[j]
            steps.append((0, xs[j], y))
    return steps


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


def _odd_multiples(x: int, y: int) -> list[tuple[int, int]]:
    """Affine P, 3P, ..., 15P for P = (x, y), with one inversion.

    2P = (X, Y, Z) is the affine (X, Y) on the isomorphic curve
    y^2 = x^3 + 7 Z^6, onto which (x, y) -> (x Z^2, y Z^3) maps; the
    walk never uses the curve's constant, so P's image there takes seven
    mixed additions of 2P, and each sum's z, times Z, is its z on ours.
    """
    *_, (x2, y2, z2) = _walk([(0, x, y), (1, None, None)])
    zz = z2 * z2 % CURVE_P
    x1, y1 = x * zz % CURVE_P, y * zz * z2 % CURVE_P
    sums = _walk([(0, x1, y1)] + [(0, x2, y2)] * 7)
    return _to_affine([(x, y, z * z2 % CURVE_P) for x, y, z in sums])


def _glv_steps(k: int, pt: CurvePoint) -> list[tuple]:
    """Walk steps for k * pt, 0 < k < n: the width-5 wNAF digits of both
    GLV halves, merged from the top bit down.

    The second half's table is the first one's with beta * x.  A half's
    sign, and each digit's, flips y to p - y.  Before a digit is added,
    its half's partial scalar is 0 or a multiple of 32, never the odd
    digit or its negative, so the sum could be the point added, or its
    negative, only through a nonzero (k1, k2) lattice vector with both
    entries below 2^127.35 + 31 in size, and there is none (the tests
    check this bound).
    """
    k1, k2 = _split_scalar(k)
    xs, ys = zip(*_odd_multiples(pt.x, pt.y))
    events = []  # (bit position, x, y)
    for half, half_xs in ((k1, xs), (k2, [_BETA * x % CURVE_P for x in xs])):
        flip, half, pos = half < 0, abs(half), 0
        while half:
            zeros = (half & -half).bit_length() - 1
            half >>= zeros
            pos += zeros
            digit = half & 31  # odd: the signed residue mod 32 is the digit
            if digit > 16:
                digit -= 32
            half -= digit
            j = abs(digit) >> 1
            y = ys[j] if (digit < 0) == flip else CURVE_P - ys[j]
            events.append((pos, half_xs[j], y))
    events.sort(key=lambda event: event[0], reverse=True)
    steps, top = [], events[0][0]
    for pos, x, y in events:
        steps.append((top - pos, x, y))
        top = pos
    steps.append((top, None, None))
    return steps


def scalar_mul(k: int, pt: CurvePoint) -> CurvePoint:
    """k * pt with k taken mod the group order; not constant-time."""
    k %= CURVE_ORDER
    if k == 0 or pt.is_infinity:
        return INFINITY
    if pt.x == _GX and pt.y == _GY:
        steps = _g_steps(k)
    else:
        steps = _glv_steps(k, pt)
    *_, last = _walk(steps)
    (x, y), = _to_affine([last])
    return CurvePoint(x, y)


@dataclass(frozen=True, slots=True)
class KeyPair:
    private: int
    public: CurvePoint


def keygen(rng) -> KeyPair:
    """Fresh keypair; rng must provide randrange (random.Random API)."""
    k = rng.randrange(1, CURVE_ORDER)
    return KeyPair(k, scalar_mul(k, G))


# -- message embedding --------------------------------------------------

CHUNK_LEN = 31
POINT_LEN = 33


def embed_chunk(chunk: bytes) -> CurvePoint:
    """Embed up to 31 bytes into a point.

    The x-coordinate is a trial counter byte followed by the chunk
    left-padded to 31 bytes; the smallest counter in 0..254 that lands
    on the curve wins, so decoding is deterministic (keep the low 31
    bytes).  A top byte below 0xFF keeps x below CURVE_P for every chunk.
    """
    if len(chunk) > CHUNK_LEN:
        raise ValueError(f"chunk too long: {len(chunk)} > {CHUNK_LEN}")
    base = int.from_bytes(chunk, "big")
    for counter in range(255):
        x = counter << 8 * CHUNK_LEN | base
        z = (x * x * x + CURVE_B) % CURVE_P
        if not _is_nonresidue(z):
            y = pow(z, _SQRT_EXP, CURVE_P)
            return CurvePoint(x, y if y % 2 == 0 else CURVE_P - y)
    raise EmbeddingFailure("no counter in 0..254 yields a curve point")


def chunk_from_point(pt: CurvePoint) -> bytes:
    """Inverse of embed_chunk; always returns the full 31-byte field."""
    return pt.x.to_bytes(CHUNK_LEN + 1, "big")[1:]


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
    """[pt + s for pt in points] for finite points and s, with one field
    inversion shared by all slopes; a point at s or -s is refused."""
    dxs = [(pt.x - s.x) % CURVE_P for pt in points]
    if not all(dxs):
        raise MalformedCipher("a block equals the mask or its negative")
    out = []
    for pt, inv in zip(points, _inverses(dxs)):
        lam = (pt.y - s.y) * inv % CURVE_P
        x3 = (lam * lam - pt.x - s.x) % CURVE_P
        out.append(CurvePoint(x3, (lam * (pt.x - x3) - pt.y) % CURVE_P))
    return out


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
    """Plaintext of a stream from elgamal_encrypt or deserialize_cipher,
    whose points are finite and on the curve, so none is checked again."""
    if not cipher.blocks:
        raise MalformedCipher("cipher stream has no blocks")
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
