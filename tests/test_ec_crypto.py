"""Group arithmetic, embedding and ElGamal stream round trips."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trr import ec_crypto as ec
from trr.errors import LengthMismatch, MalformedCipher

# independent curve constants for oracle checks (not taken from the module)
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


def on_curve_oracle(pt) -> bool:
    return (pt.y * pt.y) % P == (pt.x * pt.x * pt.x + 7) % P


# The slow affine group law, one field inversion per addition: the
# reference the product's Jacobian walk and batched chords are checked
# against.  The product itself never adds two arbitrary points, and its
# points are finite; here None stands for the point at infinity.

def neg(pt):
    return ec.CurvePoint(pt.x, P - pt.y)


def point_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a.x == b.x:
        if (a.y + b.y) % P == 0:
            return None
        return point_double(a)
    lam = (b.y - a.y) * pow(b.x - a.x, -1, P) % P
    x3 = (lam * lam - a.x - b.x) % P
    return ec.CurvePoint(x3, (lam * (a.x - x3) - a.y) % P)


def point_double(a):
    # no point of secp256k1's prime-order group has y = 0
    if a is None:
        return None
    lam = 3 * a.x * a.x * pow(2 * a.y, -1, P) % P
    x3 = (lam * lam - 2 * a.x) % P
    return ec.CurvePoint(x3, (lam * (a.x - x3) - a.y) % P)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


class TestGroupLaws:
    def test_generator_on_curve(self):
        assert on_curve_oracle(ec.G)

    def test_identity_scalar(self):
        assert ec.scalar_mul(1, ec.G) == ec.G

    def test_two_g_is_double(self):
        doubled = point_double(ec.G)
        assert ec.scalar_mul(2, ec.G) == doubled
        assert on_curve_oracle(doubled)

    def test_order_of_g(self, rng):
        assert ec.scalar_mul(N - 1, ec.G) == neg(ec.G)
        # a multiple of the order would be the identity, which is no point
        base = ec.scalar_mul(rng.randrange(1, N), ec.G)
        for k in (0, N, -N, 2 * N):
            for pt in (ec.G, base):
                with pytest.raises(ValueError):
                    ec.scalar_mul(k, pt)

    def test_commutativity_and_associativity(self, rng):
        pts = [ec.scalar_mul(rng.randrange(1, N), ec.G) for _ in range(6)]
        for a, b in zip(pts, pts[1:]):
            assert point_add(a, b) == point_add(b, a)
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            left = point_add(point_add(a, b), c)
            right = point_add(a, point_add(b, c))
            assert left == right

    def test_add_neg_is_infinity(self, rng):
        pt = ec.scalar_mul(rng.randrange(1, N), ec.G)
        assert point_add(pt, neg(pt)) is None
        assert point_add(pt, None) == pt
        assert point_add(None, pt) == pt

    def test_scalar_mul_matches_repeated_addition(self, rng):
        pt = ec.scalar_mul(rng.randrange(1, N), ec.G)
        acc = None
        for k in range(1, 9):
            acc = point_add(acc, pt)
            assert ec.scalar_mul(k, pt) == acc

    def test_homomorphic_decryption_identity(self, rng):
        # (M + r(kG)) - k(rG) = M
        for _ in range(5):
            m = ec.embed_chunk(rng.randbytes(31))
            r = rng.randrange(1, N)
            k = rng.randrange(1, N)
            c1 = point_add(m, ec.scalar_mul(r, ec.scalar_mul(k, ec.G)))
            shared = ec.scalar_mul(k, ec.scalar_mul(r, ec.G))
            assert point_add(c1, neg(shared)) == m


def affine_double_and_add(k, pt):
    # slow reference: one affine doubling per bit of k, no tables
    acc = None
    for bit in bin(k % N)[2:]:
        acc = point_double(acc)
        if bit == "1":
            acc = point_add(acc, pt)
    return acc


class TestFastPaths:
    # the fixed-base table, the GLV split and wNAF digits, the shared
    # inversion and the Jacobi-symbol filter against slow references

    EDGE_SCALARS = (
        1, 2, 15, 16, 17, 2**128 - 1, 2**128, 15 * 16**63,
        N - 2, N - 1, N + 1, -1, 0,
        # signed 7-bit windows of G's table: the largest digit, a run of
        # -1 digits carried up to the top row, a top digit of 16
        *(64 * 128**i for i in (0, 1, 18, 35, 36)),
        *(128**i - 1 for i in (1, 2, 18, 36)),
        63, 65, 127, 129, 2**255,
        *(N - 2**i for i in (7, 128, 252)),
        15 * 2**252 + 127 * 2**245,
        # each sign of each GLV half, and halves of 0 (lambda and -lambda)
        *((a + b * ec._LAMBDA) % N for a in (3, -3) for b in (5, -5)),
        ec._LAMBDA, N - ec._LAMBDA,
        # width-5 wNAF digits: -1 and a carry (31), 1 and 1 (33)
        31, 33)

    def test_scalar_mul_matches_reference(self, rng):
        # small multiples of G as bases pin the odd-multiple table to
        # known points
        pts = [ec.G, neg(ec.G), ec.scalar_mul(rng.randrange(1, N), ec.G)]
        small = [affine_double_and_add(j, ec.G) for j in (2, 3, 15)]
        for k in self.EDGE_SCALARS:
            for pt in pts + small:
                if k == 0:  # the identity is no point
                    with pytest.raises(ValueError):
                        ec.scalar_mul(k, pt)
                else:
                    assert ec.scalar_mul(k, pt) == affine_double_and_add(k, pt), k
        for k in [rng.randrange(N) for _ in range(40)]:
            for pt in pts:
                assert ec.scalar_mul(k, pt) == affine_double_and_add(k, pt), k

    def test_walks_start_at_a_point(self, rng):
        # _walk starts its sum at its first step, with no doubling first
        pt = ec.scalar_mul(rng.randrange(1, N), ec.G)
        for k in self.EDGE_SCALARS:
            if k % N:
                for steps in (ec._g_steps(k % N), ec._glv_steps(k % N, pt)):
                    n, x, y = steps[0]
                    assert n == 0 and ec.is_on_curve(ec.CurvePoint(x, y)), k

    def test_edge_scalars_cover_every_glv_sign(self, rng):
        signs = set()
        for k in list(self.EDGE_SCALARS) + [rng.randrange(N) for _ in range(40)]:
            k1, k2 = ec._split_scalar(k % N)
            signs.add(((k1 > 0) - (k1 < 0), (k2 > 0) - (k2 < 0)))
        assert {(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 1), (0, -1),
                (1, 0)} <= signs

    def test_glv_walk_never_meets_its_addend(self, rng):
        # _walk's mixed addition has no doubling branch.  A GLV walk could
        # need one only through a nonzero (a, b), a + b * lambda = 0 mod n,
        # with both entries at most the split's bound plus 31 in size.
        a1, b1, a2, b2 = ec._A1, ec._B1, ec._A2, ec._B2
        assert a1 * b2 - a2 * b1 == N
        assert (a1 + b1 * ec._LAMBDA) % N == (a2 + b2 * ec._LAMBDA) % N == 0
        bound = max(abs(a1) + abs(a2), abs(b1) + abs(b2)) // 2
        for k in list(self.EDGE_SCALARS) + [rng.randrange(N) for _ in range(2000)]:
            assert max(map(abs, ec._split_scalar(k % N))) <= bound, k
        # a Gauss-reduced basis: (a1, b1) is a shortest nonzero vector,
        # and no vector's largest entry is below its length over sqrt(2)
        n1, dot = a1 * a1 + b1 * b1, a1 * a2 + b1 * b2
        assert n1 <= a2 * a2 + b2 * b2 and 2 * abs(dot) <= n1
        assert 2 * (bound + 31) ** 2 < n1

    @given(st.integers(-N, 2 * N), st.integers(-N, 2 * N))
    @example(2, N - 1)
    @example(N - 1, N - 1)
    @example(0, 2)
    @example(3, -N)
    @settings(max_examples=40, deadline=None)
    def test_product_of_scalars(self, a, b):
        # the GLV path (a times bG) against the fixed-base table
        if a % N and b % N:
            assert ec.scalar_mul(a, ec.scalar_mul(b, ec.G)) == \
                ec.scalar_mul(a * b % N, ec.G)
        else:  # a product 0 mod n is the identity, which is no point
            with pytest.raises(ValueError):
                ec.scalar_mul(a, ec.scalar_mul(b, ec.G))

    def test_endomorphism_constants(self, rng):
        assert ec.scalar_mul(ec._LAMBDA, ec.G) == ec.CurvePoint(
            ec._BETA * ec.G.x % P, ec.G.y)
        for k in list(self.EDGE_SCALARS) + [rng.randrange(N) for _ in range(2000)]:
            k %= N
            k1, k2 = ec._split_scalar(k)
            assert (k1 + k2 * ec._LAMBDA - k) % N == 0
            assert abs(k1) < 2**129 and abs(k2) < 2**129, k

    def test_batch_addition_matches_point_add(self, rng):
        s = ec.scalar_mul(rng.randrange(1, N), ec.G)
        pts = [ec.scalar_mul(rng.randrange(1, N), ec.G) for _ in range(5)]
        assert ec._add_to_each(pts, s) == [point_add(p, s) for p in pts]
        # a point equal to s or to -s has no chord through s: refused
        for odd in (s, neg(s)):
            mixed = pts[:2] + [odd] + pts[2:]
            with pytest.raises(MalformedCipher, match="mask"):
                ec._add_to_each(mixed, s)

    def test_shared_secret_matches_openssl(self, rng):
        # ECDH against an independent secp256k1 implementation
        ecc = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
        for _ in range(20):
            a, b = ec.keygen(rng), ec.keygen(rng)
            theirs = ecc.derive_private_key(b.private, ecc.SECP256K1())
            assert theirs.public_key().public_numbers().x == b.public.x
            peer = ecc.EllipticCurvePublicNumbers(
                a.public.x, a.public.y, ecc.SECP256K1()).public_key()
            shared = theirs.exchange(ecc.ECDH(), peer)
            assert shared == ec.scalar_mul(b.private, a.public).x.to_bytes(32, "big")

    def test_nonresidue_matches_euler_criterion(self, rng):
        values = [0, 1, 2, 7, P - 1, P, P + 3] + [rng.randrange(P) for _ in range(2000)]
        for z in values:
            euler = pow(z, (P - 1) // 2, P)
            assert ec._is_nonresidue(z) == (euler == P - 1), z


class TestKeygen:
    def test_keypair_relation(self, rng):
        kp = ec.keygen(rng)
        assert 0 < kp.private < N
        assert ec.scalar_mul(kp.private, ec.G) == kp.public

    def test_thousand_publics_on_curve(self, rng):
        for _ in range(1000):
            assert on_curve_oracle(ec.keygen(rng).public)


class TestEmbedding:
    def test_zero_chunk(self):
        pt = ec.embed_chunk(b"\x00" * 31)
        assert on_curve_oracle(pt)
        assert ec.chunk_from_point(pt) == b"\x00" * 31

    @given(st.binary(max_size=31))
    @example(b"\xff" * 31)  # above CURVE_P >> 8
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, chunk):
        pt = ec.embed_chunk(chunk)
        assert on_curve_oracle(pt)
        assert ec.chunk_from_point(pt) == chunk.rjust(31, b"\x00")

    def test_ten_thousand_random_chunks(self):
        rng = random.Random(123)
        for _ in range(10_000):
            chunk = rng.randbytes(31)
            assert ec.chunk_from_point(ec.embed_chunk(chunk)) == chunk

    def test_injectivity(self, rng):
        chunks = {rng.randbytes(31) for _ in range(200)}
        xs = {ec.embed_chunk(c).x for c in chunks}
        assert len(xs) == len(chunks)

    def test_oversized_chunk_rejected(self):
        with pytest.raises(ValueError):
            ec.embed_chunk(b"\x00" * 32)


class TestElGamal:
    def test_roundtrip_assorted_lengths(self, rng):
        kp = ec.keygen(rng)
        for size in (0, 1, 30, 31, 32, 62, 63, 100, 1024, 10240):
            msg = rng.randbytes(size)
            assert ec.elgamal_decrypt(ec.elgamal_encrypt(msg, kp.public, rng),
                                      kp.private) == msg

    @given(data=st.binary(max_size=600))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, data):
        rng = random.Random(len(data))
        kp = ec.keygen(rng)
        assert ec.elgamal_decrypt(ec.elgamal_encrypt(data, kp.public, rng),
                                  kp.private) == data

    def test_empty_plaintext_single_block(self, rng):
        kp = ec.keygen(rng)
        stream = ec.elgamal_encrypt(b"", kp.public, rng)
        assert len(stream.blocks) == 1  # just the length prefix chunk
        assert ec.elgamal_decrypt(stream, kp.private) == b""

    def test_wrong_key_no_crash(self, rng):
        kp, other = ec.keygen(rng), ec.keygen(rng)
        stream = ec.elgamal_encrypt(b"payload bytes", kp.public, rng)
        try:
            out = ec.elgamal_decrypt(stream, other.private)
            assert out != b"payload bytes"
        except (LengthMismatch, MalformedCipher):
            pass

    def test_five_layer_nesting(self, rng):
        keypairs = [ec.keygen(rng) for _ in range(5)]
        msg = rng.randbytes(256)
        blob = msg
        for kp in keypairs:
            blob = ec.serialize_cipher(ec.elgamal_encrypt(blob, kp.public, rng))
        for kp in reversed(keypairs):
            blob = ec.elgamal_decrypt(ec.deserialize_cipher(blob), kp.private)
        assert blob == msg

    def test_ciphertext_size_depends_on_length_only(self, rng):
        kp = ec.keygen(rng)
        a = ec.serialize_cipher(ec.elgamal_encrypt(b"\x00" * 500, kp.public, rng))
        b = ec.serialize_cipher(ec.elgamal_encrypt(rng.randbytes(500), kp.public, rng))
        assert len(a) == len(b)

    def test_large_plaintext_growth_bound(self, rng):
        kp = ec.keygen(rng)
        raw = ec.serialize_cipher(
            ec.elgamal_encrypt(rng.randbytes(10240), kp.public, rng))
        # layout oracle: 33-byte c2, 4-byte count, one 33-byte point per
        # 31-byte chunk of (4-byte length prefix + plaintext)
        chunks = -(-(10240 + 4) // 31)
        assert len(raw) == 33 + 4 + 33 * chunks
        assert len(raw) <= 1.10 * 10240 + 64

    def test_encrypt_requires_valid_pubkey(self, rng):
        with pytest.raises(ValueError):
            ec.elgamal_encrypt(b"x", ec.CurvePoint(5, 7), rng)
        # satisfies the curve equation mod p, but x is not reduced
        with pytest.raises(ValueError):
            ec.elgamal_encrypt(b"x", ec.CurvePoint(ec.G.x + P, ec.G.y), rng)


class TestSerialization:
    def test_roundtrip(self, rng):
        kp = ec.keygen(rng)
        stream = ec.elgamal_encrypt(rng.randbytes(77), kp.public, rng)
        assert ec.deserialize_cipher(ec.serialize_cipher(stream)) == stream

    def test_one_block_stream_is_70_bytes(self, rng):
        kp = ec.keygen(rng)
        stream = ec.elgamal_encrypt(b"", kp.public, rng)
        raw = ec.serialize_cipher(stream)
        assert len(raw) == 33 + 4 + 33

    def test_truncated_rejected(self, rng):
        kp = ec.keygen(rng)
        raw = ec.serialize_cipher(ec.elgamal_encrypt(b"hello", kp.public, rng))
        for cut in (0, 10, 33, 36, len(raw) - 1):
            with pytest.raises(MalformedCipher):
                ec.deserialize_cipher(raw[:cut])
        with pytest.raises(MalformedCipher):
            ec.deserialize_cipher(raw + b"\x00")

    def test_bad_parity_prefix_rejected(self, rng):
        kp = ec.keygen(rng)
        raw = bytearray(ec.serialize_cipher(ec.elgamal_encrypt(b"x", kp.public, rng)))
        raw[0] = 0x05
        with pytest.raises(MalformedCipher):
            ec.deserialize_cipher(bytes(raw))

    def test_point_roundtrip_both_parities(self, rng):
        for _ in range(20):
            pt = ec.scalar_mul(rng.randrange(1, N), ec.G)
            assert ec.point_from_bytes(ec.point_to_bytes(pt)) == pt

    def test_off_curve_x_rejected(self):
        # x = 5 gives 132, a quadratic non-residue mod p
        raw = b"\x02" + (5).to_bytes(32, "big")
        with pytest.raises(MalformedCipher):
            ec.point_from_bytes(raw)

    def test_private_key_file_roundtrip(self, rng):
        kp = ec.keygen(rng)
        assert ec.private_from_bytes(ec.private_to_bytes(kp.private)) == kp.private
        with pytest.raises(ValueError):
            ec.private_from_bytes(b"\x00" * 32)  # zero scalar
        with pytest.raises(ValueError):
            ec.private_from_bytes(b"\x01" * 31)
