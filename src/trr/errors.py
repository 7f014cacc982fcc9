"""Exception hierarchy shared across the package."""


class TrrError(Exception):
    """Base class for all errors raised by this package."""


# -- crypto ------------------------------------------------------------

class EmbeddingFailure(TrrError):
    """No curve point found for a plaintext chunk (astronomically rare)."""


class MalformedCipher(TrrError):
    """Ciphertext bytes are not a valid cipher stream (truncation, bad
    point encoding, point off curve)."""


class LengthMismatch(TrrError):
    """Decrypted length prefix exceeds the decoded capacity; the usual
    symptom of decrypting with the wrong private key."""


# -- wire codecs -------------------------------------------------------

class WireError(TrrError):
    """Base class for codec errors."""


class Truncated(WireError):
    """Buffer ends before the declared structure does."""


class SizeMismatch(WireError):
    """Declared sizes are inconsistent with the buffer or exceed limits."""


class DelayOutOfRange(WireError):
    """Release delay outside the allowed 1..5 block window."""


class PayloadTooLarge(WireError):
    """Payload exceeds the 2-byte size field (or the frame read cap)."""


class MessageTooLong(WireError):
    """Ack error message exceeds its fixed 30-byte field."""


class BadMagic(WireError):
    """Frame does not start with the protocol magic."""


class BadChecksum(WireError):
    """Frame checksum does not match its payload."""


class UnknownCommand(WireError):
    """Frame command is not one of the TRR commands."""


# -- routing -----------------------------------------------------------

class InsufficientNodes(TrrError):
    """Directory too small to select the requested route length."""


class MalformedRouting(TrrError):
    """A layer decrypted (structurally) but its routing header did not
    decode; signals a wrong key or corrupted layer."""


# -- node runtime ------------------------------------------------------

class NotTrr(TrrError):
    """Peer did not open the connection with the expected handshake."""


class NextHopUnreachable(TrrError):
    """Connection to the next hop could not be established."""


class TrrTimeout(TrrError):
    """Peer did not answer within the configured timeout."""


class PeerClosed(TrrError):
    """Peer closed the connection before completing the exchange."""


class GiveUp(TrrError):
    """Client exhausted its retry rounds without observing the release;
    report is the SendReport of every round it sent."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


# -- simulation / analytics --------------------------------------------

class InvalidConfig(TrrError, ValueError):
    """Send, simulation or sweep parameters break their rules."""
