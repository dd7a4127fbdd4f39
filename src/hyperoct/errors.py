"""Exception types shared across the library."""


class HyperoctError(Exception):
    """Base class for all library-specific errors."""


class NotInAlphabet(HyperoctError):
    """A letter code is 0 or otherwise not a valid signed letter."""


class SizeMismatch(HyperoctError):
    """A (weak-)composition does not sum to the degree it must split."""


class FlavorMismatch(HyperoctError):
    """Bar and tilde-bar decorations were mixed, or flavors disagree."""


class NotHomogeneous(HyperoctError):
    """An element mixes degrees where a single degree is required."""


class EmptyWord(HyperoctError):
    """The empty word was passed where a non-empty word is required."""


class NotLyndon(HyperoctError):
    """A word that must be Lyndon is not."""


class SingleLetter(HyperoctError):
    """A single letter has no standard factorization."""


class OutsideBasis(HyperoctError):
    """No eigenvector is defined for this word/operator combination."""


class NotAState(HyperoctError):
    """A deck is not a signed permutation of 1..n, so not a chain state."""


class BadCount(HyperoctError):
    """A count (cards, piles, steps or trials) is out of range."""


class StateSpaceTooLarge(HyperoctError):
    """2^n * n! states are too many for a dense transition matrix, or n! * n!
    entries for one sign-character block of the chain certificate."""


class HypothesesNotMet(HyperoctError):
    """The stationary-distribution theorem hypotheses fail (a = 1)."""


class FlavorUnsupported(HyperoctError):
    """The requested formula is only stated for flip shuffles."""


class BadIndices(HyperoctError):
    """Eigenfunction indices violate i < j (or i != j) requirements."""


class CodeOverflow(HyperoctError):
    """Words are too long, or their labels too large, to code in int64."""


class NotIntegral(HyperoctError):
    """A value that the mathematics makes an integer came out fractional."""


class CertificationError(HyperoctError):
    """No configured prime or modulus yields a proved answer."""
