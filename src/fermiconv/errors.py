"""Exception types shared across the package.

Each name maps onto one failure mode of the public operations; the CLI
translates them into its exit-code scheme (see cli module).
"""


class FermiconvError(Exception):
    """Base class for all package errors."""


class BadParam(FermiconvError):
    """Layout or operation parameter outside its documented domain."""


class CapExceeded(FermiconvError):
    """Requested object exceeds a desk-scale size cap (dense, packed or branch)."""


class DimMismatch(FermiconvError):
    """Statevector length does not match the circuit's layout."""


class TooManyElectrons(FermiconvError):
    """More occupied orbitals than registers."""


class MalformedComponent(FermiconvError):
    """Basis component violates the encoding discipline."""


class BadConstant(FermiconvError):
    """Comparator constant is not an orbital value or the sentinel."""


class NoSlack(FermiconvError):
    """Insertion requested but no sentinel register is available."""


class NotAntisymmetric(FermiconvError):
    """First-quantized state fails the antisymmetry validation."""


class MixedParticleNumber(FermiconvError):
    """Sorted-list state spans more than one particle-number sector."""


class RetryBudgetExceeded(FermiconvError):
    """Collision-rejection measurement failed on every allowed retry."""


class BasisMismatch(FermiconvError):
    """Operands encoded over different orbital counts."""


class NotUnitary(FermiconvError):
    """Matrix fails the unitarity tolerance."""


class DisciplineMismatch(FermiconvError):
    """Operation applied to the wrong encoding discipline."""


class BadDimension(FermiconvError):
    """Dimension constraint violated (e.g. QFT needs M a power of two)."""


class NotIsometry(FermiconvError):
    """Overlap table rows are not orthonormal."""


class IndexOutOfRange(FermiconvError):
    """Orbital index outside 1..M."""


class SectorEmpty(FermiconvError):
    """Requested particle-number sector has no basis states."""


class UnboundParameter(FermiconvError):
    """Cost formula evaluated with a missing parameter."""


class DegenerateGrid(FermiconvError):
    """Scaling fit asked for on a grid with too little variation."""


class SinkUnwritable(FermiconvError):
    """Report output path cannot be written."""


class NotPermutation(FermiconvError):
    """basis_action met a gate that creates superpositions."""


class EntangledAncilla(FermiconvError):
    """Ancilla block failed its disentanglement check before disposal."""
