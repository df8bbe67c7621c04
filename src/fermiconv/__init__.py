"""Exactly verifiable circuits for hopping between fermionic encodings.

Sorted-list and antisymmetric register encodings of few-electron states,
reversible conversion circuits between them, Majorana and ladder operators,
register-wise basis changes, a tensor-product merge with duplicate
flagging, a dense configuration-interaction oracle to check everything
against, and instrumented gate counting with scaling fits.
"""

from .circuits import (
    Circuit,
    GateCount,
    RegisterLayout,
    Statevector,
    apply_circuit,
    build_layout,
    count_gates,
    parse_circuit,
    serialize_circuit,
)
from .conversion import (
    ConversionReport,
    MergeResult,
    first_to_second,
    fq2sl_gate_count,
    second_to_first,
    sl2fq_gate_count,
    tensor_product_merge,
)
from .encodings import (
    FIRST_QUANTIZED,
    SORTED_LIST,
    EncodedState,
    OccupationBitstring,
    encode_first_quantized_determinant,
    encode_sorted_list,
    first_quantized_to_fock,
    sorted_list_to_fock,
    validate,
)
from .errors import CapExceeded, FermiconvError
from .fci import FockSpace, ToyHamiltonian, k_rdm
from .majorana import apply_ladder, majorana_circuit
from .basis import (
    BasisMatrix,
    apply_register_transform,
    dft_matrix,
    qft_register_transform,
)
from .stateio import read_state, write_state

__version__ = "0.1.0"

__all__ = [
    "BasisMatrix",
    "CapExceeded",
    "Circuit",
    "ConversionReport",
    "EncodedState",
    "FermiconvError",
    "FIRST_QUANTIZED",
    "FockSpace",
    "GateCount",
    "MergeResult",
    "OccupationBitstring",
    "RegisterLayout",
    "SORTED_LIST",
    "Statevector",
    "ToyHamiltonian",
    "apply_circuit",
    "apply_ladder",
    "apply_register_transform",
    "build_layout",
    "count_gates",
    "dft_matrix",
    "encode_first_quantized_determinant",
    "encode_sorted_list",
    "first_quantized_to_fock",
    "first_to_second",
    "fq2sl_gate_count",
    "k_rdm",
    "majorana_circuit",
    "parse_circuit",
    "qft_register_transform",
    "read_state",
    "second_to_first",
    "serialize_circuit",
    "sl2fq_gate_count",
    "sorted_list_to_fock",
    "tensor_product_merge",
    "validate",
    "write_state",
]
