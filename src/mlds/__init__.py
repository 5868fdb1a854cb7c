"""Module-lattice digital signature scheme with NTT ring arithmetic,
deterministic samplers, packed wire formats, and a core-SVP attack-cost
estimator."""

from .params import ParamSet, ParamError, DEFAULT_PARAMS
from .ring import (
    Ring,
    RqArray,
    COEFF,
    NTT,
    DomainError,
    NttConstants,
    derive_ntt_constants,
    get_ring,
)
from .sampling import SEED_BYTES, hash_h, crh, gen_a, gen_se
from .codec import (
    CodecError,
    HeaderError,
    LengthError,
    CoefficientRangeError,
    PublicKey,
    SecretKey,
    Signature,
    encode_bits,
    decode_bits,
    unpack_poly,
    serialize_pk,
    parse_pk,
    serialize_sk,
    parse_sk,
    serialize_sig,
    parse_sig,
    SizeReport,
    key_sizes,
)
from .scheme import (
    VerifyResult,
    POLICIES,
    SECRET_DERIVED,
    Z2_DERIVED,
    keygen,
    sign,
    verify,
    measure_agreement,
    AgreementReport,
)
from .estimator import (
    LweInstance,
    AttackEstimate,
    EstimatorError,
    primal_cost,
    dual_cost,
)

__version__ = "0.1.0"

__all__ = [
    "ParamSet", "ParamError", "DEFAULT_PARAMS",
    "Ring", "RqArray", "COEFF", "NTT", "DomainError",
    "NttConstants", "derive_ntt_constants", "get_ring",
    "SEED_BYTES", "hash_h", "crh", "gen_a", "gen_se",
    "CodecError", "HeaderError", "LengthError", "CoefficientRangeError",
    "encode_bits", "decode_bits", "unpack_poly",
    "serialize_pk", "parse_pk", "serialize_sk", "parse_sk",
    "serialize_sig", "parse_sig", "SizeReport", "key_sizes",
    "PublicKey", "SecretKey", "Signature", "VerifyResult",
    "POLICIES", "SECRET_DERIVED", "Z2_DERIVED",
    "keygen", "sign", "verify", "measure_agreement", "AgreementReport",
    "LweInstance", "AttackEstimate", "EstimatorError", "primal_cost", "dual_cost",
]
