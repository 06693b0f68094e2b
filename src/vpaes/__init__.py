"""Lossless image encryption with per-block variable bit permutations.

AES-128 where every 128-bit block is additionally scrambled, right after
the initial key XOR, by its own 128-position bit permutation. Permutations
are indexed by factorial-base digits read from the byte expansion of
frac(l * pi), l being the key as an integer, through a per-block sliding
window, so the whole construction is keyed and deterministic. Ships with
lossless PPM/PGM/BMP handling, a viewable ciphertext container, and a
statistical battery (entropy, adjacent-pixel correlation, spectral DFT
test, chi-square tone test, key-sensitivity correlation).
"""

from .cipher import (
    decrypt_block,
    decrypt_payload,
    encrypt_block,
    encrypt_payload,
    expand_key,
)
from .errors import (
    ContainerError,
    DomainError,
    ImageFormatError,
    KeyFormatError,
    PreconditionError,
    VpaesError,
)
from .imageio import (
    CipherContainer,
    ImageBuffer,
    cipher_view,
    load_image,
    pad_payload,
    read_container,
    save_image,
    unpad_payload,
    write_container,
)
from .keystream import (
    FractionStream,
    Key128,
    key_to_integer,
    pi_fraction_bytes,
    required_byte_count,
    window,
)
from .permgen import (
    FactoradicCoefficients,
    Permutation,
    apply_to_bits,
    coefficients_from_bytes,
    factoradic_compose,
    factoradic_decompose,
    identity_permutation,
    invert,
    permutation_from_coefficients,
)
from .randstat import (
    chi_square_p_value,
    chi_square_tone_test,
    correlation,
    entropy,
    erfc,
    phi,
    plaintext_selection_score,
    sample_adjacent_pairs,
    sensitivity_correlation,
    spectral_dft_test,
    tone_histogram,
)

__version__ = "0.1.0"
