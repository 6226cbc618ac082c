"""Keyed multi-stage cat-map scrambling + bit-plane LSB steganography."""

from .arnold import (
    FAMILIES,
    MAX_SIDE,
    grid_side,
    matrix_for,
    matrix_period,
    period,
)
from .bitplane import (
    capacity_bytes,
    embed,
    extract,
    get_plane,
    pack_payload,
    unpack_payload,
)
from .metrics import (
    MetricsReport,
    bit_preservation_ratio,
    compare,
    mse,
    psnr,
)
from .netpbm import NetpbmError, read_binary, read_gray, write_binary, write_gray
from .schedule import (
    KeyFormatError,
    ScrambleSchedule,
    composite_matrix,
    parse_key,
    random_schedule,
    schedule_scramble,
    schedule_unscramble,
    serialize_key,
)
from .synth import natural_binary, natural_gray

__version__ = "0.1.0"
