"""qmlab: verification lab and search toolkit for low-bandwidth
coefficient-product recovery on Reed-Solomon encoded data."""

__version__ = "0.1.0"

from .errors import QmLabError  # noqa: F401
from .galois import FieldCtx, field  # noqa: F401
from .qm import LeakageScheme, search_min_bandwidth, verify_scheme  # noqa: F401
from .residues import b11, build_sqrt_system, omega_set, scaled_pair  # noqa: F401
from .rscode import bucket, bucket_eval  # noqa: F401
