"""Guaranteed spectral and pseudospectral inclusion sets for finite complex
matrices: square, periodised, and rectangular truncation methods over a block
partition, classical and block Gershgorin baselines, Toeplitz oracles, and
Hausdorff convergence studies."""

from .errors import (
    DegenerateError,
    DomainError,
    EmptyRegionError,
    GridMismatch,
    PartitionError,
    PiMethodUnsupported,
    SpecinclError,
)
from .matrixcore import (
    BlockMatrixView,
    BlockPartition,
    as_matrix,
    embedding_selector,
    make_view,
    offdiag_norms,
    remaining_norm,
    resolve_partition,
    split_tridiagonal,
    submatrix_pi,
    submatrix_tau,
    submatrix_tau1,
)
from .penalty import (
    PenaltyParams,
    eps_pi,
    eps_tau,
    eps_tau1,
    eta,
    functionals,
    solve_theta,
)
from .pseudospec import (
    GridSpec,
    Region,
    certified_regions,
    contour_extract,
    covers_points,
    default_grid,
    eig,
    hausdorff,
    level_mask,
    pseudospectrum,
    smin,
)
from .inclusion import (
    MethodReport,
    gershgorin,
    gershgorin_block,
    membership,
    method_enclosure,
    method_mask,
    method_reports,
    pi_method,
    sigma_tau,
    tau1_method,
)
from .toeplitz import (
    ToeplitzSpec,
    banded_partition,
    build_toeplitz,
    convergence_study,
    jordan,
    jordan_alpha,
    jordan_annulus,
    jordan_phi,
    jordan_vn,
    laplacian,
    laplacian_spectrum,
    laplacian_theta,
    toeplitz_spec,
    wiener_tail,
)

__version__ = "0.1.0"
