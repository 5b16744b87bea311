"""Localization engine for passive drifters in gridded 2-D current fields.

Pipeline: discretize the region into a cell workspace (gridworld), Euler-map
the current field into a deterministic cell map (flowfield), widen it into a
stochastic cell-to-cell Markov chain and decompose the long-term flow into
attractors and transient groups (gcm), decode compass observation histories
with an HMM/Viterbi stack (hmm), and reproduce seeded Monte-Carlo error
experiments (sim).  Fields are loaded from text files or synthesized (ingest).
"""

from .errors import (
    CellIndexError,
    ConfigError,
    DriftlocError,
    FieldParseError,
    LandCellError,
    NonAdjacentCellsError,
    ZeroProbabilityError,
)
from .flowfield import (
    CellMap,
    VectorField,
    build_cell_map,
    default_dt,
)
from .gcm import (
    FlowDecomposition,
    StochasticCellMap,
    build_stochastic_map,
    decompose,
)
from .gridworld import (
    SLOT_DIRECTIONS,
    Direction,
    Workspace,
    direction_between,
    parse_directions,
)
from .hmm import (
    initial_distribution,
    viterbi,
    viterbi_runs,
)
from .ingest import (
    SyntheticFieldSpec,
    load_field,
    resolve_field,
    save_field,
    synthesize_field,
)
from .sim import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    sample_runs,
)

__version__ = "0.1.0"
