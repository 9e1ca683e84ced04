"""Journal co-citation novelty/conventionality analysis with constrained null models."""

from .corpus import (
    Corpus,
    CorpusSummary,
    IngestConfig,
    IngestDiagnostics,
    IngestError,
    Publication,
    ReferenceRecord,
    export_corpus,
    ingest,
    summarize,
    validate_corpus,
)
from .pairs import JournalPair, PairStats, PairTable, observed_frequencies
from .shuffle import (
    PreservationReport,
    ShuffleOutcome,
    build_groups,
    preservation_report,
    repcs_shuffle,
    umsj_shuffle,
)
from .simulate import (
    SimConfig,
    SimResult,
    benchmark_algorithms,
    run_simulations,
    sign_change_report,
    zscores,
)
from .classify import (
    CATEGORIES,
    ClassifyConfig,
    PubSummary,
    classify_corpus,
    corpus_summaries,
    pub_zstats,
)
from .impact import (
    ChiSquareResult,
    HitConfig,
    HitReport,
    chi_square_gof,
    designate_hits,
    hit_report,
)
from .diverge import CompositionRow, DivergenceResult, composition_fold, kl_divergence
from .synth import SynthConfig, SynthResult, generate

__version__ = "0.1.0"
