"""Journal co-citation novelty/conventionality analysis with constrained null models."""

import os

# Load numpy's OpenBLAS single-threaded (the import below loads numpy) unless
# the user chose a thread count. cocite's only parallelism is its forked
# ``--workers`` processes, and its BLAS calls are small products with one
# column per journal, so a BLAS thread pool only adds start-up time and
# threads that spin beside the workers. Where numpy was imported first, the
# library is already loaded and this has no effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
    run_shuffle,
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
    PubTable,
    classify_corpus,
    corpus_summaries,
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
