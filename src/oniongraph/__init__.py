"""Analysis toolkit for multi-snapshot hidden-service web crawls.

Page records go in; service graphs, topology metrics, heavy-tail degree
fits, community structure, bow-tie decompositions, and content-vs-topology
statistics come out, as plain data objects or machine-readable reports.
"""

__version__ = "0.1.0"

from .bowtie import BowTieAssignment, bowtie_decompose
from .community import (
    Partition,
    ami,
    ami_on_common,
    louvain,
    modularity,
)
from .errors import DataError, OnionGraphError, ParseError, StageError, UsageError
from .fitting import (
    FitReport,
    bootstrap_pvalue,
    compare_fits,
    fit_lognormal,
    fit_power_law,
    fit_report,
    sample_lognormal,
    sample_power_law,
)
from .graphs import (
    ServiceGraph,
    build_dsg,
    giant_wcc,
    intersect,
    read_graph_file,
    to_usg,
    union,
    write_graph_file,
)
from .metrics import (
    GlobalMetrics,
    VertexMetrics,
    hits,
    hub_reach_curve,
    pagerank,
    vertex_metrics,
)
from .records import (
    PageRecord,
    PersistenceReport,
    ServiceSummary,
    iter_pages,
    parse_pages,
    persistence_report,
    summarize_services,
)
from .stats import (
    GainResult,
    LabelSet,
    gain_report,
    info_gain,
    spearman,
    spearman_matrix,
    tag_prevalence,
)
from .synth import Corpus, CorpusSpec, generate_corpus

__all__ = [name for name in dir() if not name.startswith("_")]
