"""layercast: layered-BFS information diffusion and true-vs-false intervention
simulations on synthetic social networks, with centrality-based seeding
strategies, reproducible experiment batteries, and paired Wilcoxon comparisons.
"""

from .centrality import (
    CentralityKind,
    CentralityScores,
    betweenness_centrality,
    closeness_centrality,
    compute_centrality,
    degree_centrality,
    eigenvector_centrality,
    pagerank,
    select_seeds,
    top_k_by_score,
)
from .diffusion import (
    DiffusionParams,
    DiffusionState,
    Label,
    diffusion_metrics,
    label_nodes,
    run_single_diffusion,
    transmission_factor,
    update_from_source,
)
from .errors import (
    ContractError,
    DegenerateSampleError,
    GenerationError,
    InputError,
    LayercastError,
    NumericError,
)
from .generators import (
    ErParams,
    GaussianPartitionParams,
    LfrParams,
    gen_er,
    gen_gaussian_partition,
    gen_lfr,
)
from .graph import (
    Graph,
    LayeredView,
    build_graph,
    effective_edge_count,
    format_edge_list,
    layer_from_sources,
    load_edge_list,
    parse_edge_list,
    save_edge_list,
)
# the three *_preset names stay because the benchmark's workloads call them
from .harness import (
    PRESETS,
    ExperimentConfig,
    ExperimentResult,
    MetricRecord,
    PValueEntry,
    SweepSpec,
    apply_scale,
    build_ensemble,
    config_from_dict,
    config_to_dict,
    dense_er_single_preset,
    er_intervention_preset,
    export_results,
    lfr_intervention_preset,
    load_config,
    minimum_seed_battery,
    preset,
    read_records,
    run_experiment,
)
from .intervention import (
    CombatParams,
    CombatState,
    determine_combat_label,
    intervention_metrics,
    minimum_true_seeds,
    run_intervention,
)
from .stats import (
    EngagementRecord,
    PairedSample,
    WilcoxonResult,
    compare_strategies,
    engagement_sample,
    load_engagement,
    summarize,
    wilcoxon_one_tailed,
)

__version__ = "0.1.0"
