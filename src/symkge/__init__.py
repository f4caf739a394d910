"""Knowledge-graph embeddings with symmetry-structure contrastive training.

The toolkit mines anchor/pivot/target structures whose two halves carry the
same signed relation sequence, uses the paired entities as contrastive
positives, trains TransE or DistMult embeddings on the combined objective,
and evaluates filtered link prediction and entity classification.
"""

__version__ = "0.1.0"

from .config import TrainConfig, parse_config
from .errors import SymkgeError
from .evaluation import (
    ProbeReport,
    RankingReport,
    TTestReport,
    evaluate_split,
    filtered_rank,
    probe_report,
    students_t_test,
    train_probe,
)
from .graph import (
    Dataset,
    LabelMaps,
    SignedRelation,
    Triple,
    UnionGraph,
    intern_graph,
    load_dataset,
    read_triple_file,
    signed_neighbors,
)
from .losses import (
    LossBreakdown,
    combined_gradients,
    combined_loss,
    contrastive_loss,
    task_loss,
)
from .mining import (
    PositiveDict,
    StructureStats,
    SymmetricStructure,
    load_dict,
    mine_positive_dict,
    sample_positives,
    save_dict,
    structure_stats,
)
from .model import (
    EmbeddingTable,
    ScorerKind,
    init_embeddings,
    load_checkpoint,
    save_checkpoint,
    score,
)
from .training import TrainResult, train

__all__ = [
    "Dataset",
    "EmbeddingTable",
    "LabelMaps",
    "LossBreakdown",
    "PositiveDict",
    "ProbeReport",
    "RankingReport",
    "ScorerKind",
    "SignedRelation",
    "StructureStats",
    "SymkgeError",
    "SymmetricStructure",
    "TTestReport",
    "TrainConfig",
    "TrainResult",
    "Triple",
    "UnionGraph",
    "combined_gradients",
    "combined_loss",
    "contrastive_loss",
    "evaluate_split",
    "filtered_rank",
    "init_embeddings",
    "intern_graph",
    "load_checkpoint",
    "load_dataset",
    "load_dict",
    "mine_positive_dict",
    "parse_config",
    "probe_report",
    "read_triple_file",
    "sample_positives",
    "save_checkpoint",
    "save_dict",
    "score",
    "signed_neighbors",
    "students_t_test",
    "structure_stats",
    "task_loss",
    "train",
    "train_probe",
]
