"""Knowledge-graph embeddings with symmetry-structure contrastive training.

The toolkit mines anchor/pivot/target structures whose two halves carry the
same signed relation sequence, uses the paired entities as contrastive
positives, trains TransE or DistMult embeddings on the combined objective,
and evaluates filtered link prediction and entity classification.

The package root exports the pipeline's calls; result types and internals
stay importable from their own modules.
"""

__version__ = "0.1.0"

from .config import TrainConfig, parse_config
from .errors import SymkgeError
from .evaluation import ProbeConfig, evaluate_split, probe_report, students_t_test, train_probe
from .graph import load_dataset
from .mining import load_dict, mine_positive_dict, save_dict, structure_stats
from .model import ScorerKind, load_checkpoint, save_checkpoint
from .training import train

__all__ = [
    # load
    "load_dataset",
    # mine
    "mine_positive_dict", "structure_stats", "save_dict", "load_dict",
    # train
    "TrainConfig", "parse_config", "train", "save_checkpoint", "load_checkpoint",
    # evaluate
    "ScorerKind", "evaluate_split", "ProbeConfig", "train_probe", "probe_report",
    "students_t_test",
    # every failure
    "SymkgeError",
]
